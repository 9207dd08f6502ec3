"""First-order optimization: Adam with bias correction, and the minibatch
training loop every model shares.

Once an :class:`Adam` exists, its parameters' values live in its buffer:
nothing may rebind ``p.data``, only write into it (``p.data[...] =``).
"""

from __future__ import annotations

import logging
from typing import Callable, Optional

import numpy as np

from qakb.nn.config import TrainConfig
from qakb.nn.tensor import Tensor

logger = logging.getLogger(__name__)


class Adam:
    """Adam over a named parameter table; iteration order is by name.

    Each parameter's ``data`` becomes a view into one flat buffer, in
    that order, and the moments are one flat array each, so a step in
    which every parameter has a gradient is one in-place update of the
    whole buffer.  Otherwise each parameter with a gradient is updated
    on its slices, and one without keeps its value and moments.  Both
    round every element alike.  ValueError when two keys name one
    tensor, whose value cannot live in two slices.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001):
        self.params = dict(sorted(params.items()))
        seen: dict[int, str] = {}
        for name, p in self.params.items():
            first = seen.setdefault(id(p), name)
            if first != name:
                raise ValueError(f"{first!r} and {name!r} are one tensor")
        self.lr = lr
        self.t = 0
        self.data = np.concatenate([p.data for p in self.params.values()],
                                   axis=None)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self._slices: list[slice] = []
        offset = 0
        for p in self.params.values():
            sl = slice(offset, offset + p.data.size)
            p.data, offset = self.data[sl].reshape(p.data.shape), sl.stop
            self._slices.append(sl)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        grads = [p.grad for p in self.params.values()]
        if all(g is not None for g in grads):
            runs = [(slice(None), grads)]
        else:  # a parameter without a gradient keeps its value and moments
            runs = [(sl, [g]) for sl, g in zip(self._slices, grads)
                    if g is not None]
        for sl, gs in runs:
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
            # data -= lr (m / bc1) / (sqrt(v / bc2) + eps), in place and
            # rounded in that order
            data, m, v = self.data[sl], self.m[sl], self.v[sl]
            g = np.concatenate(gs, axis=None)
            s = np.multiply(g, 1.0 - self.beta2)
            s *= g
            v *= self.beta2
            v += s
            g *= 1.0 - self.beta1
            m *= self.beta1
            m += g
            np.divide(m, bc1, out=g)
            g *= self.lr
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            g /= s
            data -= g


def fit(params: dict[str, Tensor], n: int,
        batch_loss_fn: Callable[[np.ndarray], tuple[Optional[Tensor], int]],
        cfg: TrainConfig, rng: np.random.Generator, name: str) -> list[float]:
    """Train ``params`` with Adam over ``n`` examples; returns the mean loss
    of each epoch.

    Each epoch draws one ``rng.permutation(n)`` and walks it in slices of
    ``cfg.batch_size``.  ``batch_loss_fn(batch)`` gets a slice of example
    indices and returns the summed loss of its usable examples and how
    many there are.  The sum, scaled by one over the count, takes one
    optimizer step; a batch with none takes none.
    """
    opt = Adam(params, lr=cfg.learning_rate)
    curve: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        total, counted = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            batch_loss, count = batch_loss_fn(
                order[start:start + cfg.batch_size])
            if not count:
                continue
            total += float(batch_loss.data)
            counted += count
            batch_loss = batch_loss * (1.0 / count)
            opt.zero_grad()
            batch_loss.backward()
            opt.step()
        curve.append(total / max(counted, 1))
        logger.debug("%s epoch %d loss %.6f", name, epoch, curve[-1])
    return curve
