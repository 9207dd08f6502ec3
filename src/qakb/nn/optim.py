"""First-order optimization: Adam with bias correction, and the minibatch
training loop every model shares.

Once an :class:`Adam` exists, its parameters' values live in its buffer:
nothing may rebind ``p.data``, only write into it (``p.data[...] =``).
A step pays for the rows of an embedding table that training has
reached, not for the whole table.
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
    that order, and the moments are one flat array each.  A step updates
    each parameter that has a gradient; one without keeps its value and
    moments.  A row is live once some gradient has reached it.  While
    fewer of a table's rows are live than not, which :func:`gather_rows`
    alone can make so (it marks ``grad_rows``), its live rows are
    gathered, updated and written back.  Any other parameter is updated
    whole, and consecutive ones as one run of the buffer.  A row that is
    not live has zero moments and a zero gradient, which an update
    leaves as they are, so both paths give the same bits.  ValueError
    when two keys name one tensor, whose value cannot live in two
    slices.
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
        # np.zeros, not zeros_like, so that the moments of rows no
        # gradient reaches are never written
        self.m = np.zeros(self.data.size)
        self.v = np.zeros(self.data.size)
        self._slices: list[slice] = []
        # each parameter's live rows, as a mask, while fewer are live than
        # not; None from then on, and for a 0-d parameter
        self._live: list[Optional[np.ndarray]] = []
        offset = 0
        for p in self.params.values():
            sl = slice(offset, offset + p.data.size)
            p.data, offset = self.data[sl].reshape(p.data.shape), sl.stop
            self._slices.append(sl)
            self._live.append(np.zeros(len(p.data), dtype=bool)
                              if p.data.ndim else None)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = p.grad_rows = None

    def _few_live_rows(self, i: int, reached: Optional[np.ndarray]
                       ) -> Optional[np.ndarray]:
        """Parameter ``i``'s live rows, as positions, once the rows its
        gradient ``reached`` (None: every row) are added, while fewer of
        its rows are live than not; None from then on."""
        live = self._live[i]
        if live is None or reached is None:
            self._live[i] = None
            return None
        live |= reached
        rows = np.flatnonzero(live)
        if 2 * rows.size >= live.size:
            self._live[i] = None
            return None
        return rows

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        runs: list[list] = []  # [start, stop, gradients] of each run
        for i, p in enumerate(self.params.values()):
            if p.grad is None:
                continue  # keeps its value and moments
            sl = self._slices[i]
            rows = self._few_live_rows(i, p.grad_rows)
            if rows is not None:
                m, v = (a[sl].reshape(p.data.shape) for a in (self.m, self.v))
                part = p.data[rows], m[rows], v[rows]
                self._update(*part, p.grad[rows], bc1, bc2)
                p.data[rows], m[rows], v[rows] = part
            elif runs and runs[-1][1] == sl.start:
                runs[-1][1] = sl.stop
                runs[-1][2].append(p.grad)
            else:
                runs.append([sl.start, sl.stop, [p.grad]])
        for start, stop, grads in runs:
            sl = slice(start, stop)
            self._update(self.data[sl], self.m[sl], self.v[sl],
                         np.concatenate(grads, axis=None), bc1, bc2)

    def _update(self, data: np.ndarray, m: np.ndarray, v: np.ndarray,
                g: np.ndarray, bc1: float, bc2: float) -> None:
        """m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        data -= lr (m / bc1) / (sqrt(v / bc2) + eps), in place and
        rounded in that order; ``g`` is scratch."""
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
