"""First-order optimization: Adam with bias correction, and the minibatch
training loop every model shares."""

from __future__ import annotations

import logging
from typing import Callable, Optional

import numpy as np

from qakb.nn.config import TrainConfig
from qakb.nn.tensor import Tensor

logger = logging.getLogger(__name__)


class Adam:
    """Adam over a named parameter table; iteration order is by name."""

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = dict(sorted(params.items()))
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
