"""Training objectives: cross-entropies and margin (hinge) losses.

Probabilities are clamped at 1e-12 before any log so perfect predictions
stay finite.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from qakb.errors import EmptySequence, ShapeMismatch
from qakb.nn.tensor import (ArrayLike, Tensor, as_tensor, clip, log, relu,
                            take_column, tsum)

PROB_EPS = 1e-12


def loss_categorical_ce(pred: Tensor, gold: list[int],
                        lengths: Optional[Sequence[int]] = None) -> Tensor:
    """Binary cross-entropy averaged over sequence positions.

    ``pred`` is a [T, 2] matrix of per-position distributions; ``gold``
    holds 0/1 labels.  The per-position loss is
    -[y ln a + (1-y) ln(1-a)] with a the positive-class probability.
    With ``lengths``, the rows of ``pred`` are consecutive sequences of
    those lengths, and the loss is the sum of each sequence's own mean.
    """
    if pred.ndim != 2 or pred.shape[1] != 2:
        raise ShapeMismatch(f"expected [T, 2] predictions, got {pred.shape}")
    lens = np.asarray([pred.shape[0]] if lengths is None else lengths,
                      dtype=np.int64)
    if not lens.all():
        raise EmptySequence("cannot score an empty tag sequence")
    if pred.shape[0] != len(gold) or lens.sum() != len(gold):
        raise ShapeMismatch(f"{pred.shape[0]} predictions vs {len(gold)} "
                            f"labels in sequences of {lens.tolist()}")
    return tsum(loss_binary_ce(take_column(pred, 1), gold)
                * np.repeat(1.0 / lens, lens))


def loss_binary_ce(a: ArrayLike, y: Union[int, Sequence[int]]) -> Tensor:
    """Single-pair form: -[y ln a + (1-y) ln(1-a)].  A vector of
    probabilities with a vector of labels gives each pair's loss."""
    y = np.asarray(y)
    if not ((y == 0) | (y == 1)).all():
        raise ValueError(f"label must be 0 or 1, got {y.tolist()!r}")
    a = as_tensor(a)
    if a.shape != y.shape:
        raise ShapeMismatch(f"{a.shape} probabilities for {y.shape} labels")
    y = y.astype(np.float64)
    log_a = log(clip(a, PROB_EPS, 1.0))
    log_not_a = log(clip(1.0 - a, PROB_EPS, 1.0))
    return -(y * log_a + (1.0 - y) * log_not_a)


def loss_hinge_qas(s_pos: ArrayLike, s_neg: ArrayLike, gamma: float) -> Tensor:
    """Single-score margin loss: max(0, S_neg + gamma - S_pos)."""
    if gamma <= 0:
        raise ValueError("margin must be positive")
    return relu(as_tensor(s_neg) - as_tensor(s_pos) + gamma)
