"""Training objectives: cross-entropies and margin (hinge) losses.

Probabilities are clamped at 1e-12 before any log so perfect predictions
stay finite.  The binary cross-entropy is one graph node whose data is
:func:`binary_ce_forward`'s and whose backward is
:func:`binary_ce_backward`: the gradients that the clip, log, product,
sum and negation nodes it is made of would give, with the same
expressions, so every bit of training is theirs.  The matchers' pair
loss reuses the two.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from qakb.errors import EmptySequence, ShapeMismatch
from qakb.nn.tensor import (ArrayLike, Tensor, _make, as_tensor, relu,
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


def binary_ce_forward(a: np.ndarray, y: Union[int, Sequence[int]]
                      ) -> tuple[np.ndarray, tuple]:
    """-[y ln a + (1-y) ln(1-a)] of probabilities ``a`` and 0/1 labels
    ``y`` of ``a``'s shape on arrays, each log's argument clamped to
    [1e-12, 1]; and what :func:`binary_ce_backward` reads.  ValueError
    for another label, ShapeMismatch for another shape."""
    y = np.asarray(y)
    if not ((y == 0) | (y == 1)).all():
        raise ValueError(f"label must be 0 or 1, got {y.tolist()!r}")
    if a.shape != y.shape:
        raise ShapeMismatch(f"{a.shape} probabilities for {y.shape} labels")
    y = y.astype(np.float64)
    not_a = 1.0 - a
    a_in, not_a_in = np.clip(a, PROB_EPS, 1.0), np.clip(not_a, PROB_EPS, 1.0)
    not_y = 1.0 - y
    loss = -(y * np.log(a_in) + not_y * np.log(not_a_in))
    return loss, (a, not_a, a_in, not_a_in, y, not_y)


def _inside(x: np.ndarray) -> np.ndarray:
    """1.0 where the clamp of :func:`binary_ce_forward` passes ``x``'s
    gradient, strictly inside its bounds, and 0.0 elsewhere."""
    return ((x > PROB_EPS) & (x < 1.0)).astype(np.float64)


def binary_ce_backward(grad: np.ndarray, saved: tuple) -> np.ndarray:
    """The gradient of the probabilities from the gradient ``grad`` of
    :func:`binary_ce_forward`'s losses: the sum of its terms through
    ln a and through ln(1-a).  A 0/1 label makes one of them zero, so
    the sum has the bits of the composed graph adding one term and then
    the other."""
    a, not_a, a_in, not_a_in, y, not_y = saved
    g = grad * -1.0
    return (g * y * (1.0 / a_in) * _inside(a)
            + g * not_y * (1.0 / not_a_in) * _inside(not_a) * -1.0)


def loss_binary_ce(a: ArrayLike, y: Union[int, Sequence[int]]) -> Tensor:
    """Single-pair form: -[y ln a + (1-y) ln(1-a)].  A vector of
    probabilities with a vector of labels gives each pair's loss."""
    a = as_tensor(a)
    loss, saved = binary_ce_forward(a.data, y)

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            a.accumulate(binary_ce_backward(out.grad, saved))

    return _make(loss, (a,), backward)


def loss_hinge_qas(s_pos: ArrayLike, s_neg: ArrayLike, gamma: float) -> Tensor:
    """Single-score margin loss: max(0, S_neg + gamma - S_pos)."""
    if gamma <= 0:
        raise ValueError("margin must be positive")
    return relu(as_tensor(s_neg) - as_tensor(s_pos) + gamma)
