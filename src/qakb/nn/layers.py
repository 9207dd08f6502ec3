"""Network building blocks on top of the autodiff tensor.

Dense layers and recurrent cells expose ``parameters() -> dict[name,
Tensor]`` so optimizers and snapshots can address weights by stable
hierarchical names; a model names its embedding tables' ``vectors``.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, Optional, Sequence

import numpy as np

from qakb.errors import ShapeMismatch
from qakb.nn.tensor import (
    Tensor,
    _make,
    concat,
    gather_rows,
    logistic,
    matmul,
    mul,
    norm,
    param,
    relu,
    row,
    sigmoid,
    softmax_rows,
    transpose,
    zeros,
)

log = logging.getLogger(__name__)

OOV_TOKEN = "<oov>"


def glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    fan_out = shape[0]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class EmbeddingTable:
    """Token-to-vector lookup; unknown tokens share one trained row."""

    def __init__(self, tokens: list[str], vectors: np.ndarray):
        if len(tokens) != vectors.shape[0]:
            raise ShapeMismatch(
                f"{len(tokens)} tokens vs {vectors.shape[0]} vector rows"
            )
        self.vocab = {tok: i for i, tok in enumerate(tokens)}
        if OOV_TOKEN not in self.vocab:
            raise ShapeMismatch(f"vocabulary must contain {OOV_TOKEN!r}")
        self.oov_index = self.vocab[OOV_TOKEN]
        self.vectors = param(vectors)
        self.dim = vectors.shape[1]

    @classmethod
    def random(cls, tokens: list[str], dim: int, rng: np.random.Generator,
               scale: float = 0.1) -> "EmbeddingTable":
        toks = list(dict.fromkeys(tokens))
        if OOV_TOKEN not in toks:
            toks.append(OOV_TOKEN)
        vecs = rng.uniform(-scale, scale, size=(len(toks), dim))
        return cls(toks, vecs)

    def indices(self, seq: list[str]) -> list[int]:
        return [self.vocab.get(tok, self.oov_index) for tok in seq]

    def embed(self, seq: list[str]) -> Tensor:
        """Rows for a token sequence; empty input gives a [0, d] tensor."""
        return gather_rows(self.vectors, self.indices(seq))


class Dense:
    """Affine map with an optional activation; accepts vectors or matrices."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 activation: str = "none", name: str = "dense"):
        if activation not in ("none", "relu", "sigmoid"):
            raise ValueError(f"unknown activation {activation!r}")
        self.in_dim, self.out_dim = in_dim, out_dim
        self.activation = activation
        self.name = name
        self.weight = param(glorot(rng, (out_dim, in_dim)))
        self.bias = param(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ShapeMismatch(
                f"{self.name}: input dim {x.shape[-1]}, expected {self.in_dim}"
            )
        if x.ndim == 1:
            y = matmul(self.weight, x) + self.bias
        else:
            y = matmul(x, transpose(self.weight)) + self.bias
        if self.activation == "relu":
            return relu(y)
        if self.activation == "sigmoid":
            return sigmoid(y)
        return y

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}


class _GatedCell:
    """A recurrent cell's weights: per gate in the subclass's ``gates`` an
    input weight ``W_*``, a recurrent weight ``U_*`` and a bias ``b_*``."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator, name: Optional[str] = None):
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        self.name = name or self.default_name
        self._p: dict[str, Tensor] = {}
        for gate in self.gates:
            self._p[f"W_{gate}"] = param(glorot(rng, (hidden_dim, input_dim)))
            self._p[f"U_{gate}"] = param(glorot(rng, (hidden_dim, hidden_dim)))
            self._p[f"b_{gate}"] = param(np.zeros(hidden_dim))

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.{k}": v for k, v in self._p.items()}


class GRUCell(_GatedCell):
    """Gated recurrent unit: h' = (1-z)*n + z*h with reset-gated candidate.

    The state is the one-array tuple ``(h,)``.
    """

    gates = ("z", "r", "n")
    default_name = "gru"

    def initial_state(self) -> tuple[np.ndarray]:
        return (np.zeros(self.hidden_dim),)

    def step(self, x: np.ndarray, state: tuple[np.ndarray]):
        """One timestep on arrays: the next state, and what
        :meth:`step_backward` needs of this one (the input state first)."""
        (h,) = state
        p = self._p
        z = logistic(p["W_z"].data @ x + p["U_z"].data @ h + p["b_z"].data)
        r = logistic(p["W_r"].data @ x + p["U_r"].data @ h + p["b_r"].data)
        u_n = p["U_n"].data @ h
        n = np.tanh(p["W_n"].data @ x + r * u_n + p["b_n"].data)
        return ((1.0 - z) * n + z * h,), (h, z, r, n, u_n)

    def step_backward(self, saved, d_state: tuple[np.ndarray]):
        """Gradients of one step from the gradient of its output state:
        (gradient of its input state, per gate the gradient of the
        pre-activation that ``W`` and ``b`` feed, per gate the gradient of
        the product ``U @ h``)."""
        h, z, r, n, u_n = saved
        (dh,) = d_state
        p = self._p
        da_n = dh * (1.0 - z) * (1.0 - n * n)
        da_z = dh * (h - n) * z * (1.0 - z)
        du_n = da_n * r
        da_r = da_n * u_n * r * (1.0 - r)
        dh_prev = (dh * z + da_z @ p["U_z"].data + da_r @ p["U_r"].data
                   + du_n @ p["U_n"].data)
        return (dh_prev,), (da_z, da_r, da_n), (da_z, da_r, du_n)


class LSTMCell(_GatedCell):
    """Long short-term memory cell with the usual i/f/g/o gates.

    The state is the tuple ``(h, c)``.
    """

    gates = ("i", "f", "g", "o")
    default_name = "lstm"

    def initial_state(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(self.hidden_dim), np.zeros(self.hidden_dim)

    def step(self, x: np.ndarray, state: tuple[np.ndarray, np.ndarray]):
        """One timestep on arrays: the next state, and what
        :meth:`step_backward` needs of this one (the input ``h`` first)."""
        h, c = state
        p = self._p
        i = logistic(p["W_i"].data @ x + p["U_i"].data @ h + p["b_i"].data)
        f = logistic(p["W_f"].data @ x + p["U_f"].data @ h + p["b_f"].data)
        g = np.tanh(p["W_g"].data @ x + p["U_g"].data @ h + p["b_g"].data)
        o = logistic(p["W_o"].data @ x + p["U_o"].data @ h + p["b_o"].data)
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        return (o * tanh_c, c_new), (h, c, i, f, g, o, tanh_c)

    def step_backward(self, saved, d_state: tuple[np.ndarray, np.ndarray]):
        """Gradients of one step, as :meth:`GRUCell.step_backward`; every
        gate's ``U @ h`` gradient is its pre-activation gradient."""
        h, c, i, f, g, o, tanh_c = saved
        dh, dc = d_state
        p = self._p
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        da = (dc * g * i * (1.0 - i),
              dc * c * f * (1.0 - f),
              dc * i * (1.0 - g * g),
              dh * tanh_c * o * (1.0 - o))
        dh_prev = (da[0] @ p["U_i"].data + da[1] @ p["U_f"].data
                   + da[2] @ p["U_g"].data + da[3] @ p["U_o"].data)
        return (dh_prev, dc * f), da, da


def _recurrent_states(cell, inputs: Tensor, order: range) -> Tensor:
    """The [T, h] output states of ``cell`` run over ``inputs`` in
    ``order``, aligned with input positions, as one graph node.

    The forward calls ``cell.step`` once per timestep.  The backward runs
    ``cell.step_backward`` back through time and adds each gate's weight
    and bias gradients once per sequence, as products over all timesteps.
    """
    x = np.ascontiguousarray(inputs.data)
    states = np.empty((x.shape[0], cell.hidden_dim))
    saved: list = [None] * x.shape[0]
    state = cell.initial_state()
    for t in order:
        state, saved[t] = cell.step(x[t], state)
        states[t] = state[0]
    p = cell._p

    def backward(out: Tensor):
        def fn():
            n_gates, T, H = len(cell.gates), x.shape[0], cell.hidden_dim
            d_pre = np.empty((n_gates, T, H))
            d_rec = np.empty((n_gates, T, H))
            d_state = tuple(np.zeros(H) for _ in cell.initial_state())
            for t in reversed(order):
                d_state = (d_state[0] + out.grad[t],) + d_state[1:]
                d_state, d_pre[:, t], d_rec[:, t] = cell.step_backward(
                    saved[t], d_state)
            h_prev = np.stack([s[0] for s in saved])
            d_x = np.zeros_like(x)
            for k, gate in enumerate(cell.gates):
                w, u, b = p[f"W_{gate}"], p[f"U_{gate}"], p[f"b_{gate}"]
                if w.requires_grad:
                    w.accumulate(d_pre[k].T @ x)
                if u.requires_grad:
                    u.accumulate(d_rec[k].T @ h_prev)
                if b.requires_grad:
                    b.accumulate(d_pre[k].sum(axis=0))
                d_x += d_pre[k] @ w.data
            if inputs.requires_grad:
                inputs.accumulate(d_x)
        return fn

    return _make(states, (inputs, *p.values()), backward)


def run_recurrent(cell, inputs: Tensor, direction: str = "forward"):
    """Run a cell over [T, d] inputs; returns ([T, h] states, [h] last).

    The backward direction processes the sequence right-to-left but the
    returned state matrix stays aligned with input positions; ``last`` is
    then the state computed at position 0.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    if inputs.ndim != 2:
        raise ShapeMismatch(f"recurrent input must be [T, d], got {inputs.shape}")
    if inputs.shape[1] != cell.input_dim:
        raise ShapeMismatch(
            f"input dim {inputs.shape[1]}, cell expects {cell.input_dim}"
        )
    T = inputs.shape[0]
    if T == 0:
        return zeros((0, cell.hidden_dim)), zeros((cell.hidden_dim,))
    order = range(T) if direction == "forward" else range(T - 1, -1, -1)
    states = _recurrent_states(cell, inputs, order)
    return states, row(states, order[-1])


def bidirectional_encode(cell_fwd, cell_bwd, inputs: Tensor):
    """Concatenate forward and backward runs: ([T, 2h], [2h])."""
    states_f, last_f = run_recurrent(cell_fwd, inputs, "forward")
    states_b, last_b = run_recurrent(cell_bwd, inputs, "backward")
    if inputs.shape[0] == 0:
        return zeros((0, cell_fwd.hidden_dim + cell_bwd.hidden_dim)), concat(
            [last_f, last_b]
        )
    return concat([states_f, states_b], axis=1), concat([last_f, last_b])


def self_attention(states: Tensor) -> Tensor:
    """Scaled dot-product attention of a state sequence against itself.

    A = softmax(states statesᵀ / sqrt(h)) row-wise; output is A·states.
    """
    if states.ndim != 2:
        raise ShapeMismatch(f"self_attention expects [T, h], got {states.shape}")
    T, h = states.shape
    if T == 0:
        return states
    scores = mul(matmul(states, transpose(states)), 1.0 / math.sqrt(h))
    return matmul(softmax_rows(scores), states)


class EncodeCache:
    """Encodings keyed by token tuple, each computed by ``encode`` on first
    use and then reused.

    Entries are never invalidated, so a cache must not outlive a change to
    the weights behind ``encode``: answering sessions own one each.
    """

    def __init__(self, encode: Callable[[tuple[str, ...]], Tensor]):
        self._encode = encode
        self.table: dict[tuple[str, ...], Tensor] = {}

    def __call__(self, tokens: Sequence[str]) -> Tensor:
        key = tuple(tokens)
        vec = self.table.get(key)
        if vec is None:
            vec = self.table[key] = self._encode(key)
        return vec


def dropout(x: Tensor, p: float, mode: str, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout: train-time mask and rescale, eval-time identity."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1)")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown dropout mode {mode!r}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout requires an rng")
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return mul(x, mask)


_warned_zero_norm = False


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of two vectors; zero-norm inputs score 0."""
    global _warned_zero_norm
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeMismatch(f"cosine expects equal-length vectors, got {a.shape} / {b.shape}")
    na = float(np.linalg.norm(a.data))
    nb = float(np.linalg.norm(b.data))
    if na == 0.0 or nb == 0.0:
        # first occurrence is worth surfacing; after that it is routine
        level = logging.DEBUG if _warned_zero_norm else logging.WARNING
        log.log(level, "cosine of a zero-norm vector; returning 0.0")
        _warned_zero_norm = True
        return Tensor(0.0)
    return matmul(a, b) / (norm(a) * norm(b))
