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
    gather_rows,
    logistic,
    matmul,
    mul,
    param,
    relu,
    sigmoid,
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
    def random(cls, tokens: list[str], dim: int,
               rng: np.random.Generator) -> "EmbeddingTable":
        """A table of ``tokens`` (plus the unknown-token row) with rows
        drawn uniformly from [-0.1, 0.1]."""
        toks = list(dict.fromkeys(tokens))
        if OOV_TOKEN not in toks:
            toks.append(OOV_TOKEN)
        vecs = rng.uniform(-0.1, 0.1, size=(len(toks), dim))
        return cls(toks, vecs)

    def indices(self, seq: list[str]) -> list[int]:
        return [self.vocab.get(tok, self.oov_index) for tok in seq]

    def embed(self, seq: list[str]) -> Tensor:
        """Rows for a token sequence; empty input gives a [0, d] tensor."""
        return gather_rows(self.vectors, self.indices(seq))

    def embed_padded(self, seqs: Sequence[Sequence[str]]
                     ) -> tuple[Tensor, np.ndarray]:
        """Rows for token sequences as one [B, T, d] batch, right-padded
        with row 0, and the sequences' lengths."""
        idx, lengths = padded_indices([self.indices(list(seq))
                                       for seq in seqs])
        return gather_rows(self.vectors, idx), lengths


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
    input weight ``W_*``, a recurrent weight ``U_*`` and a bias ``b_*``.

    A step works on ``[n, h]`` states, one row per sequence still
    running, or on ``[D, n, h]`` states with one such block per direction
    of a run, the weights then stacked ``[D, ...]`` too.  It takes every
    gate's input projection ``x @ W.T`` precomputed:
    :func:`_recurrent_states` projects all timesteps in one product before
    its time loop, with the gates' weights stacked (:meth:`stacked`).
    Each kind of weight is one array with the gates' blocks stacked in
    ``gates`` order, and the per-gate parameters are views of its blocks,
    so a run reads the stacked weights without copying them.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator, name: Optional[str] = None):
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        self.name = name or self.default_name
        rows = len(self.gates) * hidden_dim
        self._stacked = {"W": np.empty((rows, input_dim)),
                         "U": np.empty((rows, hidden_dim)),
                         "b": np.zeros(rows)}
        self._p: dict[str, Tensor] = {}
        for k, gate in enumerate(self.gates):
            block = slice(k * hidden_dim, (k + 1) * hidden_dim)
            self._stacked["W"][block] = glorot(rng, (hidden_dim, input_dim))
            self._stacked["U"][block] = glorot(rng, (hidden_dim, hidden_dim))
            for kind in "WUb":
                self._p[f"{kind}_{gate}"] = Tensor(self._stacked[kind][block],
                                                   requires_grad=True)
        # per kind of weight, its tensors in gate order
        self._kinds = {kind: [self._p[f"{kind}_{gate}"] for gate in self.gates]
                       for kind in "WUb"}

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.{k}": v for k, v in self._p.items()}

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The gates' weights side by side, in ``gates`` order: ``W.T``
        as [d, G*h], ``U`` as [G*h, h] and ``b`` as [G*h]."""
        return (self._stacked["W"].T.copy(), self._stacked["U"],
                self._stacked["b"])

    def initial_state(self, *rows: int) -> tuple[np.ndarray, ...]:
        """Zero states of shape ``rows + (h,)``."""
        return tuple(np.zeros(rows + (self.hidden_dim,))
                     for _ in self.state_parts)


class GRUCell(_GatedCell):
    """Gated recurrent unit: h' = (1-z)*n + z*h with reset-gated candidate.

    The state is the one-array tuple ``(h,)``.
    """

    gates = ("z", "r", "n")
    state_parts = ("h",)
    default_name = "gru"

    def step(self, xw: np.ndarray, state: tuple[np.ndarray],
             u: np.ndarray, b: np.ndarray):
        """One timestep on arrays, from the [..., n, 3h] input projections
        ``xw`` and the stacked ``u`` ([..., 3h, h]) and ``b`` (broadcast
        against ``xw``): the next state, and what :meth:`step_backward`
        needs of this one (the input state first)."""
        (h,) = state
        H = self.hidden_dim
        uh = h @ u.swapaxes(-1, -2)
        zr = logistic(xw[..., :2 * H] + uh[..., :2 * H] + b[..., :2 * H])
        z, r = zr[..., :H], zr[..., H:]
        u_n = uh[..., 2 * H:]
        n = np.tanh(xw[..., 2 * H:] + r * u_n + b[..., 2 * H:])
        return ((1.0 - z) * n + z * h,), (h, z, r, n, u_n)

    def step_backward(self, saved, d_state: tuple[np.ndarray],
                      u: np.ndarray):
        """Gradients of one step from the gradient of its output state:
        (gradient of its input state, the [..., n, 3h] gradient of the
        pre-activations that ``W`` and ``b`` feed, the [..., n, 3h]
        gradient of the products ``U @ h``)."""
        h, z, r, n, u_n = saved
        (dh,) = d_state
        da_n = dh * (1.0 - z) * (1.0 - n * n)
        da_z = dh * (h - n) * z * (1.0 - z)
        du_n = da_n * r
        da_r = da_n * u_n * r * (1.0 - r)
        d_rec = np.concatenate([da_z, da_r, du_n], axis=-1)
        d_pre = np.concatenate([da_z, da_r, da_n], axis=-1)
        return (dh * z + d_rec @ u,), d_pre, d_rec


class LSTMCell(_GatedCell):
    """Long short-term memory cell with the usual i/f/g/o gates.

    The state is the tuple ``(h, c)``.
    """

    gates = ("i", "f", "g", "o")
    state_parts = ("h", "c")
    default_name = "lstm"

    def step(self, xw: np.ndarray, state: tuple[np.ndarray, np.ndarray],
             u: np.ndarray, b: np.ndarray):
        """One timestep on arrays, as :meth:`GRUCell.step` (the input
        ``h`` first in what it keeps)."""
        h, c = state
        H = self.hidden_dim
        a = xw + h @ u.swapaxes(-1, -2) + b
        gates = logistic(a)
        i, f, o = gates[..., :H], gates[..., H:2 * H], gates[..., 3 * H:]
        g = np.tanh(a[..., 2 * H:3 * H])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        return (o * tanh_c, c_new), (h, c, i, f, g, o, tanh_c)

    def step_backward(self, saved, d_state: tuple[np.ndarray, np.ndarray],
                      u: np.ndarray):
        """Gradients of one step, as :meth:`GRUCell.step_backward`; every
        gate's ``U @ h`` gradient is its pre-activation gradient."""
        h, c, i, f, g, o, tanh_c = saved
        dh, dc = d_state
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d_pre = np.concatenate([dc * g * i * (1.0 - i),
                                dc * c * f * (1.0 - f),
                                dc * i * (1.0 - g * g),
                                dh * tanh_c * o * (1.0 - o)], axis=-1)
        return (d_pre @ u, dc * f), d_pre, d_pre


def _pack(lengths: np.ndarray, T: int, reverses: Sequence[bool]
          ) -> tuple[list, list[int]]:
    """The packed order of a padded [B, T] batch: rows sorted longest
    first, and per timestep only the rows still running, so each step
    works on a prefix of the previous step's rows.

    Returns ``(flats, offsets)``: step ``s`` of direction ``k`` reads the
    flat ``b * T + t`` positions ``flats[k][offsets[s]:offsets[s + 1]]``,
    which run right to left within each row when ``reverses[k]``.  Every
    direction runs the same rows at each step, so they share the offsets.
    For one row of n >= 1 steps a forward direction's positions are the
    basic slice ``0:n``.
    """
    if lengths.shape[0] == 1:
        n = int(lengths[0])
        return ([np.arange(n - 1, -1, -1) if r else slice(0, n)
                 for r in reverses], list(range(n + 1)))
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    steps, rows = np.nonzero(np.arange(lens[0])[:, None] < lens)
    starts = order[rows] * T
    flats = [starts + (lens[rows] - 1 - steps if r else steps)
             for r in reverses]
    offsets = np.searchsorted(steps, np.arange(lens[0] + 1))
    return flats, offsets.tolist()


def _recurrent_states(cells: Sequence[_GatedCell], inputs: Tensor,
                      lengths: np.ndarray, reverses: Sequence[bool]
                      ) -> Tensor:
    """The states of D same-kind ``cells``, cell ``k`` run over ``inputs``
    ([T, d] as one row, or [B, T, d] with row lengths ``lengths``) right
    to left when ``reverses[k]``, as one graph node.  The states are
    aligned with input positions, cell ``k``'s in the ``k``-th block of h
    columns, and zero past each row's length.

    The forward projects every valid position's input through each
    cell's gates in one product per cell, then calls ``step`` once per
    timestep on the states of the rows still running, every direction at
    once: [D, n, h] states and weights stacked [D, ...] for two
    directions, and for one the [n, h] states and the cell's own weights.
    The backward runs ``step_backward`` back through time the same way
    and adds each weight's and bias's gradient once, as products over
    every row and timestep.
    """
    x = inputs.data
    T, d = x.shape[-2:]
    B, D = lengths.shape[0], len(cells)
    cell = cells[0]
    H = cell.hidden_dim
    lead = (D,) if D > 1 else ()  # the direction axis, if any
    flats, offsets = _pack(lengths, T, reverses)
    xs = [x.reshape(B * T, d)[flat] for flat in flats]
    w_ts, us, bs = zip(*[c.stacked() for c in cells])
    xw = [xs_k @ w_t for xs_k, w_t in zip(xs, w_ts)]
    if D > 1:  # the directions' arrays stacked on a leading axis
        xw, u, b = np.array(xw), np.array(us), np.array(bs)[:, None]
    else:
        (xw,), (u,), (b,) = xw, us, bs
    outs, saved = [], []
    state = cell.initial_state(*lead, offsets[1] - offsets[0])
    for s in range(len(offsets) - 1):
        lo, hi = offsets[s], offsets[s + 1]
        if hi - lo < state[0].shape[-2]:  # rows that ended drop out
            state = tuple(v[..., :hi - lo, :] for v in state)
        state, keep = cell.step(xw[..., lo:hi, :], state, u, b)
        saved.append(keep)
        outs.append(state[0])
    hs = np.concatenate(outs, axis=-2).reshape(D, -1, H)
    states = np.zeros((D, B * T, H))
    for k, flat in enumerate(flats):
        states[k][flat] = hs[k]

    def backward(out: Tensor) -> None:
        grad = out.grad.reshape(B * T, D, H)
        g = [grad[:, k][flat] for k, flat in enumerate(flats)]
        g = np.array(g) if D > 1 else g[0]
        d_pre = np.empty(xw.shape)
        d_rec = np.empty(xw.shape)
        d_state = cell.initial_state(*lead, offsets[-1] - offsets[-2])
        for s in reversed(range(len(saved))):
            lo, hi = offsets[s], offsets[s + 1]
            if hi - lo > d_state[0].shape[-2]:  # rows that end here
                pad = np.zeros(lead + (hi - lo - d_state[0].shape[-2], H))
                d_state = tuple(np.concatenate([v, pad], axis=-2)
                                for v in d_state)
            d_state = (d_state[0] + g[..., lo:hi, :],) + d_state[1:]
            d_state, d_pre[..., lo:hi, :], d_rec[..., lo:hi, :] = (
                cell.step_backward(saved[s], d_state, u))
        h_prev = np.concatenate([keep[0] for keep in saved], axis=-2)
        d_pre, d_rec, h_prev = (a.reshape((D,) + a.shape[-2:])
                                for a in (d_pre, d_rec, h_prev))
        d_x = np.zeros((B * T, d)) if inputs.requires_grad else None
        for k, c in enumerate(cells):
            d_w, d_u = d_pre[k].T @ xs[k], d_rec[k].T @ h_prev[k]
            d_b = d_pre[k].sum(axis=0)
            for kind, grad_k in (("W", d_w), ("U", d_u), ("b", d_b)):
                for j, weight in enumerate(c._kinds[kind]):
                    if weight.requires_grad:
                        weight.accumulate(grad_k[j * H:(j + 1) * H])
            if d_x is not None:
                d_x[flats[k]] += d_pre[k] @ w_ts[k].T
        if d_x is not None:
            inputs.accumulate(d_x.reshape(x.shape))

    # directions side by side: [B * T, D * h]; one direction needs no copy
    data = states[0] if D == 1 else states.transpose(1, 0, 2)
    params = [p for c in cells for p in c._p.values()]
    return _make(data.reshape(x.shape[:-1] + (D * H,)), (inputs, *params),
                 backward)


def _last_states(states: Tensor, ns: Sequence[int],
                 reverses: Sequence[bool]) -> Tensor:
    """Each row's last state per direction of ``states`` from
    :func:`_recurrent_states` ([T, D*h] as one row of length ``ns[0]``,
    or [B, T, D*h] with row lengths ``ns``): position ``n - 1`` of a
    forward direction, position 0 of a reverse one, with the directions
    side by side as in ``states``; an empty row's are zero."""
    x = states.data
    D = len(reverses)
    T, H = x.shape[-2], x.shape[-1] // D
    # rows of the [B * T * D, h] view, row by row and direction by direction
    idx = [(b * T + (0 if r else max(n - 1, 0))) * D + k
           for b, n in enumerate(ns) for k, r in enumerate(reverses)]
    data = x.reshape(-1, H).take(idx, axis=0).reshape(
        x.shape[:-2] + (D * H,))

    def backward(out: Tensor) -> None:
        g = np.zeros((x.size // H, H))
        g[idx] = out.grad.reshape(-1, H)
        states.accumulate(g.reshape(x.shape))

    return _make(data, (states,), backward)


def _run(cells: Sequence[_GatedCell], inputs: Tensor,
         lengths: Optional[Sequence[int]], reverses: Sequence[bool]):
    """(states, last) of :func:`_recurrent_states` and
    :func:`_last_states`, after checking the shapes; a batch of empty
    rows gives zeros without a run."""
    if inputs.ndim not in (2, 3):
        raise ShapeMismatch(
            f"recurrent input must be [T, d] or [B, T, d], got {inputs.shape}")
    if inputs.shape[-1] != cells[0].input_dim:
        raise ShapeMismatch(
            f"input dim {inputs.shape[-1]}, cell expects {cells[0].input_dim}"
        )
    out_dim = len(cells) * cells[0].hidden_dim
    T = inputs.shape[-2]
    if inputs.ndim == 2:
        if T == 0:
            return zeros((0, out_dim)), zeros((out_dim,))
        lens, ns = np.array([T]), [T]
    else:
        B = inputs.shape[0]
        lens = np.full(B, T) if lengths is None else np.asarray(
            lengths, dtype=np.int64)
        # plain ints: a batch is small, and answering runs one row at a time
        ns = lens.tolist()
        if (lens.shape != (B,) or min(ns, default=0) < 0
                or max(ns, default=0) > T):
            raise ShapeMismatch(f"{B} rows of length {T} need {B} lengths "
                                f"in [0, {T}], got {lengths}")
        if not any(ns):
            return zeros((B, T, out_dim)), zeros((B, out_dim))
    states = _recurrent_states(cells, inputs, lens, reverses)
    return states, _last_states(states, ns, reverses)


def run_recurrent(cell, inputs: Tensor, direction: str = "forward",
                  lengths: Optional[Sequence[int]] = None):
    """Run a cell over one sequence or over a padded batch of them.

    ``inputs`` is [T, d], giving ([T, h] states, [h] last state); or
    [B, T, d] with each row's ``lengths`` (default T), giving ([B, T, h]
    states, zero past each row's length, and [B, h] last states, zero for
    an empty row).  Inputs past a row's length are never read.  The
    backward direction runs each row right to left, but the states stay
    aligned with input positions; ``last`` is then the state computed at
    position 0.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    return _run((cell,), inputs, lengths, (direction == "backward",))


def bidirectional_encode(cell_fwd, cell_bwd, inputs: Tensor,
                         lengths: Optional[Sequence[int]] = None):
    """Forward and backward runs side by side: ([T, 2h], [2h]) for a
    [T, d] sequence, or ([B, T, 2h], [B, 2h]) for a padded [B, T, d]
    batch with row ``lengths``, as in :func:`run_recurrent`, forward
    first.  The cells are of one kind and shape, and both directions
    step together, in one graph node."""
    return _run((cell_fwd, cell_bwd), inputs, lengths, (False, True))


def self_attention(states: Tensor,
                   lengths: Optional[Sequence[int]] = None) -> Tensor:
    """Scaled dot-product attention of a state sequence against itself,
    as one graph node.

    A = softmax(states statesᵀ / sqrt(h)) row-wise; the output is
    A·states.  ``states`` is [T, h], or [B, T, h] with each row's
    ``lengths`` (default T): a row attends only over its own first
    ``length`` states, and its output past that length is zero.
    """
    if states.ndim not in (2, 3):
        raise ShapeMismatch(
            f"self_attention expects [T, h] or [B, T, h], got {states.shape}")
    T, h = states.shape[-2:]
    if T == 0:
        return states
    x = states.data
    scale = 1.0 / math.sqrt(h)
    scores = (x @ np.swapaxes(x, -1, -2)) * scale
    valid = None
    if lengths is not None:
        # an empty row attends over its first (all-zero) state, so no
        # softmax row is empty
        valid = np.arange(T) < np.maximum(np.asarray(lengths), 1)[:, None]
        scores = np.where(valid[:, None, :], scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    out = attn @ x
    if valid is not None:
        out *= valid[..., None]

    def backward(node: Tensor) -> None:
        g = node.grad if valid is None else node.grad * valid[..., None]
        d_attn = g @ np.swapaxes(x, -1, -2)
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1,
                                                        keepdims=True))
        d_scores *= scale
        states.accumulate(np.swapaxes(attn, -1, -2) @ g + d_scores @ x
                          + np.swapaxes(d_scores, -1, -2) @ x)

    return _make(out, (states,), backward)


def padded_indices(seqs: Sequence[Sequence[int]]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Index sequences right-padded with 0 into one [B, T] array, and
    their lengths."""
    lengths = [len(seq) for seq in seqs]
    T = max(lengths, default=0)
    idx = np.array([[*seq, *[0] * (T - len(seq))] for seq in seqs],
                   dtype=np.int64).reshape(len(seqs), T)
    return idx, np.array(lengths, dtype=np.int64)


class EncodeCache:
    """Encodings keyed by raw text: on first use a text is split by
    ``tokens`` and encoded by ``encode``, and then reused, so a text seen
    before is neither tokenized nor encoded again.

    Entries are never invalidated, so a cache must not outlive a change to
    the weights behind ``encode``: answering sessions own one each.
    """

    def __init__(self, encode: Callable[[tuple[str, ...]], Tensor],
                 tokens: Callable[[str], Sequence[str]]):
        self._encode = encode
        self._tokens = tokens
        self.table: dict[str, Tensor] = {}

    def __call__(self, text: str) -> Tensor:
        vec = self.table.get(text)
        if vec is None:
            vec = self.table[text] = self._encode(tuple(self._tokens(text)))
        return vec


def dropout_mask(shape: tuple[int, ...], p: float,
                 rng: np.random.Generator) -> np.ndarray:
    """An inverted-dropout mask: each entry kept with probability 1 - p
    and then scaled by 1 / (1 - p)."""
    return (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)


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
    return mul(x, dropout_mask(x.shape, p, rng))


_warned_zero_norm = False


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity along the last axis, as one graph node: two
    vectors give a scalar, two [n, h] matrices one value per row pair.

    A pair with a zero-norm side scores 0 and passes no gradient.
    """
    global _warned_zero_norm
    if a.shape != b.shape or a.ndim not in (1, 2):
        raise ShapeMismatch(f"cosine expects equal-shape vectors or matrices, "
                            f"got {a.shape} / {b.shape}")
    x, y = a.data, b.data
    nx = np.sqrt((x * x).sum(axis=-1))
    ny = np.sqrt((y * y).sum(axis=-1))
    dead = (nx == 0.0) | (ny == 0.0)
    if dead.any():
        # first occurrence is worth surfacing; after that it is routine
        level = logging.DEBUG if _warned_zero_norm else logging.WARNING
        log.log(level, "cosine of a zero-norm vector; returning 0.0")
        _warned_zero_norm = True
        nx, ny = np.where(dead, 1.0, nx), np.where(dead, 1.0, ny)
    denom = nx * ny
    cos = np.where(dead, 0.0, (x * y).sum(axis=-1) / denom)

    def backward(out: Tensor) -> None:
        g = np.where(dead, 0.0, out.grad)
        if a.requires_grad:
            a.accumulate(((g / denom)[..., None] * y
                          - (g * cos / (nx * nx))[..., None] * x))
        if b.requires_grad:
            b.accumulate(((g / denom)[..., None] * x
                          - (g * cos / (ny * ny))[..., None] * y))

    return _make(cos, (a, b), backward)
