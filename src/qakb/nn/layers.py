"""Network building blocks on top of the autodiff tensor.

Embedding tables, dense layers and recurrent cells expose
``parameters() -> dict[name, Tensor]`` so optimizers and snapshots can
address weights by stable hierarchical names; each layer names its own
parameters from the name it is given.  A layer reads one list of
arguments alike in its three entry points, as a model's layout gives
them (see :mod:`qakb.nn.io`): ``shapes(name, *args)`` gives its
parameters' shapes, ``draw(rng, name, *args)`` draws new arrays of those
shapes, and ``layer(params, name, *args)`` builds the layer holding the
arrays of such a table, without copying them.

The forwards that answering needs are array functions, which build no
graph: :meth:`EmbeddingTable.rows`, :meth:`Dense.forward`,
:func:`recurrent_forward`, :func:`bidirectional_last_states`,
:func:`attention_forward` and :func:`cosine_forward`.  Each graph op
computes its data by calling one of them, so an answer computed on
arrays has the bits of the same computation as graph nodes.  Training's
dropout multiplies by a :func:`dropout_mask`.
"""

from __future__ import annotations

import logging
import math
from typing import Optional, Sequence

import numpy as np

from qakb.errors import ShapeMismatch
from qakb.nn.tensor import (
    Tensor,
    _make,
    _unbroadcast,
    as_tensor,
    gather_rows,
    logistic,
    zeros,
)

log = logging.getLogger(__name__)

OOV_TOKEN = "<oov>"


def glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    fan_out = shape[0]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def table_tokens(tokens: list[str]) -> list[str]:
    """The tokens of an embedding table's rows for ``tokens``: each once,
    in order, then the unknown token unless it is among them.  TypeError
    unless ``tokens`` is a list of strings, as a sidecar's vocabulary must
    be."""
    # one C pass over the types, not a Python test per token
    if type(tokens) is not list or not set(map(type, tokens)) <= {str}:
        raise TypeError("a vocabulary must be a list of strings")
    toks = list(dict.fromkeys(tokens))
    if OOV_TOKEN not in toks:
        toks.append(OOV_TOKEN)
    return toks


class EmbeddingTable:
    """Token-to-vector lookup; unknown tokens share one trained row.

    The vectors are read through :func:`gather_rows`, so a training
    step's gradient reaches only the rows its tokens look up, and
    :class:`~qakb.nn.optim.Adam` updates only rows some step has
    reached while those are fewer than the rest.
    """

    def __init__(self, params: dict[str, np.ndarray], name: str,
                 tokens: list[str], dim: int):
        """The table ``name`` of ``tokens`` with row ``i`` of
        ``params[name]`` for ``tokens[i]``, which it holds without
        copying."""
        vectors = params[name]
        if vectors.shape != (len(tokens), dim):
            raise ShapeMismatch(f"{len(tokens)} tokens of {dim} dims vs "
                                f"vectors of shape {vectors.shape}")
        self.vocab = dict(zip(tokens, range(len(tokens))))
        if OOV_TOKEN not in self.vocab:
            raise ShapeMismatch(f"vocabulary must contain {OOV_TOKEN!r}")
        self.oov_index = self.vocab[OOV_TOKEN]
        self.name = name
        self.vectors = Tensor(vectors, requires_grad=True)

    @staticmethod
    def shapes(name: str, tokens: Sequence[str],
               dim: int) -> dict[str, tuple[int, ...]]:
        """The shape of the vectors of a table ``name`` of ``tokens``."""
        return {name: (len(tokens), dim)}

    @staticmethod
    def draw(rng: np.random.Generator, name: str, tokens: Sequence[str],
             dim: int) -> dict[str, np.ndarray]:
        """Vectors of :meth:`shapes` drawn uniformly from [-0.1, 0.1]."""
        return {name: rng.uniform(-0.1, 0.1, size=(len(tokens), dim))}

    def indices(self, seq: Sequence[str]) -> list[int]:
        return [self.vocab.get(tok, self.oov_index) for tok in seq]

    def embed(self, seq: list[str]) -> Tensor:
        """Rows for a token sequence; empty input gives a [0, d] tensor."""
        return gather_rows(self.vectors, self.indices(seq))

    def rows(self, seq: Sequence[str]) -> np.ndarray:
        """:meth:`embed` on arrays, building no graph."""
        return self.vectors.data[self.indices(seq)]

    def embed_padded(self, seqs: Sequence[Sequence[str]]
                     ) -> tuple[Tensor, np.ndarray]:
        """Rows for token sequences as one [B, T, d] batch, right-padded
        with row 0, and the sequences' lengths."""
        idx, lengths = padded_indices([self.indices(list(seq))
                                       for seq in seqs])
        return gather_rows(self.vectors, idx), lengths

    def parameters(self) -> dict[str, Tensor]:
        return {self.name: self.vectors}


class Dense:
    """Affine map with an optional activation; accepts vectors or matrices.

    :meth:`forward` computes the layer on arrays and builds no graph;
    a call is one graph node whose data is :meth:`forward`'s and whose
    hand-written backward takes the gradients of the matrix product, the
    bias and the activation as separate matmul, add and activation nodes
    would, with the same expressions, so every bit of training is theirs.
    """

    def __init__(self, params: dict[str, np.ndarray], name: str,
                 in_dim: int, out_dim: int, activation: str = "none"):
        """The layer ``name`` holding the arrays of ``params``, which have
        the :meth:`shapes`, without copying them."""
        if activation not in ("none", "relu", "sigmoid"):
            raise ValueError(f"unknown activation {activation!r}")
        self.name, self.activation = name, activation
        self.weight = Tensor(params[f"{name}.weight"], requires_grad=True)
        self.bias = Tensor(params[f"{name}.bias"], requires_grad=True)
        self.in_dim, self.out_dim = in_dim, out_dim

    @staticmethod
    def shapes(name: str, in_dim: int, out_dim: int,
               activation: str = "none") -> dict[str, tuple[int, ...]]:
        """The shapes of the layer's parameters, by name."""
        return {f"{name}.weight": (out_dim, in_dim),
                f"{name}.bias": (out_dim,)}

    @staticmethod
    def draw(rng: np.random.Generator, name: str, in_dim: int, out_dim: int,
             activation: str = "none") -> dict[str, np.ndarray]:
        """A Glorot-uniform weight and a zero bias."""
        return {f"{name}.weight": glorot(rng, (out_dim, in_dim)),
                f"{name}.bias": np.zeros(out_dim)}

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The layer on a [in] vector or a [n, in] matrix: ``W @ x + b``,
        or ``x @ W.T + b`` through a contiguous copy of ``W.T`` (a
        transposed view or a 1-D product rounds differently), then the
        activation."""
        if x.ndim not in (1, 2) or x.shape[-1] != self.in_dim:
            raise ShapeMismatch(f"{self.name}: input shape {x.shape}, "
                                f"expected [{self.in_dim}] or [n, "
                                f"{self.in_dim}]")
        w = self.weight.data
        y = (w @ x if x.ndim == 1 else x @ w.T.copy()) + self.bias.data
        if self.activation == "relu":
            return np.maximum(y, 0.0)
        if self.activation == "sigmoid":
            return logistic(y)
        return y

    def __call__(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        y = self.forward(x.data)
        w, b, activation = self.weight, self.bias, self.activation

        def backward(out: Tensor) -> None:
            g = out.grad
            if activation == "relu":
                g = g * (y > 0.0).astype(np.float64)
            elif activation == "sigmoid":
                g = g * (y * (1.0 - y))
            if x.ndim == 1:
                d_x, d_w = w.data.T @ g, np.outer(g, x.data)
            else:  # the gradients through the transposed copy
                d_x, d_w = g @ w.data.T.copy().T, (x.data.T @ g).T
            if x.requires_grad:
                x.accumulate(d_x)
            if w.requires_grad:
                w.accumulate(d_w)
            if b.requires_grad:
                b.accumulate(_unbroadcast(g, b.data.shape))

        return _make(y, (x, w, b), backward)

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}


class _GatedCell:
    """A recurrent cell's weights, one parameter per kind with the gates'
    blocks side by side in the subclass's ``gates`` order: the input
    weight ``W`` as [d, G*h], the recurrent weight ``U`` as [G*h, h] and
    the bias ``b`` as [G*h].

    A step works on ``[n, h]`` states, one row per sequence still
    running, or on ``[D, n, h]`` states with one such block per cell of
    a run, the cells' weights then stacked ``[D, ...]`` too.  It takes every
    gate's input projection ``x @ W`` precomputed:
    :func:`recurrent_forward` projects all timesteps in one product before
    its time loop, reading ``W`` as it is stored.
    """

    def __init__(self, params: dict[str, np.ndarray], name: str,
                 input_dim: int, hidden_dim: int):
        """The cell ``name`` holding the arrays of ``params``, which have
        the :meth:`shapes`, without copying them."""
        self.name = name
        self.W, self.U, self.b = (Tensor(params[f"{name}.{kind}"],
                                         requires_grad=True)
                                  for kind in "WUb")
        self.input_dim, self.hidden_dim = input_dim, hidden_dim

    @classmethod
    def shapes(cls, name: str, input_dim: int,
               hidden_dim: int) -> dict[str, tuple[int, ...]]:
        """The shapes of the cell's parameters, by name."""
        gh = len(cls.gates) * hidden_dim
        return {f"{name}.W": (input_dim, gh), f"{name}.U": (gh, hidden_dim),
                f"{name}.b": (gh,)}

    @classmethod
    def draw(cls, rng: np.random.Generator, name: str, input_dim: int,
             hidden_dim: int) -> dict[str, np.ndarray]:
        """Glorot-uniform weights and a zero bias."""
        d, h = input_dim, hidden_dim
        # per gate a draw of its [d, h] block of W, transposed, then of
        # its [h, h] block of U: a seed's draws, and so every trained bit,
        # depend on this order and these shapes; W is stored C-ordered, the
        # layout whose products those bits came from
        draws = [(glorot(rng, (h, d)), glorot(rng, (h, h)))
                 for _ in cls.gates]
        return {f"{name}.W": np.concatenate([w for w, _ in draws]).T.copy(),
                f"{name}.U": np.concatenate([u for _, u in draws]),
                f"{name}.b": np.zeros(len(cls.gates) * h)}

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.W": self.W, f"{self.name}.U": self.U,
                f"{self.name}.b": self.b}

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
          ) -> tuple[list, list[int], np.ndarray]:
    """The packed order of a padded [B, T] batch: rows sorted longest
    first, and per timestep only the rows still running, so each step
    works on a prefix of the previous step's rows.

    Returns ``(flats, offsets, order)``: step ``s`` of direction ``k``
    reads the flat ``b * T + t`` positions
    ``flats[k][offsets[s]:offsets[s + 1]]``, which run right to left
    within each row when ``reverses[k]``, and ``order`` lists the rows
    longest first.  Every direction runs the same rows at each step, so
    they share the offsets.  For one row of n >= 1 steps a forward
    direction's positions are the basic slice ``0:n``.
    """
    if lengths.shape[0] == 1:
        n = int(lengths[0])
        return ([np.arange(n - 1, -1, -1) if r else slice(0, n)
                 for r in reverses], list(range(n + 1)), _ONE_ROW)
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    steps, rows = np.nonzero(np.arange(lens[0])[:, None] < lens)
    starts = order[rows] * T
    flats = [starts + (lens[rows] - 1 - steps if r else steps)
             for r in reverses]
    offsets = np.searchsorted(steps, np.arange(lens[0] + 1))
    return flats, offsets.tolist(), order


_ONE_ROW = np.zeros(1, dtype=np.int64)


def recurrent_forward(cells: Sequence[_GatedCell],
                      inputs: Sequence[np.ndarray], lengths: np.ndarray,
                      reverses: Sequence[bool], output: str,
                      saved: Optional[list] = None
                      ) -> tuple[np.ndarray, tuple]:
    """The forward of one run of D same-kind, same-size ``cells`` on
    arrays, building no graph: cell ``k`` over ``inputs[k]`` ([T, d_k] as
    one row, or [B, T, d_k] with the B row lengths ``lengths``, every
    input of one leading shape, T >= 1 and some row non-empty) right to
    left when ``reverses[k]``.  A bidirectional run passes its input
    twice; two matchers' runs pass each matcher's input to both of its
    cells.

    ``output`` names the one result built: ``"states"``, aligned with
    input positions, cell ``k``'s in the ``k``-th block of h columns, and
    zero past each row's length; or ``"last"``, each row's [D*h] state
    after its last step (position n - 1 of a forward cell, 0 of a reverse
    one), zero for an empty row.

    Every valid position's input is projected through each cell's ``W``
    in one product per cell; then ``step`` runs once per timestep on the
    states of the rows still running, every cell at once: [D, n, h]
    states and ``U`` and ``b`` stacked [D, ...] for two or more cells,
    and for one the [n, h] states and the cell's own ``U`` and ``b``.
    Stacking on that leading axis leaves every product's bits as in a run
    of each cell alone.  Each step's record for ``step_backward`` is
    appended to ``saved`` when it is a list.

    Returns the output and the run's packing ``(flats, offsets, order,
    xs, u)`` (see :func:`_pack`; ``xs`` are the inputs in packed order,
    ``u`` the recurrent weights as ``step`` read them), which a backward
    reads.  :func:`recurrent` is the graph twin.
    """
    T = inputs[0].shape[-2]
    B, D = lengths.shape[0], len(cells)
    cell = cells[0]
    H = cell.hidden_dim
    lead = (D,) if D > 1 else ()  # the direction axis, if any
    flats, offsets, order = _pack(lengths, T, reverses)
    xs = [x.reshape(B * T, -1)[flat] for x, flat in zip(inputs, flats)]
    xw = [xs_k @ c.W.data for xs_k, c in zip(xs, cells)]
    us, bs = [c.U.data for c in cells], [c.b.data for c in cells]
    if D > 1:  # the cells' arrays stacked on a leading axis
        xw, u, b = np.array(xw), np.array(us), np.array(bs)[:, None]
    else:
        (xw,), (u,), (b,) = xw, us, bs
    want_states = output == "states"
    outs, ends = [], []
    state = cell.initial_state(*lead, offsets[1] - offsets[0])
    for s in range(len(offsets) - 1):
        lo, hi = offsets[s], offsets[s + 1]
        if hi - lo < state[0].shape[-2]:  # rows that ended drop out
            if not want_states:
                ends.append(state[0][..., hi - lo:, :])
            state = tuple(v[..., :hi - lo, :] for v in state)
        state, keep = cell.step(xw[..., lo:hi, :], state, u, b)
        if saved is not None:
            saved.append(keep)
        if want_states:
            outs.append(state[0])
    if want_states:
        hs = np.concatenate(outs, axis=-2).reshape(D, -1, H)
        states = np.zeros((D, B * T, H))
        for k, flat in enumerate(flats):
            states[k][flat] = hs[k]
        # cells side by side: [B * T, D * h]; one cell needs no copy
        data = states[0] if D == 1 else states.transpose(1, 0, 2)
        data = data.reshape(inputs[0].shape[:-1] + (D * H,))
    else:
        # the rows that end latest come first in the packed order
        ends.append(state[0])
        last = (ends[0] if len(ends) == 1
                else np.concatenate(ends[::-1], axis=-2)).reshape(D, -1, H)
        if B > 1:
            rows = last
            last = np.zeros((D, B, H))
            last[:, order[:rows.shape[1]]] = rows
        data = last.transpose(1, 0, 2).reshape(inputs[0].shape[:-2]
                                               + (D * H,))
    return data, (flats, offsets, order, xs, u)


def _recurrent_states(cells: Sequence[_GatedCell], x: Tensor,
                      lengths: np.ndarray, reverses: Sequence[bool],
                      output: str) -> Tensor:
    """One run of :func:`recurrent_forward` of every cell over ``x`` as
    one graph node, whose parents are ``x`` and the cells' weights.

    The backward runs ``step_backward`` back through time as the forward
    stepped, adds the gradients of ``W``, ``U`` and ``b`` once each, as
    products over every row and timestep, and gives ``x`` one gradient,
    summed over the cells in order.
    """
    params = [p for c in cells for p in (c.W, c.U, c.b)]
    saved: list = []
    data, (flats, offsets, order, xs, u) = recurrent_forward(
        cells, [x.data] * len(cells), lengths, reverses, output, saved)
    T = x.shape[-2]
    B, D = lengths.shape[0], len(cells)
    cell = cells[0]
    H = cell.hidden_dim
    lead = (D,) if D > 1 else ()
    pre_shape = lead + (offsets[-1], u.shape[-2])  # [D, positions, G*h]

    def backward(out: Tensor) -> None:
        if output == "states":
            grad = out.grad.reshape(B * T, D, H)
            g = [grad[:, k][flat] for k, flat in enumerate(flats)]
            g = np.array(g) if D > 1 else g[0]
        else:  # each row's gradient at its last step
            n0 = offsets[1]  # the rows that ran
            g = np.zeros(pre_shape[:-1] + (H,))
            ends_at = (np.asarray(offsets)[lengths[order[:n0]] - 1]
                       + np.arange(n0))
            grad = out.grad.reshape(B, D, H)[order[:n0]]
            g[..., ends_at, :] = grad.transpose(1, 0, 2).reshape(
                g.shape[:-2] + (n0, H))
        d_pre = np.empty(pre_shape)
        d_rec = np.empty(pre_shape)
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
        for k, c in enumerate(cells):
            # W's gradient is the [G*h, d] product transposed:
            # xs.T @ d_pre would round differently
            for weight, grad_k in ((c.W, (d_pre[k].T @ xs[k]).T),
                                   (c.U, d_rec[k].T @ h_prev[k]),
                                   (c.b, d_pre[k].sum(axis=0))):
                if weight.requires_grad:
                    weight.accumulate(grad_k)
        if x.requires_grad:
            d_x = np.zeros((B * T, x.shape[-1]))
            for k, c in enumerate(cells):
                d_x[flats[k]] += d_pre[k] @ c.W.data.T
            x.accumulate(d_x.reshape(x.shape))

    return _make(data, (x, *params), backward)


def recurrent(cells: Sequence[_GatedCell], x: Tensor,
              lengths: Optional[Sequence[int]], reverses: Sequence[bool],
              output: str) -> Tensor:
    """:func:`recurrent_forward`'s graph twin, with its arguments: after
    checking the shapes, one :func:`_recurrent_states` node over one
    [T, d] row (``lengths`` unread) or a padded [B, T, d] batch with its
    rows' ``lengths`` (all T when None), whose padding is never read.  A
    batch of empty rows gives zero ``output`` without a run."""
    if output not in ("states", "last"):
        raise ValueError(f"output must be 'states' or 'last', got {output!r}")
    lead_shape = x.shape[:-1]
    if len(lead_shape) not in (1, 2):
        raise ShapeMismatch(
            f"recurrent input must be [T, d] or [B, T, d], got {x.shape}")
    kind, H = type(cells[0]), cells[0].hidden_dim
    for c in cells:
        if type(c) is not kind or c.hidden_dim != H:
            raise ShapeMismatch("the cells of one run must share a kind "
                                "and a hidden size")
        if x.shape[-1] != c.input_dim:
            raise ShapeMismatch(
                f"input dim {x.shape[-1]}, cell expects {c.input_dim}")
    T = lead_shape[-1]
    if len(lead_shape) == 1:
        lens, ns = np.array([T]), [T]
    else:
        B = lead_shape[0]
        lens = np.full(B, T) if lengths is None else np.asarray(
            lengths, dtype=np.int64)
        ns = lens.tolist()  # plain ints: a training batch is small
        if (lens.shape != (B,) or min(ns, default=0) < 0
                or max(ns, default=0) > T):
            raise ShapeMismatch(f"{B} rows of length {T} need {B} lengths "
                                f"in [0, {T}], got {lengths}")
    if not any(ns):
        rows = lead_shape if output == "states" else lead_shape[:-1]
        return zeros(rows + (len(cells) * H,))
    return _recurrent_states(cells, x, lens, reverses, output)


def bidirectional_last_states(pairs: Sequence[tuple[_GatedCell, _GatedCell]],
                              inputs: Sequence[np.ndarray]
                              ) -> list[np.ndarray]:
    """Each (forward, backward) cell pair's [2h] last states over its own
    input, on arrays: what ``recurrent((fwd, bwd), inputs[i], None,
    (False, True), "last")`` gives, bit for bit.  The inputs are [T, d_i]
    sequences of one length T; their widths may differ.  An empty
    sequence gives zeros.

    Pairs whose cells are of one kind and hidden size step together in
    one :func:`recurrent_forward`, every pair's two directions side by
    side on the direction axis, so several encoders of one text cost one
    run; a pair of another kind or size runs as a group of its own.
    """
    T = inputs[0].shape[0]
    if any(x.shape[0] != T for x in inputs):
        raise ShapeMismatch(f"inputs of one run differ in length: "
                            f"{[x.shape for x in inputs]}")
    if T == 0:
        return [np.zeros(2 * fwd.hidden_dim) for fwd, _ in pairs]
    groups: dict[tuple, list[int]] = {}
    for i, (fwd, _) in enumerate(pairs):
        groups.setdefault((type(fwd), fwd.hidden_dim), []).append(i)
    out: list[np.ndarray] = [None] * len(pairs)
    for (_, H), members in groups.items():
        last, _ = recurrent_forward(
            [c for i in members for c in pairs[i]],
            [inputs[i] for i in members for _ in (0, 1)], np.array([T]),
            (False, True) * len(members), "last")
        for j, i in enumerate(members):
            out[i] = last[2 * H * j:2 * H * (j + 1)]
    return out


def attention_forward(x: np.ndarray, lengths: Optional[Sequence[int]] = None
                      ) -> tuple[np.ndarray, tuple]:
    """Scaled dot-product attention of a state sequence against itself on
    arrays, building no graph.

    A = softmax(x xᵀ / sqrt(h)) row-wise; the output is A·x.  ``x`` is
    [T, h] with T >= 1, or [B, T, h] with each row's ``lengths`` (default
    T): a row attends only over its own first ``length`` states, and its
    output past that length is zero.  Passing no lengths for rows of full
    length gives the same bits.  Returns the output and ``(attn,
    valid)``, the attention weights and the [B, T] mask (None without
    lengths), which a backward reads.
    """
    scale = 1.0 / math.sqrt(x.shape[-1])
    scores = (x @ np.swapaxes(x, -1, -2)) * scale
    valid = None
    if lengths is not None:
        # an empty row attends over its first (all-zero) state, so no
        # softmax row is empty
        valid = (np.arange(x.shape[-2])
                 < np.maximum(np.asarray(lengths), 1)[:, None])
        scores = np.where(valid[:, None, :], scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    out = attn @ x
    if valid is not None:
        out *= valid[..., None]
    return out, (attn, valid)


def self_attention(states: Tensor,
                   lengths: Optional[Sequence[int]] = None) -> Tensor:
    """:func:`attention_forward` of ``states`` ([T, h], or [B, T, h] with
    row ``lengths``) as one graph node; an empty sequence is returned
    as it is."""
    if states.ndim not in (2, 3):
        raise ShapeMismatch(
            f"self_attention expects [T, h] or [B, T, h], got {states.shape}")
    if states.shape[-2] == 0:
        return states
    x = states.data
    out, (attn, valid) = attention_forward(x, lengths)

    def backward(node: Tensor) -> None:
        scale = 1.0 / math.sqrt(x.shape[-1])
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


def dropout_mask(shape: tuple[int, ...], p: float,
                 rng: np.random.Generator) -> np.ndarray:
    """An inverted-dropout mask: each entry kept with probability 1 - p
    and then scaled by 1 / (1 - p)."""
    return (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)


_warned_zero_norm = False


def cosine_forward(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Cosine similarity along the last axis on arrays, building no
    graph: two vectors give a scalar, two [n, h] matrices one value per
    row pair.  A pair with a zero-norm side scores 0; the first such pair
    logs a WARNING, later ones log at DEBUG.  Returns the cosines and
    ``(nx, ny, denom, dead)``, the norms, their product and the
    zero-norm mask, which a backward reads."""
    global _warned_zero_norm
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise ShapeMismatch(f"cosine expects equal-shape vectors or matrices, "
                            f"got {x.shape} / {y.shape}")
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
    return cos, (nx, ny, denom, dead)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """:func:`cosine_forward` of two tensors as one graph node; a pair
    with a zero-norm side passes no gradient."""
    x, y = a.data, b.data
    cos, (nx, ny, denom, dead) = cosine_forward(x, y)

    def backward(out: Tensor) -> None:
        g = np.where(dead, 0.0, out.grad)
        if a.requires_grad:
            a.accumulate(((g / denom)[..., None] * y
                          - (g * cos / (nx * nx))[..., None] * x))
        if b.requires_grad:
            b.accumulate(((g / denom)[..., None] * x
                          - (g * cos / (ny * ny))[..., None] * y))

    return _make(cos, (a, b), backward)
