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

Several sequences can share one array call and keep the bits each gets
alone by sitting on their own slots of a leading axis: numpy's stacked
``matmul`` runs one BLAS product per slot, with that slot's shapes and
strides, so a slot's product is the 2-D product of the sequence alone.
Rows that share one 2-D product round differently, so every encoding,
in training as in answering, runs its sequences on slots, and a text has
one encoding whatever it runs with: :func:`recurrent_forward` steps
one-row slots, :meth:`Dense.forward` takes a stack of rows, and
:func:`attention_forward` runs the sequences of each length as one
stack.  Only what feeds no encoding shares products: the backwards,
the tagger's head and the matchers' pair layers.  ``tests/test_slots.py``
checks the property on the BLAS in use, and ``tests/test_one_encoding.py``
the encodings it gives.
"""

from __future__ import annotations

import logging
import math
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from qakb.errors import ShapeMismatch
from qakb.nn.tensor import (
    Tensor,
    _make,
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

    :meth:`forward` and :meth:`backward` compute the layer and its
    gradients on arrays and build no graph; a call is one graph node
    whose data is :meth:`forward`'s and whose backward is
    :meth:`backward`, which takes the gradients of the matrix product,
    the bias and the activation as separate matmul, add and activation
    nodes would, with the same expressions, so every bit of training is
    theirs.
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
        """The layer on a [in] vector, a [n, in] matrix or a [K, n, in]
        stack of matrices: ``W @ x + b``, or ``x @ W.T + b`` through a
        contiguous copy of ``W.T`` (a transposed view or a 1-D product
        rounds differently), then the activation.  Each slot of a stack
        is its own product, so slot ``k`` has the bits of
        ``forward(x[k])``, in training as in answering."""
        if x.ndim not in (1, 2, 3) or x.shape[-1] != self.in_dim:
            raise ShapeMismatch(f"{self.name}: input shape {x.shape}, "
                                f"expected [{self.in_dim}], [n, "
                                f"{self.in_dim}] or [K, n, {self.in_dim}]")
        w = self.weight.data
        y = (w @ x if x.ndim == 1 else x @ w.T.copy()) + self.bias.data
        if self.activation == "relu":
            return np.maximum(y, 0.0)
        if self.activation == "sigmoid":
            return logistic(y)
        return y

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The gradients of the input ``x``, the weight and the bias on
        arrays, from :meth:`forward`'s output ``y`` on ``x`` and the
        gradient ``grad`` of ``y``; a [in] vector, a [n, in] matrix or a
        [K, n, in] stack, whose rows share the weight's one product."""
        g = grad
        if self.activation == "relu":
            g = g * (y > 0.0).astype(np.float64)
        elif self.activation == "sigmoid":
            g = g * (y * (1.0 - y))
        w = self.weight.data
        if x.ndim == 1:
            return w.T @ g, np.outer(g, x), g
        rows, g = x.reshape(-1, self.in_dim), g.reshape(-1, self.out_dim)
        # the gradients through the transposed copy
        d_x, d_w = g @ w.T.copy().T, (rows.T @ g).T
        return d_x.reshape(x.shape), d_w, g.sum(axis=0)

    def __call__(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        y = self.forward(x.data)

        def backward(out: Tensor) -> None:
            for t, grad in zip((x, self.weight, self.bias),
                               self.backward(x.data, y, out.grad)):
                if t.requires_grad:
                    t.accumulate(grad)

        return _make(y, (x, self.weight, self.bias), backward)

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}


class _GatedCell:
    """A recurrent cell's weights, one parameter per kind with the gates'
    blocks side by side in the subclass's ``gates`` order: the input
    weight ``W`` as [d, G*h], the recurrent weight ``U`` as [G*h, h] and
    the bias ``b`` as [G*h].

    A step works on ``[n, h]`` states, one row per sequence still
    running, or on ``[D, n, h]`` states with one such block per cell of
    a run, the cells' weights then stacked ``[D, ...]`` too.  The rows
    share each product; one-row slots, whose products are their own, are
    ``[n, 1, h]`` states (or ``[D, n, 1, h]``, with ``U`` and ``b``
    stacked ``[D, 1, ...]``).  It takes every gate's input projection
    ``x @ W`` precomputed:
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
        not_z = 1.0 - z
        da_n = dh * not_z * (1.0 - n * n)
        da_z = dh * (h - n) * z * not_z
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


def _slot_order(lengths: np.ndarray
                ) -> tuple[list[int], list[int], list[int]]:
    """The running order of K sequences: ``(order, lens, counts)``, the
    sequences longest first (ties in input order), their lengths, and how
    many run at each step, each step's a prefix of the previous step's.
    Plain lists, not numpy passes: an answer runs a handful of slots, for
    which this costs about 1.5 us against 9 us, and taking the order from
    numpy passes made ``prep-m``'s ``qa-t-mwst`` answers 8% slower at p50
    (10 of 10 interleaved benchmark pairs, 2 vCPUs)."""
    ns = lengths.tolist()
    order = sorted(range(len(ns)), key=ns.__getitem__, reverse=True)
    lens = [ns[j] for j in order]
    counts, running = [], len(lens)
    for s in range(lens[0]):
        while lens[running - 1] <= s:
            running -= 1
        counts.append(running)
    return order, lens, counts


def _slot_positions(order: list[int], lens: list[int], counts: list[int],
                    T: int, reverses: Sequence[bool]) -> list[list[int]]:
    """Per direction, the flat ``k * T + t`` input positions that the
    steps of :func:`_slot_order`'s running order read, step after step,
    the running sequences of a step in order; right to left within a
    sequence when ``reverses[k]``.  Plain lists, as :func:`_slot_order`
    gives: a training batch has a few hundred positions, for which numpy
    passes cost as much."""
    return [[order[j] * T + (lens[j] - 1 - s if reverse else s)
             for s, n in enumerate(counts) for j in range(n)]
            for reverse in reverses]


def length_groups(lens: list[int]) -> list[tuple[int, int, int]]:
    """``(start, stop, length)`` of each run of equal lengths in ``lens``,
    which are sorted longest first, empty runs left out."""
    starts = [j for j in range(len(lens)) if j == 0 or lens[j] < lens[j - 1]]
    return [(a, b, lens[a]) for a, b in zip(starts, starts[1:] + [len(lens)])
            if lens[a]]


def _slot_projections(cells: Sequence[_GatedCell],
                      inputs: Sequence[np.ndarray], order: list[int],
                      lens: list[int], reverses: Sequence[bool]
                      ) -> list[np.ndarray]:
    """Each cell's input projections for K one-row slots, [n0, K, G*h]
    with the slots longest first (``order``, whose lengths are ``lens``)
    and entry ``[s, j]`` slot ``j``'s at its step ``s``; past a slot's
    length the entries are never read.  Every slot's [n, d] rows, in the
    order its cell reads them, are projected through ``W`` as their own
    product, the slots of one length stacked in one ``matmul``."""
    K, groups = len(lens), length_groups(lens)
    xw = []
    for x, c, reverse in zip(inputs, cells, reverses):
        x = x.reshape(K, -1, x.shape[-1])
        if order != sorted(order):
            x = x[order]
        buf = None if len(groups) == 1 else np.empty(
            (lens[0], K, c.W.data.shape[1]))
        for a, b, n in groups:
            rows = x[a:b, n - 1::-1].copy() if reverse else x[a:b, :n]
            proj = (rows @ c.W.data).swapaxes(0, 1)
            if buf is None:
                buf = proj
            else:
                buf[:n, a:b] = proj
        xw.append(buf)
    return xw


def recurrent_forward(cells: Sequence[_GatedCell],
                      inputs: Sequence[np.ndarray], lengths: np.ndarray,
                      reverses: Sequence[bool], output: str,
                      saved: Optional[list] = None
                      ) -> tuple[np.ndarray, tuple]:
    """The forward of one run of D same-kind, same-size ``cells`` on
    arrays, building no graph: cell ``k`` over ``inputs[k]``, right to
    left when ``reverses[k]``, every input of one leading shape with T >=
    1 and some sequence non-empty.  An input is one of:

    - [T, d_k], [1, T, d_k] or [1, 1, T, d_k], with ``lengths`` ``[n]``:
      one row;
    - [K, T, d_k] or [K, 1, T, d_k] with K > 1 and the K ``lengths``: K
      slots, one sequence each, whose padding is never read.

    Every product is one sequence's own, so each sequence gets the bits
    of a run over it alone, whatever it runs with.  A bidirectional run
    passes its input twice; two matchers' runs pass each matcher's input
    to both of its cells.

    ``output`` names the one result built: ``"states"``, aligned with
    input positions, cell ``k``'s in the ``k``-th block of h columns, and
    zero past each sequence's length; or ``"last"``, each sequence's
    [D*h] state after its last step (position n - 1 of a forward cell, 0
    of a reverse one), zero for an empty one.

    Sequences run longest first (:func:`_slot_order`), and each timestep
    runs ``step`` once on the states of the sequences still running, a
    prefix of the previous step's, every cell at once: for two or more
    cells the states and ``U`` and ``b`` are stacked on a leading axis.
    One row steps [1, h] states ([D, 1, h] for D cells); K slots step
    [n, 1, h] states, so each slot's product is its own.  So the time
    loop runs the longest sequence's steps.  Stacking on a leading axis
    leaves every product's bits as in a run of each cell, or each slot,
    alone.  One row projects its positions through each cell's ``W`` in
    one product; slots each project their own [n, d] rows
    (:func:`_slot_projections`).  Each step's record for
    ``step_backward`` is appended to ``saved`` when it is a list.

    Returns the output and ``(flats, counts, order, u)``, which a
    backward reads: per cell the flat input positions the steps read, in
    step order (see :func:`_slot_positions`; built for slots only with
    ``"states"`` or a ``saved`` list), how many sequences run at each
    step, the sequences longest first, and the recurrent weights as one
    cell's or a [D, ...] stack.  :func:`recurrent` is the graph twin.
    """
    T = inputs[0].shape[-2]
    K, D = lengths.shape[0], len(cells)
    cell = cells[0]
    H = cell.hidden_dim
    lead = (D,) if D > 1 else ()  # the direction axis, if any
    run = (slice(None),) * len(lead)  # all of the direction axis, if any
    want_states = output == "states"
    if K == 1:
        n = int(lengths[0])
        order, counts = [0], [1] * n
        flats = [np.arange(n - 1, -1, -1) if r else slice(0, n)
                 for r in reverses]
        xw = [x.reshape(T, -1)[flat] @ c.W.data
              for x, flat, c in zip(inputs, flats, cells)]
    else:
        order, lens, counts = _slot_order(lengths)
        flats = (_slot_positions(order, lens, counts, T, reverses)
                 if want_states or saved is not None else None)
        xw = _slot_projections(cells, inputs, order, lens, reverses)
    us, bs = [c.U.data for c in cells], [c.b.data for c in cells]
    if D > 1:  # the cells' arrays stacked on a leading axis
        xw, u, b = np.array(xw), np.array(us), np.array(bs)[:, None]
    else:
        (xw,), (u,), (b,) = xw, us, bs
    # [n, 1, G*h] step inputs of one row, [n0, K, 1, G*h] of K slots
    xw, u_step = xw[..., None, :], u
    point = () if K == 1 else (1,)  # a slot's one-row axis
    if point and D > 1:
        u_step, b = u[:, None], b[:, None]
    outs, ends = [], []
    state = cell.initial_state(*lead, counts[0], *point)
    for s, c in enumerate(counts):
        if c < state[0].shape[len(lead)]:  # sequences that ended drop out
            if not want_states:
                ends.append(state[0][(*run, slice(c, None))])
            state = tuple(v[(*run, slice(c))] for v in state)
        state, keep = cell.step(xw[(*run, s, slice(c))], state, u_step, b)
        if saved is not None:
            saved.append(keep)
        if want_states:
            outs.append(state[0])
    if want_states:
        hs = np.concatenate(outs, axis=len(lead)).reshape(D, -1, H)
        states = np.zeros((D, K * T, H))
        for k, flat in enumerate(flats):
            states[k][flat] = hs[k]
        # cells side by side: [K * T, D * h]; one cell needs no copy
        data = states[0] if D == 1 else states.transpose(1, 0, 2)
        data = data.reshape(inputs[0].shape[:-1] + (D * H,))
    else:
        # the sequences that end latest come first in the running order
        ends.append(state[0])
        last = (ends[0] if len(ends) == 1 else np.concatenate(
            ends[::-1], axis=len(lead))).reshape(D, -1, H)
        if K > 1:
            rows, last = last, np.zeros((D, K, H))
            last[:, order[:rows.shape[1]]] = rows
        data = last.transpose(1, 0, 2).reshape(inputs[0].shape[:-2]
                                               + (D * H,))
    return data, (flats, counts, order, u)


def _recurrent_states(cells: Sequence[_GatedCell], x: Tensor,
                      lengths: np.ndarray, reverses: Sequence[bool],
                      output: str) -> Tensor:
    """One run of :func:`recurrent_forward` of every cell over ``x``, one
    row or K slots, as one graph node, whose parents are ``x`` and the
    cells' weights.

    The backward runs ``step_backward`` back through time as the forward
    stepped, on [n, h] rows (a slot's one-row axis dropped from what each
    step saved, so the running rows share each product: no answer reads a
    gradient's bits), adds the gradients of ``W``, ``U`` and ``b`` once
    each, as products over every row and timestep, and gives ``x`` one
    gradient, summed over the cells in order.
    """
    params = [p for c in cells for p in (c.W, c.U, c.b)]
    saved: list = []
    data, (flats, counts, order, u) = recurrent_forward(
        cells, [x.data] * len(cells), lengths, reverses, output, saved)
    T = x.shape[-2]
    K, D = lengths.shape[0], len(cells)
    cell = cells[0]
    H = cell.hidden_dim
    lead = (D,) if D > 1 else ()
    offsets = [0, *accumulate(counts)]
    pre_shape = lead + (offsets[-1], u.shape[-2])  # [D, positions, G*h]

    def backward(out: Tensor) -> None:
        steps, flat_at = saved, flats
        if K > 1:
            steps = [tuple(v[..., 0, :] for v in keep) for keep in saved]
            flat_at = [np.array(flat) for flat in flats]
        if output == "states":
            grad = out.grad.reshape(K * T, D, H)
            g = [grad[:, k][flat] for k, flat in enumerate(flat_at)]
            g = np.array(g) if D > 1 else g[0]
        else:  # each sequence's gradient at its last step
            ran = order[:counts[0]]  # the sequences that ran
            g = np.zeros(pre_shape[:-1] + (H,))
            ends_at = (np.asarray(offsets)[lengths[ran] - 1]
                       + np.arange(len(ran)))
            grad = out.grad.reshape(K, D, H)[ran]
            g[..., ends_at, :] = grad.transpose(1, 0, 2).reshape(
                g.shape[:-2] + (len(ran), H))
        d_pre = np.empty(pre_shape)
        d_rec = np.empty(pre_shape)
        d_state = cell.initial_state(*lead, counts[-1])
        for s in reversed(range(len(steps))):
            lo, hi = offsets[s], offsets[s + 1]
            if hi - lo > d_state[0].shape[-2]:  # sequences that end here
                pad = np.zeros(lead + (hi - lo - d_state[0].shape[-2], H))
                d_state = tuple(np.concatenate([v, pad], axis=-2)
                                for v in d_state)
            d_state = (d_state[0] + g[..., lo:hi, :],) + d_state[1:]
            d_state, d_pre[..., lo:hi, :], d_rec[..., lo:hi, :] = (
                cell.step_backward(steps[s], d_state, u))
        h_prev = np.concatenate([keep[0] for keep in steps], axis=-2)
        d_pre, d_rec, h_prev = (a.reshape((D,) + a.shape[-2:])
                                for a in (d_pre, d_rec, h_prev))
        rows = x.data.reshape(K * T, -1)
        for k, c in enumerate(cells):
            # W's gradient is the [G*h, d] product transposed:
            # xs.T @ d_pre would round differently
            for weight, grad_k in ((c.W, (d_pre[k].T @ rows[flat_at[k]]).T),
                                   (c.U, d_rec[k].T @ h_prev[k]),
                                   (c.b, d_pre[k].sum(axis=0))):
                if weight.requires_grad:
                    weight.accumulate(grad_k)
        if x.requires_grad:
            d_x = np.zeros((K * T, x.shape[-1]))
            for k, c in enumerate(cells):
                d_x[flat_at[k]] += d_pre[k] @ c.W.data.T
            x.accumulate(d_x.reshape(x.shape))

    return _make(data, (x, *params), backward)


def recurrent(cells: Sequence[_GatedCell], x: Tensor,
              lengths: Optional[Sequence[int]], reverses: Sequence[bool],
              output: str) -> Tensor:
    """:func:`recurrent_forward`'s graph twin, with its arguments: after
    checking the shapes, one :func:`_recurrent_states` node over one
    [T, d] row (``lengths`` unread) or a padded [B, T, d] batch with its
    rows' ``lengths`` (all T when None), whose padding is never read.  A
    batch of two or more rows runs them on slots, so each row has the
    bits of a run over it alone, in training as in answering.  A batch of
    empty rows gives zero ``output`` without a run."""
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


def _attend(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unmasked attention of each [n, h] sequence of a stack against
    itself, and its [n, n] weights; each sequence is its own product."""
    if x.shape[-2] == 1:
        return x + 0.0, np.ones(x.shape[:-1] + (1,))
    scores = (x @ x.swapaxes(-1, -2)) * (1.0 / math.sqrt(x.shape[-1]))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    return attn @ x, attn


def attention_forward(x: np.ndarray, lengths: Optional[Sequence[int]] = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention of a state sequence against itself on
    arrays, building no graph.

    A = softmax(x xᵀ / sqrt(h)) row-wise; the output is A·x.  ``x`` is
    [T, h] with T >= 1, or a [K, T, h] stack, each sequence its own
    product, so each has the bits it gets alone.  With ``lengths`` a row
    attends only over its own first ``length`` states: the rows of each
    length run unmasked as one stack of their first ``length`` states,
    and the output past a row's length is zero, as is its weight outside
    its own [length, length] block.  An empty row runs as one of length
    1.  Returns the output and the attention weights, which a backward
    reads.

    A one-step sequence's output is its input plus 0.0: the softmax over
    its one score is exactly 1.0, and the product with weight 1.0 sums
    onto +0.0, so it turns a -0.0 to +0.0, as adding 0.0 does.
    """
    if lengths is None:
        return _attend(x)
    T = x.shape[-2]
    groups: dict[int, list[int]] = {}
    for k, n in enumerate(np.asarray(lengths).tolist()):
        groups.setdefault(max(n, 1), []).append(k)
    if list(groups) == [T]:
        return _attend(x)
    out, attn = np.zeros(x.shape), np.zeros(x.shape[:-1] + (T,))
    for n, rows in groups.items():
        # a run of rows is read as a slice, the others gathered
        at = (slice(rows[0], rows[-1] + 1)
              if rows[-1] - rows[0] == len(rows) - 1 else rows)
        out[at, :n], attn[at, :n, :n] = _attend(x[at, :n])
    return out, attn


def self_attention(states: Tensor,
                   lengths: Optional[Sequence[int]] = None) -> Tensor:
    """:func:`attention_forward` of ``states`` ([T, h], or [B, T, h] with
    row ``lengths``) as one graph node; an empty sequence is returned
    as it is.  The weights are zero outside each row's own block, so
    the backward of the unmasked formula gives each row its own
    gradient and none past its length."""
    if states.ndim not in (2, 3):
        raise ShapeMismatch(
            f"self_attention expects [T, h] or [B, T, h], got {states.shape}")
    if states.shape[-2] == 0:
        return states
    x = states.data
    out, attn = attention_forward(x, lengths)

    def backward(node: Tensor) -> None:
        scale = 1.0 / math.sqrt(x.shape[-1])
        g = node.grad
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


def cosine_backward(grad: np.ndarray, x: np.ndarray, y: np.ndarray,
                    cos: np.ndarray, saved: tuple
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of ``x`` and ``y`` from the gradient ``grad`` of
    their cosines ``cos`` and what :func:`cosine_forward` saved; a pair
    with a zero-norm side passes none."""
    nx, ny, denom, dead = saved
    g = np.where(dead, 0.0, grad)
    return ((g / denom)[..., None] * y - (g * cos / (nx * nx))[..., None] * x,
            (g / denom)[..., None] * x - (g * cos / (ny * ny))[..., None] * y)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """:func:`cosine_forward` of two tensors as one graph node, with
    :func:`cosine_backward`'s gradients.  It has no caller in the models,
    whose joint-model loss is one fused node: it stays as the composed
    reference that the tests check that node against."""
    x, y = a.data, b.data
    cos, saved = cosine_forward(x, y)

    def backward(out: Tensor) -> None:
        d_x, d_y = cosine_backward(out.grad, x, y, cos, saved)
        if a.requires_grad:
            a.accumulate(d_x)
        if b.requires_grad:
            b.accumulate(d_y)

    return _make(cos, (a, b), backward)
