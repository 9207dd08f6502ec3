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
:func:`recurrent_forward`, :func:`attention_forward` and
:func:`cosine_forward`.  Each graph op computes its data by calling one
of them, so an answer computed on arrays has the bits of the same
computation as graph nodes.  Training's dropout multiplies by a
:func:`dropout_mask`.

Several sequences share one array call, and each keeps the bits it gets
alone, in training as in answering, so a text has one encoding whatever
it runs with.  Two properties of the BLAS give that.  A recurrent run
shares each product among its sequences' rows
(:func:`recurrent_forward`): every product has two or more rows and a
C-ordered right operand, and each row of such a product has the bits it
has in every other such product that holds it, up to an inner dimension
of 384; a one-row product rounds differently, so a lone row multiplies
beside a zero row.  :meth:`Dense.forward`, whose inner dimension
``max_len * h`` passes that bound at width 128, and
:func:`attention_forward` run each sequence on its own slot of a leading
axis: numpy's stacked ``matmul`` runs one BLAS product per slot, with
that slot's shapes and strides, so a slot's product is the 2-D product
of the sequence alone.  ``tests/test_slots.py`` checks these properties
on the BLAS in use, and ``tests/test_one_encoding.py`` the encodings
they give.  The backwards share products too, as no answer reads a
gradient's bits; the recurrent one shapes its products so that seeded
training writes the same bytes under 1 and 2 BLAS threads
(:func:`_recurrent_states`).
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
    weight ``W`` as [d, G*h], the recurrent weight ``U`` as [h, G*h] and
    the bias ``b`` as [G*h].  ``W`` and ``U`` are stored C-ordered, the
    layout their products in :func:`recurrent_forward` read.

    A step works on ``[n, h]`` states, one row per sequence still
    running, or on ``[D, n, h]`` states with one such block per cell of
    a run.  It does only the gate arithmetic: it takes every gate's input
    projection ``x @ W + b`` and recurrent product ``h @ U`` precomputed,
    as :func:`recurrent_forward` makes them.
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
        return {f"{name}.W": (input_dim, gh), f"{name}.U": (hidden_dim, gh),
                f"{name}.b": (gh,)}

    @classmethod
    def draw(cls, rng: np.random.Generator, name: str, input_dim: int,
             hidden_dim: int) -> dict[str, np.ndarray]:
        """Glorot-uniform weights and a zero bias."""
        d, h = input_dim, hidden_dim
        # per gate a draw of its [d, h] block of W, transposed, then of
        # its [h, h] block of U, transposed: a seed's draws, and so every
        # trained bit, depend on this order and these shapes
        draws = [(glorot(rng, (h, d)), glorot(rng, (h, h)))
                 for _ in cls.gates]
        w, u = (np.concatenate(blocks).T.copy() for blocks in zip(*draws))
        return {f"{name}.W": w, f"{name}.U": u,
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
             uh: np.ndarray):
        """One timestep's gate arithmetic on arrays, from the [..., n, 3h]
        input projections ``xw`` (bias added) and recurrent products
        ``uh``, ``h @ U``: the next state, and what :meth:`step_backward`
        needs of this one (the input state first)."""
        (h,) = state
        H = self.hidden_dim
        zr = logistic(xw[..., :2 * H] + uh[..., :2 * H])
        z, r = zr[..., :H], zr[..., H:]
        u_n = uh[..., 2 * H:]
        n = np.tanh(xw[..., 2 * H:] + r * u_n)
        return ((1.0 - z) * n + z * h,), (h, z, r, n, u_n)

    def step_backward(self, saved, d_state: tuple[np.ndarray],
                      u_t: np.ndarray):
        """Gradients of one step from the gradient of its output state and
        ``u_t``, ``U`` transposed C-ordered ([..., 3h, h]): (gradient of
        its input state, the [..., n, 3h] gradient of the pre-activations
        that ``W`` and ``b`` feed, the [..., n, 3h] gradient of the
        products ``h @ U``)."""
        h, z, r, n, u_n = saved
        (dh,) = d_state
        dh_not_z = dh * (1.0 - z)
        da_n = dh_not_z * (1.0 - n * n)
        da_z = dh_not_z * z * (h - n)
        du_n = da_n * r
        da_r = du_n * u_n * (1.0 - r)
        d_rec = np.concatenate([da_z, da_r, du_n], axis=-1)
        d_pre = np.concatenate([da_z, da_r, da_n], axis=-1)
        return (dh * z + d_rec @ u_t,), d_pre, d_rec


class LSTMCell(_GatedCell):
    """Long short-term memory cell with the usual i/f/g/o gates.

    The state is the tuple ``(h, c)``.
    """

    gates = ("i", "f", "g", "o")
    state_parts = ("h", "c")

    def step(self, xw: np.ndarray, state: tuple[np.ndarray, np.ndarray],
             uh: np.ndarray):
        """One timestep's gate arithmetic on arrays, as
        :meth:`GRUCell.step` (the input ``h`` first in what it keeps)."""
        h, c = state
        H = self.hidden_dim
        a = xw + uh
        gates = logistic(a)
        i, f, o = gates[..., :H], gates[..., H:2 * H], gates[..., 3 * H:]
        g = np.tanh(a[..., 2 * H:3 * H])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        return (o * tanh_c, c_new), (h, c, i, f, g, o, tanh_c)

    def step_backward(self, saved, d_state: tuple[np.ndarray, np.ndarray],
                      u_t: np.ndarray):
        """Gradients of one step, as :meth:`GRUCell.step_backward`; every
        gate's ``h @ U`` gradient is its pre-activation gradient."""
        h, c, i, f, g, o, tanh_c = saved
        dh, dc = d_state
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d_pre = np.concatenate([dc * g * i * (1.0 - i),
                                dc * c * f * (1.0 - f),
                                dc * i * (1.0 - g * g),
                                dh * tanh_c * o * (1.0 - o)], axis=-1)
        return (d_pre @ u_t, dc * f), d_pre, d_pre


def _running_order(lengths: np.ndarray, T: int, reverses: Sequence[bool]
                   ) -> tuple[np.ndarray, list[int], list[np.ndarray]]:
    """The running order of K sequences of T positions: ``(order, counts,
    flats)``, the sequences longest first (ties in input order), how many
    run at each step, each step's a prefix of the previous step's, and per
    direction the flat ``k * T + t`` input positions that the steps read,
    step after step, the running sequences of a step in order; right to
    left within a sequence when ``reverses[k]``."""
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    running = lens[:, None] > np.arange(lens[0])  # [K, steps]
    steps, seqs = np.nonzero(running.T)
    starts = order[seqs] * T
    flats = [starts + (lens[seqs] - 1 - steps if reverse else steps)
             for reverse in reverses]
    return order, running.sum(axis=0).tolist(), flats


def recurrent_forward(cells: Sequence[_GatedCell],
                      inputs: Sequence[np.ndarray], lengths: np.ndarray,
                      reverses: Sequence[bool], output: str,
                      saved: Optional[list] = None
                      ) -> tuple[np.ndarray, tuple]:
    """The forward of one run of D same-kind, same-size ``cells`` on
    arrays, building no graph: cell ``k`` over ``inputs[k]``, right to
    left when ``reverses[k]``, every input of one leading shape.  An input
    is [T, d_k] or [1, T, d_k], with ``lengths`` ``[n]``: one row; or [K,
    T, d_k] with K > 1 and the K ``lengths``: K sequences, whose padding
    is never read.  A bidirectional run passes its input twice; the
    matchers' question run passes each matcher's input to both of its
    cells.  This is the one array entry to a recurrent run: it orders the
    sequences and decides what an empty one gives.

    ``output`` names the one result built: ``"states"``, aligned with
    input positions, cell ``k``'s in the ``k``-th block of h columns, and
    zero past each sequence's length; or ``"last"``, each sequence's
    [D*h] state after its last step (position n - 1 of a forward cell, 0
    of a reverse one), zero for an empty one.  When no position runs (a
    [0, d_k] row, or K sequences all of length 0) both outputs are zeros,
    and nothing fails.

    Sequences run longest first (:func:`_running_order`), and each timestep
    runs ``step`` once on the [c, h] states of the c sequences still
    running, a prefix of the previous step's, every cell at once: for two
    or more cells the states, projections and ``U`` are stacked on a
    leading axis, which leaves each cell's products as in a run of it
    alone.  So the time loop runs the longest sequence's steps.  Each
    cell projects every position it reads, in step order, in one product
    ``rows @ W``, and the bias is added once, in place.  Each step makes
    one product ``state @ U`` over its running rows, which ``step``
    reads.

    Every product has two or more rows and a C-ordered right operand, so
    each row has the bits it gets in any other such product that holds
    it (``tests/test_slots.py`` checks this of the kernel), and each
    sequence gets the bits of a run over it alone, whatever it runs
    with.  A one-row product would round differently: a single position
    is projected beside a zero row, and a lone running row multiplies
    ``U`` in row 0 of a [..., 2, h] buffer whose row 1 stays zero.  Each
    step's record for ``step_backward`` is appended to ``saved`` when it
    is a list.

    Returns the output and ``(flats, counts, order, u)``, which a
    backward reads: per cell the flat input positions the steps read, in
    step order, how many sequences run at each step, the sequences
    longest first, and the recurrent weights as one cell's or a [D, ...]
    stack (None when no position runs).  :func:`recurrent` is the graph
    twin.
    """
    T = inputs[0].shape[-2]
    K, D = lengths.shape[0], len(cells)
    cell = cells[0]
    H = cell.hidden_dim
    lead = (D,) if D > 1 else ()  # the direction axis, if any
    want_states = output == "states"
    if K == 1:
        n = int(lengths[0])
        order, counts = [0], [1] * n
        flats = [np.arange(n - 1, -1, -1) if r else slice(0, n)
                 for r in reverses]
    else:
        order, counts, flats = _running_order(lengths, T, reverses)
    P = sum(counts)  # the positions of the run
    if not P:
        lead_shape = inputs[0].shape[:-1 if want_states else -2]
        return np.zeros(lead_shape + (D * H,)), (flats, counts, order, None)
    xw = []
    for x, flat, c in zip(inputs, flats, cells):
        rows = x.reshape(K * T, -1)[flat]
        if P == 1:  # beside a zero row, so no product has one row
            rows = np.concatenate([rows, np.zeros_like(rows)])
        xw.append(rows @ c.W.data)
    us, bs = [c.U.data for c in cells], [c.b.data for c in cells]
    if D > 1:  # the cells' arrays stacked on a leading axis
        xw, u, b = np.array(xw), np.array(us), np.array(bs)[:, None]
    else:
        (xw,), (u,), (b,) = xw, us, bs
    xw += b
    outs, ends = [], []
    state = cell.initial_state(*lead, counts[0])
    lone = None  # a lone row's [..., 2, h] buffer, row 1 zero
    at = 0
    for c in counts:
        if c < state[0].shape[-2]:  # sequences that ended drop out
            if not want_states:
                ends.append(state[0][..., c:, :])
            state = tuple(v[..., :c, :] for v in state)
        if c > 1:
            uh = state[0] @ u
        else:
            if lone is None:
                lone = np.zeros(lead + (2, H))
            lone[..., :1, :] = state[0]
            uh = (lone @ u)[..., :1, :]
        state, keep = cell.step(xw[..., at:at + c, :], state, uh)
        at += c
        if saved is not None:
            saved.append(keep)
        if want_states:
            outs.append(state[0])
    if want_states:
        hs = np.concatenate(outs, axis=-2).reshape(D, -1, H)
        states = np.zeros((K * T, D, H))  # cells side by side
        for k, flat in enumerate(flats):
            states[flat, k] = hs[k]
        data = states.reshape(inputs[0].shape[:-1] + (D * H,))
    else:
        # the sequences that end latest come first in the running order
        ends.append(state[0])
        last = (ends[0] if len(ends) == 1 else np.concatenate(
            ends[::-1], axis=-2)).reshape(D, -1, H)
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
    row or K sequences, as one graph node, whose parents are ``x`` and
    the cells' weights.

    The backward runs ``step_backward`` back through time as the forward
    stepped, on the [c, h] rows each step saved, adds the gradients of
    ``W``, ``U`` and ``b`` once each, as products over every row and
    timestep, and gives ``x`` one gradient, summed over the cells in
    order.  Its products read C-ordered right operands (``U`` and ``W``
    transposed are copied once each), and the input gradient's is padded
    to a width that is a multiple of 8, so that seeded training writes
    the same bytes under 1 and 2 BLAS threads (``tests/test_slots.py``
    checks these products, ``tests/test_trained_bytes.py`` the bytes).
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
    pre_shape = lead + (offsets[-1], u.shape[-1])  # [D, positions, G*h]

    def backward(out: Tensor) -> None:
        grad = out.grad.reshape(-1, D, H)
        if output == "states":  # the gradient of each step's states
            g = [grad[flat, k] for k, flat in enumerate(flats)]
        else:  # each sequence's, in running order, joins at its last step
            g = grad[order].transpose(1, 0, 2)
        g = np.array(g) if D > 1 else g[0]
        d_pre = np.empty(pre_shape)
        d_rec = np.empty(pre_shape)
        u_t = u.swapaxes(-1, -2).copy()
        d_state = cell.initial_state(*lead, 0)
        for s in reversed(range(len(saved))):
            lo, hi = offsets[s], offsets[s + 1]
            ran = d_state[0].shape[-2]
            if hi - lo > ran:  # the sequences whose last step this is
                pad = np.zeros(lead + (hi - lo - ran, H))
                joining = pad if output == "states" else g[..., ran:hi - lo, :]
                d_state = tuple(np.concatenate([v, part], axis=-2)
                                for v, part in zip(d_state,
                                                   (joining, pad, pad)))
            if output == "states":
                d_state = (d_state[0] + g[..., lo:hi, :],) + d_state[1:]
            d_state, d_pre[..., lo:hi, :], d_rec[..., lo:hi, :] = (
                cell.step_backward(saved[s], d_state, u_t))
        h_prev = np.concatenate([keep[0] for keep in saved], axis=-2)
        d_pre, d_rec, h_prev = (a.reshape((D,) + a.shape[-2:])
                                for a in (d_pre, d_rec, h_prev))
        rows = x.data.reshape(K * T, -1)
        for k, c in enumerate(cells):
            # W's and U's gradients are the [G*h, ...] products
            # transposed: xs.T @ d_pre would round differently
            for weight, grad_k in ((c.W, (d_pre[k].T @ rows[flats[k]]).T),
                                   (c.U, (d_rec[k].T @ h_prev[k]).T),
                                   (c.b, d_pre[k].sum(axis=0))):
                if weight.requires_grad:
                    weight.accumulate(grad_k)
        if x.requires_grad:
            d = x.shape[-1]
            # W.T C-ordered, its columns zero-padded to a multiple of 8: a
            # product whose width is not one splits its columns across BLAS
            # threads with bits that depend on the thread count
            w_t = np.zeros((D, pre_shape[-1], -(-d // 8) * 8))
            for k, c in enumerate(cells):
                w_t[k, :, :d] = c.W.data.T
            d_xs = d_pre @ w_t
            d_x = np.zeros((K * T, d))
            for k, flat in enumerate(flats):
                d_x[flat] += d_xs[k, :, :d]
            x.accumulate(d_x.reshape(x.shape))

    return _make(data, (x, *params), backward)


def recurrent(cells: Sequence[_GatedCell], x: Tensor,
              lengths: Optional[Sequence[int]], reverses: Sequence[bool],
              output: str) -> Tensor:
    """:func:`recurrent_forward`'s graph twin, with its arguments: after
    checking the shapes, one :func:`_recurrent_states` node over one
    [T, d] row (``lengths`` unread) or a padded [B, T, d] batch with its
    rows' ``lengths`` (all T when None), whose padding is never read.
    Each row has the bits of a run over it alone, in training as in
    answering.  A batch of empty rows gives zero ``output`` without a
    run."""
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
