"""Reverse-mode automatic differentiation over numpy float64 arrays.

A :class:`Tensor` wraps an ndarray and remembers how it was produced;
calling :meth:`Tensor.backward` on a scalar walks the graph in reverse
topological order and accumulates gradients into every tensor created
with ``requires_grad=True``.  Only the handful of primitives the models
need are implemented; anything else is composed from them.

Inside :func:`no_grad` no graph is recorded, which is how inference runs.

Every primitive, here and in :mod:`qakb.nn.layers`, makes its node with
:func:`_make` from the node's parents and one function ``backward(out)``
that reads ``out.grad`` and accumulates into the parents.  The function
holds the parents and arrays saved by the forward, never ``out``, so a
graph has no reference cycle: dropping its root frees it.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from qakb.errors import ShapeMismatch

ArrayLike = Union["Tensor", np.ndarray, float, int]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    # Make numpy defer mixed ndarray/Tensor arithmetic to our reflected ops.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[Tensor], None]] = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self) -> None:
        """Backpropagate from a scalar node through the whole graph.

        Each node lets go of its parents and its backward function once
        that has run, so the graph below a root the caller still holds
        (a loss kept for logging) is freed as the pass goes; a graph is
        backpropagated once.
        """
        if self.data.size != 1:
            raise ShapeMismatch(
                f"backward requires a scalar, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node)
                node._backward_fn, node._parents = None, ()

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return add(self, mul(other, -1.0))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return add(mul(self, -1.0), other)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return div(other, self)

    def __neg__(self) -> "Tensor":
        return mul(self, -1.0)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return matmul(self, other)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(x: ArrayLike) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def param(data, requires_grad: bool = True) -> Tensor:
    """A leaf tensor that collects gradients."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=requires_grad)


# Per thread (and per asyncio task): a no_grad block in one thread leaves
# graph building on in every other.
_grad_enabled: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "qakb_grad_enabled", default=True
)


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block: new nodes get no parents, no
    backward function and ``requires_grad=False``."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[Tensor], None]) -> Tensor:
    """Create a node, attaching its parents and ``backward`` only if a
    parent needs a gradient and graph recording is on."""
    track = _grad_enabled.get() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track)
    if track:
        out._parents = tuple(parents)
        out._backward_fn = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- arithmetic ------------------------------------------------------------

def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(out.grad, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(out.grad * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(
                _unbroadcast(-out.grad * a.data / (b.data ** 2), b.data.shape)
            )

    return _make(data, (a, b), backward)


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim == 0 or b.ndim == 0 or a.ndim > 2 or b.ndim > 2:
        raise ShapeMismatch(
            f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}"
        )
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(out: Tensor) -> None:
        g = out.grad
        if a.ndim == 2 and b.ndim == 2:
            ga, gb = g @ b.data.T, a.data.T @ g
        elif a.ndim == 1 and b.ndim == 2:
            ga, gb = b.data @ g, np.outer(a.data, g)
        elif a.ndim == 2 and b.ndim == 1:
            ga, gb = np.outer(g, b.data), a.data.T @ g
        else:  # 1-D dot product
            ga, gb = g * b.data, g * a.data
        if a.requires_grad:
            a.accumulate(ga)
        if b.requires_grad:
            b.accumulate(gb)

    return _make(data, (a, b), backward)


# -- elementwise nonlinearities -------------------------------------------

def _elementwise(a: ArrayLike, fwd, dfn) -> Tensor:
    a = as_tensor(a)
    data = fwd(a.data)

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            a.accumulate(out.grad * dfn(a.data, out.data))

    return _make(data, (a,), backward)


def tanh(a: ArrayLike) -> Tensor:
    return _elementwise(a, np.tanh, lambda x, y: 1.0 - y ** 2)


def logistic(x: np.ndarray) -> np.ndarray:
    """The logistic function on a raw array (the data of :func:`sigmoid`)."""
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: ArrayLike) -> Tensor:
    return _elementwise(a, logistic, lambda x, y: y * (1.0 - y))


def relu(a: ArrayLike) -> Tensor:
    return _elementwise(
        a,
        lambda x: np.maximum(x, 0.0),
        lambda x, y: (x > 0.0).astype(np.float64),
    )


def log(a: ArrayLike) -> Tensor:
    return _elementwise(a, np.log, lambda x, y: 1.0 / x)


def clip(a: ArrayLike, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only strictly inside the range."""
    return _elementwise(
        a,
        lambda x: np.clip(x, lo, hi),
        lambda x, y: ((x > lo) & (x < hi)).astype(np.float64),
    )


# -- reductions and shaping ------------------------------------------------

def tsum(a: ArrayLike, axis: Optional[int] = None) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis)

    def backward(out: Tensor) -> None:
        if not a.requires_grad:
            return
        g = out.grad
        if axis is not None:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), backward)


def reshape(a: ArrayLike, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            a.accumulate(out.grad.reshape(a.data.shape))

    return _make(data, (a,), backward)


def transpose(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeMismatch(f"transpose expects a matrix, got shape {a.shape}")

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            a.accumulate(out.grad.T)

    return _make(a.data.T.copy(), (a,), backward)


def concat(parts: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    tensors = [as_tensor(p) for p in parts]
    if not tensors:
        raise ShapeMismatch("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(out: Tensor) -> None:
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                sl = [slice(None)] * out.grad.ndim
                sl[axis] = slice(offset, offset + size)
                t.accumulate(out.grad[tuple(sl)])
            offset += size

    return _make(data, tensors, backward)


def stack_rows(rows: Sequence[ArrayLike]) -> Tensor:
    """Stack 1-D tensors into a matrix, one per row."""
    tensors = [as_tensor(r) for r in rows]
    if not tensors:
        raise ShapeMismatch("stack of zero rows")
    data = np.stack([t.data for t in tensors], axis=0)

    def backward(out: Tensor) -> None:
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate(out.grad[i])

    return _make(data, tensors, backward)


def take_column(a: ArrayLike, index: int) -> Tensor:
    a = as_tensor(a)
    data = a.data[:, index].copy()

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[:, index] = out.grad
            a.accumulate(g)

    return _make(data, (a,), backward)


def gather_rows(table: ArrayLike, indices) -> Tensor:
    """Select rows by index (embedding lookup); duplicates accumulate.

    An index array of shape S gives S followed by the row shape: a single
    index gives one row, and a [B, T] array of word indices gives
    [B, T, d] word vectors.  A tuple of
    index arrays indexes the leading axes together, so ``(rows, steps)``
    picks one [h] state per row of a [B, T, h] batch.
    """
    table = as_tensor(table)
    idx = (indices if isinstance(indices, tuple)
           else np.asarray(indices, dtype=np.int64))
    data = table.data[idx]

    def backward(out: Tensor) -> None:
        if table.requires_grad and data.size:
            g = np.zeros_like(table.data)
            np.add.at(g, idx, out.grad)
            table.accumulate(g)

    return _make(data, (table,), backward)


def pad_rows(a: ArrayLike, n: int) -> Tensor:
    """The first ``n`` rows along the second-to-last axis, followed by
    zero rows when there are fewer; ``a`` itself when it has ``n``."""
    a = as_tensor(a)
    if a.shape[-2] == n:
        return a
    keep = min(a.shape[-2], n)
    data = np.zeros(a.shape[:-2] + (n, a.shape[-1]))
    data[..., :keep, :] = a.data[..., :keep, :]

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[..., :keep, :] = out.grad[..., :keep, :]
            a.accumulate(g)

    return _make(data, (a,), backward)


def softmax_rows(a: ArrayLike) -> Tensor:
    """Row-wise softmax of a matrix with the standard closed-form gradient."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeMismatch(f"softmax_rows expects a matrix, got {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=1, keepdims=True)

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            y, g = out.data, out.grad
            dot = (g * y).sum(axis=1, keepdims=True)
            a.accumulate(y * (g - dot))

    return _make(data, (a,), backward)


def zeros(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape))
