"""Sequences on their own leading-axis slots keep the bits they get alone.

Answering encodes many texts in one array call: each text, and each
word's characters, sits on its own slot of a leading axis, and every
product runs as ``numpy.matmul`` over a stack of same-shaped matrices.
That gives each text the bits of its own run only because numpy's
stacked ``matmul`` makes one BLAS call per slot, with that slot's shapes
and strides, so a slot's product is the 2-D product of the text alone;
rows that share one 2-D product round differently.  The direction axis
of a bidirectional run rests on the same property.

:class:`TestStackedProducts` checks the property for the shapes the
models use.  It was shown with numpy 2.4.6 and OpenBLAS 0.3.31 picking
its Haswell kernels at run time (x86-64); a numpy or BLAS whose stacked
products differ from their 2-D ones fails it, and with it every claim
below that a slot has the bits of its sequence alone.
"""

import math

import numpy as np
import pytest
from conftest import dense, rnn_cell

from qakb.errors import ShapeMismatch
from qakb.nn.layers import (GRUCell, LSTMCell, attention_forward,
                            recurrent_forward, self_attention)
from qakb.nn.tensor import Tensor, tsum


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


# (d, h) of the models' recurrent layers: the char-GRU, the joint model's
# LSTM over word and char parts, and the pipeline's small cells
WIDTHS = [(12, 12), (36, 16), (24, 16), (4, 4), (3, 4)]


class TestStackedProducts:
    """A leading-axis stack of products gives each slot the bits of its
    own 2-D product, for every product an encode makes."""

    @pytest.mark.parametrize("gates", [3, 4])
    @pytest.mark.parametrize("d, h", WIDTHS)
    def test_one_row_recurrent_products(self, d, h, gates):
        """[K, 1, h] states times ``U`` read transposed, alone and with
        ``U`` stacked per direction, as a step takes them."""
        rng = np.random.default_rng(d * h + gates)
        u = rng.normal(size=(gates * h, h))
        us = rng.normal(size=(2, gates * h, h))
        for K in (2, 3, 7, 30):
            x = rng.normal(size=(K, 1, h))
            stacked = x @ u.swapaxes(-1, -2)
            per_dir = rng.normal(size=(2, K, 1, h))
            both = per_dir @ us[:, None].swapaxes(-1, -2)
            for k in range(K):
                assert _bits(stacked[k]) == _bits(x[k] @ u.swapaxes(-1, -2))
                for j in range(2):
                    assert _bits(both[j, k]) == _bits(
                        per_dir[j, k] @ us[j].swapaxes(-1, -2))

    @pytest.mark.parametrize("d, h", WIDTHS)
    def test_projections(self, d, h):
        """[L, d] inputs times ``W``: stacked slots of one length, and
        slots read out of a padded batch, each as its own product."""
        rng = np.random.default_rng(7 * d + h)
        for gates in (3, 4):
            w = rng.normal(size=(d, gates * h))
            for L in range(1, 13):
                padded = rng.normal(size=(5, L + 3, d))
                for x in (rng.normal(size=(4, L, d)), padded[1:5, :L],
                          padded[:3, L - 1::-1].copy()):
                    stacked = x @ w
                    for k in range(len(x)):
                        assert _bits(stacked[k]) == _bits(
                            np.ascontiguousarray(x[k]) @ w), (L, k)

    @pytest.mark.parametrize("in_dim, out_dim", [(320, 16), (60, 4), (24, 4)])
    def test_one_row_dense_products(self, in_dim, out_dim):
        """[K, 1, in] rows times a contiguous copy of ``W.T``."""
        rng = np.random.default_rng(in_dim + out_dim)
        w_t = rng.normal(size=(out_dim, in_dim)).T.copy()
        for K in (2, 5, 40):
            x = rng.normal(size=(K, 1, in_dim))
            stacked = x @ w_t
            for k in range(K):
                assert _bits(stacked[k]) == _bits(x[k] @ w_t)

    @pytest.mark.parametrize("h", [4, 16])
    def test_attention_products(self, h):
        """[T, h] states against themselves and the [T, T] weights times
        the states, for stacked slots and for slots of a padded batch."""
        rng = np.random.default_rng(h)
        for T in range(1, 10):
            padded = rng.normal(size=(6, T + 2, h))
            for x in (rng.normal(size=(5, T, h)), padded[1:6, :T]):
                scores = x @ x.swapaxes(-1, -2)
                attn = rng.normal(size=(len(x), T, T))
                mixed = attn @ x
                for k in range(len(x)):
                    alone = np.ascontiguousarray(x[k])[None]
                    assert _bits(scores[k]) == _bits(
                        (alone @ alone.swapaxes(-1, -2))[0])
                    assert _bits(mixed[k]) == _bits(attn[k] @ alone[0])


def _slot_case(cell_cls, lengths, D, seed):
    """Cells of one run, [K, 1, T, d] slot inputs whose padding is NaN (so
    a read of it would show), and the slot lengths."""
    rng = np.random.default_rng(seed)
    d, h = 5, 4
    cells = [rnn_cell(cell_cls, rng, d, h, f"c{k}") for k in range(D)]
    for c in cells:
        for p in c.parameters().values():
            p.data += rng.normal(scale=0.3, size=p.shape)
    T = max(lengths)
    inputs = []
    for _ in range(D):
        x = np.full((len(lengths), 1, T, d), np.nan)
        for k, n in enumerate(lengths):
            x[k, 0, :n] = rng.normal(size=(n, d))
        inputs.append(x)
    return cells, inputs, np.array(lengths)


def _alone(cells, inputs, k, n, reverses, output, T):
    """Slot ``k``'s result from a run of its own [n, d] sequence, padded
    to T positions as the slot run gives it."""
    D, h = len(cells), cells[0].hidden_dim
    if n == 0:
        shape = (T, D * h) if output == "states" else (D * h,)
        return np.zeros(shape)
    out, _ = recurrent_forward(cells, [x[k, 0, :n] for x in inputs],
                               np.array([n]), reverses, output)
    if output == "states":
        out = np.concatenate([out, np.zeros((T - n, D * h))])
    return out


class TestSlotRuns:
    """A run of one-row slots gives each slot the bits of a one-row run
    of its sequence alone, whatever it runs with."""

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    @pytest.mark.parametrize("reverses", [(False,), (True,), (False, True),
                                          (False, True, False, True)])
    @pytest.mark.parametrize("lengths", [(3, 1, 5, 5, 2), (1, 1), (4,),
                                         (6, 0, 2, 6), (2, 7, 1, 7, 3, 1)])
    def test_each_slot_as_alone(self, cell_cls, reverses, lengths):
        cells, inputs, lens = _slot_case(cell_cls, lengths, len(reverses),
                                         sum(lengths) + len(reverses))
        T = max(lengths)
        for output in ("states", "last"):
            got, _ = recurrent_forward(cells, inputs, lens, reverses, output)
            tail = (T,) if output == "states" else ()
            assert got.shape == (len(lengths), 1, *tail,
                                 len(cells) * cells[0].hidden_dim)
            for k, n in enumerate(lengths):
                want = _alone(cells, inputs, k, n, reverses, output, T)
                assert _bits(got[k, 0]) == _bits(want), (output, k)

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_steps_run_the_longest_slot(self, cell_cls, monkeypatch):
        """The time loop runs max(lengths) steps, on the slots still
        running: a prefix of the longest-first order."""
        cells, inputs, lens = _slot_case(cell_cls, (3, 1, 5, 2), 1, 3)
        running = []
        step = cell_cls.step

        def counted(self, xw, state, u, b):
            running.append(state[0].shape[0])
            return step(self, xw, state, u, b)

        monkeypatch.setattr(cell_cls, "step", counted)
        recurrent_forward(cells, inputs, lens, (False,), "last")
        assert running == [4, 3, 2, 1, 1]


class TestStackedDense:
    @pytest.mark.parametrize("rows", [1, 3])
    def test_each_slot_as_alone(self, rows):
        rng = np.random.default_rng(5)
        for activation in ("none", "relu", "sigmoid"):
            layer = dense(rng, 7, 3, activation)
            x = rng.normal(size=(6, rows, 7))
            got = layer.forward(x)
            assert got.shape == (6, rows, 3)
            for k in range(6):
                assert _bits(got[k]) == _bits(layer.forward(x[k]))

    def test_stack_of_wrong_width_rejected(self):
        layer = dense(np.random.default_rng(6), 7, 3)
        for shape in ((4, 1, 6), (2, 4, 1, 7)):
            with pytest.raises(ShapeMismatch):
                layer.forward(np.zeros(shape))


class TestOneStepAttention:
    """A one-step sequence attends to itself with weight exactly 1.0, so
    ``attention_forward`` returns it plus 0.0; the full computation gives
    the same bits, masked or not, a -0.0 entry included, and so does the
    graph op's backward."""

    @staticmethod
    def _full(x, lengths=None):
        """The attention computed in full, as for longer sequences."""
        scores = (x @ np.swapaxes(x, -1, -2)) * (1.0 / math.sqrt(x.shape[-1]))
        valid = None
        if lengths is not None:
            valid = (np.arange(x.shape[-2])
                     < np.maximum(np.asarray(lengths), 1)[:, None])
            scores = np.where(valid[:, None, :], scores, -np.inf)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        out = attn @ x
        if valid is not None:
            out *= valid[..., None]
        return out, attn, valid

    CASES = [((1, 4), None), ((3, 1, 4), None), ((3, 1, 4), (1, 1, 1)),
             ((4, 1, 16), (1, 0, 1, 0))]

    @pytest.mark.parametrize("shape, lengths", CASES)
    def test_forward_is_the_input(self, shape, lengths):
        x = np.random.default_rng(len(shape)).normal(size=shape)
        x[..., 0] = -0.0  # which the full computation's product makes +0.0
        out, attn = attention_forward(x, lengths)
        assert _bits(out) == _bits(x + 0.0) and out is not x
        full, full_attn, _ = self._full(x, lengths)
        assert _bits(out) == _bits(full)
        assert _bits(attn) == _bits(full_attn)

    @pytest.mark.parametrize("shape, lengths", CASES)
    def test_backward_is_the_full_backward(self, shape, lengths):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        g = rng.normal(size=shape)
        tsum(self_attention(x, lengths) * g).backward()
        _, attn, valid = self._full(x.data, lengths)
        # the backward of the full computation, from its own weights
        gm = g if valid is None else g * valid[..., None]
        d_attn = gm @ np.swapaxes(x.data, -1, -2)
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1,
                                                        keepdims=True))
        d_scores *= 1.0 / math.sqrt(x.shape[-1])
        want = (np.swapaxes(attn, -1, -2) @ gm + d_scores @ x.data
                + np.swapaxes(d_scores, -1, -2) @ x.data)
        assert _bits(x.grad) == _bits(want)
