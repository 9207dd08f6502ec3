"""Sequences keep the bits they get alone, whatever they run with.

Answering and training encode many texts in one array call, and a text
must get the bits it gets alone (``tests/test_one_encoding.py``).  Two
properties of the BLAS in use give that.

- **Rows.**  A recurrent run shares one product among its sequences:
  each cell projects every position in one ``rows @ W``, and each step
  makes one ``state @ U`` over the rows still running.  Each such
  product has two or more rows and a C-ordered right operand, and each
  of its rows has the bits it has in every other such product that
  holds it.  A one-row product rounds differently, so a lone row
  multiplies beside a zero row.  :class:`TestSharedProducts` checks this
  on the shapes the models use, at the default widths and at 128.
- **Slots.**  The dense layer and attention run each sequence on its own
  slot of a leading axis: numpy's stacked ``matmul`` makes one BLAS call
  per slot, with that slot's shapes and strides, so a slot's product is
  the 2-D product of the sequence alone.  The direction axis of a
  recurrent run, one slot per cell, rests on it too.
  :class:`TestStackedProducts` checks it.

:class:`TestSharedProducts` also requires each product a recurrent run
makes, forward and backward, to have the same bits under 1 and 2
OpenBLAS threads, so that seeded training is thread-independent
(``tests/test_trained_bytes.py``).

Both were shown with numpy 2.4.6 and OpenBLAS 0.3.31 picking its
Haswell kernels at run time (x86-64).  The row property held at inner
dimensions 3 to 384; from 392 up it failed in about a third of the cases
scanned, so it is relied on, and checked, only up to
:data:`INNER_BOUND`.  Products whose output width was not a multiple of
8 had other bits under 2 threads than under 1 (widths 66 to 162 at inner
dimension 256, some row counts each), so the backward's input-gradient
product pads its width to one.  A numpy or BLAS without these
properties fails here, and with it every claim below and in
``tests/test_one_encoding.py`` that a sequence has the bits it gets
alone.
"""

import json
import math
import os
import subprocess
import sys

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
# the same at hidden = embed = 128: the joint model's LSTM over word and
# char parts, and the pipeline's cells
WIDE = [(140, 128), (128, 128)]
# the largest inner dimension at which the row property was shown
INNER_BOUND = 384

# Run in a subprocess under a given OpenBLAS thread count: per cell of
# [d, h, gates] in argv[1], the products a recurrent run makes (the
# projection [d, G*h], the step [h, G*h] and the backward's input
# gradient [G*h, d padded to a multiple of 8]) over rows of random
# inputs, and for the first two the rows whose bits differ from the
# same rows' in a product of all 300.  Prints, per cell, those
# failures and a sha256 of every product made.
_PROBE = """
import hashlib, json, sys
import numpy as np
rng = np.random.default_rng(0)
out = {}
for d, h, gates in json.loads(sys.argv[1]):
    digest, failures = hashlib.sha256(), []
    for name, k, m in (("projection", d, gates * h), ("step", h, gates * h),
                       ("input gradient", gates * h, -(-d // 8) * 8)):
        x = rng.normal(size=(301, k))[1:]  # at an offset of one row
        w = rng.normal(size=(k, m))
        full = x @ w
        rows = {"all": (full, full)}
        for a, b in ((0, 2), (1, 3), (5, 12), (3, 67), (0, 60), (100, 300)):
            rows[f"{a}:{b}"] = (x[a:b] @ w, full[a:b])
        idx = rng.choice(300, size=40, replace=False)
        rows["40 gathered"] = (x[idx] @ w, full[idx])
        pair = np.stack([x[:24], x[24:48]]) @ np.stack([w, w[::-1].copy()])
        rows["a stack's slot"] = (pair[0], full[:24])
        lone = np.zeros((2, k))
        for i in (0, 299):
            lone[0] = x[i]
            got = lone @ w
            rows[f"lone {i}"] = (got[:1], full[i:i + 1])
            digest.update(got.tobytes())
        for key, (got, want) in rows.items():
            digest.update(got.tobytes())
            if name != "input gradient" and got.tobytes() != want.tobytes():
                failures.append(f"{name} rows {key}")
    out[f"{d}-{h}-{gates}"] = (failures, digest.hexdigest())
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def shared_products():
    """:data:`_PROBE` over every width and gate count, under 1 and under 2
    OpenBLAS threads, each in its own process started together."""
    cells = [[d, h, gates] for d, h in WIDTHS + WIDE for gates in (3, 4)]
    procs = [subprocess.Popen([sys.executable, "-c", _PROBE,
                               json.dumps(cells)],
                              stdout=subprocess.PIPE, text=True,
                              env={**os.environ,
                                   "OPENBLAS_NUM_THREADS": str(threads)})
             for threads in (1, 2)]
    results = []
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        results.append(json.loads(out))
    return results


class TestSharedProducts:
    """Each row of a C-ordered product of two or more rows has the bits it
    has in every other such product that holds it, a lone row beside a
    zero row included, under 1 and 2 OpenBLAS threads; and each product
    a recurrent run makes has the same bits under both."""

    def test_inner_dimensions_within_the_bound(self):
        assert max(max(d, h) for d, h in WIDTHS + WIDE) <= INNER_BOUND

    @pytest.mark.parametrize("gates", [3, 4])
    @pytest.mark.parametrize("d, h", WIDTHS + WIDE)
    def test_recurrent_products(self, shared_products, d, h, gates):
        one, two = (result[f"{d}-{h}-{gates}"] for result in shared_products)
        assert one[0] == [] and two[0] == []
        assert one[1] == two[1], "other bits under 2 threads than under 1"


class TestStackedProducts:
    """A leading-axis stack of products gives each slot the bits of its
    own 2-D product, for every product an encode makes."""

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
    """Cells of one run, [K, T, d] inputs whose padding is NaN (so a read
    of it would show), and the sequences' lengths."""
    rng = np.random.default_rng(seed)
    d, h = 5, 4
    cells = [rnn_cell(cell_cls, rng, d, h, f"c{k}") for k in range(D)]
    for c in cells:
        for p in c.parameters().values():
            p.data += rng.normal(scale=0.3, size=p.shape)
    T = max(lengths)
    inputs = []
    for _ in range(D):
        x = np.full((len(lengths), T, d), np.nan)
        for k, n in enumerate(lengths):
            x[k, :n] = rng.normal(size=(n, d))
        inputs.append(x)
    return cells, inputs, np.array(lengths)


def _alone(cells, inputs, k, n, reverses, output, T):
    """Sequence ``k``'s result from a run of its own [n, d] rows, padded
    to T positions as the run of all gives it."""
    D, h = len(cells), cells[0].hidden_dim
    if n == 0:
        shape = (T, D * h) if output == "states" else (D * h,)
        return np.zeros(shape)
    out, _ = recurrent_forward(cells, [x[k, :n] for x in inputs],
                               np.array([n]), reverses, output)
    if output == "states":
        out = np.concatenate([out, np.zeros((T - n, D * h))])
    return out


class TestSlotRuns:
    """A run of K sequences, whose products their rows share, gives each
    sequence the bits of a one-row run of it alone, whatever it runs
    with."""

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
            assert got.shape == (len(lengths), *tail,
                                 len(cells) * cells[0].hidden_dim)
            for k, n in enumerate(lengths):
                want = _alone(cells, inputs, k, n, reverses, output, T)
                assert _bits(got[k]) == _bits(want), (output, k)

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_steps_run_the_longest_slot(self, cell_cls, monkeypatch):
        """The time loop runs max(lengths) steps, on the sequences still
        running: a prefix of the longest-first order."""
        cells, inputs, lens = _slot_case(cell_cls, (3, 1, 5, 2), 1, 3)
        running = []
        step = cell_cls.step

        def counted(self, xw, state, uh):
            running.append(state[0].shape[0])
            return step(self, xw, state, uh)

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
