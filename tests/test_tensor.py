"""Autodiff primitives: forward values and finite-difference gradients."""

import gc
import weakref

import numpy as np
import pytest
from conftest import finite_diff_check, param, rnn_cell, stack_rows

from qakb.errors import ShapeMismatch
from qakb.nn import tensor as T
from qakb.nn.layers import GRUCell, LSTMCell, cosine, recurrent, self_attention


class TestForward:
    def test_add_broadcast(self):
        a = T.Tensor(np.ones((3, 2)))
        b = T.Tensor(np.array([10.0, 20.0]))
        np.testing.assert_allclose((a + b).data, [[11, 21]] * 3)

    def test_matmul_shapes(self):
        m = T.Tensor(np.ones((2, 3)))
        v = T.Tensor(np.ones(3))
        assert (m @ v).shape == (2,)
        assert (v @ T.Tensor(np.ones((3, 4)))).shape == (4,)
        assert (v @ v).shape == ()

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.normal(size=(5, 7)))
        rows = T.softmax_rows(x).data.sum(axis=1)
        np.testing.assert_allclose(rows, np.ones(5), atol=1e-12)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = T.softmax_rows(T.Tensor(x)).data
        b = T.softmax_rows(T.Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_forward_is_softmax_rows_data(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        got = T.softmax_forward(x)
        assert type(got) is np.ndarray
        assert got.tobytes() == T.softmax_rows(param(x)).data.tobytes()
        assert T.softmax_forward(np.zeros((0, 2))).shape == (0, 2)

    def test_nodes_of_leaves_without_grad_record_no_graph(self):
        w = T.Tensor(np.ones(3))
        out = T.tsum(T.tanh(w @ T.Tensor(np.ones((3, 2)))))
        assert out._parents == () and out._backward_fn is None
        assert not out.requires_grad

    def test_clip_clamps(self):
        x = T.Tensor(np.array([-1.0, 0.5, 2.0]))
        np.testing.assert_allclose(T.clip(x, 0.0, 1.0).data, [0.0, 0.5, 1.0])

    def test_gather_rows(self):
        table = T.Tensor(np.arange(12.0).reshape(4, 3))
        got = T.gather_rows(table, [2, 0, 2])
        np.testing.assert_allclose(got.data, [[6, 7, 8], [0, 1, 2], [6, 7, 8]])

    def test_gather_empty(self):
        table = T.Tensor(np.ones((4, 3)))
        assert T.gather_rows(table, []).shape == (0, 3)

    def test_backward_requires_scalar(self):
        t = param(np.ones(3))
        with pytest.raises(ShapeMismatch):
            (t * 2.0).backward()


class TestAccumulate:
    def test_first_negative_zero_is_stored_as_positive_zero(self):
        """The bits of a zero-filled gradient plus the first one."""
        t = param(np.ones(3))
        t.accumulate(np.array([-0.0, 0.0, -2.5]))
        np.testing.assert_array_equal(np.signbit(t.grad),
                                      [False, False, True])
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, -2.5])

    def test_first_gradient_is_a_copy(self):
        t = param(np.zeros((2, 2)))
        g = np.ones((2, 2))
        t.accumulate(g)
        g += 5.0
        np.testing.assert_array_equal(t.grad, np.ones((2, 2)))

    def test_second_gradient_adds(self):
        t = param(np.zeros(2))
        t.accumulate(np.array([1.0, 2.0]))
        t.accumulate(np.array([0.5, -2.0]))
        np.testing.assert_array_equal(t.grad, [1.5, 0.0])

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("shape", [(1, 3), (3, 3), (1,), ()])
    def test_other_shape_raises_instead_of_broadcasting(self, first, shape):
        t = param(np.zeros(3))
        if not first:
            t.accumulate(np.ones(3))
        with pytest.raises(ShapeMismatch):
            t.accumulate(np.ones(shape))


def _dense_gather(table, indices):
    """gather_rows with the dense rule: each backward fills a zero array
    of the table's shape by ``np.add.at`` and accumulates it."""
    idx = np.asarray(indices, dtype=np.int64)

    def backward(out):
        if table.requires_grad and idx.size:
            g = np.zeros_like(table.data)
            np.add.at(g, idx, out.grad)
            table.accumulate(g)

    return T._make(table.data[idx], (table,), backward)


class TestGatherGradient:
    """gather_rows's backward has the bits of the dense rule, and marks
    the rows a leaf's gradient has reached while only gathers add in."""

    # each builds a loss from a leaf table and a gather function
    LOSSES = {
        "repeats and three gathers": lambda x, gather, w: (
            T.tsum(gather(x, [4, 1, 4]) * w[:3])
            + T.tsum(gather(x, [4, 2, 4, 4]) * w[3:7])
            + T.tsum(gather(x, 5) * w[7])),
        "an index matrix": lambda x, gather, w: T.tsum(
            gather(x, [[0, 3, 3], [3, 0, 1]]) * w[:6].reshape(2, 3, 2)),
        "an inner node gathered twice": lambda x, gather, w: (
            T.tsum(gather(y := x * 1.5, [2, 2, 0]) * w[:3])
            + T.tsum(gather(y, [0, 1, 1]) * w[3:6])),
        "a gather and a dense use": lambda x, gather, w: (
            T.tsum(gather(x, [3, 3]) * w[:2]) + T.tsum(x * w[2:8])),
    }
    ROWS = {"repeats and three gathers": [1, 2, 4, 5],
            "an index matrix": [0, 1, 3]}

    def test_a_later_gather_sums_its_repeats_first(self):
        """Repeats of a row in a later gather are summed before they join
        the gradient: 1 + (2**-53 + 2**-53) is 1 + 2**-52, where adding
        each to 1 in turn would round back to 1."""
        tiny = np.full((2, 1), 2.0 ** -53)
        for gather in (T.gather_rows, _dense_gather):
            x = param(np.zeros((2, 1)))
            (T.tsum(gather(x, [0]) * np.ones((1, 1)))
             + T.tsum(gather(x, [0, 0]) * tiny)).backward()
            assert x.grad[0, 0] == 1.0 + 2.0 ** -52

    @pytest.mark.parametrize("case", sorted(LOSSES))
    def test_same_bits_as_the_dense_rule(self, case):
        rng = np.random.default_rng(17)
        init = rng.normal(size=(6, 2))
        w = np.where(rng.random((8, 2)) < 0.3, -0.0, rng.normal(size=(8, 2)))
        x, ref = param(init), param(init)
        self.LOSSES[case](x, T.gather_rows, w).backward()
        self.LOSSES[case](ref, _dense_gather, w).backward()
        np.testing.assert_array_equal(x.grad.view(np.uint64),
                                      ref.grad.view(np.uint64))
        if case in self.ROWS:
            assert np.flatnonzero(x.grad_rows).tolist() == self.ROWS[case]
            assert not x.grad[~x.grad_rows].any()
        else:
            assert x.grad_rows is None


def _check(build, params, tol=1e-4):
    assert finite_diff_check(build, params) < tol


class TestGradients:
    """Every primitive against central finite differences."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_add_mul_sub(self):
        a = param(self.rng.normal(size=(3, 4)))
        b = param(self.rng.normal(size=(4,)) + 3.0)
        _check(lambda: T.tsum(a * b + a - b), [a, b])

    def test_matmul_all_shapes(self):
        m = param(self.rng.normal(size=(3, 4)))
        n = param(self.rng.normal(size=(4, 2)))
        v = param(self.rng.normal(size=(4,)))
        _check(lambda: T.tsum(m @ n), [m, n])
        _check(lambda: T.tsum(m @ v), [m, v])
        _check(lambda: T.tsum(v @ n), [v, n])
        _check(lambda: v @ v, [v])

    def test_nonlinearities(self):
        x = param(self.rng.normal(size=(6,)))
        _check(lambda: T.tsum(T.tanh(x)), [x])
        _check(lambda: T.tsum(T.sigmoid(x)), [x])

    def test_relu_off_kink(self):
        x = param(np.array([-0.9, -0.3, 0.4, 1.2]))
        _check(lambda: T.tsum(T.relu(x)), [x])

    def test_log_positive(self):
        x = param(np.abs(self.rng.normal(size=(5,))) + 0.5)
        _check(lambda: T.tsum(T.log(x)), [x])

    def test_clip_inside_range(self):
        x = param(np.array([0.2, 0.5, 0.8]))
        _check(lambda: T.tsum(T.clip(x, 0.0, 1.0)), [x])

    def test_softmax_rows(self):
        x = param(self.rng.normal(size=(4, 5)))
        w = T.Tensor(self.rng.normal(size=(4, 5)))
        _check(lambda: T.tsum(T.softmax_rows(x) * w), [x])

    def test_reductions_and_shaping(self):
        x = param(self.rng.normal(size=(3, 4)))
        _check(lambda: T.tsum(T.tsum(x, axis=1) * 2.0), [x])
        _check(lambda: T.tsum(T.reshape(x, (2, 6))), [x])
        _check(lambda: T.tsum(T.transpose(x) @ x), [x])

    def test_row_column_ops(self):
        x = param(self.rng.normal(size=(4, 3)))
        _check(lambda: T.tsum(T.gather_rows(x, 2)), [x])
        _check(lambda: T.tsum(T.take_column(x, 1)), [x])

    def test_concat_and_stack(self):
        a = param(self.rng.normal(size=(2, 3)))
        b = param(self.rng.normal(size=(2, 3)))
        _check(lambda: T.tsum(T.concat([a, b], axis=0)), [a, b])
        _check(lambda: T.tsum(T.concat([a, b], axis=1) * 0.5), [a, b])
        u = param(self.rng.normal(size=(3,)))
        v = param(self.rng.normal(size=(3,)))
        _check(lambda: T.tsum(stack_rows([u, v]) * 2.0), [u, v])

    def test_gather_rows_with_duplicates(self):
        """Duplicate indices must accumulate their gradients."""
        table = param(self.rng.normal(size=(5, 3)))
        _check(lambda: T.tsum(T.gather_rows(table, [1, 3, 1])), [table])

    def test_gather_rows_by_index_matrix(self):
        """A [B, T] index array gives [B, T, d] rows; repeats accumulate."""
        table = param(self.rng.normal(size=(5, 3)))
        w = self.rng.normal(size=(2, 3, 3))
        idx = np.array([[4, 0, 4], [1, 1, 2]])
        np.testing.assert_array_equal(T.gather_rows(table, idx).data,
                                      table.data[idx])
        _check(lambda: T.tsum(T.gather_rows(table, idx) * w), [table])

    @pytest.mark.parametrize("shape, n", [((4, 3), 6), ((4, 3), 2),
                                          ((2, 4, 3), 6), ((2, 4, 3), 3)])
    def test_pad_rows(self, shape, n):
        x = param(self.rng.normal(size=shape))
        out = T.pad_rows(x, n)
        keep = min(shape[-2], n)
        assert out.shape == shape[:-2] + (n, shape[-1])
        np.testing.assert_array_equal(out.data[..., :keep, :],
                                      x.data[..., :keep, :])
        assert not out.data[..., keep:, :].any()
        w = self.rng.normal(size=out.shape)
        _check(lambda: T.tsum(T.pad_rows(x, n) * w), [x])

    def test_backward_releases_the_graph(self):
        """Each node drops its parents and backward function once that
        ran, so a used graph is freed while its root is still held."""
        x = param(np.array([1.0, 2.0]))
        mid = x * 3.0
        loss = T.tsum(mid * mid)
        square = weakref.ref(loss._parents[0].data)
        loss.backward()
        np.testing.assert_allclose(x.grad, 18.0 * x.data)
        for node in (loss, mid):
            assert node._parents == () and node._backward_fn is None
        assert square() is None

    def test_grad_accumulates_on_reuse(self):
        """A tensor used twice receives the sum of both contributions."""
        x = param(np.array([2.0]))
        y = x * x + x * 3.0
        T.tsum(y).backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])


def _p(rng, *shape):
    return param(rng.normal(size=shape))


# per primitive, a graph ending in a node of it over fresh parameters
GRAPHS = {
    "add": lambda r: T.add(_p(r, 3), _p(r, 3)),
    "mul_tsum": lambda r: T.tsum(T.mul(_p(r, 3), _p(r, 3))),
    "matmul": lambda r: T.matmul(_p(r, 2, 3), _p(r, 3)),
    "tanh": lambda r: T.tanh(_p(r, 3)),
    "sigmoid": lambda r: T.sigmoid(_p(r, 3)),
    "relu": lambda r: T.relu(_p(r, 3)),
    "log": lambda r: T.log(param(np.full(3, 0.5))),
    "clip": lambda r: T.clip(_p(r, 3), -0.5, 0.5),
    "reshape": lambda r: T.reshape(_p(r, 2, 3), (3, 2)),
    "transpose": lambda r: T.transpose(_p(r, 2, 3)),
    "concat": lambda r: T.concat([_p(r, 2), _p(r, 3)]),
    "stack_rows": lambda r: stack_rows([_p(r, 3), _p(r, 3)]),
    "take_column": lambda r: T.take_column(_p(r, 2, 3), 1),
    "gather_rows": lambda r: T.gather_rows(_p(r, 4, 3), [0, 2, 2]),
    "pad_rows": lambda r: T.pad_rows(_p(r, 2, 3), 4),
    "softmax_rows": lambda r: T.softmax_rows(_p(r, 2, 3)),
    "cosine": lambda r: cosine(_p(r, 3), _p(r, 3)),
    "self_attention": lambda r: self_attention(_p(r, 4, 3)),
    "recurrent": lambda r: recurrent((rnn_cell(LSTMCell, r, 3, 2),),
                                     _p(r, 4, 3), None, (False,), "last"),
    "recurrent_bidirectional": lambda r: recurrent(
        (rnn_cell(GRUCell, r, 3, 2), rnn_cell(GRUCell, r, 3, 2)),
        _p(r, 2, 4, 3), [4, 2], (False, True), "last"),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_unused_graph_is_freed_by_reference_counting(name):
    """A graph that is never backpropagated holds no reference cycle, so
    dropping its root frees every array in it with the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        node = GRAPHS[name](np.random.default_rng(0))
        assert node._backward_fn is not None
        arrays, todo = [], [node]
        while todo:
            t = todo.pop()
            arrays.append(weakref.ref(t.data))
            todo.extend(t._parents)
        del node, t
        assert [ref() is None for ref in arrays] == [True] * len(arrays)
    finally:
        if enabled:
            gc.enable()
