"""Autodiff primitives: forward values and finite-difference gradients."""

import gc
import threading
import weakref

import numpy as np
import pytest

from qakb.errors import ShapeMismatch
from qakb.nn.gradcheck import finite_diff_check
from qakb.nn import (GRUCell, LSTMCell, bidirectional_encode, cosine,
                     run_recurrent, self_attention)
from qakb.nn import tensor as T


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
        t = T.param(np.ones(3))
        with pytest.raises(ShapeMismatch):
            (t * 2.0).backward()


def _check(build, params, tol=1e-4):
    assert finite_diff_check(build, params) < tol


class TestGradients:
    """Every primitive against central finite differences."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_add_mul_div(self):
        a = T.param(self.rng.normal(size=(3, 4)))
        b = T.param(self.rng.normal(size=(4,)) + 3.0)
        _check(lambda: T.tsum(a * b + a / b - b), [a, b])

    def test_matmul_all_shapes(self):
        m = T.param(self.rng.normal(size=(3, 4)))
        n = T.param(self.rng.normal(size=(4, 2)))
        v = T.param(self.rng.normal(size=(4,)))
        _check(lambda: T.tsum(m @ n), [m, n])
        _check(lambda: T.tsum(m @ v), [m, v])
        _check(lambda: T.tsum(v @ n), [v, n])
        _check(lambda: v @ v, [v])

    def test_nonlinearities(self):
        x = T.param(self.rng.normal(size=(6,)))
        _check(lambda: T.tsum(T.tanh(x)), [x])
        _check(lambda: T.tsum(T.sigmoid(x)), [x])

    def test_relu_off_kink(self):
        x = T.param(np.array([-0.9, -0.3, 0.4, 1.2]))
        _check(lambda: T.tsum(T.relu(x)), [x])

    def test_log_positive(self):
        x = T.param(np.abs(self.rng.normal(size=(5,))) + 0.5)
        _check(lambda: T.tsum(T.log(x)), [x])

    def test_clip_inside_range(self):
        x = T.param(np.array([0.2, 0.5, 0.8]))
        _check(lambda: T.tsum(T.clip(x, 0.0, 1.0)), [x])

    def test_softmax_rows(self):
        x = T.param(self.rng.normal(size=(4, 5)))
        w = T.Tensor(self.rng.normal(size=(4, 5)))
        _check(lambda: T.tsum(T.softmax_rows(x) * w), [x])

    def test_reductions_and_shaping(self):
        x = T.param(self.rng.normal(size=(3, 4)))
        _check(lambda: T.tsum(T.tsum(x, axis=1) * 2.0), [x])
        _check(lambda: T.tsum(T.reshape(x, (2, 6))), [x])
        _check(lambda: T.tsum(T.transpose(x) @ x), [x])

    def test_row_column_ops(self):
        x = T.param(self.rng.normal(size=(4, 3)))
        _check(lambda: T.tsum(T.gather_rows(x, 2)), [x])
        _check(lambda: T.tsum(T.take_column(x, 1)), [x])

    def test_concat_and_stack(self):
        a = T.param(self.rng.normal(size=(2, 3)))
        b = T.param(self.rng.normal(size=(2, 3)))
        _check(lambda: T.tsum(T.concat([a, b], axis=0)), [a, b])
        _check(lambda: T.tsum(T.concat([a, b], axis=1) * 0.5), [a, b])
        u = T.param(self.rng.normal(size=(3,)))
        v = T.param(self.rng.normal(size=(3,)))
        _check(lambda: T.tsum(T.stack_rows([u, v]) * 2.0), [u, v])

    def test_gather_rows_with_duplicates(self):
        """Duplicate indices must accumulate their gradients."""
        table = T.param(self.rng.normal(size=(5, 3)))
        _check(lambda: T.tsum(T.gather_rows(table, [1, 3, 1])), [table])

    def test_gather_rows_by_index_matrix(self):
        """A [B, T] index array gives [B, T, d] rows; repeats accumulate."""
        table = T.param(self.rng.normal(size=(5, 3)))
        w = self.rng.normal(size=(2, 3, 3))
        idx = np.array([[4, 0, 4], [1, 1, 2]])
        np.testing.assert_array_equal(T.gather_rows(table, idx).data,
                                      table.data[idx])
        _check(lambda: T.tsum(T.gather_rows(table, idx) * w), [table])

    def test_gather_rows_by_index_tuple(self):
        """A tuple of index arrays picks entries of the leading axes
        together; repeats accumulate."""
        table = T.param(self.rng.normal(size=(3, 4, 2)))
        w = self.rng.normal(size=(4, 2))
        idx = ([0, 2, 2, 1], [3, 0, 0, 1])
        np.testing.assert_array_equal(T.gather_rows(table, idx).data,
                                      table.data[idx])
        _check(lambda: T.tsum(T.gather_rows(table, idx) * w), [table])

    @pytest.mark.parametrize("shape, n", [((4, 3), 6), ((4, 3), 2),
                                          ((2, 4, 3), 6), ((2, 4, 3), 3)])
    def test_pad_rows(self, shape, n):
        x = T.param(self.rng.normal(size=shape))
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
        x = T.param(np.array([1.0, 2.0]))
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
        x = T.param(np.array([2.0]))
        y = x * x + x * 3.0
        T.tsum(y).backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])


def _p(rng, *shape):
    return T.param(rng.normal(size=shape))


# per primitive, a graph ending in a node of it over fresh parameters
GRAPHS = {
    "add": lambda r: T.add(_p(r, 3), _p(r, 3)),
    "mul_tsum": lambda r: T.tsum(T.mul(_p(r, 3), _p(r, 3))),
    "div": lambda r: T.div(_p(r, 3), _p(r, 3)),
    "matmul": lambda r: T.matmul(_p(r, 2, 3), _p(r, 3)),
    "tanh": lambda r: T.tanh(_p(r, 3)),
    "sigmoid": lambda r: T.sigmoid(_p(r, 3)),
    "relu": lambda r: T.relu(_p(r, 3)),
    "log": lambda r: T.log(T.param(np.full(3, 0.5))),
    "clip": lambda r: T.clip(_p(r, 3), -0.5, 0.5),
    "reshape": lambda r: T.reshape(_p(r, 2, 3), (3, 2)),
    "transpose": lambda r: T.transpose(_p(r, 2, 3)),
    "concat": lambda r: T.concat([_p(r, 2), _p(r, 3)]),
    "stack_rows": lambda r: T.stack_rows([_p(r, 3), _p(r, 3)]),
    "take_column": lambda r: T.take_column(_p(r, 2, 3), 1),
    "gather_rows": lambda r: T.gather_rows(_p(r, 4, 3), [0, 2, 2]),
    "pad_rows": lambda r: T.pad_rows(_p(r, 2, 3), 4),
    "softmax_rows": lambda r: T.softmax_rows(_p(r, 2, 3)),
    "cosine": lambda r: cosine(_p(r, 3), _p(r, 3)),
    "self_attention": lambda r: self_attention(_p(r, 4, 3)),
    "run_recurrent": lambda r: run_recurrent(LSTMCell(3, 2, r),
                                             _p(r, 4, 3))[1],
    "bidirectional_encode": lambda r: bidirectional_encode(
        GRUCell(3, 2, r), GRUCell(3, 2, r), _p(r, 2, 4, 3), [4, 2])[1],
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


class TestNoGrad:
    @staticmethod
    def _tracked(w):
        """True when an op on ``w`` records a graph node."""
        out = T.tanh(w * 2.0)
        return out.requires_grad and out._backward_fn is not None

    def test_nodes_inside_record_no_graph(self):
        w = T.param(np.ones(3))
        with T.no_grad():
            out = T.tsum(T.tanh(w @ T.param(np.ones((3, 2)))))
        assert out._parents == ()
        assert out._backward_fn is None
        assert not out.requires_grad

    def test_values_match_graph_mode(self):
        rng = np.random.default_rng(4)
        w = T.param(rng.normal(size=(4, 3)))
        x = T.Tensor(rng.normal(size=3))
        with T.no_grad():
            quiet = T.softmax_rows(T.reshape(T.sigmoid(w @ x), (1, 4)))
        loud = T.softmax_rows(T.reshape(T.sigmoid(w @ x), (1, 4)))
        assert np.array_equal(quiet.data, loud.data)

    def test_restored_after_normal_exit(self):
        w = T.param(np.ones(2))
        with T.no_grad():
            assert not self._tracked(w)
        assert self._tracked(w)

    def test_restored_after_exception(self):
        w = T.param(np.ones(2))
        with pytest.raises(ShapeMismatch):
            with T.no_grad():
                T.matmul(w, T.param(np.ones((3, 3))))
        assert self._tracked(w)

    def test_nesting(self):
        w = T.param(np.ones(2))
        with T.no_grad():
            with T.no_grad():
                assert not self._tracked(w)
            assert not self._tracked(w)
        assert self._tracked(w)

    def test_other_thread_keeps_building_graphs(self):
        w = T.param(np.ones(2))
        inside, checked = threading.Event(), threading.Event()
        seen = []

        def worker():
            assert inside.wait(timeout=10)
            seen.append(self._tracked(w))
            checked.set()

        thread = threading.Thread(target=worker)
        thread.start()
        with T.no_grad():
            inside.set()
            assert checked.wait(timeout=10)
            assert not self._tracked(w)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [True]

    def test_gradcheck_after_no_grad_block(self):
        rng = np.random.default_rng(2)
        w = T.param(rng.normal(size=(3, 4)))
        x = T.Tensor(rng.normal(size=4))
        with T.no_grad():
            T.tsum(T.tanh(w @ x))
        err = finite_diff_check(lambda: T.tsum(T.tanh(w @ x)), [w])
        assert err < 1e-6
