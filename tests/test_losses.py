"""Loss functions, the optimizer, and parameter snapshots."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from conftest import (assert_fused_bits, composed_binary_ce, dense,
                      finite_diff_check, loss_hinge_qat, loss_hinge_qat_type,
                      param, rewrite_header)

from qakb.errors import EmptySequence, ParseError, ShapeMismatch
from qakb.nn.config import TrainConfig
from qakb import container
from qakb.nn.io import check_params, load_params, save_params
from qakb.nn.losses import (loss_binary_ce, loss_categorical_ce,
                            loss_hinge_qas)
from qakb.nn.optim import Adam, fit
from qakb.nn.tensor import Tensor, gather_rows, sigmoid, softmax_rows, tsum


class TestCategoricalCE:
    def test_confident_correct_near_zero(self):
        pred = Tensor(np.array([[0.001, 0.999]]))
        assert loss_categorical_ce(pred, [1]).item() == pytest.approx(
            -math.log(0.999), abs=1e-9
        )

    def test_hand_value_half(self):
        pred = Tensor(np.array([[0.5, 0.5]]))
        assert loss_categorical_ce(pred, [0]).item() == pytest.approx(
            math.log(2.0), abs=1e-9
        )

    def test_perfect_prediction_zero(self):
        pred = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert loss_categorical_ce(pred, [1, 0]).item() == pytest.approx(
            0.0, abs=1e-9
        )

    def test_averages_over_positions(self):
        pred = Tensor(np.array([[0.5, 0.5], [0.5, 0.5]]))
        one = loss_categorical_ce(Tensor(np.array([[0.5, 0.5]])), [1]).item()
        two = loss_categorical_ce(pred, [1, 0]).item()
        assert two == pytest.approx(one)

    def test_rejects_empty(self):
        with pytest.raises(EmptySequence):
            loss_categorical_ce(Tensor(np.zeros((0, 2))), [])

    def test_rejects_wrong_width(self):
        with pytest.raises(ShapeMismatch):
            loss_categorical_ce(Tensor(np.zeros((2, 3))), [0, 1])

    def test_gradcheck_through_softmax(self):
        rng = np.random.default_rng(3)
        logits = param(rng.normal(size=(4, 2)))
        gold = [1, 0, 1, 1]

        def loss():
            return loss_categorical_ce(softmax_rows(logits), gold)

        assert finite_diff_check(loss, [logits]) < 1e-4

    @pytest.mark.parametrize("lengths", [(4,), (2, 1, 3)])
    def test_lengths_sum_each_sequence_mean(self, lengths):
        rng = np.random.default_rng(5)
        logits = param(rng.normal(size=(sum(lengths), 2)))
        gold = [int(g) for g in rng.integers(0, 2, size=sum(lengths))]
        got = loss_categorical_ce(softmax_rows(logits), gold, lengths).item()
        probs, start, want = softmax_rows(logits), 0, 0.0
        for n in lengths:
            want += loss_categorical_ce(
                Tensor(probs.data[start:start + n]),
                gold[start:start + n]).item()
            start += n
        assert got == pytest.approx(want, rel=1e-12)
        assert finite_diff_check(
            lambda: loss_categorical_ce(softmax_rows(logits), gold, lengths),
            [logits]) < 1e-4

    def test_lengths_must_cover_rows_and_be_nonempty(self):
        pred = Tensor(np.full((3, 2), 0.5))
        with pytest.raises(ShapeMismatch):
            loss_categorical_ce(pred, [0, 1, 1], [1, 1])
        with pytest.raises(EmptySequence):
            loss_categorical_ce(pred, [0, 1, 1], [3, 0])

    @given(
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=8),
        st.data(),
    )
    def test_non_negative(self, probs, data):
        gold = [data.draw(st.sampled_from([0, 1])) for _ in probs]
        pred = Tensor(np.array([[1.0 - p, p] for p in probs]))
        assert loss_categorical_ce(pred, gold).item() >= 0.0


# probabilities inside the clamp's bounds, at them and past them
_PROBS = [0.3, 0.0, 1e-12, 1.0, 1e-13, 1.0 - 1e-12, -0.25, 1.25]


class TestBinaryCE:
    def test_confident_correct(self):
        assert loss_binary_ce(0.999, 1).item() == pytest.approx(0.001, abs=1e-3)

    def test_hand_value(self):
        assert loss_binary_ce(0.5, 0).item() == pytest.approx(
            math.log(2.0), abs=1e-9
        )

    def test_symmetric_forms(self):
        assert loss_binary_ce(0.3, 1).item() == pytest.approx(
            loss_binary_ce(0.7, 0).item()
        )

    def test_gradcheck(self):
        a = param(np.array(0.4))
        assert finite_diff_check(lambda: loss_binary_ce(a, 1), [a]) < 1e-4

    def test_bad_label(self):
        with pytest.raises(ValueError):
            loss_binary_ce(0.5, 2)
        with pytest.raises(ValueError):
            loss_binary_ce(np.array([0.5, 0.5]), [1, 2])
        for label in (0.5, -1):
            with pytest.raises(ValueError, match=r"label must be 0 or 1, "
                                                 rf"got {label}"):
                loss_binary_ce(0.5, label)
        with pytest.raises(ValueError, match=r"label must be 0 or 1, "
                                             r"got \[1, 0, 3, 1\]"):
            loss_binary_ce(np.full(4, 0.5), [1, 0, 3, 1])

    @pytest.mark.parametrize("labels", [[1], [0, 1, 1]])
    def test_vector_is_each_pair_loss(self, labels):
        rng = np.random.default_rng(len(labels))
        z = param(rng.normal(size=len(labels)))
        probs = sigmoid(z).data
        assert loss_binary_ce(probs, labels).data.tolist() == [
            loss_binary_ce(float(a), y).item() for a, y in zip(probs, labels)]
        assert finite_diff_check(
            lambda: tsum(loss_binary_ce(sigmoid(z), labels)), [z]) < 1e-4

    @pytest.mark.parametrize("label", [0, 1])
    def test_scalar_gradcheck(self, label):
        a = param(0.7)
        assert loss_binary_ce(a, label)._parents == (a,)
        assert finite_diff_check(lambda: loss_binary_ce(a, label), [a]) < 1e-4

    def test_vector_gradcheck(self):
        rng = np.random.default_rng(79)
        a = param([0.2, 0.65, 0.05, 0.9])
        labels, w = [1, 0, 0, 1], rng.normal(size=4)
        assert finite_diff_check(
            lambda: tsum(loss_binary_ce(a, labels) * w), [a]) < 1e-4

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("prob", _PROBS)
    def test_scalar_node_has_the_composed_ops_bits(self, prob, label):
        a = param(prob)
        assert_fused_bits(lambda: loss_binary_ce(a, label),
                          lambda: composed_binary_ce(a, label), [a])

    @pytest.mark.parametrize("prior", [False, True], ids=["new", "prior"])
    def test_vector_node_has_the_composed_ops_bits(self, prior):
        """Forward and gradient equal, bit for bit, those of the clip,
        log, product, sum and negation nodes the loss was made of, also
        added to a gradient the probabilities already hold."""
        rng = np.random.default_rng(83)
        a = param(_PROBS * 2)
        labels = [0] * len(_PROBS) + [1] * len(_PROBS)
        assert_fused_bits(lambda: loss_binary_ce(a, labels),
                          lambda: composed_binary_ce(a, labels), [a],
                          rng.normal(size=a.shape),
                          [rng.normal(size=a.shape)] if prior else None)

    def test_shape_must_match_labels(self):
        with pytest.raises(ShapeMismatch):
            loss_binary_ce(np.array([0.5, 0.5]), 1)
        with pytest.raises(ShapeMismatch):
            loss_binary_ce(np.array([0.5, 0.5]), [1, 0, 1])


class TestHinges:
    def test_boundary_exact_zero(self):
        # dyadic values, so the float arithmetic is exact at the boundary
        assert loss_hinge_qas(0.75, 0.25, 0.5).item() == 0.0

    def test_margin_satisfied(self):
        assert loss_hinge_qas(0.9, 0.2, 0.5).item() == pytest.approx(0.0, abs=1e-12)

    def test_margin_violated(self):
        assert loss_hinge_qas(0.3, 0.2, 0.5).item() == pytest.approx(0.4)

    def test_two_channel_single_violation(self):
        got = loss_hinge_qat(0.9, 0.1, 0.5, 0.45, 0.15)
        assert got.item() == pytest.approx(0.1)

    def test_three_channel_type_violation(self):
        got = loss_hinge_qat_type(0.9, 0.1, 0.9, 0.1, 0.4, 0.5, 0.1)
        assert got.item() == pytest.approx(0.2)

    def test_all_satisfied_zero(self):
        assert loss_hinge_qat_type(1, 0, 1, 0, 1, 0, 0.5).item() == 0.0

    @given(
        st.floats(-1, 1), st.floats(-1, 1),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_zero_iff_margin_met(self, pos, neg, gamma):
        """Loss vanishes exactly when pos - neg >= gamma."""
        value = loss_hinge_qas(pos, neg, gamma).item()
        assert value >= 0.0
        if pos - neg >= gamma:
            assert value == pytest.approx(0.0, abs=1e-12)
        else:
            assert value > 0.0

    def test_gradient_sign_structure(self):
        """Active hinge pushes the positive score up, the negative down."""
        pos, neg = param(np.array(0.3)), param(np.array(0.2))
        loss_hinge_qas(pos, neg, 0.5).backward()
        assert pos.grad == pytest.approx(-1.0)
        assert neg.grad == pytest.approx(1.0)

    def test_inactive_hinge_zero_gradient(self):
        pos, neg = param(np.array(0.9)), param(np.array(0.1))
        loss_hinge_qas(pos, neg, 0.5).backward()
        assert pos.grad == pytest.approx(0.0)
        assert neg.grad == pytest.approx(0.0)


class _PerParameterAdam:
    """Adam as one update per parameter, each on fresh arrays: the rule
    whose bits the flat buffer keeps."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = dict(sorted(params.items()))
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _gather_grad(shape, gathers):
    """The gradient that gathers of ``(rows, out_grad)`` give a table, as
    a dense rule makes it: each gather's rows summed by ``np.add.at`` into
    a zero array, the first kept as that array + 0.0, each later added."""
    grad = None
    for rows, out_grad in gathers:
        part = np.zeros(shape)
        np.add.at(part, rows, out_grad)
        grad = part + 0.0 if grad is None else grad + part
    return grad


def _flat_moments(opt):
    """Each parameter's first and second moments, read from the flat
    arrays in which they sit side by side in name order."""
    out, offset = {}, 0
    for name, p in opt.params.items():
        sl = slice(offset, offset + p.data.size)
        out[name] = (opt.m[sl].reshape(p.shape), opt.v[sl].reshape(p.shape))
        offset = sl.stop
    return out


class TestAdam:
    def test_flat_buffer_matches_per_parameter_loop(self):
        """Bit for bit, over steps where every parameter has a gradient
        and steps where some have none (whose values and moments hold
        still), with gradients holding -0.0."""
        rng = np.random.default_rng(71)
        shapes = {"c.matrix": (3, 4), "a.scalar": (), "b.vector": (5,)}
        init = {k: rng.normal(size=s) for k, s in shapes.items()}
        flat = {k: param(a) for k, a in init.items()}
        oracle = {k: param(a) for k, a in init.items()}
        opt, ref = Adam(flat, lr=0.05), _PerParameterAdam(oracle, lr=0.05)
        paths = set()
        for step in range(20):
            gradless = ({k for k in shapes if rng.random() < 0.3}
                        if step >= 3 else set())
            paths.add(bool(gradless))
            for k, shape in shapes.items():
                g = np.where(rng.random(shape) < 0.25, -0.0,
                             rng.normal(size=shape))
                if k in gradless:
                    g = None
                elif not shape:  # a numpy scalar, as 0-d backwards give
                    g = g[()]
                flat[k].grad = oracle[k].grad = g
            before = {k: (flat[k].data.copy(), *map(np.copy, moments))
                      for k, moments in _flat_moments(opt).items()}
            opt.step()
            ref.step()
            for k, (m, v) in _flat_moments(opt).items():
                np.testing.assert_array_equal(_bits(flat[k].data),
                                              _bits(oracle[k].data))
                np.testing.assert_array_equal(_bits(m), _bits(ref.m[k]))
                np.testing.assert_array_equal(_bits(v), _bits(ref.v[k]))
                if k in gradless:
                    for now, then in zip((flat[k].data, m, v), before[k]):
                        np.testing.assert_array_equal(_bits(now),
                                                      _bits(then))
        assert paths == {False, True}

    def test_partly_live_table_matches_per_parameter_loop(self):
        """A [V, d] table read through gather_rows, bit for bit over 24
        steps, beside a dense parameter whose gradients hold -0.0.  Row 0
        is gathered in the first step only, so while most rows are not
        yet live it moves on its moments alone; gathers repeat rows, some
        steps gather twice and some not at all (the table keeps its value
        and moments), and the last steps make every row live.  The
        table's gradient has the bits of the dense rule."""
        rng = np.random.default_rng(79)
        V, d = 40, 3
        init = {"a.table": rng.normal(size=(V, d)),
                "b.bias": rng.normal(size=(d,))}
        flat = {k: param(a) for k, a in init.items()}
        oracle = {k: param(a) for k, a in init.items()}
        opt, ref = Adam(flat, lr=0.05), _PerParameterAdam(oracle, lr=0.05)
        table, bias = flat["a.table"], flat["b.bias"]
        plan = [[[0, 5, 5]]]
        for step in range(1, 24):
            if step in (4, 9, 13):
                plan.append([])
            elif step >= 20:
                plan.append([list(range(V)) + [7, 7]])
            else:
                plan.append([list(rng.choice(np.arange(1, V), size=3)) + [1]
                             for _ in range(2 if step % 5 == 2 else 1)])
        live, partly_live_without_row_0 = set(), False
        for gathers in plan:
            reached = {r for rows in gathers for r in rows}
            partly_live_without_row_0 |= (
                0 in live and 0 not in reached
                and 2 * len(live | reached) < V)
            live |= reached
        assert partly_live_without_row_0 and live == set(range(V))
        assert any(len(g) == 2 for g in plan) and [] in plan
        for gathers in plan:
            opt.zero_grad()
            ws = [np.where(rng.random((len(rows), d)) < 0.25, -0.0,
                           rng.normal(size=(len(rows), d)))
                  for rows in gathers]
            if gathers:
                loss = tsum(gather_rows(table, gathers[0]) * ws[0])
                for rows, w in zip(gathers[1:], ws[1:]):
                    loss = loss + tsum(gather_rows(table, rows) * w)
                loss.backward()
            want = _gather_grad((V, d), list(zip(gathers, ws)))
            if want is None:
                assert table.grad is None
            else:
                np.testing.assert_array_equal(_bits(table.grad), _bits(want))
            oracle["a.table"].grad = want
            bias.grad = oracle["b.bias"].grad = np.where(
                rng.random(d) < 0.3, -0.0, rng.normal(size=d))
            opt.step()
            ref.step()
            for k, (m, v) in _flat_moments(opt).items():
                np.testing.assert_array_equal(_bits(flat[k].data),
                                              _bits(oracle[k].data))
                np.testing.assert_array_equal(_bits(m), _bits(ref.m[k]))
                np.testing.assert_array_equal(_bits(v), _bits(ref.v[k]))

    def test_step_on_a_large_table_allocates_for_its_live_rows(self):
        """One step on a 200,000 x 8 table that a gather reached in 3 rows
        allocates under 1 MB: nothing the size of the table (a whole
        gradient copy or full-size temporaries would be 25 MB)."""
        table = param(np.zeros((200_000, 8)))
        opt = Adam({"t": table}, lr=0.1)
        tsum(gather_rows(table, [3, 70_000, 3])).backward()
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        moved = np.flatnonzero(table.data.any(axis=1))
        assert moved.tolist() == [3, 70_000]

    def test_rejects_one_tensor_under_two_keys(self):
        w = param(np.zeros(2))
        with pytest.raises(ValueError, match="'a.w' and 'b.w'"):
            Adam({"b.w": w, "c": param(np.zeros(1)), "a.w": w})

    def test_fit_leaves_every_value_in_one_buffer(self):
        """After training each parameter's value is a C-contiguous view
        into one buffer, and a gradient check still nudges live values."""
        rng = np.random.default_rng(73)
        layer = dense(rng, 3, 2)
        params = layer.parameters()
        x = Tensor(rng.normal(size=(3,)))

        def loss():
            return tsum(layer(x) * layer(x))

        fit(params, 3, lambda batch: (loss(), 1),
            TrainConfig(epochs=2, batch_size=1), rng, "test")
        (buffer,) = {id(p.data.base): p.data.base
                     for p in params.values()}.values()
        assert buffer.size == sum(p.data.size for p in params.values())
        for p in params.values():
            assert p.data.flags.c_contiguous
            assert np.shares_memory(p.data, buffer)
        assert finite_diff_check(loss, list(params.values())) < 1e-4

    def test_quadratic_descent_monotone(self):
        w = param(np.array(1.0))
        opt = Adam({"w": w})
        values = []
        for _ in range(50):
            opt.zero_grad()
            loss = w * w
            loss.backward()
            opt.step()
            values.append(abs(float(w.data)))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_default_hyperparameters(self):
        opt = Adam({"w": param(np.zeros(1))})
        assert opt.lr == 0.001
        assert (opt.beta1, opt.beta2) == (0.9, 0.999)
        assert opt.eps == 1e-8

    def test_seeded_determinism(self):
        """Identical seeds give bit-identical parameter trajectories."""

        def run():
            rng = np.random.default_rng(123)
            layer = dense(rng, 3, 2)
            opt = Adam(layer.parameters(), lr=0.01)
            x = Tensor(rng.normal(size=(3,)))
            for _ in range(5):
                opt.zero_grad()
                tsum(layer(x) * layer(x)).backward()
                opt.step()
            return {k: p.data.copy() for k, p in layer.parameters().items()}

        a, b = run(), run()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_skips_gradless_params(self):
        w, unused = param(np.array(1.0)), param(np.array(5.0))
        opt = Adam({"w": w, "unused": unused}, lr=0.1)
        opt.zero_grad()
        (w * w).backward()
        opt.step()
        assert float(unused.data) == 5.0


class TestFit:
    def test_batches_steps_and_curve(self):
        """One permutation per epoch, walked in batch_size slices; a batch
        with no usable example takes no step; the curve averages over the
        examples actually counted."""
        w = param(np.array(2.0))
        seen, weights, sums, counts = [], [], [], []

        def batch_loss(batch):
            seen.append([int(i) for i in batch])
            if 0 in batch:
                return None, 0
            losses = [w * float(i) for i in batch]
            weights.append(float(w.data))
            sums.append(sum(float(loss.data) for loss in losses))
            counts.append(len(losses))
            return sum(losses[1:], losses[0]), len(losses)

        cfg = TrainConfig(epochs=2, batch_size=2, learning_rate=0.1, seed=5)
        curve = fit({"w": w}, 5, batch_loss, cfg,
                    np.random.default_rng(5), "test")
        rng = np.random.default_rng(5)
        orders = [list(rng.permutation(5)) for _ in range(2)]
        assert seen == [o[s:s + 2] for o in orders for s in (0, 2, 4)]
        # each epoch skips the batch holding example 0; the other two step
        assert len(set(weights + [float(w.data)])) == 5
        for epoch in range(2):
            mine = slice(2 * epoch, 2 * epoch + 2)
            assert curve[epoch] == sum(sums[mine]) / sum(counts[mine])

    def test_no_losses_at_all(self):
        w = param(np.array(1.0))
        cfg = TrainConfig(epochs=3, batch_size=4)
        curve = fit({"w": w}, 6, lambda batch: (None, 0), cfg,
                    np.random.default_rng(0), "test")
        assert curve == [0.0, 0.0, 0.0]
        assert float(w.data) == 1.0


def restore_params(params, loaded):
    """Copy a loaded table into live tensors: :func:`check_params`
    against their shapes, then each array into its tensor."""
    check_params({name: t.data.shape for name, t in params.items()}, loaded)
    for name, tensor in params.items():
        tensor.data[...] = loaded[name]


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        params = {
            "layer.weight": param(rng.normal(size=(3, 4))),
            "layer.bias": param(rng.normal(size=(3,))),
            "scalar": param(np.array(2.5)),
        }
        path = str(tmp_path / "model.bin")
        save_params(params, path)
        loaded = load_params(path)
        assert set(loaded) == set(params)
        for k in params:
            assert loaded[k].shape == params[k].data.shape
            np.testing.assert_array_equal(loaded[k], params[k].data)

    def test_restore_into_model(self, tmp_path):
        rng = np.random.default_rng(7)
        layer = dense(rng, 3, 2, name="d")
        path = str(tmp_path / "model.bin")
        save_params(layer.parameters(), path)
        other = dense(np.random.default_rng(99), 3, 2, name="d")
        restore_params(other.parameters(), load_params(path))
        np.testing.assert_array_equal(other.weight.data, layer.weight.data)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "model.bin")
        save_params({"w": param(np.zeros((2, 2)))}, path)
        with pytest.raises(ShapeMismatch):
            restore_params({"w": param(np.zeros(3))}, load_params(path))

    def test_missing_param_rejected(self, tmp_path):
        path = str(tmp_path / "model.bin")
        save_params({"w": param(np.zeros(2))}, path)
        with pytest.raises(ShapeMismatch):
            restore_params(
                {"w": param(np.zeros(2)), "extra": param(np.zeros(1))},
                load_params(path),
            )

    def test_unexpected_param_rejected(self, tmp_path):
        path = str(tmp_path / "model.bin")
        save_params({"w": param(np.zeros(2)), "extra": param(np.zeros(1))},
                    path)
        with pytest.raises(ShapeMismatch, match="extra"):
            restore_params({"w": param(np.zeros(2))}, load_params(path))

    def test_repeated_name_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_params({"a": param(np.zeros(1))}, str(path))
        rewrite_header(path, b'{"arrays":{"a":["<f8",[1],0],'
                             b'"a":["<f8",[1],0]},"fields":{}}')
        with pytest.raises(ParseError, match="'a'"):
            load_params(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONG")
        with pytest.raises(ParseError):
            load_params(str(path))

    def test_writes_each_arrays_bytes(self, tmp_path):
        """Each entry's data is its array's ``tobytes()``: for 0-d, 1-d and
        2-d parameters, views into an optimizer's buffer and arrays that
        are not contiguous."""
        rng = np.random.default_rng(11)
        held = {"b.vector": param(rng.normal(size=4)),
                "c.matrix": param(rng.normal(size=(2, 3)))}
        Adam(held)
        params = {"a.scalar": param(np.array(-0.0)), **held,
                  "d.transposed": Tensor(rng.normal(size=(3, 4)).T),
                  "e.strided": Tensor(rng.normal(size=(6, 2))[::2])}
        assert held["c.matrix"].data.base is not None
        assert not params["d.transposed"].data.flags.c_contiguous
        assert not params["e.strided"].data.flags.c_contiguous
        path = tmp_path / "model.bin"
        save_params(params, str(path))
        fields, arrays = container.read(str(path), container.MODEL)
        assert fields == {} and list(arrays) == sorted(params)
        for name, arr in arrays.items():
            data = params[name].data
            assert arr.shape == data.shape
            assert arr.tobytes() == data.tobytes()

    def test_byte_stability(self, tmp_path):
        params = {"w": param(np.arange(6.0).reshape(2, 3))}
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_params(params, a)
        save_params(params, b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

