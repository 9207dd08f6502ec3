"""Loss functions, the optimizer, and parameter snapshots."""

import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qakb.errors import EmptySequence, ParseError, ShapeMismatch
from qakb.nn import (
    Adam,
    Dense,
    TrainConfig,
    finite_diff_check,
    fit,
    load_params,
    loss_binary_ce,
    loss_categorical_ce,
    loss_hinge_qas,
    loss_hinge_qat,
    loss_hinge_qat_type,
    restore_params,
    save_params,
)
from qakb.nn.io import MODEL_MAGIC
from qakb.nn.tensor import Tensor, param, softmax_rows, tsum


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

    @given(
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=8),
        st.data(),
    )
    def test_non_negative(self, probs, data):
        gold = [data.draw(st.sampled_from([0, 1])) for _ in probs]
        pred = Tensor(np.array([[1.0 - p, p] for p in probs]))
        assert loss_categorical_ce(pred, gold).item() >= 0.0


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


class TestAdam:
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
            layer = Dense(3, 2, rng)
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
        layer = Dense(3, 2, rng, name="d")
        path = str(tmp_path / "model.bin")
        save_params(layer.parameters(), path)
        other = Dense(3, 2, np.random.default_rng(99), name="d")
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
        entry = (struct.pack("<H", 1) + b"a" + struct.pack("<BI", 1, 1)
                 + np.zeros(1).tobytes())
        path = tmp_path / "model.bin"
        path.write_bytes(MODEL_MAGIC + struct.pack("<I", 2) + entry * 2)
        with pytest.raises(ParseError, match="'a'"):
            load_params(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONG")
        with pytest.raises(ParseError):
            load_params(str(path))

    def test_byte_stability(self, tmp_path):
        params = {"w": param(np.arange(6.0).reshape(2, 3))}
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_params(params, a)
        save_params(params, b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

