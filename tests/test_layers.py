"""Layer behaviour: embeddings, recurrent cells, attention, dropout, cosine."""

import math

import numpy as np
import pytest

from qakb.errors import ShapeMismatch
from qakb.nn import (
    Adam,
    Dense,
    EmbeddingTable,
    GRUCell,
    LSTMCell,
    OOV_TOKEN,
    bidirectional_encode,
    cosine,
    dropout,
    finite_diff_check,
    restore_params,
    run_recurrent,
    self_attention,
)
from qakb.nn.tensor import (
    Tensor,
    concat,
    gather_rows,
    matmul,
    mul,
    no_grad,
    param,
    sigmoid,
    stack_rows,
    tanh,
    transpose,
    tsum,
    zeros,
)


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestEmbedding:
    def setup_method(self):
        self.rng = np.random.default_rng(3)
        self.table = EmbeddingTable.random(["red", "green"], 4, self.rng)

    def test_known_token_exact_row(self):
        idx = self.table.vocab["green"]
        got = self.table.embed(["green"])
        np.testing.assert_allclose(got.data[0], self.table.vectors.data[idx])

    def test_unknown_maps_to_oov(self):
        got = self.table.embed(["xyzzy"])
        np.testing.assert_allclose(
            got.data[0], self.table.vectors.data[self.table.oov_index]
        )

    def test_empty_sequence(self):
        assert self.table.embed([]).shape == (0, 4)

    def test_oov_always_present(self):
        assert OOV_TOKEN in self.table.vocab

    def test_gradients_flow_to_rows(self):
        loss = tsum(self.table.embed(["red", "red"]))
        loss.backward()
        grad = self.table.vectors.grad
        np.testing.assert_allclose(grad[self.table.vocab["red"]], 2.0)


class TestDense:
    def test_vector_and_matrix_inputs_agree(self):
        rng = np.random.default_rng(5)
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(4, 3))
        batched = layer(Tensor(x)).data
        single = np.stack([layer(Tensor(x[i])).data for i in range(4)])
        np.testing.assert_allclose(batched, single, atol=1e-12)

    def test_relu_activation(self):
        rng = np.random.default_rng(5)
        layer = Dense(3, 2, rng, activation="relu")
        out = layer(Tensor(np.array([5.0, -5.0, 0.1])))
        assert (out.data >= 0).all()

    def test_dim_mismatch(self):
        layer = Dense(3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            layer(Tensor(np.ones(4)))

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        layer = Dense(4, 5, rng)
        x = Tensor(rng.normal(size=(4,)))
        params = list(layer.parameters().values())
        assert finite_diff_check(lambda: tsum(layer(x)), params) < 1e-4


class TestGRU:
    def test_zero_weights_zero_input_zero_states(self):
        cell = GRUCell(2, 3, np.random.default_rng(0))
        for t in cell._p.values():
            t.data[...] = 0.0
        states, last = run_recurrent(cell, Tensor(np.zeros((4, 2))))
        np.testing.assert_allclose(states.data, 0.0)
        np.testing.assert_allclose(last.data, 0.0)

    def test_scalar_hand_oracle(self):
        """One step with 1-d weights against the gate equations by hand."""
        cell = GRUCell(1, 1, np.random.default_rng(0))
        w = {
            "W_z": 0.3, "U_z": -0.2, "b_z": 0.1,
            "W_r": 0.5, "U_r": 0.4, "b_r": -0.3,
            "W_n": 0.7, "U_n": 0.6, "b_n": -0.1,
        }
        for k, v in w.items():
            cell._p[k].data[...] = v
        x = 1.0
        z = _sigmoid(w["W_z"] * x + w["b_z"])
        r = _sigmoid(w["W_r"] * x + w["b_r"])
        n = math.tanh(w["W_n"] * x + r * (w["U_n"] * 0.0) + w["b_n"])
        expected = (1.0 - z) * n
        _, last = run_recurrent(cell, Tensor(np.array([[x]])))
        np.testing.assert_allclose(last.data, [expected], atol=1e-12)

    def test_backward_direction_is_reversed_forward(self):
        rng = np.random.default_rng(11)
        cell = GRUCell(3, 4, rng)
        x = rng.normal(size=(5, 3))
        bwd, last_b = run_recurrent(cell, Tensor(x), "backward")
        fwd_rev, last_f = run_recurrent(cell, Tensor(x[::-1].copy()), "forward")
        np.testing.assert_allclose(bwd.data, fwd_rev.data[::-1], atol=1e-12)
        np.testing.assert_allclose(last_b.data, last_f.data, atol=1e-12)

    def test_empty_sequence_zero_last(self):
        cell = GRUCell(2, 3, np.random.default_rng(0))
        states, last = run_recurrent(cell, Tensor(np.zeros((0, 2))))
        assert states.shape == (0, 3)
        np.testing.assert_allclose(last.data, 0.0)

    def test_gradcheck_through_time(self):
        rng = np.random.default_rng(13)
        cell = GRUCell(2, 3, rng)
        x = Tensor(rng.normal(size=(4, 2)))

        def loss():
            _, last = run_recurrent(cell, x)
            return tsum(last * last)

        assert finite_diff_check(loss, list(cell.parameters().values())) < 1e-4


class TestLSTM:
    def test_scalar_hand_oracle(self):
        cell = LSTMCell(1, 1, np.random.default_rng(0))
        w = {
            "W_i": 0.3, "U_i": 0.2, "b_i": -0.1,
            "W_f": -0.5, "U_f": 0.4, "b_f": 0.3,
            "W_g": 0.7, "U_g": -0.6, "b_g": 0.1,
            "W_o": 0.2, "U_o": 0.1, "b_o": 0.0,
        }
        for k, v in w.items():
            cell._p[k].data[...] = v
        x = 0.8
        i = _sigmoid(w["W_i"] * x + w["b_i"])
        g = math.tanh(w["W_g"] * x + w["b_g"])
        o = _sigmoid(w["W_o"] * x + w["b_o"])
        c1 = i * g
        expected = o * math.tanh(c1)
        _, last = run_recurrent(cell, Tensor(np.array([[x]])))
        np.testing.assert_allclose(last.data, [expected], atol=1e-12)

    def test_gradcheck_through_time(self):
        rng = np.random.default_rng(17)
        cell = LSTMCell(2, 2, rng)
        x = Tensor(rng.normal(size=(3, 2)))

        def loss():
            states, _ = run_recurrent(cell, x)
            return tsum(states)

        assert finite_diff_check(loss, list(cell.parameters().values())) < 1e-4


def _oracle_gru_step(p, xw, state):
    (h,) = state
    z = sigmoid(xw["z"] + matmul(p["U_z"], h) + p["b_z"])
    r = sigmoid(xw["r"] + matmul(p["U_r"], h) + p["b_r"])
    n = tanh(xw["n"] + mul(r, matmul(p["U_n"], h)) + p["b_n"])
    return ((1.0 - z) * n + z * h,)


def _oracle_lstm_step(p, xw, state):
    h, c = state
    i = sigmoid(xw["i"] + matmul(p["U_i"], h) + p["b_i"])
    f = sigmoid(xw["f"] + matmul(p["U_f"], h) + p["b_f"])
    g = tanh(xw["g"] + matmul(p["U_g"], h) + p["b_g"])
    o = sigmoid(xw["o"] + matmul(p["U_o"], h) + p["b_o"])
    c_new = f * c + i * g
    return o * tanh(c_new), c_new


def _oracle_run(cell, inputs, direction):
    """The per-timestep graph of tensor primitives that the fused sequence
    op replaces: one node per gate product, sum and nonlinearity.  The
    input projections ``x @ W.T`` of all gates and timesteps are one
    product, as in the fused op, so the forward compares bit for bit."""
    step = _oracle_gru_step if isinstance(cell, GRUCell) else _oracle_lstm_step
    T, H = inputs.shape[0], cell.hidden_dim
    order = range(T) if direction == "forward" else range(T - 1, -1, -1)
    stacked = transpose(matmul(inputs, concat(
        [transpose(cell._p[f"W_{g}"]) for g in cell.gates], axis=1)))
    proj = {g: transpose(gather_rows(stacked, range(k * H, (k + 1) * H)))
            for k, g in enumerate(cell.gates)}
    state = tuple(zeros((cell.hidden_dim,)) for _ in cell.state_parts)
    outputs = {}
    for t in order:
        xw_t = {g: gather_rows(xw, t) for g, xw in proj.items()}
        state = step(cell._p, xw_t, state)
        outputs[t] = state[0]
    return stack_rows([outputs[t] for t in range(T)]), outputs[order[-1]]


FUSED_CASES = [(cell, direction, T)
               for cell in (GRUCell, LSTMCell)
               for direction in ("forward", "backward")
               for T in (1, 2, 5)]


def _case(cell_cls, T, x_grad, seed=47):
    rng = np.random.default_rng(seed + T)
    cell = cell_cls(3, 4, rng)
    for p in cell.parameters().values():  # nonzero biases exercise db
        p.data += rng.normal(scale=0.3, size=p.shape)
    x = rng.normal(size=(T, 3))
    x = param(x) if x_grad else Tensor(x)
    w = rng.normal(size=(T, 4))
    v = rng.normal(size=4)
    return cell, x, w, v


class TestFusedRecurrent:
    """``run_recurrent`` as one graph node per sequence, against the
    per-step graph it replaced."""

    @pytest.mark.parametrize("cell_cls,direction,T", FUSED_CASES)
    def test_forward_bit_identical_to_per_step_oracle(self, cell_cls,
                                                      direction, T):
        cell, x, _, _ = _case(cell_cls, T, x_grad=True)
        states, last = run_recurrent(cell, x, direction)
        o_states, o_last = _oracle_run(cell, x, direction)
        np.testing.assert_array_equal(states.data, o_states.data)
        np.testing.assert_array_equal(last.data, o_last.data)

    @pytest.mark.parametrize("cell_cls,direction,T", FUSED_CASES)
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_gradients_match_per_step_oracle(self, cell_cls, direction, T,
                                             x_grad):
        cell, x, w, v = _case(cell_cls, T, x_grad)
        leaves = list(cell.parameters().values()) + ([x] if x_grad else [])
        grads = []
        for run in (run_recurrent, _oracle_run):
            for leaf in leaves:
                leaf.grad = None
            states, last = run(cell, x, direction)
            (tsum(states * w) + tsum(last * v)).backward()
            grads.append([leaf.grad.copy() for leaf in leaves])
        for fused, oracle in zip(*grads):
            # exact where the oracle is 0 (U at T = 1 sees only h = 0)
            assert np.abs(fused - oracle).max() <= 1e-12 * np.abs(oracle).max()
        if not x_grad:
            assert x.grad is None

    @pytest.mark.parametrize("cell_cls,direction,T", FUSED_CASES)
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_finite_diff(self, cell_cls, direction, T, x_grad):
        cell, x, w, v = _case(cell_cls, T, x_grad, seed=53)
        leaves = list(cell.parameters().values()) + ([x] if x_grad else [])

        def loss():
            states, last = run_recurrent(cell, x, direction)
            return tsum(states * w) + tsum(last * v)

        assert finite_diff_check(loss, leaves) < 1e-4

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_stacked_weights_follow_the_gate_parameters(self, cell_cls):
        cell, _, _, _ = _case(cell_cls, 2, x_grad=False)
        params = cell.parameters()
        for p in params.values():
            p.grad = np.ones_like(p.data)
        Adam(params, lr=0.1).step()
        restore_params(params, {k: p.data + 1.0 for k, p in params.items()})
        w, u, b = cell.stacked()
        for kind, got in (("W", w.T), ("U", u), ("b", b)):
            np.testing.assert_array_equal(got, np.concatenate(
                [params[f"{cell.name}.{kind}_{g}"].data for g in cell.gates]))

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_one_graph_node_per_sequence(self, cell_cls):
        cell, x, _, _ = _case(cell_cls, 5, x_grad=True)
        states, last = run_recurrent(cell, x, "backward")
        params = list(cell.parameters().values())
        assert states._parents == (x, *params)
        assert last._parents == (states,)
        with no_grad():
            quiet, _ = run_recurrent(cell, x, "backward")
        assert quiet._parents == () and not quiet.requires_grad
        np.testing.assert_array_equal(quiet.data, states.data)


def _ragged_case(cell_cls, lengths, seed=59):
    """A cell with nonzero biases and a [B, T, 3] batch padded one step
    past its longest row, whose padding holds junk the run must never
    read."""
    rng = np.random.default_rng(seed + sum(lengths))
    cell = cell_cls(3, 4, rng)
    for p in cell.parameters().values():
        p.data += rng.normal(scale=0.3, size=p.shape)
    x = param(rng.normal(size=(len(lengths), max(lengths) + 1, 3)))
    return cell, x, rng


RAGGED_CASES = [(cell, direction, lengths)
                for cell in (GRUCell, LSTMCell)
                for direction in ("forward", "backward")
                for lengths in ((3,), (3, 1, 2), (1, 4, 4))]


class TestBatchedRecurrent:
    """``run_recurrent`` over a padded [B, T, d] batch with row lengths."""

    @pytest.mark.parametrize("cell_cls,direction,lengths", RAGGED_CASES)
    def test_rows_match_separate_runs(self, cell_cls, direction, lengths):
        cell, x, _ = _ragged_case(cell_cls, lengths)
        states, last = run_recurrent(cell, x, direction, lengths)
        assert states.shape == x.shape[:2] + (4,)
        assert last.shape == (len(lengths), 4)
        for i, n in enumerate(lengths):
            alone, alone_last = run_recurrent(cell, Tensor(x.data[i, :n]),
                                              direction)
            np.testing.assert_allclose(states.data[i, :n], alone.data,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(last.data[i], alone_last.data,
                                       rtol=1e-12, atol=1e-15)
            assert not states.data[i, n:].any()

    @pytest.mark.parametrize("cell_cls,direction,lengths", RAGGED_CASES)
    def test_finite_diff(self, cell_cls, direction, lengths):
        cell, x, rng = _ragged_case(cell_cls, lengths)
        w = rng.normal(size=x.shape[:2] + (4,))
        v = rng.normal(size=(len(lengths), 4))

        def loss():
            states, last = run_recurrent(cell, x, direction, lengths)
            return tsum(states * w) + tsum(last * v)

        leaves = list(cell.parameters().values()) + [x]
        assert finite_diff_check(loss, leaves) < 1e-4
        # padding is never read, so it gets no gradient
        for i, n in enumerate(lengths):
            assert not x.grad[i, n:].any()

    def test_one_step_per_timestep_for_the_whole_batch(self, monkeypatch):
        cell, x, _ = _ragged_case(LSTMCell, (3, 1, 2))
        rows = []
        step = LSTMCell.step

        def counted(self, xw, state, u, b):
            rows.append(xw.shape[0])
            return step(self, xw, state, u, b)

        monkeypatch.setattr(LSTMCell, "step", counted)
        run_recurrent(cell, x, "forward", (3, 1, 2))
        assert rows == [3, 2, 1]

    def test_empty_rows_give_zeros(self):
        cell, x, _ = _ragged_case(GRUCell, (2, 2))
        states, last = run_recurrent(cell, x, "forward", (0, 2))
        assert not states.data[0].any() and not last.data[0].any()
        assert last.data[1].any()
        states, last = run_recurrent(cell, x, "forward", (0, 0))
        assert not states.data.any() and not last.data.any()

    def test_bad_lengths_rejected(self):
        cell, x, _ = _ragged_case(GRUCell, (2, 2))
        for lengths in ((4, 1), (1,), (-1, 2)):
            with pytest.raises(ShapeMismatch):
                run_recurrent(cell, x, "forward", lengths)


class TestBidirectional:
    def test_shapes_and_composition(self):
        rng = np.random.default_rng(19)
        f, b = GRUCell(3, 4, rng, "f"), GRUCell(3, 4, rng, "b")
        x = rng.normal(size=(5, 3))
        states, last = bidirectional_encode(f, b, Tensor(x))
        assert states.shape == (5, 8)
        assert last.shape == (8,)
        fwd_states, fwd_last = run_recurrent(f, Tensor(x), "forward")
        np.testing.assert_allclose(states.data[:, :4], fwd_states.data)
        np.testing.assert_allclose(last.data[:4], fwd_last.data)

    def test_empty_input(self):
        rng = np.random.default_rng(19)
        f, b = GRUCell(3, 4, rng, "f"), GRUCell(3, 4, rng, "b")
        states, last = bidirectional_encode(f, b, Tensor(np.zeros((0, 3))))
        assert states.shape == (0, 8)
        np.testing.assert_allclose(last.data, 0.0)

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    @pytest.mark.parametrize("lengths", [(3,), (3, 1, 2), (0, 2, 1)])
    def test_batch_rows_match_single_runs(self, cell_cls, lengths):
        f, x, rng = _ragged_case(cell_cls, lengths)
        b = cell_cls(3, 4, rng, "b")
        states, last = bidirectional_encode(f, b, x, lengths)
        assert states.shape == x.shape[:2] + (8,)
        assert last.shape == (len(lengths), 8)
        for i, n in enumerate(lengths):
            alone, alone_last = bidirectional_encode(f, b,
                                                     Tensor(x.data[i, :n]))
            np.testing.assert_allclose(states.data[i, :n], alone.data,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(last.data[i], alone_last.data,
                                       rtol=1e-12, atol=1e-15)
            assert not states.data[i, n:].any()

    @pytest.mark.parametrize("lengths", [(3,), (3, 1, 2)])
    def test_batch_finite_diff(self, lengths):
        f, x, rng = _ragged_case(LSTMCell, lengths)
        b = LSTMCell(3, 4, rng, "b")
        w = rng.normal(size=x.shape[:2] + (8,))
        v = rng.normal(size=(len(lengths), 8))

        def loss():
            states, last = bidirectional_encode(f, b, x, lengths)
            return tsum(states * w) + tsum(last * v)

        leaves = (list(f.parameters().values())
                  + list(b.parameters().values()) + [x])
        assert finite_diff_check(loss, leaves) < 1e-4


# an empty row, a one-step row and a row as long as the batch
BIDI_LENGTHS = (0, 1, 4)


def _bidi_case(cell_cls, seed=67):
    """Two cells with nonzero biases, a [3, 4, 3] batch of the
    ``BIDI_LENGTHS`` rows, and weights for the states and last states."""
    rng = np.random.default_rng(seed)
    f, b = cell_cls(3, 4, rng, "f"), cell_cls(3, 4, rng, "b")
    leaves = [*f.parameters().values(), *b.parameters().values()]
    for p in leaves:
        p.data += rng.normal(scale=0.3, size=p.shape)
    x = param(rng.normal(size=(3, 4, 3)))
    w = rng.normal(size=(3, 4, 8))
    v = rng.normal(size=(3, 8))
    return f, b, x, leaves + [x], w, v


def _two_runs(f, b, x, lengths):
    """The oracle of the fused bidirectional node: one single-direction
    run per cell, joined by ``concat``."""
    states_f, last_f = run_recurrent(f, x, "forward", lengths)
    states_b, last_b = run_recurrent(b, x, "backward", lengths)
    return (concat([states_f, states_b], axis=-1),
            concat([last_f, last_b], axis=-1))


class TestFusedBidirectional:
    """``bidirectional_encode`` steps both directions together, as one
    graph node."""

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_finite_diff(self, cell_cls):
        f, b, x, leaves, w, v = _bidi_case(cell_cls)

        def loss():
            states, last = bidirectional_encode(f, b, x, BIDI_LENGTHS)
            return tsum(states * w) + tsum(last * v)

        assert finite_diff_check(loss, leaves) < 1e-4
        assert all(leaf.grad is not None for leaf in leaves)

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_bit_identical_to_two_runs(self, cell_cls):
        f, b, x, leaves, w, v = _bidi_case(cell_cls)
        results = []
        for run in (bidirectional_encode, _two_runs):
            for leaf in leaves:
                leaf.grad = None
            states, last = run(f, b, x, BIDI_LENGTHS)
            (tsum(states * w) + tsum(last * v)).backward()
            results.append([states.data, last.data,
                            *(leaf.grad for leaf in leaves)])
        for fused, oracle in zip(*results):
            np.testing.assert_array_equal(fused, oracle)

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_one_graph_node_and_one_step_per_timestep(self, cell_cls,
                                                      monkeypatch):
        f, b, x, leaves, _, _ = _bidi_case(cell_cls)
        shapes = []
        step = cell_cls.step

        def counted(self, xw, state, u, b):
            shapes.append(xw.shape[:2])
            return step(self, xw, state, u, b)

        monkeypatch.setattr(cell_cls, "step", counted)
        states, last = bidirectional_encode(f, b, x, BIDI_LENGTHS)
        assert states._parents == (x, *leaves[:-1])
        assert last._parents == (states,)
        # both directions of every running row in each step
        assert shapes == [(2, 2), (2, 1), (2, 1), (2, 1)]


class TestSelfAttention:
    def test_single_row_identity(self):
        x = Tensor(np.array([[1.0, -2.0, 0.5]]))
        np.testing.assert_allclose(self_attention(x).data, x.data, atol=1e-12)

    def test_identical_rows_mean(self):
        row = np.array([0.3, -1.2, 0.7])
        x = Tensor(np.stack([row, row]))
        out = self_attention(x)
        mean = x.data.mean(axis=0)
        np.testing.assert_allclose(out.data[0], mean, atol=1e-12)
        np.testing.assert_allclose(out.data[1], mean, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(29)
        x = param(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(4, 3)))
        assert finite_diff_check(lambda: tsum(self_attention(x) * w), [x]) < 1e-4


class TestMaskedSelfAttention:
    @pytest.mark.parametrize("lengths", [(4,), (4, 1, 3)])
    def test_rows_attend_over_their_own_states(self, lengths):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(len(lengths), 4, 3))
        for i, n in enumerate(lengths):
            x[i, n:] = 0.0  # padded states are zero, as run_recurrent leaves them
        out = self_attention(Tensor(x), lengths)
        for i, n in enumerate(lengths):
            alone = self_attention(Tensor(x[i, :n]))
            np.testing.assert_allclose(out.data[i, :n], alone.data,
                                       rtol=1e-12, atol=1e-15)
            assert not out.data[i, n:].any()

    @pytest.mark.parametrize("lengths", [(4,), (4, 1, 3)])
    def test_finite_diff(self, lengths):
        rng = np.random.default_rng(67)
        x = param(rng.normal(size=(len(lengths), 4, 3)))
        w = rng.normal(size=x.shape)
        assert finite_diff_check(
            lambda: tsum(self_attention(x, lengths) * w), [x]) < 1e-4
        for i, n in enumerate(lengths):
            assert not x.grad[i, n:].any()


class TestDropout:
    def test_p_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.0, "train", np.random.default_rng(0)) is x

    def test_eval_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.9, "eval", None) is x

    def test_mean_preserved(self):
        """Inverted scaling keeps the expected value within 2%."""
        rng = np.random.default_rng(31)
        x = Tensor(np.ones(10_000))
        out = dropout(x, 0.1, "train", rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_survivors_scaled(self):
        rng = np.random.default_rng(37)
        out = dropout(Tensor(np.ones(1000)), 0.2, "train", rng)
        kept = out.data[out.data != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.8)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(2)), 1.0, "train", np.random.default_rng(0))


class TestCosine:
    def test_self_similarity(self):
        a = Tensor(np.array([1.0, 2.0, 3.0]))
        assert cosine(a, a).item() == pytest.approx(1.0)

    def test_orthogonal(self):
        a = Tensor(np.array([1.0, 0.0]))
        b = Tensor(np.array([0.0, 1.0]))
        assert cosine(a, b).item() == pytest.approx(0.0)

    def test_hand_value(self):
        a = Tensor(np.array([1.0, 0.0]))
        b = Tensor(np.array([1.0, 1.0]))
        assert cosine(a, b).item() == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_zero_norm_returns_zero(self):
        a = Tensor(np.zeros(3))
        b = Tensor(np.ones(3))
        assert cosine(a, b).item() == 0.0

    def test_range(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = Tensor(rng.normal(size=5))
            b = Tensor(rng.normal(size=5))
            assert -1.0 - 1e-12 <= cosine(a, b).item() <= 1.0 + 1e-12

    def test_gradcheck(self):
        rng = np.random.default_rng(43)
        a = param(rng.normal(size=4) + 1.0)
        b = param(rng.normal(size=4) - 1.0)
        assert finite_diff_check(lambda: cosine(a, b), [a, b]) < 1e-4

    @pytest.mark.parametrize("n", [1, 3])
    def test_rows_match_vector_cosine(self, n):
        rng = np.random.default_rng(47)
        a, b = rng.normal(size=(n, 5)), rng.normal(size=(n, 5))
        got = cosine(Tensor(a), Tensor(b))
        assert got.shape == (n,)
        for i in range(n):
            assert got.data[i] == pytest.approx(
                cosine(Tensor(a[i]), Tensor(b[i])).item(), rel=1e-15)

    @pytest.mark.parametrize("n", [1, 3])
    def test_rows_gradcheck(self, n):
        rng = np.random.default_rng(53)
        a, b = param(rng.normal(size=(n, 4))), param(rng.normal(size=(n, 4)))
        w = rng.normal(size=n)
        assert finite_diff_check(lambda: tsum(cosine(a, b) * w), [a, b]) < 1e-4

    def test_zero_norm_row_scores_zero_without_gradient(self):
        a = param(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]]))
        b = param(np.array([[2.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
        cos = cosine(a, b)
        assert cos.data[1] == 0.0 and cos.data[2] == 0.0
        tsum(cos).backward()
        assert a.grad[0].any() and b.grad[0].any()
        assert not a.grad[1:].any() and not b.grad[1:].any()
