"""Layer behaviour: embeddings, recurrent cells, attention, dropout, cosine."""

import logging
import math

import numpy as np
import pytest
from conftest import (assert_fused_bits, dense, embedding, finite_diff_check,
                      fresh, gate_block, param, rnn_cell, stack_rows)

import qakb.nn.layers
import qakb.pipeline
from qakb.aliasindex import build_index
from qakb.datagen import build_negative_pools, label_questions
from qakb.e2e import VARIANTS, train_e2e
from qakb.errors import ShapeMismatch
from qakb.evalharness import SyntheticSpec, generate_synthetic
from qakb.nn.config import TrainConfig
from qakb.nn.layers import (
    OOV_TOKEN,
    GRUCell,
    LSTMCell,
    cosine,
    glorot,
    recurrent,
    self_attention,
)
from qakb.nn.losses import loss_binary_ce
from qakb.nn.optim import Adam
from qakb.nn.tensor import (
    Tensor,
    concat,
    gather_rows,
    matmul,
    mul,
    relu,
    sigmoid,
    tanh,
    transpose,
    tsum,
    zeros,
)
from qakb.nn.layers import dropout_mask, recurrent_forward
from qakb.pipeline import (MatchEncodings, MatcherModel, train_matcher,
                           train_tagger)

BOTH_OUTPUTS = ("states", "last")
BIDI = (False, True)  # a forward cell, then a reverse one


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def _both(cells, x, lengths=None, reverses=(False,)):
    """The states and the last states of a run of ``cells`` over ``x``:
    two ``recurrent`` nodes, one for each output."""
    return tuple(recurrent(cells, x, lengths, reverses, output)
                 for output in BOTH_OUTPUTS)


def _reverses(direction):
    """The ``reverses`` of one cell running "forward", left to right, or
    "backward", right to left."""
    return (direction == "backward",)


class TestEmbedding:
    def setup_method(self):
        self.rng = np.random.default_rng(3)
        self.table = embedding(self.rng, ["red", "green"], 4)

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
        layer = dense(rng, 3, 2)
        x = rng.normal(size=(4, 3))
        batched = layer(Tensor(x)).data
        single = np.stack([layer(Tensor(x[i])).data for i in range(4)])
        np.testing.assert_allclose(batched, single, atol=1e-12)

    def test_relu_activation(self):
        rng = np.random.default_rng(5)
        layer = dense(rng, 3, 2, activation="relu")
        out = layer(Tensor(np.array([5.0, -5.0, 0.1])))
        assert (out.data >= 0).all()

    def test_dim_mismatch(self):
        layer = dense(np.random.default_rng(0), 3, 2)
        with pytest.raises(ShapeMismatch):
            layer(Tensor(np.ones(4)))

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        layer = dense(rng, 4, 5)
        x = Tensor(rng.normal(size=(4,)))
        params = list(layer.parameters().values())
        assert finite_diff_check(lambda: tsum(layer(x)), params) < 1e-4

    @pytest.mark.parametrize("activation", ["none", "relu", "sigmoid"])
    @pytest.mark.parametrize("shape", [(4,), (3, 4)])
    def test_fused_node_gradcheck(self, activation, shape):
        """A call is one node; its hand-written backward matches central
        differences for the weight, the bias and the input."""
        rng = np.random.default_rng(71)
        layer = dense(rng, 4, 5, activation=activation)
        layer.bias.data[...] = rng.normal(size=5)
        x = param(rng.normal(size=shape))
        w = rng.normal(size=shape[:-1] + (5,))
        out = layer(x)
        assert out._parents == (x, layer.weight, layer.bias)
        params = [layer.weight, layer.bias, x]
        assert finite_diff_check(lambda: tsum(layer(x) * w), params) < 1e-4

    @pytest.mark.parametrize("activation", ["none", "relu", "sigmoid"])
    @pytest.mark.parametrize("shape", [(48,), (3, 48), (1, 48)])
    def test_fused_node_has_the_composed_ops_bits(self, activation, shape):
        """Forward and gradients equal, bit for bit, the layer built from
        matmul, transpose, add and activation nodes, as it was.  At these
        sizes a product through a transposed view of the weight, not its
        copy, rounds differently."""
        rng = np.random.default_rng(73)
        layer = dense(rng, 48, 8, activation=activation)
        layer.bias.data[...] = rng.normal(size=8)
        x = param(rng.normal(size=shape))
        w = rng.normal(size=shape[:-1] + (8,))

        def composed():
            if x.ndim == 1:
                y = matmul(layer.weight, x) + layer.bias
            else:
                y = matmul(x, transpose(layer.weight)) + layer.bias
            return {"none": lambda t: t, "relu": relu,
                    "sigmoid": sigmoid}[activation](y)

        data = assert_fused_bits(lambda: layer(x), composed,
                                 [layer.weight, layer.bias, x], w)
        assert layer.forward(x.data).tobytes() == data


class TestGRU:
    def test_zero_weights_zero_input_zero_states(self):
        cell = rnn_cell(GRUCell, np.random.default_rng(0), 2, 3)
        for t in cell.parameters().values():
            t.data[...] = 0.0
        states, last = _both((cell,), Tensor(np.zeros((4, 2))))
        np.testing.assert_allclose(states.data, 0.0)
        np.testing.assert_allclose(last.data, 0.0)

    def test_scalar_hand_oracle(self):
        """One step with 1-d weights against the gate equations by hand."""
        cell = rnn_cell(GRUCell, np.random.default_rng(0), 1, 1)
        w = {
            "W_z": 0.3, "U_z": -0.2, "b_z": 0.1,
            "W_r": 0.5, "U_r": 0.4, "b_r": -0.3,
            "W_n": 0.7, "U_n": 0.6, "b_n": -0.1,
        }
        for k, v in w.items():
            gate_block(cell, *k.split("_"))[...] = v
        x = 1.0
        z = _sigmoid(w["W_z"] * x + w["b_z"])
        r = _sigmoid(w["W_r"] * x + w["b_r"])
        n = math.tanh(w["W_n"] * x + r * (w["U_n"] * 0.0) + w["b_n"])
        expected = (1.0 - z) * n
        last = recurrent((cell,), Tensor(np.array([[x]])), None, (False,),
                         "last")
        np.testing.assert_allclose(last.data, [expected], atol=1e-12)

    def test_backward_direction_is_reversed_forward(self):
        rng = np.random.default_rng(11)
        cell = rnn_cell(GRUCell, rng, 3, 4)
        x = rng.normal(size=(5, 3))
        bwd, last_b = _both((cell,), Tensor(x), reverses=(True,))
        fwd_rev, last_f = _both((cell,), Tensor(x[::-1].copy()))
        np.testing.assert_allclose(bwd.data, fwd_rev.data[::-1], atol=1e-12)
        np.testing.assert_allclose(last_b.data, last_f.data, atol=1e-12)

    def test_empty_sequence_zero_last(self):
        cell = rnn_cell(GRUCell, np.random.default_rng(0), 2, 3)
        states, last = _both((cell,), Tensor(np.zeros((0, 2))))
        assert states.shape == (0, 3)
        np.testing.assert_allclose(last.data, 0.0)

    def test_gradcheck_through_time(self):
        rng = np.random.default_rng(13)
        cell = rnn_cell(GRUCell, rng, 2, 3)
        x = Tensor(rng.normal(size=(4, 2)))

        def loss():
            last = recurrent((cell,), x, None, (False,), "last")
            return tsum(last * last)

        assert finite_diff_check(loss, list(cell.parameters().values())) < 1e-4


class TestLSTM:
    def test_scalar_hand_oracle(self):
        cell = rnn_cell(LSTMCell, np.random.default_rng(0), 1, 1)
        w = {
            "W_i": 0.3, "U_i": 0.2, "b_i": -0.1,
            "W_f": -0.5, "U_f": 0.4, "b_f": 0.3,
            "W_g": 0.7, "U_g": -0.6, "b_g": 0.1,
            "W_o": 0.2, "U_o": 0.1, "b_o": 0.0,
        }
        for k, v in w.items():
            gate_block(cell, *k.split("_"))[...] = v
        x = 0.8
        i = _sigmoid(w["W_i"] * x + w["b_i"])
        g = math.tanh(w["W_g"] * x + w["b_g"])
        o = _sigmoid(w["W_o"] * x + w["b_o"])
        c1 = i * g
        expected = o * math.tanh(c1)
        last = recurrent((cell,), Tensor(np.array([[x]])), None, (False,),
                         "last")
        np.testing.assert_allclose(last.data, [expected], atol=1e-12)

    def test_gradcheck_through_time(self):
        rng = np.random.default_rng(17)
        cell = rnn_cell(LSTMCell, rng, 2, 2)
        x = Tensor(rng.normal(size=(3, 2)))

        def loss():
            return tsum(recurrent((cell,), x, None, (False,), "states"))

        assert finite_diff_check(loss, list(cell.parameters().values())) < 1e-4


def _oracle_gru_step(xw, uh, state):
    (h,) = state
    z = sigmoid(xw["z"] + uh["z"])
    r = sigmoid(xw["r"] + uh["r"])
    n = tanh(xw["n"] + mul(r, uh["n"]))
    return ((1.0 - z) * n + z * h,)


def _oracle_lstm_step(xw, uh, state):
    h, c = state
    i = sigmoid(xw["i"] + uh["i"])
    f = sigmoid(xw["f"] + uh["f"])
    g = tanh(xw["g"] + uh["g"])
    o = sigmoid(xw["o"] + uh["o"])
    c_new = f * c + i * g
    return o * tanh(c_new), c_new


def _gate_parts(cell, row):
    """Each gate's [h] part of a [G*h] row, as nodes."""
    H = cell.hidden_dim
    return {g: gather_rows(row, range(k * H, (k + 1) * H))
            for k, g in enumerate(cell.gates)}


def _oracle_run(cell, inputs, direction):
    """The per-timestep graph of tensor primitives that the fused sequence
    op replaces: one node per product, sum and nonlinearity.  The fused
    op's products are made as it makes them, with two or more rows: the
    input projections ``x @ W`` of all timesteps, beside one zero row,
    are one product with the bias added after it, and each step's
    ``h @ U`` is row 0 of the product of ``h`` stacked on a zero row, so
    the forward compares bit for bit."""
    step = _oracle_gru_step if isinstance(cell, GRUCell) else _oracle_lstm_step
    T, H = inputs.shape[0], cell.hidden_dim
    order = range(T) if direction == "forward" else range(T - 1, -1, -1)
    padded = concat([inputs, zeros((1, inputs.shape[1]))], axis=0)
    xw = matmul(padded, cell.W) + cell.b
    state = tuple(zeros((cell.hidden_dim,)) for _ in cell.state_parts)
    outputs = {}
    for t in order:
        uh = gather_rows(matmul(stack_rows([state[0], zeros((H,))]),
                                cell.U), 0)
        state = step(_gate_parts(cell, gather_rows(xw, t)),
                     _gate_parts(cell, uh), state)
        outputs[t] = state[0]
    return stack_rows([outputs[t] for t in range(T)]), outputs[order[-1]]


def _fused_run(cell, inputs, direction):
    """The fused op's states and last states, one ``recurrent`` node
    each, as :func:`_oracle_run` gives them."""
    return _both((cell,), inputs, reverses=_reverses(direction))


FUSED_CASES = [(cell, direction, T)
               for cell in (GRUCell, LSTMCell)
               for direction in ("forward", "backward")
               for T in (1, 2, 5)]


def _case(cell_cls, T, x_grad, seed=47):
    rng = np.random.default_rng(seed + T)
    cell = rnn_cell(cell_cls, rng, 3, 4)
    for p in cell.parameters().values():  # nonzero biases exercise db
        p.data += rng.normal(scale=0.3, size=p.shape)
    x = rng.normal(size=(T, 3))
    x = param(x) if x_grad else Tensor(x)
    w = rng.normal(size=(T, 4))
    v = rng.normal(size=4)
    return cell, x, w, v


class TestFusedRecurrent:
    """``recurrent`` as one graph node per sequence, against the
    per-step graph it replaced."""

    @pytest.mark.parametrize("cell_cls,direction,T", FUSED_CASES)
    def test_forward_bit_identical_to_per_step_oracle(self, cell_cls,
                                                      direction, T):
        cell, x, _, _ = _case(cell_cls, T, x_grad=True)
        states, last = _fused_run(cell, x, direction)
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
        for run in (_fused_run, _oracle_run):
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
            states, last = _fused_run(cell, x, direction)
            return tsum(states * w) + tsum(last * v)

        assert finite_diff_check(loss, leaves) < 1e-4

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_one_graph_node_per_sequence(self, cell_cls):
        """One node for each ``recurrent`` call, each a run over ``x``."""
        cell, x, _, _ = _case(cell_cls, 5, x_grad=True)
        states, last = _fused_run(cell, x, "backward")
        params = list(cell.parameters().values())
        assert states._parents == (x, *params)
        assert last._parents == (x, *params)


class TestGatedCellLayout:
    """One parameter per kind of weight, the gates' blocks side by side."""

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_parameters_are_w_u_b_holding_the_gate_draws(self, cell_cls):
        d, h = 3, 4
        cell = rnn_cell(cell_cls, np.random.default_rng(61), d, h, "c")
        G = len(cell.gates)
        params = cell.parameters()
        assert list(params) == ["c.W", "c.U", "c.b"]
        assert [p.shape for p in params.values()] == [
            (d, G * h), (h, G * h), (G * h,)]
        assert all(p.requires_grad for p in params.values())
        assert all(p.data.flags.c_contiguous for p in params.values())
        replay = np.random.default_rng(61)
        for g in cell.gates:
            w, u = glorot(replay, (h, d)), glorot(replay, (h, h))
            np.testing.assert_array_equal(gate_block(cell, "W", g), w)
            np.testing.assert_array_equal(gate_block(cell, "U", g), u)
            assert not gate_block(cell, "b", g).any()

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_adam_steps_a_stacked_weight_as_its_gate_blocks(self, cell_cls):
        """Adam works element by element, so one [d, G*h] weight takes
        the same steps as its G [h, d] blocks held apart."""
        cell, _, _, _ = _case(cell_cls, 2, x_grad=False)
        rng = np.random.default_rng(67)
        whole = {kind: param(getattr(cell, kind).data) for kind in "WUb"}
        apart = {(kind, g): param(gate_block(cell, kind, g, p.data))
                 for kind, p in whole.items() for g in cell.gates}
        opts = Adam(whole, lr=0.05), Adam(apart, lr=0.05)
        for _ in range(5):
            for p in whole.values():
                p.grad = rng.normal(size=p.shape)
            for (kind, g), p in apart.items():
                p.grad = gate_block(cell, kind, g, whole[kind].grad).copy()
            for opt in opts:
                opt.step()
        for (kind, g), p in apart.items():
            np.testing.assert_array_equal(
                gate_block(cell, kind, g, whole[kind].data), p.data)


def _ragged_case(cell_cls, lengths, seed=59):
    """A cell with nonzero biases and a [B, T, 3] batch padded one step
    past its longest row, whose padding holds junk the run must never
    read."""
    rng = np.random.default_rng(seed + sum(lengths))
    cell = rnn_cell(cell_cls, rng, 3, 4)
    for p in cell.parameters().values():
        p.data += rng.normal(scale=0.3, size=p.shape)
    x = param(rng.normal(size=(len(lengths), max(lengths) + 1, 3)))
    return cell, x, rng


RAGGED_CASES = [(cell, direction, lengths)
                for cell in (GRUCell, LSTMCell)
                for direction in ("forward", "backward")
                for lengths in ((3,), (3, 1, 2), (1, 4, 4))]


class TestBatchedRecurrent:
    """``recurrent`` over a padded [B, T, d] batch with row lengths."""

    @pytest.mark.parametrize("cell_cls,direction,lengths", RAGGED_CASES)
    def test_rows_match_separate_runs(self, cell_cls, direction, lengths):
        cell, x, _ = _ragged_case(cell_cls, lengths)
        states, last = _both((cell,), x, lengths, _reverses(direction))
        assert states.shape == x.shape[:2] + (4,)
        assert last.shape == (len(lengths), 4)
        for i, n in enumerate(lengths):
            alone, alone_last = _fused_run(cell, Tensor(x.data[i, :n]),
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
            states, last = _both((cell,), x, lengths, _reverses(direction))
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

        def counted(self, xw, state, uh):
            rows.append(xw.shape[0])
            return step(self, xw, state, uh)

        monkeypatch.setattr(LSTMCell, "step", counted)
        recurrent((cell,), x, (3, 1, 2), (False,), "states")
        assert rows == [3, 2, 1]

    def test_empty_rows_give_zeros(self):
        cell, x, _ = _ragged_case(GRUCell, (2, 2))
        states, last = _both((cell,), x, (0, 2))
        assert not states.data[0].any() and not last.data[0].any()
        assert last.data[1].any()
        states, last = _both((cell,), x, (0, 0))
        assert not states.data.any() and not last.data.any()

    def test_bad_lengths_rejected(self):
        cell, x, _ = _ragged_case(GRUCell, (2, 2))
        for lengths in ((4, 1), (1,), (-1, 2)):
            with pytest.raises(ShapeMismatch):
                recurrent((cell,), x, lengths, (False,), "states")


class TestBidirectional:
    def test_shapes_and_composition(self):
        rng = np.random.default_rng(19)
        f, b = (rnn_cell(GRUCell, rng, 3, 4, "f"),
                rnn_cell(GRUCell, rng, 3, 4, "b"))
        x = rng.normal(size=(5, 3))
        states, last = _both((f, b), Tensor(x), None, BIDI)
        assert states.shape == (5, 8)
        assert last.shape == (8,)
        fwd_states, fwd_last = _both((f,), Tensor(x))
        np.testing.assert_allclose(states.data[:, :4], fwd_states.data)
        np.testing.assert_allclose(last.data[:4], fwd_last.data)

    def test_empty_input(self):
        rng = np.random.default_rng(19)
        f, b = (rnn_cell(GRUCell, rng, 3, 4, "f"),
                rnn_cell(GRUCell, rng, 3, 4, "b"))
        states, last = _both((f, b), Tensor(np.zeros((0, 3))), None, BIDI)
        assert states.shape == (0, 8)
        np.testing.assert_allclose(last.data, 0.0)

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    @pytest.mark.parametrize("lengths", [(3,), (3, 1, 2), (0, 2, 1)])
    def test_batch_rows_match_single_runs(self, cell_cls, lengths):
        f, x, rng = _ragged_case(cell_cls, lengths)
        b = rnn_cell(cell_cls, rng, 3, 4, "b")
        states, last = _both((f, b), x, lengths, BIDI)
        assert states.shape == x.shape[:2] + (8,)
        assert last.shape == (len(lengths), 8)
        for i, n in enumerate(lengths):
            alone, alone_last = _both((f, b), Tensor(x.data[i, :n]), None,
                                      BIDI)
            np.testing.assert_allclose(states.data[i, :n], alone.data,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(last.data[i], alone_last.data,
                                       rtol=1e-12, atol=1e-15)
            assert not states.data[i, n:].any()

    @pytest.mark.parametrize("lengths", [(3,), (3, 1, 2)])
    def test_batch_finite_diff(self, lengths):
        f, x, rng = _ragged_case(LSTMCell, lengths)
        b = rnn_cell(LSTMCell, rng, 3, 4, "b")
        w = rng.normal(size=x.shape[:2] + (8,))
        v = rng.normal(size=(len(lengths), 8))

        def loss():
            states, last = _both((f, b), x, lengths, BIDI)
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
    f, b = (rnn_cell(cell_cls, rng, 3, 4, "f"),
            rnn_cell(cell_cls, rng, 3, 4, "b"))
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
    states_f, last_f = _both((f,), x, lengths)
    states_b, last_b = _both((b,), x, lengths, (True,))
    return (concat([states_f, states_b], axis=-1),
            concat([last_f, last_b], axis=-1))


class TestFusedBidirectional:
    """``recurrent`` steps a forward and a reverse cell together, as one
    graph node."""

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_finite_diff(self, cell_cls):
        f, b, x, leaves, w, v = _bidi_case(cell_cls)

        def loss():
            states, last = _both((f, b), x, BIDI_LENGTHS, BIDI)
            return tsum(states * w) + tsum(last * v)

        assert finite_diff_check(loss, leaves) < 1e-4
        assert all(leaf.grad is not None for leaf in leaves)

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_bit_identical_to_two_runs(self, cell_cls):
        """The states and the last states, each with the gradients of a
        loss over it alone.  A loss over both sums two nodes' gradients,
        in another order than the oracle's four, so ``test_finite_diff``
        covers it."""
        f, b, x, leaves, w, v = _bidi_case(cell_cls)
        for k, weight in enumerate((w, v)):
            results = []
            for run in (lambda: _both((f, b), x, BIDI_LENGTHS, BIDI),
                        lambda: _two_runs(f, b, x, BIDI_LENGTHS)):
                for leaf in leaves:
                    leaf.grad = None
                out = run()[k]
                tsum(out * weight).backward()
                results.append([out.data, *(leaf.grad for leaf in leaves)])
            for fused, oracle in zip(*results):
                np.testing.assert_array_equal(fused, oracle)

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    def test_one_graph_node_and_one_step_per_timestep(self, cell_cls,
                                                      monkeypatch):
        f, b, x, leaves, _, _ = _bidi_case(cell_cls)
        shapes = []
        step = cell_cls.step

        def counted(self, xw, state, uh):
            shapes.append(xw.shape[:2])
            return step(self, xw, state, uh)

        monkeypatch.setattr(cell_cls, "step", counted)
        states, last = _both((f, b), x, BIDI_LENGTHS, BIDI)
        # one node for each output, each a run over x
        assert states._parents == (x, *leaves[:-1])
        assert last._parents == (x, *leaves[:-1])
        # both directions of every running row in each step of each run
        assert shapes == [(2, 2), (2, 1), (2, 1), (2, 1)] * 2


class TestRunOutputs:
    """Each ``recurrent`` call builds the one output it is asked for:
    asked for alone, an output has the bits and gradients it has when
    the other is built beside it, and from inputs and weights that need
    no gradient a result with no backward."""

    @staticmethod
    def _runner(cell_cls, direction, lengths):
        f, b, x, leaves, _, _ = _bidi_case(cell_cls)
        if lengths is None:  # one [T, d] row
            x = leaves[-1] = param(x.data[2])
        cells, reverses = {"forward": ((f,), (False,)),
                           "backward": ((b,), (True,)),
                           "both": ((f, b), BIDI)}[direction]

        def run(outputs):
            return tuple(recurrent(cells, x, lengths, reverses, output)
                         for output in outputs)

        return run, leaves

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    @pytest.mark.parametrize("direction", ["forward", "backward", "both"])
    @pytest.mark.parametrize("lengths", [None, BIDI_LENGTHS, (4, 2, 4)])
    @pytest.mark.parametrize("outputs", [("states",), ("last",),
                                         BOTH_OUTPUTS])
    def test_same_bits_as_both_outputs(self, cell_cls, direction, lengths,
                                       outputs):
        run, leaves = self._runner(cell_cls, direction, lengths)
        rng = np.random.default_rng(5)
        weights = None
        results = []
        for asked in (BOTH_OUTPUTS, outputs):
            for leaf in leaves:
                leaf.grad = None
            built = dict(zip(asked, run(asked)))
            if weights is None:
                weights = {o: rng.normal(size=built[o].shape)
                           for o in BOTH_OUTPUTS}
            sum((tsum(built[o] * weights[o]) for o in outputs),
                Tensor(0.0)).backward()
            results.append([*(built[o].data for o in outputs),
                            *(leaf.grad for leaf in leaves)])
        for got, want in zip(results[1], results[0]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell])
    @pytest.mark.parametrize("direction", ["forward", "backward", "both"])
    @pytest.mark.parametrize("lengths", [None, BIDI_LENGTHS])
    @pytest.mark.parametrize("outputs", [("states",), ("last",),
                                         BOTH_OUTPUTS])
    def test_no_grad_builds_no_backward(self, cell_cls, direction, lengths,
                                        outputs):
        run, leaves = self._runner(cell_cls, direction, lengths)
        want = dict(zip(BOTH_OUTPUTS, run(BOTH_OUTPUTS)))
        for leaf in leaves:
            leaf.requires_grad = False
        got = run(outputs)
        assert len(got) == len(outputs)
        for name, out in zip(outputs, got):
            np.testing.assert_array_equal(out.data, want[name].data)
            assert out._backward_fn is None and out._parents == ()
            assert not out.requires_grad

    def test_unknown_output_set_rejected(self):
        f, _, x, _, _, _ = _bidi_case(GRUCell)
        for output in ("", "hidden", "both", ("states",), "last "):
            with pytest.raises(ValueError):
                recurrent((f,), x, BIDI_LENGTHS, (False,), output)


def _two_pairs(seed=71):
    """Two bidirectional GRU pairs of one hidden size with nonzero
    biases, over [3, 4, 3] and [3, 4, 5] batches, and their leaves."""
    rng = np.random.default_rng(seed)
    a = (rnn_cell(GRUCell, rng, 3, 4, "a.f"),
         rnn_cell(GRUCell, rng, 3, 4, "a.b"))
    c = (rnn_cell(GRUCell, rng, 5, 4, "c.f"),
         rnn_cell(GRUCell, rng, 5, 4, "c.b"))
    weights = [p for cell in (*a, *c) for p in cell.parameters().values()]
    for p in weights:
        p.data += rng.normal(scale=0.3, size=p.shape)
    xa = param(rng.normal(size=(3, 4, 3)))
    xc = param(rng.normal(size=(3, 4, 5)))
    return a, c, xa, xc, weights, rng


class TestStackedRun:
    """Cells stacked on the direction axis step as one run: two
    bidirectional pairs over their own inputs run as one array
    :func:`recurrent_forward` of four cells (D = 4) with the bits of two
    runs of two.  Cells of another kind or size cannot share a run."""

    @pytest.mark.parametrize("lengths", [None, BIDI_LENGTHS])
    def test_bit_identical_to_two_bidirectional_runs(self, lengths,
                                                     monkeypatch):
        a, c, xa, xc, _, _ = _two_pairs()
        xa, xc = xa.data, xc.data
        if lengths is None:  # one [T, d] row each
            xa, xc, lens = xa[2], xc[2], np.array([4])
        else:
            lens = np.array(lengths)
        shapes = []
        step = GRUCell.step

        def counted(self, xw, state, uh):
            shapes.append(xw.shape[0])
            return step(self, xw, state, uh)

        monkeypatch.setattr(GRUCell, "step", counted)
        for output in ("states", "last"):
            shapes.clear()
            stacked, _ = recurrent_forward((*a, *c), (xa, xa, xc, xc), lens,
                                           (False, True) * 2, output)
            assert shapes == [4] * 4  # all four cells in each step
            separate = [recurrent_forward(pair, (x, x), lens, (False, True),
                                          output)[0]
                        for pair, x in ((a, xa), (c, xc))]
            np.testing.assert_array_equal(
                stacked, np.concatenate(separate, axis=-1))

    def test_cells_of_another_kind_or_size_rejected(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3)))
        for other in (rnn_cell(LSTMCell, rng, 3, 4),
                      rnn_cell(GRUCell, rng, 3, 5)):
            with pytest.raises(ShapeMismatch):
                recurrent((rnn_cell(GRUCell, rng, 3, 4), other), x, None,
                          BIDI, "last")


class TestOneArrayEntry:
    """``recurrent_forward`` is the one array entry to a recurrent run: an
    answering session's matchers encode a question in one run per hidden
    size, and a run in which no position runs gives zeros."""

    def test_one_question_run_per_hidden_size(self, monkeypatch):
        rng = np.random.default_rng(5)
        vocab = ["who", "sings", "film"]
        a, b, c = (fresh(MatcherModel, vocab, TrainConfig(hidden_size=H),
                         rng, name=name)
                   for name, H in (("a", 4), ("b", 4), ("c", 5)))
        runs = []
        forward = qakb.pipeline.recurrent_forward

        def counting(cells, *args):
            runs.append(len(cells))
            return forward(cells, *args)

        monkeypatch.setattr(qakb.pipeline, "recurrent_forward", counting)
        got = {}
        for tokens in (("who", "sings", "zyzzyva"), ()):
            runs.clear()
            session = MatchEncodings((a, b, c))
            got[tokens] = [session.question(m, " ".join(tokens), tokens)
                           for m in (a, b, c)]
            # the two matchers of size 4 together, the other alone
            assert runs == [4, 2]
        monkeypatch.undo()
        for tokens, vecs in got.items():
            for m, vec in zip((a, b, c), vecs):
                want = recurrent((m.fwd, m.bwd),
                                 Tensor(m.embedding.rows(tokens)), None,
                                 BIDI, "last")
                np.testing.assert_array_equal(vec, want.data)
                assert vec.tobytes() == m.encode(tokens).tobytes()

    @pytest.mark.parametrize("output", BOTH_OUTPUTS)
    def test_empty_run_gives_zeros(self, output):
        rng = np.random.default_rng(6)
        cells = (rnn_cell(GRUCell, rng, 3, 4), rnn_cell(GRUCell, rng, 3, 4))
        # a [0, d] row, and K rows that all have length 0
        for x, lengths in ((np.zeros((0, 3)), [0]),
                           (rng.normal(size=(3, 2, 3)), [0, 0, 0])):
            got, _ = recurrent_forward(cells, (x, x), np.array(lengths),
                                       BIDI, output)
            rows = x.shape[:-1] if output == "states" else x.shape[:-2]
            assert got.shape == rows + (8,)
            assert not got.any()


def _train_one_step(model):
    """Train ``model`` ("tagger", "matcher" or a joint-model variant) on a
    small synthetic set in one batch, so one optimizer step."""
    kb, train, _ = generate_synthetic(SyntheticSpec(seed=4, n_entities=12))
    cfg = TrainConfig(epochs=1, batch_size=1000, hidden_size=4, embed_dim=4,
                      char_dim=4, max_len=6)
    if model == "tagger":
        train_tagger(label_questions(train, kb)[0], cfg)
    elif model == "matcher":
        relations = sorted({f.relation for f in kb.facts})
        train_matcher([(q.text, rel, int(rel == q.gold.relation))
                       for q in train for rel in relations], cfg)
    else:
        index = build_index(kb)
        pools = build_negative_pools(train, kb, index, seed=4)
        train_e2e(train, kb, pools, VARIANTS[model], cfg, index)


class TestTrainingStep:
    """Training asks each recurrent run for one output, so no step pays
    for a second run."""

    @pytest.mark.parametrize("model, outputs", [
        ("tagger", ["states"]),
        ("matcher", ["last"]),
        ("qa-t", ["states"]),
        ("qa-t-mwst", ["last", "states"]),  # char-GRU, then LSTM
    ], ids=["tagger", "matcher", "qa-t", "qa-t-mwst"])
    def test_one_recurrent_node_per_encoder(self, model, outputs,
                                            monkeypatch):
        asked, steps = [], []
        node, step = qakb.nn.layers._recurrent_states, Adam.step

        def counted_node(cells, x, lengths, reverses, output):
            asked.append(output)
            return node(cells, x, lengths, reverses, output)

        def counted_step(self):
            steps.append(1)
            return step(self)

        monkeypatch.setattr(qakb.nn.layers, "_recurrent_states",
                            counted_node)
        monkeypatch.setattr(Adam, "step", counted_step)
        _train_one_step(model)
        assert len(steps) == 1
        assert asked == outputs


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
            x[i, n:] = 0.0  # padded states are zero, as recurrent leaves them
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
    def test_p_zero_identity(self, monkeypatch):
        """At ``dropout_p`` 0 a matcher trains without drawing a mask,
        and its train-mode loss is that of its joint rows unchanged,
        with nothing drawn from the generator it is given."""
        drawn = []
        monkeypatch.setattr(qakb.pipeline, "dropout_mask",
                            lambda *args: drawn.append(args))
        cfg = TrainConfig(epochs=2, batch_size=1, hidden_size=4, embed_dim=4,
                          dropout_p=0.0)
        model, _ = train_matcher([("who founded acme", "/org/founder", 1),
                                  ("who founded acme", "/org/place", 0)], cfg)
        assert not drawn
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        enc = model.encode_texts([["who", "founded"], ["org", "founder"]])
        got = model.pair_loss(enc, np.array([[0, 1]]), [1], rng)
        joint = concat([gather_rows(enc, [0]), gather_rows(enc, [1])],
                       axis=-1)
        score = model.head(model.hidden(joint)).data.reshape(1)
        want = loss_binary_ce(score, [1]).data.sum()
        assert got.data.tobytes() == want.tobytes()
        assert rng.bit_generator.state == state

    def test_mean_preserved(self):
        """Inverted scaling keeps the expected value within 2%."""
        rng = np.random.default_rng(31)
        mask = dropout_mask((10_000,), 0.1, rng)
        assert abs(mask.mean() - 1.0) < 0.02

    def test_survivors_scaled(self):
        rng = np.random.default_rng(37)
        mask = dropout_mask((1000,), 0.2, rng)
        np.testing.assert_allclose(mask[mask != 0.0], 1.0 / 0.8)

    def test_invalid_p(self):
        """The training config is the one check on the probability."""
        for p in (1.0, -0.1):
            with pytest.raises(ValueError, match="dropout_p"):
                TrainConfig(dropout_p=p)


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

    def test_zero_norm_warns_once_then_logs_at_debug(self, caplog,
                                                     monkeypatch):
        """The graph op and the array forward share one warning: the
        first zero-norm pair logs a WARNING, every later one DEBUG."""
        monkeypatch.setattr(qakb.nn.layers, "_warned_zero_norm", False)
        caplog.set_level(logging.DEBUG, logger="qakb.nn.layers")
        zero, one = np.zeros(3), np.ones(3)
        cosine(Tensor(zero), Tensor(one))
        qakb.nn.layers.cosine_forward(one, zero)
        cosine(Tensor(one), Tensor(one))
        qakb.nn.layers.cosine_forward(zero, zero)
        assert [r.levelno for r in caplog.records] == [
            logging.WARNING, logging.DEBUG, logging.DEBUG]

    def test_zero_norm_row_scores_zero_without_gradient(self):
        a = param(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]]))
        b = param(np.array([[2.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
        cos = cosine(a, b)
        assert cos.data[1] == 0.0 and cos.data[2] == 0.0
        tsum(cos).backward()
        assert a.grad[0].any() and b.grad[0].any()
        assert not a.grad[1:].any() and not b.grad[1:].any()
