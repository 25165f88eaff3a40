import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intent_bench import nn
from intent_bench.errors import BadArgument
from intent_bench.models import MlpConfig, MlpModel, mlp_forward
from naive_reference import naive_lstm_backward, naive_lstm_forward


class TestDense:
    """A one-layer MLP is a single dense layer y = Wx + b."""

    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(mlp_forward({"w1": np.eye(3), "b1": np.zeros(3)}, x), x)

    def test_affine_value(self):
        params = {"w1": np.array([[1.0, 2.0]]), "b1": np.array([3.0])}
        assert mlp_forward(params, np.array([1.0, 1.0]))[0] == 6.0

    def test_shape_mismatch(self):
        params = {"w1": np.ones((2, 3)), "b1": np.zeros(2)}
        model = MlpModel(params=params, cfg=MlpConfig(input_width=3, output=2))  # one layer: the params set the depth
        with pytest.raises(BadArgument, match="input width 4"):
            model.predict_proba(np.ones((1, 4)))


class TestRelu:
    def test_mixed(self):
        np.testing.assert_array_equal(nn.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative(self):
        assert np.all(nn.relu(-np.ones(5)) == 0.0)

    def test_all_positive_identity(self):
        x = np.array([0.5, 1.5])
        np.testing.assert_array_equal(nn.relu(x), x)


def one_row_ce(logits, target):
    """Loss and logit gradient of a single example through the batched cross-entropy."""
    logits = np.asarray(logits, dtype=float)[None, :]
    loss, grad = nn.batch_softmax_cross_entropy(logits, nn.one_hot(np.array([target]), logits.shape[1]))
    return loss, grad[0]


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = one_row_ce(np.zeros(4), 2)
        assert loss == pytest.approx(math.log(4), rel=1e-12)

    def test_extreme_logits_stable(self):
        loss, grad = one_row_ce(np.array([1000.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8))
    def test_grad_sums_to_zero_and_simplex(self, logits):
        logits = np.asarray(logits)
        loss, grad = one_row_ce(logits, 0)
        assert abs(grad.sum()) < 1e-12
        p = nn.softmax(logits)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dtype, loss_tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_gradient_is_the_written_out_rule(self, dtype, loss_tol):
        """exp(z - lse), minus 1 at the target, over B, bit for bit; the loss is the mean NLL."""
        rng = np.random.default_rng(5)
        logits = (rng.normal(size=(32, 4)) * 6.0).astype(dtype)
        labels = rng.integers(0, 4, size=32)
        loss, grad = nn.batch_softmax_cross_entropy(logits, nn.one_hot(labels, 4, dtype))
        rows = np.arange(32)
        z = logits - np.max(logits, axis=1, keepdims=True)
        lse = np.log(np.sum(np.exp(z), axis=1))
        want = np.exp(z - lse[:, None])
        want[rows, labels] -= 1.0
        want = want / 32
        assert grad.dtype == dtype
        np.testing.assert_array_equal(grad, want)
        nll = -np.log(nn.softmax(logits.astype(np.float64))[rows, labels])
        assert loss == pytest.approx(float(np.mean(nll)), rel=loss_tol)


class TestLstmCell:
    def _zero_cell(self, n_in=3, hidden=4):
        return nn.LstmCell(w_gates=np.zeros((4 * hidden, n_in + hidden)), b_gates=np.zeros(4 * hidden))

    def test_zero_weights_zero_state(self):
        hs, cache = nn.lstm_sequence_forward(self._zero_cell(), np.ones((2, 4, 3)))
        np.testing.assert_array_equal(hs, np.zeros((2, 4, 4)))
        np.testing.assert_array_equal(cache.c, np.zeros((5, 4, 2)))  # (T + 1, H, B) cell states

    def test_saturated_forget_gate_preserves_cell(self):
        hidden = 4
        cell = self._zero_cell(hidden=hidden)
        cell.b_gates[hidden : 2 * hidden] = 50.0  # forget ~ 1
        cell.w_gates[3 * hidden :, 0] = [0.3, -0.5, 0.8, 0.1]  # candidate reads x[0]
        x = np.zeros((1, 6, 3))
        x[0, 0] = 1.0  # the candidate input writes the cell once, then goes to 0
        hs, cache = nn.lstm_sequence_forward(cell, x)
        cs = cache.c[:, :, 0]  # (T + 1, H) of the one sequence
        assert np.all(cs[1] != 0.0)
        np.testing.assert_allclose(cs[2:], np.broadcast_to(cs[1], (5, hidden)), rtol=1e-9)
        np.testing.assert_allclose(hs[0, 1:], np.broadcast_to(hs[0, 0], (5, hidden)), rtol=1e-9)

    def test_hidden_bounded(self):
        rng = np.random.default_rng(0)
        cell = nn.LstmCell.init(rng, 3, 6)
        hs, _ = nn.lstm_sequence_forward(cell, rng.normal(size=(1, 20, 3)) * 10)
        assert np.all(np.abs(hs) < 1.0)

    def test_shape_mismatch(self):
        cell = self._zero_cell()
        with pytest.raises(BadArgument, match="does not match cell input"):
            nn.lstm_sequence_forward(cell, np.ones((1, 1, 5)))


class TestLstmReference:
    """The layer kernel against the per-step reference, which also catches a wrong forward
    whose backward matches it (grad-check cannot)."""

    @pytest.mark.parametrize(
        "batch, steps, n_in, hidden", [(1, 1, 1, 1), (32, 5, 15, 50), (4, 39, 15, 16), (3, 7, 2, 5)]
    )
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_matches_per_step_kernel(self, batch, steps, n_in, hidden, scale):
        rng = np.random.default_rng(batch * 1000 + steps)
        cell = nn.LstmCell.init(rng, n_in, hidden)
        cell.b_gates[:] = rng.normal(size=4 * hidden)
        x = rng.normal(size=(batch, steps, n_in)) * scale
        d_hs = rng.normal(size=(batch, steps, hidden))
        hs, cache = nn.lstm_sequence_forward(cell, x)
        ref_hs, ref_caches = naive_lstm_forward(cell.w_gates, cell.b_gates, x)
        np.testing.assert_allclose(hs, ref_hs, rtol=1e-9, atol=1e-12)
        got = nn.lstm_sequence_backward(cell, cache, d_hs)
        want = naive_lstm_backward(cell.w_gates, ref_caches, d_hs)
        for name, a, b in zip(("d_x", "dW", "db"), got, want):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12, err_msg=name)


def batch_major_forward(cell, x):
    """The layer's forward pass in batch-major order, one step at a time: gates (B, T, 4H), states (B, T + 1, H)."""
    batch, steps, n_in = x.shape
    hidden = cell.hidden_size
    gates = (x.reshape(-1, n_in) @ cell.w_gates[:, :n_in].T + cell.b_gates).reshape(batch, steps, 4 * hidden)
    hs = np.zeros((batch, steps + 1, hidden))
    cs = np.zeros_like(hs)
    for t in range(steps):
        acts = gates[:, t]
        acts += hs[:, t] @ cell.w_gates[:, n_in:].T
        acts[:, : 3 * hidden] = 0.5 * (1.0 + np.tanh(acts[:, : 3 * hidden] / 2.0))
        acts[:, 3 * hidden :] = np.tanh(acts[:, 3 * hidden :])
        i, f, o, g = acts.reshape(batch, 4, hidden).swapaxes(0, 1)
        cs[:, t + 1] = f * cs[:, t] + i * g
        hs[:, t + 1] = o * np.tanh(cs[:, t + 1])
    return hs[:, 1:]


class TestFeatureMajorLayout:
    """The kernels work on (T, 4H, B) gates; the (B, T, ...) shapes they take and give stay as they were."""

    @pytest.mark.parametrize("n_in", [15, 19, 50])
    def test_float64_forward_gives_the_bits_of_the_batch_major_order(self, n_in):
        """At the training batch of 32 windows of 5 steps, each product sums the same terms as the
        batch-major one, and the in-place sigmoid 0.5*tanh(0.5a)+0.5 rounds as 0.5*(1+tanh(a/2))."""
        rng = np.random.default_rng(n_in)
        cell = nn.LstmCell.init(rng, n_in, 50)
        cell.b_gates[:] = rng.normal(size=200)
        x = rng.normal(size=(32, 5, n_in)) * 3.0
        hs, _ = nn.lstm_sequence_forward(cell, x)
        assert hs.shape == (32, 5, 50)
        np.testing.assert_array_equal(hs, batch_major_forward(cell, x))

    def test_hidden_states_are_a_view_the_next_layer_reads_in_its_own_layout(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 5, 3))
        hs, cache = nn.lstm_sequence_forward(nn.LstmCell.init(rng, 3, 4), x)
        assert np.shares_memory(hs, cache.h)
        _, upper = nn.lstm_sequence_forward(nn.LstmCell.init(rng, 4, 4), nn.relu(hs))
        assert upper.x.shape == (5, 4, 8) and upper.x.flags.c_contiguous

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_without_the_input_gradient_gives_the_same_weight_gradients(self, dtype):
        rng = np.random.default_rng(2)
        cell = nn.LstmCell.init(rng, 15, 50)
        cell = nn.LstmCell(cell.w_gates.astype(dtype), cell.b_gates.astype(dtype))
        hs, cache = nn.lstm_sequence_forward(cell, rng.normal(size=(32, 5, 15)).astype(dtype))
        d_hs = rng.normal(size=hs.shape).astype(dtype)
        d_x, d_w, d_b = nn.lstm_sequence_backward(cell, cache, d_hs)
        assert d_x.shape == (32, 5, 15)
        skipped, d_w_alone, d_b_alone = nn.lstm_sequence_backward(cell, cache, d_hs, input_grad=False)
        assert skipped is None
        np.testing.assert_array_equal(d_w_alone, d_w)
        np.testing.assert_array_equal(d_b_alone, d_b)


class TestAdam:
    def test_zero_gradient_is_noop(self):
        theta = np.array([1.0, -2.0])
        nn.adam_step(nn.AdamState(), theta, np.zeros(2))
        np.testing.assert_array_equal(theta, [1.0, -2.0])

    def test_first_step_is_signed_learning_rate(self):
        theta = np.array([0.5])
        nn.adam_step(nn.AdamState(), theta, np.array([3.0]))
        assert theta[0] == pytest.approx(0.5 - 0.001, abs=1e-6)

    def test_deterministic_from_snapshot(self):
        thetas = [np.array([1.0, 2.0]), np.array([1.0, 2.0])]
        grad = np.array([0.3, -0.7])
        s1 = nn.AdamState(t=3, moments=np.array([[0.1, 0.1], [0.2, 0.2]]))
        s2 = copy.deepcopy(s1)
        decay = np.full(2, 0.01)
        nn.adam_step(s1, thetas[0], grad, decay)
        nn.adam_step(s2, thetas[1], grad, decay)
        np.testing.assert_array_equal(thetas[0], thetas[1])
        np.testing.assert_array_equal(s1.moments, s2.moments)

    def test_decay_mask_limits_l2(self):
        theta = np.array([1.0, 1.0])
        nn.adam_step(nn.AdamState(), theta, np.zeros(2), np.array([0.5, 0.0]))
        assert theta[0] < 1.0  # decayed
        assert theta[1] == 1.0  # no decay coefficient

    def test_shape_mismatch(self):
        with pytest.raises(BadArgument, match="^gradient shape"):
            nn.adam_step(nn.AdamState(), np.zeros(2), np.zeros(3))
        with pytest.raises(BadArgument, match="^gradient shape .* of a flat vector$"):
            nn.adam_step(nn.AdamState(), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_in_place_update_gives_the_bits_of_the_written_out_rule(self):
        # the out-of-place rule, written out per tensor and step, at the shapes of a 2-layer LSTM with a
        # masked decay; the kernel runs on the tensors packed in sorted-name order into one vector
        b1, b2, eps, alpha, l2 = 0.9, 0.999, 1e-8, 0.001, 0.01
        rng = np.random.default_rng(5)
        shapes = {"layer0_w": (200, 65), "layer0_b": (200,), "layer1_w": (200, 100), "head_w": (2, 50)}
        names = sorted(shapes)
        masks = {name: (rng.random(s) < 0.5).astype(float) for name, s in shapes.items() if name.endswith("_w")}
        params = {name: rng.normal(size=s) for name, s in shapes.items()}

        def pack(arrays):
            return np.concatenate([arrays[name].reshape(-1) for name in names])

        theta = pack(params)
        decay = pack({name: l2 * masks[name] if name in masks else np.zeros(shapes[name]) for name in names})
        decay_seen = decay.copy()
        want = dict(params)
        want_m = {name: np.zeros(s) for name, s in shapes.items()}
        want_v = {name: np.zeros(s) for name, s in shapes.items()}
        state = nn.AdamState(alpha=alpha)
        for t in range(1, 201):
            grads = {name: rng.normal(size=s) for name, s in shapes.items()}
            grad = pack(grads)
            grad_seen = grad.copy()
            nn.adam_step(state, theta, grad, decay)
            np.testing.assert_array_equal(grad, grad_seen)  # neither input is written to
            np.testing.assert_array_equal(decay, decay_seen)
            for name in names:
                g = grads[name] + l2 * masks[name] * want[name] if name in masks else grads[name]
                want_m[name] = b1 * want_m[name] + (1.0 - b1) * g
                want_v[name] = b2 * want_v[name] + (1.0 - b2) * (g * g)
                m_hat = want_m[name] / (1.0 - b1**t)
                v_hat = want_v[name] / (1.0 - b2**t)
                want[name] = want[name] - alpha * m_hat / (np.sqrt(v_hat) + eps)
        assert state.t == 200
        np.testing.assert_array_equal(theta, pack(want))
        np.testing.assert_array_equal(state.moments, [pack(want_m), pack(want_v)])


class TestGradCheck:
    def test_quadratic(self):
        def loss_and_grad(params):
            w = params["w"]
            return float(w @ w), {"w": 2 * w}

        err = nn.grad_check(loss_and_grad, {"w": np.array([0.3, -1.2, 2.0])}, h=1e-5)
        assert err <= 1e-7
