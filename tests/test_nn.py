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
        model = MlpModel(params=params, cfg=MlpConfig(input_width=3, hidden=(), output=2))
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
    loss, grad = nn.batch_softmax_cross_entropy(np.asarray(logits, dtype=float)[None, :], np.array([target]))
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


class TestLstmCell:
    def _zero_cell(self, n_in=3, hidden=4):
        return nn.LstmCell(w_gates=np.zeros((4 * hidden, n_in + hidden)), b_gates=np.zeros(4 * hidden))

    def test_zero_weights_zero_state(self):
        hs, (_, _, _, cs) = nn.lstm_sequence_forward(self._zero_cell(), np.ones((2, 4, 3)))
        np.testing.assert_array_equal(hs, np.zeros((2, 4, 4)))
        np.testing.assert_array_equal(cs, np.zeros((2, 5, 4)))

    def test_saturated_forget_gate_preserves_cell(self):
        hidden = 4
        cell = self._zero_cell(hidden=hidden)
        cell.b_gates[hidden : 2 * hidden] = 50.0  # forget ~ 1
        cell.w_gates[3 * hidden :, 0] = [0.3, -0.5, 0.8, 0.1]  # candidate reads x[0]
        x = np.zeros((1, 6, 3))
        x[0, 0] = 1.0  # the candidate input writes the cell once, then goes to 0
        hs, (_, _, _, cs) = nn.lstm_sequence_forward(cell, x)
        assert np.all(cs[0, 1] != 0.0)
        np.testing.assert_allclose(cs[0, 2:], np.broadcast_to(cs[0, 1], (5, hidden)), rtol=1e-9)
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


class TestAdam:
    def test_zero_gradient_is_noop(self):
        state = nn.AdamState()
        params = {"w": np.array([1.0, -2.0])}
        out = nn.adam_step(state, params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(out["w"], params["w"])

    def test_first_step_is_signed_learning_rate(self):
        state = nn.AdamState()
        out = nn.adam_step(state, {"w": np.array([0.5])}, {"w": np.array([3.0])})
        assert out["w"][0] == pytest.approx(0.5 - 0.001, abs=1e-6)

    def test_deterministic_from_snapshot(self):
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([0.3, -0.7])}
        s1 = nn.AdamState(t=3, m={"w": np.array([0.1, 0.1])}, v={"w": np.array([0.2, 0.2])})
        s2 = copy.deepcopy(s1)
        decay = {"w": np.ones(2)}
        out1 = nn.adam_step(s1, params, grads, l2=0.01, decay_masks=decay)
        out2 = nn.adam_step(s2, params, grads, l2=0.01, decay_masks=decay)
        np.testing.assert_array_equal(out1["w"], out2["w"])

    def test_decay_mask_limits_l2(self):
        params = {"w": np.array([[1.0, 1.0]])}
        grads = {"w": np.zeros((1, 2))}
        mask = {"w": np.array([[1.0, 0.0]])}
        out = nn.adam_step(nn.AdamState(), params, grads, l2=0.5, decay_masks=mask)
        assert out["w"][0, 0] < 1.0  # decayed
        assert out["w"][0, 1] == 1.0  # masked out

    def test_shape_mismatch(self):
        with pytest.raises(BadArgument, match="^gradient shape"):
            nn.adam_step(nn.AdamState(), {"w": np.zeros(2)}, {"w": np.zeros(3)})

    def test_in_place_update_gives_the_bits_of_the_written_out_rule(self):
        # the out-of-place rule, written out per step, at the shapes of a 2-layer LSTM with a masked decay
        b1, b2, eps, alpha, l2 = 0.9, 0.999, 1e-8, 0.001, 0.01
        rng = np.random.default_rng(5)
        shapes = {"layer0_w": (200, 65), "layer0_b": (200,), "layer1_w": (200, 100), "head_w": (2, 50)}
        masks = {name: (rng.random(s) < 0.5).astype(float) for name, s in shapes.items() if name.endswith("_w")}
        params = {name: rng.normal(size=s) for name, s in shapes.items()}
        want = dict(params)
        want_m = {name: np.zeros(s) for name, s in shapes.items()}
        want_v = {name: np.zeros(s) for name, s in shapes.items()}
        state = nn.AdamState(alpha=alpha)
        for t in range(1, 201):
            grads = {name: rng.normal(size=s) for name, s in shapes.items()}
            seen = {name: (params[name].copy(), grads[name].copy()) for name in shapes}
            new = nn.adam_step(state, params, grads, l2=l2, decay_masks=masks)
            for name in shapes:  # neither input is written to
                np.testing.assert_array_equal(params[name], seen[name][0])
                np.testing.assert_array_equal(grads[name], seen[name][1])
            for name in sorted(shapes):
                g = grads[name] + l2 * masks[name] * want[name] if name in masks else grads[name]
                want_m[name] = b1 * want_m[name] + (1.0 - b1) * g
                want_v[name] = b2 * want_v[name] + (1.0 - b2) * (g * g)
                m_hat = want_m[name] / (1.0 - b1**t)
                v_hat = want_v[name] / (1.0 - b2**t)
                want[name] = want[name] - alpha * m_hat / (np.sqrt(v_hat) + eps)
            params = new
        for name in shapes:
            np.testing.assert_array_equal(params[name], want[name])
            np.testing.assert_array_equal(state.m[name], want_m[name])
            np.testing.assert_array_equal(state.v[name], want_v[name])


class TestGradCheck:
    def test_quadratic(self):
        def loss_and_grad(params):
            w = params["w"]
            return float(w @ w), {"w": 2 * w}

        err = nn.grad_check(loss_and_grad, {"w": np.array([0.3, -1.2, 2.0])}, h=1e-5)
        assert err <= 1e-7
