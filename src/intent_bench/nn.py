"""Minimal deterministic neural-network kernel.

Every kernel follows its input's dtype: float64 inputs give float64 results,
and float32 inputs give float32 results, zeros, gradients and Adam moments.
The trainers in `models` cast once and train in float32.

LSTM layers with hand-written backpropagation through time (the input product
and the W/b/x gradients are each one product over all steps; only the
recurrent product runs per step), batched softmax cross-entropy, Adam with
optional masked L2 weight decay, and central-difference gradient verification.
All randomness flows through numpy Generators seeded by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadArgument

Params = dict  # name -> np.ndarray


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(x / 2.0))  # tanh saturates, so no exp can overflow


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def batch_softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE over rows; gradient already divided by the batch size.

    The targets are not checked here: every trainer checks its labels once per fit.
    """
    z = logits - np.max(logits, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1))
    rows = np.arange(logits.shape[0])
    loss = float(np.mean(lse - z[rows, targets]))
    p = np.exp(z - lse[:, None])
    p[rows, targets] -= 1.0
    return loss, p / logits.shape[0]


# --- LSTM cell ------------------------------------------------------------

# Combined gate matrix rows are ordered (input, forget, output, candidate);
# columns span [x, h_prev].


@dataclass
class LstmCell:
    w_gates: np.ndarray  # (4H, X + H)
    b_gates: np.ndarray  # (4H,)

    @property
    def hidden_size(self) -> int:
        return self.b_gates.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w_gates.shape[1] - self.hidden_size

    @classmethod
    def init(cls, rng: np.random.Generator, n_in: int, hidden: int) -> "LstmCell":
        blocks = [glorot_uniform(rng, n_in + hidden, hidden, (hidden, n_in + hidden)) for _ in range(4)]
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0  # forget-gate bias, keeps early memory alive
        return cls(w_gates=np.vstack(blocks), b_gates=b)


def lstm_sequence_forward(cell: LstmCell, x: np.ndarray):
    """Run the cell over x of shape (B, T, X) from zero state; return (hs, cache).

    x @ W_x^T + b is one product over all T steps; each step adds h @ W_h^T.
    hs is (B, T, H); the cache holds x, the hidden and cell states (B, T + 1, H)
    from the zero state, and the gate activations (B, T, 4H).
    """
    if x.shape[-1] != cell.input_size:
        raise BadArgument(f"sequence width {x.shape[-1]} does not match cell input {cell.input_size}")
    batch, steps, n_in = x.shape
    hidden = cell.hidden_size
    w_h = cell.w_gates[:, n_in:]
    gates = (x.reshape(-1, n_in) @ cell.w_gates[:, :n_in].T + cell.b_gates).reshape(batch, steps, 4 * hidden)
    hs = np.zeros((batch, steps + 1, hidden), dtype=gates.dtype)
    cs = np.zeros_like(hs)
    for t in range(steps):
        acts = gates[:, t]
        acts += hs[:, t] @ w_h.T
        acts[:, : 3 * hidden] = sigmoid(acts[:, : 3 * hidden])
        acts[:, 3 * hidden :] = np.tanh(acts[:, 3 * hidden :])
        i, f, o, g = acts.reshape(batch, 4, hidden).swapaxes(0, 1)  # views of the four gate blocks
        cs[:, t + 1] = f * cs[:, t] + i * g
        hs[:, t + 1] = o * np.tanh(cs[:, t + 1])
    return hs[:, 1:], (x, hs, gates, cs)


def lstm_sequence_backward(cell: LstmCell, cache, d_hs: np.ndarray):
    """Backpropagate through time given gradients on every hidden output.

    The loop carries only the gate gradients and the recurrent dh/dc; dW, db
    and d_x are each one product or sum over all steps afterwards. Returns
    (d_x of shape (B, T, X), dW, db).
    """
    x, hs, gates, cs = cache
    batch, steps, n_in = x.shape
    sig = 3 * cell.hidden_size  # width of the sigmoid block (i, f, o)
    w_h = cell.w_gates[:, n_in:]
    tanh_c = np.tanh(cs[:, 1:])
    d_gates = np.empty_like(gates)
    dh = np.zeros_like(hs[:, 0])
    dc = np.zeros_like(cs[:, 0])
    for t in range(steps - 1, -1, -1):
        i, f, o, g = gates[:, t].reshape(batch, 4, -1).swapaxes(0, 1)
        dh = d_hs[:, t] + dh
        dc = dh * o * (1.0 - tanh_c[:, t] * tanh_c[:, t]) + dc
        ifo = gates[:, t, :sig]
        d_gates[:, t, :sig] = np.concatenate([dc * g, dc * cs[:, t], dh * tanh_c[:, t]], axis=-1) * ifo * (1.0 - ifo)
        d_gates[:, t, sig:] = dc * i * (1.0 - g * g)
        dc = dc * f
        dh = d_gates[:, t] @ w_h
    d_flat = d_gates.reshape(batch * steps, -1)
    d_w = d_flat.T @ np.concatenate([x, hs[:, :-1]], axis=-1).reshape(batch * steps, -1)
    d_x = (d_flat @ cell.w_gates[:, :n_in]).reshape(batch, steps, n_in)
    return d_x, d_w, d_flat.sum(axis=0)


# --- Adam -----------------------------------------------------------------


@dataclass
class AdamState:
    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)


def adam_step(
    state: AdamState,
    params: Params,
    grads: Params,
    l2: float = 0.0,
    decay_masks: dict | None = None,
) -> Params:
    """One bias-corrected Adam update with L2 folded into the gradient.

    The effective gradient is g + l2 * mask * theta on the parameters named in
    `decay_masks` (name -> 0/1 array), so the decay can cover a subset of a
    tensor, e.g. the input-kernel columns of a recurrent layer.
    Updates `state` in place (moment accumulators and step count) and returns
    the new parameter dict; `params` and `grads` are left as they are. Each
    element goes through the operations of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g², theta - alpha*m_hat/(sqrt(v_hat)+eps)
    in that order, so the in-place form gives the same bits.
    Deterministic: iteration follows sorted parameter names.
    """
    state.t += 1
    m_correction = 1.0 - state.beta1**state.t
    v_correction = 1.0 - state.beta2**state.t
    out = {}
    for name in sorted(params):
        theta = params[name]
        g = grads[name]
        if g.shape != theta.shape:
            raise BadArgument(f"gradient shape {g.shape} != parameter shape {theta.shape} for '{name}'")
        if l2 > 0.0 and decay_masks is not None and name in decay_masks:
            g = g + l2 * decay_masks[name] * theta
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(theta), np.zeros_like(theta)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        step = m / m_correction
        step *= state.alpha
        denom = v / v_correction
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        out[name] = theta - step
    return out


# --- verification ----------------------------------------------------------


def grad_check(loss_and_grad, params: Params, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_and_grad(params)` must return (loss, grads) deterministically; only
    the loss is used for the finite differences.
    """
    _, analytic = loss_and_grad(params)
    worst = 0.0
    for name, theta in params.items():
        flat = theta.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            bumped = dict(params)
            work = theta.copy()
            bumped[name] = work
            work.reshape(-1)[idx] = orig + h
            plus, _ = loss_and_grad(bumped)
            work.reshape(-1)[idx] = orig - h
            minus, _ = loss_and_grad(bumped)
            numeric = (plus - minus) / (2.0 * h)
            rel = abs(a_flat[idx] - numeric) / max(abs(a_flat[idx]), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
