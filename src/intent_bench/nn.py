"""Minimal deterministic neural-network kernel in double precision.

LSTM layers with hand-written backpropagation through time, batched softmax
cross-entropy, Adam with optional masked L2 weight decay, and central-difference
gradient verification. All randomness flows through numpy Generators seeded by
the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadTarget, ShapeMismatch

Params = dict  # name -> np.ndarray


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign for stability on large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def batch_softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE over rows; gradient already divided by the batch size."""
    targets = np.asarray(targets)
    if np.any(targets < 0) or np.any(targets >= logits.shape[1]):
        raise BadTarget("target index outside logit width")
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


def _cell_step(cell: LstmCell, x: np.ndarray, h: np.ndarray, c: np.ndarray):
    hidden = cell.hidden_size
    z = np.concatenate([x, h], axis=-1)
    acts = z @ cell.w_gates.T + cell.b_gates
    i = sigmoid(acts[..., :hidden])
    f = sigmoid(acts[..., hidden : 2 * hidden])
    o = sigmoid(acts[..., 2 * hidden : 3 * hidden])
    g = np.tanh(acts[..., 3 * hidden :])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    cache = (z, i, f, o, g, c, c_new, tanh_c)
    return h_new, c_new, cache


def lstm_sequence_forward(cell: LstmCell, x: np.ndarray):
    """Run the cell over x of shape (B, T, X) from zero state.

    Returns the hidden sequence (B, T, H) and per-step caches for backward.
    """
    if x.shape[-1] != cell.input_size:
        raise ShapeMismatch(f"sequence width {x.shape[-1]} does not match cell input {cell.input_size}")
    batch, steps, _ = x.shape
    hidden = cell.hidden_size
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    hs = np.empty((batch, steps, hidden))
    caches = []
    for t in range(steps):
        h, c, cache = _cell_step(cell, x[:, t, :], h, c)
        hs[:, t, :] = h
        caches.append(cache)
    return hs, caches


def lstm_sequence_backward(cell: LstmCell, caches, d_hs: np.ndarray):
    """Backpropagate through time given gradients on every hidden output.

    Returns (d_x of shape (B, T, X), dW, db).
    """
    hidden = cell.hidden_size
    n_in = cell.input_size
    batch, steps, _ = d_hs.shape
    d_x = np.empty((batch, steps, n_in))
    d_w = np.zeros_like(cell.w_gates)
    d_b = np.zeros_like(cell.b_gates)
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        z, i, f, o, g, c_prev, _c_new, tanh_c = caches[t]
        dh = d_hs[:, t, :] + dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_next = dc * f
        d_acts = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg * (1.0 - g * g),
            ],
            axis=-1,
        )
        d_w += d_acts.T @ z
        d_b += d_acts.sum(axis=0)
        dz = d_acts @ cell.w_gates
        d_x[:, t, :] = dz[:, :n_in]
        dh_next = dz[:, n_in:]
    return d_x, d_w, d_b


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
    Mutates `state` (moment accumulators and step count) and returns the new
    parameter dict. Deterministic: iteration follows sorted parameter names.
    """
    state.t += 1
    out = {}
    for name in sorted(params):
        theta = params[name]
        g = grads[name]
        if g.shape != theta.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != parameter shape {theta.shape} for '{name}'")
        if l2 > 0.0 and decay_masks is not None and name in decay_masks:
            g = g + l2 * decay_masks[name] * theta
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(theta), np.zeros_like(theta)
        m = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - state.beta1 ** state.t)
        v_hat = v / (1.0 - state.beta2 ** state.t)
        out[name] = theta - state.alpha * m_hat / (np.sqrt(v_hat) + state.eps)
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
