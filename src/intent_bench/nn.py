"""Minimal deterministic neural-network kernel.

Every kernel follows its input's dtype: float64 inputs give float64 results,
and float32 inputs give float32 results, zeros, gradients and Adam moments.
The trainers in `models` cast once and train in float32.

LSTM layers with hand-written backpropagation through time. The layers take
and give (B, T, ...) arrays but work feature-major inside: gates are
(T, 4H, B) and states (T + 1, H, B), so every gate block of a step is one
contiguous (H, B) array, each step's work runs in place in buffers made once
per call, and the hidden states come back as a (B, T, H) view that the next
layer reads in its own layout. The input product and the weight gradient are
each one product over all steps; only the recurrent product runs per step.
Also: batched softmax cross-entropy against one-hot target rows, Adam on one
flat parameter vector updated in place (its two moments share one (2, N)
buffer, and L2 decay is a per-element coefficient vector), and
central-difference gradient verification.
All randomness flows through numpy Generators seeded by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BadArgument

Params = dict  # name -> np.ndarray


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, x)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """(N, K) rows of `dtype`: 1 in each label's column, 0 elsewhere."""
    return np.eye(num_classes, dtype=dtype)[labels]


def batch_softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE of (B, K) logits against one-hot (B, K) target rows in the logits' dtype.

    The gradient is already divided by the batch size: exp(z - lse), minus 1 at
    the target, over B, where z is the logits less their row maximum. The
    targets are not checked here: every trainer checks its labels once per fit.
    """
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    z -= np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))  # log-probabilities
    batch = logits.shape[0]
    loss = -float(np.vdot(z, targets)) / batch
    np.exp(z, out=z)
    z -= targets
    z /= batch
    return loss, z


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


class _LstmCache(NamedTuple):
    """What `lstm_sequence_backward` reads of a forward pass, all feature-major."""

    x: np.ndarray  # (T, X, B) view of the input
    h: np.ndarray  # (T + 1, H, B) hidden states from the zero state
    c: np.ndarray  # (T + 1, H, B) cell states from the zero state
    gates: np.ndarray  # (T, 4H, B) gate activations
    tanh_c: np.ndarray  # (T, H, B) tanh of c[1:]


def lstm_sequence_forward(cell: LstmCell, x: np.ndarray):
    """Run the cell over x of shape (B, T, X) from zero state; return (hs, cache).

    The kernel works feature-major: gates are (T, 4H, B) and states (T + 1, H, B),
    so each gate block of a step is one contiguous (H, B) array. W_x x + b is one
    call over all T steps; each step after the first adds W_h h. hs is a
    (B, T, H) view of the states, which the next layer reads with no copy.
    """
    if x.shape[-1] != cell.input_size:
        raise BadArgument(f"sequence width {x.shape[-1]} does not match cell input {cell.input_size}")
    batch, steps, n_in = x.shape
    hidden = cell.hidden_size
    sig = 3 * hidden  # the sigmoid rows (i, f, o); tanh rows (g) follow
    xs = x.transpose(1, 2, 0)
    gates = np.matmul(cell.w_gates[:, :n_in], xs)
    gates += cell.b_gates[:, None]
    w_h = cell.w_gates[:, n_in:]
    h = np.zeros((steps + 1, hidden, batch), dtype=gates.dtype)
    c = np.zeros_like(h)
    tanh_c = np.empty_like(h[1:])
    rec = np.empty_like(gates[0])
    f_c = np.empty_like(h[0])
    for t in range(steps):
        acts = gates[t]
        if t:  # h is zero at t = 0
            np.matmul(w_h, h[t], out=rec)
            acts += rec
        ifo = acts[:sig]
        ifo *= 0.5  # sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5, in place; tanh saturates, so nothing overflows
        np.tanh(acts, out=acts)
        ifo *= 0.5
        ifo += 0.5
        i, f, o, g = acts.reshape(4, hidden, batch)
        np.multiply(i, g, out=c[t + 1])
        if t:
            np.multiply(f, c[t], out=f_c)
            c[t + 1] += f_c
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=h[t + 1])
    return h[1:].transpose(2, 0, 1), _LstmCache(xs, h, c, gates, tanh_c)


def lstm_sequence_backward(cell: LstmCell, cache: _LstmCache, d_hs: np.ndarray, input_grad: bool = True):
    """Backpropagate through time given gradients on every hidden output.

    The gate-gradient factors that do not depend on dh or dc are computed once
    over all steps, so the loop carries only dh, dc and the recurrent product.
    dW and db are one product each over all steps, and d_x one call. Returns
    (d_x of shape (B, T, X), dW, db); d_x is None when `input_grad` is false.
    """
    x, h, c, gates, tanh_c = cache
    steps, n_in, batch = x.shape
    hidden = cell.hidden_size
    sig = 3 * hidden
    i, f, o, g = (gates[:, k * hidden : (k + 1) * hidden] for k in range(4))
    # d_gates[t] = (dc, dc, dh, dc) * factors[t], block by block (i, f, o, g)
    factors = np.empty_like(gates)
    np.subtract(1.0, gates[:, :sig], out=factors[:, :sig])
    factors[:, :sig] *= gates[:, :sig]
    factors[:, :hidden] *= g
    factors[:, hidden : 2 * hidden] *= c[:-1]
    factors[:, 2 * hidden : sig] *= tanh_c
    np.multiply(g, g, out=factors[:, sig:])
    np.subtract(1.0, factors[:, sig:], out=factors[:, sig:])
    factors[:, sig:] *= i
    dc_dh = tanh_c * tanh_c  # dc = dh * o * (1 - tanh(c)^2) + the carry from step t + 1
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    d_hs = np.ascontiguousarray(d_hs.transpose(1, 2, 0))
    w_h_t = cell.w_gates[:, n_in:].T
    d_gates = np.empty_like(gates)
    dh_sum, dc, carry, rec = (np.empty_like(h[0]) for _ in range(4))
    for t in range(steps - 1, -1, -1):
        last = t == steps - 1
        dh = d_hs[t] if last else np.add(d_hs[t], rec, out=dh_sum)
        np.multiply(dh, dc_dh[t], out=dc)
        if not last:
            dc += carry
        d_i, d_f, d_o, d_g = d_gates[t].reshape(4, hidden, batch)
        f_i, f_f, f_o, f_g = factors[t].reshape(4, hidden, batch)
        np.multiply(f_i, dc, out=d_i)
        np.multiply(f_f, dc, out=d_f)
        np.multiply(f_o, dh, out=d_o)
        np.multiply(f_g, dc, out=d_g)
        if t:
            np.multiply(dc, f[t], out=carry)
            np.matmul(w_h_t, d_gates[t], out=rec)
    d_flat = d_gates.transpose(1, 0, 2).reshape(4 * hidden, steps * batch)
    z = np.empty((n_in + hidden, steps, batch), dtype=gates.dtype)
    z[:n_in] = x.transpose(1, 0, 2)
    z[n_in:] = h[:-1].transpose(1, 0, 2)
    d_w = d_flat @ z.reshape(n_in + hidden, -1).T
    d_x = np.matmul(cell.w_gates[:, :n_in].T, d_gates).transpose(2, 0, 1) if input_grad else None
    return d_x, d_w, d_flat @ np.ones(steps * batch, dtype=d_flat.dtype)


# --- Adam -----------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Step count and moments of one flat parameter vector; the betas and eps are the ADAM_* constants.

    `moments` is (2, N): row 0 the first moment m, row 1 the second moment v.
    """

    alpha: float = 0.001
    t: int = 0
    moments: np.ndarray | None = None
    _work: np.ndarray | None = field(default=None, repr=False)  # (2, N) scratch
    _rates: np.ndarray | None = field(default=None, repr=False)  # (2, 3): beta, 1 - beta, 1 - beta**t


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray, decay: np.ndarray | None = None) -> None:
    """One bias-corrected Adam update of the flat (N,) vector `theta`, in place.

    The effective gradient is grad + decay * theta, where `decay` holds each
    element's L2 coefficient (zero where no decay applies). Updates `theta`
    and `state` (moments and step count); `grad` and `decay` are left as they
    are, and the step allocates nothing once the moments exist. Each element
    goes through the operations of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g², theta - alpha*m_hat/(sqrt(v_hat)+eps)
    in that order, so m and v sharing one (2, N) buffer gives the same bits as
    the rule applied tensor by tensor.
    """
    if theta.ndim != 1 or grad.shape != theta.shape:
        raise BadArgument(f"gradient shape {grad.shape} != parameter shape {theta.shape} of a flat vector")
    if state.moments is None:
        state.moments = np.zeros((2, theta.size), dtype=theta.dtype)
    if state._work is None:
        state._work = np.empty_like(state.moments)
        # 1 - beta in Python floats, then cast: the rounding of the scalar rule
        state._rates = np.array([[ADAM_BETA1, 1.0 - ADAM_BETA1, 0.0], [ADAM_BETA2, 1.0 - ADAM_BETA2, 0.0]],
                                dtype=state.moments.dtype)
    state.t += 1
    rates, work, moments = state._rates, state._work, state.moments
    rates[0, 2] = 1.0 - ADAM_BETA1**state.t
    rates[1, 2] = 1.0 - ADAM_BETA2**state.t
    g, g2 = work
    if decay is None:
        np.copyto(g, grad)
    else:
        np.multiply(decay, theta, out=g)
        np.add(grad, g, out=g)
    np.multiply(g, g, out=g2)
    moments *= rates[:, :1]
    work *= rates[:, 1:2]
    moments += work
    np.divide(moments, rates[:, 2:], out=work)  # m_hat, v_hat
    step, denom = work
    step *= state.alpha
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    theta -= step


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
