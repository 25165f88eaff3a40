"""Independent naive references for the 11 time-domain features, the LSTM layer, the SVM and the CSV loaders.

The features use pure-python loops, math.fsum and an exact mean, written
separately from the library so the two paths share no code. Order matches the
canonical feature order. The LSTM layer runs one cell step at a time on the
concatenated [x, h] input and accumulates the weight gradients step by step.
The one-vs-rest SVM trains one class at a time. The dataset CSV loaders
parse one row at a time with `csv` and Python's `float`, checking each row
as it is read.
"""

import csv
import math
from fractions import Fraction

import numpy as np

from intent_bench.dataset import Direction, ResistanceTrace, TaskShape, _check_hit_times
from intent_bench.errors import (
    InvalidConfig,
    IoError,
    MissingColumn,
    NonMonotonicTimestamp,
    NonNumericValue,
    RowWidthMismatch,
)

LOG_EPS = 1e-12


def naive_features(xs):
    xs = [float(v) for v in xs]
    n = len(xs)
    assert n >= 2

    iav = math.fsum(abs(v) for v in xs)
    mav = iav / n

    def w1(i):
        return 1.0 if 0.25 * n <= i <= 0.75 * n else 0.5

    def w2(i):
        if 0.25 * n <= i <= 0.75 * n:
            return 1.0
        if i < 0.25 * n:
            return 4.0 * i / n
        return 4.0 * (i - n) / n

    mmav1 = math.fsum(w1(i) * abs(v) for i, v in enumerate(xs, start=1)) / n
    mmav2 = math.fsum(w2(i) * abs(v) for i, v in enumerate(xs, start=1)) / n
    ssi = math.fsum(v * v for v in xs)
    # deviations from the exact mean: a rounded mean would make the central
    # moments of a window whose samples differ by a few ulps rounding noise
    mu = sum(map(Fraction, xs)) / n
    dev = [float(Fraction(v) - mu) for v in xs]
    var = math.fsum(d * d for d in dev) / (n - 1)
    rms = math.sqrt(ssi / n)
    wl = math.fsum(abs(b - a) for a, b in zip(xs, xs[1:]))
    log = math.fsum(math.log10(max(abs(v), LOG_EPS)) for v in xs) / n
    m2 = math.fsum(d * d for d in dev) / n
    m3 = math.fsum(d ** 3 for d in dev) / n
    m4 = math.fsum(d ** 4 for d in dev) / n
    skew = m3 / m2**1.5
    kurt = m4 / var**2
    return [iav, mav, mmav1, mmav2, ssi, var, rms, wl, log, skew, kurt]


def _split_sigmoid(x):
    # split by sign so neither branch calls exp on a large positive argument
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def naive_lstm_forward(w_gates, b_gates, x):
    """Per-step LSTM over x (B, T, X) from zero state; gate rows ordered (i, f, o, g)."""
    hidden = b_gates.shape[0] // 4
    batch, steps, _ = x.shape
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    hs = np.empty((batch, steps, hidden))
    caches = []
    for t in range(steps):
        z = np.concatenate([x[:, t, :], h], axis=-1)
        acts = z @ w_gates.T + b_gates
        i = _split_sigmoid(acts[:, :hidden])
        f = _split_sigmoid(acts[:, hidden : 2 * hidden])
        o = _split_sigmoid(acts[:, 2 * hidden : 3 * hidden])
        g = np.tanh(acts[:, 3 * hidden :])
        c_prev = c
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        hs[:, t, :] = h
        caches.append((z, i, f, o, g, c_prev, tanh_c))
    return hs, caches


def naive_lstm_backward(w_gates, caches, d_hs):
    """Returns (d_x, dW, db) of naive_lstm_forward given gradients on every hidden output."""
    batch, steps, hidden = d_hs.shape
    n_in = w_gates.shape[1] - hidden
    d_x = np.empty((batch, steps, n_in))
    d_w = np.zeros_like(w_gates)
    d_b = np.zeros(w_gates.shape[0])
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        z, i, f, o, g, c_prev, tanh_c = caches[t]
        dh = d_hs[:, t, :] + dh_next
        dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
        d_acts = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dh * tanh_c * o * (1.0 - o),
                dc * i * (1.0 - g * g),
            ],
            axis=-1,
        )
        dc_next = dc * f
        d_w += d_acts.T @ z
        d_b += d_acts.sum(axis=0)
        dz = d_acts @ w_gates
        d_x[:, t, :] = dz[:, :n_in]
        dh_next = dz[:, n_in:]
    return d_x, d_w, d_b


def naive_svm(x, y, num_classes, lam, epochs, batch_size, seed):
    """One-vs-rest Pegasos, one class after another within each batch.

    Each epoch draws one permutation of the rows from the seeded generator and
    walks it in batches; step s has size 1 / (lam * s) and the bias is not
    regularized. Returns the weights (K, d), the biases (K,) and the number of
    (batch, class) steps that had no margin violator.
    """
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    w = np.zeros((num_classes, x.shape[1]))
    b = np.zeros(num_classes)
    step = idle = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            step += 1
            eta = 1.0 / (lam * step)
            xb = x[idx]
            for c in range(num_classes):
                t = np.where(y[idx] == c, 1.0, -1.0)
                viol = t * (xb @ w[c] + b[c]) < 1.0
                w[c] *= 1.0 - eta * lam
                if viol.any():
                    scale = eta / max(1, viol.sum())
                    w[c] += scale * (t[viol] @ xb[viol])
                    b[c] += scale * t[viol].sum()
                else:
                    idle += 1
    return w, b, idle


# --- per-row CSV loaders ---------------------------------------------------


def _rows(path, required):
    """Yield the column index by name, then (file row number, row) of each data row."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise MissingColumn(f"{path}: empty file")
        idx = {name: i for i, name in enumerate(header)}
        for name in required:
            if name not in idx:
                raise MissingColumn(f"{path}: missing column '{name}'")
        yield idx
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise RowWidthMismatch(f"{path}: row {row_no} has {len(row)} fields, header has {len(header)}")
            yield row_no, row


def _float(raw, row):
    try:
        value = float(raw)
    except ValueError:
        raise NonNumericValue(row, f"cannot parse '{raw}' as a number at file row {row}") from None
    if not math.isfinite(value):
        raise NonNumericValue(row, f"non-finite value '{raw}' at file row {row}")
    return value


def _shape(raw, row):
    try:
        return TaskShape(raw)
    except ValueError:
        raise NonNumericValue(row, f"unknown shape '{raw}' at file row {row}") from None


def _hit(raw, row):
    value = _float(raw, row)
    if not value.is_integer():
        raise NonNumericValue(row, f"hit_index '{raw}' is not an integer at file row {row}")
    return int(value)


def naive_load_resistance_csv(path):
    grouped = {}
    rows = _rows(path, ("participant_id", "shape", "timestamp_ms", "resistance_ohm"))
    idx = next(rows)
    for row_no, row in rows:
        pid = row[idx["participant_id"]]
        shape = _shape(row[idx["shape"]], row_no)
        t = _float(row[idx["timestamp_ms"]], row_no)
        r = _float(row[idx["resistance_ohm"]], row_no)
        times, values = grouped.setdefault((pid, shape), ([], []))
        if times and t < times[-1]:
            raise NonMonotonicTimestamp(row_no)
        times.append(t)
        values.append(r)
    return [ResistanceTrace(pid, shape, np.asarray(ts), np.asarray(vs)) for (pid, shape), (ts, vs) in grouped.items()]


def _check_hit_numbers(path, key, hits):
    """The rows of one task must number hits 1..40 once each, in any order."""
    if sorted(hits) == list(range(1, 41)):
        return
    found = [
        ("repeated", sorted({h for h in hits if hits.count(h) > 1})),
        ("missing", sorted(set(range(1, 41)) - set(hits))),
        ("outside 1..40", sorted({h for h in hits if not 1 <= h <= 40})),
    ]
    detail = "; ".join(f"{what} {hit_list}" for what, hit_list in found if hit_list)
    raise InvalidConfig(
        f"{path}: the rows of participant {key[0]}, shape {key[1].value} must number hits 1..40 once each: {detail}"
    )


def naive_load_hits_csv(path):
    grouped = {}
    rows = _rows(path, ("participant_id", "shape", "hit_index", "timestamp_ms"))
    idx = next(rows)
    for row_no, row in rows:
        pid = row[idx["participant_id"]]
        shape = _shape(row[idx["shape"]], row_no)
        hit = _hit(row[idx["hit_index"]], row_no)
        t = _float(row[idx["timestamp_ms"]], row_no)
        grouped.setdefault((pid, shape), []).append((hit, t))
    times = {}
    for key, rows in grouped.items():
        _check_hit_numbers(path, key, [hit for hit, _t in rows])
        times[key] = np.array([t for _hit, t in sorted(rows, key=lambda r: r[0])])
        _check_hit_times(times[key])
    return times


def naive_load_gaze_csv(path):
    keys = ("participant_id", "shape", "hit_index")
    grouped = {}
    rows = _rows(path, keys)
    idx = next(rows)
    gcols = [i for name, i in idx.items() if name not in keys]
    if not gcols:
        raise MissingColumn(f"{path}: no gaze feature columns")
    for row_no, row in rows:
        pid = row[idx["participant_id"]]
        shape = _shape(row[idx["shape"]], row_no)
        hit = _hit(row[idx["hit_index"]], row_no)
        grouped.setdefault((pid, shape), []).append((hit, [_float(row[i], row_no) for i in gcols]))
    tables = {}
    for key, rows in grouped.items():
        _check_hit_numbers(path, key, [hit for hit, _values in rows])
        tables[key] = np.array([values for _hit, values in sorted(rows, key=lambda r: r[0])])
    return tables


def naive_load_participants_csv(path):
    listed = []
    rows = _rows(path, ("participant_id", "direction"))
    idx = next(rows)
    for row_no, row in rows:
        try:
            listed.append((row[idx["participant_id"]], Direction(row[idx["direction"]])))
        except ValueError:
            raise NonNumericValue(row_no, f"unknown direction '{row[idx['direction']]}' at file row {row_no}") from None
    directions = {}
    for pid, direction in listed:
        if pid in directions:
            raise InvalidConfig(f"{path}: participant {pid} is listed more than once")
        directions[pid] = direction
    return directions
