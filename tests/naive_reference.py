"""Independent naive references for the 11 time-domain features, the LSTM layer, the SVM, LR and the CSV loaders.

The features use pure-python loops, math.fsum and an exact mean, written
separately from the library so the two paths share no code. Order matches the
canonical feature order. The LSTM layer runs one cell step at a time on the
concatenated [x, h] input and accumulates the weight gradients step by step.
The one-vs-rest SVM trains one class at a time, and multinomial LR one row
at a time, each with separate weights and bias. The synthetic trace is
built one inter-hit span at a time. The dataset CSV loaders parse one row at
a time with `csv` and Python's `float`, checking each row as it is read, and
the writers format one row at a time with `repr`.
"""

import csv
import math
from fractions import Fraction

import numpy as np

from intent_bench.dataset import Direction, ResistanceTrace, TaskShape, _check_hit_times, derive_seed
from intent_bench.errors import DataError, IoError

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


def naive_logreg(x, y, num_classes, lr, epochs, batch_size, seed):
    """Multinomial LR by mini-batch gradient descent, one row at a time within each batch.

    Each epoch draws one permutation of the rows from the seeded generator and
    walks it in batches. Each row adds its softmax minus its one-hot target,
    times the row, to the weight gradient and the same difference to the bias
    gradient; each batch steps by lr times their mean. Returns the weights
    (K, d) and the biases (K,).
    """
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    w = np.zeros((num_classes, x.shape[1]))
    b = np.zeros(num_classes)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            gw = np.zeros_like(w)
            gb = np.zeros_like(b)
            for i in idx:
                logits = w @ x[i] + b
                p = np.exp(logits - logits.max())
                p /= p.sum()
                p[y[i]] -= 1.0
                gw += np.outer(p, x[i])
                gb += p
            w -= lr * gw / len(idx)
            b -= lr * gb / len(idx)
    return w, b


# --- per-span synthetic trace -----------------------------------------------


def _naive_span_profile(shape, direction, span, amplitude):
    """(bumps, gain) of inter-hit span `span` (1-based); counterclockwise plays the spans in reverse."""
    position = span - 1 if direction is Direction.CW else 39 - span
    p = position % 13
    if shape is TaskShape.DIAMOND:
        return 1 + p % 4, amplitude * (0.70 + 0.06 * p)
    return 1 + (p + 2) % 4, amplitude * (0.75 + 0.055 * p)


def naive_synth_trace(seed, participant_id, shape, direction, cfg):
    """(times, values, hit times, gaze) of one participant-task, one span and one hit at a time."""
    rng = np.random.default_rng(derive_seed(seed, "synth", participant_id, shape.value, direction.value))
    hit_times = np.arange(40) * 500.0
    m = cfg.samples_per_window
    times = np.empty(39 * m + 1)
    values = np.empty_like(times)
    phase = np.arange(m) / m
    for span in range(1, 40):
        f, gain = _naive_span_profile(shape, direction, span, cfg.amplitude_ohm)
        lo = (span - 1) * m
        times[lo : lo + m] = (span - 1) * 500.0 + phase * 500.0
        values[lo : lo + m] = cfg.base_ohm + gain * 0.5 * (1.0 - np.cos(2 * math.pi * f * phase))
    times[-1] = hit_times[-1]
    values[-1] = cfg.base_ohm
    if cfg.noise_std > 0:
        values = values + rng.normal(0.0, cfg.noise_std, size=values.shape)

    gaze = np.empty((40, cfg.gaze_width))
    gaze[:, 4:] = rng.normal(0.0, 1.0, size=(40, cfg.gaze_width - 4))
    onehot = np.zeros((40, 4))
    for k in range(1, 41):
        onehot[k - 1, (k - 1) // 10] = 1.0
    gaze[:, :4] = onehot
    if cfg.gaze_noise > 0:
        gaze[:, :4] += rng.normal(0.0, cfg.gaze_noise, size=onehot.shape)
    return times, values, hit_times, gaze


# --- per-row CSV writer ------------------------------------------------------


def naive_write_dataset_csvs(tasks, outdir):
    """The four dataset CSVs of `tasks`, one row at a time, each float formatted by `repr(float(...))`."""
    width = tasks[0][5].shape[1]
    directions = {}
    for pid, _shape, direction, *_ in tasks:
        directions.setdefault(pid, direction)
    tables = {
        "resistance": (
            ["participant_id", "shape", "timestamp_ms", "resistance_ohm"],
            [
                [pid, shape.value, repr(float(t)), repr(float(r))]
                for pid, shape, _, trace, _, _ in tasks
                for t, r in zip(trace.times, trace.values)
            ],
        ),
        "hits": (
            ["participant_id", "shape", "hit_index", "timestamp_ms"],
            [
                [pid, shape.value, k, repr(float(t))]
                for pid, shape, _, _, hit_times, _ in tasks
                for k, t in enumerate(hit_times, start=1)
            ],
        ),
        "gaze": (
            ["participant_id", "shape", "hit_index"] + [f"g{i + 1}" for i in range(width)],
            [
                [pid, shape.value, k] + [repr(float(v)) for v in row]
                for pid, shape, _, _, _, gaze in tasks
                for k, row in enumerate(gaze, start=1)
            ],
        ),
        "participants": (["participant_id", "direction"], [[pid, d.value] for pid, d in directions.items()]),
    }
    for name, (header, rows) in tables.items():
        with open(outdir / f"{name}.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)


def naive_export_features_csv(dm, path):
    """The features CSV of `dm`, one row at a time, each label by `int(...)` and each feature by `repr`."""
    header = ["participant_id", "shape", "dest_hit", "segment", "direction"]
    header += ["iav", "mav", "mmav1", "mmav2", "ssi", "var", "rms", "wl", "log", "skew", "kurt"]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(
            [dm.participant[i], dm.shape.value, int(dm.hit[i]), int(dm.segment[i]), int(dm.direction[i])]
            + [repr(v) for v in dm.values[i].tolist()]
            for i in range(dm.n_rows)
        )


# --- per-row CSV loaders ---------------------------------------------------


def _rows(path, required):
    """Yield the column index by name, then (file row number, row) of each data row."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        for name in header:
            if header.count(name) > 1:
                raise DataError(f"{path}: column '{name}' appears twice in the header")
        idx = {name: i for i, name in enumerate(header)}
        for name in required:
            if name not in idx:
                raise DataError(f"{path}: missing column '{name}'")
        yield idx
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {row_no} has {len(row)} fields, header has {len(header)}")
            yield row_no, row


def _float(path, raw, row):
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"{path}: cannot parse '{raw}' as a number at file row {row}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}: non-finite value '{raw}' at file row {row}")
    return value


def _shape(path, raw, row):
    try:
        return TaskShape(raw)
    except ValueError:
        raise DataError(f"{path}: unknown shape '{raw}' at file row {row}") from None


def _hit(path, raw, row):
    value = _float(path, raw, row)
    if not value.is_integer():
        raise DataError(f"{path}: hit_index '{raw}' is not an integer at file row {row}")
    return int(value)


def naive_load_resistance_csv(path):
    grouped = {}
    rows = _rows(path, ("participant_id", "shape", "timestamp_ms", "resistance_ohm"))
    idx = next(rows)
    for row_no, row in rows:
        pid = row[idx["participant_id"]]
        shape = _shape(path, row[idx["shape"]], row_no)
        t = _float(path, row[idx["timestamp_ms"]], row_no)
        r = _float(path, row[idx["resistance_ohm"]], row_no)
        times, values = grouped.setdefault((pid, shape), ([], []))
        if times and t < times[-1]:
            raise DataError(f"{path}: timestamp decreases at file row {row_no}")
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
    raise DataError(
        f"{path}: the rows of participant {key[0]}, shape {key[1].value} must number hits 1..40 once each: {detail}"
    )


def naive_load_hits_csv(path):
    grouped = {}
    rows = _rows(path, ("participant_id", "shape", "hit_index", "timestamp_ms"))
    idx = next(rows)
    for row_no, row in rows:
        pid = row[idx["participant_id"]]
        shape = _shape(path, row[idx["shape"]], row_no)
        hit = _hit(path, row[idx["hit_index"]], row_no)
        t = _float(path, row[idx["timestamp_ms"]], row_no)
        grouped.setdefault((pid, shape), []).append((hit, t))
    times = {}
    for key, rows in grouped.items():
        _check_hit_numbers(path, key, [hit for hit, _t in rows])
        times[key] = np.array([t for _hit, t in sorted(rows, key=lambda r: r[0])])
        try:
            _check_hit_times(times[key])
        except DataError as exc:
            raise DataError(f"{path}: participant {key[0]}, shape {key[1].value}: {exc}") from None
    return times


def naive_load_gaze_csv(path):
    keys = ("participant_id", "shape", "hit_index")
    grouped = {}
    rows = _rows(path, keys)
    idx = next(rows)
    gcols = [i for name, i in idx.items() if name not in keys]
    if not gcols:
        raise DataError(f"{path}: no gaze feature columns")
    for row_no, row in rows:
        pid = row[idx["participant_id"]]
        shape = _shape(path, row[idx["shape"]], row_no)
        hit = _hit(path, row[idx["hit_index"]], row_no)
        grouped.setdefault((pid, shape), []).append((hit, [_float(path, row[i], row_no) for i in gcols]))
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
            raise DataError(f"{path}: unknown direction '{row[idx['direction']]}' at file row {row_no}") from None
    directions = {}
    for pid, direction in listed:
        if pid in directions:
            raise DataError(f"{path}: participant {pid} is listed more than once")
        directions[pid] = direction
    return directions
