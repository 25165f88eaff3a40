"""Pure-Python reference for the 11 time-domain features and the CSV window cut.

Nothing here imports numpy or intent_bench: the values are recomputed from
the dataset CSVs with the `csv` and `math` modules alone, so a fault shared
by the program's loader and feature code cannot hide from the check.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

FEATURE_NAMES = ("iav", "mav", "mmav1", "mmav2", "ssi", "var", "rms", "wl", "log", "skew", "kurt")
LOG_EPS = 1e-12


def features(x: list[float]) -> list[float]:
    """The 11 features of one window, in the canonical order.

    MMAV1 weighs samples 1 inside 0.25N <= n <= 0.75N (1-based n) and 0.5
    outside; MMAV2 uses 4n/N before the middle and 4(n - N)/N after it.
    VAR and the KURT denominator use the n - 1 variance; SKEW and the KURT
    numerator use population central moments.
    """
    n = len(x)
    ax = [abs(v) for v in x]
    mid = [0.25 * n <= k <= 0.75 * n for k in range(1, n + 1)]
    w1 = [1.0 if m else 0.5 for m in mid]
    w2 = [1.0 if m else (4.0 * k / n if k < 0.25 * n else 4.0 * (k - n) / n) for k, m in zip(range(1, n + 1), mid)]
    mean = math.fsum(x) / n
    d = [v - mean for v in x]
    m2 = math.fsum(e * e for e in d) / n
    m3 = math.fsum(e ** 3 for e in d) / n
    m4 = math.fsum(e ** 4 for e in d) / n
    s2 = math.fsum(e * e for e in d) / (n - 1)
    ssq = math.fsum(v * v for v in x)
    return [
        math.fsum(ax),
        math.fsum(ax) / n,
        math.fsum(w * a for w, a in zip(w1, ax)) / n,
        math.fsum(w * a for w, a in zip(w2, ax)) / n,
        ssq,
        s2,
        math.sqrt(ssq / n),
        math.fsum(abs(b - a) for a, b in zip(x, x[1:])),
        math.fsum(math.log10(max(a, LOG_EPS)) for a in ax) / n,
        m3 / m2 ** 1.5,
        m4 / s2 ** 2,
    ]


def tolerance_share(got: float, want: float, rel: float = 1e-10, floor: float = 1e-12) -> float:
    """|got - want| as a share of the allowed error: relative 1e-10 with a 1e-12 floor."""
    return abs(got - want) / max(rel * abs(want), floor)


def read_directions(data_dir: Path) -> dict[str, str]:
    with open(data_dir / "participants.csv", newline="", encoding="utf-8") as handle:
        return {row["participant_id"]: row["direction"] for row in csv.DictReader(handle)}


def read_hit_times(data_dir: Path) -> dict[tuple[str, str], dict[int, float]]:
    hits: dict[tuple[str, str], dict[int, float]] = {}
    with open(data_dir / "hits.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            key = (row["participant_id"], row["shape"])
            hits.setdefault(key, {})[int(row["hit_index"])] = float(row["timestamp_ms"])
    return hits


def window_samples(data_dir: Path, wanted: dict[tuple[str, str], int]) -> dict[tuple[str, str, int], list[float]]:
    """Resistance samples of the half-open window [t_k, t_{k+1}) ending at each wanted dest hit.

    `wanted` maps (participant, shape) to a destination hit k+1 in 2..40.
    """
    hits = read_hit_times(data_dir)
    spans = {}
    for (pid, shape), dest in wanted.items():
        times = hits[(pid, shape)]
        spans[(pid, shape)] = (times[dest - 1], times[dest], dest)
    out: dict[tuple[str, str, int], list[float]] = {(p, s, d): [] for (p, s), (_a, _b, d) in spans.items()}
    with open(data_dir / "resistance.csv", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        ip, ish, it, ir = (header.index(c) for c in ("participant_id", "shape", "timestamp_ms", "resistance_ohm"))
        for row in reader:
            span = spans.get((row[ip], row[ish]))
            if span is not None and span[0] <= float(row[it]) < span[1]:
                out[(row[ip], row[ish], span[2])].append(float(row[ir]))
    return out
