"""Time-domain feature transforms, min-max scaling, and experiment data setups.

Eleven scalar features summarize each inter-hit resistance window. Feature
order is canonical and matches the exported CSV header. Setups D1..D8 are
fixed horizontal concatenations of raw values, features, gaze, and the
segment model's probability outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import SegmentWindow, TaskShape
from .errors import (
    ColumnMismatch,
    ConstantWindow,
    DegenerateWindow,
    EmptyMatrix,
    MissingPart,
    RowCountMismatch,
)

LOG_EPS = 1e-12  # |x| clamp before log10; raw resistance is positive but synthetic data may not be


class FeatureKind(Enum):
    IAV = "iav"
    MAV = "mav"
    MMAV1 = "mmav1"
    MMAV2 = "mmav2"
    SSI = "ssi"
    VAR = "var"
    RMS = "rms"
    WL = "wl"
    LOG = "log"
    SKEW = "skew"
    KURT = "kurt"


FEATURE_ORDER = tuple(FeatureKind)
FEATURE_NAMES = tuple(kind.value for kind in FEATURE_ORDER)
FEATURE_COUNT = len(FEATURE_ORDER)


def _mid_mask(n_count: int) -> np.ndarray:
    # weight conditions are on the 1-based sample index
    n = np.arange(1, n_count + 1)
    return (0.25 * n_count <= n) & (n <= 0.75 * n_count)


def _mmav1_weights(n_count: int) -> np.ndarray:
    return np.where(_mid_mask(n_count), 1.0, 0.5)


def _mmav2_weights(n_count: int, positive_tail: bool = False) -> np.ndarray:
    n = np.arange(1, n_count + 1)
    mid = _mid_mask(n_count)
    low = 4.0 * n / n_count
    high = 4.0 * (n_count - n) / n_count if positive_tail else 4.0 * (n - n_count) / n_count
    w = np.where(n < 0.25 * n_count, low, high)
    return np.where(mid, 1.0, w)


def compute_feature(kind: FeatureKind, window, mmav2_positive_tail: bool = False) -> float:
    """One time-domain feature of a window (array-like or SegmentWindow)."""
    x = np.asarray(window.values if isinstance(window, SegmentWindow) else window, dtype=float)
    n = x.size
    if n < 2:
        raise DegenerateWindow(f"window has {n} samples, need at least 2")
    if kind is FeatureKind.IAV:
        return float(np.sum(np.abs(x)))
    if kind is FeatureKind.MAV:
        return float(np.sum(np.abs(x)) / n)
    if kind is FeatureKind.MMAV1:
        return float(np.sum(_mmav1_weights(n) * np.abs(x)) / n)
    if kind is FeatureKind.MMAV2:
        return float(np.sum(_mmav2_weights(n, mmav2_positive_tail) * np.abs(x)) / n)
    if kind is FeatureKind.SSI:
        return float(np.sum(x * x))
    if kind is FeatureKind.VAR:
        mu = np.mean(x)
        return float(np.sum((x - mu) ** 2) / (n - 1))
    if kind is FeatureKind.RMS:
        return float(math.sqrt(np.sum(x * x) / n))
    if kind is FeatureKind.WL:
        return float(np.sum(np.abs(np.diff(x))))
    if kind is FeatureKind.LOG:
        return float(np.mean(np.log10(np.maximum(np.abs(x), LOG_EPS))))
    if kind is FeatureKind.SKEW:
        if np.all(x == x[0]):
            raise ConstantWindow(FeatureKind.SKEW)
        d = x - np.mean(x)
        m2 = np.mean(d * d)
        m3 = np.mean(d ** 3)
        return float(m3 / m2 ** 1.5)
    if kind is FeatureKind.KURT:
        if np.all(x == x[0]):
            raise ConstantWindow(FeatureKind.KURT)
        d = x - np.mean(x)
        m4 = np.mean(d ** 4)
        s2 = np.sum(d * d) / (n - 1)
        return float(m4 / s2 ** 2)
    raise ValueError(f"unknown feature kind {kind!r}")


def extract_feature_vector(window, mmav2_positive_tail: bool = False) -> np.ndarray:
    """All 11 features of one window, in canonical order."""
    return np.asarray(
        [compute_feature(kind, window, mmav2_positive_tail) for kind in FEATURE_ORDER]
    )


def feature_matrix(windows, mmav2_positive_tail: bool = False) -> np.ndarray:
    return np.vstack([extract_feature_vector(w, mmav2_positive_tail) for w in windows])


# --- min-max scaling ------------------------------------------------------


@dataclass(frozen=True)
class Scaler:
    mins: np.ndarray
    maxs: np.ndarray


def fit_scaler(matrix) -> Scaler:
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        raise EmptyMatrix("cannot fit a scaler on an empty matrix")
    if m.ndim == 1:
        m = m[:, None]
    return Scaler(mins=m.min(axis=0), maxs=m.max(axis=0))


def apply_scaler(scaler: Scaler, matrix) -> np.ndarray:
    """y = (x - min) / (max - min); constant columns map to 0; no clipping."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.shape[1] != scaler.mins.shape[0]:
        raise ColumnMismatch(
            f"scaler fitted on {scaler.mins.shape[0]} columns, got {m.shape[1]}"
        )
    span = scaler.maxs - scaler.mins
    safe = np.where(span > 0, span, 1.0)
    out = (m - scaler.mins) / safe
    return np.where(span > 0, out, 0.0)


# --- experiment setups ----------------------------------------------------


class SetupId(Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"
    D6 = "D6"
    D7 = "D7"
    D8 = "D8"


_SETUP_PARTS = {
    SetupId.D1: ("raw",),
    SetupId.D2: ("features",),
    SetupId.D3: ("gaze",),
    SetupId.D4: ("probs",),
    SetupId.D5: ("features", "gaze"),
    SetupId.D6: ("features", "probs"),
    SetupId.D7: ("gaze", "probs"),
    SetupId.D8: ("features", "gaze", "probs"),
}


def setup_width(setup: SetupId, gaze_width: int) -> int:
    widths = {"raw": 1, "features": FEATURE_COUNT, "gaze": gaze_width, "probs": 4}
    return sum(widths[p] for p in _SETUP_PARTS[setup])


@dataclass
class DataMatrix:
    """A labeled sample matrix for one shape: values plus per-row labels."""

    values: np.ndarray  # (n, d)
    segment: np.ndarray  # (n,) int 0..3
    direction: np.ndarray  # (n,) int, 0=cw 1=ccw
    participant: np.ndarray  # (n,) str
    hit: np.ndarray  # (n,) destination hit for window rows, hit index for raw rows
    shape: TaskShape

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def take(self, idx) -> "DataMatrix":
        idx = np.asarray(idx)
        return DataMatrix(
            values=self.values[idx],
            segment=self.segment[idx],
            direction=self.direction[idx],
            participant=self.participant[idx],
            hit=self.hit[idx],
            shape=self.shape,
        )

    def with_values(self, values: np.ndarray) -> "DataMatrix":
        if values.shape[0] != self.n_rows:
            raise RowCountMismatch(f"{values.shape[0]} value rows for {self.n_rows} labels")
        return DataMatrix(values, self.segment, self.direction, self.participant, self.hit, self.shape)


def assemble_setup(
    setup: SetupId,
    features: DataMatrix | None = None,
    gaze: DataMatrix | None = None,
    probs: np.ndarray | None = None,
    raw: DataMatrix | None = None,
) -> DataMatrix:
    """Concatenate the setup's parts in the fixed order features | gaze | probs.

    Labels are carried from the window-level tables; probability rows must be
    aligned with them.
    """
    if setup is SetupId.D1:
        if raw is None:
            raise MissingPart(setup, "raw")
        return raw.take(np.arange(raw.n_rows))

    parts = _SETUP_PARTS[setup]
    label_source = features if features is not None else gaze
    if label_source is None:
        raise MissingPart(setup, "features")

    blocks = []
    if "features" in parts:
        if features is None:
            raise MissingPart(setup, "features")
        blocks.append(features.values)
    if "gaze" in parts:
        if gaze is None:
            raise MissingPart(setup, "gaze")
        blocks.append(gaze.values)
    if "probs" in parts:
        if probs is None:
            raise MissingPart(setup, "probs")
        blocks.append(np.asarray(probs, dtype=float))

    rows = {b.shape[0] for b in blocks} | {label_source.n_rows}
    if len(rows) != 1:
        raise RowCountMismatch(f"setup {setup.value}: inconsistent row counts {sorted(rows)}")
    return label_source.with_values(np.hstack(blocks))


def export_features_csv(dm: DataMatrix, path) -> None:
    """Write a window-level feature table with the canonical 11-column header."""
    if dm.values.shape[1] != FEATURE_COUNT:
        raise ColumnMismatch(f"expected {FEATURE_COUNT} feature columns, got {dm.values.shape[1]}")
    import csv

    with open(path, "w", newline="", encoding="utf-8") as handle:
        w = csv.writer(handle)
        w.writerow(["participant_id", "shape", "dest_hit", "segment", "direction"] + list(FEATURE_NAMES))
        for i in range(dm.n_rows):
            w.writerow(
                [dm.participant[i], dm.shape.value, int(dm.hit[i]), int(dm.segment[i]), int(dm.direction[i])]
                + [repr(float(v)) for v in dm.values[i]]
            )
