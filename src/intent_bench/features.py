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

from .dataset import SegmentWindow, TaskShape, write_csv
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


def _mmav2_weights(n_count: int, positive_tail: bool = False) -> np.ndarray:
    n = np.arange(1, n_count + 1)
    mid = _mid_mask(n_count)
    low = 4.0 * n / n_count
    high = 4.0 * (n_count - n) / n_count if positive_tail else 4.0 * (n - n_count) / n_count
    w = np.where(n < 0.25 * n_count, low, high)
    return np.where(mid, 1.0, w)


def _centred(x: np.ndarray, kind: FeatureKind) -> np.ndarray:
    """Deviations of a window from its mean; `kind` is undefined on a constant window."""
    if np.all(x == x[0]):
        raise ConstantWindow(kind)
    d = x - np.mean(x)
    d -= np.mean(d)  # the mean is rounded: on samples a few ulps apart, its error is all of d
    return d


def _skew(x: np.ndarray, n: int, tail: bool) -> float:
    d = _centred(x, FeatureKind.SKEW)
    return np.mean(d ** 3) / np.mean(d * d) ** 1.5


def _kurt(x: np.ndarray, n: int, tail: bool) -> float:
    d = _centred(x, FeatureKind.KURT)
    return np.mean(d ** 4) / (np.sum(d * d) / (n - 1)) ** 2


# kind -> f(samples, sample count, mmav2_positive_tail)
_FEATURES = {
    FeatureKind.IAV: lambda x, n, tail: np.sum(np.abs(x)),
    FeatureKind.MAV: lambda x, n, tail: np.sum(np.abs(x)) / n,
    FeatureKind.MMAV1: lambda x, n, tail: np.sum(np.where(_mid_mask(n), 1.0, 0.5) * np.abs(x)) / n,
    FeatureKind.MMAV2: lambda x, n, tail: np.sum(_mmav2_weights(n, tail) * np.abs(x)) / n,
    FeatureKind.SSI: lambda x, n, tail: np.sum(x * x),
    FeatureKind.VAR: lambda x, n, tail: np.sum((x - np.mean(x)) ** 2) / (n - 1),
    FeatureKind.RMS: lambda x, n, tail: math.sqrt(np.sum(x * x) / n),
    FeatureKind.WL: lambda x, n, tail: np.sum(np.abs(np.diff(x))),
    FeatureKind.LOG: lambda x, n, tail: np.mean(np.log10(np.maximum(np.abs(x), LOG_EPS))),
    FeatureKind.SKEW: _skew,
    FeatureKind.KURT: _kurt,
}


def compute_feature(kind: FeatureKind, window, mmav2_positive_tail: bool = False) -> float:
    """One time-domain feature of a window (array-like or SegmentWindow)."""
    x = np.asarray(window.values if isinstance(window, SegmentWindow) else window, dtype=float)
    n = x.size
    if n < 2:
        raise DegenerateWindow(f"window has {n} samples, need at least 2")
    return float(_FEATURES[kind](x, n, mmav2_positive_tail))


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
    aligned with them. D1 is the raw table itself.
    """
    if setup is SetupId.D1:
        if raw is None:
            raise MissingPart(setup, "raw")
        return raw

    label_source = features if features is not None else gaze
    if label_source is None:
        raise MissingPart(setup, "features")

    given = {
        "features": None if features is None else features.values,
        "gaze": None if gaze is None else gaze.values,
        "probs": probs,
    }
    blocks = []
    for part in _SETUP_PARTS[setup]:
        if given[part] is None:
            raise MissingPart(setup, part)
        blocks.append(np.asarray(given[part], dtype=float))

    rows = {b.shape[0] for b in blocks} | {label_source.n_rows}
    if len(rows) != 1:
        raise RowCountMismatch(f"setup {setup.value}: inconsistent row counts {sorted(rows)}")
    return label_source.with_values(np.hstack(blocks))


def export_features_csv(dm: DataMatrix, path) -> None:
    """Write a window-level feature table with the canonical 11-column header."""
    if dm.values.shape[1] != FEATURE_COUNT:
        raise ColumnMismatch(f"expected {FEATURE_COUNT} feature columns, got {dm.values.shape[1]}")
    write_csv(path, ("participant_id", "shape", "dest_hit", "segment", "direction") + FEATURE_NAMES, (
        [dm.participant[i], dm.shape.value, int(dm.hit[i]), int(dm.segment[i]), int(dm.direction[i])]
        + [repr(float(v)) for v in dm.values[i]]
        for i in range(dm.n_rows)))
