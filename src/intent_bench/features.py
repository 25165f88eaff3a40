"""Time-domain feature transforms, min-max scaling, and experiment data setups.

Eleven scalar features summarize each inter-hit resistance window. Feature
order is canonical and matches the exported CSV header. Setups D1..D8 are
fixed horizontal concatenations of raw values, features, gaze, and the
segment model's probability outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import TaskShape, write_csv
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


def _mmav_weights(n_count: int) -> tuple[np.ndarray, np.ndarray]:
    """MMAV1 and MMAV2 weights of an n-sample window, on the 1-based sample index."""
    n = np.arange(1, n_count + 1)
    mid = (0.25 * n_count <= n) & (n <= 0.75 * n_count)
    tails = np.where(n < 0.25 * n_count, 4.0 * n / n_count, 4.0 * (n - n_count) / n_count)
    return np.where(mid, 1.0, 0.5), np.where(mid, 1.0, tails)


def _feature_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 11 features of k windows of n samples each, (k, n) -> (k, 11) in FEATURE_ORDER,
    and the (k,) mask of constant windows, whose SKEW and KURT cells are meaningless.
    """
    n = x.shape[1]
    if n < 2:
        raise DegenerateWindow(f"window has {n} samples, need at least 2")
    constant = (x == x[:, :1]).all(axis=1)
    mmav1_w, mmav2_w = _mmav_weights(n)
    a = np.abs(x)
    iav = a.sum(axis=1)
    ssi = (x * x).sum(axis=1)
    d = x - x.sum(axis=1, keepdims=True) / n
    var = (d * d).sum(axis=1) / (n - 1)
    d -= d.sum(axis=1, keepdims=True) / n  # the mean is rounded: on samples a few ulps apart, its error is all of d
    ss = (d * d).sum(axis=1)
    ss[constant] = 1.0  # keeps 0/0 out of the SKEW/KURT cells of constant rows
    return np.array([
        iav,
        iav / n,
        (mmav1_w * a).sum(axis=1) / n,
        (mmav2_w * a).sum(axis=1) / n,
        ssi,
        var,
        np.sqrt(ssi / n),
        np.abs(x[:, 1:] - x[:, :-1]).sum(axis=1),
        np.log10(np.maximum(a, LOG_EPS)).sum(axis=1) / n,
        (d ** 3).sum(axis=1) / n / (ss / n) ** 1.5,
        (d ** 4).sum(axis=1) / n / (ss / (n - 1)) ** 2,
    ]).T, constant


def compute_feature(kind: FeatureKind, window) -> float:
    """One time-domain feature of a window of samples."""
    values, constant = _feature_rows(np.asarray(window, dtype=float).reshape(1, -1))
    if constant[0] and kind in (FeatureKind.SKEW, FeatureKind.KURT):
        raise ConstantWindow(kind)
    return float(values[0, FEATURE_ORDER.index(kind)])


def feature_matrix(windows) -> np.ndarray:
    """One row of 11 features per window of samples, computed per group of equal-length windows."""
    samples = [np.asarray(w, dtype=float).reshape(-1) for w in windows]
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(samples):
        groups.setdefault(x.size, []).append(i)
    out = np.empty((len(samples), FEATURE_COUNT))
    for rows in groups.values():
        values, constant = _feature_rows(np.stack([samples[i] for i in rows]))
        if constant.any():
            raise ConstantWindow(FeatureKind.SKEW)
        out[rows] = values
    return out


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
        + [repr(v) for v in dm.values[i].tolist()]
        for i in range(dm.n_rows)))
