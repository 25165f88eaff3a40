"""Time-domain feature transforms, min-max scaling, and experiment data setups.

Eleven scalar features summarize each inter-hit resistance window. Feature
order is canonical and matches the exported CSV header. Each setup D1..D8 is
one row of `SETUP_PARTS`: the parts it stacks side by side, chosen from raw
values, features, gaze and the segment model's probability outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dataset import TaskShape, write_csv
from .errors import BadArgument, DataError, TooFewRows

LOG_EPS = 1e-12  # |x| clamp before log10; raw resistance is positive but synthetic data may not be
FEATURE_SLICE = 1024  # the most windows `feature_matrix` stacks at once, which bounds its temporaries


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
        raise DataError(f"window has {n} samples, need at least 2")
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
        raise DataError(f"{kind.value} undefined on a constant window (zero second moment)")
    return float(values[0, FEATURE_ORDER.index(kind)])


def feature_matrix(windows) -> np.ndarray:
    """One row of 11 features per window of samples, computed per group of equal-length windows,
    `FEATURE_SLICE` windows of a group at a time."""
    samples = [np.asarray(w, dtype=float).reshape(-1) for w in windows]
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(samples):
        groups.setdefault(x.size, []).append(i)
    out = np.empty((len(samples), FEATURE_COUNT))
    for group in groups.values():
        for lo in range(0, len(group), FEATURE_SLICE):
            rows = group[lo:lo + FEATURE_SLICE]
            values, constant = _feature_rows(np.stack([samples[i] for i in rows]))
            if constant.any():
                raise DataError(f"{FeatureKind.SKEW.value} undefined on a constant window (zero second moment)")
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
        raise TooFewRows("cannot fit a scaler on an empty matrix")
    if m.ndim == 1:
        m = m[:, None]
    return Scaler(mins=m.min(axis=0), maxs=m.max(axis=0))


def apply_scaler(scaler: Scaler, matrix) -> np.ndarray:
    """y = (x - min) / (max - min); constant columns map to 0; no clipping."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.shape[1] != scaler.mins.shape[0]:
        raise BadArgument(
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


# setup -> the parts it reads, in the order of their columns
SETUP_PARTS = {
    SetupId.D1: ("raw",),
    SetupId.D2: ("features",),
    SetupId.D3: ("gaze",),
    SetupId.D4: ("probs",),
    SetupId.D5: ("features", "gaze"),
    SetupId.D6: ("features", "probs"),
    SetupId.D7: ("gaze", "probs"),
    SetupId.D8: ("features", "gaze", "probs"),
}


@dataclass(frozen=True)
class DataMatrix:
    """A labeled sample matrix for one shape: values plus per-row labels, and the rows a model fits on; checked once."""

    values: np.ndarray  # (n, d)
    segment: np.ndarray  # (n,) int 0..3
    direction: np.ndarray  # (n,) int, 0=cw 1=ccw
    participant: np.ndarray  # (n,) str
    hit: np.ndarray  # (n,) destination hit for window rows, hit index for raw rows
    shape: TaskShape
    train: np.ndarray | None = None  # (n,) bool, True on the training rows; None for an unsplit table

    def __post_init__(self):
        if np.ndim(self.values) != 2:
            raise BadArgument(f"values must be a 2-D (rows, columns) array, got shape {np.shape(self.values)}")
        for name in ("values", "segment", "direction", "participant", "hit"):  # a list would compare as one value
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
            if name != "values" and (got := getattr(self, name).shape) != (self.n_rows,):
                raise BadArgument(f"the {name} column must have shape ({self.n_rows},), got {got}")
        train = self.train
        if train is not None and (getattr(train, "dtype", None) != bool or train.shape != (self.n_rows,)):
            raise BadArgument(f"the training mask must be a bool array of {self.n_rows} entries, got "
                              f"{type(train).__name__} {np.shape(train)} of {np.asarray(train).dtype}")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def with_values(self, values: np.ndarray) -> "DataMatrix":
        if values.shape[0] != self.n_rows:
            raise BadArgument(f"{values.shape[0]} value rows for {self.n_rows} labels")
        return replace(self, values=values)


def assemble_setup(setup: SetupId, rows: DataMatrix, parts: dict) -> DataMatrix:
    """`parts[p]` side by side for each part p in the setup's row of SETUP_PARTS, with the labels of `rows`."""
    blocks = []
    for part in SETUP_PARTS[setup]:
        if parts.get(part) is None:
            raise BadArgument(f"setup {setup.value} requires missing part '{part}'")
        blocks.append(np.asarray(parts[part], dtype=float))
    counts = {b.shape[0] for b in blocks} | {rows.n_rows}
    if len(counts) != 1:
        raise BadArgument(f"setup {setup.value}: inconsistent row counts {sorted(counts)}")
    return rows.with_values(np.hstack(blocks))


def export_features_csv(dm: DataMatrix, path) -> None:
    """Write a window-level feature table with the canonical 11-column header.

    Each run of one participant's rows is one `write_csv` block keyed by
    participant and shape: `dest_hit`, `segment` and `direction` as ints,
    then the 11 features as floats written by `repr`.
    """
    if dm.values.shape[1] != FEATURE_COUNT:
        raise BadArgument(f"expected {FEATURE_COUNT} feature columns, got {dm.values.shape[1]}")
    columns = [*np.stack([dm.hit, dm.segment, dm.direction]).astype(int).tolist(), *dm.values.T.tolist()]
    pids = np.asarray(dm.participant)
    bounds = [0, *(np.flatnonzero(pids[1:] != pids[:-1]) + 1).tolist(), dm.n_rows] if dm.n_rows else []
    write_csv(path, ("participant_id", "shape", "dest_hit", "segment", "direction") + FEATURE_NAMES, (
        ((pids[lo], dm.shape.value), [c[lo:hi] for c in columns]) for lo, hi in zip(bounds, bounds[1:])))
