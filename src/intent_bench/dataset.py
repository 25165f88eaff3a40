"""Dataset layer: trace segmentation, labels, synthetic cohorts, CSV ingestion.

A participant-task is one traversal of 40 hit points on a traced shape.
Resistance is sampled continuously between hits; gaze is captured once per
hit. Windows are the inter-hit spans of the resistance trace and carry the
segment label of their destination hit.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import BadArgument, DataError, InvalidConfig, IoError
from .pool import map_tasks

HITS_PER_TASK = 40
WINDOWS_PER_TASK = HITS_PER_TASK - 1
SEGMENT_COUNT = 4
HITS_PER_SEGMENT = HITS_PER_TASK // SEGMENT_COUNT


class TaskShape(Enum):
    DIAMOND = "diamond"
    CIRCLE = "circle"


class Direction(Enum):
    CW = "cw"
    CCW = "ccw"

    @property
    def label(self) -> int:
        return 0 if self is Direction.CW else 1


@dataclass
class ResistanceTrace:
    participant_id: str
    shape: TaskShape
    times: np.ndarray  # ms, non-decreasing
    values: np.ndarray  # ohms, finite


@dataclass
class ParticipantRecord:
    participant_id: str
    shape: TaskShape
    direction: Direction
    windows: list[np.ndarray]  # the resistance samples (N >= 2) of the 39 windows, window k ending at hit k + 1
    gaze: np.ndarray  # (40, G)
    hit_values: np.ndarray  # (40,) resistance sampled at each hit instant


def assign_segment_label(hit_index: int) -> int:
    """Segment of a hit point: four contiguous arcs of 10 hits each."""
    if not 1 <= hit_index <= HITS_PER_TASK:
        raise BadArgument(f"hit_index {hit_index} outside 1..{HITS_PER_TASK}")
    return (hit_index - 1) // HITS_PER_SEGMENT


def _check_hit_times(ts: np.ndarray) -> None:
    """A task's hit times: 40 of them, strictly increasing (NaN fails too)."""
    if ts.shape != (HITS_PER_TASK,):
        raise DataError(f"expected {HITS_PER_TASK} hit times, got an array of shape {ts.shape}")
    if not np.all(ts[1:] > ts[:-1]):
        raise DataError("hit timestamps must be strictly increasing")


def segment_trace(trace: ResistanceTrace, hit_times: np.ndarray) -> list[np.ndarray]:
    """The samples of the 39 half-open inter-hit windows [t_k, t_{k+1}) of a trace, given its 40 hit times."""
    ts = np.asarray(hit_times, dtype=float)
    _check_hit_times(ts)
    bounds = np.searchsorted(trace.times, ts, side="left")
    windows = []
    for source_hit, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]), start=1):
        if hi - lo < 2:
            raise DataError(f"fewer than 2 samples between hits {source_hit} and {source_hit + 1}")
        windows.append(trace.values[lo:hi].copy())
    return windows


def raw_at_hits(trace: ResistanceTrace, hit_times: np.ndarray) -> np.ndarray:
    """Resistance sampled at each hit instant: nearest trace sample, ties to the earlier one."""
    ts = np.asarray(hit_times, dtype=float)
    _check_hit_times(ts)
    j = np.searchsorted(trace.times, ts, side="left")
    before = np.clip(j - 1, 0, len(trace.times) - 1)
    after = np.minimum(j, len(trace.times) - 1)
    pick = np.where(ts - trace.times[before] <= trace.times[after] - ts, before, after)
    return trace.values[pick]


# --- synthetic cohort ---------------------------------------------------

# Per-shape flexion/extension cadence: each inter-hit span holds an integer
# number of raised-cosine flexion bumps, so the signal is continuous across
# hits, palindromic within every span, and exactly at the resting level when
# a hit instant is sampled. Effort ramps up over a 13-span cycle (3 cycles
# per traversal); only the traversal order of the cadence distinguishes the
# two directions.
_CADENCE_PERIOD = 13
WINDOW_MS = 500.0  # time between consecutive hit instants


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic cohort settings, checked when built; `not lo < x < hi` refuses NaN too."""

    samples_per_window: int = 20
    base_ohm: float = 1000.0
    amplitude_ohm: float = 80.0
    noise_std: float = 2.0
    gaze_width: int = 24
    gaze_noise: float = 0.25

    def __post_init__(self) -> None:
        if not 0 < self.amplitude_ohm < np.inf:
            raise InvalidConfig("amplitude_ohm must be positive and finite")
        if not (0 <= self.noise_std < np.inf and 0 <= self.gaze_noise < np.inf):
            raise InvalidConfig("noise levels must be finite and non-negative")
        if self.samples_per_window < 2:
            raise InvalidConfig("samples_per_window must be at least 2")
        if self.gaze_width < SEGMENT_COUNT:
            raise InvalidConfig(f"gaze_width must be at least {SEGMENT_COUNT}")
        if not 1.25 * self.amplitude_ohm < self.base_ohm < np.inf:
            raise InvalidConfig("base_ohm must be finite and dominate amplitude_ohm to keep resistance positive")


def derive_seed(root: int, *parts) -> int:
    """The seed of the stream named by `parts` under the root seed: the cohort's and every model's."""
    digest = hashlib.sha256(("%d|" % root + "|".join(map(str, parts))).encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _span_profile(shape: TaskShape, direction: Direction, span: int, amplitude: float):
    """(bumps, gain) of inter-hit span `span` (1-based) for one traversal.

    Counterclockwise runs play the clockwise cadence in reversed span order;
    individual spans are palindromic, so mirroring a span leaves it unchanged.
    """
    position = span - 1 if direction is Direction.CW else WINDOWS_PER_TASK - span
    p = position % _CADENCE_PERIOD
    if shape is TaskShape.DIAMOND:
        return 1 + p % 4, amplitude * (0.70 + 0.06 * p)
    return 1 + (p + 2) % 4, amplitude * (0.75 + 0.055 * p)


def synth_trace(
    seed: int, participant_id: str, shape: TaskShape, direction: Direction, cfg: SynthConfig
) -> tuple[ResistanceTrace, np.ndarray, np.ndarray]:
    """Generate one participant-task: trace, (40,) hit times, and (40, G) gaze rows."""
    rng = np.random.default_rng(derive_seed(seed, "synth", participant_id, shape.value, direction.value))
    hit_times = np.arange(HITS_PER_TASK) * WINDOW_MS
    m = cfg.samples_per_window

    times = np.empty(WINDOWS_PER_TASK * m + 1)
    values = np.empty_like(times)
    phase = np.arange(m) / m
    for span in range(1, WINDOWS_PER_TASK + 1):
        f, gain = _span_profile(shape, direction, span, cfg.amplitude_ohm)
        lo = (span - 1) * m
        times[lo : lo + m] = (span - 1) * WINDOW_MS + phase * WINDOW_MS
        values[lo : lo + m] = cfg.base_ohm + gain * 0.5 * (1.0 - np.cos(2 * math.pi * f * phase))
    times[-1] = hit_times[-1]
    values[-1] = cfg.base_ohm
    if cfg.noise_std > 0:
        values = values + rng.normal(0.0, cfg.noise_std, size=values.shape)

    gaze = np.empty((HITS_PER_TASK, cfg.gaze_width))
    gaze[:, SEGMENT_COUNT:] = rng.normal(0.0, 1.0, size=(HITS_PER_TASK, cfg.gaze_width - SEGMENT_COUNT))
    onehot = np.zeros((HITS_PER_TASK, SEGMENT_COUNT))
    for k in range(1, HITS_PER_TASK + 1):
        onehot[k - 1, assign_segment_label(k)] = 1.0
    gaze[:, :SEGMENT_COUNT] = onehot
    if cfg.gaze_noise > 0:
        gaze[:, :SEGMENT_COUNT] += rng.normal(0.0, cfg.gaze_noise, size=onehot.shape)

    trace = ResistanceTrace(participant_id=participant_id, shape=shape, times=times, values=values)
    return trace, hit_times, gaze


def build_record(
    participant_id: str,
    shape: TaskShape,
    direction: Direction,
    trace: ResistanceTrace,
    hit_times: np.ndarray,
    gaze: np.ndarray,
) -> ParticipantRecord:
    if gaze.shape[0] != HITS_PER_TASK:
        raise DataError(f"expected {HITS_PER_TASK} gaze rows, got {gaze.shape[0]}")
    return ParticipantRecord(
        participant_id=participant_id,
        shape=shape,
        direction=direction,
        windows=segment_trace(trace, hit_times),
        gaze=np.asarray(gaze, dtype=float),
        hit_values=raw_at_hits(trace, hit_times),
    )


def synth_participant(
    seed: int,
    shape: TaskShape,
    direction: Direction,
    cfg: SynthConfig | None = None,
    participant_id: str | None = None,
) -> ParticipantRecord:
    """Deterministic synthetic participant-task; identical (seed, cfg) gives an identical record."""
    cfg = cfg or SynthConfig()
    pid = participant_id if participant_id is not None else f"s{seed}"
    return build_record(pid, shape, direction, *synth_trace(seed, pid, shape, direction, cfg))


def synth_tasks(
    seed: int, participants: int, cfg: SynthConfig, shapes: tuple[TaskShape, ...]
) -> list[tuple[str, TaskShape, Direction, ResistanceTrace, np.ndarray, np.ndarray]]:
    """(participant, shape, direction, trace, hit times, gaze) per participant and shape.

    Participants are p00, p01, ... with directions alternating cw/ccw; participant i
    uses seed + i.
    """
    tasks = []
    for i in range(participants):
        pid = f"p{i:02d}"
        direction = Direction.CW if i % 2 == 0 else Direction.CCW
        for shape in shapes:
            tasks.append((pid, shape, direction, *synth_trace(seed + i, pid, shape, direction, cfg)))
    return tasks


def synth_cohort(
    seed: int,
    participants: int = 16,
    cfg: SynthConfig | None = None,
    shapes: tuple[TaskShape, ...] = (TaskShape.DIAMOND, TaskShape.CIRCLE),
) -> list[ParticipantRecord]:
    """Cohort of `participants` across the given shapes, directions alternating cw/ccw."""
    return [build_record(*task) for task in synth_tasks(seed, participants, cfg or SynthConfig(), shapes)]


# --- CSV interchange ----------------------------------------------------

RESISTANCE_COLUMNS = ("participant_id", "shape", "timestamp_ms", "resistance_ohm")
HITS_COLUMNS = ("participant_id", "shape", "hit_index", "timestamp_ms")
GAZE_KEY_COLUMNS = ("participant_id", "shape", "hit_index")  # followed by the gaze columns
PARTICIPANTS_COLUMNS = ("participant_id", "direction")
_HIT_NUMBERS = np.arange(1, HITS_PER_TASK + 1)


_LABELS = {"shape": TaskShape, "direction": Direction}  # the enum of each label column
_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)
_CHUNK_CHARS = 1 << 18  # text parsed per columnar step; bounds the reader's buffers


@dataclass(frozen=True)
class _Columns:
    """Where one CSV file keeps its key and float columns, and what its floats must satisfy."""

    width: int  # the header's field count
    pid: int  # participant_id
    label: int  # shape or direction
    label_name: str
    floats: list[int]
    integral: bool  # the first float column holds whole numbers (hit_index)
    monotonic: bool  # the first float column does not decrease within a key (timestamp_ms)


class _Refused(Exception):
    """The columnar pass cannot vouch for a file; the per-row walk reads it instead."""


def _read_runs(path: Path, required: tuple[str, ...], floats, integral=False, monotonic=False):
    """Runs of rows with one key, in file order: [((participant_id, label), float rows), ...].

    `required[1]` is the label column, parsed as `TaskShape` or `Direction`;
    `floats(idx)` picks the float columns from the column index by name. The
    header is row 1; it must name every `required` column, and every data row
    must have exactly the header's field count.

    The rows are parsed column-wise, a chunk at a time. A file that pass cannot
    vouch for (a bad value, a quote, a number that only Python's `float` reads,
    ...) is read again by the per-row walk, which raises the typed error of its
    first bad row or returns what it read.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    with handle:
        header = next(csv.reader(handle), None)
        if header is None:
            raise DataError(f"{path}: empty file")
        idx = {name: i for i, name in enumerate(header)}
        for name in required:
            if name not in idx:
                raise DataError(f"{path}: missing column '{name}'")
        cols = _Columns(
            len(header), idx[required[0]], idx[required[1]], required[1], floats(idx), integral, monotonic
        )
        try:
            return _columnar_runs(handle, cols)
        except _Refused:
            handle.seek(0)
            return _walk_runs(handle, path, cols)


def _columnar_runs(handle, cols: _Columns):
    # every non-float column is read as text, so each field of a row is parsed by one of the two calls
    text_cols = [i for i in range(cols.width) if i not in cols.floats]
    pid, label = text_cols.index(cols.pid), text_cols.index(cols.label)
    labels = {}  # raw label -> enum member, parsed once per distinct value
    runs = []
    while True:
        try:
            lines = handle.readlines(_CHUNK_CHARS)
        except UnicodeDecodeError:
            raise _Refused from None
        if not lines:
            break
        text = "".join(lines)
        # quotes follow csv's rules; every field is in one of the two calls, so a short row fails its
        # call and the comma count pins every row's width; csv refuses a field above its size limit
        if (
            '"' in text
            or "\0" in text
            or text.count(",") != len(lines) * (cols.width - 1)
            or max(map(len, lines)) > csv.field_size_limit()
        ):
            raise _Refused
        try:
            keys = np.loadtxt(lines, dtype=object, usecols=text_cols, **_LOADTXT)
            values = np.loadtxt(lines, usecols=cols.floats, **_LOADTXT) if cols.floats else np.empty((len(lines), 0))
        except ValueError:
            raise _Refused from None
        # loadtxt skips a blank line, which csv reads as a row of 0 fields
        if len(keys) != len(lines) or not np.isfinite(values).all():
            raise _Refused
        if cols.integral and np.any(np.trunc(values[:, 0]) != values[:, 0]):
            raise _Refused
        pids, raw_labels = keys[:, pid], keys[:, label]
        starts = np.flatnonzero((pids[1:] != pids[:-1]) | (raw_labels[1:] != raw_labels[:-1])) + 1
        bounds = [0, *starts.tolist(), len(lines)]
        for lo, hi in zip(bounds, bounds[1:]):
            raw = raw_labels[lo]
            if raw not in labels:
                try:
                    labels[raw] = _LABELS[cols.label_name](raw)
                except ValueError:
                    raise _Refused from None
            runs.append(((pids[lo], labels[raw]), values[lo:hi]))
    if cols.monotonic:
        last = {}
        for key, block in runs:
            t = block[:, 0]
            if np.any(t[1:] < t[:-1]) or t[0] < last.get(key, -np.inf):
                raise _Refused
            last[key] = t[-1]
    return runs


def _walk_runs(handle, path: Path, cols: _Columns):
    """The per-row parse: the first bad row raises its typed error, else the same runs as the columnar pass."""
    reader = csv.reader(handle)
    next(reader)  # the header, checked already
    keys, rows, last = [], [], {}
    for row_no, row in enumerate(reader, start=2):
        if len(row) != cols.width:
            raise DataError(f"{path}: row {row_no} has {len(row)} fields, header has {cols.width}")
        key = (row[cols.pid], _parse_label(cols.label_name, row[cols.label], row_no))
        values = [
            _parse_hit(row[i], row_no) if cols.integral and j == 0 else _parse_float(row[i], row_no)
            for j, i in enumerate(cols.floats)
        ]
        if cols.monotonic:
            if key in last and values[0] < last[key]:
                raise DataError(f"timestamp decreases at file row {row_no}")
            last[key] = values[0]
        keys.append(key)
        rows.append(values)
    block = np.array(rows, dtype=float).reshape(len(rows), len(cols.floats))
    runs, lo = [], 0
    for key, run in itertools.groupby(keys):
        hi = lo + sum(1 for _ in run)
        runs.append((key, block[lo:hi]))
        lo = hi
    return runs


def _grouped(runs) -> dict:
    """Each key's rows in file order, keys in order of first appearance (rows of a key may interleave)."""
    pieces = {}
    for key, block in runs:
        pieces.setdefault(key, []).append(block)
    return {key: blocks[0] if len(blocks) == 1 else np.concatenate(blocks) for key, blocks in pieces.items()}


def _parse_float(raw: str, row: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"cannot parse '{raw}' as a number at file row {row}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value '{raw}' at file row {row}")
    return value


def _parse_label(column: str, raw: str, row: int):
    try:
        return _LABELS[column](raw)
    except ValueError:
        raise DataError(f"unknown {column} '{raw}' at file row {row}") from None


def _parse_hit(raw: str, row: int) -> int:
    value = _parse_float(raw, row)
    if not value.is_integer():
        raise DataError(f"hit_index '{raw}' is not an integer at file row {row}")
    return int(value)


def _hit_order(path: Path, key, hits: np.ndarray):
    """The order that sorts one task's rows by `hits`, which must number hits 1..40 once each."""
    if np.array_equal(hits, _HIT_NUMBERS):
        return slice(None)
    order = np.argsort(hits, kind="stable")
    if not np.array_equal(hits[order], _HIT_NUMBERS):
        seen = [int(h) for h in hits.tolist()]
        found = {
            "repeated": sorted({h for h in seen if seen.count(h) > 1}),
            "missing": sorted(set(_HIT_NUMBERS.tolist()) - set(seen)),
            f"outside 1..{HITS_PER_TASK}": sorted({h for h in seen if not 1 <= h <= HITS_PER_TASK}),
        }
        detail = "; ".join(f"{what} {hit_list}" for what, hit_list in found.items() if hit_list)
        raise DataError(
            f"{path}: the rows of participant {key[0]}, shape {key[1].value} must number hits "
            f"1..{HITS_PER_TASK} once each: {detail}"
        )
    return order


def load_resistance_csv(path) -> list[ResistanceTrace]:
    """Load resistance traces, one per (participant, shape) pair, in file order.

    Rows of a pair must appear in non-decreasing timestamp order. Row numbers
    in errors are 1-based file lines (the header is line 1).
    """
    runs = _read_runs(
        Path(path), RESISTANCE_COLUMNS, lambda idx: [idx["timestamp_ms"], idx["resistance_ohm"]], monotonic=True
    )
    return [
        ResistanceTrace(pid, shape, block[:, 0].copy(), block[:, 1].copy())
        for (pid, shape), block in _grouped(runs).items()
    ]


def load_hits_csv(path) -> dict[tuple[str, TaskShape], np.ndarray]:
    """Load the (40,) hit times of each task, hit 1 first; its rows may come in any order."""
    path = Path(path)
    runs = _read_runs(path, HITS_COLUMNS, lambda idx: [idx["hit_index"], idx["timestamp_ms"]], integral=True)
    grouped = {}
    for key, block in _grouped(runs).items():
        grouped[key] = block[_hit_order(path, key, block[:, 0]), 1].copy()
        _check_hit_times(grouped[key])
    return grouped


def load_gaze_csv(path) -> dict[tuple[str, TaskShape], np.ndarray]:
    """Load (40, G) gaze tables, rows in any order; G is fixed by the header and every row must match it."""
    path = Path(path)

    def columns(idx):
        gcols = [i for name, i in idx.items() if name not in GAZE_KEY_COLUMNS]
        if not gcols:
            raise DataError(f"{path}: no gaze feature columns")
        return [idx["hit_index"], *gcols]

    return {
        key: block[_hit_order(path, key, block[:, 0]), 1:].copy()
        for key, block in _grouped(_read_runs(path, GAZE_KEY_COLUMNS, columns, integral=True)).items()
    }


def load_participants_csv(path) -> dict[str, Direction]:
    """Each participant's direction; a participant listed more than once is refused."""
    path = Path(path)
    directions = {}
    for (pid, direction), block in _read_runs(path, PARTICIPANTS_COLUMNS, lambda idx: []):
        # a run holds a key's consecutive rows, so a repeat next to its first row is in the same block
        if pid in directions or len(block) > 1:
            raise DataError(f"{path}: participant {pid} is listed more than once")
        directions[pid] = direction
    return directions


def write_csv(path, header, rows) -> None:
    """Write one UTF-8 CSV file: the header, then each of `rows`; a path that cannot be written is an IoError."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            w = csv.writer(handle)
            w.writerow(header)
            w.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_dataset_csvs(
    tasks: list[tuple[str, TaskShape, Direction, ResistanceTrace, np.ndarray, np.ndarray]],
    outdir,
) -> dict[str, Path]:
    """Write resistance/hits/gaze/participants CSVs for a list of generated tasks."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    width = tasks[0][5].shape[1] if tasks else 0
    directions = {}
    for pid, _shape, direction, *_ in tasks:
        directions.setdefault(pid, direction)
    tables = {
        "resistance": (RESISTANCE_COLUMNS, (
            [pid, shape.value, repr(float(t)), repr(float(r))]
            for pid, shape, _, trace, _, _ in tasks for t, r in zip(trace.times, trace.values))),
        "hits": (HITS_COLUMNS, (
            [pid, shape.value, k, repr(float(t))]
            for pid, shape, _, _, hit_times, _ in tasks for k, t in enumerate(hit_times, start=1))),
        "gaze": (GAZE_KEY_COLUMNS + tuple(f"g{i + 1}" for i in range(width)), (
            [pid, shape.value, k] + [repr(float(v)) for v in gaze_row]
            for pid, shape, _, _, _, gaze in tasks for k, gaze_row in enumerate(gaze, start=1))),
        "participants": (PARTICIPANTS_COLUMNS, ([pid, d.value] for pid, d in directions.items())),
    }
    paths = {name: outdir / f"{name}.csv" for name in tables}
    for name, (header, rows) in tables.items():
        write_csv(paths[name], header, rows)
    return paths


def _missing_task(what: str, key, path: Path) -> DataError:
    return DataError(f"no {what} for participant {key[0]}, shape {key[1].value} in {path}")


def records_from_csv_dir(data_dir) -> list[ParticipantRecord]:
    """Assemble ParticipantRecords from the four dataset CSVs in `data_dir`.

    Hits and resistance are read in this process while gaze and participants
    are read in the pool's worker; each task reads its files in the order
    hits, resistance, gaze, participants, so the first bad file fails the
    load on any core count.
    """
    data_dir = Path(data_dir)
    paths = {name: data_dir / f"{name}.csv" for name in ("resistance", "hits", "gaze", "participants")}
    for path in paths.values():
        if not path.exists():
            raise IoError(f"missing dataset file: {path}")
    # looked up at call time, so that a loader replaced on this module (as a tracer does) is the one that runs
    tasks = [
        (("hits", load_hits_csv), ("resistance", load_resistance_csv)),
        (("gaze", load_gaze_csv), ("participants", load_participants_csv)),
    ]
    (hits, traces), (gaze, directions) = map_tasks(lambda task: [load(paths[name]) for name, load in task], tasks)
    traced = {(trace.participant_id, trace.shape) for trace in traces}
    for key in [*hits, *gaze]:
        if key not in traced:
            raise _missing_task("resistance rows", key, paths["resistance"])

    records = []
    for trace in traces:
        key = (trace.participant_id, trace.shape)
        if key not in hits:
            raise _missing_task("hit events", key, paths["hits"])
        if key not in gaze:
            raise _missing_task("gaze rows", key, paths["gaze"])
        if trace.participant_id not in directions:
            raise DataError(f"no direction for participant {trace.participant_id}")
        records.append(
            build_record(
                trace.participant_id,
                trace.shape,
                directions[trace.participant_id],
                trace,
                hits[key],
                gaze[key],
            )
        )
    return records
