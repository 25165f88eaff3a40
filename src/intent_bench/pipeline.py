"""Experiment orchestration: splits, metrics, the two-step run, and the grid.

The two-step run trains the gaze-driven segment classifier, feeds its
probability outputs into a feature setup, and trains the direction LSTM on
the same train/test partition. The grid trains every requested
(model, setup, shape) cell independently with seeds derived from one root
seed, then renders the comparison tables. A run prepares each shape once
(`run_shape`), and its two-step result is two of the grid's cells: step 1 is
the NN-D3 cell, step 2 the LSTM cell of its setup.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .dataset import (
    HITS_PER_TASK,
    SEGMENT_COUNT,
    ParticipantRecord,
    TaskShape,
    assign_segment_label,
    derive_seed,
)
from .errors import BadArgument, InvalidConfig, IoError, TooFewRows
from .features import (
    DataMatrix,
    SetupId,
    apply_scaler,
    assemble_setup,
    feature_matrix,
    fit_scaler,
)
from .models import (
    BaselineKind,
    LstmConfig,
    MlpConfig,
    SequenceData,
    lstm_rows,
    random_guess_accuracy,
    train_baseline,
    train_lstm,
    train_mlp,
)
from .pool import map_tasks

DIRECTION_CLASSES = 2

# grid step -> (models, setups, number of classes), each in the order of its report table
_STEPS = {
    "segment": (("NN", "KNN", "SVM", "LR"), (SetupId.D1, SetupId.D2, SetupId.D3, SetupId.D5), SEGMENT_COUNT),
    "direction": (("LSTM", "KNN", "SVM", "LR"), tuple(SetupId), DIRECTION_CLASSES),
}

# Ordering expectations from the published reference results, reported
# informationally and never used as gates.
REFERENCE_BEST_DIRECTION_SETUP = "D6"
REFERENCE_FEATURE_GAIN_POINTS = 34.6


def config_hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()[:16]


# --- splitting ---------------------------------------------------------------


def split_indices(n: int, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded disjoint-exhaustive split; train size is floor(fraction * n)."""
    if n < 5:
        raise TooFewRows(f"{n} rows is too few to split")
    perm = np.random.default_rng(seed).permutation(n)
    k = int(train_fraction * n)
    return np.sort(perm[:k]), np.sort(perm[k:])


# --- metrics -----------------------------------------------------------------


@dataclass
class Metrics:
    accuracy: float  # percent
    macro_f1: float
    confusion: np.ndarray


def evaluate(predictions, labels, num_classes: int) -> Metrics:
    """Accuracy (%), macro-averaged F1 (0 for classes with no support/predictions), confusion."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape[0] != labels.shape[0]:
        raise BadArgument(f"{predictions.shape[0]} predictions for {labels.shape[0]} labels")
    if labels.shape[0] == 0:
        raise TooFewRows("cannot score zero rows")
    for name, values in (("label", labels), ("prediction", predictions)):
        if np.any((values < 0) | (values >= num_classes)):
            raise BadArgument(f"{name} outside 0..{num_classes - 1}")
    cells = labels.astype(int) * num_classes + predictions.astype(int)
    return metrics_from_confusion(np.bincount(cells, minlength=num_classes**2).reshape(num_classes, num_classes))


def metrics_from_confusion(cm: np.ndarray) -> Metrics:
    """Metrics of a confusion matrix whose rows are true classes and columns predictions."""
    num_classes = cm.shape[0]
    accuracy = 100.0 * np.trace(cm) / cm.sum()
    f1s = []
    for c in range(num_classes):
        tp = cm[c, c]
        prec = tp / cm[:, c].sum() if cm[:, c].sum() else 0.0
        rec = tp / cm[c, :].sum() if cm[c, :].sum() else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return Metrics(accuracy=float(accuracy), macro_f1=float(np.mean(f1s)), confusion=cm)


# --- table builders -----------------------------------------------------------


def records_for_shape(records: list[ParticipantRecord], shape: TaskShape, least: int = 2) -> list[ParticipantRecord]:
    """The records of one shape in participant order; a split needs at least 2 participants."""
    subset = sorted((r for r in records if r.shape is shape), key=lambda r: r.participant_id)
    if len(subset) < least:
        raise TooFewRows(f"need at least {least} participant(s) for shape {shape.value}, got {len(subset)}")
    return subset


def _row_labels(records: list[ParticipantRecord], hits: list[np.ndarray]) -> dict:
    """DataMatrix label columns for one row per (record, hit index in that record's `hits`)."""
    return dict(
        segment=np.concatenate([[assign_segment_label(h) for h in rec_hits] for rec_hits in hits]),
        direction=np.concatenate([np.full(h.size, rec.direction.label) for rec, h in zip(records, hits)]),
        participant=np.concatenate(
            [np.full(h.size, rec.participant_id, dtype=object) for rec, h in zip(records, hits)]
        ),
        hit=np.concatenate(hits),
        shape=records[0].shape,
    )


def window_tables(records: list[ParticipantRecord]) -> tuple[DataMatrix, DataMatrix]:
    """Window-level feature and gaze tables: one row per (participant, dest hit 2..40)."""
    labels = _row_labels(records, [np.arange(2, HITS_PER_TASK + 1)] * len(records))
    features_dm = DataMatrix(values=np.vstack([feature_matrix(rec.windows) for rec in records]), **labels)
    gaze_dm = DataMatrix(values=np.vstack([rec.gaze[1:] for rec in records]), **labels)
    return features_dm, gaze_dm


def raw_table(records: list[ParticipantRecord]) -> DataMatrix:
    """Hit-level raw-resistance table: one row per (participant, hit)."""
    hits = [np.arange(1, HITS_PER_TASK + 1)] * len(records)
    values = np.vstack([rec.hit_values[:, None] for rec in records])
    return DataMatrix(values=values, **_row_labels(records, hits))


def scale_on_train(dm: DataMatrix, train_idx: np.ndarray) -> DataMatrix:
    """Min-max scale every column on the training rows only, apply everywhere."""
    scaler = fit_scaler(dm.values[train_idx])
    return dm.with_values(apply_scaler(scaler, dm.values))


def sequences_from_matrix(dm: DataMatrix, train_idx: np.ndarray) -> list[SequenceData]:
    """Per-participant ordered sequences with per-step direction labels and split flags."""
    train_mask = np.zeros(dm.n_rows, dtype=bool)
    train_mask[train_idx] = True
    seqs = []
    for pid in sorted(set(dm.participant)):
        rows = np.flatnonzero(dm.participant == pid)
        rows = rows[np.argsort(dm.hit[rows], kind="stable")]
        seqs.append(
            SequenceData(
                x=dm.values[rows],
                labels=dm.direction[rows],
                train_mask=train_mask[rows],
            )
        )
    return seqs


# --- fitting and scoring ---------------------------------------------------------

_BASELINES = {"KNN": "knn", "SVM": "svm", "LR": "logreg"}  # model name -> BaselineKind name


@dataclass(frozen=True)
class TrainParams:
    mlp_epochs: int = 50
    mlp_batch: int = 32
    mlp_lr: float = 0.001
    lstm_epochs: int = 50
    lstm_batch: int = 32
    lstm_lr: float = 0.001
    lstm_l2: float = 0.01
    lstm_hidden: int = 50
    lstm_layers: int = 2
    window_len: int = 5
    baseline_epochs: int = 200
    knn_k: int = 5
    svm_lambda: float = 0.01
    logreg_lr: float = 0.1

    def __post_init__(self):
        # build every model config these values feed once, so that a bad value fails here
        self.mlp(1, SEGMENT_COUNT, 0)
        self.lstm(1, 0)
        for model_name in _BASELINES:
            self.baseline(model_name)

    def mlp(self, width: int, classes: int, seed: int) -> MlpConfig:
        return MlpConfig(
            input_width=width, output=classes, lr=self.mlp_lr, epochs=self.mlp_epochs, batch_size=self.mlp_batch,
            seed=seed,
        )

    def lstm(self, width: int, seed: int) -> LstmConfig:
        return LstmConfig(
            input_width=width, hidden_layers=self.lstm_layers, hidden_size=self.lstm_hidden, l2=self.lstm_l2,
            lr=self.lstm_lr, epochs=self.lstm_epochs, batch_size=self.lstm_batch, window_len=self.window_len, seed=seed,
        )

    def baseline(self, model_name: str) -> BaselineKind:
        return BaselineKind(
            _BASELINES[model_name], k=self.knn_k, lam=self.svm_lambda, lr=self.logreg_lr, epochs=self.baseline_epochs
        )


def fit_eval(
    model_name: str, step: str, dm: DataMatrix, train_idx, test_idx, params: TrainParams, seed: int
) -> Metrics:
    """Train a grid model on a setup matrix's training rows and score it on the held-out rows of `step`'s labels.

    The LSTM, a direction model, reads each participant's rows in hit order and
    is scored on the windows that end on a held-out row; the others read single rows.
    """
    num_classes = _STEPS[step][2]
    if model_name == "LSTM":
        seqs = sequences_from_matrix(dm, train_idx)
        cfg = params.lstm(dm.values.shape[1], seed)
        model = train_lstm(seqs, cfg)
        x, y, train = lstm_rows(seqs, cfg)
        return evaluate(model.predict(x[~train]), y[~train], num_classes)
    x, labels = dm.values, getattr(dm, step)
    if model_name == "NN":
        model = train_mlp(x[train_idx], labels[train_idx], params.mlp(x.shape[1], num_classes, seed))
    else:
        model = train_baseline(params.baseline(model_name), x[train_idx], labels[train_idx], num_classes, seed)
    return evaluate(model.predict(x[test_idx]), labels[test_idx], num_classes)


# --- runs: the grid and the two-step result ---------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by the two-step run and the grid; the split settings are checked here."""

    seed: int = 0
    train_fraction: float = 0.8
    train: TrainParams = field(default_factory=TrainParams)

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidConfig(f"train_fraction must be in (0, 1), got {self.train_fraction}")


@dataclass(frozen=True)
class TwoStepConfig(RunConfig):
    direction_setup: SetupId = SetupId.D6


@dataclass(frozen=True)
class GridConfig(RunConfig):
    steps: str = "all"  # segment | direction | all
    shapes: tuple[TaskShape, ...] = (TaskShape.DIAMOND, TaskShape.CIRCLE)

    def __post_init__(self):
        super().__post_init__()
        if self.steps not in (*_STEPS, "all"):
            raise InvalidConfig(f"unknown grid steps '{self.steps}'")


@dataclass
class PipelineResult:
    shape: TaskShape
    step1: Metrics
    step2: Metrics
    direction_setup: SetupId
    seeds: dict
    config_hash: str


# the fields of a cell record in run.json, ahead of its wall time and confusion
_CELL_FIELDS = ("step", "shape", "model", "setup", "seed")


@dataclass
class CellResult:
    step: str
    shape: str
    model: str
    setup: str
    metrics: Metrics
    seed: int
    wall_time: float


@dataclass
class GridReport:
    cells: list[CellResult]
    random_guess: dict  # (step, shape value) -> accuracy %
    root_seed: int
    config_hash: str

    def by_key(self) -> dict:
        """The cells by (step, shape, model, setup), in grid order; a key held by two cells is refused."""
        index = {(c.step, c.shape, c.model, c.setup): c for c in self.cells}
        if len(index) != len(self.cells):
            raise BadArgument(f"{len(self.cells) - len(index)} cell(s) listed twice")
        return index


# the (step, model, setup) of the grid cell that is the two-step run's step 1; step 2 is its LSTM cell
_STEP1_CELL = ("segment", "NN", SetupId.D3)


def _cell_seed(cfg: RunConfig, shape: TaskShape, step: str, model_name: str, setup: SetupId) -> int:
    return derive_seed(cfg.seed, "cell", step, shape.value, model_name, setup.value)


def _split(dm: DataMatrix, cfg: RunConfig, name: str) -> tuple[np.ndarray, np.ndarray]:
    return split_indices(dm.n_rows, cfg.train_fraction, derive_seed(cfg.seed, name, dm.shape.value))


@dataclass(frozen=True)
class ShapeState:
    """What one shape's setups read (the tables scaled on their training rows), their partitions, and step 1."""

    features: DataMatrix
    gaze: DataMatrix
    raw: DataMatrix
    probs: np.ndarray  # step 1's segment probabilities of the window rows
    step1: CellResult  # the NN-D3 cell, scored on the held-out rows of `probs`
    train_idx: np.ndarray  # window partition, shared by D2..D8
    test_idx: np.ndarray
    raw_train: np.ndarray  # hit partition of the raw table (D1)
    raw_test: np.ndarray

    def setup_matrix(self, setup: SetupId) -> tuple[DataMatrix, np.ndarray, np.ndarray]:
        """A setup's matrix and its train and test rows: the hit rows for D1, the window rows for the rest."""
        if setup is SetupId.D1:
            rows, train_idx, test_idx = self.raw, self.raw_train, self.raw_test
        else:
            rows, train_idx, test_idx = self.features, self.train_idx, self.test_idx
        parts = dict(raw=self.raw.values, features=self.features.values, gaze=self.gaze.values, probs=self.probs)
        return assemble_setup(setup, rows, parts), train_idx, test_idx


def _prepare_shape(records, shape: TaskShape, cfg: RunConfig) -> ShapeState:
    """One shape's scaled tables and partitions, and step 1: the NN-D3 cell's MLP, whose probabilities step 2 reads."""
    subset = records_for_shape(records, shape)
    feats_dm, gaze_dm = window_tables(subset)
    raw_dm = raw_table(subset)
    train_idx, test_idx = _split(feats_dm, cfg, "split")
    raw_train, raw_test = _split(raw_dm, cfg, "raw-split")
    gaze = scale_on_train(gaze_dm, train_idx)

    step, model_name, setup = _STEP1_CELL
    seed = _cell_seed(cfg, shape, *_STEP1_CELL)
    started = time.perf_counter()
    mlp_cfg = cfg.train.mlp(gaze.values.shape[1], SEGMENT_COUNT, seed)
    probs = train_mlp(gaze.values[train_idx], gaze.segment[train_idx], mlp_cfg).predict_proba(gaze.values)
    metrics = evaluate(np.argmax(probs[test_idx], axis=1), gaze.segment[test_idx], SEGMENT_COUNT)
    step1 = CellResult(step, shape.value, model_name, setup.value, metrics, seed, time.perf_counter() - started)

    return ShapeState(
        features=scale_on_train(feats_dm, train_idx),
        gaze=gaze,
        raw=scale_on_train(raw_dm, raw_train),
        probs=probs,
        step1=step1,
        train_idx=train_idx,
        test_idx=test_idx,
        raw_train=raw_train,
        raw_test=raw_test,
    )


def _fit_cell(cfg: RunConfig, shape: TaskShape, step: str, model_name: str, setup: SetupId, matrix) -> CellResult:
    """The grid cell of (step, shape, model, setup), fit on `matrix` (a setup's matrix and its train and test rows)."""
    seed = _cell_seed(cfg, shape, step, model_name, setup)
    started = time.perf_counter()
    metrics = fit_eval(model_name, step, *matrix, cfg.train, seed)
    return CellResult(step, shape.value, model_name, setup.value, metrics, seed, time.perf_counter() - started)


def run_shape(
    records: list[ParticipantRecord], shape: TaskShape, cfg: RunConfig, steps: str = "", setup: SetupId | None = None
) -> tuple[list, dict, PipelineResult | None]:
    """One shape of a run: its grid cells of `steps` (a grid scope, or "" for none) in grid order, its
    random-guess entries {(step, shape value): accuracy %}, and with a `setup` its two-step result.

    The shape is prepared once, and each (step, model, setup) is fit at most once: step 1
    is the NN-D3 cell, and step 2 the LSTM cell of `setup`, fit here where the grid has none.
    """
    state = _prepare_shape(records, shape, cfg)
    cells: dict = {}  # (step, model, setup) -> CellResult, in grid order
    random_guess: dict = {}
    for step in [name for name in _STEPS if steps in (name, "all")]:
        model_names, setups, num_classes = _STEPS[step]
        # the chance level of the window rows that D2..D8 are scored on
        random_guess[(step, shape.value)] = random_guess_accuracy(getattr(state.features, step), num_classes)
        for setup_id in setups:
            matrix = state.setup_matrix(setup_id)
            for model_name in model_names:
                key = (step, model_name, setup_id)
                cells[key] = state.step1 if key == _STEP1_CELL else _fit_cell(cfg, shape, *key, matrix)

    two_step = None
    if setup is not None:
        key = ("direction", "LSTM", setup)
        step2 = cells.get(key) or _fit_cell(cfg, shape, *key, state.setup_matrix(setup))
        doc = asdict(cfg) | {"direction_setup": setup, "shape": shape.value}
        seeds = {"root": cfg.seed, "step1": state.step1.seed, "step2": step2.seed}
        two_step = PipelineResult(shape, state.step1.metrics, step2.metrics, setup, seeds, config_hash(doc))
    return list(cells.values()), random_guess, two_step


def run_two_step(records: list[ParticipantRecord], shape: TaskShape, cfg: TwoStepConfig) -> PipelineResult:
    """Step 1: gaze -> segment probabilities, scored as step 2 reads them. Step 2: direction LSTM on the setup."""
    return run_shape(records, shape, cfg, setup=cfg.direction_setup)[2]


def grid_report(runs: list[tuple], cfg: GridConfig) -> GridReport:
    """The grid report of the shapes' `run_shape` results, in shape order."""
    return GridReport(
        cells=[cell for cells, _guesses, _two_step in runs for cell in cells],
        random_guess={key: acc for _cells, guesses, _two_step in runs for key, acc in guesses.items()},
        root_seed=cfg.seed,
        config_hash=config_hash(asdict(cfg)),
    )


def run_grid(records: list[ParticipantRecord], cfg: GridConfig) -> GridReport:
    """Train and score every requested (model, setup, shape) cell independently, the shapes side by side."""
    return grid_report(map_tasks(partial(run_shape, records, cfg=cfg, steps=cfg.steps), cfg.shapes), cfg)


# --- reporting -------------------------------------------------------------------


def format_cell(metrics: Metrics) -> str:
    return f"{metrics.accuracy:.2f} [{metrics.macro_f1:.3f}]"


def _tables(report: GridReport):
    """(step, shape, models, setup names, cells, key of the best cell) of every table that has cells."""
    index = report.by_key()
    for step, (models_, setup_ids, _num_classes) in _STEPS.items():
        setups = [s.value for s in setup_ids]
        keys = [(m, s) for m in models_ for s in setups]
        for shape in sorted({c.shape for c in report.cells}):
            cells = {key: index[(step, shape, *key)] for key in keys if (step, shape, *key) in index}
            if not cells:
                continue
            if len(cells) != len(keys):
                raise BadArgument(f"{step}/{shape}: missing cells {[key for key in keys if key not in cells]}")
            best = max(cells, key=lambda k: (cells[k].metrics.accuracy, cells[k].metrics.macro_f1))
            yield step, shape, models_, setups, cells, best


def render_text(report: GridReport) -> str:
    """Paper-style tables: accuracy (%) [macro F1] per cell, best cell emphasized."""
    lines = [
        "Motion-intention benchmark report",
        f"root seed: {report.root_seed} | config: {report.config_hash}",
        "caveat: the split is per-sample, so context windows can straddle the partition",
        "(within-participant information reuse is part of the protocol).",
        "",
    ]
    for step, shape, models_, setups, cells, best in _tables(report):
        # segment tables list the models down the side, direction tables the setups
        by_model = step == "segment"
        rows, columns = (models_, setups) if by_model else (setups, models_)
        lines.append(f"== {step} prediction - {shape} (accuracy % [macro F1]) ==")
        lines.append(("model" if by_model else "setup").ljust(8) + "".join(c.ljust(20) for c in columns))
        for r in rows:
            row = [r.ljust(8)]
            for c in columns:
                key = (r, c) if by_model else (c, r)
                text = format_cell(cells[key].metrics)
                if key == best:
                    text = f"**{text}**"
                row.append(text.ljust(20))
            lines.append("".join(row).rstrip())
        lines.append("")
    if report.random_guess:
        lines.append("== random-guess baselines (accuracy %) ==")
        for (step, shape), acc in sorted(report.random_guess.items()):
            lines.append(f"{step} prediction for {shape}: {acc:.2f}")
        lines.append("")
    return "\n".join(lines)


def render_csv(report: GridReport) -> str:
    """Flat cells: step,shape,model,setup,accuracy,f1,best."""
    lines = ["step,shape,model,setup,accuracy,f1,best"]
    bests = {(step, shape): best for step, shape, *_layout, best in _tables(report)}
    for c in sorted(report.cells, key=lambda c: (c.step, c.shape, c.setup, c.model)):
        flag = int(bests.get((c.step, c.shape)) == (c.model, c.setup))
        lines.append(
            f"{c.step},{c.shape},{c.model},{c.setup},{c.metrics.accuracy:.2f},{c.metrics.macro_f1:.3f},{flag}"
        )
    for (step, shape), acc in sorted(report.random_guess.items()):
        lines.append(f"{step},{shape},RANDOM,,{acc:.2f},,0")
    return "\n".join(lines) + "\n"


def _stored_metrics(rows) -> Metrics:
    """The metrics of a confusion matrix read from run.json, which must be square with a positive total."""
    cm = np.array(rows)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or not cm.sum() > 0:
        raise ValueError(f"a confusion matrix must be square with a positive total, got {rows}")
    return metrics_from_confusion(cm)


def read_run_outputs(outdir) -> tuple[GridReport | None, list[PipelineResult]]:
    """Rebuild the grid report (None for a run without a grid) and two-step results from run.json.

    A document that does not have the layout `write_run_outputs` writes raises
    KeyError, ValueError, TypeError or AttributeError.
    """
    meta = json.loads((Path(outdir) / "run.json").read_text(encoding="utf-8"))
    report = None
    if "cells" in meta:
        report = GridReport(
            cells=[
                CellResult(
                    **{name: c[name] for name in _CELL_FIELDS},
                    metrics=_stored_metrics(c["confusion"]),
                    wall_time=c["wall_time_s"],
                )
                for c in meta["cells"]
            ],
            random_guess={(g["step"], g["shape"]): g["accuracy"] for g in meta["random_guess"]},
            root_seed=meta["root_seed"],
            config_hash=meta["grid_config_hash"],
        )
    two_step = [
        PipelineResult(
            TaskShape(r["shape"]), _stored_metrics(r["step1_confusion"]), _stored_metrics(r["step2_confusion"]),
            SetupId(r["setup"]), r["seeds"], r["config_hash"],
        )
        for r in meta["two_step"]
    ]
    return report, two_step


def reference_ordering_notes(report: GridReport) -> list[str]:
    """Informational ordering checks against the published reference results."""
    notes = []
    acc = {key: c.metrics.accuracy for key, c in report.by_key().items()}
    for shape in ("diamond", "circle"):
        a_d3, a_d1 = acc.get(("segment", shape, "NN", "D3")), acc.get(("segment", shape, "NN", "D1"))
        if a_d3 is not None and a_d1 is not None:
            status = "ok" if a_d3 > a_d1 else "deviation"
            notes.append(
                f"{status}: segment/{shape}: NN on gaze (D3) {a_d3:.2f} vs raw (D1) {a_d1:.2f} "
                "(reference expects D3 > D1)"
            )
        # in grid order, so that the first of equal cells is the best
        direction_cells = {(m, s): a for (step, sh, m, s), a in acc.items() if (step, sh) == ("direction", shape)}
        if direction_cells:
            best = max(direction_cells, key=lambda k: direction_cells[k])
            expected = ("LSTM", REFERENCE_BEST_DIRECTION_SETUP)
            favored = direction_cells.get(expected, float("-inf"))
            # a tie with the top cell still honors the expected ordering
            status = "ok" if favored >= direction_cells[best] - 1e-9 else "deviation"
            notes.append(
                f"{status}: direction/{shape}: best cell {best[0]}-{best[1]} at "
                f"{direction_cells[best]:.2f}, LSTM-D6 at {favored:.2f} "
                "(reference expects LSTM-D6 on top)"
            )
    d2, d1 = acc.get(("direction", "diamond", "LSTM", "D2")), acc.get(("direction", "diamond", "LSTM", "D1"))
    if d2 is not None and d1 is not None:
        gap = d2 - d1
        status = "ok" if abs(gap - REFERENCE_FEATURE_GAIN_POINTS) <= 10.0 else "deviation"
        notes.append(
            f"{status}: direction/diamond: LSTM D2-D1 gap {gap:.2f} points "
            f"(reference reports about {REFERENCE_FEATURE_GAIN_POINTS})"
        )
    return notes


def report_text(report: GridReport | None, two_step: list[PipelineResult]) -> str:
    """report.txt: the grid tables, if any, followed by the two-step results."""
    lines = [
        f"two-step ({r.shape.value}, setup {r.direction_setup.value}): "
        f"step-1 segment {format_cell(r.step1)} | step-2 direction {format_cell(r.step2)}"
        for r in two_step
    ]
    if report is None:
        return "\n".join(lines) + "\n"
    if not lines:
        return render_text(report)
    return render_text(report) + "== two-step pipeline ==\n" + "\n".join(lines) + "\n"


def write_output(path, text: str) -> None:
    """Write one output file as UTF-8; a path that cannot be written is an IoError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_run_outputs(
    outdir,
    report: GridReport | None,
    two_step: list[PipelineResult],
    run_meta: dict,
    reference_notes: list[str] | None = None,
) -> None:
    """Write report.txt, report.csv, run.json (provenance and every confusion matrix), and notes."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_output(outdir / "report.txt", report_text(report, two_step))

    meta = dict(run_meta)
    if report is not None:
        write_output(outdir / "report.csv", render_csv(report))
        meta["grid_config_hash"] = report.config_hash
        meta["cells"] = [
            {
                **{name: getattr(c, name) for name in _CELL_FIELDS},
                "wall_time_s": c.wall_time,
                "confusion": c.metrics.confusion.tolist(),
            }
            for c in report.cells
        ]
        meta["random_guess"] = [
            {"step": step, "shape": shape, "accuracy": acc} for (step, shape), acc in report.random_guess.items()
        ]
    meta["two_step"] = [
        {
            "shape": r.shape.value,
            "setup": r.direction_setup.value,
            "step1_accuracy": r.step1.accuracy,
            "step2_accuracy": r.step2.accuracy,
            "seeds": r.seeds,
            "config_hash": r.config_hash,
            "step1_confusion": r.step1.confusion.tolist(),
            "step2_confusion": r.step2.confusion.tolist(),
        }
        for r in two_step
    ]
    write_output(outdir / "run.json", json.dumps(meta, indent=2, default=str))

    if reference_notes:
        notes = ["informational ordering checks (never gating):", *reference_notes]
        write_output(outdir / "reference_checks.txt", "\n".join(notes) + "\n")
