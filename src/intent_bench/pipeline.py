"""Experiment orchestration: splits, metrics, the two-step run, and the grid.

The two-step run trains the gaze-driven segment classifier, feeds its
probability outputs into a feature setup, and trains the direction LSTM on
the same train/test partition. The grid trains every requested
(model, setup, shape) cell independently with seeds derived from one root
seed. A run (`run`, whose `RunConfig` states its scope) prepares each shape
once (`run_shape`), and its two-step result is two of the grid's cells:
step 1 is the NN-D3 cell, step 2 the LSTM cell of its setup. Every report
renders the run's document (`run_document`), the dict that run.json holds.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .dataset import (
    HIT_NUMBERS,
    SEGMENT_COUNT,
    WINDOWS_PER_TASK,
    ParticipantRecord,
    TaskShape,
    assign_segment_label,
    derive_seed,
    make_dir,
)
from .errors import BadArgument, DataError, InvalidConfig, IoError, TooFewRows
from .features import (
    FEATURE_NAMES,
    DataMatrix,
    SetupId,
    apply_scaler,
    assemble_setup,
    feature_matrix,
    fit_scaler,
)
from .models import (
    DIRECTION_CLASSES,
    BaselineKind,
    LstmConfig,
    MlpConfig,
    SequenceData,
    check_labels,
    lstm_rows,
    random_guess_accuracy,
    train_baseline,
    train_lstm,
    train_mlp,
)
from .pool import map_tasks

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
    """Seeded disjoint-exhaustive split; train size is floor(fraction * n), which must be at least 1."""
    if n < 5:
        raise TooFewRows(f"{n} rows is too few to split")
    k = int(train_fraction * n)
    if k == 0:
        raise TooFewRows(f"a train_fraction of {train_fraction} leaves no training row of {n}")
    perm = np.random.default_rng(seed).permutation(n)
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
    check_labels(labels, num_classes, "label")
    check_labels(predictions, num_classes, "prediction")
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


def _row_labels(records: list[ParticipantRecord], hits: np.ndarray) -> dict:
    """DataMatrix label columns for one row per (record, hit in `hits`), the records in turn."""
    hit = np.tile(hits, len(records))
    return dict(
        segment=assign_segment_label(hit),
        direction=np.repeat(np.array([rec.direction.label for rec in records], dtype=np.int64), hits.size),
        participant=np.repeat(np.array([rec.participant_id for rec in records], dtype=object), hits.size),
        hit=hit,
        shape=records[0].shape,
    )


def window_tables(records: list[ParticipantRecord]) -> tuple[DataMatrix, DataMatrix]:
    """Window-level feature and gaze tables: one row per (participant, dest hit 2..40)."""
    labels = _row_labels(records, HIT_NUMBERS[1:])
    with np.errstate(over="ignore", invalid="ignore"):  # a feature that overflows is refused below
        features_dm = DataMatrix(values=feature_matrix([w for rec in records for w in rec.windows]), **labels)
    if not (finite := np.isfinite(features_dm.values)).all():
        row, column = np.argwhere(~finite)[0]
        raise DataError(f"participant {features_dm.participant[row]}, {features_dm.shape.value}, destination hit "
                        f"{features_dm.hit[row]}: feature {FEATURE_NAMES[column]} overflows")
    gaze_dm = DataMatrix(values=np.vstack([rec.gaze[1:] for rec in records]), **labels)
    return features_dm, gaze_dm


def raw_table(records: list[ParticipantRecord]) -> DataMatrix:
    """Hit-level raw-resistance table: one row per (participant, hit)."""
    values = np.vstack([rec.hit_values[:, None] for rec in records])
    return DataMatrix(values=values, **_row_labels(records, HIT_NUMBERS))


def _train_rows(dm: DataMatrix) -> np.ndarray:
    """The training mask of a split table; an unsplit one cannot be fit on."""
    if dm.train is None:
        raise BadArgument(f"the {dm.shape.value} table has no training mask to fit on")
    return dm.train


def scale_on_train(dm: DataMatrix) -> DataMatrix:
    """Min-max scale every column on the training rows only, apply everywhere; a column that overflows is refused."""
    scaler = fit_scaler(dm.values[_train_rows(dm)])
    with np.errstate(over="ignore", invalid="ignore"):  # a training range that overflows scales its maximum to NaN
        scaled = apply_scaler(scaler, dm.values)
    if not (finite := np.isfinite(scaled).all(axis=0)).all():
        column = int(np.argmin(finite))
        raise DataError(f"{dm.shape.value}, column {column}: scaling on the training range {scaler.mins[column]:g} "
                        f"to {scaler.maxs[column]:g} overflows")
    return dm.with_values(scaled)


def sequences_from_matrix(dm: DataMatrix) -> list[SequenceData]:
    """Per-participant ordered sequences with per-step direction labels and split flags."""
    train_mask = _train_rows(dm)
    seqs = []
    for pid in sorted(set(dm.participant)):
        rows = np.flatnonzero(dm.participant == pid)
        rows = rows[np.argsort(dm.hit[rows], kind="stable")]
        seqs.append(SequenceData(x=dm.values[rows], labels=dm.direction[rows], train_mask=train_mask[rows]))
    return seqs


# --- fitting and scoring ---------------------------------------------------------

_BASELINES = {"KNN": "knn", "SVM": "svm", "LR": "logreg"}  # model name -> BaselineKind name


@dataclass(frozen=True)
class TrainParams:
    mlp_epochs: int = MlpConfig.epochs
    mlp_batch: int = MlpConfig.batch_size
    mlp_lr: float = MlpConfig.lr
    lstm_epochs: int = LstmConfig.epochs
    lstm_batch: int = LstmConfig.batch_size
    lstm_lr: float = LstmConfig.lr
    lstm_l2: float = LstmConfig.l2
    lstm_hidden: int = LstmConfig.hidden_size
    lstm_layers: int = LstmConfig.hidden_layers
    window_len: int = LstmConfig.window_len
    baseline_epochs: int = BaselineKind.epochs
    knn_k: int = BaselineKind.k
    svm_lambda: float = BaselineKind.lam
    logreg_lr: float = BaselineKind.lr

    def __post_init__(self):
        if self.window_len > WINDOWS_PER_TASK:
            raise InvalidConfig(f"window_len ({self.window_len}) must be at most {WINDOWS_PER_TASK}, a task's windows")
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


def fit_eval(model_name: str, step: str, dm: DataMatrix, params: TrainParams, seed: int) -> tuple[Metrics, object]:
    """(Metrics on the held-out rows of `step`'s labels, model) of a grid model fit on a setup matrix's training rows.

    The LSTM, a direction model, reads each participant's rows in hit order and
    is scored on the windows that end on a held-out row; the others read single rows.
    """
    num_classes = _STEPS[step][2]
    if model_name == "LSTM":
        seqs = sequences_from_matrix(dm)
        cfg = params.lstm(dm.values.shape[1], seed)
        x, labels, train = lstm_rows(seqs, cfg)
        if train.all():
            raise TooFewRows(f"{dm.shape.value}: no held-out row ends an LSTM window of {cfg.window_len} rows, "
                             "so there is nothing to score")
        model = train_lstm(seqs, cfg)
    else:
        x, labels, train = dm.values, getattr(dm, step), _train_rows(dm)
        if model_name == "NN":
            model = train_mlp(x[train], labels[train], params.mlp(x.shape[1], num_classes, seed))
        else:
            model = train_baseline(params.baseline(model_name), x[train], labels[train], num_classes, seed)
    return evaluate(model.predict(x[~train]), labels[~train], num_classes), model


# --- runs: the grid and the two-step result ---------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """A run's settings and scope: its grid steps, its two-step setup and its shapes, each checked here."""

    seed: int = 0
    train_fraction: float = 0.8
    train: TrainParams = field(default_factory=TrainParams)
    steps: str = "all"  # segment | direction | all, or "" for no grid
    direction_setup: SetupId | None = SetupId.D6  # None for no two-step result
    shapes: tuple[TaskShape, ...] = (TaskShape.DIAMOND, TaskShape.CIRCLE)

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidConfig(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.steps not in ("", *_STEPS, "all"):
            raise InvalidConfig(f"unknown grid steps '{self.steps}'")
        if not self.steps and self.direction_setup is None:
            raise InvalidConfig("nothing to run: steps is empty and direction_setup is None (on the command line: "
                                "request a grid with --grid or grid.steps, or name a setup in run.direction_setup)")
        if not self.shapes:
            raise InvalidConfig("nothing to run: shapes is empty")
        if len(set(self.shapes)) != len(self.shapes):
            raise InvalidConfig(f"a shape is listed twice in shapes {[s.value for s in self.shapes]}")


# the former names of the two-step run's and the grid's configs, kept for the callers that import them
TwoStepConfig = GridConfig = RunConfig


@dataclass
class PipelineResult:
    shape: TaskShape
    step1: Metrics
    step2: Metrics
    direction_setup: SetupId
    seeds: dict


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


# the (step, model, setup) of the grid cell that is the two-step run's step 1; step 2 is its LSTM cell
_STEP1_CELL = ("segment", "NN", SetupId.D3)


def _split(dm: DataMatrix, cfg: RunConfig, name: str) -> np.ndarray:
    """The training mask of `dm`'s rows, drawn from the seed stream `name`."""
    train_idx, _test_idx = split_indices(dm.n_rows, cfg.train_fraction, derive_seed(cfg.seed, name, dm.shape.value))
    return np.isin(np.arange(dm.n_rows), train_idx)


@dataclass(frozen=True)
class ShapeState:
    """What one shape's setups read (the tables scaled on their training rows, each with its mask), and step 1."""

    features: DataMatrix
    gaze: DataMatrix
    raw: DataMatrix
    probs: np.ndarray  # step 1's segment probabilities of the window rows
    step1: CellResult  # the NN-D3 cell, whose model gave `probs`

    def setup_matrix(self, setup: SetupId) -> DataMatrix:
        """A setup's matrix, with the rows and mask of the hit table for D1 and of the window tables for the rest."""
        rows = self.raw if setup is SetupId.D1 else self.features
        parts = dict(raw=self.raw.values, features=self.features.values, gaze=self.gaze.values, probs=self.probs)
        return assemble_setup(setup, rows, parts)


def _prepare_shape(records, shape: TaskShape, cfg: RunConfig) -> ShapeState:
    """One shape's scaled tables and masks, and step 1: the NN-D3 cell's MLP, whose probabilities step 2 reads."""
    subset = records_for_shape(records, shape)
    feats_dm, gaze_dm = window_tables(subset)
    raw_dm = raw_table(subset)
    window_train = _split(feats_dm, cfg, "split")  # shared by the features and gaze tables
    raw_train = _split(raw_dm, cfg, "raw-split")
    gaze = scale_on_train(replace(gaze_dm, train=window_train))

    step1, model = _fit_cell(cfg, shape, *_STEP1_CELL, gaze)
    return ShapeState(
        features=scale_on_train(replace(feats_dm, train=window_train)),
        gaze=gaze,
        raw=scale_on_train(replace(raw_dm, train=raw_train)),
        probs=model.predict_proba(gaze.values),
        step1=step1,
    )


def _fit_cell(
    cfg: RunConfig, shape: TaskShape, step: str, model_name: str, setup: SetupId, matrix
) -> tuple[CellResult, object]:
    """The grid cell of (step, shape, model, setup) and its model, fit on `matrix`, a setup's matrix with its mask."""
    seed = derive_seed(cfg.seed, "cell", step, shape.value, model_name, setup.value)
    started = time.perf_counter()
    metrics, model = fit_eval(model_name, step, matrix, cfg.train, seed)
    return CellResult(step, shape.value, model_name, setup.value, metrics, seed, time.perf_counter() - started), model


def run_shape(
    records: list[ParticipantRecord], shape: TaskShape, cfg: RunConfig
) -> tuple[list, dict, PipelineResult | None]:
    """One shape of a run: its grid cells of `cfg.steps` in grid order, its random-guess entries
    {(step, shape value): accuracy %}, and with a `cfg.direction_setup` its two-step result.

    The shape is prepared once, and each (step, model, setup) is fit at most once: step 1
    is the NN-D3 cell, and step 2 the LSTM cell of the setup, fit here where the grid has none.
    """
    state = _prepare_shape(records, shape, cfg)
    cells: dict = {}  # (step, model, setup) -> CellResult, in grid order
    random_guess: dict = {}
    for step in [name for name in _STEPS if cfg.steps in (name, "all")]:
        model_names, setups, num_classes = _STEPS[step]
        # the chance level of the window rows that D2..D8 are scored on
        random_guess[(step, shape.value)] = random_guess_accuracy(getattr(state.features, step), num_classes)
        for setup_id in setups:
            matrix = state.setup_matrix(setup_id)
            for model_name in model_names:
                key = (step, model_name, setup_id)
                cells[key] = state.step1 if key == _STEP1_CELL else _fit_cell(cfg, shape, *key, matrix)[0]

    two_step, setup = None, cfg.direction_setup
    if setup is not None:
        key = ("direction", "LSTM", setup)
        step2 = cells.get(key) or _fit_cell(cfg, shape, *key, state.setup_matrix(setup))[0]
        seeds = {"root": cfg.seed, "step1": state.step1.seed, "step2": step2.seed}
        two_step = PipelineResult(shape, state.step1.metrics, step2.metrics, setup, seeds)
    return list(cells.values()), random_guess, two_step


def run(records: list[ParticipantRecord], cfg: RunConfig) -> tuple[GridReport | None, list[PipelineResult]]:
    """A run's grid report (None without grid steps) and two-step results, the shapes side by side, in shape order."""
    runs = map_tasks(partial(run_shape, records, cfg=cfg), cfg.shapes)
    report = None
    if cfg.steps:
        report = GridReport(
            cells=[cell for cells, _guesses, _two_step in runs for cell in cells],
            random_guess={key: acc for _cells, guesses, _two_step in runs for key, acc in guesses.items()},
        )
    return report, [two_step for *_grid, two_step in runs if two_step is not None]


def run_two_step(records: list[ParticipantRecord], shape: TaskShape, cfg: RunConfig) -> PipelineResult:
    """Step 1: the NN-D3 cell, whose gaze -> segment probabilities step 2 reads. Step 2: direction LSTM on the setup."""
    return run_shape(records, shape, replace(cfg, steps=""))[2]


def run_grid(records: list[ParticipantRecord], cfg: RunConfig) -> GridReport:
    """Train and score every requested (model, setup, shape) cell independently, the shapes side by side."""
    return run(records, replace(cfg, direction_setup=None))[0]


# --- reporting: every renderer reads a run's document, which run.json holds ---------


def run_document(report: GridReport | None, two_step: list[PipelineResult], run_meta: dict) -> dict:
    """run.json's document: `run_meta` (provenance), then every grid cell and two-step result with its confusion."""
    doc = dict(run_meta)
    if report is not None:
        doc["cells"] = [
            {"step": c.step, "shape": c.shape, "model": c.model, "setup": c.setup, "seed": c.seed,
             "wall_time_s": c.wall_time, "confusion": c.metrics.confusion.tolist()}
            for c in report.cells
        ]
        doc["random_guess"] = [
            {"step": step, "shape": shape, "accuracy": acc} for (step, shape), acc in report.random_guess.items()
        ]
    doc["two_step"] = [
        {
            "shape": r.shape.value,
            "setup": r.direction_setup.value,
            "step1_accuracy": r.step1.accuracy,
            "step2_accuracy": r.step2.accuracy,
            "seeds": r.seeds,
            "step1_confusion": r.step1.confusion.tolist(),
            "step2_confusion": r.step2.confusion.tolist(),
        }
        for r in two_step
    ]
    return doc


def _stored_metrics(rows) -> Metrics:
    """The metrics of a confusion matrix stored in a run's document, which must be square with a positive total."""
    cm = np.array(rows)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or not cm.sum() > 0:
        raise ValueError(f"a confusion matrix must be square with a positive total, got {rows}")
    return metrics_from_confusion(cm)


def format_cell(metrics: Metrics) -> str:
    return f"{metrics.accuracy:.2f} [{metrics.macro_f1:.3f}]"


def two_step_line(entry: dict) -> str:
    """The line of a two-step entry of a run's document, as report.txt holds it and `run` prints it."""
    shape, setup = TaskShape(entry["shape"]), SetupId(entry["setup"])  # a name of no shape or setup is refused
    step1, step2 = _stored_metrics(entry["step1_confusion"]), _stored_metrics(entry["step2_confusion"])
    return (f"two-step ({shape.value}, setup {setup.value}): "
            f"step-1 segment {format_cell(step1)} | step-2 direction {format_cell(step2)}")


def _cell_metrics(doc: dict) -> dict:
    """The metrics of a document's grid cells by (step, shape, model, setup); a key held by two cells is refused."""
    index = {(c["step"], c["shape"], c["model"], c["setup"]): _stored_metrics(c["confusion"]) for c in doc["cells"]}
    if len(index) != len(doc["cells"]):
        raise BadArgument(f"{len(doc['cells']) - len(index)} cell(s) listed twice")
    return index


def _tables(index: dict):
    """(step, shape, models, setup names, metrics by (model, setup), key of the best cell) of every table with
    cells in `index`, which `_cell_metrics` gives."""
    for step, (models_, setup_ids, _num_classes) in _STEPS.items():
        setups = [s.value for s in setup_ids]
        keys = [(m, s) for m in models_ for s in setups]
        for shape in sorted({shape for _step, shape, *_cell in index}):
            cells = {key: index[(step, shape, *key)] for key in keys if (step, shape, *key) in index}
            if not cells:
                continue
            if len(cells) != len(keys):
                raise BadArgument(f"{step}/{shape}: missing cells {[key for key in keys if key not in cells]}")
            best = max(cells, key=lambda k: (cells[k].accuracy, cells[k].macro_f1))
            yield step, shape, models_, setups, cells, best


def _random_guesses(doc: dict) -> list:
    """The document's random-guess ((step, shape), accuracy %) entries, by step and shape."""
    return sorted({(g["step"], g["shape"]): g["accuracy"] for g in doc["random_guess"]}.items())


def render_text(doc: dict) -> str:
    """Paper-style tables of a document's grid: accuracy (%) [macro F1] per cell, best cell emphasized."""
    lines = []
    for step, shape, models_, setups, cells, best in _tables(_cell_metrics(doc)):
        # segment tables list the models down the side, direction tables the setups
        by_model = step == "segment"
        rows, columns = (models_, setups) if by_model else (setups, models_)
        lines.append(f"== {step} prediction - {shape} (accuracy % [macro F1]) ==")
        lines.append(("model" if by_model else "setup").ljust(8) + "".join(c.ljust(20) for c in columns))
        for r in rows:
            row = [r.ljust(8)]
            for c in columns:
                key = (r, c) if by_model else (c, r)
                text = format_cell(cells[key])
                if key == best:
                    text = f"**{text}**"
                row.append(text.ljust(20))
            lines.append("".join(row).rstrip())
        lines.append("")
    if guesses := _random_guesses(doc):
        lines.append("== random-guess baselines (accuracy %) ==")
        for (step, shape), acc in guesses:
            lines.append(f"{step} prediction for {shape}: {acc:.2f}")
        lines.append("")
    return "\n".join(lines)


def render_csv(doc: dict) -> str:
    """A document's grid as flat cells: step,shape,model,setup,accuracy,f1,best."""
    lines = ["step,shape,model,setup,accuracy,f1,best"]
    index = _cell_metrics(doc)
    bests = {(step, shape): best for step, shape, *_layout, best in _tables(index)}
    for key in sorted(index, key=lambda k: (k[0], k[1], k[3], k[2])):  # by step, shape, setup, model
        step, shape, model, setup = key
        flag = int(bests.get((step, shape)) == (model, setup))
        lines.append(f"{step},{shape},{model},{setup},{index[key].accuracy:.2f},{index[key].macro_f1:.3f},{flag}")
    for (step, shape), acc in _random_guesses(doc):
        lines.append(f"{step},{shape},RANDOM,,{acc:.2f},,0")
    return "\n".join(lines) + "\n"


def reference_ordering_notes(doc: dict) -> list[str]:
    """Informational ordering checks of a document's grid against the published reference results."""
    notes = []
    index = _cell_metrics(doc)
    acc = {key: m.accuracy for key, m in index.items()}
    # each direction table's best cell, by the rule that marks it in report.txt and report.csv
    best_direction = {shape: best for step, shape, *_, best in _tables(index) if step == "direction"}
    for shape in ("diamond", "circle"):
        a_d3, a_d1 = acc.get(("segment", shape, "NN", "D3")), acc.get(("segment", shape, "NN", "D1"))
        if a_d3 is not None and a_d1 is not None:
            status = "ok" if a_d3 > a_d1 else "deviation"
            notes.append(
                f"{status}: segment/{shape}: NN on gaze (D3) {a_d3:.2f} vs raw (D1) {a_d1:.2f} "
                "(reference expects D3 > D1)"
            )
        if best := best_direction.get(shape):
            top = acc["direction", shape, *best]
            favored = acc["direction", shape, "LSTM", REFERENCE_BEST_DIRECTION_SETUP]
            # a tie with the top cell still honors the expected ordering
            status = "ok" if favored >= top - 1e-9 else "deviation"
            notes.append(
                f"{status}: direction/{shape}: best cell {best[0]}-{best[1]} at {top:.2f}, LSTM-D6 at {favored:.2f} "
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


def report_text(doc: dict) -> str:
    """report.txt of a run's document: a grid's header (from its provenance) and tables, then the two-step results."""
    lines = [two_step_line(entry) for entry in doc["two_step"]]
    if "cells" not in doc:
        return "\n".join(lines) + "\n"
    text = "\n".join([
        "Motion-intention benchmark report",
        f"root seed: {doc['root_seed']} | config: {doc['config_hash']}",
        "caveat: the split is per-sample, so context windows can straddle the partition",
        "(within-participant information reuse is part of the protocol).\n",
        render_text(doc),
    ])
    if not lines:
        return text
    return text + "== two-step pipeline ==\n" + "\n".join(lines) + "\n"


def write_output(path, text: str) -> None:
    """Write one output file as UTF-8; a path that cannot be written is an IoError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_run_outputs(outdir, doc: dict, reference_notes: list[str] | None = None) -> None:
    """Write a run's document as run.json, its report.txt and (with a grid) report.csv, and notes."""
    outdir = make_dir(outdir)
    write_output(outdir / "report.txt", report_text(doc))
    if "cells" in doc:
        write_output(outdir / "report.csv", render_csv(doc))
    write_output(outdir / "run.json", json.dumps(doc, indent=2, default=str))

    if reference_notes:
        notes = ["informational ordering checks (never gating):", *reference_notes]
        write_output(outdir / "reference_checks.txt", "\n".join(notes) + "\n")
