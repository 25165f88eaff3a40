import pickle

import numpy as np
import pytest

from intent_bench import errors, nn
from intent_bench.dataset import ResistanceTrace, TaskShape, assign_segment_label, load_resistance_csv, segment_trace
from intent_bench.errors import BadArgument, DataError, TooFewRows
from intent_bench.features import (
    DataMatrix,
    FeatureKind,
    SetupId,
    apply_scaler,
    assemble_setup,
    compute_feature,
    fit_scaler,
)
from intent_bench.models import BaselineKind, LstmConfig, SequenceData, lstm_rows, train_baseline
from intent_bench.pipeline import CellResult, GridReport, Metrics, evaluate, render_text, run_document

SUBCLASSES = errors.IntentBenchError.__subclasses__()
ERRORS = [errors.IntentBenchError, *SUBCLASSES]

HEADER = "participant_id,shape,timestamp_ms,resistance_ohm\n"


def _load(text):
    """A call that writes `text` to a resistance file and loads it."""

    def call(path):
        path.write_text(text)
        return load_resistance_csv(path)

    return call


def _one_sample_span_7():
    """Segment a trace whose span between hits 7 and 8 holds a single sample."""
    times = np.arange(400.0)
    keep = (times <= 60.0) | (times >= 70.0)
    return segment_trace(ResistanceTrace("p0", TaskShape.DIAMOND, times[keep], np.ones(keep.sum())), times[::10])


def _two_rows():
    """A labeled two-row matrix of one column."""
    labels = np.zeros(2), np.zeros(2), np.array(["p0"] * 2), np.array([2, 3]), TaskShape.DIAMOND
    return DataMatrix(np.ones((2, 1)), *labels)


def _table_without_all_but_its_first_cell():
    cell = CellResult("segment", "diamond", "NN", "D1", Metrics(50.0, 0.5, np.eye(4, dtype=int)), 0, 0.0)
    return render_text(run_document(GridReport(cells=[cell], random_guess={}), [], {}))


SEGMENT_CELLS = [(m, s) for m in ("NN", "KNN", "SVM", "LR") for s in ("D1", "D2", "D3", "D5")]
KNN = BaselineKind("knn", k=3)

# Each class that one of the five replaced, by its old name: the fix it is now, a call
# that raised it, and the message. `path` is the file the call reads; a load error names it first.
RETIRED = {
    "MissingColumn": (
        DataError, _load("participant_id,shape,timestamp_ms\n"), "{path}: missing column 'resistance_ohm'"
    ),
    "NonMonotonicTimestamp": (
        DataError, _load(HEADER + "p0,diamond,0.0,1.0\np0,diamond,10.0,1.0\np0,diamond,5.0,1.0\n"),
        "{path}: timestamp decreases at file row 4",
    ),
    "NonNumericValue": (DataError, _load(HEADER + "p0,diamond,0.0,NaN\n"), "{path}: non-finite value 'NaN' at file row 2"),
    "RowWidthMismatch": (
        DataError, _load(HEADER + "p0,diamond,0.0,1.0,7\n"), "{path}: row 2 has 5 fields, header has 4"
    ),
    "EmptyWindow": (DataError, lambda path: _one_sample_span_7(), "fewer than 2 samples between hits 7 and 8"),
    "DegenerateWindow": (
        DataError, lambda path: compute_feature(FeatureKind.IAV, [1.0]), "window has 1 samples, need at least 2"
    ),
    "ConstantWindow": (
        DataError, lambda path: compute_feature(FeatureKind.KURT, [2.0, 2.0, 2.0]),
        "kurt undefined on a constant window (zero second moment)",
    ),
    "EmptyMatrix": (TooFewRows, lambda path: fit_scaler(np.empty((0, 3))), "cannot fit a scaler on an empty matrix"),
    "EmptyTrainingSet": (
        TooFewRows, lambda path: train_baseline(KNN, np.empty((0, 2)), np.empty(0, dtype=int), 2), "no training rows"
    ),
    "NotEnoughNeighbors": (
        TooFewRows, lambda path: train_baseline(KNN, np.ones((2, 2)), np.array([0, 1]), 2), "2 rows < k=3"
    ),
    "SequenceTooShort": (
        TooFewRows,
        lambda path: lstm_rows(
            [SequenceData(np.ones((4, 3)), np.zeros(4, dtype=int), np.ones(4, dtype=bool))], LstmConfig(input_width=3)
        ),
        "sequence of length 4 shorter than window 5",
    ),
    "OutOfRange": (BadArgument, lambda path: assign_segment_label(41), "hit_index 41 outside 1..40"),
    "ColumnMismatch": (
        BadArgument, lambda path: apply_scaler(fit_scaler(np.ones((2, 3))), np.ones((2, 2))),
        "scaler fitted on 3 columns, got 2",
    ),
    "MissingPart": (
        BadArgument, lambda path: assemble_setup(SetupId.D1, _two_rows(), {}), "setup D1 requires missing part 'raw'"
    ),
    "RowCountMismatch": (
        BadArgument, lambda path: _two_rows().with_values(np.ones((3, 1))), "3 value rows for 2 labels"
    ),
    "ShapeMismatch": (
        BadArgument,
        lambda path: nn.lstm_sequence_forward(nn.LstmCell.init(np.random.default_rng(0), 3, 2), np.ones((1, 4, 2))),
        "sequence width 2 does not match cell input 3",
    ),
    "BadTarget": (
        BadArgument, lambda path: train_baseline(KNN, np.ones((3, 2)), np.array([0, 1, 2]), 2),
        "training label outside 0..1",
    ),
    "LengthMismatch": (BadArgument, lambda path: evaluate([0], [0, 1], 2), "1 predictions for 2 labels"),
    "IncompleteTable": (
        BadArgument, lambda path: _table_without_all_but_its_first_cell(),
        f"segment/diamond: missing cells {SEGMENT_CELLS[1:]}",
    ),
}


def test_the_subclasses_are_the_five_fixes():
    assert sorted(cls.__name__ for cls in SUBCLASSES) == ["BadArgument", "DataError", "InvalidConfig", "IoError", "TooFewRows"]
    assert all(not cls.__subclasses__() for cls in SUBCLASSES)
    assert not set(RETIRED) & set(vars(errors))


def test_no_error_defines_init_or_reduce():
    assert [cls for cls in ERRORS if {"__init__", "__reduce__"} & set(vars(cls))] == []
    assert not hasattr(errors, "_rebuild")


@pytest.mark.parametrize("name", [cls.__name__ for cls in ERRORS] + list(RETIRED))
def test_pickling_keeps_type_message_and_attributes(name, tmp_path):
    # an error raised in a worker process reaches the caller pickled
    if name in RETIRED:
        cls, call, message = RETIRED[name]
        path = tmp_path / "resistance.csv"
        with pytest.raises(cls) as info:
            call(path)
        error = info.value
        assert type(error) is cls
        assert str(error) == message.format(path=path)
    else:
        error = getattr(errors, name)("a message")
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error) == {}


def test_an_explicit_message_survives_pickling():
    back = pickle.loads(pickle.dumps(DataError("row 12 of hits.csv goes back")))
    assert (type(back), str(back)) == (DataError, "row 12 of hits.csv goes back")
