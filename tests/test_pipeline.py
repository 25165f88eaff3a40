import dataclasses
import json
import multiprocessing
import os
import re
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intent_bench import pipeline
from intent_bench.cli import main
from intent_bench.dataset import (
    SynthConfig,
    TaskShape,
    records_from_csv_dir,
    synth_cohort,
    synth_tasks,
    write_dataset_csvs,
)
from intent_bench.errors import BadArgument, DataError, InvalidConfig, IoError, TooFewRows
from intent_bench.features import SetupId
from intent_bench.models import BaselineKind, KnnModel, LstmConfig, LstmModel, MlpConfig, MlpModel
from intent_bench.pipeline import (
    CellResult,
    GridConfig,
    GridReport,
    Metrics,
    RunConfig,
    TrainParams,
    TwoStepConfig,
    _prepare_shape,
    evaluate,
    format_cell,
    metrics_from_confusion,
    raw_table,
    read_run_outputs,
    records_for_shape,
    reference_ordering_notes,
    render_csv,
    render_text,
    run_grid,
    scale_on_train,
    run_two_step,
    split_indices,
    window_tables,
    write_run_outputs,
)
from intent_bench.pool import map_tasks

FAST = TrainParams(mlp_epochs=3, lstm_epochs=3, baseline_epochs=20, lstm_hidden=8)


class TestSplit:
    def test_sizes(self):
        train, test = split_indices(624, 0.8, 1)
        assert train.size == 499 and test.size == 125

    def test_partition(self):
        train, test = split_indices(100, 0.8, 2)
        merged = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(merged, np.arange(100))

    def test_same_seed_identical(self):
        a = split_indices(200, 0.8, 7)
        b = split_indices(200, 0.8, 7)
        np.testing.assert_array_equal(a[0], b[0])

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            split_indices(4, 0.8, 0)

    def test_bad_spec(self):
        for fraction in (0.0, 1.0, 1.5, float("nan")):
            with pytest.raises(InvalidConfig, match="train_fraction"):
                RunConfig(train_fraction=fraction)

    def test_run_config_refuses_unknown_steps_and_nothing_to_run(self):
        with pytest.raises(InvalidConfig, match="^unknown grid steps 'bogus'$"):
            RunConfig(steps="bogus")
        with pytest.raises(InvalidConfig, match="^nothing to run: steps is empty and direction_setup is None "):
            RunConfig(steps="", direction_setup=None)
        assert RunConfig(steps="").direction_setup is SetupId.D6
        assert RunConfig(steps="segment", direction_setup=None).steps == "segment"
        assert TwoStepConfig is GridConfig is RunConfig

    def test_run_config_refuses_no_shapes(self):
        with pytest.raises(InvalidConfig, match="^nothing to run: shapes is empty$"):
            RunConfig(steps="segment", direction_setup=None, shapes=())

    def test_run_config_refuses_a_shape_listed_twice(self):
        with pytest.raises(InvalidConfig, match=r"^a shape is listed twice in shapes \['diamond', 'diamond'\]$"):
            RunConfig(shapes=(TaskShape.DIAMOND, TaskShape.DIAMOND))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=5, max_value=500), st.integers(min_value=0, max_value=2**31))
    def test_partition_property(self, n, seed):
        train, test = split_indices(n, 0.8, seed)
        assert train.size == int(0.8 * n)
        merged = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(merged, np.arange(n))


class TestEvaluate:
    def test_perfect(self):
        m = evaluate([0, 1, 2, 3], [0, 1, 2, 3], 4)
        assert m.accuracy == 100.0 and m.macro_f1 == 1.0

    def test_constant_on_balanced_binary(self):
        labels = [0] * 10 + [1] * 10
        m = evaluate([0] * 20, labels, 2)
        assert m.accuracy == 50.0
        assert m.macro_f1 == pytest.approx(1 / 3, rel=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=50)
        preds = rng.integers(0, 3, size=50)
        m = evaluate(preds, labels, 3)
        assert m.accuracy == pytest.approx(100.0 * np.trace(m.confusion) / m.confusion.sum(), abs=1e-12)
        np.testing.assert_array_equal(m.confusion.sum(axis=1), np.bincount(labels, minlength=3))

    def test_order_independence(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        preds = np.array([0, 1, 1, 0, 2, 2])
        m1 = evaluate(preds, labels, 3)
        perm = np.array([3, 2, 1, 0, 5, 4])
        m2 = evaluate(preds[perm], labels[perm], 3)
        assert m1.accuracy == m2.accuracy and m1.macro_f1 == m2.macro_f1

    def test_length_mismatch(self):
        with pytest.raises(BadArgument, match="^2 predictions for 1 labels$"):
            evaluate([0, 1], [0], 2)

    def test_empty_input(self):
        with pytest.raises(TooFewRows):
            evaluate(np.array([], int), np.array([], int), 2)

    @pytest.mark.parametrize(
        "predictions, labels",
        [([-1, 0], [0, 0]), ([0, 2], [0, 1]), ([0, 0], [-1, 0]), ([0, 1], [2, 1])],
    )
    def test_out_of_range_class(self, predictions, labels):
        with pytest.raises(BadArgument, match="outside 0..1$"):
            evaluate(predictions, labels, 2)

    @pytest.mark.parametrize(
        "predictions, labels, message",
        [([0, 1], [0.5, 1], "label 0.5"), ([0, 1.0, 1.5], [0, 1, 1], "prediction 1.5"),
         ([0, 1], [np.nan, 1], "label nan")],
        ids=["label", "prediction", "nan-label"],
    )
    def test_a_class_must_be_a_whole_number(self, predictions, labels, message):
        # unchecked, astype(int) truncates 0.5 to class 0 and scores [0.5, 1] against [0, 1] as 100.0
        with pytest.raises(BadArgument, match=f"^{message} is not a whole number$"):
            evaluate(np.array(predictions), np.array(labels), 2)
        assert evaluate(np.array([0.0, 1.0]), np.array([0, 1]), 2).accuracy == 100.0


class TestTables:
    @pytest.mark.parametrize("train_rows", [slice(None), slice(2, None)], ids=["in-training", "held-out"])
    def test_a_column_that_overflows_when_scaled_is_refused(self, cohort4, train_rows):
        _features, gaze_dm = window_tables(records_for_shape(cohort4, TaskShape.CIRCLE))
        values = gaze_dm.values.copy()
        values[:, 3] *= 1e-3  # a training range below 1, so a held-out 1e308 scales past the float range
        values[:2, 3] = [1e308, -1e308]  # each finite; their difference is not
        train = np.zeros(gaze_dm.n_rows, bool)
        train[train_rows] = True
        lo, hi = values[train, 3].min(), values[train, 3].max()
        message = f"circle, column 3: scaling on the training range {lo:g} to {hi:g} overflows"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            scale_on_train(dataclasses.replace(gaze_dm, values=values, train=train))

    def test_window_table_shapes(self, cohort4):
        subset = records_for_shape(cohort4, TaskShape.DIAMOND)
        feats, gaze = window_tables(subset)
        assert feats.values.shape == (156, 11)  # 39 x 4
        assert gaze.values.shape == (156, 24)
        counts = np.bincount(feats.segment)
        assert counts.tolist() == [9 * 4, 10 * 4, 10 * 4, 10 * 4]

    def test_raw_table_shapes(self, cohort4):
        subset = records_for_shape(cohort4, TaskShape.DIAMOND)
        raw = raw_table(subset)
        assert raw.values.shape == (160, 1)
        assert np.bincount(raw.segment).tolist() == [40, 40, 40, 40]

    def test_label_columns_hold_one_row_per_record_and_hit(self, cohort4):
        subset = records_for_shape(cohort4, TaskShape.DIAMOND)
        feats, gaze = window_tables(subset)
        for table, first_hit in ((feats, 2), (gaze, 2), (raw_table(subset), 1)):
            want = [
                (rec.participant_id, rec.direction.label, hit, (hit - 1) // 10)
                for rec in subset
                for hit in range(first_hit, 41)
            ]
            columns = (table.participant, table.direction, table.hit, table.segment)
            assert list(zip(*(c.tolist() for c in columns))) == want
            assert [c.dtype for c in columns] == [object, np.int64, np.int64, np.int64]

    def test_too_few_participants(self, cohort4):
        with pytest.raises(TooFewRows):
            records_for_shape(cohort4[:1], TaskShape.DIAMOND)


class TestTrainParams:
    def test_each_field_reaches_the_config_field_it_names(self):
        # distinct values, so that two swapped fields cannot build the same config
        params = TrainParams(
            mlp_epochs=3, mlp_batch=7, mlp_lr=0.002, lstm_epochs=4, lstm_batch=9, lstm_lr=0.003, lstm_l2=0.04,
            lstm_hidden=11, lstm_layers=6, window_len=8, baseline_epochs=13, knn_k=2, svm_lambda=0.05, logreg_lr=0.06,
        )
        values = [getattr(params, f.name) for f in dataclasses.fields(TrainParams)]
        assert len(values) == len(set(values)) == 14
        assert params.mlp(10, 3, 21) == MlpConfig(input_width=10, output=3, lr=0.002, epochs=3, batch_size=7, seed=21)
        assert params.lstm(12, 22) == LstmConfig(
            input_width=12, hidden_layers=6, hidden_size=11, l2=0.04, lr=0.003, epochs=4, batch_size=9, window_len=8,
            seed=22,
        )
        for model_name, kind in (("KNN", "knn"), ("SVM", "svm"), ("LR", "logreg")):
            assert params.baseline(model_name) == BaselineKind(kind, k=2, lam=0.05, lr=0.06, epochs=13)

    def test_the_defaults_are_the_model_configs_defaults(self):
        params = TrainParams()
        assert params.mlp(10, 3, 21) == MlpConfig(input_width=10, output=3, seed=21)
        assert params.lstm(12, 22) == LstmConfig(input_width=12, seed=22)
        for model_name, kind in (("KNN", "knn"), ("SVM", "svm"), ("LR", "logreg")):
            assert params.baseline(model_name) == BaselineKind(kind)


class TestTwoStep:
    def test_deterministic(self, cohort4):
        cfg = TwoStepConfig(seed=5, train=FAST)
        r1 = run_two_step(cohort4, TaskShape.DIAMOND, cfg)
        r2 = run_two_step(cohort4, TaskShape.DIAMOND, cfg)
        assert r1.step1.accuracy == r2.step1.accuracy
        assert r1.step2.accuracy == r2.step2.accuracy
        np.testing.assert_array_equal(r1.step1.confusion, r2.step1.confusion)

    def test_probs_are_simplex(self, cohort4):
        state = _prepare_shape(cohort4, TaskShape.CIRCLE, TwoStepConfig(seed=5, train=FAST))
        probs = state.probs
        assert probs.shape == (156, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_alternate_setup(self, cohort4):
        res = run_two_step(cohort4, TaskShape.DIAMOND, TwoStepConfig(seed=5, train=FAST, direction_setup=SetupId.D8))
        assert res.direction_setup is SetupId.D8

    def test_step1_is_scored_on_the_probabilities_step2_reads(self, cohort4):
        cfg = TwoStepConfig(seed=5, train=FAST)
        state = _prepare_shape(cohort4, TaskShape.CIRCLE, cfg)
        result = run_two_step(cohort4, TaskShape.CIRCLE, cfg)
        d4 = state.setup_matrix(SetupId.D4)
        np.testing.assert_array_equal(d4.values, state.probs)
        want = evaluate(np.argmax(state.probs[~d4.train], axis=1), state.gaze.segment[~d4.train], 4)
        np.testing.assert_array_equal(result.step1.confusion, want.confusion)

    def test_d1_lies_on_the_hit_rows_and_the_rest_on_the_window_rows(self, cohort4):
        state = _prepare_shape(cohort4, TaskShape.DIAMOND, TwoStepConfig(seed=5, train=FAST))
        # the gaze table, which step 1 fits on, shares the window mask
        np.testing.assert_array_equal(state.gaze.train, state.features.train)
        for setup in SetupId:
            dm = state.setup_matrix(setup)
            on_hits = setup is SetupId.D1
            # 40 hit rows per participant, in participant order; the windows end on hits 2..40
            np.testing.assert_array_equal(dm.hit, np.tile(np.arange(1 if on_hits else 2, 41), 4))
            np.testing.assert_array_equal(dm.train, (state.raw if on_hits else state.features).train)
            assert dm.train.dtype == bool
            assert (dm.train.sum(), (~dm.train).sum()) == ((128, 32) if on_hits else (124, 32))

    def test_step1_probs_are_the_nn_d3_cells_model(self, cohort4):
        state = _prepare_shape(cohort4, TaskShape.CIRCLE, TwoStepConfig(seed=5, train=FAST))
        metrics, model = pipeline.fit_eval("NN", "segment", state.gaze, FAST, state.step1.seed)
        np.testing.assert_array_equal(state.probs, model.predict_proba(state.gaze.values))
        np.testing.assert_array_equal(state.step1.metrics.confusion, metrics.confusion)

    @pytest.mark.parametrize("model_name, step, model_class", [
        ("NN", "segment", MlpModel), ("KNN", "segment", KnnModel), ("LSTM", "direction", LstmModel),
    ])
    def test_fit_eval_returns_the_metrics_and_the_model(self, cohort4, model_name, step, model_class):
        dm = _prepare_shape(cohort4, TaskShape.DIAMOND, TwoStepConfig(seed=5, train=FAST)).setup_matrix(SetupId.D2)
        metrics, model = pipeline.fit_eval(model_name, step, dm, FAST, 0)
        assert isinstance(metrics, Metrics) and isinstance(model, model_class)
        if model_name != "LSTM":  # the row models are scored on the matrix's held-out rows
            want = evaluate(model.predict(dm.values[~dm.train]), dm.segment[~dm.train], 4)
            np.testing.assert_array_equal(metrics.confusion, want.confusion)

    @pytest.mark.parametrize("model_name, step", [("NN", "segment"), ("KNN", "segment"), ("LSTM", "direction")])
    def test_an_unsplit_table_cannot_be_fit(self, cohort4, model_name, step):
        features_dm, _gaze = window_tables(records_for_shape(cohort4, TaskShape.DIAMOND))
        assert features_dm.train is None
        with pytest.raises(BadArgument, match="^the diamond table has no training mask to fit on$"):
            pipeline.fit_eval(model_name, step, features_dm, FAST, 0)


@pytest.fixture(scope="module")
def segment_report(cohort4):
    cfg = GridConfig(seed=3, steps="segment", shapes=(TaskShape.DIAMOND,), train=FAST)
    return run_grid(cohort4, cfg)


@pytest.fixture(scope="module")
def full_report(cohort4):
    return run_grid(cohort4, GridConfig(seed=3, steps="all", shapes=(TaskShape.DIAMOND,), train=FAST))


BOTH = (TaskShape.DIAMOND, TaskShape.CIRCLE)
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the shape worker is forked"
)


class TestShapeWorker:
    @needs_fork
    def test_first_shape_runs_here_the_rest_in_one_worker_in_order(self, cores):
        cores(2)
        # a lambda reaches the worker: it is inherited from the fork, not pickled
        got = map_tasks(lambda shape: (shape, os.getpid()), (1, 2, 3))
        assert [shape for shape, _pid in got] == [1, 2, 3]
        assert got[0][1] == os.getpid() != got[1][1] == got[2][1]
        assert multiprocessing.active_children() == []

    def test_one_core_one_shape_or_no_fork_runs_here(self, cores, monkeypatch):
        here = [os.getpid()] * 2
        cores(1)
        assert map_tasks(lambda shape: os.getpid(), BOTH) == here
        cores(2)
        assert map_tasks(lambda shape: os.getpid(), BOTH[:1]) == here[:1]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert map_tasks(lambda shape: os.getpid(), BOTH) == here

    @needs_fork
    @pytest.mark.parametrize("failing", [("diamond",), ("circle",), ("diamond", "circle")], ids="+".join)
    def test_the_first_error_in_shape_order_comes_back_typed(self, cores, failing):
        cores(2)

        def fn(shape):
            if shape.value in failing:
                raise DataError(f"fewer than 2 samples between hits 7 and 8 on {shape.value}")
            return shape

        with pytest.raises(DataError) as info:
            map_tasks(fn, BOTH)
        assert type(info.value) is DataError
        assert str(info.value) == f"fewer than 2 samples between hits 7 and 8 on {failing[0]}"
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_an_error_here_ends_the_worker_at_once(self, cores):
        cores(2)

        def fn(shape):
            if shape is TaskShape.DIAMOND:
                raise DataError("fewer than 2 samples between hits 7 and 8")
            time.sleep(60)  # the worker's shape, far longer than the error takes to come back

        started = time.perf_counter()
        with pytest.raises(DataError):
            map_tasks(fn, BOTH)
        assert time.perf_counter() - started < 10
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_a_worker_that_dies_without_a_result_is_an_error(self, cores):
        cores(2)
        with pytest.raises(ChildProcessError, match="exited with code 3"):
            map_tasks(lambda shape: os._exit(3) if shape is TaskShape.CIRCLE else shape, BOTH)
        assert multiprocessing.active_children() == []

    def test_no_child_outlives_run_grid(self, cohort4, cores):
        cfg = GridConfig(seed=3, steps="segment", train=FAST)
        cores(1)
        one = run_grid(cohort4, cfg)
        cores(2)
        two = run_grid(cohort4, cfg)
        assert multiprocessing.active_children() == []
        assert render_text(two) == render_text(one)
        assert [(c.seed, c.metrics.confusion.tolist()) for c in two.cells] == [
            (c.seed, c.metrics.confusion.tolist()) for c in one.cells
        ]
        diamond_only = [r for r in cohort4 if r.shape is TaskShape.DIAMOND]
        with pytest.raises(TooFewRows, match="circle"):
            run_grid(diamond_only, cfg)
        assert multiprocessing.active_children() == []


def count_calls(monkeypatch, name: str) -> list:
    """A list that grows by the positional arguments of each call of `pipeline.<name>` made in this process."""
    calls = []
    original = getattr(pipeline, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counting)
    return calls


@pytest.fixture
def mlp_fits(monkeypatch):
    """A list that grows by one at each `pipeline.train_mlp` call made in this process."""
    return count_calls(monkeypatch, "train_mlp")


class TestGrid:
    def test_segment_cell_count(self, segment_report):
        assert len(segment_report.cells) == 16  # 4 models x 4 setups x 1 shape
        assert ("segment", "diamond") in segment_report.random_guess

    def test_cells_have_unique_seeds(self, segment_report):
        seeds = [c.seed for c in segment_report.cells]
        assert len(set(seeds)) == len(seeds)

    def test_segment_grid_trains_mlp_for_nn_cells_only(self, cohort4, mlp_fits, cores):
        cores(1)  # serial: the counting wrapper sees only the calls made in this process
        run_grid(cohort4, GridConfig(seed=3, steps="segment", train=FAST))
        assert len(mlp_fits) == 8  # NN x D1/D2/D3/D5 per shape; no setup reads step-1 probabilities

    def test_a_two_step_run_fits_only_its_two_cells(self, cohort4, mlp_fits, cores, monkeypatch):
        cores(1)
        lstm_fits = count_calls(monkeypatch, "train_lstm")
        run_two_step(cohort4, TaskShape.DIAMOND, RunConfig(seed=3, steps="all", train=FAST))
        assert (len(mlp_fits), len(lstm_fits)) == (1, 1)  # the NN-D3 and LSTM-D6 cells, not the grid's

    def test_a_two_step_only_run_is_two_fit_eval_calls(self, cohort4, cores, monkeypatch):
        cores(1)
        fits = count_calls(monkeypatch, "fit_eval")
        run_two_step(cohort4, TaskShape.DIAMOND, RunConfig(seed=3, direction_setup=SetupId.D8, train=FAST))
        # step 1 is the NN-D3 cell (24 gaze columns), step 2 the LSTM-D8 cell (11 + 24 + 4 columns)
        assert [(args[0], args[1], args[2].values.shape[1]) for args in fits] == [
            ("NN", "segment", 24), ("LSTM", "direction", 39),
        ]

    def test_a_segment_grid_fits_no_lstm(self, cohort4, mlp_fits, cores, monkeypatch):
        cores(1)
        lstm_fits = count_calls(monkeypatch, "train_lstm")
        report = run_grid(cohort4, RunConfig(seed=3, steps="segment", direction_setup=SetupId.D6, train=FAST))
        assert (len(mlp_fits), len(lstm_fits)) == (8, 0)
        assert {c.step for c in report.cells} == {"segment"}

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_a_run_is_the_grid_and_the_two_step_results(self, cohort4, cores, n_cores):
        cores(n_cores)
        cfg = RunConfig(seed=3, steps="all", direction_setup=SetupId.D6, train=FAST)
        report, two_step = pipeline.run(cohort4, cfg)
        grid = run_grid(cohort4, cfg)
        assert [(c.step, c.shape, c.model, c.setup, c.seed) for c in report.cells] == [
            (c.step, c.shape, c.model, c.setup, c.seed) for c in grid.cells
        ]
        for got, want in zip(report.cells, grid.cells):
            np.testing.assert_array_equal(got.metrics.confusion, want.metrics.confusion)
        assert report.random_guess == grid.random_guess
        assert [r.shape for r in two_step] == list(BOTH)
        for result in two_step:
            alone = run_two_step(cohort4, result.shape, cfg)
            assert (result.direction_setup, result.seeds) == (alone.direction_setup, alone.seeds)
            np.testing.assert_array_equal(result.step1.confusion, alone.step1.confusion)
            np.testing.assert_array_equal(result.step2.confusion, alone.step2.confusion)
        assert multiprocessing.active_children() == []

    def test_direction_grid_trains_the_step1_mlp_once_per_shape(self, cohort4, mlp_fits, cores):
        cores(1)
        run_grid(cohort4, GridConfig(seed=3, steps="direction", train=FAST))
        assert len(mlp_fits) == 2  # no direction model is an MLP; D4 and D6..D8 share each shape's step-1 fit

    def test_a_run_with_a_grid_fits_each_model_once(self, tmp_path, mlp_fits, cores, monkeypatch):
        cores(1)
        lstm_fits, prepared = count_calls(monkeypatch, "train_lstm"), count_calls(monkeypatch, "_prepare_shape")
        config = tmp_path / "fast.cfg"
        config.write_text("[train]\nmlp_epochs = 3\nlstm_epochs = 3\nbaseline_epochs = 20\nlstm_hidden = 8\n")
        args = ["run", "--synthetic", "--seed", "3", "--participants", "4", "--grid", "all", "--config", str(config)]
        assert main(args + ["--out", str(tmp_path / "run")]) == 0
        # per shape: NN x D1/D2/D3/D5, of which NN-D3 is step 1; LSTM x D1..D8, of which LSTM-D6 is step 2
        assert (len(mlp_fits), len(lstm_fits), len(prepared)) == (2 * 4, 2 * 8, 2)

        meta = json.loads((tmp_path / "run" / "run.json").read_text())
        cells = {(c["step"], c["shape"], c["model"], c["setup"]): c for c in meta["cells"]}
        assert [entry["shape"] for entry in meta["two_step"]] == ["diamond", "circle"]
        for entry in meta["two_step"]:
            shape = entry["shape"]
            step1, step2 = cells["segment", shape, "NN", "D3"], cells["direction", shape, "LSTM", "D6"]
            assert (entry["step1_confusion"], entry["seeds"]["step1"]) == (step1["confusion"], step1["seed"])
            assert (entry["step2_confusion"], entry["seeds"]["step2"]) == (step2["confusion"], step2["seed"])

    def test_the_two_step_result_is_the_grid_cells_in_another_run(self, cohort4, segment_report, full_report):
        # both fixtures run the diamond grid at seed 3
        result = run_two_step(cohort4, TaskShape.DIAMOND, TwoStepConfig(seed=3, train=FAST))
        for report in (segment_report, full_report):
            step1 = report.by_key()["segment", "diamond", "NN", "D3"]
            assert result.seeds["step1"] == step1.seed
            np.testing.assert_array_equal(result.step1.confusion, step1.metrics.confusion)
        step2 = full_report.by_key()["direction", "diamond", "LSTM", "D6"]
        assert result.seeds["step2"] == step2.seed
        np.testing.assert_array_equal(result.step2.confusion, step2.metrics.confusion)

    def test_grid_determinism(self, cohort4, segment_report):
        again = run_grid(cohort4, GridConfig(seed=3, steps="segment", shapes=(TaskShape.DIAMOND,), train=FAST))
        assert render_csv(again) == render_csv(segment_report)

    def test_random_guess_is_the_window_rows_chance_level(self, cohort16):
        # D2, D3 and D5 score window rows, which hold segments 9/10/10/10 times per participant
        report = run_grid(cohort16, GridConfig(seed=3, steps="segment", train=FAST))
        exact = 100.0 * (9**2 + 3 * 10**2) / 39**2  # 25.0493...
        assert sorted(report.random_guess) == [("segment", "circle"), ("segment", "diamond")]
        for guess in report.random_guess.values():
            assert guess == pytest.approx(exact, rel=1e-15)

    @settings(max_examples=4, deadline=None)
    @given(order=st.permutations(range(8)))
    def test_record_order_leaves_report_unchanged(self, cohort4, full_report, order):
        assert len(cohort4) == 8
        shuffled = [cohort4[i] for i in order]
        again = run_grid(shuffled, GridConfig(seed=3, steps="all", shapes=(TaskShape.DIAMOND,), train=FAST))
        assert render_csv(again) == render_csv(full_report)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), participants=st.integers(min_value=2, max_value=4))
    def test_csv_round_trip_leaves_report_unchanged(self, seed, participants):
        # synth -> CSV -> load gives the records that synth_cohort builds in memory, so the same report
        shapes = (TaskShape.DIAMOND, TaskShape.CIRCLE)
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset_csvs(synth_tasks(seed, participants, SynthConfig(), shapes), tmp)
            loaded = records_from_csv_dir(tmp)
        cfg = GridConfig(seed=seed, steps="all", shapes=shapes, train=FAST)
        assert render_csv(run_grid(loaded, cfg)) == render_csv(run_grid(synth_cohort(seed, participants), cfg))

    def test_direction_grid_cells(self, cohort4):
        cfg = GridConfig(seed=3, steps="direction", shapes=(TaskShape.CIRCLE,), train=FAST)
        report = run_grid(cohort4, cfg)
        assert len(report.cells) == 32  # 4 models x 8 setups
        lstm_cells = [c for c in report.cells if c.model == "LSTM"]
        assert {c.setup for c in lstm_cells} == {s.value for s in SetupId}


def _confusion(correct: int, total: int) -> np.ndarray:
    """A 4-class confusion with `correct` of `total` rows on the diagonal."""
    cm = np.zeros((4, 4), dtype=int)
    cm[np.arange(4), np.arange(4)] = correct // 4
    cm[0, 0] += correct % 4
    cm[0, 1] = total - correct
    return cm


class TestRendering:
    def test_format_cell(self):
        assert format_cell(Metrics(accuracy=96.7213, macro_f1=0.9456, confusion=np.eye(2, dtype=int))) == "96.72 [0.946]"

    def _tiny_report(self):
        cells = [
            CellResult("segment", "diamond", m, s, Metrics(50.0 + i, 0.5, np.eye(4, dtype=int)), i, 0.0)
            for i, (m, s) in enumerate(
                (m, s) for m in ("NN", "KNN", "SVM", "LR") for s in ("D1", "D2", "D3", "D5")
            )
        ]
        return GridReport(cells=cells, random_guess={("segment", "diamond"): 25.4})

    def test_text_flags_best(self):
        text = render_text(self._tiny_report())
        assert "**65.00 [0.500]**" in text  # the last cell has the highest accuracy

    def test_incomplete_table(self):
        report = self._tiny_report()
        report.cells.pop(3)
        with pytest.raises(BadArgument, match="^segment/diamond: missing cells"):
            render_text(report)

    def _confusion_report(self):
        """A report whose metrics come from its confusions, as those of a run do."""
        report = self._tiny_report()
        for i, cell in enumerate(report.cells):
            cell.metrics = metrics_from_confusion(_confusion(500 + i, 1000))
        return report

    def test_csv_schema_and_round_trip(self, tmp_path):
        report = self._confusion_report()
        csv_text = render_csv(report)
        header = csv_text.splitlines()[0].split(",")
        assert header == ["step", "shape", "model", "setup", "accuracy", "f1", "best"]
        write_run_outputs(tmp_path, report, [], {"root_seed": 1, "config_hash": "x"})
        parsed, two_step, _meta = read_run_outputs(tmp_path)
        assert two_step == []
        assert render_csv(parsed) == csv_text
        assert render_text(parsed) == render_text(report)

    def test_an_output_directory_that_is_a_file_is_refused(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("a file")
        with pytest.raises(IoError, match=f"^cannot create output directory {re.escape(str(taken))}: "):
            write_run_outputs(taken, self._tiny_report(), [], {"root_seed": 1, "config_hash": "x"})

    def test_parsed_report_keeps_best_flag_on_rounded_tie(self, tmp_path):
        report = self._confusion_report()
        report.cells[0].metrics = metrics_from_confusion(_confusion(70001, 100000))
        report.cells[1].metrics = metrics_from_confusion(_confusion(70004, 100000))  # the best; both print 70.00
        assert format_cell(report.cells[0].metrics)[:5] == format_cell(report.cells[1].metrics)[:5] == "70.00"
        write_run_outputs(tmp_path, report, [], {"root_seed": 1, "config_hash": "x"})
        parsed, _two_step, _meta = read_run_outputs(tmp_path)
        assert render_text(parsed) == render_text(report)
        assert f"**{format_cell(report.cells[1].metrics)}**" in render_text(parsed)


class TestReferenceNotes:
    def test_notes_are_informational(self, full_report):
        notes = reference_ordering_notes(full_report)
        assert notes, "expected ordering notes for a full grid"
        assert all(note.startswith(("ok:", "deviation:")) for note in notes)

    def test_the_best_direction_cell_is_the_one_the_tables_mark(self):
        # KNN-D2 and LSTM-D5 tie on accuracy and F1; in grid order KNN-D2 comes first, in the table LSTM-D5
        tied = [[19, 1], [1, 19]]
        confusions = {("KNN", "D2"): tied, ("LSTM", "D5"): tied}
        cells = [
            CellResult("direction", "diamond", m, s.value, metrics_from_confusion(np.array(cm)), 0, 0.0)
            for s in SetupId
            for m in ("LSTM", "KNN", "SVM", "LR")
            for cm in [confusions.get((m, s.value), [[15, 5], [5, 15]])]
        ]
        report = GridReport(cells=cells, random_guess={})
        assert reference_ordering_notes(report)[0] == (
            "deviation: direction/diamond: best cell LSTM-D5 at 95.00, LSTM-D6 at 75.00 "
            "(reference expects LSTM-D6 on top)"
        )
        d5_row = next(line for line in render_text(report).splitlines() if line.startswith("D5 "))
        assert d5_row.split()[1] == "**95.00"
        assert "direction,diamond,LSTM,D5,95.00,0.950,1" in render_csv(report).splitlines()

    def test_write_outputs(self, cohort4, tmp_path):
        cfg = GridConfig(seed=3, steps="segment", shapes=(TaskShape.DIAMOND,), train=FAST)
        report = run_grid(cohort4, cfg)
        result = run_two_step(cohort4, TaskShape.DIAMOND, TwoStepConfig(seed=3, train=FAST))
        write_run_outputs(tmp_path, report, [result], {"root_seed": 3, "config_hash": "x"}, ["ok: something"])
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "run.json").exists()
        assert (tmp_path / "reference_checks.txt").exists()
        cells = json.loads((tmp_path / "run.json").read_text())["cells"]
        assert [c["confusion"] for c in cells] == [c.metrics.confusion.tolist() for c in report.cells]
        assert not (tmp_path / "confusions").exists()
