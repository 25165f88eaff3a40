import csv
import dataclasses
import multiprocessing
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naive_reference
from intent_bench import dataset
from intent_bench.cli import main
from intent_bench.dataset import (
    WINDOWS_PER_TASK,
    Direction,
    ResistanceTrace,
    SynthConfig,
    TaskShape,
    assign_segment_label,
    derive_seed,
    load_gaze_csv,
    load_hits_csv,
    load_participants_csv,
    load_resistance_csv,
    raw_at_hits,
    records_from_csv_dir,
    segment_trace,
    synth_cohort,
    synth_participant,
    synth_trace,
    write_dataset_csvs,
)
from intent_bench.errors import BadArgument, DataError, IntentBenchError, InvalidConfig, IoError


class TestSegmentLabel:
    def test_boundaries(self):
        assert assign_segment_label(1) == 0
        assert assign_segment_label(10) == 0
        assert assign_segment_label(11) == 1
        assert assign_segment_label(40) == 3

    def test_out_of_range(self):
        for bad in (0, 41, -3):
            with pytest.raises(BadArgument, match=f"^hit_index {bad} outside 1..40$"):
                assign_segment_label(bad)

    def test_destination_histogram(self):
        counts = np.bincount([assign_segment_label(h) for h in range(2, 41)])
        assert counts.tolist() == [9, 10, 10, 10]


def _uniform_trace(samples_per_span=10, spans=39, step=1.0):
    times = np.arange(spans * samples_per_span + 1) * step
    values = np.sin(times * 0.1) + 2.0
    hit_times = np.arange(40) * samples_per_span * step
    return ResistanceTrace("p0", TaskShape.DIAMOND, times, values), hit_times


class TestSegmentTrace:
    def test_uniform_partition(self):
        trace, hit_times = _uniform_trace()
        windows = segment_trace(trace, hit_times)
        assert len(windows) == 39
        # window k holds the samples from hit k up to, not including, hit k + 1
        for k, w in enumerate(windows):
            np.testing.assert_array_equal(w, trace.values[10 * k : 10 * k + 10])

    def test_empty_window(self):
        trace, hit_times = _uniform_trace()
        # empty the span between hits 7 and 8
        keep = (trace.times < hit_times[6] + 1) | (trace.times >= hit_times[7])
        sparse = ResistanceTrace("p0", TaskShape.DIAMOND, trace.times[keep], trace.values[keep])
        with pytest.raises(DataError, match="^fewer than 2 samples between hits 7 and 8$"):
            segment_trace(sparse, hit_times)

    def test_bad_events(self):
        trace, hit_times = _uniform_trace()
        swapped = hit_times.copy()
        swapped[[1, 2]] = swapped[[2, 1]]
        repeated = hit_times.copy()
        repeated[5] = repeated[4]
        with_nan = hit_times.copy()
        with_nan[20] = np.nan
        for bad in (hit_times[:39], np.append(hit_times, 1e9), hit_times[None, :], swapped, repeated, with_nan):
            with pytest.raises(DataError, match="hit time"):
                segment_trace(trace, bad)
            with pytest.raises(DataError, match="hit time"):
                raw_at_hits(trace, bad)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_partition_property(self, seed):
        # random sample times: windows concatenate back to exactly [t_1, t_40)
        rng = np.random.default_rng(seed)
        hit_times = np.arange(40) * 100.0
        times = np.sort(rng.uniform(0.0, 3900.0 + 50.0, size=1200))
        values = rng.normal(1000.0, 5.0, size=times.size)
        trace = ResistanceTrace("p", TaskShape.CIRCLE, times, values)
        in_task = (times >= 0.0) & (times < 3900.0)
        try:
            windows = segment_trace(trace, hit_times)
        except DataError:
            return  # sparse draw; contract allows rejection
        merged = np.concatenate(windows)
        np.testing.assert_array_equal(merged, values[in_task])

    def test_cohort_window_arithmetic(self):
        records = synth_cohort(1, participants=16, shapes=(TaskShape.DIAMOND,))
        assert sum(len(r.windows) for r in records) == 624  # 39 x 16


class TestRawAtHits:
    def test_nearest_with_tie_to_earlier(self):
        times = np.array([0.0, 4.0, 6.0, 10.0, 20.0, 30.0])
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        trace = ResistanceTrace("p", TaskShape.DIAMOND, times, values)
        # the selection rule needs only the first three hits; the other 37 follow in order
        hit_times = np.concatenate([[0.0, 5.0, 9.0], 9.0 + np.arange(4, 41)])
        out = raw_at_hits(trace, hit_times)
        assert out[0] == 1.0  # exact
        assert out[1] == 2.0  # tie between 4.0 and 6.0 -> earlier
        assert out[2] == 4.0  # nearest is 10.0


class TestSynth:
    def test_determinism(self):
        a = synth_participant(7, TaskShape.DIAMOND, Direction.CW)
        b = synth_participant(7, TaskShape.DIAMOND, Direction.CW)
        assert all(np.array_equal(x, y) for x, y in zip(a.windows, b.windows))
        assert np.array_equal(a.gaze, b.gaze)
        assert np.array_equal(a.hit_values, b.hit_values)

    def test_noise_is_drawn_from_the_one_seed_function(self):
        cfg = SynthConfig()
        rec = synth_participant(7, TaskShape.CIRCLE, Direction.CCW, cfg, participant_id="p03")
        rng = np.random.default_rng(derive_seed(7, "synth", "p03", "circle", "ccw"))
        rng.normal(0.0, cfg.noise_std, size=WINDOWS_PER_TASK * cfg.samples_per_window + 1)  # the resistance noise
        np.testing.assert_array_equal(rec.gaze[:, 4:], rng.normal(0.0, 1.0, size=(40, cfg.gaze_width - 4)))
        onehot = np.eye(4)[[assign_segment_label(k) for k in range(1, 41)]]
        np.testing.assert_array_equal(rec.gaze[:, :4], onehot + rng.normal(0.0, cfg.gaze_noise, size=(40, 4)))

    def test_shape_contract(self):
        rec = synth_participant(3, TaskShape.CIRCLE, Direction.CCW)
        assert len(rec.windows) == 39
        assert rec.gaze.shape == (40, 24)
        assert rec.hit_values.shape == (40,)

    def test_noise_free_mirror_symmetry(self):
        cfg = SynthConfig(noise_std=0.0)
        cw = synth_participant(3, TaskShape.CIRCLE, Direction.CW, cfg)
        ccw = synth_participant(3, TaskShape.CIRCLE, Direction.CCW, cfg)
        m_cw = np.array([w.mean() for w in cw.windows])
        m_ccw = np.array([w.mean() for w in ccw.windows])
        np.testing.assert_allclose(m_cw, m_ccw[::-1], rtol=1e-12, atol=1e-12)

    def test_noise_free_periodicity(self):
        cfg = SynthConfig(noise_std=0.0)
        rec = synth_participant(9, TaskShape.DIAMOND, Direction.CW, cfg)
        for j in range(39 - 13):
            np.testing.assert_allclose(rec.windows[j], rec.windows[j + 13], rtol=1e-12)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(amplitude_ohm=0.0)
        with pytest.raises(InvalidConfig):
            SynthConfig(noise_std=-1.0)
        with pytest.raises(InvalidConfig):
            SynthConfig(samples_per_window=1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("amplitude_ohm", float("nan")),
            ("base_ohm", float("nan")),
            ("noise_std", float("nan")),
            ("gaze_noise", float("nan")),
            ("noise_std", float("inf")),
            ("base_ohm", float("inf")),
        ],
    )
    def test_non_finite_config(self, name, value):
        # such a cohort would hold all-NaN resistance, silently no noise, or constant windows
        with pytest.raises(InvalidConfig):
            synth_participant(0, TaskShape.DIAMOND, Direction.CW, SynthConfig(**{name: value}))

    def test_cohort_direction_balance(self):
        records = synth_cohort(0, participants=16)
        assert len(records) == 32  # both shapes
        cw = sum(1 for r in records if r.direction is Direction.CW)
        assert cw == 16  # 8 participants x 2 shapes


def _thin_span_7(csv_dir):
    """Leave p00's diamond trace one sample between hits 7 and 8 (the span [3000, 3500) ms)."""
    path = csv_dir / "resistance.csv"
    lines = path.read_text().splitlines()
    keep = [lines[0]]
    for line in lines[1:]:
        pid, shape, t, _r = line.split(",")
        if not (pid == "p00" and shape == "diamond" and 3000.0 < float(t) < 3500.0):
            keep.append(line)
    path.write_text("\n".join(keep) + "\n")


class TestCsvRoundTrip:
    @pytest.fixture()
    def csv_dir(self, tmp_path):
        cfg = SynthConfig()
        tasks = []
        for i in range(2):
            pid = f"p{i:02d}"
            direction = Direction.CW if i % 2 == 0 else Direction.CCW
            for shape in (TaskShape.DIAMOND, TaskShape.CIRCLE):
                tasks.append((pid, shape, direction, *synth_trace(50 + i, pid, shape, direction, cfg)))
        write_dataset_csvs(tasks, tmp_path)
        return tmp_path

    def test_round_trip(self, csv_dir):
        # repr() writes every float exactly, so each loaded record equals its in-memory twin bit for bit
        records = records_from_csv_dir(csv_dir)
        assert len(records) == 4
        for loaded in records:
            seed = 50 + int(loaded.participant_id[1:])
            direct = synth_participant(seed, loaded.shape, loaded.direction, participant_id=loaded.participant_id)
            np.testing.assert_array_equal(loaded.gaze, direct.gaze)
            np.testing.assert_array_equal(loaded.hit_values, direct.hit_values)
            assert len(loaded.windows) == len(direct.windows) == 39
            for a, b in zip(loaded.windows, direct.windows):
                np.testing.assert_array_equal(a, b)

    def test_trace_count(self, csv_dir):
        traces = load_resistance_csv(csv_dir / "resistance.csv")
        assert len(traces) == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError) as err:
            records_from_csv_dir(tmp_path)
        assert "resistance.csv" in str(err.value)

    def test_one_sample_span(self, csv_dir, capsys):
        _thin_span_7(csv_dir)
        with pytest.raises(DataError, match="^fewer than 2 samples between hits 7 and 8$"):
            records_from_csv_dir(csv_dir)
        assert main(["features", "--data", str(csv_dir), "--out", str(csv_dir / "features")]) == 2
        assert capsys.readouterr().err == "error[DataError]: fewer than 2 samples between hits 7 and 8\n"

    def test_gaze_error_before_empty_window(self, csv_dir):
        # every file is read before any trace is segmented
        _thin_span_7(csv_dir)
        with open(csv_dir / "gaze.csv", "a") as handle:
            handle.write("p00,diamond,1\n")
        with pytest.raises(DataError, match="gaze.csv: row .* fields, header has"):
            records_from_csv_dir(csv_dir)

    def test_task_without_resistance_rows(self, tmp_path):
        # hits and gaze rows of p01's circle task stay, its resistance rows go
        assert main(["synth", "--seed", "1", "--participants", "2", "--out", str(tmp_path)]) == 0
        path = tmp_path / "resistance.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line for line in lines if not line.startswith("p01,circle,")) + "\n")
        with pytest.raises(DataError) as err:
            records_from_csv_dir(tmp_path)
        assert "no resistance rows" in str(err.value) and "p01" in str(err.value)

    def test_a_missing_task_names_its_participant_shape_and_file(self, tmp_path):
        assert main(["synth", "--seed", "1", "--participants", "2", "--out", str(tmp_path)]) == 0
        originals = {name: (tmp_path / f"{name}.csv").read_text() for name in ("resistance", "hits", "gaze")}
        wanted = {
            "resistance": "no resistance rows for participant p01, shape circle in {}",
            "hits": "no hit events for participant p01, shape circle in {}",
            "gaze": "no gaze rows for participant p01, shape circle in {}",
        }
        for name, message in wanted.items():
            path = tmp_path / f"{name}.csv"
            # the rows of p01's circle task leave this one file, and the other two are whole again
            for other, text in originals.items():
                (tmp_path / f"{other}.csv").write_text(text)
            lines = originals[name].splitlines(keepends=True)
            path.write_text("".join(line for line in lines if not line.startswith("p01,circle,")))
            with pytest.raises(DataError) as err:
                records_from_csv_dir(tmp_path)
            assert str(err.value) == message.format(path)


def _append_short_row(path):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("p00\n")


class TestLoaderOnThePool:
    """`records_from_csv_dir` on one usable core (serial) and on two (gaze and participants in a forked worker)."""

    @pytest.fixture()
    def data(self, tmp_path):
        assert main(["synth", "--seed", "3", "--participants", "3", "--out", str(tmp_path)]) == 0
        return tmp_path

    def _load(self, cores, n, data):
        cores(n)
        try:
            return records_from_csv_dir(data)
        finally:
            assert multiprocessing.active_children() == []

    def test_one_core_and_two_load_the_same_records(self, cores, data):
        one, two = (self._load(cores, n, data) for n in (1, 2))
        assert [(r.participant_id, r.shape, r.direction) for r in one] == [
            (r.participant_id, r.shape, r.direction) for r in two
        ]
        assert len(one) == 6
        for a, b in zip(one, two):
            np.testing.assert_array_equal(a.gaze, b.gaze)
            np.testing.assert_array_equal(a.hit_values, b.hit_values)
            assert len(a.windows) == len(b.windows) == WINDOWS_PER_TASK
            for x, y in zip(a.windows, b.windows):
                np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize(
        "bad, first",
        [(("hits", "gaze"), "hits"), (("resistance", "gaze"), "resistance"), (("gaze", "participants"), "gaze")],
        ids=["hits+gaze", "resistance+gaze", "gaze+participants"],
    )
    def test_the_first_bad_file_in_read_order_fails_the_load(self, cores, data, bad, first):
        for name in bad:
            _append_short_row(data / f"{name}.csv")
        errors = []
        for n in (1, 2):
            with pytest.raises(DataError) as err:
                self._load(cores, n, data)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"{data / f'{first}.csv'}: row ")

    def test_an_error_in_the_workers_task_comes_back_typed(self, cores, data):
        _append_short_row(data / "participants.csv")
        with pytest.raises(DataError) as err:
            self._load(cores, 2, data)
        assert type(err.value) is DataError
        assert str(err.value) == f"{data / 'participants.csv'}: row 5 has 1 fields, header has 2"


class TestLoaderErrors:
    def test_missing_column(self, tmp_path):
        p = tmp_path / "resistance.csv"
        p.write_text("participant_id,shape,timestamp_ms\n")
        with pytest.raises(DataError, match="missing column 'resistance_ohm'$"):
            load_resistance_csv(p)

    def test_non_monotonic_timestamp(self, tmp_path):
        p = tmp_path / "resistance.csv"
        rows = ["participant_id,shape,timestamp_ms,resistance_ohm"]
        rows += [f"p0,diamond,{t},1000.0" for t in (0.0, 10.0, 5.0)]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="^timestamp decreases at file row 4$"):
            load_resistance_csv(p)

    def test_non_numeric_value_reports_row(self, tmp_path):
        p = tmp_path / "resistance.csv"
        rows = ["participant_id,shape,timestamp_ms,resistance_ohm"]
        rows += [f"p0,diamond,{float(t)},1000.0" for t in range(15)]
        rows.append("p0,diamond,15.0,NaN")  # file row 17
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="^non-finite value 'NaN' at file row 17$"):
            load_resistance_csv(p)

    @pytest.mark.parametrize(
        "loader, header, row",
        [
            (load_resistance_csv, "participant_id,shape,timestamp_ms,resistance_ohm", "p0,diamond,0.0,1000.0"),
            (load_hits_csv, "participant_id,shape,hit_index,timestamp_ms", "p0,diamond,1,0.0"),
            (load_participants_csv, "participant_id,direction", "p0,cw"),
            (load_gaze_csv, "participant_id,shape,hit_index,g1", "p0,diamond,1,0.5"),
        ],
        ids=["resistance", "hits", "participants", "gaze"],
    )
    def test_row_longer_than_header(self, tmp_path, loader, header, row):
        p = tmp_path / "data.csv"
        p.write_text(f"{header}\n{row}\n{row},7\n")
        with pytest.raises(DataError, match="row 3 has"):
            loader(p)

    def test_fractional_hit_index(self, tmp_path):
        hits = tmp_path / "hits.csv"
        rows = ["participant_id,shape,hit_index,timestamp_ms"]
        hits.write_text("\n".join(rows + [f"p0,diamond,{k + 0.5},{k * 10.0}" for k in range(1, 41)]) + "\n")
        with pytest.raises(DataError, match="^hit_index '1.5' is not an integer at file row 2$"):
            load_hits_csv(hits)
        gaze = tmp_path / "gaze.csv"
        gaze.write_text("participant_id,shape,hit_index,g1\np0,diamond,1.5,0.5\n")
        with pytest.raises(DataError, match="^hit_index '1.5' is not an integer at file row 2$"):
            load_gaze_csv(gaze)
        # an integral value written with a decimal point still loads
        hits.write_text("\n".join(rows + [f"p0,diamond,{float(k)},{k * 10.0}" for k in range(1, 41)]) + "\n")
        hit_times = load_hits_csv(hits)[("p0", TaskShape.DIAMOND)]
        np.testing.assert_array_equal(hit_times, np.arange(1, 41) * 10.0)

    def test_gaze_row_width_mismatch(self, tmp_path):
        p = tmp_path / "gaze.csv"
        p.write_text("participant_id,shape,hit_index,g1,g2\np0,diamond,1,0.5\n")
        with pytest.raises(DataError, match="row 2 has 4 fields, header has 5$"):
            load_gaze_csv(p)

    def test_gaze_must_cover_all_hits(self, tmp_path):
        p = tmp_path / "gaze.csv"
        rows = ["participant_id,shape,hit_index,g1"]
        rows += [f"p0,diamond,{k},0.5" for k in range(1, 40)]  # hit 40 missing
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"once each: missing \[40\]$"):
            load_gaze_csv(p)

    def test_participants_bad_direction(self, tmp_path):
        p = tmp_path / "participants.csv"
        p.write_text("participant_id,direction\np0,sideways\n")
        with pytest.raises(DataError, match="^unknown direction 'sideways' at file row 2$"):
            load_participants_csv(p)

    def test_hits_must_be_complete(self, tmp_path):
        p = tmp_path / "hits.csv"
        rows = ["participant_id,shape,hit_index,timestamp_ms"]
        rows += [f"p0,diamond,{k},{k * 10.0}" for k in range(1, 40)]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"once each: missing \[40\]$"):
            load_hits_csv(p)


LOADERS = {
    "resistance": (load_resistance_csv, naive_reference.naive_load_resistance_csv),
    "hits": (load_hits_csv, naive_reference.naive_load_hits_csv),
    "gaze": (load_gaze_csv, naive_reference.naive_load_gaze_csv),
    "participants": (load_participants_csv, naive_reference.naive_load_participants_csv),
}


def _outcome(load, path):
    """("ok", result), or the error as (type, message); a message names the file row."""
    try:
        return "ok", load(path)
    except (IntentBenchError, csv.Error, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


def _assert_same(a, b):
    """Equal bit for bit, with equal types, shapes and dtypes all the way down."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, np.ndarray):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    elif isinstance(a, dict):
        _assert_same(list(a.items()), list(b.items()))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif dataclasses.is_dataclass(a):
        _assert_same(vars(a), vars(b))
    else:
        assert a == b


def _assert_loads_as_per_row(data_dir, names=tuple(LOADERS)):
    """Each loader gives the per-row reference's result, or raises its error at its row."""
    for name in names:
        load, naive = LOADERS[name]
        got, want = _outcome(load, data_dir / f"{name}.csv"), _outcome(naive, data_dir / f"{name}.csv")
        if want[0] == "ok":
            assert got[0] == "ok", (name, got)
            _assert_same(got[1], want[1])
        else:
            assert got == want, name


@pytest.fixture()
def per_row_only(monkeypatch):
    """Fail any load that the columnar pass hands to the per-row walk."""

    def refuse(*_args):
        raise AssertionError("the columnar pass refused a file it should read")

    monkeypatch.setattr(dataset, "_walk_runs", refuse)


class TestColumnarLoader:
    @pytest.fixture()
    def csv_dir(self, tmp_path):
        cfg = SynthConfig(samples_per_window=3, gaze_width=5)
        tasks = []
        for i in range(2):
            direction = Direction.CW if i % 2 == 0 else Direction.CCW
            for shape in (TaskShape.DIAMOND, TaskShape.CIRCLE):
                tasks.append((f"p{i:02d}", shape, direction, *synth_trace(7 + i, f"p{i:02d}", shape, direction, cfg)))
        write_dataset_csvs(tasks, tmp_path)
        return tmp_path

    @staticmethod
    def _edit(path, edit):
        path.write_bytes(edit(path.read_bytes().decode("utf-8")).encode("utf-8"))

    @pytest.mark.parametrize("newline", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
    @pytest.mark.parametrize("trailing", [True, False], ids=["trailing-newline", "no-trailing-newline"])
    def test_line_endings(self, csv_dir, per_row_only, newline, trailing):
        for name in LOADERS:
            self._edit(csv_dir / f"{name}.csv", lambda text: text.replace("\r\n", newline)[: None if trailing else -len(newline)])
        for name in LOADERS:
            assert (csv_dir / f"{name}.csv").read_bytes().endswith(newline.encode()) == trailing
        _assert_loads_as_per_row(csv_dir)
        assert len(records_from_csv_dir(csv_dir)) == 4

    def test_interleaved_tasks(self, csv_dir, per_row_only):
        path = csv_dir / "resistance.csv"
        before = load_resistance_csv(path)
        header, *rows = path.read_text().splitlines()
        diamond = [r for r in rows if r.startswith("p00,diamond,")]
        circle = [r for r in rows if r.startswith("p00,circle,")]
        rest = [r for r in rows if not r.startswith("p00,")]
        mixed = [r for pair in zip(diamond, circle) for r in pair]  # the two tasks alternate row by row
        path.write_text("\n".join([header, *mixed, *rest]) + "\n")
        _assert_loads_as_per_row(csv_dir, ["resistance"])
        after = load_resistance_csv(path)
        _assert_same(after, before)

    def test_interleaved_task_going_back_in_time(self, csv_dir):
        # the diamond task's third run starts before its second run ends: file row 6 goes back
        path = csv_dir / "resistance.csv"
        header, *rows = path.read_text().splitlines()
        diamond = [r for r in rows if r.startswith("p00,diamond,")]
        circle = [r for r in rows if r.startswith("p00,circle,")]
        mixed = [diamond[0], circle[0], diamond[2], circle[1], diamond[1], *diamond[3:], *circle[2:]]
        path.write_text("\n".join([header, *mixed]) + "\n")
        with pytest.raises(DataError, match="^timestamp decreases at file row 6$"):
            load_resistance_csv(path)
        _assert_loads_as_per_row(csv_dir, ["resistance"])

    @pytest.mark.parametrize("name", list(LOADERS))
    def test_blank_line_is_a_row_of_no_fields(self, csv_dir, name):
        path = csv_dir / f"{name}.csv"
        self._edit(path, lambda text: text.replace("\r\n", "\r\n\r\n", 3).replace("\r\n\r\n", "\r\n", 2))
        assert path.read_text().splitlines()[3] == ""  # file row 4
        with pytest.raises(DataError, match="row 4 has 0 fields"):
            LOADERS[name][0](path)
        _assert_loads_as_per_row(csv_dir, [name])

    @pytest.mark.parametrize("name", ["resistance", "hits", "gaze"])
    @pytest.mark.parametrize("blank_first", [True, False], ids=["blank-first", "long-first"])
    def test_blank_line_beside_a_long_row(self, csv_dir, name, blank_first):
        # the long row's extra commas balance the blank line's missing ones, so only the row count differs
        path = csv_dir / f"{name}.csv"
        lines = path.read_text().splitlines()
        lines[4] += ",0.5" * lines[0].count(",")
        lines.insert(3 if blank_first else 6, "")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="row 4 has 0 fields" if blank_first else "row 5 has"):
            LOADERS[name][0](path)
        _assert_loads_as_per_row(csv_dir, [name])

    @pytest.mark.parametrize(
        "name, edit",
        [
            pytest.param("hits", lambda text: text.replace("p01,", "p\x0001,"), id="nul-in-participant-id"),
            pytest.param("hits", lambda text: text.replace("p01,", "p" * 140_000 + ","), id="field-above-csv-limit"),
            # row 2 is bad, and the invalid byte lies past the first 8 KiB that csv's reader decodes
            pytest.param(
                "resistance", lambda text: text.replace(",0.0,", ",nan,", 1) + "\udcff", id="bad-utf8-after-bad-row"
            ),
        ],
    )
    def test_odd_input_reads_as_per_row(self, csv_dir, name, edit):
        path = csv_dir / f"{name}.csv"
        text = edit(path.read_text(encoding="utf-8"))
        path.write_bytes(text.encode("utf-8", errors="surrogateescape"))
        _assert_loads_as_per_row(csv_dir, [name])

    @pytest.mark.parametrize("adjacent", [True, False], ids=["next-to-first", "at-the-end"])
    def test_participant_listed_twice(self, csv_dir, adjacent):
        path = csv_dir / "participants.csv"
        header, *rows = path.read_text().splitlines()
        assert rows[0] == "p00,cw"
        repeat = "p00,cw" if adjacent else "p00,ccw"
        rows = [rows[0], repeat, *rows[1:]] if adjacent else [*rows, repeat]
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(DataError, match=r"participants\.csv: participant p00 is listed more than once"):
            load_participants_csv(path)
        with pytest.raises(DataError, match="p00"):
            records_from_csv_dir(csv_dir)
        _assert_loads_as_per_row(csv_dir, ["participants"])

    @pytest.mark.parametrize("name", ["hits", "gaze"])
    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda rows, row: [*rows, row], "repeated [5]"),  # a copy of hit 5's row, at the end of the file
            (lambda rows, row: [r if r != row else row.replace(",5,", ",6,", 1) for r in rows], "repeated [6]; missing [5]"),
            (lambda rows, row: [r if r != row else row.replace(",5,", ",41,", 1) for r in rows],
             "missing [5]; outside 1..40 [41]"),
        ],
        ids=["row-repeated", "hit-renumbered", "hit-out-of-range"],
    )
    def test_hit_rows_number_each_hit_once(self, csv_dir, name, edit, problem):
        path = csv_dir / f"{name}.csv"
        header, *rows = path.read_text().splitlines()
        row = next(r for r in rows if r.startswith("p01,circle,5,"))
        path.write_text("\n".join([header, *edit(rows, row)]) + "\n")
        want = rf"{name}\.csv: the rows of participant p01, shape circle must number hits 1\.\.40 once each: "
        with pytest.raises(DataError, match=want + re.escape(problem) + "$"):
            LOADERS[name][0](path)
        _assert_loads_as_per_row(csv_dir, [name])

    def test_quoted_participant_id_with_comma(self, csv_dir):
        for name in LOADERS:
            self._edit(csv_dir / f"{name}.csv", lambda text: text.replace("p00,", '"p,00",'))
        _assert_loads_as_per_row(csv_dir)
        assert "p,00" in load_participants_csv(csv_dir / "participants.csv")
        assert {r.participant_id for r in records_from_csv_dir(csv_dir)} == {"p,00", "p01"}

    def test_hash_inside_participant_id(self, csv_dir, per_row_only):
        for name in LOADERS:
            self._edit(csv_dir / f"{name}.csv", lambda text: text.replace("p00,", "p#00,"))
        _assert_loads_as_per_row(csv_dir)
        assert {r.participant_id for r in records_from_csv_dir(csv_dir)} == {"p#00", "p01"}

    def test_underscore_number_loads_as_python_float_reads_it(self, csv_dir):
        path = csv_dir / "resistance.csv"
        before = load_resistance_csv(path)
        self._edit(path, lambda text: text.replace(",1000.0,", ",1_000.0,"))
        assert "1_000.0" in path.read_text()
        _assert_loads_as_per_row(csv_dir, ["resistance"])
        _assert_same(load_resistance_csv(path), before)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        keep_task_order=st.booleans(),
        newline=st.sampled_from(["\r\n", "\n"]),
        trailing=st.booleans(),
        number=st.sampled_from([repr, "{:.17g}".format, " {!r} ".format, "{:_}".format, "{:.3e}".format]),
        fault=st.sampled_from([None, "nan", "abc", "", "drop", "extra", "blank", "quote", "sideways", "1.5"]),
    )
    def test_shuffled_rows_load_as_per_row(self, seed, keep_task_order, newline, trailing, number, fault):
        # synthesized tables with shuffled rows: each loader matches the per-row reference, errors included
        rng = np.random.default_rng(seed)
        cfg = SynthConfig(samples_per_window=2, gaze_width=4 + int(rng.integers(0, 3)))
        tables = {
            "resistance": [list(dataset.RESISTANCE_COLUMNS)],
            "hits": [list(dataset.HITS_COLUMNS)],
            "gaze": [[*dataset.GAZE_KEY_COLUMNS, *(f"g{i + 1}" for i in range(cfg.gaze_width))]],
            "participants": [list(dataset.PARTICIPANTS_COLUMNS)],
        }
        for i in range(int(rng.integers(1, 4))):
            pid, direction = f"p{i}", (Direction.CW, Direction.CCW)[int(rng.integers(0, 2))]
            tables["participants"].append([pid, direction.value])
            for shape in TaskShape:
                trace, hit_times, gaze = synth_trace(seed % 1000 + i, pid, shape, direction, cfg)
                # tolist() gives Python floats, whose repr is the number alone (numpy 2 adds "np.float64(...)")
                tables["resistance"] += [
                    [pid, shape.value, number(t), number(r)] for t, r in zip(trace.times.tolist(), trace.values.tolist())
                ]
                tables["hits"] += [[pid, shape.value, str(k), number(t)] for k, t in enumerate(hit_times.tolist(), start=1)]
                tables["gaze"] += [[pid, shape.value, str(k), *map(number, row)] for k, row in enumerate(gaze.tolist(), start=1)]
        with tempfile.TemporaryDirectory() as tmp:
            for name, (header, *rows) in tables.items():
                order = rng.permutation(len(rows))
                if keep_task_order:  # interleave the tasks, each keeping its own row order
                    keys = [tuple(rows[j][:2]) for j in order]
                    queues = {}
                    for row in rows:
                        queues.setdefault(tuple(row[:2]), []).append(row)
                    rows = [queues[key].pop(0) for key in keys]
                else:
                    rows = [rows[j] for j in order]
                lines = [",".join(row) for row in [header, *rows]]
                if fault is not None:
                    k = 1 + int(rng.integers(0, len(rows)))
                    cells = lines[k].split(",")
                    if fault == "drop":
                        cells.pop()
                    elif fault == "extra":
                        cells.append("0.0")
                    elif fault == "quote":
                        cells[0] = f'"{cells[0]}"'
                    elif fault == "sideways":
                        cells[1] = fault
                    else:
                        cells[-1] = fault
                    lines[k] = "" if fault == "blank" else ",".join(cells)
                text = newline.join(lines) + (newline if trailing else "")
                (Path(tmp) / f"{name}.csv").write_bytes(text.encode("utf-8"))
            _assert_loads_as_per_row(Path(tmp))

