import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intent_bench.cli import main
from intent_bench.dataset import (
    Direction,
    HitEvent,
    ResistanceTrace,
    SynthConfig,
    TaskShape,
    assign_segment_label,
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
from intent_bench.errors import (
    EmptyWindow,
    InvalidConfig,
    IoError,
    MissingColumn,
    NonMonotonicTimestamp,
    NonNumericValue,
    OutOfRange,
    RowWidthMismatch,
)


class TestSegmentLabel:
    def test_boundaries(self):
        assert assign_segment_label(1) == 0
        assert assign_segment_label(10) == 0
        assert assign_segment_label(11) == 1
        assert assign_segment_label(40) == 3

    def test_out_of_range(self):
        for bad in (0, 41, -3):
            with pytest.raises(OutOfRange):
                assign_segment_label(bad)

    def test_destination_histogram(self):
        counts = np.bincount([assign_segment_label(h) for h in range(2, 41)])
        assert counts.tolist() == [9, 10, 10, 10]


def _uniform_trace(samples_per_span=10, spans=39, step=1.0):
    times = np.arange(spans * samples_per_span + 1) * step
    values = np.sin(times * 0.1) + 2.0
    events = [HitEvent(k, (k - 1) * samples_per_span * step) for k in range(1, 41)]
    return ResistanceTrace("p0", TaskShape.DIAMOND, times, values), events


class TestSegmentTrace:
    def test_uniform_partition(self):
        trace, events = _uniform_trace()
        windows = segment_trace(trace, events)
        assert len(windows) == 39
        assert all(w.values.size == 10 for w in windows)
        assert [w.dest_hit for w in windows] == list(range(2, 41))

    def test_empty_window(self):
        trace, events = _uniform_trace()
        # empty the span between hits 7 and 8
        keep = (trace.times < events[6].timestamp_ms + 1) | (trace.times >= events[7].timestamp_ms)
        sparse = ResistanceTrace("p0", TaskShape.DIAMOND, trace.times[keep], trace.values[keep])
        with pytest.raises(EmptyWindow) as err:
            segment_trace(sparse, events)
        assert err.value.source_hit == 7

    def test_bad_events(self):
        trace, events = _uniform_trace()
        with pytest.raises(InvalidConfig):
            segment_trace(trace, events[:39])
        shuffled = [events[0], events[2], events[1]] + events[3:]
        with pytest.raises(OutOfRange):
            segment_trace(trace, shuffled)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_partition_property(self, seed):
        # random sample times: windows concatenate back to exactly [t_1, t_40)
        rng = np.random.default_rng(seed)
        events = [HitEvent(k, float(t)) for k, t in enumerate(np.arange(40) * 100.0, start=1)]
        times = np.sort(rng.uniform(0.0, 3900.0 + 50.0, size=1200))
        values = rng.normal(1000.0, 5.0, size=times.size)
        trace = ResistanceTrace("p", TaskShape.CIRCLE, times, values)
        in_task = (times >= 0.0) & (times < 3900.0)
        try:
            windows = segment_trace(trace, events)
        except EmptyWindow:
            return  # sparse draw; contract allows rejection
        merged = np.concatenate([w.values for w in windows])
        np.testing.assert_array_equal(merged, values[in_task])

    def test_cohort_window_arithmetic(self):
        records = synth_cohort(1, participants=16, shapes=(TaskShape.DIAMOND,))
        assert sum(len(r.windows) for r in records) == 624  # 39 x 16


class TestRawAtHits:
    def test_nearest_with_tie_to_earlier(self):
        times = np.array([0.0, 4.0, 6.0, 10.0, 20.0, 30.0])
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        trace = ResistanceTrace("p", TaskShape.DIAMOND, times, values)
        events = [HitEvent(k, t) for k, t in enumerate(np.arange(40) * 1.0, start=1)]
        # only checking the helper's selection rule needs a small event list;
        # build a 40-event list whose first timestamps match the interesting spots
        events = [HitEvent(1, 0.0), HitEvent(2, 5.0), HitEvent(3, 9.0)] + [
            HitEvent(k, 9.0 + k) for k in range(4, 41)
        ]
        out = raw_at_hits(trace, events)
        assert out[0] == 1.0  # exact
        assert out[1] == 2.0  # tie between 4.0 and 6.0 -> earlier
        assert out[2] == 4.0  # nearest is 10.0


class TestSynth:
    def test_determinism(self):
        a = synth_participant(7, TaskShape.DIAMOND, Direction.CW)
        b = synth_participant(7, TaskShape.DIAMOND, Direction.CW)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a.windows, b.windows))
        assert np.array_equal(a.gaze, b.gaze)
        assert np.array_equal(a.hit_values, b.hit_values)

    def test_shape_contract(self):
        rec = synth_participant(3, TaskShape.CIRCLE, Direction.CCW)
        assert len(rec.windows) == 39
        assert rec.gaze.shape == (40, 24)
        assert rec.hit_values.shape == (40,)

    def test_noise_free_mirror_symmetry(self):
        cfg = SynthConfig(noise_std=0.0)
        cw = synth_participant(3, TaskShape.CIRCLE, Direction.CW, cfg)
        ccw = synth_participant(3, TaskShape.CIRCLE, Direction.CCW, cfg)
        m_cw = np.array([w.values.mean() for w in cw.windows])
        m_ccw = np.array([w.values.mean() for w in ccw.windows])
        np.testing.assert_allclose(m_cw, m_ccw[::-1], rtol=1e-12, atol=1e-12)

    def test_noise_free_periodicity(self):
        cfg = SynthConfig(noise_std=0.0)
        rec = synth_participant(9, TaskShape.DIAMOND, Direction.CW, cfg)
        for j in range(39 - 13):
            np.testing.assert_allclose(rec.windows[j].values, rec.windows[j + 13].values, rtol=1e-12)

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
                trace, events, gaze = synth_trace(50 + i, pid, shape, direction, cfg)
                tasks.append((pid, shape, direction, trace, events, gaze))
        write_dataset_csvs(tasks, tmp_path)
        return tmp_path

    def test_round_trip(self, csv_dir):
        records = records_from_csv_dir(csv_dir)
        assert len(records) == 4
        direct = synth_participant(50, TaskShape.DIAMOND, Direction.CW, participant_id="p00")
        loaded = next(
            r for r in records if r.participant_id == "p00" and r.shape is TaskShape.DIAMOND
        )
        np.testing.assert_allclose(loaded.gaze, direct.gaze, rtol=1e-15)
        np.testing.assert_allclose(loaded.hit_values, direct.hit_values, rtol=1e-15)
        for a, b in zip(loaded.windows, direct.windows):
            np.testing.assert_allclose(a.values, b.values, rtol=1e-15)

    def test_trace_count(self, csv_dir):
        traces = load_resistance_csv(csv_dir / "resistance.csv")
        assert len(traces) == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError) as err:
            records_from_csv_dir(tmp_path)
        assert "resistance.csv" in str(err.value)

    def test_one_sample_span(self, csv_dir, capsys):
        _thin_span_7(csv_dir)
        with pytest.raises(EmptyWindow) as err:
            records_from_csv_dir(csv_dir)
        assert err.value.source_hit == 7
        assert main(["features", "--data", str(csv_dir), "--out", str(csv_dir / "features")]) == 2
        assert "error[EmptyWindow]" in capsys.readouterr().err

    def test_gaze_error_before_empty_window(self, csv_dir):
        # every file is read before any trace is segmented
        _thin_span_7(csv_dir)
        with open(csv_dir / "gaze.csv", "a") as handle:
            handle.write("p00,diamond,1\n")
        with pytest.raises(RowWidthMismatch):
            records_from_csv_dir(csv_dir)

    def test_task_without_resistance_rows(self, tmp_path):
        # hits and gaze rows of p01's circle task stay, its resistance rows go
        assert main(["synth", "--seed", "1", "--participants", "2", "--out", str(tmp_path)]) == 0
        path = tmp_path / "resistance.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line for line in lines if not line.startswith("p01,circle,")) + "\n")
        with pytest.raises(IoError) as err:
            records_from_csv_dir(tmp_path)
        assert "no resistance rows" in str(err.value) and "p01" in str(err.value)


class TestLoaderErrors:
    def test_missing_column(self, tmp_path):
        p = tmp_path / "resistance.csv"
        p.write_text("participant_id,shape,timestamp_ms\n")
        with pytest.raises(MissingColumn):
            load_resistance_csv(p)

    def test_non_monotonic_timestamp(self, tmp_path):
        p = tmp_path / "resistance.csv"
        rows = ["participant_id,shape,timestamp_ms,resistance_ohm"]
        rows += [f"p0,diamond,{t},1000.0" for t in (0.0, 10.0, 5.0)]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(NonMonotonicTimestamp) as err:
            load_resistance_csv(p)
        assert err.value.row == 4

    def test_non_numeric_value_reports_row(self, tmp_path):
        p = tmp_path / "resistance.csv"
        rows = ["participant_id,shape,timestamp_ms,resistance_ohm"]
        rows += [f"p0,diamond,{float(t)},1000.0" for t in range(15)]
        rows.append("p0,diamond,15.0,NaN")  # file row 17
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(NonNumericValue) as err:
            load_resistance_csv(p)
        assert err.value.row == 17

    @pytest.mark.parametrize(
        "loader, header, row",
        [
            (load_resistance_csv, "participant_id,shape,timestamp_ms,resistance_ohm", "p0,diamond,0.0,1000.0"),
            (load_hits_csv, "participant_id,shape,hit_index,timestamp_ms", "p0,diamond,1,0.0"),
            (load_participants_csv, "participant_id,direction", "p0,cw"),
        ],
        ids=["resistance", "hits", "participants"],
    )
    def test_row_longer_than_header(self, tmp_path, loader, header, row):
        p = tmp_path / "data.csv"
        p.write_text(f"{header}\n{row}\n{row},7\n")
        with pytest.raises(RowWidthMismatch, match="row 3 has"):
            loader(p)

    def test_fractional_hit_index(self, tmp_path):
        hits = tmp_path / "hits.csv"
        rows = ["participant_id,shape,hit_index,timestamp_ms"]
        hits.write_text("\n".join(rows + [f"p0,diamond,{k + 0.5},{k * 10.0}" for k in range(1, 41)]) + "\n")
        with pytest.raises(NonNumericValue) as err:
            load_hits_csv(hits)
        assert err.value.row == 2
        gaze = tmp_path / "gaze.csv"
        gaze.write_text("participant_id,shape,hit_index,g1\np0,diamond,1.5,0.5\n")
        with pytest.raises(NonNumericValue):
            load_gaze_csv(gaze)
        # an integral value written with a decimal point still loads
        hits.write_text("\n".join(rows + [f"p0,diamond,{float(k)},{k * 10.0}" for k in range(1, 41)]) + "\n")
        events = load_hits_csv(hits)[("p0", TaskShape.DIAMOND)]
        assert [ev.hit_index for ev in events] == list(range(1, 41))

    def test_gaze_row_width_mismatch(self, tmp_path):
        p = tmp_path / "gaze.csv"
        p.write_text("participant_id,shape,hit_index,g1,g2\np0,diamond,1,0.5\n")
        with pytest.raises(RowWidthMismatch):
            load_gaze_csv(p)

    def test_gaze_must_cover_all_hits(self, tmp_path):
        p = tmp_path / "gaze.csv"
        rows = ["participant_id,shape,hit_index,g1"]
        rows += [f"p0,diamond,{k},0.5" for k in range(1, 40)]  # hit 40 missing
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(InvalidConfig):
            load_gaze_csv(p)

    def test_participants_bad_direction(self, tmp_path):
        p = tmp_path / "participants.csv"
        p.write_text("participant_id,direction\np0,sideways\n")
        with pytest.raises(NonNumericValue):
            load_participants_csv(p)

    def test_hits_must_be_complete(self, tmp_path):
        p = tmp_path / "hits.csv"
        rows = ["participant_id,shape,hit_index,timestamp_ms"]
        rows += [f"p0,diamond,{k},{k * 10.0}" for k in range(1, 40)]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(InvalidConfig):
            load_hits_csv(p)
