import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intent_bench.dataset import TaskShape, synth_cohort
from intent_bench.errors import BadArgument, DataError, TooFewRows
from intent_bench import features
from intent_bench.features import (
    FEATURE_NAMES,
    FEATURE_SLICE,
    DataMatrix,
    FeatureKind,
    SetupId,
    apply_scaler,
    assemble_setup,
    compute_feature,
    export_features_csv,
    feature_matrix,
    fit_scaler,
)

from intent_bench.pipeline import sequences_from_matrix, window_tables

from naive_reference import naive_export_features_csv, naive_features

window_values = st.lists(
    st.floats(min_value=-10.0, max_value=10.0).filter(lambda v: abs(v) > 1e-6),
    min_size=2,
    max_size=60,
)


def feat(kind, values):
    return compute_feature(kind, np.asarray(values, dtype=float))


class TestFrozenExamples:
    def test_two_sample_window(self):
        assert feat(FeatureKind.IAV, [3, -4]) == 7.0
        assert feat(FeatureKind.MAV, [3, -4]) == 3.5
        assert feat(FeatureKind.SSI, [3, -4]) == 25.0
        assert feat(FeatureKind.RMS, [3, -4]) == pytest.approx(3.5355339059327378, rel=1e-12)

    def test_constant_and_symmetric(self):
        assert feat(FeatureKind.WL, [5, 5, 5]) == 0.0
        assert feat(FeatureKind.SKEW, [-1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_weight_boundary_cases(self):
        # weight enumeration: N=8 MMAV2 weights are (0.5, 1, 1, 1, 1, 1, -0.5, 0)
        assert feat(FeatureKind.MMAV1, np.ones(4)) == pytest.approx(0.875, rel=1e-12)
        assert feat(FeatureKind.MMAV2, np.ones(4)) == pytest.approx(0.75, rel=1e-12)
        assert feat(FeatureKind.MMAV2, np.ones(8)) == pytest.approx(0.625, rel=1e-12)

    def test_var(self):
        assert feat(FeatureKind.VAR, [1, 2, 3]) == pytest.approx(1.0, rel=1e-12)

    def test_log_clamps_zero(self):
        value = feat(FeatureKind.LOG, [0.0, 1.0])
        assert value == pytest.approx((math.log10(1e-12) + 0.0) / 2, rel=1e-12)


class TestErrors:
    def test_degenerate_window(self):
        with pytest.raises(DataError, match="^window has 1 samples, need at least 2$"):
            feat(FeatureKind.IAV, [1.0])

    def test_constant_window_skew_kurt(self):
        for kind in (FeatureKind.SKEW, FeatureKind.KURT):
            with pytest.raises(DataError, match=rf"^{kind.value} undefined on a constant window"):
                feat(kind, [2.0, 2.0, 2.0])

    def test_vector_propagates_tagged_error(self):
        with pytest.raises(DataError, match=r"^skew undefined on a constant window"):
            feature_matrix([np.full(5, 7.0)])


@settings(max_examples=150, deadline=None)
@given(window_values)
@example([10.0, 9.999999999999998, 9.999999999999998])  # samples an ulp apart; exact skew 0.7071
def test_oracle_equivalence(values):
    assume(len(set(values)) > 1)  # constant windows are a typed error, not a value
    got = feature_matrix([np.asarray(values)])[0]
    want = naive_features(values)
    for kind, a, b in zip(FeatureKind, got, want):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9), kind


@settings(max_examples=100, deadline=None)
@given(window_values)
def test_identities(values):
    x = np.asarray(values)
    n = x.size
    iav, mav = feat(FeatureKind.IAV, x), feat(FeatureKind.MAV, x)
    assert iav == pytest.approx(n * mav, rel=1e-12)
    ssi, rms = feat(FeatureKind.SSI, x), feat(FeatureKind.RMS, x)
    assert ssi == pytest.approx(n * rms**2, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(window_values, st.floats(min_value=-50, max_value=50))
def test_var_shift_invariance(values, shift):
    x = np.asarray(values)
    assert feat(FeatureKind.VAR, x + shift) == pytest.approx(feat(FeatureKind.VAR, x), rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(window_values)
def test_wl_zero_iff_constant(values):
    x = np.asarray(values)
    wl = feat(FeatureKind.WL, x)
    assert (wl == 0.0) == bool(np.all(x == x[0]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20),
    st.floats(min_value=-5, max_value=5),
)
def test_skew_zero_on_symmetric_windows(deltas, center):
    # symmetric multiset about `center`: pairs (c - d, c + d)
    values = [center - d for d in deltas] + [center + d for d in reversed(deltas)]
    assert feat(FeatureKind.SKEW, values) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=60))
def test_positive_window_ordering(values):
    x = np.asarray(values)
    mmav1 = feat(FeatureKind.MMAV1, x)
    mav = feat(FeatureKind.MAV, x)
    iav = feat(FeatureKind.IAV, x)
    assert mmav1 <= mav + 1e-12 <= iav + 1e-12


def test_vector_matches_individual_calls():
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, size=17)
    vec = feature_matrix([x])[0]
    assert vec.shape == (11,)
    for i, kind in enumerate(FeatureKind):
        assert vec[i] == compute_feature(kind, x)


class TestBatching:
    """feature_matrix computes each group of equal-length windows in one pass."""

    def test_ragged_batch_matches_single_windows(self):
        rng = np.random.default_rng(11)
        windows = [rng.uniform(-10, 10, size=n) for n in [2, 20, 3, 21] * 4 + [21, 2, 20, 3]]
        got = feature_matrix(windows)
        assert got.shape == (len(windows), 11)
        for row, w in zip(got, windows):
            assert (row == feature_matrix([w])[0]).all()

    def test_groups_longer_than_a_slice_match_single_windows(self, monkeypatch):
        rng = np.random.default_rng(12)
        windows = [rng.uniform(900, 1100, size=20 if i % 2 else 7) for i in range(2 * FEATURE_SLICE + 300)]
        want = np.vstack([feature_matrix([w]) for w in windows])
        stacked, feature_rows = [], features._feature_rows
        monkeypatch.setattr(features, "_feature_rows", lambda x: stacked.append(len(x)) or feature_rows(x))
        got = feature_matrix(windows)
        assert got.tobytes() == want.tobytes()
        assert sorted(stacked) == [150, 150, FEATURE_SLICE, FEATURE_SLICE]  # 1,174 windows of each length

    def test_constant_window_in_a_later_slice(self):
        rng = np.random.default_rng(13)
        windows = [rng.uniform(900, 1100, size=20) for _ in range(FEATURE_SLICE + 10)]
        windows[FEATURE_SLICE + 4] = np.full(20, 1000.0)
        with pytest.raises(DataError, match=r"^skew undefined on a constant window"):
            feature_matrix(windows)

    def test_constant_window_in_batch(self):
        windows = [np.arange(5.0), np.full(5, 7.0), np.arange(6.0)]
        with pytest.raises(DataError, match=r"^skew undefined on a constant window"):
            feature_matrix(windows)

    def test_one_sample_window_in_batch(self):
        with pytest.raises(DataError, match="^window has 1 samples, need at least 2$"):
            feature_matrix([np.arange(5.0), np.array([1.0]), np.arange(6.0)])

    def test_nan_window_is_not_constant(self):
        rows = feature_matrix([np.arange(5.0), np.array([1.0, np.nan, 1.0])])
        assert np.isnan(rows[1, FEATURE_NAMES.index("skew")])
        assert np.isfinite(rows[0]).all()


class TestScaler:
    def test_fit_examples(self):
        s = fit_scaler(np.array([[2.0], [4.0], [6.0]]))
        assert s.mins[0] == 2.0 and s.maxs[0] == 6.0
        np.testing.assert_allclose(
            apply_scaler(s, np.array([[2.0], [4.0], [6.0]])).ravel(), [0.0, 0.5, 1.0]
        )

    def test_no_clipping(self):
        s = fit_scaler(np.array([[2.0], [6.0]]))
        assert apply_scaler(s, np.array([[8.0]]))[0, 0] == pytest.approx(1.5)

    def test_constant_column_maps_to_zero(self):
        s = fit_scaler(np.array([[5.0], [5.0]]))
        assert apply_scaler(s, np.array([[9.0]]))[0, 0] == 0.0

    def test_two_columns_independent(self):
        s = fit_scaler(np.array([[0.0, 10.0], [2.0, 30.0]]))
        out = apply_scaler(s, np.array([[1.0, 20.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_empty_matrix(self):
        with pytest.raises(TooFewRows, match="empty matrix"):
            fit_scaler(np.empty((0, 3)))

    def test_column_mismatch(self):
        s = fit_scaler(np.ones((3, 2)))
        with pytest.raises(BadArgument, match="^scaler fitted on"):
            apply_scaler(s, np.ones((3, 5)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(-100, 100, size=(rows, cols))
        m[0] += 1.0  # keep every column non-constant
        s = fit_scaler(m)
        back = apply_scaler(s, m) * (s.maxs - s.mins) + s.mins
        np.testing.assert_allclose(back, m, rtol=1e-12, atol=1e-12)


def _labeled(values, shape=TaskShape.DIAMOND):
    n = values.shape[0]
    return DataMatrix(
        values=values,
        segment=np.zeros(n, dtype=int),
        direction=np.zeros(n, dtype=int),
        participant=np.array(["p"] * n, dtype=object),
        hit=np.arange(n) + 2,
        shape=shape,
    )


class TestAssembly:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.features = _labeled(rng.normal(size=(624, 11)))
        self.gaze = _labeled(rng.normal(size=(624, 24)))
        self.probs = rng.dirichlet(np.ones(4), size=624)
        self.raw = _labeled(rng.normal(size=(640, 1)))
        self.parts = {"features": self.features.values, "gaze": self.gaze.values, "probs": self.probs}

    def test_widths_match_design(self):
        widths = {"D1": 1, "D2": 11, "D3": 24, "D4": 4, "D5": 35, "D6": 15, "D7": 28, "D8": 39}
        for setup in SetupId:
            rows = self.raw if setup is SetupId.D1 else self.features
            dm = assemble_setup(setup, rows, self.parts | {"raw": self.raw.values})
            assert dm.values.shape == (640 if setup is SetupId.D1 else 624, widths[setup.value])

    def test_concatenation_order(self):
        dm = assemble_setup(SetupId.D8, self.features, self.parts)
        np.testing.assert_array_equal(dm.values[:, :11], self.features.values)
        np.testing.assert_array_equal(dm.values[:, 11:35], self.gaze.values)
        np.testing.assert_array_equal(dm.values[:, 35:], self.probs)

    def test_missing_part(self):
        with pytest.raises(BadArgument, match="^setup D6 requires missing part 'probs'$"):
            assemble_setup(SetupId.D6, self.features, {"features": self.features.values, "probs": None})
        with pytest.raises(BadArgument, match="^setup D1 requires missing part 'raw'$"):
            assemble_setup(SetupId.D1, self.raw, self.parts)

    def test_row_count_mismatch(self):
        with pytest.raises(BadArgument, match=r"^setup D5: inconsistent row counts \[100, 624\]$"):
            assemble_setup(SetupId.D5, self.features, self.parts | {"gaze": np.ones((100, 24))})

    def test_labels_carried_through(self):
        rows = replace(
            _labeled(self.features.values),
            segment=np.arange(624) % 4,
            direction=np.arange(624) % 2,
            participant=np.array([f"p{i % 16:02d}" for i in range(624)], dtype=object),
            train=np.arange(624) % 5 != 0,
        )
        for setup in SetupId:
            dm = assemble_setup(setup, rows, self.parts | {"raw": self.features.values[:, :1]})
            for column in ("segment", "direction", "participant", "hit", "train"):
                np.testing.assert_array_equal(getattr(dm, column), getattr(rows, column))
            assert dm.shape is rows.shape


@pytest.mark.parametrize("train", [
    np.ones(5, dtype=int),  # integer, not bool
    np.ones(4, dtype=bool),  # one entry short
    np.ones((5, 1), dtype=bool),  # a column, not a vector
    [True] * 5,  # a list, not an array
])
def test_a_training_mask_is_a_bool_array_with_one_entry_per_row(train):
    rows = _labeled(np.zeros((5, 11)))
    with pytest.raises(BadArgument, match="^the training mask must be a bool array of 5 entries, got "):
        replace(rows, train=train)
    assert replace(rows, train=np.arange(5) < 4).train.sum() == 4


def test_export_features_csv_header(tmp_path):
    dm = _labeled(np.random.default_rng(1).normal(size=(5, 11)))
    path = tmp_path / "features.csv"
    export_features_csv(dm, path)
    header = path.read_text().splitlines()[0]
    assert header.endswith(",".join(FEATURE_NAMES))
    assert len(path.read_text().splitlines()) == 6


@pytest.mark.parametrize("rename, order", [
    ({}, slice(None)),
    ({"p00": "p,01", "p01": 'p"02'}, slice(None)),  # ids that csv quotes
    ({}, np.random.default_rng(0).permutation(3 * 39)),  # each participant in many runs of rows
    ({}, slice(0)),  # no rows: the header alone
], ids=["three-participants", "quoted-ids", "shuffled-rows", "no-rows"])
def test_export_features_csv_writes_the_per_row_reference_bytes(tmp_path, rename, order):
    dm, _gaze = window_tables(synth_cohort(4, participants=3, shapes=(TaskShape.DIAMOND,)))
    pids = np.array([rename.get(p, p) for p in dm.participant[order]], dtype=object)
    dm = replace(dm, values=dm.values[order], segment=dm.segment[order], direction=dm.direction[order],
                 participant=pids, hit=dm.hit[order])
    export_features_csv(dm, tmp_path / "blocks.csv")
    naive_export_features_csv(dm, tmp_path / "per_row.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()


def test_a_table_cannot_change_after_it_is_checked():
    rows = replace(_labeled(np.zeros((40, 11))), train=np.arange(40) % 2 == 0)
    with pytest.raises(FrozenInstanceError):
        rows.train = np.arange(40) % 2


@pytest.mark.parametrize("column", ["segment", "direction", "participant", "hit"])
def test_a_label_column_has_one_entry_per_row(column):
    rows = _labeled(np.zeros((40, 11)))
    with pytest.raises(BadArgument, match=rf"^the {column} column must have shape \(40,\), got \(36,\)$"):
        replace(rows, **{column: getattr(rows, column)[:36]})


def test_a_list_label_column_is_stored_as_an_array():
    # a list would compare with each participant id as one value, and give empty sequences
    dm = DataMatrix(np.arange(20.0).reshape(10, 2), [0] * 10, [1] * 10, ["p0"] * 5 + ["p1"] * 5, list(range(10)),
                    TaskShape.DIAMOND, train=np.ones(10, bool))
    assert all(isinstance(getattr(dm, name), np.ndarray) for name in ("segment", "direction", "participant", "hit"))
    seqs = sequences_from_matrix(dm)
    assert [seq.x.shape for seq in seqs] == [(5, 2), (5, 2)]
    np.testing.assert_array_equal(seqs[1].x, np.arange(10.0, 20.0).reshape(5, 2))


@pytest.mark.parametrize("values", [np.zeros(10), np.zeros((10, 2, 1))], ids=["1-D", "3-D"])
def test_values_must_be_two_dimensional(values):
    shape = re.escape(str(values.shape))
    with pytest.raises(BadArgument, match=rf"^values must be a 2-D \(rows, columns\) array, got shape {shape}$"):
        _labeled(values)


def test_window_tables_compute_the_per_record_features():
    records = synth_cohort(7, participants=4, shapes=(TaskShape.CIRCLE,))
    features_dm, _gaze = window_tables(records)
    np.testing.assert_array_equal(features_dm.values, np.vstack([feature_matrix(rec.windows) for rec in records]))


def test_a_window_whose_features_overflow_is_refused():
    records = synth_cohort(7, participants=2, shapes=(TaskShape.DIAMOND,))
    windows = [w.copy() for w in records[1].windows]
    windows[4][2] = 1e300  # finite, but its square is not
    records[1] = replace(records[1], windows=windows)
    message = "participant p01, diamond, destination hit 6: feature ssi overflows"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        window_tables(records)
