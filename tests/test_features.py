import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intent_bench.dataset import TaskShape
from intent_bench.errors import (
    ColumnMismatch,
    ConstantWindow,
    DegenerateWindow,
    EmptyMatrix,
    MissingPart,
    RowCountMismatch,
)
from intent_bench.features import (
    FEATURE_NAMES,
    DataMatrix,
    FeatureKind,
    SetupId,
    apply_scaler,
    assemble_setup,
    compute_feature,
    export_features_csv,
    extract_feature_vector,
    feature_matrix,
    fit_scaler,
)

from naive_reference import naive_features

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
        with pytest.raises(DegenerateWindow):
            feat(FeatureKind.IAV, [1.0])

    def test_constant_window_skew_kurt(self):
        for kind in (FeatureKind.SKEW, FeatureKind.KURT):
            with pytest.raises(ConstantWindow) as err:
                feat(kind, [2.0, 2.0, 2.0])
            assert err.value.kind is kind

    def test_vector_propagates_tagged_error(self):
        with pytest.raises(ConstantWindow) as err:
            extract_feature_vector(np.full(5, 7.0))
        assert err.value.kind is FeatureKind.SKEW


@settings(max_examples=150, deadline=None)
@given(window_values)
@example([10.0, 9.999999999999998, 9.999999999999998])  # samples an ulp apart; exact skew 0.7071
def test_oracle_equivalence(values):
    assume(len(set(values)) > 1)  # constant windows are a typed error, not a value
    got = extract_feature_vector(np.asarray(values))
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
    vec = extract_feature_vector(x)
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
            assert (row == extract_feature_vector(w)).all()

    def test_constant_window_in_batch(self):
        windows = [np.arange(5.0), np.full(5, 7.0), np.arange(6.0)]
        with pytest.raises(ConstantWindow) as err:
            feature_matrix(windows)
        assert err.value.kind is FeatureKind.SKEW

    def test_one_sample_window_in_batch(self):
        with pytest.raises(DegenerateWindow):
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
        with pytest.raises(EmptyMatrix):
            fit_scaler(np.empty((0, 3)))

    def test_column_mismatch(self):
        s = fit_scaler(np.ones((3, 2)))
        with pytest.raises(ColumnMismatch):
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

    def test_widths_match_design(self):
        widths = {"D1": 1, "D2": 11, "D3": 24, "D4": 4, "D5": 35, "D6": 15, "D7": 28, "D8": 39}
        for setup in SetupId:
            dm = assemble_setup(
                setup, features=self.features, gaze=self.gaze, probs=self.probs, raw=self.raw
            )
            rows = 640 if setup is SetupId.D1 else 624
            assert dm.values.shape == (rows, widths[setup.value])

    def test_concatenation_order(self):
        dm = assemble_setup(SetupId.D8, features=self.features, gaze=self.gaze, probs=self.probs)
        np.testing.assert_array_equal(dm.values[:, :11], self.features.values)
        np.testing.assert_array_equal(dm.values[:, 11:35], self.gaze.values)
        np.testing.assert_array_equal(dm.values[:, 35:], self.probs)

    def test_missing_part(self):
        with pytest.raises(MissingPart) as err:
            assemble_setup(SetupId.D6, features=self.features, probs=None)
        assert err.value.part == "probs"
        with pytest.raises(MissingPart):
            assemble_setup(SetupId.D1, raw=None)

    def test_row_count_mismatch(self):
        with pytest.raises(RowCountMismatch):
            assemble_setup(SetupId.D5, features=self.features, gaze=_labeled(np.ones((100, 24))))

    def test_labels_carried_through(self):
        dm = assemble_setup(SetupId.D6, features=self.features, probs=self.probs)
        np.testing.assert_array_equal(dm.segment, self.features.segment)
        np.testing.assert_array_equal(dm.hit, self.features.hit)


def test_export_features_csv_header(tmp_path):
    dm = _labeled(np.random.default_rng(1).normal(size=(5, 11)))
    path = tmp_path / "features.csv"
    export_features_csv(dm, path)
    header = path.read_text().splitlines()[0]
    assert header.endswith(",".join(FEATURE_NAMES))
    assert len(path.read_text().splitlines()) == 6
