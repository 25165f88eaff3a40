import numpy as np
import pytest

from intent_bench.errors import (
    BadTarget,
    EmptyTrainingSet,
    InvalidConfig,
    NotEnoughNeighbors,
    SequenceTooShort,
    ShapeMismatch,
)
from intent_bench.dataset import TaskShape
from intent_bench.features import SetupId
from intent_bench.models import (
    BaselineKind,
    LstmConfig,
    LstmModel,
    MlpConfig,
    MlpModel,
    SequenceData,
    _batches,
    lstm_init,
    lstm_rows,
    mlp_init,
    random_guess_accuracy,
    train_baseline,
    train_lstm,
    train_mlp,
)
from intent_bench.pipeline import TrainParams, TwoStepConfig, _lstm_config, _prepare_shape, sequences_from_matrix

from naive_reference import naive_svm


def four_blobs(seed=0, rows=500, dims=24):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 4.0, size=(4, dims))
    y = rng.integers(0, 4, size=rows)
    x = centers[y] + rng.normal(0, 0.5, size=(rows, dims))
    return x, y


class TestMlp:
    def test_separable_blobs(self):
        x, y = four_blobs()
        model = train_mlp(x[:400], y[:400], MlpConfig(input_width=24, seed=0))
        acc = np.mean(model.predict(x[400:]) == y[400:])
        assert acc >= 0.95

    def test_parameter_count(self):
        x, y = four_blobs(rows=64)
        model = train_mlp(x, y, MlpConfig(input_width=24, epochs=1, seed=0))
        assert model.parameter_count() == 3812  # 24*64+64 + 64*32+32 + 32*4+4

    def test_probabilities_are_simplex(self):
        x, y = four_blobs(rows=64)
        model = train_mlp(x, y, MlpConfig(input_width=24, epochs=2, seed=1))
        probs = model.predict_proba(x)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_fresh_init_zero_input_is_uniform(self):
        cfg = MlpConfig(input_width=24, seed=3)
        model = MlpModel(params=mlp_init(np.random.default_rng(3), cfg), cfg=cfg)
        probs = model.predict_proba(np.zeros((1, 24)))
        np.testing.assert_allclose(probs, 0.25, atol=0.1)

    def test_training_point_argmax(self):
        x, y = four_blobs(rows=200)
        model = train_mlp(x, y, MlpConfig(input_width=24, seed=0))
        assert model.predict(x[:1]) == y[:1]

    def test_determinism(self):
        x, y = four_blobs(rows=96)
        m1 = train_mlp(x, y, MlpConfig(input_width=24, epochs=3, seed=9))
        m2 = train_mlp(x, y, MlpConfig(input_width=24, epochs=3, seed=9))
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name], m2.params[name])

    def test_shape_errors(self):
        x, y = four_blobs(rows=64)
        model = train_mlp(x, y, MlpConfig(input_width=24, epochs=1, seed=0))
        with pytest.raises(ShapeMismatch):
            model.predict(np.zeros((1, 7)))
        with pytest.raises(EmptyTrainingSet):
            train_mlp(np.empty((0, 24)), np.empty(0, dtype=int), MlpConfig(input_width=24))


@pytest.fixture(scope="module")
def diamond_state(cohort8):
    return _prepare_shape(cohort8, TaskShape.DIAMOND, TwoStepConfig(seed=11))


def _setup_sequences(state, setup):
    dm, train_idx, _test_idx = state.setup_matrix(setup)
    return dm, sequences_from_matrix(dm, train_idx)


class TestLstm:
    def test_window_arithmetic(self):
        seq = SequenceData(
            x=np.zeros((39, 3)), labels=np.zeros(39, dtype=int), train_mask=np.ones(39, dtype=bool)
        )
        x, y, train = lstm_rows([seq], LstmConfig(input_width=3, window_len=5))
        assert x.shape == (35, 5, 3) and y.shape == train.shape == (35,)

    def test_rows_are_windows_scored_at_their_last_step(self):
        rng = np.random.default_rng(0)
        seqs = [
            SequenceData(x=rng.normal(size=(t, 3)), labels=rng.integers(0, 2, t), train_mask=rng.random(t) < 0.5)
            for t in (7, 9)
        ]
        x, y, train = lstm_rows(seqs, LstmConfig(input_width=3, window_len=4))
        spans = [(seq, t) for seq in seqs for t in range(seq.x.shape[0] - 3)]
        assert x.shape == (len(spans), 4, 3) and x.flags.c_contiguous
        for i, (seq, t) in enumerate(spans):
            np.testing.assert_array_equal(x[i], seq.x[t : t + 4])
            assert y[i] == seq.labels[t + 3] and train[i] == seq.train_mask[t + 3]

    def test_config(self):
        with pytest.raises(TypeError):
            LstmConfig(input_width=3, mode="full")
        with pytest.raises(InvalidConfig, match="window_len"):
            LstmConfig(input_width=3, window_len=1)

    def test_sequence_too_short(self):
        seq = SequenceData(
            x=np.zeros((3, 2)), labels=np.zeros(3, dtype=int), train_mask=np.ones(3, dtype=bool)
        )
        with pytest.raises(SequenceTooShort):
            lstm_rows([seq], LstmConfig(input_width=2, window_len=5))

    def test_direction_separable_d6(self, diamond_state):
        dm, seqs = _setup_sequences(diamond_state, SetupId.D6)
        assert dm.values.shape[1] == 15
        cfg = _lstm_config(15, TrainParams(), 99)
        model = train_lstm(seqs, cfg)
        wx, wy, wtrain = lstm_rows(seqs, cfg)
        acc = np.mean(model.predict(wx[~wtrain]) == wy[~wtrain])
        assert acc >= 0.90

    def test_reversal_flips_argmax(self, diamond_state):
        _dm, seqs = _setup_sequences(diamond_state, SetupId.D2)
        cfg = _lstm_config(11, TrainParams(), 99)
        model = train_lstm(seqs, cfg)
        wx, _y, train = lstm_rows(seqs, cfg)
        held = wx[~train]
        forward = model.predict(held)
        reversed_ = model.predict(held[:, ::-1, :])
        assert np.mean(forward != reversed_) >= 0.80

    def test_probabilities_are_simplex(self, diamond_state):
        _dm, seqs = _setup_sequences(diamond_state, SetupId.D2)
        cfg = LstmConfig(input_width=11, hidden_size=8, epochs=1, seed=0)
        model = train_lstm(seqs, cfg)
        probs = model.predict_proba(seqs[0].x[None, :5])
        assert probs.shape == (1, 2)  # one distribution per window, from its last step
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        assert model.predict(seqs[0].x[None, :5]) == np.argmax(probs[0])

    def test_width_mismatch(self, diamond_state):
        _dm, seqs = _setup_sequences(diamond_state, SetupId.D2)
        model = train_lstm(seqs, LstmConfig(input_width=11, hidden_size=8, epochs=1, seed=0))
        with pytest.raises(ShapeMismatch):
            model.predict_proba(np.zeros((1, 5, 7)))

    def test_determinism(self, diamond_state):
        _dm, seqs = _setup_sequences(diamond_state, SetupId.D2)
        cfg = LstmConfig(input_width=11, hidden_size=8, epochs=2, seed=4)
        m1, m2 = train_lstm(seqs, cfg), train_lstm(seqs, cfg)
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name], m2.params[name])


def two_blobs(seed=0, rows=200):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=rows)
    x = np.where(y[:, None] == 0, -2.0, 2.0) + rng.normal(0, 0.5, size=(rows, 2))
    return x, y


class TestBaselines:
    def test_knn_self_accuracy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        model = train_baseline(BaselineKind("knn", k=1), x, y, 3)
        assert np.all(model.predict(x) == y)

    def test_knn_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 4, size=40)
        queries = rng.normal(size=(15, 3))
        base = train_baseline(BaselineKind("knn", k=5), x, y, 4).predict(queries)
        perm = rng.permutation(40)
        shuffled = train_baseline(BaselineKind("knn", k=5), x[perm], y[perm], 4).predict(queries)
        np.testing.assert_array_equal(base, shuffled)

    def test_knn_not_enough_neighbors(self):
        with pytest.raises(NotEnoughNeighbors):
            train_baseline(BaselineKind("knn", k=5), np.ones((3, 2)), np.zeros(3, dtype=int), 2)

    def test_svm_separable(self):
        x, y = two_blobs()
        model = train_baseline(BaselineKind("svm"), x[:160], y[:160], 2, seed=0)
        assert np.mean(model.predict(x[160:]) == y[160:]) >= 0.95

    @pytest.mark.parametrize("classes", [2, 4])
    @pytest.mark.parametrize("dims", [1, 35])
    @pytest.mark.parametrize("lam", [1e-3, 0.1])
    def test_svm_matches_per_class_reference(self, classes, dims, lam):
        # 70 rows in batches of 32 leave a last batch of 6
        rng = np.random.default_rng(classes * 100 + dims)
        y = np.arange(70) % classes
        x = rng.normal(0, 0.5, size=(classes, dims))[y] + rng.normal(0, 1.0, size=(70, dims))
        kind = BaselineKind("svm", lam=lam, epochs=4, batch_size=32)
        model = train_baseline(kind, x, y, classes, seed=11)
        w, b, idle = naive_svm(x, y, classes, lam, epochs=4, batch_size=32, seed=11)
        if dims == 35:  # the classes separate, so some (batch, class) steps have no margin violator
            assert idle > 0
        np.testing.assert_allclose(model.weights, w, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(model.bias, b, rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(model.predict(x), np.argmax(x @ w.T + b, axis=1))

    def test_logreg_separable(self):
        x, y = two_blobs(seed=3)
        model = train_baseline(BaselineKind("logreg"), x[:160], y[:160], 2, seed=0)
        assert np.mean(model.predict(x[160:]) == y[160:]) >= 0.95

    def test_batches_walk_one_permutation_per_epoch(self):
        x = np.arange(20.0).reshape(10, 2)
        batches = list(_batches(np.random.default_rng(3), 2, 4, x, np.arange(10)))
        assert [len(rows) for _, rows in batches] == [4, 4, 2, 4, 4, 2]
        rng = np.random.default_rng(3)
        for epoch in range(2):
            order = rng.permutation(10)
            xs, rows = zip(*batches[3 * epoch : 3 * epoch + 3])
            np.testing.assert_array_equal(np.concatenate(rows), order)
            np.testing.assert_array_equal(np.concatenate(xs), x[order])

    def test_random_guess_calibration(self):
        labels = np.tile(np.arange(4), 250)
        acc = random_guess_accuracy(labels, 4)
        assert abs(acc - 25.0) <= 1.0

    def test_random_guess_is_exact(self):
        labels = np.repeat(np.arange(4), [9, 10, 10, 10])
        exact = 100.0 * (9**2 + 3 * 10**2) / 39**2  # 25.0493...
        assert random_guess_accuracy(labels, 4) == pytest.approx(exact, rel=1e-15)
        assert random_guess_accuracy(np.full(7, 2), 3) == 100.0

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train_baseline(BaselineKind("svm"), np.empty((0, 2)), np.empty(0, dtype=int), 2)


def test_single_inputs_are_refused():
    """Predictors take batches: a lone row or a lone sequence is a ShapeMismatch, a batch of one is not."""
    x, y = four_blobs(rows=64)
    row_models = [train_mlp(x, y, MlpConfig(input_width=24, epochs=1, seed=0))]
    row_models += [train_baseline(BaselineKind(name), x, y, 4) for name in ("knn", "svm", "logreg")]
    for model in row_models:
        with pytest.raises(ShapeMismatch, match="rank 1"):
            model.predict(x[0])
        assert model.predict(x[:1]).shape == (1,)
    cfg = LstmConfig(input_width=3, hidden_size=4, window_len=5)
    lstm = LstmModel(params=lstm_init(np.random.default_rng(0), cfg), cfg=cfg)
    for sequence in (np.zeros((5, 3)), np.zeros((1, 1, 5, 3))):
        with pytest.raises(ShapeMismatch, match="rank"):
            lstm.predict_proba(sequence)
    assert lstm.predict(np.zeros((1, 5, 3))).shape == (1,)


def test_trainers_refuse_a_label_outside_the_classes():
    """Each trainer checks its labels once per fit; the loss kernel checks none."""
    x, y = four_blobs(rows=64)
    bad = y.copy()
    bad[5] = 7
    with pytest.raises(BadTarget):
        train_mlp(x, bad, MlpConfig(input_width=24, epochs=1, seed=0))
    for name in ("knn", "svm", "logreg"):
        with pytest.raises(BadTarget):
            train_baseline(BaselineKind(name), x, bad, 4)
        with pytest.raises(BadTarget):
            train_baseline(BaselineKind(name), x, np.where(y == 0, -1, y), 4)
    seq = SequenceData(x=np.zeros((9, 3)), labels=np.full(9, 2), train_mask=np.ones(9, dtype=bool))
    with pytest.raises(BadTarget):
        train_lstm([seq], LstmConfig(input_width=3, hidden_size=4, epochs=1, window_len=5))
