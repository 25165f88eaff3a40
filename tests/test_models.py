import math

import numpy as np
import pytest

from intent_bench import models, nn
from intent_bench.errors import BadArgument, InvalidConfig, TooFewRows
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
    _decay,
    lstm_init,
    lstm_loss_grad,
    lstm_rows,
    mlp_init,
    mlp_loss_grad,
    random_guess_accuracy,
    train_baseline,
    train_lstm,
    train_mlp,
)
from intent_bench.pipeline import TrainParams, TwoStepConfig, _prepare_shape, sequences_from_matrix

from naive_reference import naive_logreg, naive_svm


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
        with pytest.raises(BadArgument, match="input width 7"):
            model.predict(np.zeros((1, 7)))
        with pytest.raises(TooFewRows, match="^no training rows$"):
            train_mlp(np.empty((0, 24)), np.empty(0, dtype=int), MlpConfig(input_width=24))


@pytest.fixture(scope="module")
def diamond_state(cohort8):
    return _prepare_shape(cohort8, TaskShape.DIAMOND, TwoStepConfig(seed=11))


def _setup_sequences(state, setup):
    dm = state.setup_matrix(setup)
    return dm, sequences_from_matrix(dm)


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
        with pytest.raises(TooFewRows, match="shorter than window 5$"):
            lstm_rows([seq], LstmConfig(input_width=2, window_len=5))

    def test_direction_separable_d6(self, diamond_state):
        dm, seqs = _setup_sequences(diamond_state, SetupId.D6)
        assert dm.values.shape[1] == 15
        cfg = TrainParams().lstm(15, 99)
        model = train_lstm(seqs, cfg)
        wx, wy, wtrain = lstm_rows(seqs, cfg)
        acc = np.mean(model.predict(wx[~wtrain]) == wy[~wtrain])
        assert acc >= 0.90

    def test_reversal_flips_argmax(self, diamond_state):
        _dm, seqs = _setup_sequences(diamond_state, SetupId.D2)
        cfg = TrainParams().lstm(11, 99)
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
        with pytest.raises(BadArgument, match="input width 7"):
            model.predict_proba(np.zeros((1, 5, 7)))

    def test_determinism(self, diamond_state):
        _dm, seqs = _setup_sequences(diamond_state, SetupId.D2)
        cfg = LstmConfig(input_width=11, hidden_size=8, epochs=2, seed=4)
        m1, m2 = train_lstm(seqs, cfg), train_lstm(seqs, cfg)
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name], m2.params[name])


class TestDtype:
    """The MLP and the LSTM train in float32; every kernel keeps its input's dtype."""

    LSTM = LstmConfig(input_width=15, hidden_layers=2, hidden_size=50, window_len=5, batch_size=32)

    def _lstm_batch(self, seed, dtype):
        rng = np.random.default_rng(seed)
        params = {name: p.astype(dtype) for name, p in lstm_init(rng, self.LSTM).items()}
        return params, rng.normal(size=(32, 5, 15)).astype(dtype), rng.integers(0, 2, size=32)

    @staticmethod
    def _spy_adam(monkeypatch):
        """Record, per Adam step, the dtypes of the parameters, gradients, decay and moments, and whether a decay came."""
        seen, real_step = [], nn.adam_step

        def step(state, theta, grad, decay=None):
            real_step(state, theta, grad, decay)
            arrays = (theta, grad, state.moments) + (() if decay is None else (decay,))
            seen.append(({a.dtype for a in arrays}, decay is not None))

        monkeypatch.setattr(nn, "adam_step", step)
        return seen

    def test_the_trainers_train_in_float32(self, monkeypatch, diamond_state):
        seen = self._spy_adam(monkeypatch)
        x, y = four_blobs(rows=64)
        mlp = train_mlp(x, y, MlpConfig(input_width=24, epochs=1, seed=0))
        mlp_steps = len(seen)
        _dm, seqs = _setup_sequences(diamond_state, SetupId.D2)
        lstm = train_lstm(seqs, LstmConfig(input_width=11, hidden_size=8, epochs=1, seed=0))
        assert 0 < mlp_steps < len(seen) and all(dtypes == {np.dtype(np.float32)} for dtypes, _ in seen)
        assert [decayed for _, decayed in seen] == [False] * mlp_steps + [True] * (len(seen) - mlp_steps)
        for model, x_pred in ((mlp, x), (lstm, seqs[0].x[None, :5])):
            assert {p.dtype for p in model.params.values()} == {np.dtype(np.float32)}
            assert model.predict_proba(x_pred).dtype == np.float64
        assert x.dtype == np.float64 and seqs[0].x.dtype == np.float64  # the caller's data is not cast

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_and_adam_moments_keep_the_input_dtype(self, dtype):
        params, x, y = self._lstm_batch(0, dtype)
        _, grads = lstm_loss_grad(params, self.LSTM, x, y)
        mlp_params = {name: p.astype(dtype) for name, p in mlp_init(np.random.default_rng(0), MlpConfig(24)).items()}
        rows, labels = four_blobs(rows=32)
        _, mlp_grads = mlp_loss_grad(mlp_params, rows.astype(dtype), labels)
        for got in (grads, mlp_grads):
            assert {g.dtype for g in got.values()} == {np.dtype(dtype)}
        theta = np.concatenate([params[name].reshape(-1) for name in sorted(params)])
        grad = np.concatenate([grads[name].reshape(-1) for name in sorted(params)])
        state = nn.AdamState()
        nn.adam_step(state, theta, grad, np.full_like(theta, 0.01))
        assert theta.dtype == state.moments.dtype == dtype

    @pytest.mark.parametrize("seed", range(10))
    def test_float32_gradients_match_float64(self, seed):
        """Float32 LSTM gradients against float64 ones at the same (float32-representable) params and inputs.

        Per tensor, max|g32 - g64| / max|g64| measured at most 7.5e-7 over these seeds, about 6
        float32 ulps at 1.0 (2**-23 = 1.19e-7). The bound 1e-5 is about 84 such ulps: room for
        rounding accumulated over 5 steps and 2 layers, and far below a wrong gradient.
        """
        params, x, y = self._lstm_batch(seed, np.float32)
        _, g32 = lstm_loss_grad(params, self.LSTM, x, y)
        _, g64 = lstm_loss_grad({name: p.astype(np.float64) for name, p in params.items()}, self.LSTM,
                                x.astype(np.float64), y)
        for name, want in g64.items():
            assert np.max(np.abs(g32[name] - want)) / np.max(np.abs(want)) <= 1e-5, name


def per_tensor_adam(rng, params, cfg, loss_grad, *arrays, decay=None):
    """Mini-batch Adam written out tensor by tensor, out of place, on float32 copies of everything."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    as32 = [a.astype(np.float32) if a.dtype.kind == "f" else a for a in arrays]
    params = {name: p.astype(np.float32) for name, p in params.items()}
    decay = {name: d.astype(np.float32) for name, d in (decay or {}).items()}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    for t, batch in enumerate(_batches(rng, cfg.epochs, cfg.batch_size, *as32), start=1):
        grads = loss_grad(params, *batch)[1]
        new = {}
        for name in sorted(params):
            g = grads[name] + decay[name] * params[name] if name in decay else grads[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
            m_hat = m[name] / (1.0 - b1**t)
            v_hat = v[name] / (1.0 - b2**t)
            new[name] = params[name] - cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
        params = new
    return params


class TestAdamFit:
    """`_adam_fit` trains one flat float32 vector in place; the weights keep the per-tensor rule's bits."""

    def test_mlp_fit_gives_the_bits_of_per_tensor_adam(self):
        x, y = four_blobs(rows=70)  # batches of 32, 32 and 6
        cfg = MlpConfig(input_width=24, epochs=3, seed=4)
        model = train_mlp(x, y, cfg)
        rng = np.random.default_rng(cfg.seed)
        want = per_tensor_adam(rng, mlp_init(rng, cfg), cfg, mlp_loss_grad, x, y)
        assert sorted(model.params) == sorted(want)
        for name, w in want.items():
            np.testing.assert_array_equal(model.params[name], w, err_msg=name)

    def test_lstm_fit_with_l2_gives_the_bits_of_per_tensor_adam(self):
        rng = np.random.default_rng(8)
        seq = SequenceData(x=rng.normal(size=(44, 6)), labels=rng.integers(0, 2, size=44),
                           train_mask=np.ones(44, dtype=bool))
        cfg = LstmConfig(input_width=6, hidden_size=8, epochs=3, l2=0.05, seed=2)
        model = train_lstm([seq], cfg)
        x, y, _ = lstm_rows([seq], cfg)  # 40 windows: batches of 32 and 8
        rng = np.random.default_rng(cfg.seed)
        params = lstm_init(rng, cfg)
        decay = _decay(params, cfg)
        assert sorted(decay) == ["head_w", "lstm0_w", "lstm1_w"]
        want = per_tensor_adam(rng, params, cfg, lambda p, *batch: lstm_loss_grad(p, cfg, *batch), x, y, decay=decay)
        for name, w in want.items():
            np.testing.assert_array_equal(model.params[name], w, err_msg=name)
        # the decay reached the input columns: without it the weights differ
        rng = np.random.default_rng(cfg.seed)
        plain = per_tensor_adam(rng, lstm_init(rng, cfg), cfg, lambda p, *batch: lstm_loss_grad(p, cfg, *batch), x, y)
        assert not np.array_equal(plain["lstm0_w"], want["lstm0_w"])

    def test_the_parameters_are_views_into_one_vector(self):
        x, y = four_blobs(rows=40)
        params = train_mlp(x, y, MlpConfig(input_width=24, epochs=1, seed=0)).params
        base = params["w1"].base
        assert base is not None and base.ndim == 1 and base.dtype == np.float32
        assert all(p.base is base for p in params.values())
        assert base.size == sum(p.size for p in params.values())


def two_blobs(seed=0, rows=200):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=rows)
    x = np.where(y[:, None] == 0, -2.0, 2.0) + rng.normal(0, 0.5, size=(rows, 2))
    return x, y


@pytest.mark.parametrize("model", ["knn", "svm", "logreg", "mlp", "lstm"])
def test_a_training_label_must_be_a_whole_number(model):
    # unchecked, 0.5 matches no one-vs-rest column of the SVM, and indexes the one-hot rows of LR and the MLP
    x, y = two_blobs(rows=40)
    y = y.astype(float)
    y[7] = 0.5
    with pytest.raises(BadArgument, match="^training label 0.5 is not a whole number$"):
        if model == "mlp":
            train_mlp(x, y, MlpConfig(input_width=2, output=2, epochs=1))
        elif model == "lstm":
            seq = SequenceData(x=x, labels=y, train_mask=np.ones(40, bool))
            train_lstm([seq], LstmConfig(input_width=2, hidden_size=4, epochs=1))
        else:
            train_baseline(BaselineKind(model, epochs=1), x, y, 2)


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
        with pytest.raises(TooFewRows, match="^3 rows < k=5$"):
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
        kind = BaselineKind("svm", lam=lam, epochs=4)
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

    @pytest.mark.parametrize("classes", [2, 4])
    @pytest.mark.parametrize("dims", [1, 35])
    def test_logreg_matches_reference(self, classes, dims):
        # 70 rows in batches of 32 leave a last batch of 6
        rng = np.random.default_rng(classes * 100 + dims)
        y = np.arange(70) % classes
        x = rng.normal(0, 0.5, size=(classes, dims))[y] + rng.normal(0, 1.0, size=(70, dims))
        kind = BaselineKind("logreg", epochs=4)
        model = train_baseline(kind, x, y, classes, seed=11)
        w, b = naive_logreg(x, y, classes, kind.lr, epochs=4, batch_size=32, seed=11)
        np.testing.assert_allclose(model.weights, w, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(model.bias, b, rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(model.predict(x), np.argmax(x @ w.T + b, axis=1))

    @pytest.mark.parametrize("name", ["svm", "logreg"])
    # the ids read rows-batch size-epochs; every fit's batch size is BASELINE_BATCH, 32
    @pytest.mark.parametrize(
        "rows, epochs", [(70, 3), (64, 2), (5, 4), (33, 2)], ids=["70-32-3", "64-32-2", "5-32-4", "33-32-2"]
    )
    def test_linear_fits_walk_every_batch(self, monkeypatch, name, rows, epochs):
        """Each fit walks epochs * ceil(n / BASELINE_BATCH) batches, one permutation of all rows per epoch."""
        walked = []

        class CountingRng:
            def __init__(self, rng):
                self.rng, self.permutations = rng, 0

            def permutation(self, n):
                self.permutations += 1
                return self.rng.permutation(n)

        def spy(rng, *args):
            counting = CountingRng(rng)
            walked.append((counting, []))
            for batch in _batches(counting, *args):
                walked[-1][1].append(len(batch[0]))
                yield batch

        rng = np.random.default_rng(rows)
        y = np.arange(rows) % 3
        x = rng.normal(size=(rows, 4)) + y[:, None]
        kind = BaselineKind(name, epochs=epochs)
        plain = train_baseline(kind, x, y, 3, seed=6)
        monkeypatch.setattr(models, "_batches", spy)
        spied = train_baseline(kind, x, y, 3, seed=6)
        [(counting, sizes)] = walked
        per_epoch = math.ceil(rows / models.BASELINE_BATCH)
        assert counting.permutations == epochs
        assert len(sizes) == epochs * per_epoch
        assert all(sum(sizes[e * per_epoch : (e + 1) * per_epoch]) == rows for e in range(epochs))
        np.testing.assert_array_equal(spied.weights, plain.weights)
        np.testing.assert_array_equal(spied.bias, plain.bias)

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

    @pytest.mark.parametrize(
        "labels, error, message",
        [
            (np.array([0, 5]), BadArgument, "^label outside 0..1$"),
            (np.array([], dtype=int), TooFewRows, "^cannot take the label distribution of zero labels$"),
            (np.array([0.5, 1.0]), BadArgument, "^label 0.5 is not a whole number$"),
        ],
        ids=["outside", "empty", "fractional"],
    )
    def test_random_guess_refuses_labels_that_are_not_class_indices(self, labels, error, message):
        with pytest.raises(error, match=message):
            random_guess_accuracy(labels, 2)

    def test_empty_training_set(self):
        with pytest.raises(TooFewRows, match="^no training rows$"):
            train_baseline(BaselineKind("svm"), np.empty((0, 2)), np.empty(0, dtype=int), 2)


def test_single_inputs_are_refused():
    """Predictors take batches: a lone row or a lone sequence is a BadArgument, a batch of one is not."""
    x, y = four_blobs(rows=64)
    row_models = [train_mlp(x, y, MlpConfig(input_width=24, epochs=1, seed=0))]
    row_models += [train_baseline(BaselineKind(name), x, y, 4) for name in ("knn", "svm", "logreg")]
    for model in row_models:
        with pytest.raises(BadArgument, match="rank 1"):
            model.predict(x[0])
        assert model.predict(x[:1]).shape == (1,)
    cfg = LstmConfig(input_width=3, hidden_size=4, window_len=5)
    lstm = LstmModel(params=lstm_init(np.random.default_rng(0), cfg), cfg=cfg)
    for sequence in (np.zeros((5, 3)), np.zeros((1, 1, 5, 3))):
        with pytest.raises(BadArgument, match="rank"):
            lstm.predict_proba(sequence)
    assert lstm.predict(np.zeros((1, 5, 3))).shape == (1,)


def test_trainers_refuse_a_label_outside_the_classes():
    """Each trainer checks its labels once per fit; the loss kernel checks none."""
    x, y = four_blobs(rows=64)
    bad = y.copy()
    bad[5] = 7
    with pytest.raises(BadArgument, match="^training label outside"):
        train_mlp(x, bad, MlpConfig(input_width=24, epochs=1, seed=0))
    for name in ("knn", "svm", "logreg"):
        with pytest.raises(BadArgument, match="^training label outside"):
            train_baseline(BaselineKind(name), x, bad, 4)
        with pytest.raises(BadArgument, match="^training label outside"):
            train_baseline(BaselineKind(name), x, np.where(y == 0, -1, y), 4)
    seq = SequenceData(x=np.zeros((9, 3)), labels=np.full(9, 2), train_mask=np.ones(9, dtype=bool))
    with pytest.raises(BadArgument, match="^training label outside"):
        train_lstm([seq], LstmConfig(input_width=3, hidden_size=4, epochs=1, window_len=5))
