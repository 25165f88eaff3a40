"""Acceptance gates. Each test prints one PASS line with its measured margin.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from intent_bench import nn
from intent_bench.cli import main
from intent_bench.dataset import TaskShape
from intent_bench.features import FeatureKind, SetupId, compute_feature, feature_matrix
from intent_bench.models import (
    LstmConfig,
    lstm_init,
    lstm_loss_grad,
    mlp_loss_grad,
    random_guess_accuracy,
)
from intent_bench.pipeline import TrainParams, TwoStepConfig, _prepare_shape, fit_eval, run_two_step, split_indices

from naive_reference import naive_features


def _passline(criterion, detail):
    print(f"\ncriterion {criterion}: PASS ({detail})")


def test_criterion_1_feature_oracle_suite():
    """1000 seeded random windows match the naive reference at rel 1e-10."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        values = rng.uniform(-10.0, 10.0, size=n)
        values[values == 0.0] = 0.5  # exact zeros excluded by construction
        got = feature_matrix([values])[0]
        want = naive_features(values)
        for kind, a, b in zip(FeatureKind, got, want):
            # relative 1e-10 with a 1e-12 floor for features whose true value is ~0
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b)) + 1e-12, (kind, a, b)
            denom = max(abs(a), abs(b))
            if denom > 1e-9:
                worst = max(worst, abs(a - b) / denom)
    # weight-boundary cases from the enumeration oracle
    assert compute_feature(FeatureKind.MMAV1, np.ones(4)) == pytest.approx(0.875, rel=1e-12)
    assert compute_feature(FeatureKind.MMAV2, np.ones(4)) == pytest.approx(0.75, rel=1e-12)
    assert compute_feature(FeatureKind.MMAV2, np.ones(8)) == pytest.approx(0.625, rel=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passline(1, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_algebraic_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(2, 120))
        x = rng.uniform(-10.0, 10.0, size=n)
        x[x == 0.0] = 0.5
        iav = compute_feature(FeatureKind.IAV, x)
        mav = compute_feature(FeatureKind.MAV, x)
        assert iav == pytest.approx(n * mav, rel=1e-12)
        ssi = compute_feature(FeatureKind.SSI, x)
        rms = compute_feature(FeatureKind.RMS, x)
        assert ssi == pytest.approx(n * rms**2, rel=1e-12)
        shift = float(rng.uniform(-50, 50))
        assert compute_feature(FeatureKind.VAR, x + shift) == pytest.approx(
            compute_feature(FeatureKind.VAR, x), rel=1e-9
        )
        wl = compute_feature(FeatureKind.WL, x)
        assert (wl == 0.0) == bool(np.all(x == x[0]))
        # mean-symmetric window: SKEW == 0
        center, deltas = float(rng.uniform(-5, 5)), rng.uniform(0.1, 10.0, size=n)
        sym = np.concatenate([center - deltas, center + deltas])
        assert abs(compute_feature(FeatureKind.SKEW, sym)) <= 1e-12
    assert compute_feature(FeatureKind.WL, np.full(9, 4.2)) == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passline(2, f"{elapsed:.2f}s")


def test_criterion_3_gradient_verification():
    started = time.perf_counter()
    worst_dense = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        # mlp_init's layers at widths 5-8-6-3: a small net keeps the central differences cheap
        params = {}
        for i, (n_in, n_out) in enumerate(zip((5, 8, 6), (8, 6, 3)), start=1):
            params[f"w{i}"] = nn.glorot_uniform(rng, n_in, n_out, (n_out, n_in))
            params[f"b{i}"] = np.zeros(n_out)
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)
        worst_dense = max(worst_dense, nn.grad_check(lambda p: mlp_loss_grad(p, x, y), params, h=1e-5))
    assert worst_dense <= 1e-4

    worst_lstm = 0.0
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        cfg = LstmConfig(input_width=4, hidden_layers=1, hidden_size=6, window_len=3, seed=seed)
        params = lstm_init(rng, cfg)
        x = rng.normal(size=(4, 3, 4))
        y = rng.integers(0, 2, size=4)
        worst_lstm = max(
            worst_lstm, nn.grad_check(lambda p: lstm_loss_grad(p, cfg, x, y), params, h=1e-5)
        )
    assert worst_lstm <= 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passline(3, f"dense {worst_dense:.2e}, lstm {worst_lstm:.2e}, {elapsed:.1f}s")


def test_criterion_4_random_guess_calibration():
    started = time.perf_counter()
    # the synthetic cohort's actual label distributions
    seg_labels = np.tile(np.repeat(np.arange(4), [9, 10, 10, 10]), 16)
    dir_labels = np.tile([0, 1], 312)
    acc4 = random_guess_accuracy(seg_labels, 4)
    acc2 = random_guess_accuracy(dir_labels, 2)
    assert abs(acc4 - 25.0) <= 1.0
    assert abs(acc2 - 50.0) <= 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passline(4, f"4-class {acc4:.2f}%, 2-class {acc2:.2f}%, {elapsed:.2f}s")


def test_criterion_5_synthetic_end_to_end(cohort16):
    started = time.perf_counter()
    margins = []
    for shape in (TaskShape.DIAMOND, TaskShape.CIRCLE):
        d6 = run_two_step(cohort16, shape, TwoStepConfig(seed=42))
        d1 = run_two_step(cohort16, shape, TwoStepConfig(seed=42, direction_setup=SetupId.D1))
        assert d6.step1.accuracy >= 95.0, f"{shape}: step-1 {d6.step1.accuracy}"
        assert d6.step2.accuracy >= 90.0, f"{shape}: step-2 {d6.step2.accuracy}"
        assert d6.step2.accuracy >= d1.step2.accuracy + 20.0, (
            f"{shape}: D6 {d6.step2.accuracy} vs D1 {d1.step2.accuracy}"
        )
        margins.append(
            f"{shape.value}: step1 {d6.step1.accuracy:.1f}, D6 {d6.step2.accuracy:.1f}, D1 {d1.step2.accuracy:.1f}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _passline(5, "; ".join(margins) + f", {elapsed:.0f}s")


def test_criterion_6_reference_comparison_is_informational(tmp_path):
    """--data runs emit ordering notes against the published reference, never failing."""
    data = tmp_path / "data"
    assert main(["synth", "--seed", "3", "--participants", "4", "--out", str(data)]) == 0
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "[train]\nmlp_epochs = 3\nlstm_epochs = 3\nbaseline_epochs = 20\nlstm_hidden = 8\n"
        '[run]\ndirection_setup = ""\n'
    )
    out = tmp_path / "run"
    code = main(
        ["run", "--data", str(data), "--config", str(cfg), "--out", str(out), "--grid", "all",
         "--shape", "diamond"]
    )
    assert code == 0  # deviations are reported, not failed
    notes = (out / "reference_checks.txt").read_text().splitlines()
    checks = [line for line in notes if line.startswith(("ok:", "deviation:"))]
    assert len(checks) == 3  # NN D3>D1, best direction cell, D2-D1 gap
    _passline(6, f"{len(checks)} informational checks emitted")


def test_criterion_7_run_determinism(tmp_path):
    started = time.perf_counter()
    args = ["run", "--synthetic", "--seed", "42", "--participants", "6", "--grid", "all"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "report.csv").read_bytes()
    b2 = (out2 / "report.csv").read_bytes()
    assert b1 == b2
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _passline(7, f"report.csv byte-identical across reruns, {elapsed:.0f}s")


def test_criterion_8_chance_floor(cohort4):
    started = time.perf_counter()
    state = _prepare_shape(cohort4, TaskShape.DIAMOND, TwoStepConfig(seed=5))
    gaze = state.gaze
    d6 = state.setup_matrix(SetupId.D6)
    accs = {name: [] for name in ("NN", "KNN", "SVM", "LR", "LSTM")}
    params = TrainParams()
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        train_idx, _test_idx = split_indices(gaze.n_rows, 0.8, seed)
        mask = np.zeros(gaze.n_rows, dtype=bool)
        mask[train_idx] = True
        seg_shuffled = replace(gaze, segment=rng.permutation(gaze.segment))
        for name in ("NN", "KNN", "SVM", "LR"):
            accs[name].append(fit_eval(name, "segment", replace(seg_shuffled, train=mask), params, seed)[0].accuracy)
        dir_shuffled = replace(d6, direction=rng.permutation(d6.direction))
        accs["LSTM"].append(fit_eval("LSTM", "direction", replace(dir_shuffled, train=mask), params, seed)[0].accuracy)

    lines = []
    for name, values in accs.items():
        mean = float(np.mean(values))
        chance = 50.0 if name == "LSTM" else 25.0
        assert abs(mean - chance) <= 5.0, f"{name}: mean {mean:.2f} vs chance {chance}"
        lines.append(f"{name} {mean:.1f}")
    elapsed = time.perf_counter() - started
    _passline(8, ", ".join(lines) + f", {elapsed:.0f}s")
