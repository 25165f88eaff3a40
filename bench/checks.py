"""Output checks computed apart from the program.

Each check returns a problem string, or None when the output passes. None of
them compares against a stored copy of an earlier output: they recompute the
figure with the benchmark's own arithmetic, or test a property the method
must have.
"""

from __future__ import annotations

import numpy as np


def scores(cm) -> tuple[float, float]:
    """Accuracy (%) and macro F1 of a confusion matrix (rows true, columns predicted).

    F1 of a class is 2tp / (2tp + fp + fn), taken as 0 when the class has no
    support and no predictions.
    """
    cm = np.asarray(cm, dtype=np.int64)
    total = int(cm.sum())
    tp = np.diag(cm).astype(float)
    denom = cm.sum(axis=0) + cm.sum(axis=1)
    f1 = [2 * t / d if d else 0.0 for t, d in zip(tp, denom)]
    return 100.0 * tp.sum() / total, sum(f1) / len(f1)


def check_scores(what: str, metrics) -> str | None:
    acc, f1 = scores(metrics.confusion)
    if abs(acc - metrics.accuracy) > 1e-9 or abs(f1 - metrics.macro_f1) > 1e-12:
        return (f"{what}: reported accuracy {metrics.accuracy!r} / F1 {metrics.macro_f1!r}, "
                f"confusion gives {acc!r} / {f1!r}")
    return None


def check_total(what: str, cm, expected: int) -> str | None:
    total = int(np.asarray(cm).sum())
    if total != expected:
        return f"{what}: confusion total {total}, held-out count is {expected}"
    return None


def check_floor(what: str, accuracy: float, floor: float) -> str | None:
    if not accuracy >= floor:
        return f"{what}: accuracy {accuracy:.2f} below the floor {floor}"
    return None


def check_same(what: str, first, now) -> str | None:
    if not np.array_equal(np.asarray(first), np.asarray(now)):
        return f"{what}: confusion differs from the first run of the same cell"
    return None


def held_out(rows: int, train_fraction: float) -> int:
    """Rows on the test side of a split whose train side is floor(fraction * rows)."""
    return rows - int(train_fraction * rows)


def guess_accuracy(labels) -> float:
    """Expected accuracy (%) of guessing with the label distribution: 100 * sum p^2."""
    counts = np.bincount(np.asarray(labels))
    p = counts / counts.sum()
    return 100.0 * float(np.sum(p * p))


def knn_brute(train_x, train_y, queries, k: int) -> list[int]:
    """Brute-force KNN: neighbours ordered by distance, equal distances by lower label;
    a tied vote goes to the lower label."""
    out = []
    for q in queries:
        order = sorted(
            (sum((a - b) ** 2 for a, b in zip(row, q)), int(label)) for row, label in zip(train_x, train_y)
        )
        votes: dict[int, int] = {}
        for _d, label in order[:k]:
            votes[label] = votes.get(label, 0) + 1
        out.append(min(votes, key=lambda c: (-votes[c], c)))
    return out


def knn_matrix(seed: int):
    """A small integer-valued matrix with many equal distances, for the KNN check."""
    rng = np.random.default_rng(seed)
    train_x = rng.integers(0, 4, size=(60, 3)).astype(float)
    train_y = rng.integers(0, 4, size=60)
    queries = rng.integers(0, 4, size=(40, 3)).astype(float)
    return train_x, train_y, queries


def check_knn(predicted, expected) -> str | None:
    predicted = [int(p) for p in predicted]
    if predicted != list(expected):
        bad = sum(a != b for a, b in zip(predicted, expected))
        return f"KnnModel.predict disagrees with brute-force KNN on {bad} of {len(expected)} queries"
    return None


def grad_errors(loss_fn, params: dict, analytic: dict, coords: dict, h: float = 1e-5) -> float:
    """Worst relative error of the analytic gradient against central differences.

    `coords` maps a parameter name to flat indices. The error is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    worst = 0.0
    for name, idxs in coords.items():
        for idx in idxs:
            work = params[name].copy()
            flat = work.reshape(-1)
            orig = flat[idx]
            flat[idx] = orig + h
            plus = loss_fn({**params, name: work})
            flat[idx] = orig - h
            minus = loss_fn({**params, name: work})
            numeric = (plus - minus) / (2.0 * h)
            a = analytic[name].reshape(-1)[idx]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


def check_grad(worst: float, tol: float = 1e-4) -> str | None:
    if not worst <= tol:
        return f"LSTM gradient: worst relative error {worst:.2e} above {tol:.0e}"
    return None
