"""Span recorder that times the program's layers from outside.

`Tracer.install` replaces public functions of intent_bench's modules with
wrappers, at the place where their callers look them up (for example
`pipeline.train_lstm`, which `run_two_step` calls through its own module
globals). Each call records a span (name, start, end, parent) in memory;
`uninstall` puts the originals back. A name that the program no longer has
is reported as absent, not raised.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _windowed_train_windows(seqs, cfg) -> int:
    if cfg.mode != "windowed":
        return sum(int(s.train_mask.sum()) for s in seqs)
    return sum(int(s.train_mask[cfg.window_len - 1 :].sum()) for s in seqs)


def targets(ib):
    """Span name -> ([(owner, attribute)], count hook). `ib` holds the program's modules.

    A count hook takes (args, kwargs, result) and returns {counter: amount}.
    """
    ds, ft, nn, md, pl, cli = ib.dataset, ib.features, ib.nn, ib.models, ib.pipeline, ib.cli
    return {
        "dataset.synth_cohort": ([(ds, "synth_cohort")], None),
        "dataset.write_csvs": ([(ds, "write_dataset_csvs")], None),
        "dataset.load_csv": ([(ds, "records_from_csv_dir")], None),
        "dataset.load_resistance_csv": (
            [(ds, "load_resistance_csv")],
            lambda a, k, r: {"dataset.csv_rows": sum(len(t.times) for t in r)},
        ),
        "features.feature_matrix": (
            [(pl, "feature_matrix"), (ft, "feature_matrix")],
            lambda a, k, r: {"features.windows": len(r)},
        ),
        "features.export_csv": ([(cli, "export_features_csv"), (ft, "export_features_csv")], None),
        "features.scaler": ([(pl, "fit_scaler"), (pl, "apply_scaler"), (ft, "fit_scaler"), (ft, "apply_scaler")], None),
        "features.assemble_setup": ([(pl, "assemble_setup"), (ft, "assemble_setup")], None),
        "nn.lstm_forward": (
            [(nn, "lstm_sequence_forward")],
            lambda a, k, r: {"nn.lstm_timesteps": a[1].shape[0] * a[1].shape[1]},
        ),
        "nn.lstm_backward": ([(nn, "lstm_sequence_backward")], None),
        "nn.adam_step": ([(nn, "adam_step")], lambda a, k, r: {"nn.adam_steps": 1}),
        "nn.softmax_ce": ([(nn, "batch_softmax_cross_entropy")], None),
        "models.train_lstm": (
            [(pl, "train_lstm"), (md, "train_lstm")],
            lambda a, k, r: {"models.lstm_train_windows": _windowed_train_windows(a[0], a[1]) * a[1].epochs},
        ),
        "models.lstm_predict": ([(md.LstmModel, "predict_proba")], None),
        "models.train_mlp": ([(pl, "train_mlp"), (md, "train_mlp")], None),
        "models.train_svm": ([(md, "train_svm")], None),
        "models.train_logreg": ([(md, "train_logreg")], None),
        "models.knn_predict": ([(md.KnnModel, "predict")], None),
        "pipeline.window_tables": ([(pl, "window_tables")], None),
        "pipeline.raw_table": ([(pl, "raw_table")], None),
        "pipeline.split": ([(pl, "split_indices")], None),
        "pipeline.evaluate": ([(pl, "evaluate")], None),
        "pipeline.run_grid": ([(pl, "run_grid")], None),
        "pipeline.run_two_step": ([(pl, "run_two_step")], None),
        "cli.features": ([(cli, "cmd_features")], None),
    }


class Tracer:
    def __init__(self, ib):
        self.targets = targets(ib)
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, start, child time]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, (places, hook) in self.targets.items():
            found = False
            for owner, attr in places:
                original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if original is None:
                    continue
                found = True
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
            if not found and name not in self.absent:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                spans[index] = (name, frame[1], end, parent)
                self.self_time[name] += duration - frame[2]
                self.total_time[name] += duration
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                for counter, amount in hook(args, kwargs, result).items():
                    self.counts[counter] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        return {
            "self_time": dict(self.self_time),
            "total_time": dict(self.total_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


# metric -> span whose self time per operation it reports
SELF_TIMES = {
    "dataset.synth_cohort_s": "dataset.synth_cohort",
    "dataset.write_csvs_s": "dataset.write_csvs",
    "dataset.load_csv_s": "dataset.load_csv",
    "dataset.load_resistance_csv_s": "dataset.load_resistance_csv",
    "features.feature_matrix_s": "features.feature_matrix",
    "features.export_csv_s": "features.export_csv",
    "features.scaler_s": "features.scaler",
    "features.assemble_setup_s": "features.assemble_setup",
    "nn.lstm_forward_s": "nn.lstm_forward",
    "nn.lstm_backward_s": "nn.lstm_backward",
    "nn.adam_step_s": "nn.adam_step",
    "nn.softmax_ce_s": "nn.softmax_ce",
    "models.train_lstm_s": "models.train_lstm",
    "models.lstm_predict_s": "models.lstm_predict",
    "models.train_mlp_s": "models.train_mlp",
    "models.train_svm_s": "models.train_svm",
    "models.train_logreg_s": "models.train_logreg",
    "models.knn_predict_s": "models.knn_predict",
    "pipeline.window_tables_self_s": "pipeline.window_tables",
    "pipeline.raw_table_s": "pipeline.raw_table",
    "pipeline.split_s": "pipeline.split",
    "pipeline.evaluate_s": "pipeline.evaluate",
    "pipeline.run_grid_self_s": "pipeline.run_grid",
    "pipeline.run_two_step_self_s": "pipeline.run_two_step",
    "cli.features_self_s": "cli.features",
}
# metric -> span whose calls per operation it reports
CALLS = {"models.train_mlp_calls": "models.train_mlp", "pipeline.evaluate_calls": "pipeline.evaluate"}
# metric -> counter summed per operation
COUNTS = {"nn.adam_steps": "nn.adam_steps", "nn.lstm_timesteps": "nn.lstm_timesteps"}
# metric -> (counter, span): counter per second of the span's inclusive time
RATES = {
    "dataset.csv_rows_per_s": ("dataset.csv_rows", "dataset.load_resistance_csv", "rows/s"),
    "features.windows_per_s": ("features.windows", "features.feature_matrix", "windows/s"),
    "models.lstm_windows_per_s": ("models.lstm_train_windows", "models.train_lstm", "windows/s"),
}


def layer_metrics(setup: dict, final: dict, ops: int) -> dict:
    """Per-layer metrics: what a set-up spent, plus what the traced operations spent per operation."""

    def per_op(kind, key):
        before = setup[kind].get(key, 0)
        return before + (final[kind].get(key, 0) - before) / ops

    metrics = {m: {"value": per_op("self_time", span), "unit": "s"} for m, span in SELF_TIMES.items()}
    metrics |= {m: {"value": per_op("calls", span), "unit": "count"} for m, span in CALLS.items()}
    metrics |= {m: {"value": per_op("counts", c), "unit": "count"} for m, c in COUNTS.items()}
    for m, (counter, span, unit) in RATES.items():
        busy = final["total_time"].get(span, 0.0)
        metrics[m] = {"value": final["counts"].get(counter, 0) / busy if busy else 0.0, "unit": unit}
    return metrics
