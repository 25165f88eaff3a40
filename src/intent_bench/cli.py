"""Command-line driver: synthesize data, export features, run experiments, re-render reports.

Runs are reproducible from one root seed plus a key-value config file; every
flag overrides its config entry. Failures exit nonzero with a single
`error[Name]: message` diagnostic line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import dataset, pipeline
from .dataset import SynthConfig, TaskShape
from .errors import BadArgument, IntentBenchError, InvalidConfig, IoError
from .features import SetupId, export_features_csv
from .pipeline import GridConfig, TrainParams, TwoStepConfig
from .pool import map_tasks

# dotted config key -> (type, default)
CONFIG_KEYS = {
    "seed": (int, 0),
    "out": (str, "runs/latest"),
    "shape": (str, "both"),
    "data.source": (str, "synthetic"),
    "data.dir": (str, ""),
    "data.participants": (int, 16),
    # one data.<field> key per SynthConfig field, with its type and default
    **{f"data.{f.name}": (type(f.default), f.default) for f in fields(SynthConfig)},
    "split.train_fraction": (float, 0.8),
    "grid.steps": (str, ""),
    "run.two_step": (bool, True),
    "run.direction_setup": (str, "D6"),
    # one train.<field> key per TrainParams field, with its type and default
    **{f"train.{f.name}": (type(f.default), f.default) for f in fields(TrainParams)},
}


def _parse_value(raw: str, typ, key: str):
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise InvalidConfig(f"config key '{key}': cannot parse '{raw}' as a boolean")
    if typ is str:
        return raw.strip("\"'")
    try:
        return typ(raw)
    except ValueError:
        raise InvalidConfig(f"config key '{key}': cannot parse '{raw}' as {typ.__name__}") from None


def _strip_comment(line: str) -> str:
    """`line` up to its first `#` outside a quoted value."""
    quote = None
    for i, ch in enumerate(line):
        if quote:
            quote = None if ch == quote else quote
        elif ch in "\"'":
            quote = ch
        elif ch == "#":
            return line[:i]
    return line


def load_config_file(path) -> dict:
    """Parse the flat TOML-style `key = value` config with [section] headers."""
    values = {}
    section = ""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(line).strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            continue
        if "=" not in stripped:
            raise InvalidConfig(f"{path}:{line_no}: expected 'key = value'")
        name, raw = stripped.split("=", 1)
        key = f"{section}.{name.strip()}" if section else name.strip()
        if key not in CONFIG_KEYS:
            raise InvalidConfig(f"unknown config key '{key}'")
        values[key] = _parse_value(raw, CONFIG_KEYS[key][0], key)
    return values


def resolve_config(args) -> dict:
    cfg = {key: default for key, (_typ, default) in CONFIG_KEYS.items()}
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    overrides = {
        "seed": getattr(args, "seed", None),
        "out": getattr(args, "out", None),
        "shape": getattr(args, "shape", None),
        "data.participants": getattr(args, "participants", None),
        "grid.steps": getattr(args, "grid", None),
    }
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    if getattr(args, "synthetic", False):
        cfg["data.source"] = "synthetic"
    if getattr(args, "data", None):
        cfg["data.source"] = "csv"
        cfg["data.dir"] = args.data
    return cfg


def _shapes(cfg) -> tuple[TaskShape, ...]:
    choice = cfg["shape"]
    if choice == "both":
        return (TaskShape.DIAMOND, TaskShape.CIRCLE)
    try:
        return (TaskShape(choice),)
    except ValueError:
        raise InvalidConfig(f"unknown shape '{choice}'") from None


def _synth_config(cfg) -> SynthConfig:
    if cfg["data.participants"] < 1:
        raise InvalidConfig(f"data.participants must be at least 1, got {cfg['data.participants']}")
    return SynthConfig(**{f.name: cfg[f"data.{f.name}"] for f in fields(SynthConfig)})


def _make_out(cfg) -> None:
    """Create the output directory; called once every setting is checked, before any data is read or made."""
    try:
        Path(cfg["out"]).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {cfg['out']}: {exc}") from exc


def _load_records(cfg):
    """The records of the configured data source, read once the source is checked and the output directory made."""
    if cfg["data.source"] not in ("synthetic", "csv"):
        raise InvalidConfig(f"unknown data source '{cfg['data.source']}'")
    if cfg["data.source"] == "csv":
        if not cfg["data.dir"]:
            raise InvalidConfig("csv data source needs --data DIR (or data.dir in the config)")
        load = partial(dataset.records_from_csv_dir, cfg["data.dir"])
    else:
        load = partial(dataset.synth_cohort, cfg["seed"], cfg["data.participants"], _synth_config(cfg))
    _make_out(cfg)
    return load()


def cmd_synth(cfg) -> int:
    """Write resistance/hits/gaze/participants CSVs for a synthetic cohort."""
    synth_cfg, shapes = _synth_config(cfg), _shapes(cfg)
    _make_out(cfg)
    tasks = dataset.synth_tasks(cfg["seed"], cfg["data.participants"], synth_cfg, shapes)
    paths = dataset.write_dataset_csvs(tasks, cfg["out"])
    for name, path in sorted(paths.items()):
        print(f"wrote {name}: {path}")
    return 0


def cmd_features(cfg) -> int:
    """Export per-shape window-level feature tables from a dataset directory."""
    shapes = _shapes(cfg)
    records = _load_records(cfg)
    outdir = Path(cfg["out"])

    def export(shape) -> str:
        features_dm, _gaze = pipeline.window_tables(pipeline.records_for_shape(records, shape, least=1))
        path = outdir / f"features_{shape.value}.csv"
        export_features_csv(features_dm, path)
        return f"wrote {features_dm.n_rows}x{features_dm.values.shape[1]} features: {path}"

    # the shapes side by side; their lines are printed in shape order once both are written
    for line in map_tasks(export, shapes):
        print(line)
    return 0


def _run_configs(cfg, shapes: tuple[TaskShape, ...]) -> tuple[TwoStepConfig, GridConfig | None]:
    """The two-step config and the grid config (None without `grid.steps`) of a resolved config."""
    try:
        setup = SetupId(cfg["run.direction_setup"])
    except ValueError:
        raise InvalidConfig(f"unknown direction setup '{cfg['run.direction_setup']}'") from None
    common = dict(
        seed=cfg["seed"],
        train_fraction=cfg["split.train_fraction"],
        train=TrainParams(**{f.name: cfg[f"train.{f.name}"] for f in fields(TrainParams)}),
    )
    grid_cfg = GridConfig(steps=cfg["grid.steps"], shapes=shapes, **common) if cfg["grid.steps"] else None
    return TwoStepConfig(direction_setup=setup, **common), grid_cfg


def cmd_run(cfg) -> int:
    """Run the two-step pipeline and/or the experiment grid, then write the report."""
    shapes = _shapes(cfg)
    # the configs check every setting when built, so a bad one fails before any data is loaded
    ts_cfg, grid_cfg = _run_configs(cfg, shapes)
    records = _load_records(cfg)

    # one pass over the shapes: each is prepared once, and its two-step result read off the grid's cells
    setup = ts_cfg.direction_setup if cfg["run.two_step"] else None
    run_shape = partial(pipeline.run_shape, records, cfg=ts_cfg, steps=cfg["grid.steps"], setup=setup)
    runs = map_tasks(run_shape, shapes) if setup is not None or grid_cfg is not None else []
    two_step_results = [two_step for *_grid, two_step in runs if two_step is not None]
    for result in two_step_results:
        print(
            f"two-step {result.shape.value}: step-1 {pipeline.format_cell(result.step1)} | "
            f"step-2 {pipeline.format_cell(result.step2)} on {result.direction_setup.value}"
        )

    report = None
    notes = None
    if grid_cfg is not None:
        report = pipeline.grid_report(runs, grid_cfg)
        notes = pipeline.reference_ordering_notes(report)
        for note in notes:
            print(note)

    run_meta = {
        "root_seed": cfg["seed"],
        "config_hash": pipeline.config_hash({k: v for k, v in cfg.items() if k != "out"}),
        "data_source": cfg["data.source"],
        "shapes": [s.value for s in shapes],
    }
    pipeline.write_run_outputs(cfg["out"], report, two_step_results, run_meta, notes)
    print(f"outputs written to {cfg['out']}")
    return 0


def cmd_report(cfg) -> int:
    """Re-render report.txt from the run.json of an earlier run."""
    if not (Path(cfg["out"]) / "run.json").exists():
        raise IoError(f"no run.json in {cfg['out']}")
    try:
        # a grid table with a missing or twice-listed cell is a BadArgument of the renderer
        text = pipeline.report_text(*pipeline.read_run_outputs(cfg["out"]))
    except (KeyError, ValueError, TypeError, AttributeError, OSError, BadArgument) as exc:
        raise IoError(f"{cfg['out']} does not hold the outputs of a run of this version: {exc}") from exc
    pipeline.write_output(Path(cfg["out"]) / "report.txt", text)
    print(text)
    return 0


_FLAGS = {
    "config": dict(help="key-value config file"),
    "seed": dict(type=int, help="root seed (fallback: the config's seed, else 0)"),
    "out": dict(help="output directory"),
    "synthetic": dict(action="store_true", help="use the synthetic data source"),
    "data": dict(help="directory holding the dataset CSVs"),
    "participants": dict(type=int, help="synthetic cohort size"),
    "shape": dict(choices=["diamond", "circle", "both"], help="task shape(s)"),
    "grid": dict(choices=["segment", "direction", "all"], help="grid scope"),
}
# subcommand -> (help, the flags it reads); argparse refuses any other flag
_COMMANDS = {
    "synth": ("generate synthetic dataset CSVs", "config seed out participants shape"),
    "features": ("export window-level feature tables", "config seed out synthetic data participants shape"),
    "run": ("run the two-step pipeline and/or the grid", "config seed out synthetic data participants shape grid"),
    "report": ("re-render report.txt from run.json", "config out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intent-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        handler = {
            "synth": cmd_synth,
            "features": cmd_features,
            "run": cmd_run,
            "report": cmd_report,
        }[args.command]
        return handler(cfg)
    except IntentBenchError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
