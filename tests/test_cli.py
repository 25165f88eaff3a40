import json
import multiprocessing
import re
from pathlib import Path

import pytest

from intent_bench import dataset, pool
from intent_bench.cli import _run_configs, _shapes, build_parser, load_config_file, main, resolve_config
from intent_bench.dataset import TaskShape
from intent_bench.errors import InvalidConfig
from intent_bench.features import SetupId

FAST_TRAIN = """
[train]
mlp_epochs = 3
lstm_epochs = 3
baseline_epochs = 20
lstm_hidden = 8
"""


# the keys of a two-step entry of run.json that `report` reads
TWO_STEP_ENTRY = {
    "shape": "diamond",
    "setup": "D6",
    "seeds": {"root": 1},
    "config_hash": "x",
    "step1_confusion": [[1, 0], [1, 0]],
    "step2_confusion": [[1, 0], [0, 1]],
}

# one cell of run.json: a grid table holds 16 or 32
ONE_CELL = {"step": "segment", "shape": "diamond", "model": "NN", "setup": "D1", "seed": 1, "wall_time_s": 0.0,
            "confusion": [[1, 0], [0, 1]]}


def write_config(tmp_path, extra=""):
    path = tmp_path / "bench.cfg"
    path.write_text(FAST_TRAIN + extra)
    return str(path)


class TestConfig:
    def test_parse_sections_and_types(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            """
seed = 9
out = "runs/x"  # trailing comment
[data]
participants = 4
noise_std = 1.5
[run]
two_step = false
"""
        )
        values = load_config_file(path)
        assert values["seed"] == 9
        assert values["out"] == "runs/x"
        assert values["data.participants"] == 4
        assert values["data.noise_std"] == 1.5
        assert values["run.two_step"] is False

    def test_hash_inside_quoted_value_is_kept(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text('out = "runs/#1"  # the first run\n[run]\ndirection_setup = \'D6\'#x\n')
        values = load_config_file(path)
        assert values["out"] == "runs/#1"
        assert values["run.direction_setup"] == "D6"

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[data]\nwat = 3\n")
        with pytest.raises(InvalidConfig, match="data.wat"):
            load_config_file(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = banana\n")
        with pytest.raises(InvalidConfig, match="seed"):
            load_config_file(path)

    def test_seed_from_flag_then_config_then_zero(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 9\n")
        parse = build_parser().parse_args
        assert resolve_config(parse(["run", "--synthetic"]))["seed"] == 0
        assert resolve_config(parse(["run", "--synthetic", "--config", str(path)]))["seed"] == 9
        assert resolve_config(parse(["run", "--synthetic", "--config", str(path), "--seed", "5"]))["seed"] == 5

    def test_readme_example_builds_run_configs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        examples = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        assert len(examples) == 1
        path = tmp_path / "readme.cfg"
        path.write_text(examples[0])
        assert load_config_file(path)
        cfg = resolve_config(build_parser().parse_args(["run", "--config", str(path)]))
        two_step, grid = _run_configs(cfg, _shapes(cfg))
        assert two_step.seed == grid.seed == 42
        assert two_step.direction_setup is SetupId.D6
        assert grid.steps == "all"
        assert grid.shapes == (TaskShape.DIAMOND, TaskShape.CIRCLE)
        assert grid.train == two_step.train


class TestSynthCommand:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "data"
        code = main(["synth", "--seed", "1", "--participants", "2", "--out", str(out)])
        assert code == 0
        for name in ("resistance", "hits", "gaze", "participants"):
            assert (out / f"{name}.csv").exists()
        hits = (out / "hits.csv").read_text().splitlines()
        per_shape = sum(1 for line in hits[1:] if ",diamond," in line)
        assert per_shape == 80  # 2 participants x 40 hits

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--seed", "4", "--participants", "2", "--out", str(a)])
        main(["synth", "--seed", "4", "--participants", "2", "--out", str(b)])
        for name in ("resistance", "hits", "gaze", "participants"):
            assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()

    def test_shape_filter(self, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--seed", "1", "--participants", "2", "--shape", "diamond", "--out", str(out)]) == 0
        for name in ("resistance", "hits", "gaze"):
            rows = (out / f"{name}.csv").read_text().splitlines()[1:]
            assert rows and all(row.split(",")[1] == "diamond" for row in rows)
        assert len((out / "participants.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["synth", "--participants", "0"], id="synth-flag-0"),
            pytest.param(["synth", "--participants", "-1"], id="synth-flag-negative"),
            pytest.param(["synth", "--config", "{cfg}"], id="synth-config-0"),
            pytest.param(["run", "--synthetic", "--config", "{cfg}"], id="run-config-0"),
        ],
    )
    def test_no_participants_is_refused(self, tmp_path, capsys, args):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[data]\nparticipants = 0\n")
        out = tmp_path / "data"
        code = main([a.format(cfg=cfgfile) for a in args] + ["--seed", "1", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[InvalidConfig]") and "participants" in captured.err
        assert not out.exists()

    def test_the_data_source_is_not_read(self, tmp_path):
        # synth makes its data, so a csv source without a directory is no error
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text('[data]\nsource = "csv"\nparticipants = 2\n')
        assert main(["synth", "--config", str(cfgfile), "--out", str(tmp_path / "data")]) == 0
        assert (tmp_path / "data" / "resistance.csv").exists()

    def test_default_cohort_hit_rows(self, tmp_path):
        out = tmp_path / "data"
        main(["synth", "--seed", "1", "--out", str(out)])  # default 16 participants
        lines = (out / "hits.csv").read_text().splitlines()[1:]
        for shape in ("diamond", "circle"):
            assert sum(1 for line in lines if f",{shape}," in line) == 640
        directions = (out / "participants.csv").read_text().splitlines()[1:]
        assert sum(1 for line in directions if line.endswith(",ccw")) == 8


class TestFeaturesCommand:
    def test_exports_per_shape(self, tmp_path):
        data = tmp_path / "data"
        main(["synth", "--seed", "1", "--participants", "2", "--out", str(data)])
        out = tmp_path / "feats"
        code = main(["features", "--data", str(data), "--out", str(out)])
        assert code == 0
        lines = (out / "features_diamond.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 39
        assert lines[0].endswith("iav,mav,mmav1,mmav2,ssi,var,rms,wl,log,skew,kurt")
        first = (out / "features_diamond.csv").read_bytes()
        main(["features", "--data", str(data), "--out", str(out)])
        assert (out / "features_diamond.csv").read_bytes() == first

    def test_one_participant_exports_but_does_not_run(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", "--seed", "1", "--participants", "1", "--out", str(data)])
        out = tmp_path / "feats"
        assert main(["features", "--data", str(data), "--out", str(out)]) == 0
        for shape in ("diamond", "circle"):
            assert len((out / f"features_{shape}.csv").read_text().splitlines()) == 1 + 39
        capsys.readouterr()
        assert main(["run", "--data", str(data), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error[TooFewRows]")

    def test_shape_without_participants(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", "--seed", "1", "--participants", "2", "--shape", "diamond", "--out", str(data)])
        capsys.readouterr()
        code = main(["features", "--data", str(data), "--shape", "circle", "--out", str(tmp_path / "feats")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[TooFewRows]")

    def test_participant_in_one_shape_only(self, tmp_path):
        # p02 traced the diamond only: its circle rows are absent from every per-task file
        data = tmp_path / "data"
        main(["synth", "--seed", "1", "--participants", "3", "--out", str(data)])
        for name in ("resistance", "hits", "gaze"):
            path = data / f"{name}.csv"
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(line for line in lines if not line.startswith("p02,circle,")))
        out = tmp_path / "feats"
        assert main(["features", "--data", str(data), "--out", str(out)]) == 0
        for shape, participants in (("diamond", ["p00", "p01", "p02"]), ("circle", ["p00", "p01"])):
            rows = (out / f"features_{shape}.csv").read_text().splitlines()[1:]
            assert len(rows) == 39 * len(participants)
            assert sorted({row.split(",")[0] for row in rows}) == participants
        run = tmp_path / "run"
        args = ["run", "--data", str(data), "--grid", "segment", "--config", write_config(tmp_path), "--out", str(run)]
        assert main(args) == 0
        totals = {
            (c["shape"], c["setup"]): sum(map(sum, c["confusion"]))
            for c in json.loads((run / "run.json").read_text())["cells"]
        }
        # the held-out rows of each shape's own split: 117 - 93 and 78 - 62 windows, 120 - 96 and 80 - 64 hits
        assert totals[("diamond", "D2")] == 24 and totals[("circle", "D2")] == 16
        assert totals[("diamond", "D1")] == 24 and totals[("circle", "D1")] == 16

    def test_missing_data_dir(self, tmp_path, capsys):
        code = main(["features", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[IoError]")
        assert "resistance.csv" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--data", "/nonexistent"],
        ["synth", "--synthetic"],
        ["report", "--seed", "9"],
        ["report", "--participants", "3"],
        ["report", "--shape", "circle"],
        ["report", "--synthetic"],
        ["report", "--data", "/nonexistent"],
    ],
    ids=" ".join,
)
def test_a_flag_the_command_does_not_read_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["file", "under-a-file"])
@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--participants", "2"],
        ["features", "--synthetic", "--participants", "2"],
        ["run", "--synthetic", "--participants", "4", "--grid", "all"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_out_that_cannot_be_a_directory_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, where):
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    out = blocker if where == "file" else blocker / "out"

    def no_data(*args, **kwargs):
        raise AssertionError("data made or read before the output directory")

    for name in ("synth_tasks", "synth_cohort", "records_from_csv_dir"):
        monkeypatch.setattr(dataset, name, no_data)
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error[IoError]: cannot create output directory {out}")
    assert captured.out == ""
    assert blocker.read_text() == "a file\n"


class TestRunCommand:
    def test_two_step_only(self, tmp_path):
        cfgfile = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(
            ["run", "--synthetic", "--seed", "2", "--participants", "4", "--config", cfgfile, "--out", str(out)]
        )
        assert code == 0
        assert (out / "report.txt").exists()
        assert (out / "run.json").exists()
        assert not (out / "report.csv").exists()  # no grid requested

    def test_report_without_grid(self, tmp_path):
        cfgfile = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(
            ["run", "--synthetic", "--seed", "2", "--participants", "4", "--config", cfgfile, "--out", str(out)]
        )
        assert code == 0
        written = (out / "report.txt").read_bytes()
        assert b"two-step (diamond, setup D6)" in written
        (out / "report.txt").unlink()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "report.txt").read_bytes() == written

    def test_config_hash_ignores_out(self, tmp_path):
        cfgfile = write_config(tmp_path)
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            args = ["run", "--synthetic", "--seed", "2", "--participants", "4", "--shape", "circle"]
            assert main(args + ["--config", cfgfile, "--out", str(out)]) == 0
            hashes.append(json.loads((out / "run.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1]

    def test_grid_and_report_roundtrip(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(
            [
                "run", "--synthetic", "--seed", "2", "--participants", "4",
                "--config", cfgfile, "--out", str(out), "--grid", "segment",
            ]
        )
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "step,shape,model,setup,accuracy,f1,best"
        cells = [line for line in lines[1:] if ",RANDOM," not in line]
        assert len(cells) == 32  # 4 models x 4 setups x 2 shapes
        written = (out / "report.txt").read_bytes()
        assert b"== two-step pipeline ==" in written
        (out / "report.txt").unlink()
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        assert "segment prediction - diamond" in capsys.readouterr().out
        assert (out / "report.txt").read_bytes() == written

    def test_bad_config_key_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\nstepz = all\n")
        code = main(["run", "--synthetic", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[InvalidConfig]")
        assert "grid.stepz" in err

    @pytest.mark.parametrize(
        "line",
        [
            "mlp_batch = 0",
            "lstm_layers = 0",
            "lstm_hidden = 0",
            "lstm_batch = -1",
            "mlp_epochs = -1",
            "mlp_lr = 0",
            "lstm_lr = -0.001",
            "lstm_l2 = -5",
            "svm_lambda = nan",
            "svm_lambda = inf",
            "logreg_lr = nan",
            "mlp_lr = inf",
            "lstm_l2 = inf",
        ],
    )
    def test_out_of_range_train_value_exits_nonzero(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            f"[train]\nmlp_epochs = 1\nlstm_epochs = 1\nlstm_hidden = 8\nbaseline_epochs = 1\n{line}\n"
        )
        # every value is checked when the configs are built, before the two-step run trains anything
        args = ["run", "--synthetic", "--seed", "1", "--participants", "4", "--shape", "diamond", "--grid", "segment"]
        code = main(args + ["--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[InvalidConfig]")
        assert "two-step" not in captured.out

    @pytest.mark.parametrize(
        "setting, grid",
        [
            pytest.param("[train]\nwindow_len = 1\n", True, id="window_len"),
            pytest.param("[train]\nlstm_epochs = 0\n", True, id="lstm_epochs"),
            pytest.param('[run]\ndirection_setup = "D9"\n', True, id="direction_setup"),
            pytest.param("[data]\namplitude_ohm = nan\n", True, id="amplitude_ohm"),
            pytest.param('[run]\ntwo_step = true\n[grid]\nsteps = "bogus"\n', False, id="grid_steps"),
        ],
    )
    def test_bad_setting_fails_before_any_training(self, tmp_path, capsys, setting, grid):
        # the LSTM and direction settings are refused even when no LSTM or two-step run would read them
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "[train]\nmlp_epochs = 1\nlstm_epochs = 1\nlstm_hidden = 8\nbaseline_epochs = 1\n"
            f"[run]\ntwo_step = false\n{setting}"
        )
        out = tmp_path / "o"
        args = ["run", "--synthetic", "--seed", "1", "--participants", "4", "--shape", "diamond"]
        code = main(args + (["--grid", "segment"] if grid else []) + ["--config", str(cfgfile), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[InvalidConfig]")
        assert "two-step" not in captured.out
        assert not out.exists()

    def test_csv_source_without_dir(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[data]\nsource = \"csv\"\n")
        code = main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error[InvalidConfig]" in capsys.readouterr().err

    def test_unknown_data_source(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text('[data]\nsource = "parquet"\n')
        code = main(["features", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown data source 'parquet'" in capsys.readouterr().err

    def test_report_without_csv(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[IoError]")

    @pytest.mark.parametrize(
        "doc, reason",
        [
            pytest.param([], "", id="list"),
            pytest.param(None, "", id="null"),
            pytest.param({"root_seed": 1, "grid_config_hash": "x", "cells": 5, "random_guess": [], "two_step": []},
                         "", id="cells-not-a-list"),
            pytest.param({"two_step": 3}, "", id="two-step-not-a-list"),
            pytest.param({"root_seed": 1, "grid_config_hash": "x", "cells": [ONE_CELL], "random_guess": [],
                          "two_step": []}, "missing cells", id="grid-missing-cells"),
            pytest.param({"root_seed": 1, "grid_config_hash": "x", "cells": [ONE_CELL] * 2, "random_guess": [],
                          "two_step": []}, "listed twice", id="grid-cell-listed-twice"),
            pytest.param("directory", "Is a directory", id="run-json-a-directory"),
            pytest.param({"two_step": [dict(TWO_STEP_ENTRY, step1_confusion=[[0, 0], [0, 0]])]},
                         "square with a positive total", id="zero-confusion"),
            pytest.param({"two_step": [dict(TWO_STEP_ENTRY, step2_confusion=[[1, 0, 0], [0, 1, 0]])]},
                         "square with a positive total", id="non-square-confusion"),
        ],
    )
    def test_report_on_a_malformed_run_json(self, tmp_path, capsys, doc, reason):
        if doc == "directory":
            (tmp_path / "run.json").mkdir()
        else:
            (tmp_path / "run.json").write_text(json.dumps(doc))
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[IoError]") and reason in err
        assert not (tmp_path / "report.txt").exists()
        if isinstance(doc, dict) and "square" in reason:
            # the same entry with a well-formed confusion renders
            (tmp_path / "run.json").write_text(json.dumps({"two_step": [TWO_STEP_ENTRY]}))
            assert main(["report", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", ["report", "run"])
def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys, command):
    out = tmp_path / "run"
    (out / "report.txt").mkdir(parents=True)
    if command == "report":
        (out / "run.json").write_text(json.dumps({"two_step": [TWO_STEP_ENTRY]}))
        argv = ["report"]
    else:
        argv = ["run", "--synthetic", "--participants", "4", "--shape", "diamond", "--config", write_config(tmp_path)]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error[IoError]: cannot write {out / 'report.txt'}: ")


@pytest.mark.parametrize(
    "argv, blocked",
    [(["synth", "--participants", "2"], "hits.csv"), (["features", "--synthetic", "--participants", "2"], "features_diamond.csv")],
    ids=["synth", "features"],
)
def test_a_data_file_that_cannot_be_written_exits_2(tmp_path, capsys, argv, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error[IoError]: cannot write {out / blocked}: ")


class TestShapesSideBySide:
    """`run` and `features` on one usable core (serial) and on two (the second shape in a forked worker)."""

    def test_one_core_and_two_write_the_same_outputs(self, tmp_path, monkeypatch):
        for cores in (1, 2):
            monkeypatch.setattr(pool, "usable_cores", lambda: cores)
            args = ["run", "--synthetic", "--seed", "2", "--participants", "4", "--grid", "all"]
            assert main(args + ["--out", str(tmp_path / f"c{cores}")]) == 0
        one, two = tmp_path / "c1", tmp_path / "c2"
        for name in ("report.csv", "report.txt", "reference_checks.txt"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        metas = [json.loads((out / "run.json").read_text()) for out in (one, two)]
        assert metas[0]["config_hash"] == metas[1]["config_hash"]
        assert metas[0]["grid_config_hash"] == metas[1]["grid_config_hash"]
        cells = [[(c["step"], c["shape"], c["model"], c["setup"], c["confusion"]) for c in m["cells"]] for m in metas]
        assert len(cells[0]) == 96  # 4 x 4 segment and 4 x 8 direction cells per shape
        assert cells[0] == cells[1]

    @pytest.mark.parametrize("two_step", ["true", "false"])
    def test_an_error_in_the_workers_shape_exits_as_on_one_core(self, tmp_path, capsys, monkeypatch, two_step):
        # p01 traced the diamond only, so the circle, the shape the worker runs, has too few participants
        data = tmp_path / "data"
        main(["synth", "--seed", "1", "--participants", "2", "--out", str(data)])
        for name in ("resistance", "hits", "gaze"):
            path = data / f"{name}.csv"
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(line for line in lines if not line.startswith("p01,circle,")))
        cfgfile = write_config(tmp_path, f"[run]\ntwo_step = {two_step}\n")
        errs = []
        for cores in (1, 2):
            monkeypatch.setattr(pool, "usable_cores", lambda: cores)
            capsys.readouterr()
            args = ["run", "--data", str(data), "--grid", "segment", "--config", cfgfile]
            assert main(args + ["--out", str(tmp_path / f"c{cores}")]) == 2
            errs.append(capsys.readouterr().err)
        assert errs == ["error[TooFewRows]: need at least 2 participant(s) for shape circle, got 1\n"] * 2

    def test_features_on_one_core_and_two_write_the_same_bytes(self, tmp_path, capsys, cores):
        data, out = tmp_path / "data", tmp_path / "feats"
        main(["synth", "--seed", "4", "--participants", "3", "--out", str(data)])
        written = []
        for n in (1, 2):
            cores(n)
            capsys.readouterr()
            assert main(["features", "--data", str(data), "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            files = [(out / f"features_{shape}.csv").read_bytes() for shape in ("diamond", "circle")]
            written.append((files, capsys.readouterr().out))
        assert written[0] == written[1]
        assert written[0][1] == "".join(
            f"wrote 117x11 features: {out / f'features_{shape}.csv'}\n" for shape in ("diamond", "circle")
        )

    def test_an_error_in_the_workers_features_shape_exits_as_on_one_core(self, tmp_path, capsys, cores):
        # every resistance sample of p00's circle trace reads the same, so each of its windows is constant
        data = tmp_path / "data"
        main(["synth", "--seed", "4", "--participants", "2", "--out", str(data)])
        path = data / "resistance.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(
            line.rsplit(",", 1)[0] + ",1000.0\r\n" if line.startswith("p00,circle,") else line for line in lines
        ))
        errs = []
        for n in (1, 2):
            cores(n)
            capsys.readouterr()
            assert main(["features", "--data", str(data), "--out", str(tmp_path / f"c{n}")]) == 2
            assert multiprocessing.active_children() == []
            errs.append(capsys.readouterr().err)
        assert errs == ["error[DataError]: skew undefined on a constant window (zero second moment)\n"] * 2
