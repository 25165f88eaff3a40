import csv
import itertools
import json
import multiprocessing
import re
from pathlib import Path

import numpy as np
import pytest

from intent_bench import dataset, pool
from intent_bench.cli import _run_config, build_parser, load_config_file, main, resolve_config
from intent_bench.dataset import TaskShape
from intent_bench.errors import InvalidConfig
from intent_bench.features import SetupId
from intent_bench.pipeline import TrainParams

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
direction_setup = ""
"""
        )
        values = load_config_file(path)
        assert values["seed"] == 9
        assert values["out"] == "runs/x"
        assert values["data.participants"] == 4
        assert values["data.noise_std"] == 1.5
        assert values["run.direction_setup"] == ""

    def test_hash_inside_quoted_value_is_kept(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text('out = "runs/#1"  # the first run\n[run]\ndirection_setup = \'D6\'#x\n')
        values = load_config_file(path)
        assert values["out"] == "runs/#1"
        assert values["run.direction_setup"] == "D6"

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[data]\nwat = 3\n")
        with pytest.raises(InvalidConfig, match=f"^{re.escape(str(path))}:2: unknown config key 'data.wat'$"):
            load_config_file(path)

    @pytest.mark.parametrize("value", ["false", "true"])
    def test_the_two_step_key_is_refused_with_its_file_and_line(self, tmp_path, capsys, value):
        # direction_setup = "" turns the two-step result off
        path = tmp_path / "c.cfg"
        path.write_text(f"seed = 1\n[run]\ntwo_step = {value}\n")
        out = tmp_path / "o"
        assert main(["run", "--synthetic", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error[InvalidConfig]: {path}:3: unknown config key 'run.two_step'\n"
        assert not out.exists()

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
        run_cfg = _run_config(cfg)
        assert run_cfg.seed == 42
        assert run_cfg.direction_setup is SetupId.D6
        assert run_cfg.steps == "all"
        assert run_cfg.shapes == (TaskShape.DIAMOND, TaskShape.CIRCLE)
        assert run_cfg.train == TrainParams(mlp_epochs=50, lstm_epochs=50, window_len=5)

    @pytest.mark.parametrize(
        "text, key, lines",
        [
            pytest.param("seed = 1\nseed = 2\n", "seed", (1, 2), id="top-level"),
            pytest.param(
                '[data]\nparticipants = 4\n[run]\ndirection_setup = "D6"\n[data]\nparticipants = 5\n',
                "data.participants", (2, 6), id="repeated-section",
            ),
        ],
    )
    def test_a_key_given_twice_is_refused(self, tmp_path, capsys, text, key, lines):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(InvalidConfig, match=f"'{key}' is given twice, on lines {lines[0]} and {lines[1]}$"):
            load_config_file(path)
        out = tmp_path / "o"
        assert main(["run", "--synthetic", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error[InvalidConfig]: {path}: config key '{key}'")
        assert not out.exists()


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
            # a run splits each shape's participants, so a synthetic run needs two
            pytest.param(["run", "--synthetic", "--participants", "1"], id="run-flag-1"),
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
        # synth makes its data, so a data.dir that does not exist is no error
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f'[data]\ndir = "{tmp_path / "nowhere"}"\nparticipants = 2\n')
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


class TestOverflow:
    """Finite inputs whose features or scaled values leave the float range are a DataError, not inf/nan tables."""

    @staticmethod
    def _edit(data, name, edit):
        path = data / f"{name}.csv"
        rows = [row.split(",") for row in path.read_bytes().decode().split("\r\n")]
        edit(rows)
        path.write_bytes("\r\n".join(",".join(row) for row in rows).encode())

    @pytest.fixture
    def data(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--seed", "1", "--participants", "3", "--out", str(data)]) == 0
        return data

    def test_a_resistance_value_whose_features_overflow(self, tmp_path, capsys, data):
        self._edit(data, "resistance", lambda rows: rows[5].__setitem__(3, "1e300"))
        capsys.readouterr()
        message = "error[DataError]: participant p00, diamond, destination hit 2: feature ssi overflows\n"
        assert main(["features", "--data", str(data), "--out", str(tmp_path / "f")]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "f" / "features_diamond.csv").exists()
        assert main(["run", "--data", str(data), "--config", write_config(tmp_path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == message

    def test_a_gaze_column_whose_range_overflows(self, tmp_path, capsys, data):
        main(["features", "--data", str(data), "--out", str(tmp_path / "clean")])

        def edit(rows):
            for i in range(1, 41):  # g4 of p00's diamond rows, hits 1..40
                rows[i][6] = "1e308" if i % 2 else "-1e308"

        self._edit(data, "gaze", edit)
        capsys.readouterr()
        assert main(["run", "--data", str(data), "--config", write_config(tmp_path), "--out", str(tmp_path / "r")]) == 2
        err = "error[DataError]: diamond, column 3: scaling on the training range -1e+308 to 1e+308 overflows\n"
        assert capsys.readouterr().err == err
        # the feature tables hold no gaze value, so they are written as from the unedited files
        assert main(["features", "--data", str(data), "--out", str(tmp_path / "f")]) == 0
        for shape in ("diamond", "circle"):
            name = f"features_{shape}.csv"
            assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


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

    def test_each_printed_two_step_line_is_its_report_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["run", "--synthetic", "--seed", "2", "--participants", "4", "--config", write_config(tmp_path)]
        assert main(args + ["--out", str(out)]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("two-step")]
        reported = [line for line in (out / "report.txt").read_text().splitlines() if line.startswith("two-step")]
        assert printed == reported
        assert [line.split(",")[0] for line in printed] == ["two-step (diamond", "two-step (circle"]

    def test_config_hash_ignores_out(self, tmp_path):
        cfgfile = write_config(tmp_path)
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            args = ["run", "--synthetic", "--seed", "2", "--participants", "4", "--shape", "circle"]
            assert main(args + ["--config", cfgfile, "--out", str(out)]) == 0
            hashes.append(json.loads((out / "run.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1]

    def test_report_header_prints_the_run_json_config_hash(self, tmp_path):
        # two datasets that differ in one setting are two configs, in report.txt as in run.json
        headers = []
        for noise_std in (2, 5):
            cfgfile = write_config(tmp_path, f"[data]\nnoise_std = {noise_std}\n")
            out = tmp_path / f"noise{noise_std}"
            args = ["run", "--synthetic", "--seed", "2", "--participants", "4", "--grid", "segment"]
            assert main(args + ["--config", cfgfile, "--out", str(out)]) == 0
            header = (out / "report.txt").read_text().splitlines()[1]
            assert header.endswith(f"| config: {json.loads((out / 'run.json').read_text())['config_hash']}")
            headers.append(header)
        assert headers[0] != headers[1]

    def test_run_json_holds_one_config_hash(self, tmp_path):
        cfgfile = write_config(tmp_path)
        out = tmp_path / "run"
        args = ["run", "--synthetic", "--seed", "2", "--participants", "4", "--shape", "diamond", "--grid", "segment"]
        assert main(args + ["--config", cfgfile, "--out", str(out)]) == 0
        text = (out / "run.json").read_text()
        doc = json.loads(text)
        assert text.count("config_hash") == 1
        assert "grid_config_hash" not in doc and doc["two_step"]
        assert all("config_hash" not in entry for entry in doc["two_step"])
        # a run.json of an earlier version, with a grid hash and a hash per two-step entry, renders the run's hash
        written = (out / "report.txt").read_bytes()
        doc["grid_config_hash"] = "0123456789abcdef"
        for entry in doc["two_step"]:
            entry["config_hash"] = "fedcba9876543210"
        (out / "run.json").write_text(json.dumps(doc))
        (out / "report.txt").unlink()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "report.txt").read_bytes() == written

    def test_a_run_with_nothing_to_run_is_refused(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, '[run]\ndirection_setup = ""\n')
        out = tmp_path / "o"
        assert main(["run", "--synthetic", "--participants", "4", "--config", cfgfile, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error[InvalidConfig]: nothing to run: steps is empty and direction_setup is None (on the command line: "
            "request a grid with --grid or grid.steps, or name a setup in run.direction_setup)\n"
        )
        assert not out.exists()

    def test_no_direction_setup_runs_the_grid_alone(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, '[run]\ndirection_setup = ""\n')
        out = tmp_path / "run"
        args = ["run", "--synthetic", "--seed", "2", "--participants", "4", "--grid", "segment", "--config", cfgfile]
        assert main(args + ["--out", str(out)]) == 0
        assert "two-step" not in capsys.readouterr().out
        doc = json.loads((out / "run.json").read_text())
        assert doc["two_step"] == []
        assert len(doc["cells"]) == 32 and {c["step"] for c in doc["cells"]} == {"segment"}
        assert "two-step" not in (out / "report.txt").read_text()

    @pytest.mark.parametrize(
        "config_dir, flags, source",
        [
            pytest.param(True, [], "csv", id="config-dir"),
            pytest.param(True, ["--synthetic"], "synthetic", id="config-dir-and-synthetic"),
            pytest.param(False, ["--synthetic", "--data", "DIR"], "csv", id="synthetic-and-data"),
            pytest.param(False, ["--data", "DIR", "--synthetic"], "csv", id="data-and-synthetic"),
            pytest.param(False, [], "synthetic", id="neither"),
        ],
    )
    def test_a_data_dir_selects_the_csv_source(self, tmp_path, monkeypatch, config_dir, flags, source):
        # --synthetic clears a config's data.dir, and --data is applied after it
        data = tmp_path / "data"
        assert main(["synth", "--seed", "3", "--participants", "3", "--out", str(data)]) == 0
        load, read = dataset.records_from_csv_dir, []
        monkeypatch.setattr(dataset, "records_from_csv_dir", lambda d: read.append(d) or load(d))
        cfgfile = write_config(tmp_path, f'[data]\ndir = "{data}"\n' if config_dir else "")
        argv = ["run", "--participants", "3", "--shape", "diamond", "--config", cfgfile, "--out", str(tmp_path / "run")]
        assert main(argv + [str(data) if flag == "DIR" else flag for flag in flags]) == 0
        assert json.loads((tmp_path / "run" / "run.json").read_text())["data_source"] == source
        assert read == ([str(data)] if source == "csv" else [])

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
            pytest.param("[train]\nwindow_len = 40\n", True, id="window_len-above-a-task"),
            pytest.param("[train]\nlstm_epochs = 0\n", True, id="lstm_epochs"),
            pytest.param('[run]\ndirection_setup = "D9"\n', True, id="direction_setup"),
            pytest.param("[data]\namplitude_ohm = nan\n", True, id="amplitude_ohm"),
            pytest.param('[grid]\nsteps = "bogus"\n', False, id="grid_steps"),
        ],
    )
    def test_bad_setting_fails_before_any_training(self, tmp_path, capsys, setting, grid):
        # the LSTM settings are refused even when no LSTM or two-step run would read them
        cfgfile = tmp_path / "c.cfg"
        no_two_step = "" if "direction_setup" in setting else '[run]\ndirection_setup = ""\n'
        cfgfile.write_text(
            f"[train]\nmlp_epochs = 1\nlstm_epochs = 1\nlstm_hidden = 8\nbaseline_epochs = 1\n{no_two_step}{setting}"
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
        # a data.dir selects the CSV source, so there is no source key to set without one
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[data]\nsource = \"csv\"\n")
        code = main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error[InvalidConfig]: {cfgfile}:2: unknown config key 'data.source'\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_data_source(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text('[data]\nsource = "parquet"\n')
        code = main(["features", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error[InvalidConfig]: {cfgfile}:2: unknown config key 'data.source'\n"

    def test_report_without_csv(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[IoError]")

    @pytest.mark.parametrize(
        "doc, reason",
        [
            pytest.param([], "", id="list"),
            pytest.param(None, "", id="null"),
            pytest.param({"root_seed": 1, "config_hash": "x", "cells": 5, "random_guess": [], "two_step": []},
                         "", id="cells-not-a-list"),
            pytest.param({"two_step": 3}, "", id="two-step-not-a-list"),
            pytest.param({"root_seed": 1, "config_hash": "x", "cells": [ONE_CELL], "random_guess": [],
                          "two_step": []}, "missing cells", id="grid-missing-cells"),
            pytest.param({"root_seed": 1, "config_hash": "x", "cells": [ONE_CELL] * 2, "random_guess": [],
                          "two_step": []}, "listed twice", id="grid-cell-listed-twice"),
            pytest.param("directory", "Is a directory", id="run-json-a-directory"),
            pytest.param({"two_step": [dict(TWO_STEP_ENTRY, step1_confusion=[[0, 0], [0, 0]])]},
                         "square with a positive total", id="zero-confusion"),
            pytest.param({"two_step": [dict(TWO_STEP_ENTRY, step2_confusion=[[1, 0, 0], [0, 1, 0]])]},
                         "square with a positive total", id="non-square-confusion"),
            pytest.param({"two_step": [dict(TWO_STEP_ENTRY, shape="hexagon")]}, "'hexagon' is not a valid TaskShape",
                         id="unknown-two-step-shape"),
            pytest.param({"two_step": [dict(TWO_STEP_ENTRY, setup="D9")]}, "'D9' is not a valid SetupId",
                         id="unknown-two-step-setup"),
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
        cells = [[(c["step"], c["shape"], c["model"], c["setup"], c["confusion"]) for c in m["cells"]] for m in metas]
        assert len(cells[0]) == 96  # 4 x 4 segment and 4 x 8 direction cells per shape
        assert cells[0] == cells[1]

    # the ids say whether the run has a two-step result
    @pytest.mark.parametrize("direction_setup", [pytest.param("D6", id="true"), pytest.param("", id="false")])
    def test_an_error_in_the_workers_shape_exits_as_on_one_core(self, tmp_path, capsys, monkeypatch, direction_setup):
        # p01 traced the diamond only, so the circle, the shape the worker runs, has too few participants
        data = tmp_path / "data"
        main(["synth", "--seed", "1", "--participants", "2", "--out", str(data)])
        for name in ("resistance", "hits", "gaze"):
            path = data / f"{name}.csv"
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(line for line in lines if not line.startswith("p01,circle,")))
        cfgfile = write_config(tmp_path, f'[run]\ndirection_setup = "{direction_setup}"\n')
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


# --- input relations: dataset edits that must not change a run's report -------------------------------------


def _shuffled_rows(name, header, rows, rng):
    """The rows of hits.csv and gaze.csv in a random order."""
    return header, [rows[i] for i in rng.permutation(len(rows))] if name in ("hits", "gaze") else rows


def _permuted_columns(name, header, rows, rng):
    """Every file's columns reversed, except that the gaze columns g1..gG keep their order."""
    gaze = [c for c in header if re.fullmatch(r"g\d+", c)]
    kept = iter(gaze)
    order = [next(kept) if c in gaze else c for c in header[::-1]]
    pick = [header.index(c) for c in order]
    return order, [[row[i] for i in pick] for row in rows]


def _shuffled_blocks(name, header, rows, rng):
    """Each task's block of rows moved whole to a random place; participants.csv's rows shuffled."""
    if name == "participants":
        return header, [rows[i] for i in rng.permutation(len(rows))]
    blocks = [list(run) for _key, run in itertools.groupby(rows, key=lambda row: row[:2])]
    return header, [row for i in rng.permutation(len(blocks)) for row in blocks[i]]


def _renamed(name, header, rows, rng):
    """Participant p0k renamed q0k, which keeps the participants' sort order."""
    return header, [["q" + row[0][1:], *row[1:]] for row in rows]


class TestInputRelations:
    """Edits to the dataset files under which `run --grid all` writes the same report.csv, byte for byte.

    Two edits change the report by design and are not pinned: a renaming that
    reverses the participants' sort order (the split draws by row position,
    and rows are in participant order), and an offset on every resistance
    sample (amplitude features are not offset-invariant).
    """

    FILES = ("resistance", "hits", "gaze", "participants")

    @staticmethod
    def _report(root, data, out):
        assert main(["run", "--data", str(data), "--config", str(root / "quick.cfg"), "--grid", "all", "--out",
                     str(out)]) == 0
        return (out / "report.csv").read_bytes()

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("relations")
        (root / "quick.cfg").write_text(FAST_TRAIN)
        assert main(["synth", "--seed", "42", "--participants", "6", "--out", str(root / "data")]) == 0
        tables = {}
        for name in self.FILES:
            with open(root / "data" / f"{name}.csv", newline="", encoding="utf-8") as handle:
                header, *rows = csv.reader(handle)
            tables[name] = (header, rows)
        return root, tables, self._report(root, root / "data", root / "base")

    @pytest.mark.parametrize("edit", [_shuffled_rows, _permuted_columns, _shuffled_blocks, _renamed],
                             ids=["shuffled-hit-and-gaze-rows", "permuted-columns", "shuffled-blocks", "renamed"])
    def test_the_report_is_unchanged(self, base, tmp_path, edit):
        root, tables, report = base
        rng = np.random.default_rng(0)
        edited = {name: edit(name, *table, rng) for name, table in tables.items()}
        assert edited != tables
        data = tmp_path / "data"
        data.mkdir()
        for name, (header, rows) in edited.items():
            with open(data / f"{name}.csv", "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
        assert self._report(root, data, tmp_path / "out") == report
