"""Benchmark for intent-bench: one workload per process, checked outputs, per-layer traces.

    python3 bench/run.py --workload two_step --seed 42 --seconds 20 --trace 0

Run from the repository root. The program is imported from `src/`. The run
builds the workload's inputs from the seed, runs whole rounds of operations
until `--seconds` have passed, checks every output, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones, measured with no
wrapper installed. With `--trace 1` the program's layers are wrapped and the
metrics are the per-layer ones of BENCHMARK.json, plus the tracing overhead;
the spans go to bench/out/trace-<workload>-seed<seed>.json.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3  # set-ups timed per run for setup_s: this process and two fresh ones
WORKLOADS = ("two_step", "segment_grid", "csv_features")


def pin_blas_threads() -> tuple[int, int]:
    """Fix the BLAS thread count before numpy loads; it never exceeds the usable cores."""
    cores = len(os.sched_getaffinity(0))
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, cores


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "intent_bench" / "__init__.py").is_file():
        sys.exit(f"bench: no intent_bench package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import intent_bench

    if Path(intent_bench.__file__).resolve().parent != (src / "intent_bench").resolve():
        sys.exit(f"bench: imported {intent_bench.__file__}, not the package under {src}")


def environment(threads: int, cores: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": threads, "nproc": cores, "python": sys.version.split()[0]}


def child_setup(args, workdir: Path) -> float:
    """Time one set-up in a fresh interpreter: imports plus the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(workdir)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them, each in a fresh process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.untested = True
        self.self_test_missed: list[str] = []

    def run_round(self, times: list[float]) -> None:
        for key, op in self.workload.round():
            started = time.perf_counter()
            try:
                output = op()
            except Exception:  # one failed operation must not end the run
                output = None
                traceback.print_exc()
            times.append(time.perf_counter() - started)
            problems = ["operation raised"] if output is None else self.workload.check(key, output)
            self.attempted += 1
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"FAILED {problem}", file=sys.stderr)
            if output is not None:
                status = "ok" if not problems else "FAILED"
                print(f"op {self.attempted} {times[-1]:.4f} s {status} {self.workload.describe(key, output)}")
                if self.untested and not problems:
                    self.untested = False
                    self.self_test_missed = self.workload.self_test(key, output)

    def run_for(self, seconds: float) -> list[float]:
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            self.run_round(times)
            if time.perf_counter() >= deadline:
                return times


def run_all(args) -> int:
    """Run every workload in its own fresh process; the last line sums them up."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(f"{name}: {line}" for line in lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    threads, cores = pin_blas_threads()
    import_program()
    import spans
    import workloads

    kind = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        kind(args.seed, Path(args.setup_only)).setup()
        print(json.dumps({"setup_s": time.perf_counter() - START}))
        return 0

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        workload = kind(args.seed, workdir)
        tracer = spans.Tracer(workload.ib) if args.trace else None
        if tracer:
            tracer.install()
        workload.setup()
        setup_times = [time.perf_counter() - START]
        env = environment(threads, cores)
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        runner = Runner(workload)
        if tracer:
            setup_snapshot = tracer.snapshot()
            tracer.uninstall()
            untraced = runner.run_for(0.0)
            tracer.install()
            traced = runner.run_for(args.seconds)
            tracer.uninstall()
        else:
            for i in range(SETUPS - 1):
                setup_times.append(child_setup(args, workdir / f"setup-{i}"))
            times = runner.run_for(args.seconds)
        info, problems = workload.once()
        for line in info:
            print(line)
        if runner.self_test_missed:
            problems.append(f"self-test: corrupted outputs passed the checks: {runner.self_test_missed}")
        elif runner.untested:
            problems.append("self-test: no operation passed its checks, so the checks were not self-tested")
        else:
            print("self-test: every corrupted output was caught")
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)

        if tracer:
            metrics = spans.layer_metrics(setup_snapshot, tracer.snapshot(), len(traced))
            metrics["trace.op_s"] = {"value": statistics.median(traced), "unit": "s"}
            metrics["trace.overhead_s"] = {"value": statistics.median(traced) - statistics.median(untraced),
                                           "unit": "s"}
            calls = tracer.snapshot()["calls"]
            unreached = [name for name in workload.layers if not calls.get(name)]
            for name in tracer.absent:
                print(f"trace: span {name} is absent: the program no longer has that function", file=sys.stderr)
            for name in unreached:
                print(f"trace: span {name} recorded no calls on {args.workload}", file=sys.stderr)
            OUT.mkdir(exist_ok=True)
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "env": env, "traced_ops": len(traced),
                "absent": tracer.absent, "unreached": unreached, "metrics": metrics,
                "spans": [[n, s - START, e - START, p] for n, s, e, p in tracer.spans],
            }))
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "op_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
            print("setup times: " + " ".join(f"{t:.4f}" for t in setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
