"""meritfed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a meritfed source checkout; the package is imported
from `src/` of that checkout, so there is nothing to build. `--workload all`
runs every workload in turn, each for S seconds.

Each workload is one preset run with one seed (`--seed`) at a fixed round cap.
The benchmark is a closed loop: it starts one fresh process at a time, with
`--workers 1` and the BLAS thread pool pinned to one thread, and starts the
next only after the previous one has exited. It keeps going until `--seconds`
would be exceeded (at least three runs) and reports medians.

With `--trace 0` each iteration starts a set-up probe (perfbench/probe.py), a
calibration process (perfbench/calibrate.py) and a full
`python3 -m meritfed.cli run`, and reports the end-to-end metrics:

  run_s         wall time of one complete run in a fresh process
  setup_s       process start until round 0 can begin (probe process)
  rounds_per_s  rounds / (run_s - setup_s)
  peak_rss_mb   peak resident memory of the run's process

The speed of a shared machine drifts by tens of percent over minutes, and the
run and the probe drift together. So each run and probe time is divided by the
calibration time measured next to it, and the median of those ratios is
multiplied by the calibration's reference time in perfbench/reference.json:
run_s and setup_s are seconds at the reference calibration speed. The calibration
runs no meritfed code, so a change to the program cannot move it. The raw
medians are printed too and kept in the result file.

With `--trace 1` it alternates an untraced run with a traced one
(perfbench/tracer.py wraps every public function of each module) and reports
the per-layer metrics of the traced runs, as raw medians per run, plus
`trace.overhead_ratio`, the median of traced / untraced wall time over adjacent
pairs, minus one. A layer that a workload never calls reports 0.

Every run's output is checked (perfbench/outcheck.py); all runs of a set must
produce identical bytes, the traced run included, and at the reference seed
the bytes must match perfbench/reference.json. `fail_ratio` is failed runs
over attempted runs; a set-up probe that fails counts as a failed run, and a
set whose first three attempts all fail stops early. The result is printed
either way. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics` (empty for a workload on which
no run passed); the exit code is 1 if any run failed. The full result, with the
environment stamp, is written to .perfbench_out/, and the spans of the last
traced run to .perfbench_out/spans-<workload>.csv.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import outcheck
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
MIN_RUNS = 3
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# Each workload is a preset at a round cap. The caps size one run at about
# 1.5-2.5 s on a 2-core Xeon, so a 40 s measurement holds 14-20 iterations.
# Why each workload exists is in BENCHMARK.json.
ROUNDS = {"mean-mu-0.1": 60, "softmax-alpha-0.5": 20, "byzantine-rn": 350}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "rounds_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "streams.substream_calls": "count",
    "streams.substream_s": "s",
    "engine.honest_basis_s": "s",
    "engine.round_ms_p50": "ms",
    "engine.round_ms_p99": "ms",
    "engine.run_round_self_s": "s",
    "engine.state_metrics_s": "s",
    "engine.setup_state_s": "s",
    "tasks.generate_s": "s",
    "simplex_opt.solve_calls": "count",
    "simplex_opt.solve_s": "s",
    "simplex_opt.solve_self_s": "s",
    "simplex_opt.md_step_calls": "count",
    "simplex_opt.md_step_s": "s",
    "simplex_opt.oracle_calls_per_step": "ratio",
    "tasks.oracle_calls": "count",
    "tasks.oracle_s": "s",
    "tasks.honest_softmax_s": "s",
    "aggregators.meritfed_s": "s",
    "aggregators.fedadp_s": "s",
    "aggregators.tawt_s": "s",
    "aggregators.fedavg_s": "s",
    "aggregators.apply_update_s": "s",
    "aggregators.angle_calls": "count",
    "clients.byzantine_calls": "count",
    "clients.byzantine_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for a child; return its exit code and peak RSS in MB. Kill it if interrupted."""
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _tail(path: str) -> str:
    """The last three lines of a child's standard error, on one line."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return " | ".join(handle.read().strip().splitlines()[-3:])


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    ok: bool


class Bench:
    """One benchmark invocation: child processes, output checks and samples."""

    def __init__(self, root: str, work: str, workload: outcheck.Workload, seed: int, reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
        self.reference_hashes = reference["hashes"][workload.preset] if seed == reference["seed"] else None
        self.first_hashes: dict | None = None
        self.runs: list[Run] = []
        self.problems: list[str] = []
        self.reference_calibration_s = reference["calibration_s"]
        self.samples: dict[str, list[float]] = {
            key: []
            for key in (
                "setup_s", "run_s", "calibration_s", "setup_per_calibration", "run_per_calibration",
                "peak_rss_mb", "traced_per_plain", "round_ms",
            )
        }
        self.layers: list[dict[str, float]] = []
        self.last_spans: dict | None = None
        self.output_bytes = 0
        self.out_dir = os.path.join(work, "out")
        self.log = os.path.join(work, "stderr.log")

    def cli_args(self) -> list[str]:
        w = self.workload
        return [
            "run", "--preset", w.preset, "--seed", str(self.seed),
            "--set", "seeds=1", "--set", f"rounds={w.rounds}", "--workers", "1",
            "--out", self.out_dir,
        ]

    def ready_time(self, script: str, *args: str) -> float:
        """Seconds from starting a helper process until it prints its `ready` line."""
        cmd = [sys.executable, os.path.join(HERE, script), *args]
        with open(self.log, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE, stderr=log)
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter() - start
                proc.stdout.close()
            finally:
                code, _ = _reap(proc)
        if code != 0 or not line.startswith(b"ready"):
            raise BenchError(f"{script} failed with exit code {code}: {_tail(self.log)}")
        return ready

    def probe(self) -> float | None:
        """Seconds from starting a process until it can begin round 0.

        A probe that fails is the program's fault, so it counts as a failed run
        and returns None.
        """
        w = self.workload
        try:
            return self.ready_time("probe.py", w.preset, str(self.seed), str(w.rounds))
        except BenchError as exc:
            self.problems.append(f"set-up probe {len(self.runs) + 1}: {exc}")
            self.runs.append(Run(0.0, 0.0, False))
            return None

    def calibrate(self) -> float:
        return self.ready_time("calibrate.py")

    def run(self, traced: bool, spans_path: str = "") -> Run:
        """One complete `meritfed run`, timed from process start to exit, then checked."""
        if traced:
            label = f"traced run {len(self.runs) + 1}"
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, label, "--"]
        else:
            label = f"run {len(self.runs) + 1}"
            cmd = [sys.executable, "-m", "meritfed.cli"]
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with open(self.log, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd + self.cli_args(), env=self.env, stdout=subprocess.DEVNULL, stderr=log
            )
            code, rss = _reap(proc)
            wall = time.perf_counter() - start
        problems = self.check(code)
        self.problems.extend(f"{label}: {p}" for p in problems)
        run = Run(wall, rss, not problems)
        self.runs.append(run)
        return run

    def check(self, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {_tail(self.log)}"]
        problems = outcheck.check_outputs(self.out_dir, self.workload, self.seed)
        hashes = outcheck.file_hashes(self.out_dir)
        self.output_bytes = outcheck.output_bytes(self.out_dir)
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            problems.append("output bytes differ from the first run of this set")
        if self.reference_hashes is not None and hashes != self.reference_hashes:
            problems.append(f"output hashes at seed {self.seed} differ from perfbench/reference.json")
        return problems

    def measure(self, seconds: float, trace: bool) -> dict[str, tuple[float, int]]:
        """Closed-loop measurement; returns metric -> (value, sample count).

        The metrics are empty if no run passed. A set whose first MIN_RUNS
        attempts all failed stops early.
        """
        self.probe()  # warm-up: bytecode and file caches, not timed
        self.calibrate()
        deadline = time.perf_counter() + seconds
        iteration = 0
        while True:
            started = time.perf_counter()
            if trace:
                # Alternate which side goes first so a drift in machine speed
                # does not bias the overhead ratio.
                self.traced_pair(traced_first=iteration % 2 == 1)
            else:
                self.plain_iteration()
            iteration += 1
            elapsed = time.perf_counter() - started
            if len(self.runs) >= MIN_RUNS and (
                time.perf_counter() + elapsed > deadline or not any(r.ok for r in self.runs)
            ):
                break
        if not self.samples["run_s"] or (trace and not self.samples["traced_per_plain"]):
            return {}
        return self.traced_metrics() if trace else self.plain_metrics()

    def plain_iteration(self) -> None:
        setup = self.probe()
        if setup is None:
            return
        calibration = self.calibrate()
        self.samples["setup_s"].append(setup)
        self.samples["calibration_s"].append(calibration)
        self.samples["setup_per_calibration"].append(setup / calibration)
        run = self.run(traced=False)
        if run.ok:
            self.samples["run_s"].append(run.wall_s)
            self.samples["run_per_calibration"].append(run.wall_s / calibration)
            self.samples["peak_rss_mb"].append(run.rss_mb)

    def traced_pair(self, traced_first: bool) -> None:
        spans_path = os.path.join(self.work, "spans.pickle")
        walls = {}
        for traced in (traced_first, not traced_first):
            run = self.run(traced=traced, spans_path=spans_path)
            if run.ok:
                walls[traced] = run.wall_s
        if True in walls:
            data = tracer.load(spans_path)
            self.layers.append(tracer.layer_metrics(data["names"], data["spans"]))
            self.samples["round_ms"].extend(
                1e3 * d for d in tracer.round_durations(data["names"], data["spans"])
            )
            self.last_spans = data
        if False in walls:
            self.samples["run_s"].append(walls[False])
        if len(walls) == 2:
            self.samples["traced_per_plain"].append(walls[True] / walls[False])

    def plain_metrics(self) -> dict[str, tuple[float, int]]:
        """Times at the reference machine speed; see the module docstring."""
        s, scale = self.samples, self.reference_calibration_s
        run_s = statistics.median(s["run_per_calibration"]) * scale
        setup_s = statistics.median(s["setup_per_calibration"]) * scale
        n = len(s["run_s"])
        return {
            "run_s": (run_s, n),
            "setup_s": (setup_s, len(s["setup_s"])),
            "rounds_per_s": (self.workload.rounds / (run_s - setup_s), n),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"]), n),
        }

    def traced_metrics(self) -> dict[str, tuple[float, int]]:
        s, n = self.samples, len(self.layers)
        metrics = {key: (statistics.median(m[key] for m in self.layers), n) for key in self.layers[0]}
        metrics["engine.round_ms_p50"] = (tracer.percentile(s["round_ms"], 50), len(s["round_ms"]))
        metrics["engine.round_ms_p99"] = (tracer.percentile(s["round_ms"], 99), len(s["round_ms"]))
        metrics["cli.output_bytes"] = (self.output_bytes, 1)
        pairs = s["traced_per_plain"]
        metrics["trace.overhead_ratio"] = (statistics.median(pairs) - 1.0, len(pairs))
        return {key: metrics[key] for key in PER_LAYER_UNITS}

    def write_spans(self, path: str) -> None:
        data = self.last_spans
        names = data["names"]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("run_id,span,name,start,end,parent\n")
            for index, (name_id, start, end, parent) in enumerate(data["spans"]):
                handle.write(f"{data['run_id']},{index},{names[name_id]},{start!r},{end!r},{parent}\n")


def env_stamp(root: str) -> dict:
    """Where the numbers come from; results from different stamps are not comparable."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "meritfed")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_build": blas_build,
        "blas_threads": {var: BLAS_THREADS for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _print_block(seed: int, trace: bool, metrics: dict, bench: Bench) -> None:
    w = bench.workload
    print(f"== {w.preset}: seed {seed}, {w.rounds} rounds, trace {int(trace)}")
    if not trace:
        print(f"(run_s and setup_s are seconds at the reference calibration speed, "
              f"calibration_s = {bench.reference_calibration_s} s; raw medians below)")
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for key, (value, count) in metrics.items():
        print(f"{key:36s} {value:14.6g} {units[key]:6s} n={count}")
    failed = sum(not r.ok for r in bench.runs)
    print(f"{'fail_ratio':36s} {failed / len(bench.runs):14.6g} {'ratio':6s} n={len(bench.runs)}"
          f" ({failed} failed)")
    if not trace:
        for key in ("run_s", "setup_s", "calibration_s"):
            values = bench.samples[key]
            if values:
                print(f"{'raw median ' + key:36s} {statistics.median(values):14.6g} {'s':6s} n={len(values)}")
    for problem in bench.problems:
        print(f"FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "meritfed", "cli.py")):
        print("perfbench: src/meritfed not found; run from the root of a meritfed checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    names = sorted(ROUNDS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    stamp = env_stamp(root)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    all_metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        try:
            workload = outcheck.workload(name, ROUNDS[name])
        except Exception as exc:  # the program under test cannot even give its preset
            print(f"== {name}: FAILED reading the preset from meritfed.cli: {exc!r}")
            attempted += 1
            failed += 1
            continue
        work = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(root, WORK_DIR))
        try:
            bench = Bench(root, work, workload, args.seed, reference)
            metrics = bench.measure(args.seconds, trace)
            if trace and metrics:
                bench.write_spans(os.path.join(root, OUT_DIR, f"spans-{name}.csv"))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        _print_block(args.seed, trace, metrics, bench)
        failed_here = sum(not r.ok for r in bench.runs)
        attempted += len(bench.runs)
        failed += failed_here
        all_metrics[name] = metrics
        result = {
            "workload": name, "seed": args.seed, "trace": args.trace, "rounds": workload.rounds,
            "attempted": len(bench.runs), "failed": failed_here,
            "problems": bench.problems, "env": stamp,
            "metrics": {k: {"value": v, "samples": n} for k, (v, n) in metrics.items()},
            "samples": {k: v for k, v in bench.samples.items() if v and k != "round_ms"},
        }
        path = os.path.join(root, OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
    print("env " + json.dumps(stamp, sort_keys=True))
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    flat = {
        (key if len(names) == 1 else f"{name}/{key}"): {"value": value, "unit": units[key]}
        for name, metrics in all_metrics.items()
        for key, (value, _) in metrics.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": flat}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
