"""Wall time and teardown time of fresh `python -m meritfed.cli run` processes.

    python3 scripts/process_phases.py PRESET ROUNDS [PARENT_CHECKOUT]

Ten fresh processes per checkout, alternating, each a one-seed `run` of PRESET at ROUNDS rounds with
`--workers 1`. Each process runs the CLI module through `runpy` as `__main__`, so its real entry block runs,
after registering an `atexit` handler that stamps the monotonic clock. Wall time runs from starting the
process to `wait4` returning; teardown runs from the stamp to `wait4`, which is what the interpreter does
after the last `atexit` handler: finalization, module teardown and process exit. The table gives the median
of each over the processes, in ms. BLAS runs on one thread unless the environment says otherwise.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROCESSES = 10

# The child: stamp the clock at exit, then run the CLI module as __main__ with the given arguments.
CHILD = """
import atexit, runpy, sys, time
stamp_path = sys.argv[1]
def stamp(clock=time.monotonic):
    now = clock()
    with open(stamp_path, "w") as handle:
        handle.write(repr(now))
atexit.register(stamp)  # registered first, so it runs last
sys.argv = ["meritfed", *sys.argv[2:]]
runpy.run_module("meritfed.cli", run_name="__main__", alter_sys=True)
"""


def one_process(src: str, preset: str, rounds: str, work: str) -> tuple[float, float]:
    """Run one CLI process from checkout src/; return its wall and teardown seconds."""
    stamp_path, out_dir, log_path = (os.path.join(work, name) for name in ("stamp", "out", "stderr.log"))
    cli_args = ["run", "--preset", preset, "--set", "seeds=1", "--set", f"rounds={rounds}", "--workers", "1"]
    command = [sys.executable, "-c", CHILD, stamp_path, *cli_args, "--out", out_dir]
    env = dict(os.environ, PYTHONPATH=src)
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=log)
        _, status, _ = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as log:
            raise SystemExit(f"{src}: exit code {proc.returncode}: {log.read()}")
    with open(stamp_path, encoding="utf-8") as handle:
        stamp = float(handle.read())
    return end - start, end - stamp


def main(argv: list[str]) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    preset, rounds, *parent = argv
    sides = {"parent": parent[0], "change": ROOT} if parent else {"this checkout": ROOT}
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as work:
        for i in range(PROCESSES):
            for side in sorted(sides, reverse=i % 2 == 1):
                runs[side].append(one_process(os.path.join(sides[side], "src"), preset, rounds, work))
    print(f"| {preset}, {rounds} rounds (ms) | {' | '.join(sides)} |\n| --- |{' --- |' * len(sides)}")
    for index, name in enumerate(("wall", "teardown")):
        medians = [1e3 * statistics.median(run[index] for run in runs[s]) for s in sides]
        print(f"| {name} | " + " | ".join(f"{m:.1f}" for m in medians) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
