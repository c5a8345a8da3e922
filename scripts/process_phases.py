"""Wall time, teardown time and peak RSS of fresh `python -m meritfed.cli run` processes.

    python3 scripts/process_phases.py PRESET ROUNDS [PARENT_CHECKOUT] [--set KEY=VALUE ...]

Ten fresh processes per checkout, alternating, each a one-seed `run` of PRESET at ROUNDS rounds with
`--workers 1`, followed by the given `--set` items, which override those two (`--set seeds=3` measures
three seeds in one process). Each process runs the CLI module through `runpy` as `__main__`, so its real
entry block runs, after registering an `atexit` handler that stamps the monotonic clock. Wall time runs
from starting the process to `wait4` returning; teardown runs from the stamp to `wait4`, which is what the
interpreter does after the last `atexit` handler: finalization, module teardown and process exit. Peak
RSS is the `ru_maxrss` that `wait4` returns, in MB of 2^20 bytes as perfbench reports it. The table gives
the median of each over the processes. Exits 1 unless every run wrote the same four output files, byte
for byte. BLAS runs on one thread unless the environment says otherwise.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROCESSES = 10
# cli.OUTPUT_FILES, restated: importing meritfed would import numpy into this launcher, whose peak RSS
# each child's ru_maxrss starts from.
FILES = ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json")

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


def one_process(src: str, cli_args: list[str], work: str) -> tuple[float, float, float, list[str]]:
    """Run one CLI process from checkout src/.

    Returns its wall and teardown seconds, its peak RSS in MB and the sha256
    digests of its four output files. The files are hashed in chunks and
    only digests are kept: a child's ru_maxrss starts from this process's
    own peak, so reading or holding whole output files here would inflate
    the later runs' peaks.
    """
    stamp_path, out_dir, log_path = (os.path.join(work, name) for name in ("stamp", "out", "stderr.log"))
    command = [sys.executable, "-c", CHILD, stamp_path, *cli_args, "--out", out_dir]
    env = dict(os.environ, PYTHONPATH=src)
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as log:
            raise SystemExit(f"{src}: exit code {proc.returncode}: {log.read()}")
    with open(stamp_path, encoding="utf-8") as handle:
        stamp = float(handle.read())
    digests = []
    for name in FILES:
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests.append(hashlib.file_digest(handle, "sha256").hexdigest())
    return end - start, end - stamp, usage.ru_maxrss / 1024.0, digests


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Wall, teardown and peak RSS of meritfed runs per checkout.")
    parser.add_argument("preset")
    parser.add_argument("rounds")
    parser.add_argument("parent", nargs="?", help="a parent checkout to alternate with")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    cli_args = ["run", "--preset", args.preset, "--set", "seeds=1", "--set", f"rounds={args.rounds}"]
    cli_args += [arg for item in args.overrides for arg in ("--set", item)] + ["--workers", "1"]
    sides = {"parent": args.parent, "change": ROOT} if args.parent else {"this checkout": ROOT}
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as work:
        for i in range(PROCESSES):
            for side in sorted(sides, reverse=i % 2 == 1):
                runs[side].append(one_process(os.path.join(sides[side], "src"), cli_args, work))
    print(f"| {args.preset}, {args.rounds} rounds | {' | '.join(sides)} |\n| --- |{' --- |' * len(sides)}")
    columns = (("wall (ms)", 1e3, ".1f"), ("teardown (ms)", 1e3, ".1f"), ("peak RSS (MB)", 1.0, ".2f"))
    for index, (name, scale, spec) in enumerate(columns):
        medians = [scale * statistics.median(run[index] for run in runs[s]) for s in sides]
        print(f"| {name} | " + " | ".join(format(m, spec) for m in medians) + " |")
    outputs = [run[3] for results in runs.values() for run in results]
    identical = all(files == outputs[0] for files in outputs)
    print("output files identical" if identical else "output files DIFFER")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
