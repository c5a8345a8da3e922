"""Peak resident memory of fresh `meritfed run` processes of one preset at seed 0, per checkout.

    python3 scripts/peak_rss.py PRESET ROUNDS [PARENT_CHECKOUT] [--set KEY=VALUE ...]

Three fresh processes per checkout, alternating, each `python -m meritfed.cli run --preset PRESET
--seed 0 --set seeds=1 --set rounds=ROUNDS --workers 1` followed by the given `--set` items, which
override those two (`--set seeds=3` measures three seeds in one process). Prints each side's
median `ru_maxrss` from `os.wait4`, in MB of 2^20 bytes as perfbench reports it, and exits 1 unless
every run wrote the same four output files, byte for byte. BLAS runs on one thread unless the
environment says otherwise.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json")


def peak_rss(root: str, preset: str, rounds: str, overrides: list[str]) -> tuple[float, list[str]]:
    """One run's peak RSS in MB and the sha256 digests of its four output files.

    The files are hashed in chunks and only digests are kept: a child's
    ru_maxrss starts from this process's own peak, so reading or holding
    whole output files here would inflate the later runs' peaks.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out")
        options = ["--preset", preset, "--seed", "0", "--set", "seeds=1", "--set", f"rounds={rounds}"]
        options += [arg for item in overrides for arg in ("--set", item)]
        command = [sys.executable, "-m", "meritfed.cli", "run", *options, "--workers", "1", "--out", out]
        process = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
        if process.returncode != 0:
            sys.exit(f"{root}: run exited {process.returncode}")
        digests = []
        for name in FILES:
            with open(os.path.join(out, name), "rb") as handle:
                digests.append(hashlib.file_digest(handle, "sha256").hexdigest())
        return usage.ru_maxrss / 1024.0, digests


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Peak RSS of meritfed runs per checkout.")
    parser.add_argument("preset")
    parser.add_argument("rounds")
    parser.add_argument("parent", nargs="?", help="a parent checkout to alternate with")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": ROOT} if args.parent else {"this checkout": ROOT}
    runs = {side: [] for side in sides}
    for i in range(3):
        for side in sorted(sides, reverse=i % 2 == 1):
            runs[side].append(peak_rss(sides[side], args.preset, args.rounds, args.overrides))
    for side, results in runs.items():
        print(f"{side}: peak RSS median {statistics.median(rss for rss, _ in results):.1f} MB")
    outputs = [files for results in runs.values() for _, files in results]
    identical = all(files == outputs[0] for files in outputs)
    print("output files identical" if identical else "output files DIFFER")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
