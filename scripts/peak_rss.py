"""Peak resident memory of fresh `meritfed run` processes of one preset at seed 0, per checkout.

    python3 scripts/peak_rss.py PRESET ROUNDS [PARENT_CHECKOUT]

Three fresh processes per checkout, alternating, each `python -m meritfed.cli run --preset PRESET
--seed 0 --set seeds=1 --set rounds=ROUNDS --workers 1`. Prints each side's median `ru_maxrss`
from `os.wait4`, in MB of 2^20 bytes as perfbench reports it, and exits 1 unless every run wrote the
same four output files, byte for byte. BLAS runs on one thread unless the environment says otherwise.
"""

import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json")


def peak_rss(root: str, preset: str, rounds: str) -> tuple[float, list[bytes]]:
    """One run's peak RSS in MB and the contents of its four output files."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out")
        options = ["--preset", preset, "--seed", "0", "--set", "seeds=1", "--set", f"rounds={rounds}"]
        command = [sys.executable, "-m", "meritfed.cli", "run", *options, "--workers", "1", "--out", out]
        process = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
        if process.returncode != 0:
            sys.exit(f"{root}: run exited {process.returncode}")
        return usage.ru_maxrss / 1024.0, [pathlib.Path(out, name).read_bytes() for name in FILES]


def main(preset: str, rounds: str, *parent: str) -> int:
    sides = {"parent": parent[0], "change": ROOT} if parent else {"this checkout": ROOT}
    runs = {side: [] for side in sides}
    for i in range(3):
        for side in sorted(sides, reverse=i % 2 == 1):
            runs[side].append(peak_rss(sides[side], preset, rounds))
    for side, results in runs.items():
        print(f"{side}: peak RSS median {statistics.median(rss for rss, _ in results):.1f} MB")
    outputs = [files for results in runs.values() for _, files in results]
    identical = all(files == outputs[0] for files in outputs)
    print("output files identical" if identical else "output files DIFFER")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
