"""Print the sha256 of the four output files of every run of `RUNS` as a markdown table.

Each preset runs with `--set seeds=2` and a round cap: 12 rounds for
`mean-mu-*`, 30 for `theorem-mean`, 40 for `byzantine-*` and 6 for
`softmax-*`. `byzantine-rn`, `mean-mu-0.1` and `softmax-alpha-0.5` run once
more at base seed 2^32 + 5, whose stream entropy has more than one 32-bit
word for the master seed. Two more runs at the same caps cover the solver
paths no preset takes: the zeroth-order solver, and the minibatch solver on
the softmax task and with a minibatch as large as the validation set. Seven
more cover data paths no preset takes: the mean task's batch gather and
kept-rows validation oracle at dimension 1; exact gradients with the
population oracle and the grid-gap delta (three clients); the grid-gap
delta over the held-out validation oracle at one and at two clients, the
grid's one-point and line branches; the softmax
oracle over client 0's rows (reuse-train validation); and the softmax
kernel's class sums below 8 terms (7 classes) and past 128 terms (130
classes, split into halves of 64 and 66 terms, each summed over more than
one stride of 8), which every 10-class preset skips. Run from a checkout:

    python3 scripts/preset_hashes.py                 # this checkout only
    python3 scripts/preset_hashes.py --parent DIR    # DIR (another checkout) vs this one

It exits 1 when any run failed or, with --parent, when any file differs
between the two checkouts, and 0 otherwise. `tests/test_output_contract.py`
runs the same `RUNS` in-process against recorded digests.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from meritfed.cli import PRESETS  # noqa: E402

ROUND_CAPS = {"mean-mu-": 12, "theorem-mean": 30, "byzantine-": 40, "softmax-": 6}
FILES = ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json")
RUN_FAILED = "run failed"
MULTI_WORD_SEED = 2**32 + 5
MULTI_WORD_PRESETS = ("byzantine-rn", "mean-mu-0.1", "softmax-alpha-0.5")
SOLVER_RUNS = (
    ("softmax-alpha-0.5", ("methods=meritfed-md,meritfed-smd,meritfed-zo", "smd_minibatch=500")),
    (
        "mean-mu-0.1",
        ("methods=meritfed-zo,meritfed-smd", "validation_mode=reuse-train", "smd_minibatch=1000"),
    ),
)
DATA_RUNS = (
    ("mean-mu-0.1", ("dim=1",)),
    ("theorem-mean", ("exact_gradients=true", "validation_mode=population", "group1_count=3")),
    ("theorem-mean", ("group1_count=1",)),
    ("theorem-mean", ("group1_count=2",)),
    ("softmax-alpha-0.5", ("validation_mode=reuse-train",)),
    ("softmax-alpha-0.5", ("n_classes=7",)),
    ("softmax-alpha-0.5", ("n_classes=130", "dim=130", "validation_size=500", "test_size=500")),
)


def _capped(preset: str, changes: tuple[str, ...] = ()) -> tuple[str, ...]:
    """Config overrides of one run: two seeds, the preset's round cap, then changes."""
    rounds = next(cap for prefix, cap in ROUND_CAPS.items() if preset.startswith(prefix))
    return ("seeds=2", f"rounds={rounds}") + changes


# Each run as (label, preset, config overrides); a label names the run in the table.
RUNS = (
    [(preset, preset, _capped(preset)) for preset in PRESETS]
    + [
        (f"{preset} --seed {MULTI_WORD_SEED}", preset, _capped(preset, (f"base_seed={MULTI_WORD_SEED}",)))
        for preset in MULTI_WORD_PRESETS
    ]
    + [
        (" ".join([preset] + [f"--set {change}" for change in changes]), preset, _capped(preset, changes))
        for preset, changes in SOLVER_RUNS + DATA_RUNS
    ]
)


def file_digests(out_dir: str) -> list[str]:
    """The sha256 of each output file in out_dir, in FILES order."""
    digests = []
    for name in FILES:
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests.append(hashlib.sha256(handle.read()).hexdigest())
    return digests


def run_hashes(root: str, preset: str, overrides: tuple[str, ...]) -> list[str]:
    """The sha256 of each output file of one run from the checkout at root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryDirectory() as out:
        command = [sys.executable, "-m", "meritfed.cli", "run", "--preset", preset, "--out", out]
        for override in overrides:
            command += ["--set", override]
        if subprocess.run(command, env=env, stdout=subprocess.DEVNULL).returncode != 0:
            return [RUN_FAILED] * len(FILES)
        return [f"`{digest}`" for digest in file_digests(out)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout to compare against this one")
    args = parser.parse_args()
    roots = [args.parent, ROOT] if args.parent else [ROOT]
    headers = ["parent", "change"] if args.parent else ["sha256"]
    print("| preset | file | " + " | ".join(headers) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in headers) + " |")
    ok = True
    for label, preset, overrides in RUNS:
        columns = [run_hashes(root, preset, overrides) for root in roots]
        for row, name in enumerate(FILES):
            cells = [column[row] for column in columns]
            ok = ok and RUN_FAILED not in cells and len(set(cells)) == 1
            print(f"| `{label}` | `{name}` | {' | '.join(cells)} |", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
