"""Print the sha256 of the four output files of every preset as a markdown table.

Each preset runs with `--set seeds=2` and a round cap: 12 rounds for
`mean-mu-*`, 30 for `theorem-mean`, 40 for `byzantine-*` and 6 for
`softmax-*`. `byzantine-rn`, `mean-mu-0.1` and `softmax-alpha-0.5` run once
more at base seed 2^32 + 5, whose stream entropy has more than one 32-bit
word for the master seed. Run from a checkout:

    python3 scripts/preset_hashes.py                 # this checkout only
    python3 scripts/preset_hashes.py --parent DIR    # DIR (another checkout) vs this one

It exits 1 when any run failed or, with --parent, when any file differs
between the two checkouts, and 0 otherwise.
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


def preset_hashes(root: str, preset: str, seed: int | None = None) -> list[str]:
    """The sha256 of each output file of one preset run from the checkout at root."""
    rounds = next(cap for prefix, cap in ROUND_CAPS.items() if preset.startswith(prefix))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryDirectory() as out:
        command = [sys.executable, "-m", "meritfed.cli", "run", "--preset", preset, "--out", out]
        command += ["--set", "seeds=2", "--set", f"rounds={rounds}"]
        if seed is not None:
            command += ["--seed", str(seed)]
        if subprocess.run(command, env=env, stdout=subprocess.DEVNULL).returncode != 0:
            return [RUN_FAILED] * len(FILES)
        hashes = []
        for name in FILES:
            with open(os.path.join(out, name), "rb") as handle:
                hashes.append(f"`{hashlib.sha256(handle.read()).hexdigest()}`")
        return hashes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout to compare against this one")
    args = parser.parse_args()
    roots = [args.parent, ROOT] if args.parent else [ROOT]
    headers = ["parent", "change"] if args.parent else ["sha256"]
    print("| preset | file | " + " | ".join(headers) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in headers) + " |")
    runs = [(preset, None) for preset in PRESETS]
    runs += [(preset, MULTI_WORD_SEED) for preset in MULTI_WORD_PRESETS]
    ok = True
    for preset, seed in runs:
        columns = [preset_hashes(root, preset, seed) for root in roots]
        label = preset if seed is None else f"{preset} --seed {seed}"
        for row, name in enumerate(FILES):
            cells = [column[row] for column in columns]
            ok = ok and RUN_FAILED not in cells and len(set(cells)) == 1
            print(f"| `{label}` | `{name}` | {' | '.join(cells)} |", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
