"""Mutation gate: apply each named mutant to a copy of the checkout, run a test selection, tabulate.

    python3 scripts/mutants.py                          # every mutant, tier-1 without the acceptance tests
    python3 scripts/mutants.py --module streams.py      # the mutants of one module (repeatable)
    python3 scripts/mutants.py --module streams.py -- tests/test_streams.py   # pytest arguments after --
    python3 scripts/mutants.py --list                   # name, module and edit of each mutant

A mutant is one textual edit of one file under `src/meritfed/`: its old text
must occur there exactly once. Each runs in one temporary copy of the
checkout, made once; the file is restored after each mutant. A mutant is
killed when the selection fails (pytest stops at the first failure). The
selection first runs on the unmutated copy, and must pass. An equivalent
mutant behaves as the original for every input, so it must survive.

It prints a markdown table and exits 1 when a mutant that is not equivalent
survives, an equivalent one is killed, or the unmutated selection fails.
Too slow for tier-1: with nothing failing, the default selection takes
about 40 s a mutant on a 2-core box. Standard library only.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "meritfed")
DEFAULT_SELECTION = ["tests", "--ignore=tests/test_acceptance.py"]
TIMEOUT_S = 1800


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    equivalent: bool = False


MUTANTS = [
    # streams.py: each step of the transcription of numpy's SeedSequence.
    Mutant("seed hash: no diagonal skip", "streams.py", "if i_src != i_dst:", "if True:"),
    Mutant(
        "seed hash: mix arguments swapped",
        "streams.py",
        "_mix(pool[i_dst], hashmix(pool[i_src]))",
        "_mix(hashmix(pool[i_src]), pool[i_dst])",
    ),
    Mutant(
        "seed hash: multiplier advanced before the xor",
        "streams.py",
        "value = value ^ np.uint32(hash_const)\n        hash_const = hash_const * mult & _MASK32",
        "hash_const = hash_const * mult & _MASK32\n        value = value ^ np.uint32(hash_const)",
    ),
    Mutant(
        "seed hash: one extra entropy word skipped",
        "streams.py",
        "range(_POOL_SIZE, length)",
        "range(_POOL_SIZE + 1, length)",
    ),
    Mutant("seed hash: i // 2 for i % 4 in the state cycle", "streams.py", "pool[i % _POOL_SIZE]", "pool[i // 2]"),
    Mutant("entropy words: 31-bit shift", "streams.py", "value >>= 32", "value >>= 31"),
    Mutant(
        "round streams: block offset off by one",
        "streams.py",
        "offset = round_index % ROUND_BLOCK",
        "offset = (round_index + 1) % ROUND_BLOCK",
    ),
    # aggregators.py
    Mutant("FedAdp running mean off by one", "aggregators.py", "t = self._rounds + 1", "t = self._rounds + 2"),
    Mutant("MeritFed.check >= for >", "aggregators.py", "if self.md.minibatch > validation_rows:",
           "if self.md.minibatch >= validation_rows:"),
    Mutant("Tawt cosine flipped", "aggregators.py", "-np.cos(angles)", "np.cos(angles)"),
    Mutant("FedAvg weight 1/n", "aggregators.py", "w[chosen] = 1.0 / self.sample_count", "w[chosen] = 1.0 / n"),
    # clients.py
    Mutant("alie sign flipped", "clients.py", "stacked.mean(axis=0) + shift_sign", "stacked.mean(axis=0) - shift_sign"),
    Mutant("bit flip sends own gradient", "clients.py", "return -own", "return own"),
    # engine.py
    Mutant(
        "Byzantine pool from client 1",
        "engine.py",
        "gradients[: spec.group_counts[0]], draws.noise",
        "gradients[1 : spec.group_counts[0]], draws.noise",
    ),
    Mutant(
        "weight log skips the last round",
        "engine.py",
        "if round_index % spec.weight_log_every == 0 or round_index == spec.rounds - 1:",
        "if round_index % spec.weight_log_every == 0:",
    ),
    # min(losses) <= losses[0], so both sides are 0 whenever losses[0] is the least.
    Mutant(
        "grid gap over every loss",
        "engine.py",
        "max(losses[0] - min(losses[1:]), 0.0)",
        "max(losses[0] - min(losses), 0.0)",
        equivalent=True,
    ),
    # simplex_opt.py
    Mutant("solver keeps a tie: <= for <", "simplex_opt.py", "if last_value < best_value:", "if last_value <= best_value:"),
    Mutant(
        "solver delta sign flipped",
        "simplex_opt.py",
        "max(last_value - best_value, 0.0)",
        "max(best_value - last_value, 0.0)",
    ),
    # tasks.py
    Mutant("rate-bound tolerance 1e-3", "tasks.py", "tol = 1e-12", "tol = 1e-3"),
    Mutant(
        "step-size check strict",
        "tasks.py",
        "model_step <= 1.0 / (2.0 * MEAN_SMOOTHNESS)",
        "model_step < 1.0 / (2.0 * MEAN_SMOOTHNESS)",
    ),
    # cli.py
    Mutant(
        "staged outputs keep the directories they made",
        "cli.py",
        "for path in made:",
        "for path in made[:0]:",
    ),
    Mutant("empty --out accepted", "cli.py", 'if args.out == "":', "if args.out is None and False:"),
    Mutant(
        "dead worker re-raised as it is",
        "cli.py",
        'raise MeritFedError(f"a worker process died: {exc}") from None',
        "raise",
    ),
    # errors.py
    Mutant("positive bound admits zero", "errors.py", '"positive": lambda value: value > 0',
           '"positive": lambda value: value >= 0'),
    # __init__.py: the version is written to every manifest.
    Mutant("package version", "__init__.py", '__version__ = "0.1.0"', '__version__ = "0.1.1"'),
]


def _run(copy: str, selection: list[str]) -> tuple[str, float]:
    """(outcome, seconds) of the selection in the copy: 'pass', 'timeout' or the first test that failed."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    if done.returncode == 0:
        return "pass", time.perf_counter() - start
    # pytest's short summary names each failure as "FAILED node - message".
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return (failed[0] if failed else f"pytest exit {done.returncode}"), time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", action="append", help="run only this module's mutants, e.g. streams.py")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    parser.add_argument("selection", nargs="*", help=f"pytest arguments (default: {' '.join(DEFAULT_SELECTION)})")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.module is None or m.module in args.module]
    sources = {}
    for mutant in chosen:
        if mutant.module not in sources:
            with open(os.path.join(ROOT, PACKAGE, mutant.module), encoding="utf-8") as handle:
                sources[mutant.module] = handle.read()
        if sources[mutant.module].count(mutant.old) != 1:
            raise SystemExit(f"mutant {mutant.name!r}: its old text is not in {mutant.module} exactly once")
    if args.list:
        for mutant in chosen:
            print(f"{mutant.module}: {mutant.name}{' (equivalent)' if mutant.equivalent else ''}")
            print(f"    - {mutant.old!r}\n    + {mutant.new!r}")
        return 0
    selection = args.selection or DEFAULT_SELECTION
    with tempfile.TemporaryDirectory(prefix="meritfed-mutants-") as scratch:
        copy = os.path.join(scratch, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", "runs"))
        outcome, seconds = _run(copy, selection)
        print(f"unmutated selection `{' '.join(selection)}`: {outcome} in {seconds:.0f} s\n", flush=True)
        if outcome != "pass":
            return 1
        print("| mutant | module | result | killed by | s |\n| --- | --- | --- | --- | ---: |", flush=True)
        wrong = 0
        for mutant in chosen:
            path = os.path.join(copy, PACKAGE, mutant.module)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(sources[mutant.module].replace(mutant.old, mutant.new))
            outcome, seconds = _run(copy, selection)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(sources[mutant.module])
            killed = outcome != "pass"
            result = ("killed" if killed else "survived") + (" (equivalent)" if mutant.equivalent else "")
            by = "" if not killed else f"timed out at {TIMEOUT_S} s" if outcome == "timeout" else f"`{outcome}`"
            wrong += killed == mutant.equivalent
            print(f"| {mutant.name} | `{mutant.module}` | {result} | {by} | {seconds:.0f} |", flush=True)
    print(f"\n{wrong} of {len(chosen)} mutants did not end as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
