"""Per-round phase times of one preset at seed 0, from an `engine.RunState` driven in-process.

    python3 scripts/round_phases.py PRESET ROUNDS [PARENT_CHECKOUT]

Five fresh processes per checkout, alternating, each time `RunState.round_draws`, the task's
`round_basis`, each rule's `weights` and `run_round`. The table gives, per checkout, the median over processes of
each phase's median and of its mean over rounds 5 and up, in ms. A cost paid once every few rounds, such as the
stream hashing of a block of rounds, shows in the mean only. BLAS runs on one thread unless the environment says
otherwise.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def phase_times(preset: str, rounds: int) -> dict:
    from meritfed import engine
    from meritfed.cli import build_experiment, parse_config
    state = engine.RunState(build_experiment(parse_config("", preset, [f"rounds={rounds}", "seeds=1"])))
    times = {}
    def timed(name, fn, clock=time.perf_counter):
        def wrapper(*args):
            start, result = clock(), fn(*args)
            times.setdefault(name, []).append(clock() - start)
            return result
        return wrapper
    state.round_draws = timed("round_draws", state.round_draws)
    state.task.round_basis = timed("round_basis", state.task.round_basis)
    for rule in state.rules:
        rule.weights = timed(rule.label, rule.weights)
    run_round = timed("whole round", engine.run_round)
    for t in range(rounds):
        run_round(state, t)
    return {name: [1e3 * f(spans[5:]) for f in (statistics.median, statistics.mean)] for name, spans in times.items()}


def main(argv: list[str]) -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if argv[0] == "--src":  # --src DIR PRESET ROUNDS: one process's medians and means, as JSON
        sys.path.insert(0, argv[1])
        return print(json.dumps(phase_times(argv[2], int(argv[3]))))
    preset, rounds, *parent = argv
    sides = {"parent": parent[0], "change": ROOT} if parent else {"this checkout": ROOT}
    runs = {side: [] for side in sides}
    for i in range(5):
        for side in sorted(sides, reverse=i % 2 == 1):
            command = [sys.executable, __file__, "--src", os.path.join(sides[side], "src"), preset, rounds]
            runs[side].append(json.loads(subprocess.run(command, check=True, capture_output=True).stdout))
    columns = [f"{side} {stat}" for side in sides for stat in ("median", "mean")]
    print(f"| phase (ms) | {' | '.join(columns)} |\n| --- |{' --- |' * len(columns)}")
    for name in runs[side][0]:
        cells = [statistics.median(run[name][k] for run in runs[s]) for s in sides for k in (0, 1)]
        print(f"| `{name}` | " + " | ".join(f"{c:.3f}" for c in cells) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
