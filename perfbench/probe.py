"""Set-up probe: do everything `meritfed run` does before round 0, then report.

    python3 perfbench/probe.py PRESET SEED ROUNDS

Imports the package, parses the preset with the benchmark's overrides the way
the CLI does, builds the experiment spec and constructs `engine.RunState`
(shards plus the validation set). It then prints `ready` and exits; the
benchmark times the interval from starting this process to reading that line.
"""

import dataclasses
import sys


def main(argv: list[str]) -> int:
    preset, seed, rounds = argv[0], int(argv[1]), int(argv[2])
    from meritfed import cli, engine

    config = cli.parse_config("", preset=preset, overrides=["seeds=1", f"rounds={rounds}"])
    config = dataclasses.replace(config, base_seed=seed)
    engine.RunState(cli.build_experiment(config, master_seed=seed))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
