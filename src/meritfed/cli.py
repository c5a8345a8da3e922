"""Command-line front end.

Reads a flat key=value configuration (optionally expanded from a named
preset), runs the experiment once per repeat seed, and writes long-format
CSV tables plus a JSON manifest into the output directory:

  metrics.csv   seed, round, method, dist_sq, loss_gap, grad_norm_sq,
                val_loss, accuracy, delta
  weights.csv   seed, round, method, client_index, weight
  theorem.csv   per-seed, per-method convergence-bound report
  manifest.json expanded config, code version, per-seed mixture direction

All floats are written with 17 significant digits so reruns are
byte-comparable; blank cells mean "not defined for this task or round".
"""

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import operator
import os
import sys
import typing
from dataclasses import dataclass
from typing import Callable, Iterator, Literal, Optional

from . import __version__
from .aggregators import FedAdp, FedAvg, MeritFed, Rule, SgdFull, SgdIdeal, Tawt
from .clients import ATTACK_NONE, AttackKind, AttackSpec
from .engine import ExperimentSpec, RoundMetrics, run_experiment
from .errors import ConfigError, Count, MeritFedError, PositiveFloat, PositiveInt, check_fields
from .simplex_opt import ESTIMATOR_ZO, MdConfig
from .tasks import ConvergenceRow, MeanTask, SoftmaxTask, ValidationMode

OUT_DIR_ENV = "MERITFED_OUT_DIR"
DEFAULT_OUT_DIR = "runs"

TASK_MEAN = "mean"
TASK_SOFTMAX = "softmax"


@dataclass
class RunConfig:
    """Flat configuration, one field per schema key, checked against its hints at construction.

    The defaults are the `mean-mu-0.1` preset, each read from the library class
    that has it; every other preset names only the keys where it differs.
    """

    task: Literal[TASK_MEAN, TASK_SOFTMAX] = TASK_MEAN
    dim: int = ExperimentSpec.dim
    group1_count: int = ExperimentSpec.group_counts[0]
    group2_count: int = ExperimentSpec.group_counts[1]
    group3_count: int = ExperimentSpec.group_counts[2]
    byzantine_count: int = ExperimentSpec.byzantine_count
    attack_kind: AttackKind = ATTACK_NONE
    attack_sigma: float = AttackSpec.sigma
    attack_epsilon: float = AttackSpec.epsilon
    attack_z: float = AttackSpec.z
    attack_shift_sign: int = AttackSpec.shift_sign
    group2_shift: float = MeanTask.group2_shift
    shard_size: int = ExperimentSpec.shard_size
    batch_size: int = ExperimentSpec.batch_size
    # The solver step is md_lr / model_step: both are checked before the division.
    model_step: PositiveFloat = ExperimentSpec.model_step
    rounds: int = ExperimentSpec.rounds
    validation_size: int = ExperimentSpec.validation_size
    validation_mode: ValidationMode = ExperimentSpec.validation_mode
    exact_gradients: bool = ExperimentSpec.exact_gradients
    weight_log_every: int = 10  # the one default unlike the library's, 1: a CLI run logs every 10th round
    mixing_alpha: float = SoftmaxTask.mixing_alpha
    n_classes: int = SoftmaxTask.n_classes
    test_size: int = SoftmaxTask.test_size
    methods: tuple[str, ...] = (
        "meritfed-md",
        "meritfed-smd",
        "sgd-full",
        "sgd-ideal",
        "fedadp",
        "tawt",
        "fedavg-5",
        "fedavg-10",
    )
    md_steps: int = 50
    md_lr: PositiveFloat = 12.5
    md_smoothing: float = MdConfig.smoothing
    smd_minibatch: int = 100
    fedadp_alpha: float = FedAdp.alpha
    tawt_step: float = 0.0
    seeds: PositiveInt = 3
    base_seed: Count = 0
    preset: Optional[str] = None

    def __post_init__(self) -> None:
        check_fields(self, prefix="")  # a message names the key


# Configuration schema: key -> python type (a Literal for a key with choices),
# one key per RunConfig field. Every key is required in a preset-free config file.
CONFIG_SCHEMA = {name: kind for name, kind in typing.get_type_hints(RunConfig).items() if name != "preset"}


def _columns(record_type) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(record_type))


# CSV columns: the seed, then the record's fields in order; the metrics
# field round_index is written as the column round.
METRICS_COLUMNS = ("seed", "round") + _columns(RoundMetrics)[1:]
WEIGHTS_COLUMNS = ("seed", "round", "method", "client_index", "weight")
THEOREM_COLUMNS = ("seed",) + _columns(ConvergenceRow)


# ExperimentSpec fields that take the RunConfig field of the same name as it
# is; task and methods are names there, built into objects here.
_SPEC_FIELDS_FROM_CONFIG = tuple(
    name
    for name in _columns(ExperimentSpec)
    if name in CONFIG_SCHEMA and name not in ("task", "methods")
)


def _preset(**changes) -> Callable[[], dict]:
    """A preset as its changes to the RunConfig defaults.

    Each call returns a fresh dict of every schema key, in schema order.
    """

    def values() -> dict:
        config = RunConfig(**changes)
        return {key: getattr(config, key) for key in CONFIG_SCHEMA}

    return values


_BYZANTINE = dict(
    group2_count=0,
    group3_count=0,
    byzantine_count=50,
    rounds=1000,
    methods=("meritfed-md", "sgd-full", "sgd-ideal"),
    md_steps=10,
    md_lr=3.5,
)

# mixing_alpha keeps its default, 0.5, unless a preset names it.
_SOFTMAX = dict(
    task=TASK_SOFTMAX,
    group1_count=1,
    group2_count=10,
    group3_count=9,
    batch_size=75,
    model_step=0.05,
    rounds=300,
    validation_size=4000,
    weight_log_every=1,
    methods=("meritfed-md", "sgd-ideal"),
    md_steps=30,
    md_lr=5.0,
)

PRESETS = {
    "mean-mu-0.1": _preset(),
    "mean-mu-0.01": _preset(group2_shift=0.01, md_lr=4.5),
    "mean-mu-0.001": _preset(group2_shift=0.001, md_lr=3.5),
    "theorem-mean": _preset(
        group2_count=0,
        group3_count=0,
        shard_size=100000,
        methods=("meritfed-md", "sgd-ideal"),
        md_lr=3.5,
    ),
    "byzantine-bf": _preset(**_BYZANTINE, attack_kind="bit-flip"),
    "byzantine-rn": _preset(**_BYZANTINE, attack_kind="random-noise"),
    "byzantine-ipm": _preset(**_BYZANTINE, attack_kind="ipm"),
    "byzantine-alie": _preset(**_BYZANTINE, attack_kind="alie"),
    "softmax-alpha-0.5": _preset(**_SOFTMAX),
    "softmax-alpha-0.99": _preset(**_SOFTMAX, mixing_alpha=0.99),
}


def _parse_value(key: str, raw: str, where: str) -> object:
    kind = CONFIG_SCHEMA[key]
    text = raw.strip()
    try:
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "false"):
                return lowered == "true"
            raise ValueError(f"expected true or false, got {text!r}")
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)  # RunConfig rejects a value that is not finite
        if typing.get_origin(kind) is tuple:
            return tuple(p.strip() for p in text.split(",") if p.strip())
        return text
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None


def _assign(values: dict, item: str, where: str, keys=CONFIG_SCHEMA) -> str:
    """Store one `key = value` item in values, read as its key's type, and return the key."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected key = value, got {item!r}")
    key, _, raw = item.partition("=")
    key = key.strip()
    if key not in keys:
        raise ConfigError(f"{where}: unknown key {key!r}")
    values[key] = raw.strip() if key == "preset" else _parse_value(key, raw, where)
    return key


def parse_config(
    text: str, preset: Optional[str] = None, overrides: Optional[list[str]] = None
) -> RunConfig:
    """Parse key=value configuration text into a validated RunConfig.

    Lines are `key = value` with `#` comments. A `preset` key (or the
    explicit preset argument) supplies defaults for every other key;
    explicit keys override preset values, and override strings (from
    --set) are applied last. Without a preset, every schema key is
    required.
    """
    file_values: dict = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key = stripped.partition("=")[0].strip()
        if "=" in stripped and key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[_assign(file_values, stripped, f"line {lineno}", (*CONFIG_SCHEMA, "preset"))] = lineno

    file_preset = file_values.pop("preset", None)
    preset_name = file_preset if preset is None else preset
    values: dict = {}
    if preset_name is not None:
        if preset_name not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError(f"unknown preset {preset_name!r}; known presets: {known}")
        values = PRESETS[preset_name]()
    values.update(file_values)
    for index, item in enumerate(overrides or [], start=1):
        _assign(values, item, f"--set entry {index}")

    missing = sorted(k for k in CONFIG_SCHEMA if k not in values)
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    config = RunConfig(preset=preset_name, **values)
    build_experiment(config).validate()  # full engine-side validation
    return config


def _fixed_rules(config: RunConfig) -> dict[str, Rule]:
    """Every rule of a fixed label, built once from the config, by label.

    Building them checks every rule key, whichever methods the config lists.
    """
    # Solver step sizes are quoted per unit of model step, so the simplex
    # objective sees the same geometry at any model step.
    md = MdConfig(
        step_size=config.md_lr / config.model_step, step_count=config.md_steps, smoothing=config.md_smoothing
    )
    rules = (
        MeritFed("meritfed-md", md=md),
        MeritFed("meritfed-smd", md=dataclasses.replace(md, minibatch=config.smd_minibatch)),
        MeritFed("meritfed-zo", md=dataclasses.replace(md, estimator=ESTIMATOR_ZO)),
        SgdFull("sgd-full"),
        SgdIdeal("sgd-ideal", group_size=config.group1_count),
        FedAdp("fedadp", alpha=config.fedadp_alpha),
        Tawt("tawt", step_size=config.tawt_step or config.md_lr),
    )
    return {rule.label: rule for rule in rules}


def _method_from_label(label: str, rules: dict[str, Rule]) -> Rule:
    """The rule a method label names: one of the fixed rules, or fedavg-<k>."""
    if label in rules:
        return rules[label]
    if not label.startswith("fedavg-"):
        known = ", ".join(list(rules) + ["fedavg-<k>"])
        raise ConfigError(f"unknown method label {label!r}; known: {known}")
    count = label[len("fedavg-"):]
    # k is written as str(k) does: one label per rule.
    if not (count.isascii() and count.isdigit() and str(int(count)) == count):
        raise ConfigError(f"bad fedavg sample count in method label {label!r}")
    return FedAvg(label, sample_count=int(count))


def build_experiment(config: RunConfig, master_seed: int = 0) -> ExperimentSpec:
    """Expand the flat config into an engine spec for one seed (checked by spec.validate)."""
    # Both tasks are built: each object checks its keys when built, so every key is checked whatever the task.
    tasks = {
        TASK_MEAN: MeanTask(group2_shift=config.group2_shift),
        TASK_SOFTMAX: SoftmaxTask(config.mixing_alpha, config.n_classes, config.test_size),
    }
    attack = AttackSpec(**{name: getattr(config, f"attack_{name}") for name in _columns(AttackSpec)})
    rules = _fixed_rules(config)
    return ExperimentSpec(
        methods=[_method_from_label(label, rules) for label in config.methods],
        task=tasks[config.task],
        group_counts=(config.group1_count, config.group2_count, config.group3_count),
        attack=attack,
        master_seed=master_seed,
        **{name: getattr(config, name) for name in _SPEC_FIELDS_FROM_CONFIG},
    )


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _record_lines(record_type) -> Callable[[int, list], Iterator[str]]:
    """The lines of one seed's records: the seed, then each of the record's fields in column order."""
    cells = operator.attrgetter(*_columns(record_type))
    return lambda seed, records: (",".join(map(_format_cell, (seed, *cells(r)))) + "\n" for r in records)


def _seed_records(config: RunConfig, master_seed: int) -> tuple:
    """Run one seed; return (seed, its three tables' records, mixture direction), all picklable.

    The run's shards and validation rows are freed on return, before any row
    is formatted.
    """
    result = run_experiment(build_experiment(config, master_seed=master_seed))
    direction = None if result.mixture_direction is None else result.mixture_direction.tolist()
    return master_seed, tuple(getattr(result, field) for _, _, field, _ in _TABLES), direction


@functools.cache
def _client_cells(n_clients: int) -> tuple[str, ...]:
    """The client_index and weight cells of each of a vector's lines, the weight as a %-field."""
    return tuple(f"{client},%.17g\n" for client in range(n_clients))


def _weights_lines(seed: int, weight_rows: list) -> Iterator[str]:
    # One %-template per logged vector: '%.17g' writes the text format(value, '.17g') does.
    for round_index, method, vector in weight_rows:
        prefix = f"{seed},{round_index},{method},".replace("%", "%%")
        yield (prefix + prefix.join(_client_cells(len(vector)))) % tuple(vector.tolist())


# Each table's file, columns, ExperimentResult field and the lines of one
# seed's records. A metrics.csv or theorem.csv line is its record's fields
# through _format_cell; weights.csv's lines of one logged vector fill one
# %-template.
_TABLES = (
    ("metrics.csv", METRICS_COLUMNS, "metrics", _record_lines(RoundMetrics)),
    ("weights.csv", WEIGHTS_COLUMNS, "weight_rows", _weights_lines),
    ("theorem.csv", THEOREM_COLUMNS, "convergence", _record_lines(ConvergenceRow)),
)
OUTPUT_FILES = tuple(name for name, *_ in _TABLES) + ("manifest.json",)


def _write_rows(handle, lines: Iterator[str]) -> None:
    """Append one seed's lines to a staged table."""
    handle.writelines(lines)


@contextlib.contextmanager
def _staged_outputs(out_dir: str, names: tuple) -> Iterator[dict]:
    """Open a staged file per name in out_dir; move them all into place when the block succeeds.

    Each file is written to a temporary name inside out_dir first. If the
    block fails, the temporary files and the directory levels made here are
    removed, so out_dir's previous outputs stay as they were.
    """
    made, path = [], os.path.abspath(out_dir)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    staged = {name: os.path.join(out_dir, f".{name}.{os.getpid()}.tmp") for name in names}
    try:
        os.makedirs(out_dir, exist_ok=True)
        with contextlib.ExitStack() as files:
            yield {
                name: files.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                for name, path in staged.items()
            }
    except BaseException:
        for path in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        for path in made:  # deepest first; a level someone else wrote into stays
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    for name, path in staged.items():
        os.replace(path, os.path.join(out_dir, name))


def run_config(config: RunConfig, out_dir: str, workers: int = 1) -> dict:
    """Run every repeat seed and write the output files. Returns the manifest.

    Each seed's rows are written into the staged tables as soon as it has
    run, in seed order; the output directory and the staged files appear
    only after the first seed has run.
    """
    seeds = [config.base_seed + j for j in range(config.seeds)]
    manifest = {
        "version": __version__,
        "preset": config.preset,
        "config": {key: getattr(config, key) for key in CONFIG_SCHEMA},
        "seeds": seeds,
        "mixture_directions": {},
    }
    with contextlib.ExitStack() as stack:
        if workers > 1 and len(seeds) > 1:
            import concurrent.futures.process  # a serial run never pays for the pool's imports

            # A pool starts all its workers at the first submit: one per seed at most.
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(seeds)))

            def records_of(results):
                try:
                    yield from results
                except concurrent.futures.process.BrokenProcessPool as exc:  # a worker died, say killed for its memory
                    raise MeritFedError(f"a worker process died: {exc}") from None

            records = records_of(stack.enter_context(pool).map(_seed_records, [config] * len(seeds), seeds))
        else:
            records = map(_seed_records, [config] * len(seeds), seeds)
        for seed, tables, direction in records:
            if seed == seeds[0]:
                files = stack.enter_context(_staged_outputs(out_dir, OUTPUT_FILES))
                for name, columns, *_ in _TABLES:
                    files[name].write(",".join(columns) + "\n")
            for (name, _, _, lines), rows in zip(_TABLES, tables):
                _write_rows(files[name], lines(seed, rows))
            manifest["mixture_directions"][str(seed)] = direction
            del tables  # before the next seed runs
        json.dump(manifest, files["manifest.json"], indent=2, sort_keys=True)
        files["manifest.json"].write("\n")
    return manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meritfed",
        description="Federated aggregation-weight experiments with CSV output.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run_cmd = commands.add_parser("run", help="run an experiment from a config or preset")
    run_cmd.add_argument("--config", help="path to a key=value config file")
    run_cmd.add_argument("--preset", help="named preset (e.g. mean-mu-0.1)")
    run_cmd.add_argument("--seed", type=int, help="override the base seed")
    run_cmd.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or ./{DEFAULT_OUT_DIR})")
    run_cmd.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key; repeatable",
    )
    run_cmd.add_argument(
        "--workers", type=int, default=1, help="parallel processes across repeat seeds"
    )
    run_cmd.add_argument(
        "--list-presets", action="store_true", help="print known preset names and exit"
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_presets:
        for name in sorted(PRESETS):
            print(name)
        return 0

    try:
        if args.config is None and args.preset is None:
            raise ConfigError("provide --config and/or --preset")
        text = ""
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8-sig") as handle:
                    text = handle.read()
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return 1
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config file {args.config!r} is not UTF-8: {exc.reason} at byte {exc.start}")
        # --seed S is the last override, base_seed=S, so it is checked like one.
        overrides = args.overrides + ([] if args.seed is None else [f"base_seed={args.seed}"])
        config = parse_config(text, preset=args.preset, overrides=overrides)
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        if args.out == "":
            raise ConfigError("--out must name a directory, got an empty string")
    except MeritFedError as exc:
        # Anything raised while reading and checking the config, including
        # solver settings that MdConfig rejects, is a config error.
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # An empty MERITFED_OUT_DIR counts as unset.
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR
    try:
        run_config(config, out_dir, workers=args.workers)
    except (MeritFedError, OSError, MemoryError) as exc:
        # A run that fails, for example on an allocation no memory can
        # hold, leaves no output directory it made and no staged file.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {', '.join(OUTPUT_FILES)} to {out_dir}")
    return 0


def entry() -> int:
    """Process entry point, for `python -m meritfed.cli` and the `meritfed` script."""
    status = main()
    # What is left on the heap now, mostly numpy's and this package's module
    # state, lives until exit anyway, and the collections the interpreter runs
    # at exit skip frozen objects. main() itself does not freeze: it may run
    # many times in one process.
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
