"""Span recorder for the traced benchmark run, applied from outside the program.

`Recorder.install` wraps every public function of each meritfed layer module,
every public method of the classes those modules define, and the `__init__`
of their plain (non-dataclass) classes. A function another module imported by
name (for example `engine.weights_fedadp` or `aggregators.solve_weights`) is
replaced in that module's namespace too, so every call path is seen. Each call
appends one span (name, start, end, parent span) to an in-memory list;
`uninstall` puts every original object back.

Run as a script, it is the traced child process:

    python3 perfbench/tracer.py SPANS_FILE RUN_ID -- run --preset P ...

It installs the recorder, runs `meritfed.cli.main` with the arguments after
`--`, and writes the spans to SPANS_FILE before exiting with main's code.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import pickle
import sys
import time

LAYERS = ("streams", "tasks", "simplex_opt", "aggregators", "clients", "engine", "cli")

# A span is (name index, start, end, parent span index or -1), times from
# time.perf_counter in seconds. Parents start before their children, so a
# span's index is always larger than its parent's.
Span = tuple[int, float, float, int]


class Recorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(f"meritfed.{layer}") for layer in LAYERS]
        wrapped: dict[object, object] = {}
        for module, layer in zip(modules, LAYERS):
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[value] = self.wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    plain = not dataclasses.is_dataclass(value)
                    for name, member in list(vars(value).items()):
                        if inspect.isfunction(member) and (
                            not name.startswith("_") or (plain and name == "__init__")
                        ):
                            self._patch(value, name, self.wrap(f"{layer}.{attr}.{name}", member))
        for module in modules + [importlib.import_module("meritfed")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(module, attr, wrapped[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "wb") as handle:
            pickle.dump({"run_id": self.run_id, "names": self.names, "spans": self.spans}, handle)


def load(path: str) -> dict:
    """Read a span file written by `Recorder.dump` in a child of this benchmark."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are nested and single-threaded, so direct children never overlap
    and their durations add up to the part of the parent they cover.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(names: list[str], spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced run: counts, inclusive and self seconds.

    A name's `_s` value is the summed inclusive duration of its spans unless
    the metric says `self`. Solver steps and oracle calls are counted only
    inside `simplex_opt.solve_weights`, so `oracle_calls_per_step` is the
    solver's own ratio.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    in_solve = [False] * len(spans)
    solve_oracle_calls = md_steps = 0
    md_step_s = honest_softmax_s = 0.0
    for index, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + own[index]
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        in_solve[index] = parent >= 0 and (
            in_solve[parent] or parent_name == "simplex_opt.solve_weights"
        )
        if in_solve[index] and name.endswith("Oracle.evaluate"):
            solve_oracle_calls += 1
        if in_solve[index] and name == "simplex_opt.entropic_md_step":
            md_steps += 1
            md_step_s += end - start
        if name == "tasks.softmax_loss_grad" and parent_name == "engine.run_round":
            honest_softmax_s += end - start

    def summed(table: dict, suffix: str) -> float:
        return sum(v for k, v in table.items() if k.endswith(suffix))

    return {
        "streams.substream_calls": calls.get("streams.substream", 0),
        "streams.substream_s": total.get("streams.substream", 0.0),
        "engine.honest_basis_s": total.get("engine.RunState.honest_gradient_basis", 0.0),
        "engine.run_round_self_s": self_total.get("engine.run_round", 0.0),
        "engine.state_metrics_s": total.get("engine.RunState.state_metrics", 0.0),
        "engine.setup_state_s": total.get("engine.RunState.__init__", 0.0),
        "tasks.generate_s": total.get("tasks.generate_mean_shards", 0.0)
        + total.get("tasks.softmax_task_generate", 0.0),
        "simplex_opt.solve_calls": calls.get("simplex_opt.solve_weights", 0),
        "simplex_opt.solve_s": total.get("simplex_opt.solve_weights", 0.0),
        "simplex_opt.solve_self_s": self_total.get("simplex_opt.solve_weights", 0.0),
        "simplex_opt.md_step_calls": md_steps,
        "simplex_opt.md_step_s": md_step_s,
        "simplex_opt.oracle_calls_per_step": solve_oracle_calls / md_steps if md_steps else 0.0,
        "tasks.oracle_calls": sum(v for k, v in calls.items() if k.endswith("Oracle.evaluate")),
        "tasks.oracle_s": summed(total, "Oracle.evaluate"),
        "tasks.honest_softmax_s": honest_softmax_s,
        "aggregators.meritfed_s": total.get("aggregators.weights_meritfed", 0.0),
        "aggregators.fedadp_s": total.get("aggregators.weights_fedadp", 0.0),
        "aggregators.tawt_s": total.get("aggregators.weights_tawt", 0.0),
        "aggregators.fedavg_s": total.get("aggregators.weights_fedavg_sampled", 0.0),
        "aggregators.apply_update_s": total.get("aggregators.apply_update", 0.0),
        "aggregators.angle_calls": calls.get("aggregators.angle", 0),
        "clients.byzantine_calls": calls.get("clients.byzantine_messages", 0),
        "clients.byzantine_s": total.get("clients.byzantine_messages", 0.0),
        "cli.self_s": self_total.get("cli.run_config", 0.0),
    }


def round_durations(names: list[str], spans: list[Span]) -> list[float]:
    """Wall seconds of every `engine.run_round` call, in call order."""
    name_id = names.index("engine.run_round") if "engine.run_round" in names else -1
    return [end - start for n, start, end, _ in spans if n == name_id]


def main(argv: list[str]) -> int:
    spans_path, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE RUN_ID -- <meritfed arguments>")
    recorder = Recorder(run_id)
    recorder.install()
    from meritfed import cli

    try:
        code = cli.main(cli_args)
    finally:
        recorder.uninstall()
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
