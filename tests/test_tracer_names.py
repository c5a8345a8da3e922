"""The span names the benchmark's tracer reads name code that exists.

`perfbench/tracer.py` sums spans by name, and a name that no longer resolves
reads 0 without any error. This test parses the tracer (it imports and edits
nothing under perfbench/) and resolves each span name that `layer_metrics`
and `round_durations` look up to an attribute of `meritfed.<layer>`.
"""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")
READERS = ("layer_metrics", "round_durations")

# Names the tracer reads whose code is gone; each per-layer key built on one reads 0.
DEAD = {
    "aggregators.angle",
    "aggregators.weights_meritfed",
    "aggregators.weights_fedadp",
    "aggregators.weights_tawt",
    "aggregators.weights_fedavg_sampled",
    "engine.RunState.honest_gradient_basis",
    "tasks.softmax_loss_grad",
}


def _text(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def span_names() -> set[str]:
    """Strings the readers pass to `.get(...)` or `names.index`, compare with `==`, or test with `in names`."""
    with open(TRACER, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    readers = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in READERS]
    assert [reader.name for reader in readers] == list(READERS)
    found = set()
    for node in (child for reader in readers for child in ast.walk(reader)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
            if node.func.attr == "get" or (node.func.attr == "index" and ast.unparse(node.func.value) == "names"):
                found.add(_text(node.args[0]))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, ast.Eq):
                    found.update((_text(left), _text(right)))
                elif isinstance(op, ast.In) and ast.unparse(right) == "names":
                    found.add(_text(left))
    return found - {None}


def resolves(name: str) -> bool:
    layer, *path = name.split(".")
    owner = importlib.import_module(f"meritfed.{layer}")
    for attr in path:
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_only_the_known_dead_span_names_fail_to_resolve():
    names = span_names()
    assert {"streams.substream", "cli.run_config", "engine.run_round", "simplex_opt.solve_weights"} <= names
    assert {name for name in names if not resolves(name)} == DEAD
