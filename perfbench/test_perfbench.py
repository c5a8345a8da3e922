"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import csv
import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import outcheck  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = outcheck.workload("mean-mu-0.1", 3)


def _run_tiny(out_dir, recorder=None):
    from meritfed import cli

    if recorder is not None:
        recorder.install()
    try:
        code = cli.main(["run", "--preset", TINY.preset, "--seed", "0", "--set", "seeds=1",
                         "--set", f"rounds={TINY.rounds}", "--out", str(out_dir)])
    finally:
        if recorder is not None:
            recorder.uninstall()
    assert code == 0


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    _run_tiny(out)
    return out


def test_self_times_on_synthetic_tree():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (3, 5.0, 9.0, 0)]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_on_synthetic_tree():
    names = [
        "cli.run_config", "cli.run_experiment", "engine.run_round",
        "simplex_opt.solve_weights", "tasks.MeanValidationOracle.evaluate",
        "simplex_opt.entropic_md_step", "tasks.softmax_loss_grad",
    ]
    spans = [
        (0, 0.0, 20.0, -1),   # run_config, self 20 - 18 = 2
        (1, 1.0, 19.0, 0),    # run_experiment
        (2, 2.0, 12.0, 1),    # run_round
        (3, 3.0, 9.0, 2),     # solve_weights, self 6 - 4 = 2
        (4, 3.5, 4.5, 3),     # evaluate inside the solver
        (5, 5.0, 6.0, 3),     # md step
        (4, 6.5, 7.5, 3),     # evaluate inside the solver
        (6, 7.5, 8.5, 3),     # softmax under the solver: not an honest gradient
        (6, 10.0, 11.0, 2),   # softmax called from run_round: honest gradient
        (4, 11.0, 11.5, 2),   # evaluate outside the solver
    ]
    m = tracer.layer_metrics(names, spans)
    assert m["cli.self_s"] == 2.0
    assert m["simplex_opt.solve_calls"] == 1
    assert m["simplex_opt.solve_s"] == 6.0
    assert m["simplex_opt.solve_self_s"] == 2.0
    assert m["simplex_opt.md_step_calls"] == 1
    assert m["simplex_opt.oracle_calls_per_step"] == 2.0
    assert m["tasks.oracle_calls"] == 3
    assert m["tasks.oracle_s"] == 2.5
    assert m["tasks.honest_softmax_s"] == 1.0
    assert m["engine.run_round_self_s"] == 10.0 - 6.0 - 1.0 - 0.5
    assert tracer.round_durations(names, spans) == [10.0]


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert tracer.percentile(values, 50) == 50.0
    assert tracer.percentile(values, 99) == 99.0
    assert tracer.percentile([7.0], 99) == 7.0


def _snapshot():
    """Every attribute of the layer modules, their classes and the package."""
    owners = [importlib.import_module("meritfed")]
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"meritfed.{layer}")
        owners.append(module)
        owners.extend(v for v in vars(module).values() if inspect.isclass(v))
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_every_wrapper_restores_the_original():
    from meritfed import aggregators, engine, streams

    before = _snapshot()
    originals = (streams.substream, engine.weights_fedadp, aggregators.solve_weights,
                 engine.RunState.__init__, engine.RunState.honest_gradient_basis)
    recorder = tracer.Recorder("test")
    recorder.install()
    try:
        patched = (streams.substream, engine.weights_fedadp, aggregators.solve_weights,
                   engine.RunState.__init__, engine.RunState.honest_gradient_basis)
        assert all(p is not o for p, o in zip(patched, originals))
        assert engine.weights_fedadp is aggregators.weights_fedadp
    finally:
        recorder.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_run_records_spans_and_keeps_output_bytes(tmp_path, tiny_run):
    recorder = tracer.Recorder("test")
    _run_tiny(tmp_path, recorder)
    assert outcheck.file_hashes(tmp_path) == outcheck.file_hashes(tiny_run)
    names = recorder.names
    m = tracer.layer_metrics(names, recorder.spans)
    assert m["simplex_opt.solve_calls"] == 2 * TINY.rounds  # meritfed-md and meritfed-smd
    assert m["aggregators.angle_calls"] == 2 * TINY.clients * TINY.rounds  # fedadp and tawt
    assert len(tracer.round_durations(names, recorder.spans)) == TINY.rounds
    path = tmp_path / "spans.pickle"
    recorder.dump(str(path))
    assert tracer.load(str(path))["spans"] == recorder.spans


def test_output_check_accepts_a_good_run(tiny_run):
    assert outcheck.check_outputs(str(tiny_run), TINY, 0) == []


def _copy_with(tiny_run, tmp_path, name, edit):
    for other in outcheck.OUTPUT_FILES:
        with open(os.path.join(tiny_run, other), newline="") as handle:
            text = handle.read()
        if other == name:
            rows = list(csv.reader(text.splitlines()))
            edit(rows)
            text = "".join(",".join(row) + "\n" for row in rows)
        with open(tmp_path / other, "w", newline="") as handle:
            handle.write(text)
    return str(tmp_path)


def test_output_check_rejects_a_corrupted_metrics_row(tiny_run, tmp_path):
    def corrupt(rows):
        rows[1][rows[0].index("dist_sq")] = "nan"

    problems = outcheck.check_outputs(_copy_with(tiny_run, tmp_path, "metrics.csv", corrupt), TINY, 0)
    assert any("dist_sq" in p for p in problems)


def test_output_check_rejects_a_missing_row(tiny_run, tmp_path):
    problems = outcheck.check_outputs(
        _copy_with(tiny_run, tmp_path, "metrics.csv", lambda rows: rows.pop()), TINY, 0
    )
    assert any("rows, expected" in p for p in problems)


def test_output_check_rejects_weights_off_the_simplex(tiny_run, tmp_path):
    def scale(rows):
        column = rows[0].index("weight")
        rows[1][column] = repr(float(rows[1][column]) + 1e-6)

    problems = outcheck.check_outputs(_copy_with(tiny_run, tmp_path, "weights.csv", scale), TINY, 0)
    assert any("sum to" in p for p in problems)


def test_output_check_rejects_a_negative_weight(tiny_run, tmp_path):
    def negate(rows):
        rows[1][rows[0].index("weight")] = "-0.5"

    problems = outcheck.check_outputs(_copy_with(tiny_run, tmp_path, "weights.csv", negate), TINY, 0)
    assert any("nonnegative" in p for p in problems)


def test_workload_shape_comes_from_the_preset():
    assert TINY.task == "mean" and TINY.clients == 150 and len(TINY.methods) == 8
    assert TINY.log_every == 10
    byzantine = outcheck.workload("byzantine-rn", run.ROUNDS["byzantine-rn"])
    assert byzantine.clients == 55 and byzantine.methods == ("meritfed-md", "sgd-full", "sgd-ideal")


def test_a_program_that_fails_in_setup_is_a_failed_run(tmp_path):
    # A copy of the package whose RunState cannot be built: the set-up probe
    # and every run fail, and the benchmark still prints its result.
    src = tmp_path / "src" / "meritfed"
    shutil.copytree(os.path.join(os.path.dirname(HERE), "src", "meritfed"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "engine.py", "a") as handle:
        handle.write("\n\ndef _broken(self, *args, **kwargs):\n"
                     "    raise RuntimeError('broken on purpose')\n\n\n"
                     "RunState.__init__ = _broken\n")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "byzantine-rn",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == run.MIN_RUNS
    assert result["metrics"] == {}
    assert any(line.startswith("fail_ratio") and " 1 " in line for line in lines)
    assert "broken on purpose" in proc.stdout
