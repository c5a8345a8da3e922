"""Tests for config parsing, presets, and the command-line entry point.

Oracles: pinned preset values, byte comparison of rerun outputs, and direct
replay of written CSV numbers against an in-process run.
"""

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritfed import cli
from meritfed.cli import (
    CONFIG_SCHEMA,
    METRICS_COLUMNS,
    OUT_DIR_ENV,
    OUTPUT_FILES,
    PRESETS,
    RunConfig,
    THEOREM_COLUMNS,
    WEIGHTS_COLUMNS,
    _fixed_rules,
    _method_from_label,
    build_experiment,
    main,
    parse_config,
    run_config,
)
from meritfed.errors import ConfigError

TINY_OVERRIDES = [
    "group1_count=2",
    "group2_count=1",
    "group3_count=1",
    "shard_size=50",
    "batch_size=10",
    "rounds=3",
    "validation_size=200",
    "methods=meritfed-md,sgd-full",
    "md_steps=5",
    "seeds=2",
]


def tiny_config(extra=()):
    return parse_config("", preset="mean-mu-0.1", overrides=TINY_OVERRIDES + list(extra))


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def emit_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(emit_config(c)) equals c."""
    lines = []
    if config.preset is not None:
        lines.append(f"preset = {config.preset}")
    for key, kind in CONFIG_SCHEMA.items():
        value = getattr(config, key)
        text = ",".join(value) if typing.get_origin(kind) is tuple else cli._format_cell(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def run_python(args, timeout=120):
    """Run `python ARGS` in a fresh process with this checkout's package on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestSchema:
    def test_schema_matches_config_fields(self):
        field_names = {f.name for f in dataclasses.fields(RunConfig)} - {"preset"}
        assert field_names == set(CONFIG_SCHEMA)

    def test_every_preset_expands_to_valid_config(self):
        for name in PRESETS:
            config = parse_config("", preset=name)
            assert config.preset == name
            build_experiment(config, master_seed=0)


# sha256 of json.dumps(PRESETS[name](), sort_keys=True) for every preset: a
# slipped value, or a value of another type (100 for 100.0), changes it.
PRESET_DIGESTS = {
    "mean-mu-0.1": "4df78165e1e0573e09143a65e868d518a944763220e0ae0bd8ae73a575800caa",
    "mean-mu-0.01": "bbb2c8396f835da11f6901924e618edb3a99aa4a1d966ee2d1c62beab759affc",
    "mean-mu-0.001": "28b9a2219a8b6a3d2423107c573790be05b33ec665869fdd15e362f03c8d190e",
    "theorem-mean": "59afdac342fd469efd1f94c03b5d6995590802841871d1db0f4e93775fad0d2b",
    "byzantine-bf": "0575bfa40da367765eb60a675fb674661bb6095d2d5847c4aa5c4014e615fc14",
    "byzantine-rn": "ce86a3c96542e81bccad1aa7ca6643e289b676e0f079631d8d75d4e55c267f1a",
    "byzantine-ipm": "79389627f2a97fe523c2ea19cd49887bbcc57183912b7437f62bd3f2bfb8336d",
    "byzantine-alie": "da86f98ddc9c8c85e1ace89370e9f8d79ad2efb18846b4b39c6771fb6b19909c",
    "softmax-alpha-0.5": "4afd508dc122b2c338367a16728865df53d9ab009da6ab18c71cb0763b247cd3",
    "softmax-alpha-0.99": "2d803d75b82466c3a87e669eb9d925926ecc885459ce32eb786147c05932f24e",
}


class TestPresetPins:
    @pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
    def test_preset_values_are_pinned(self, name):
        assert set(PRESETS) == set(PRESET_DIGESTS)
        text = json.dumps(PRESETS[name](), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PRESET_DIGESTS[name]

    def test_population_mean_preset(self):
        c = parse_config("", preset="mean-mu-0.1")
        assert (c.group1_count, c.group2_count, c.group3_count) == (5, 95, 50)
        assert c.dim == 10
        assert c.group2_shift == 0.1
        assert c.model_step == 0.01
        assert c.rounds == 2000
        assert c.shard_size == 1000 and c.batch_size == 100
        assert c.md_steps == 50 and c.md_lr == 12.5
        assert c.seeds == 3
        assert "meritfed-md" in c.methods and "sgd-ideal" in c.methods
        assert build_experiment(c).n_clients == 150

    def test_small_shift_preset_differs_only_where_expected(self):
        a = parse_config("", preset="mean-mu-0.1")
        b = parse_config("", preset="mean-mu-0.001")
        assert b.group2_shift == 0.001
        assert b.md_lr == 3.5
        same = set(CONFIG_SCHEMA) - {"group2_shift", "md_lr"}
        for key in same:
            assert getattr(a, key) == getattr(b, key), key

    def test_corrupted_worker_preset(self):
        c = parse_config("", preset="byzantine-ipm")
        assert (c.group1_count, c.group2_count, c.group3_count) == (5, 0, 0)
        assert c.byzantine_count == 50
        assert c.attack_kind == "ipm" and c.attack_epsilon == 0.1
        assert c.rounds == 1000 and c.md_steps == 10 and c.md_lr == 3.5
        assert build_experiment(c).n_clients == 55

    def test_classification_preset(self):
        c = parse_config("", preset="softmax-alpha-0.99")
        assert c.task == "softmax"
        assert (c.group1_count, c.group2_count, c.group3_count) == (1, 10, 9)
        assert c.mixing_alpha == 0.99
        assert c.model_step == 0.05 and c.rounds == 300
        assert c.methods == ("meritfed-md", "sgd-ideal")


class TestParsing:
    def test_empty_text_without_preset_lists_all_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        message = str(err.value)
        assert "missing required keys" in message
        for key in CONFIG_SCHEMA:
            assert key in message

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'granularity'"):
            parse_config("# comment\ngranularity = 3\n", preset="mean-mu-0.1")

    def test_duplicate_key_reports_both_lines(self):
        text = "rounds = 5\nrounds = 6\n"
        with pytest.raises(ConfigError, match="line 2: duplicate key 'rounds'"):
            parse_config(text, preset="mean-mu-0.1")
        text = "preset = mean-mu-0.1\nrounds = 5\npreset = byzantine-rn\n"
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'preset' \(first set on line 1\)"):
            parse_config(text)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1: bad value for 'rounds'"):
            parse_config("rounds = soon\n", preset="mean-mu-0.1")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1: expected key = value"):
            parse_config("rounds 5\n", preset="mean-mu-0.1")

    def test_unknown_preset_lists_known_names(self):
        with pytest.raises(ConfigError, match="known presets:"):
            parse_config("", preset="mean-mu-5")

    def test_file_keys_override_preset(self):
        c = parse_config("rounds = 7\n", preset="mean-mu-0.1")
        assert c.rounds == 7

    def test_preset_key_inside_file(self):
        c = parse_config("preset = mean-mu-0.01\nrounds = 9\n")
        assert c.preset == "mean-mu-0.01"
        assert c.group2_shift == 0.01
        assert c.rounds == 9

    def test_overrides_apply_last(self):
        c = parse_config("rounds = 7\n", preset="mean-mu-0.1", overrides=["rounds=11"])
        assert c.rounds == 11

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError, match="--set entry 1"):
            parse_config("", preset="mean-mu-0.1", overrides=["rounds"])

    def test_boolean_parsing(self):
        c = parse_config("", preset="theorem-mean", overrides=["exact_gradients=true"])
        assert c.exact_gradients is True
        with pytest.raises(ConfigError, match="bad value for 'exact_gradients'"):
            parse_config("", preset="theorem-mean", overrides=["exact_gradients=yes"])

    def test_emit_parse_round_trip(self):
        for name in PRESETS:
            config = parse_config("", preset=name)
            assert parse_config(emit_config(config)) == config

    def test_emit_parse_round_trip_with_overrides(self):
        config = tiny_config(extra=["md_smoothing=1e-7", "group2_shift=0.12345678901234567"])
        assert parse_config(emit_config(config)) == config

    def test_validation_catches_inconsistent_config(self):
        with pytest.raises(ConfigError):
            parse_config("", preset="mean-mu-0.1", overrides=["byzantine_count=5"])
        with pytest.raises(ConfigError):
            parse_config("", preset="mean-mu-0.1", overrides=["batch_size=5000"])
        with pytest.raises(ConfigError, match="attack_kind must be one of .*, got 'mirror'"):
            parse_config(
                "",
                preset="byzantine-bf",
                overrides=["attack_kind=mirror"],
            )


def rule_for(label, config):
    """The rule a method label names, picked from the config's table of fixed rules."""
    return _method_from_label(label, _fixed_rules(config))


class TestMethodLabels:
    def test_fixed_rules_keyed_by_label(self):
        rules = _fixed_rules(parse_config("", preset="mean-mu-0.1"))
        assert list(rules) == [
            "meritfed-md", "meritfed-smd", "meritfed-zo", "sgd-full", "sgd-ideal", "fedadp", "tawt"
        ]
        assert all(rule.label == label for label, rule in rules.items())

    def test_solver_step_is_quoted_per_unit_of_model_step(self):
        config = parse_config("", preset="mean-mu-0.1")
        method = rule_for("meritfed-md", config)
        assert method.md.step_size == config.md_lr / config.model_step

    def test_model_step_checked_before_solver_step(self):
        for preset in ("mean-mu-0.1", "softmax-alpha-0.5"):
            for step in ("0", "-0.5"):
                with pytest.raises(ConfigError, match=f"model_step must be positive, got {float(step)}"):
                    parse_config("", preset=preset, overrides=[f"model_step={step}"])

    def test_md_lr_checked_before_solver_step(self):
        # md_lr is named with the value given, not as the solver step it divides into.
        for rate in ("0", "-1"):
            with pytest.raises(ConfigError, match=f"md_lr must be positive, got {float(rate)}"):
                parse_config("", preset="mean-mu-0.1", overrides=[f"md_lr={rate}"])

    def test_minibatch_only_for_stochastic_variant(self):
        config = parse_config("", preset="mean-mu-0.1")
        assert rule_for("meritfed-md", config).md.minibatch == 0
        assert rule_for("meritfed-smd", config).md.minibatch == config.smd_minibatch
        assert rule_for("meritfed-zo", config).md.estimator == "zeroth-order"

    def test_oracle_set_is_target_group(self):
        config = parse_config("", preset="mean-mu-0.1")
        method = rule_for("sgd-ideal", config)
        assert method.group_size == 5

    def test_sampled_count_from_suffix(self):
        config = parse_config("", preset="mean-mu-0.1")
        assert rule_for("fedavg-7", config).sample_count == 7
        with pytest.raises(ConfigError, match="bad fedavg sample count"):
            rule_for("fedavg-seven", config)

    @pytest.mark.parametrize("label", ["fedavg-5_0", "fedavg-+5", "fedavg-05", "fedavg-\u0665"])
    def test_sample_count_is_written_as_str_does(self, label, tmp_path, capsys):
        # int() reads each of these suffixes, but only str(k) in ASCII digits
        # names the k-client rule: one label per rule.
        out = tmp_path / "fedavg"
        args = ["run", "--preset", "mean-mu-0.1", "--set", "seeds=1", "--set", "rounds=1"]
        assert main(args + ["--set", f"methods={label}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: bad fedavg sample count in method label {label!r}\n"
        assert not out.exists()

    def test_unknown_label_rejected(self):
        config = parse_config("", preset="mean-mu-0.1")
        with pytest.raises(ConfigError, match="unknown method label"):
            rule_for("krum", config)

    def test_tawt_step_falls_back_to_solver_rate(self):
        config = parse_config("", preset="mean-mu-0.1")
        assert config.tawt_step == 0.0
        assert rule_for("tawt", config).step_size == config.md_lr
        custom = dataclasses.replace(config, tawt_step=2.5)
        assert rule_for("tawt", custom).step_size == 2.5


class TestBuildExperiment:
    def test_spec_fields_mirror_config(self):
        config = tiny_config()
        spec = build_experiment(config, master_seed=42)
        assert spec.group_counts == (2, 1, 1)
        assert spec.master_seed == 42
        assert spec.rounds == 3
        assert spec.attack.kind == "none"
        assert [m.label for m in spec.methods] == ["meritfed-md", "sgd-full"]

    def test_attack_built_only_with_byzantine_clients(self):
        config = parse_config(
            "", preset="byzantine-alie", overrides=["rounds=2", "validation_size=100"]
        )
        spec = build_experiment(config)
        assert spec.attack is not None
        assert spec.attack.kind == "alie" and spec.attack.z == 100.0


class TestRunOutputs:
    @pytest.fixture()
    def out_dir(self, tmp_path):
        return str(tmp_path / "out")

    def test_files_written_with_expected_headers(self, out_dir):
        run_config(tiny_config(), out_dir)
        with open(os.path.join(out_dir, "metrics.csv"), encoding="utf-8") as handle:
            assert handle.readline().rstrip("\n") == ",".join(METRICS_COLUMNS)
        with open(os.path.join(out_dir, "weights.csv"), encoding="utf-8") as handle:
            assert handle.readline().rstrip("\n") == ",".join(WEIGHTS_COLUMNS)
        with open(os.path.join(out_dir, "theorem.csv"), encoding="utf-8") as handle:
            assert handle.readline().rstrip("\n") == ",".join(THEOREM_COLUMNS)
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["preset"] == "mean-mu-0.1"
        assert manifest["seeds"] == [0, 1]
        assert len(manifest["mixture_directions"]["0"]) == 10

    def test_rows_cover_seeds_rounds_methods(self, out_dir):
        run_config(tiny_config(), out_dir)
        with open(os.path.join(out_dir, "metrics.csv"), encoding="utf-8") as handle:
            rows = [line.rstrip("\n").split(",") for line in handle][1:]
        seeds = {row[0] for row in rows}
        rounds = {row[1] for row in rows}
        methods = {row[2] for row in rows}
        assert seeds == {"0", "1"}
        assert rounds == {"0", "1", "2", "3"}
        assert methods == {"meritfed-md", "sgd-full"}
        assert len(rows) == 2 * 4 * 2

    def test_weight_rows_sum_to_one_per_round(self, out_dir):
        run_config(tiny_config(), out_dir)
        sums: dict = {}
        with open(os.path.join(out_dir, "weights.csv"), encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                seed, rnd, method, client, weight = line.rstrip("\n").split(",")
                key = (seed, rnd, method)
                sums[key] = sums.get(key, 0.0) + float(weight)
                assert float(weight) >= 0.0
        assert sums
        for key, total in sums.items():
            assert abs(total - 1.0) <= 1e-9, key

    def test_written_numbers_round_trip_at_full_precision(self, out_dir):
        # .17g is lossless for doubles: re-reading the final validation loss
        # must reproduce the in-process float bit for bit.
        from meritfed.engine import run_experiment

        config = tiny_config()
        run_config(config, out_dir)
        spec = build_experiment(config, master_seed=0)
        result = run_experiment(spec)
        expected = {
            (m.round_index, m.method): m.val_loss for m in result.metrics
        }
        with open(os.path.join(out_dir, "metrics.csv"), encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                cells = line.rstrip("\n").split(",")
                if cells[0] != "0":
                    continue
                key = (int(cells[1]), cells[2])
                assert float(cells[6]) == expected[key]

    @pytest.mark.parametrize(
        "preset, overrides",
        [("mean-mu-0.1", TINY_OVERRIDES), ("softmax-alpha-0.5", ["seeds=1", "rounds=3", "validation_size=200"])],
    )
    def test_every_record_field_is_written_under_its_column(self, preset, overrides, out_dir):
        # Each metrics.csv and theorem.csv cell, read by its header name, is
        # its record's field: blank for None, true/false for a bool, .17g for
        # a float.
        from meritfed.engine import ConvergenceRow, RoundMetrics, run_experiment

        config = parse_config("", preset=preset, overrides=overrides)
        run_config(config, out_dir)
        result = run_experiment(build_experiment(config, master_seed=0))
        assert result.metrics and bool(result.convergence) == (config.task == "mean")  # no softmax bounds

        def cell(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            return format(value, ".17g") if isinstance(value, float) else str(value)

        for name, records, record_type in (
            ("metrics.csv", result.metrics, RoundMetrics),
            ("theorem.csv", result.convergence, ConvergenceRow),
        ):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                header, *lines = handle.read().splitlines()
            rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
            rows = [row for row in rows if row["seed"] == "0"]
            assert len(rows) == len(records)
            for row, record in zip(rows, records):
                for field in dataclasses.fields(record_type):
                    column = "round" if field.name == "round_index" else field.name
                    assert row[column] == cell(getattr(record, field.name)), (name, column)

    def test_weight_lines_write_each_cell_as_format_does(self):
        # A vector's lines fill one %-template; a label holding % or { is
        # still written as it is.
        vector = np.array([0.1, 1 / 3, 0.0, -0.0, 5e-324, np.nan, np.inf])
        rows = [(4, "fedavg-%d {0}%%s", vector), (5, "sgd-full", vector[:2])]
        expected = [
            f"7,{t},{label},{client},{format(value, '.17g')}\n"
            for t, label, v in rows
            for client, value in enumerate(v.tolist())
        ]
        assert "".join(cli._weights_lines(7, rows)) == "".join(expected)

    def test_rerun_is_byte_identical(self, tmp_path):
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        run_config(tiny_config(), dir_a)
        run_config(tiny_config(), dir_b)
        for name in ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json"):
            assert read_bytes(os.path.join(dir_a, name)) == read_bytes(
                os.path.join(dir_b, name)
            ), name

    def test_parallel_workers_match_serial_bytes(self, tmp_path):
        dir_a, dir_b = str(tmp_path / "serial"), str(tmp_path / "parallel")
        run_config(tiny_config(), dir_a, workers=1)
        run_config(tiny_config(), dir_b, workers=2)
        for name in ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json"):
            assert read_bytes(os.path.join(dir_a, name)) == read_bytes(
                os.path.join(dir_b, name)
            ), name

    def test_pool_gets_no_more_workers_than_seeds(self, tmp_path, monkeypatch):
        # A process pool starts every worker it is given at the first submit.
        # The fake records the worker count asked for and runs the seeds here.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return list(map(fn, *iterables))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        serial, pooled = str(tmp_path / "serial"), str(tmp_path / "pooled")
        run_config(tiny_config(), serial, workers=1)
        run_config(tiny_config(), pooled, workers=64)
        assert sizes == [2]
        for name in ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json"):
            assert read_bytes(os.path.join(serial, name)) == read_bytes(
                os.path.join(pooled, name)
            ), name

    def test_no_carriage_returns(self, out_dir):
        run_config(tiny_config(), out_dir)
        for name in ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json"):
            data = read_bytes(os.path.join(out_dir, name))
            assert b"\r" not in data
            assert data.endswith(b"\n")

    def test_memory_does_not_grow_with_the_seed_count(self, tmp_path):
        # Each seed's rows are written as soon as it has run, so three seeds
        # peak about where one does; holding every seed's rows until the end
        # doubles the peak at this size.
        overrides = [
            "rounds=30", "shard_size=200", "batch_size=20", "validation_size=1000",
            "weight_log_every=1", "methods=sgd-full,fedavg-5",
        ]
        peaks = []
        for seeds in (1, 3):
            config = parse_config("", preset="mean-mu-0.1", overrides=overrides + [f"seeds={seeds}"])
            tracemalloc.start()
            try:
                run_config(config, str(tmp_path / f"seeds-{seeds}"))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestMainEntryPoint:
    def run_args(self, out_dir, extra=()):
        args = ["run", "--preset", "mean-mu-0.1", "--out", out_dir]
        for item in TINY_OVERRIDES:
            args += ["--set", item]
        return args + list(extra)

    def test_successful_run_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "cli-out")
        assert main(self.run_args(out)) == 0
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert out in capsys.readouterr().out

    def test_seed_flag_overrides_base_seed(self, tmp_path):
        out = str(tmp_path / "seeded")
        assert main(self.run_args(out, extra=["--seed", "17"])) == 0
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as handle:
            assert json.load(handle)["seeds"] == [17, 18]

    def test_config_error_exit_two(self, tmp_path, capsys):
        assert main(["run", "--preset", "no-such-preset", "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert (
            main(["run", "--preset", "mean-mu-0.1", "--set", "rounds=x", "--out", str(tmp_path)])
            == 2
        )
        assert main(self.run_args(str(tmp_path), extra=["--workers", "0"])) == 2
        # Settings that parse but cannot run: rejected before round 0.
        unrunnable = [
            ("mean-mu-0.1", ["md_lr=-1"]),
            ("mean-mu-0.1", ["md_steps=0"]),
            ("mean-mu-0.1", ["md_smoothing=0"]),
            ("mean-mu-0.1", ["methods=fedavg-500"]),
            ("mean-mu-0.1", ["smd_minibatch=200000"]),
            ("theorem-mean", ["validation_mode=population", "methods=meritfed-smd"]),
            ("softmax-alpha-0.5", ["n_classes=20"]),
            ("softmax-alpha-0.5", ["n_classes=6"]),
            ("softmax-alpha-0.5", ["test_size=0"]),
            # Softmax keys are checked whatever the task.
            ("mean-mu-0.1", ["test_size=0"]),
            ("mean-mu-0.1", ["n_classes=0"]),
            ("mean-mu-0.1", ["mixing_alpha=0"]),
            ("byzantine-alie", ["group1_count=1"]),
            # Attack parameters are checked with or without attackers.
            ("mean-mu-0.1", ["attack_sigma=-1"]),
            ("mean-mu-0.1", ["attack_epsilon=0"]),
            ("mean-mu-0.1", ["attack_z=-5"]),
            ("mean-mu-0.1", ["methods=tawt,sgd-full", "md_lr=-1"]),
            ("mean-mu-0.1", ["methods=tawt,sgd-full", "tawt_step=-1"]),
            # The solver step is md_lr / model_step: the model step is checked first.
            ("mean-mu-0.1", ["model_step=0"]),
            ("softmax-alpha-0.5", ["model_step=0"]),
            ("mean-mu-0.1", ["model_step=-0.5"]),
            # Solver and tawt parameters are checked with or without their methods.
            ("mean-mu-0.1", ["methods=sgd-full", "md_steps=0"]),
            ("mean-mu-0.1", ["methods=sgd-full", "md_lr=-1"]),
            ("mean-mu-0.1", ["methods=sgd-full", "md_smoothing=-1"]),
            ("mean-mu-0.1", ["methods=sgd-full", "smd_minibatch=-1"]),
            ("mean-mu-0.1", ["methods=sgd-full", "tawt_step=-1"]),
            # fedadp's Gompertz alpha must be positive; 0 would make it sgd-full.
            ("mean-mu-0.1", ["methods=fedadp", "fedadp_alpha=-1"]),
            ("mean-mu-0.1", ["methods=sgd-full", "fedadp_alpha=0"]),
            # A negative master seed has no stream entropy words.
            ("byzantine-rn", ["--seed -1"]),
            ("byzantine-rn", ["base_seed=-3"]),
            # More elements than numpy can index (and no memory can hold).
            ("mean-mu-0.1", ["dim=99999999999999999999"]),
            ("mean-mu-0.1", ["group1_count=4611686018427387904"]),
        ]
        float_keys = [key for key, kind in CONFIG_SCHEMA.items() if kind is float]
        assert len(float_keys) == 10
        unrunnable += [
            ("byzantine-rn", [f"{key}={value}"])
            for key in float_keys
            for value in ("nan", "inf", "-inf")
        ]
        out = tmp_path / "unrunnable"
        for preset, overrides in unrunnable:
            capsys.readouterr()
            args = ["run", "--preset", preset, "--out", str(out)]
            for item in ["seeds=1", "rounds=2"] + overrides:
                args += item.split() if item.startswith("--") else ["--set", item]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(args) == 2, overrides
            assert not caught, (overrides, [str(w.message) for w in caught])
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, (overrides, err)
            assert not out.exists()

    def test_runs_under_cprofile(self, tmp_path):
        # Under `python -m cProfile -m meritfed.cli` the module runs as
        # __main__ while sys.modules["__main__"] is cProfile's.
        profile = str(tmp_path / "p.prof")
        done = run_python(["-m", "cProfile", "-o", profile, "-m", "meritfed.cli", "run", "--list-presets"])
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == sorted(PRESET_DIGESTS)

    def test_process_entry_writes_what_run_config_writes(self, tmp_path):
        out = tmp_path / "entry"
        overrides = ["seeds=1", "rounds=2"]
        args = ["-m", "meritfed.cli", "run", "--preset", "mean-mu-0.1", "--out", str(out)]
        done = run_python(args + [arg for item in overrides for arg in ("--set", item)])
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"wrote {', '.join(OUTPUT_FILES)} to {out}"
        in_process = str(tmp_path / "in-process")
        run_config(parse_config("", preset="mean-mu-0.1", overrides=overrides), in_process)
        for name in OUTPUT_FILES:
            assert read_bytes(out / name) == read_bytes(os.path.join(in_process, name)), name

    def test_process_entry_config_error_exit_two(self, tmp_path):
        out = tmp_path / "bad"
        done = run_python(
            ["-m", "meritfed.cli", "run", "--preset", "mean-mu-0.1", "--set", "rounds=x", "--out", str(out)]
        )
        assert done.returncode == 2
        assert done.stderr.startswith("config error: ") and done.stderr.count("\n") == 1, done.stderr
        assert not out.exists()

    def test_entry_freezes_the_heap_after_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        assert cli.entry() == 3
        assert calls == ["main", "freeze"]

    def test_serial_run_imports_no_process_pool(self, tmp_path):
        # A fresh process: pytest may have imported concurrent.futures already.
        # One seed is a serial run whatever --workers says.
        script = "\n".join([
            "import sys",
            "from meritfed import cli",
            "for workers in ('1', '4'):",
            f"    args = {self.run_args(str(tmp_path / 'serial'))!r} + ['--workers', workers]",
            "    assert cli.main(args + ['--set', 'seeds=1', '--set', 'rounds=1']) == 0",
            "    assert 'concurrent.futures' not in sys.modules, workers",
        ])
        done = run_python(["-c", script])
        assert done.returncode == 0, done.stderr

    def test_unallocatable_run_exits_one(self, tmp_path, capsys):
        # 150 shards of 1e11 rows in dimension 10 are 1.07 PiB: numpy can
        # index them, but no address space can map them.
        out = tmp_path / "unallocatable"
        args = ["run", "--preset", "mean-mu-0.1", "--out", str(out)]
        for item in ("seeds=1", "rounds=1", "shard_size=100000000000"):
            args += ["--set", item]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "PiB" in err
        assert not out.exists()

    def test_overflowing_convergence_bound_run_exits_zero(self, tmp_path):
        # (1 - step * mu) ** rounds overflows: the PL bound is inf, as IEEE
        # arithmetic gives it, not an OverflowError. The run diverged, so its
        # inf gap holds no bound, not even that inf one.
        out = tmp_path / "overflow"
        args = ["-m", "meritfed.cli", "run", "--preset", "theorem-mean", "--out", str(out)]
        for item in ("seeds=1", "rounds=2", "methods=sgd-ideal", "model_step=1e155"):
            args += ["--set", item]
        done = run_python(args)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        with open(out / "theorem.csv", encoding="utf-8") as handle:
            header, row = handle.read().splitlines()
        report = dict(zip(header.split(","), row.split(",")))
        assert (report["final_gap"], report["pl_rhs"], report["pl_holds"]) == ("inf", "inf", "false")

    def test_softmax_reuse_train_draws_no_validation_set(self, tmp_path):
        # Reuse-train validates on client 0's shard, so validation_size is
        # unused and a size no memory could hold is never allocated.
        out = str(tmp_path / "reuse-train")
        args = ["run", "--preset", "softmax-alpha-0.5", "--out", out]
        for item in (
            "validation_mode=reuse-train",
            "validation_size=99999999999999999999",
            "seeds=1",
            "rounds=1",
        ):
            args += ["--set", item]
        assert main(args) == 0
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_zero_reference_gradient_run_exits_zero(self, tmp_path):
        # One exact step of size 1/2 lands on the optimum, where the target
        # gradient is zero; the similarity rules keep their weights.
        out = str(tmp_path / "zero-reference")
        args = ["run", "--preset", "theorem-mean", "--out", out]
        for item in (
            "exact_gradients=true",
            "methods=fedadp,tawt",
            "model_step=0.5",
            "seeds=1",
            "rounds=5",
        ):
            args += ["--set", item]
        assert main(args) == 0
        with open(os.path.join(out, "weights.csv"), encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.readlines()[1:]]
        assert {row[1] for row in rows} == {"0", "4"}  # first and last round logged
        assert all(float(row[4]) == 0.2 for row in rows)

    @pytest.mark.parametrize("methods", ["fedadp", "tawt,sgd-full"])
    def test_zero_client_gradient_run_exits_zero(self, tmp_path, methods):
        # Group 2's exact gradient at the start point is zero; it counts as
        # orthogonal to the target gradient instead of stopping the run.
        out = str(tmp_path / "zero-client")
        args = ["run", "--preset", "mean-mu-0.1", "--out", out]
        for item in (
            "exact_gradients=true",
            "validation_size=100",
            "group2_shift=1",
            f"methods={methods}",
            "seeds=1",
            "rounds=2",
        ):
            args += ["--set", item]
        assert main(args) == 0
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_failed_write_keeps_previous_outputs(self, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "atomic")
        assert main(self.run_args(out)) == 0
        names = ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json")
        before = {name: read_bytes(os.path.join(out, name)) for name in names}
        write_rows = cli._write_rows
        calls = []

        def failing_third_write(handle, lines):
            calls.append(handle.name)
            if len(calls) == 3:
                handle.write("partial")
                raise OSError("disk full")
            write_rows(handle, lines)

        monkeypatch.setattr(cli, "_write_rows", failing_third_write)
        capsys.readouterr()
        assert main(self.run_args(out, extra=["--seed", "5"])) == 1
        assert "disk full" in capsys.readouterr().err
        assert len(calls) == 3
        assert sorted(os.listdir(out)) == sorted(names)
        assert {name: read_bytes(os.path.join(out, name)) for name in names} == before

    @pytest.mark.parametrize("previous", [False, True], ids=["missing-dir", "previous-run"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_seed_failing_after_rows_were_written_keeps_outputs(
        self, tmp_path, monkeypatch, capsys, workers, previous
    ):
        # Seeds 0 and 1 have streamed their rows into the staged files when
        # seed 2 fails. Pool workers are forked with the patched function.
        out = str(tmp_path / "nested" / "streamed")
        names = ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json")
        if previous:
            assert main(self.run_args(out)) == 0
        before = {name: read_bytes(os.path.join(out, name)) for name in names} if previous else {}
        run_experiment = cli.run_experiment

        def fail_seed_two(spec):
            if spec.master_seed == 2:
                raise MemoryError("cannot allocate seed 2")
            return run_experiment(spec)

        monkeypatch.setattr(cli, "run_experiment", fail_seed_two)
        capsys.readouterr()
        extra = ["--set", "seeds=3", "--workers", str(workers)]
        assert main(self.run_args(out, extra=extra)) == 1
        err = capsys.readouterr().err
        assert err == "error: cannot allocate seed 2\n"
        if previous:
            assert sorted(os.listdir(out)) == sorted(names)
            assert {name: read_bytes(os.path.join(out, name)) for name in names} == before
        else:
            assert os.listdir(tmp_path) == []
        assert not [name for _, _, files in os.walk(tmp_path) for name in files if name.endswith(".tmp")]

    def test_missing_flags_exit_two(self, capsys):
        assert main(["run"]) == 2
        assert "provide --config" in capsys.readouterr().err

    def test_unreadable_config_exit_one(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.cfg")
        assert main(["run", "--config", missing]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_exit_two(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe\x00bad")
        done = run_python(["-m", "meritfed.cli", "run", "--config", str(path)])
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr == f"config error: config file {str(path)!r} is not UTF-8: invalid start byte at byte 0\n"

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfpreset = theorem-mean\nseeds = 1\nrounds = 2\n")
        out = str(tmp_path / "bom-out")
        assert main(["run", "--config", str(path), "--out", out]) == 0, capsys.readouterr().err
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as handle:
            assert json.load(handle)["preset"] == "theorem-mean"

    def test_config_file_plus_preset_flag(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rounds = 2\n" + "".join(f"{item}\n" for item in TINY_OVERRIDES if not item.startswith("rounds")), encoding="utf-8")
        out = str(tmp_path / "from-file")
        assert main(["run", "--config", str(path), "--preset", "mean-mu-0.1", "--out", out]) == 0
        with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as handle:
            rounds = {line.split(",")[1] for line in handle.readlines()[1:]}
        assert rounds == {"0", "1", "2"}

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        target = str(tmp_path / "env-out")
        monkeypatch.setenv(OUT_DIR_ENV, target)
        args = ["run", "--preset", "mean-mu-0.1"]
        for item in TINY_OVERRIDES:
            args += ["--set", item]
        assert main(args) == 0
        assert os.path.exists(os.path.join(target, "metrics.csv"))

    def test_out_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "ignored"))
        out = str(tmp_path / "explicit")
        assert main(self.run_args(out)) == 0
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert not os.path.exists(str(tmp_path / "ignored"))

    def test_list_presets(self, capsys):
        assert main(["run", "--list-presets"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == sorted(PRESETS)

    def test_cli_rerun_byte_identical(self, tmp_path):
        dir_a, dir_b = str(tmp_path / "one"), str(tmp_path / "two")
        assert main(self.run_args(dir_a)) == 0
        assert main(self.run_args(dir_b)) == 0
        for name in ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json"):
            assert read_bytes(os.path.join(dir_a, name)) == read_bytes(
                os.path.join(dir_b, name)
            ), name


# Small bases for the fuzz test, so that no drawn value makes a run large:
# every count, size and step count below is drawn from at most 12.
FUZZ_BASES = {
    "mean-mu-0.1": ["group1_count=2", "group2_count=1", "group3_count=1", "shard_size=12", "batch_size=4",
                    "validation_size=30", "methods=meritfed-md,sgd-full,fedadp", "md_steps=3"],
    "softmax-alpha-0.5": ["group1_count=1", "group2_count=1", "group3_count=1", "shard_size=12", "batch_size=4",
                          "validation_size=30", "test_size=30", "md_steps=3"],
    "byzantine-rn": ["byzantine_count=3", "shard_size=12", "batch_size=4", "validation_size=30", "md_steps=3"],
}
FUZZ_VALUES = st.integers(-2, 12).map(str) | st.sampled_from([
    "0.5", "1e-3", "-0.5", "1.5", "nan", "inf", "-inf", "true", "false", "x", "", ",",
    "mean", "softmax", "population", "reuse-train", "extra-validation", "none", "bit-flip", "random-noise",
    "ipm", "alie", "sgd-full", "sgd-ideal,fedavg-2", "meritfed-zo,meritfed-smd,tawt", "fedavg-x", "fedavg-99",
])


class TestCommandLineFuzz:
    """Any --set keys and values: a run, or one config error line (exit 2), or one error line (exit 1)."""

    @settings(max_examples=500, deadline=None)
    @given(
        preset=st.sampled_from(sorted(FUZZ_BASES)),
        changes=st.lists(st.tuples(st.sampled_from(sorted(CONFIG_SCHEMA)), FUZZ_VALUES), min_size=0, max_size=3),
    )
    def test_three_outcomes(self, preset, changes):
        out_dir = tempfile.mkdtemp()
        out = os.path.join(out_dir, "run")
        args = ["run", "--preset", preset, "--out", out]
        for item in ["seeds=1", "rounds=2"] + FUZZ_BASES[preset] + [f"{k}={v}" for k, v in changes]:
            args += ["--set", item]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # a diverging run may overflow first
                status = main(args)
            lines = stderr.getvalue().splitlines()
            if status == 0:
                assert lines == [] and os.path.exists(os.path.join(out, "metrics.csv")), changes
            else:
                prefix = {2: "config error: ", 1: "error: "}[status]
                assert len(lines) == 1 and lines[0].startswith(prefix), (changes, lines)
                assert not os.path.exists(out), changes
        finally:
            shutil.rmtree(out_dir)


# Config file lines: schema keys, preset names and the --set fuzz values,
# mixed with drawn text, around separators, comments, NULs and line breaks.
CONFIG_LINES = st.lists(
    st.tuples(
        st.sampled_from(["preset", "", " "] + sorted(CONFIG_SCHEMA)) | st.text(max_size=6),
        st.sampled_from(["=", " = ", "==", "", "#"]),
        st.sampled_from(sorted(PRESETS)) | FUZZ_VALUES | st.text(max_size=6),
        st.sampled_from(["\n", "\r\n", " # note\n", "\x00", "\u2028", "\u00e9", ""]),
    ),
    max_size=6,
).map(lambda lines: "".join("".join(line) for line in lines))
CONFIG_FILES = st.binary(max_size=40) | st.builds(
    str.encode, CONFIG_LINES, st.sampled_from(["utf-8", "utf-16", "latin-1"]), st.just("replace")
)


class TestConfigFileFuzz:
    """Any config file under `--set rounds=0`: exit 2 and one config error line, and no run starts."""

    @settings(max_examples=200, deadline=None)
    @given(content=CONFIG_FILES)
    def test_one_config_error_line(self, content):
        tmp = tempfile.mkdtemp()
        path, out = os.path.join(tmp, "fuzz.cfg"), os.path.join(tmp, "run")
        try:
            with open(path, "wb") as handle:
                handle.write(content)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = main(["run", "--config", path, "--set", "rounds=0", "--out", out])
            err = stderr.getvalue()
            assert (status, stdout.getvalue()) == (2, ""), (content, err)
            assert err.startswith("config error: ") and err.splitlines() == [err[:-1]], (content, err)
            assert not os.path.exists(out), content
        finally:
            shutil.rmtree(tmp)
