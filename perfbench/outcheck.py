"""Output check for one `meritfed run` directory.

A run passes only if its four output files have the row counts the workload
implies, every numeric cell the task defines is finite, and every logged
weight vector lies on the probability simplex. Byte identity across repeats
and against the stored seed-0 reference is checked by the caller through
`file_hashes`.

The `*_holds` columns of theorem.csv are deliberately not gated: they are
bounds in expectation, and single seeds legitimately miss them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

OUTPUT_FILES = ("metrics.csv", "weights.csv", "theorem.csv", "manifest.json")
METRICS_COLUMNS = (
    "seed", "round", "method", "dist_sq", "loss_gap", "grad_norm_sq", "val_loss", "accuracy", "delta",
)
WEIGHTS_COLUMNS = ("seed", "round", "method", "client_index", "weight")
THEOREM_COLUMNS = (
    "seed", "method", "rounds", "group_size", "sigma_sq", "delta_bar", "delta_estimator",
    "initial_gap", "avg_grad_norm_sq", "noncvx_rhs", "noncvx_holds", "final_gap", "pl_rhs",
    "pl_holds", "step_size_ok", "applies",
)
THEOREM_TEXT_COLUMNS = ("method", "delta_estimator")
THEOREM_BOOL_COLUMNS = ("noncvx_holds", "pl_holds", "step_size_ok", "applies")
MEAN_ONLY = ("dist_sq", "loss_gap", "grad_norm_sq")
SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One preset at a fixed round cap, and the shape of the output it must produce."""

    preset: str
    task: str  # "mean" or "softmax"
    methods: tuple[str, ...]
    clients: int
    rounds: int
    log_every: int

    def logged_rounds(self) -> list[int]:
        return [r for r in range(self.rounds) if r % self.log_every == 0 or r == self.rounds - 1]


def workload(preset: str, rounds: int) -> Workload:
    """The output shape of `preset` at `rounds` rounds, read from the program's own presets."""
    from meritfed.cli import PRESETS

    values = PRESETS[preset]()
    clients = sum(values[key] for key in ("group1_count", "group2_count", "group3_count", "byzantine_count"))
    return Workload(
        preset, values["task"], tuple(values["methods"]), clients, rounds, values["weight_log_every"]
    )


def file_hashes(out_dir: str) -> dict[str, str]:
    """sha256 of each output file; a missing file hashes to None."""
    hashes = {}
    for name in OUTPUT_FILES:
        path = os.path.join(out_dir, name)
        try:
            with open(path, "rb") as handle:
                hashes[name] = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            hashes[name] = None
    return hashes


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in OUTPUT_FILES)


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _read_csv(path: str, columns: tuple[str, ...], problems: list[str]) -> list[dict[str, str]]:
    name = os.path.basename(path)
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        problems.append(f"{name}: cannot read: {exc}")
        return []
    if not rows or tuple(rows[0]) != columns:
        problems.append(f"{name}: header is not {','.join(columns)}")
        return []
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(columns):
            problems.append(f"{name}:{lineno}: {len(row)} cells, expected {len(columns)}")
            continue
        out.append(dict(zip(columns, row)))
    return out


def _check_metrics(out_dir: str, exp: Workload, seed: int, problems: list[str]) -> None:
    rows = _read_csv(os.path.join(out_dir, "metrics.csv"), METRICS_COLUMNS, problems)
    want = len(exp.methods) * (exp.rounds + 1)
    if len(rows) != want:
        problems.append(f"metrics.csv: {len(rows)} rows, expected {want}")
    defined = ("val_loss",) + (MEAN_ONLY if exp.task == "mean" else ("accuracy",))
    blank = ("accuracy",) if exp.task == "mean" else MEAN_ONLY
    seen = set()
    for lineno, row in enumerate(rows, start=2):
        where = f"metrics.csv:{lineno}"
        key = (row["round"], row["method"])
        if key in seen:
            problems.append(f"{where}: duplicate row for round {key[0]}, method {key[1]}")
        seen.add(key)
        if row["seed"] != str(seed) or row["method"] not in exp.methods:
            problems.append(f"{where}: unexpected seed or method")
            continue
        if not row["round"].isdigit() or int(row["round"]) > exp.rounds:
            problems.append(f"{where}: round {row['round']!r} out of range")
            continue
        has_delta = row["method"].startswith("meritfed-") and int(row["round"]) < exp.rounds
        for col in defined + (("delta",) if has_delta else ()):
            if not _finite(row[col]):
                problems.append(f"{where}: {col}={row[col]!r} is not a finite number")
        for col in blank + (() if has_delta else ("delta",)):
            if row[col] != "":
                problems.append(f"{where}: {col} should be blank for this task and round")


def _check_weights(out_dir: str, exp: Workload, problems: list[str]) -> None:
    rows = _read_csv(os.path.join(out_dir, "weights.csv"), WEIGHTS_COLUMNS, problems)
    logged = exp.logged_rounds()
    want = exp.clients * len(exp.methods) * len(logged)
    if len(rows) != want:
        problems.append(f"weights.csv: {len(rows)} rows, expected {want}")
    vectors: dict[tuple[str, str], dict[str, float]] = {}
    for lineno, row in enumerate(rows, start=2):
        weight = float(row["weight"]) if _finite(row["weight"]) else math.nan
        if not weight >= 0.0:
            problems.append(f"weights.csv:{lineno}: weight {row['weight']!r} is not a finite nonnegative number")
        vectors.setdefault((row["round"], row["method"]), {})[row["client_index"]] = weight
    expected_keys = {(str(r), m) for r in logged for m in exp.methods}
    if set(vectors) != expected_keys:
        problems.append("weights.csv: logged (round, method) pairs differ from the workload's")
    clients = {str(i) for i in range(exp.clients)}
    for (round_index, method), vector in sorted(vectors.items()):
        where = f"weights.csv: round {round_index}, {method}"
        if set(vector) != clients:
            problems.append(f"{where}: client indices are not 0..{exp.clients - 1}")
        total = math.fsum(vector.values())
        if not abs(total - 1.0) <= SIMPLEX_TOL:
            problems.append(f"{where}: weights sum to {total!r}, not 1 within {SIMPLEX_TOL}")


def _check_theorem(out_dir: str, exp: Workload, problems: list[str]) -> None:
    rows = _read_csv(os.path.join(out_dir, "theorem.csv"), THEOREM_COLUMNS, problems)
    want = len(exp.methods) if exp.task == "mean" else 0
    if len(rows) != want:
        problems.append(f"theorem.csv: {len(rows)} rows, expected {want}")
    for lineno, row in enumerate(rows, start=2):
        for col, cell in row.items():
            if col in THEOREM_TEXT_COLUMNS:
                continue
            ok = cell in ("true", "false") if col in THEOREM_BOOL_COLUMNS else _finite(cell)
            if not ok:
                problems.append(f"theorem.csv:{lineno}: {col}={cell!r} is not valid")


def _check_manifest(out_dir: str, exp: Workload, seed: int, problems: list[str]) -> None:
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        problems.append(f"manifest.json: cannot parse: {exc}")
        return
    config = manifest.get("config", {})
    if (
        manifest.get("preset") != exp.preset
        or manifest.get("seeds") != [seed]
        or config.get("rounds") != exp.rounds
        or tuple(config.get("methods", ())) != exp.methods
    ):
        problems.append("manifest.json: preset, seeds, rounds or methods differ from the workload's")


def check_outputs(out_dir: str, exp: Workload, seed: int) -> list[str]:
    """Every problem found in one run's output directory; empty means it passes."""
    problems: list[str] = []
    _check_metrics(out_dir, exp, seed, problems)
    _check_weights(out_dir, exp, problems)
    _check_theorem(out_dir, exp, problems)
    _check_manifest(out_dir, exp, seed, problems)
    return problems
