"""Federated round-loop orchestration.

One experiment holds a fixed client population, laid out in index order as
target group 1, groups 2 and 3, then one block of Byzantine workers that all
run the same attack. It runs every configured method side by side from the
same initial point. Per-(client, round) sample draws come from named streams
independent of the method, so sampling noise is coupled across methods; the
colluding attacks run in a second phase after all honest messages of the
round exist. Per-round metrics, weight trajectories, and convergence-bound
reports are collected for the output layer.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import streams
from .aggregators import Rule, apply_update
from .clients import ATTACK_ALIE, ATTACK_RANDOM_NOISE, AttackSpec, byzantine_messages
from .errors import ConfigError, NumericInputError
from .simplex_opt import WeightObjective, simplex_grid
from .tasks import (
    MEAN_PL_CONSTANT,
    MEAN_SMOOTHNESS,
    MIXED_CLASSES,
    MODE_EXTRA,
    MODE_POPULATION,
    MODE_REUSE_TRAIN,
    TARGET_CLASSES,
    DatasetShard,
    MeanValidationOracle,
    PopulationMeanOracle,
    SoftmaxValidationOracle,
    generate_mean_shards,
    softmax_accuracy,
    softmax_loss_grad,
    softmax_task_generate,
)

TASK_MEAN = "mean"
TASK_SOFTMAX = "softmax"

DELTA_ESTIMATOR_ITERATE = "iterate-gap"
DELTA_ESTIMATOR_GRID = "grid-gap"
GRID_RESOLUTION = 0.01
MAX_GRID_CLIENTS = 3

# Observer callables receive (round, method label, point before the update,
# gradient set, weights, delta estimate, point after the update).
Observer = Callable[[int, str, np.ndarray, np.ndarray, np.ndarray, Optional[float], np.ndarray], None]


@dataclass
class ExperimentSpec:
    """Full description of one run."""

    methods: list[Rule]
    task: str = TASK_MEAN
    dim: int = 10
    group_counts: tuple[int, int, int] = (5, 95, 50)
    byzantine_count: int = 0
    attack: Optional[AttackSpec] = None
    group2_shift: float = 0.1  # per-coordinate center of group 2 (mean task)
    shard_size: int = 1000
    batch_size: int = 100
    rounds: int = 2000
    validation_size: int = 100000
    validation_mode: str = MODE_EXTRA
    exact_gradients: bool = False
    master_seed: int = 0
    weight_log_every: int = 1
    mixing_alpha: float = 0.5  # softmax group-2 target-class fraction
    n_classes: int = 10
    test_size: int = 4000

    @property
    def n_clients(self) -> int:
        return int(sum(self.group_counts)) + int(self.byzantine_count)

    @property
    def model_dim(self) -> int:
        """Length of a model point and of a client gradient."""
        return self.dim if self.task == TASK_MEAN else self.n_classes * self.dim

    def validate(self) -> None:
        if self.task not in (TASK_MEAN, TASK_SOFTMAX):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.rounds < 1:
            raise ConfigError(f"round count must be >= 1, got {self.rounds}")
        if self.dim < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dim}")
        if any(c < 0 for c in self.group_counts):
            raise ConfigError(f"group counts must be nonnegative, got {self.group_counts}")
        if self.group_counts[0] < 1:
            raise ConfigError("the target group needs at least one honest client")
        if self.byzantine_count < 0:
            raise ConfigError(f"byzantine count must be >= 0, got {self.byzantine_count}")
        if self.byzantine_count > 0:
            if self.attack is None:
                raise ConfigError("byzantine clients need an attack spec")
            if self.attack.kind == ATTACK_ALIE and self.group_counts[0] < 2:
                raise ConfigError("alie needs at least two clients in the target group")
        if not self.methods:
            raise ConfigError("at least one method is required")
        labels = [m.label for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate method labels in {labels}")
        if not 1 <= self.batch_size <= self.shard_size:
            raise ConfigError(
                f"batch size {self.batch_size} out of range for shard size {self.shard_size}"
            )
        if self.validation_mode not in (MODE_EXTRA, MODE_REUSE_TRAIN, MODE_POPULATION):
            raise ConfigError(f"unknown validation mode {self.validation_mode!r}")
        if self.validation_mode == MODE_EXTRA and self.validation_size < 1:
            raise ConfigError("extra-validation mode needs validation_size >= 1")
        if self.validation_mode == MODE_REUSE_TRAIN and self.exact_gradients:
            raise ConfigError("reuse-train validation needs realized shards")
        if self.weight_log_every < 1:
            raise ConfigError("weight_log_every must be >= 1")
        if self.task == TASK_SOFTMAX:
            self._validate_softmax()
        validation_rows = {
            MODE_EXTRA: self.validation_size,
            MODE_REUSE_TRAIN: self.shard_size,
            MODE_POPULATION: 0,
        }[self.validation_mode]
        for rule in self.methods:
            rule.check(self.n_clients, validation_rows)
        # The arrays whose sizes grow with the config: a round's gradients,
        # the shards (a batch is never larger), validation and test sets.
        n, d = self.n_clients, self.dim
        shapes = [(n, self.model_dim)]
        if not self.exact_gradients:
            shapes.append((n, self.shard_size, d))
        if self.validation_mode == MODE_EXTRA:
            shapes.append((self.validation_size, d))
        if self.task == TASK_SOFTMAX:
            shapes.append((self.test_size, d))
        for shape in shapes:
            if math.prod(shape) > np.iinfo(np.intp).max:
                raise ConfigError(f"an array of shape {shape} is too large for numpy to index")

    def _validate_softmax(self) -> None:
        if self.exact_gradients:
            raise ConfigError("exact gradients are only defined for the mean task")
        if not 0.0 < self.mixing_alpha <= 1.0:
            raise ConfigError(f"mixing fraction must lie in (0, 1], got {self.mixing_alpha}")
        if self.validation_mode == MODE_POPULATION:
            raise ConfigError("population validation is only defined for the mean task")
        if self.byzantine_count > 0:
            raise ConfigError("byzantine clients are supported on the mean task only")
        if self.test_size < 1:
            raise ConfigError(f"softmax task needs test_size >= 1, got {self.test_size}")
        # Group 2 mixes in classes up to max(MIXED_CLASSES); group 3 draws the
        # classes beyond them; class centers sit on distinct feature axes.
        if self.group_counts[2] > 0:
            needed = max(MIXED_CLASSES) + 2
        elif self.group_counts[1] > 0:
            needed = max(MIXED_CLASSES) + 1
        else:
            needed = max(TARGET_CLASSES) + 1
        if not needed <= self.n_classes <= self.dim:
            raise ConfigError(
                f"softmax groups {self.group_counts} need {needed} <= n_classes <= "
                f"dim={self.dim}, got n_classes={self.n_classes}"
            )


@dataclass(kw_only=True)
class RoundMetrics:
    """State of one method at the start of a round (round == rounds for the final state).

    The field order is the column order of metrics.csv.
    """

    round_index: int
    method: str
    dist_sq: Optional[float] = None
    loss_gap: Optional[float] = None
    grad_norm_sq: Optional[float] = None
    val_loss: float
    accuracy: Optional[float] = None
    delta: Optional[float] = None


@dataclass
class ConvergenceRow:
    """Measured quantities of one method against the closed-form rate bounds.

    The field order is the column order of theorem.csv.
    """

    method: str
    rounds: int
    group_size: int
    sigma_sq: float
    delta_bar: float
    delta_estimator: str
    initial_gap: float
    avg_grad_norm_sq: float
    noncvx_rhs: float
    noncvx_holds: bool
    final_gap: float
    pl_rhs: float
    pl_holds: bool
    step_size_ok: bool
    applies: bool


@dataclass
class RoundDraws:
    """Everything one round draws, from one stream derivation.

    rows holds every client's batch rows (None under exact gradients), noise
    the Byzantine block's standard-normal rows (None without a random-noise
    attack), and method_streams each rule's stream of the round (None for a
    rule that reads none).
    """

    rows: Optional[np.ndarray]
    noise: Optional[np.ndarray]
    method_streams: list[Optional[np.random.Generator]]


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    metrics: list[RoundMetrics]
    weight_rows: list[tuple[int, str, np.ndarray]]
    convergence: list[ConvergenceRow]
    mixture_direction: Optional[np.ndarray]
    final_points: dict[str, np.ndarray]
    oracle: object
    shards: list[DatasetShard]


class RunState:
    """Mutable state of one experiment run."""

    def __init__(self, spec: ExperimentSpec) -> None:
        spec.validate()
        self.spec = spec
        n, d = spec.n_clients, spec.dim
        seed = spec.master_seed
        self.mixture_direction: Optional[np.ndarray] = None

        if spec.task == TASK_MEAN:
            self.mixture_direction = streams.unit_sphere_vector(
                streams.substream(seed, streams.MIXTURE_DIRECTION), d
            )
            # Group 1 and the Byzantine block hold target-distribution data,
            # centered at zero.
            g1, g2, g3 = spec.group_counts
            centers = np.zeros((n, d))
            centers[g1 : g1 + g2] = spec.group2_shift
            centers[g1 + g2 : g1 + g2 + g3] = self.mixture_direction
            self.centers = centers
            self.target_optimum = np.zeros(d)
            self.shards = (
                []
                if spec.exact_gradients
                else generate_mean_shards(seed, centers, spec.shard_size)
            )
            # The (n, shard_size, d) block the shards view. Batch means take
            # rows from its flat (n * shard_size, d) view, offset by each
            # client's first row.
            self.sample_block = self.shards[0].samples.base if self.shards else None
            if self.shards:
                self._flat_samples = self.sample_block.reshape(-1, d)
                self._row_offsets = np.arange(n)[:, None] * spec.shard_size
            if spec.validation_mode == MODE_POPULATION:
                self.oracle = PopulationMeanOracle(self.target_optimum)
            elif spec.validation_mode == MODE_REUSE_TRAIN:
                self.oracle = MeanValidationOracle(self.shards[0].samples)
            else:
                rng = streams.substream(seed, streams.VALIDATION)
                self.oracle = MeanValidationOracle(rng.standard_normal((spec.validation_size, d)))
            point0 = np.ones(d)
        else:
            self.shards, validation, self.test_shard = softmax_task_generate(
                group_counts=spec.group_counts,
                alpha=spec.mixing_alpha,
                feature_dim=d,
                n_classes=spec.n_classes,
                shard_size=spec.shard_size,
                master_seed=seed,
                validation_size=spec.validation_size,
                test_size=spec.test_size,
            )
            if spec.validation_mode == MODE_REUSE_TRAIN:
                validation = self.shards[0]
            self.oracle = SoftmaxValidationOracle(validation, spec.n_classes)
            point0 = np.zeros(spec.model_dim)

        # Fresh copies: rules keep cross-round state, and the spec may be rerun.
        self.rules = [dataclasses.replace(rule) for rule in spec.methods]
        self.points = {m.label: point0.copy() for m in spec.methods}
        self.metrics: list[RoundMetrics] = []
        self.weight_rows: list[tuple[int, str, np.ndarray]] = []
        self.delta_sums = {m.label: 0.0 for m in spec.methods}
        self.delta_estimator = (
            DELTA_ESTIMATOR_GRID
            if spec.task == TASK_MEAN and n <= MAX_GRID_CLIENTS
            else DELTA_ESTIMATOR_ITERATE
        )
        self._grid = simplex_grid(n, GRID_RESOLUTION) if self.delta_estimator == DELTA_ESTIMATOR_GRID else None

    def round_draws(self, round_index: int) -> RoundDraws:
        """The round's batch rows, attack noise and method streams, from one derivation.

        Batch rows and noise are per client and round, identical for every
        method; a method stream is keyed by the method's slot and the round.
        """
        spec = self.spec
        n, t = spec.n_clients, round_index
        batch = [] if spec.exact_gradients else [(streams.BATCH, i, t) for i in range(n)]
        noise = []
        if spec.byzantine_count > 0 and spec.attack.kind == ATTACK_RANDOM_NOISE:
            noise = [(streams.ATTACK_NOISE, i, t) for i in range(n - spec.byzantine_count, n)]
        tags = [rule.stream_tag for rule in self.rules]
        methods = [(tag, m, t) for m, tag in enumerate(tags) if tag is not None]
        rngs = iter(streams.substreams(spec.master_seed, batch + noise + methods))
        rows = [next(rngs).choice(spec.shard_size, spec.batch_size, replace=False) for _ in batch]
        noise_rows = [next(rngs).standard_normal(spec.model_dim) for _ in noise]
        return RoundDraws(
            rows=np.array(rows) if batch else None,
            noise=np.array(noise_rows) if noise else None,
            method_streams=[None if tag is None else next(rngs) for tag in tags],
        )

    def honest_gradient_basis(self, rows: Optional[np.ndarray]) -> np.ndarray:
        """Each client's batch mean of the round (mean task), or its center under exact gradients."""
        if self.spec.exact_gradients:
            return self.centers
        return np.take(self._flat_samples, rows + self._row_offsets, axis=0).mean(axis=1)

    def state_metrics(self, label: str, round_index: int, delta: Optional[float]) -> RoundMetrics:
        x = self.points[label]
        val_loss, _ = self.oracle.evaluate(x)
        row = RoundMetrics(
            round_index=round_index, method=label, val_loss=float(val_loss), delta=delta
        )
        if self.spec.task == TASK_MEAN:
            r = x - self.target_optimum
            row.dist_sq = row.loss_gap = float(r @ r)
            row.grad_norm_sq = 4.0 * row.dist_sq
        else:
            theta = x.reshape(self.spec.n_classes, -1)
            row.accuracy = softmax_accuracy(theta, self.test_shard.samples, self.test_shard.labels)
        return row

    def grid_delta(self, objective: WeightObjective, w_returned: np.ndarray) -> float:
        """Solver gap against the brute-force simplex grid (small client counts)."""
        grid_best = min(objective.value(w) for w in self._grid)
        return max(objective.value(w_returned) - grid_best, 0.0)


def run_round(state: RunState, round_index: int, observer: Optional[Observer] = None) -> None:
    """One federated round: honest phase, collusion phase, per-method updates."""
    spec = state.spec
    n = spec.n_clients

    draws = state.round_draws(round_index)
    if spec.task == TASK_MEAN:
        basis = state.honest_gradient_basis(draws.rows)
    byzantine = slice(n - spec.byzantine_count, n)

    for rule, rng in zip(state.rules, draws.method_streams):
        label = rule.label
        x = state.points[label]

        # Phase 1: what every client would honestly send at this method's point.
        if spec.task == TASK_MEAN:
            gradients = 2.0 * (x - basis)
        else:
            theta = x.reshape(spec.n_classes, -1)
            gradients = np.empty((n, spec.model_dim))
            for i in range(n):
                rows = draws.rows[i]
                _, grad = softmax_loss_grad(
                    theta, state.shards[i].samples[rows], state.shards[i].labels[rows]
                )
                gradients[i] = grad.ravel()

        # Phase 2: the attack replaces the Byzantine block's honest rows;
        # colluders read the target group's rows only.
        if spec.byzantine_count > 0:
            gradients[byzantine] = byzantine_messages(
                spec.attack, gradients[byzantine], gradients[: spec.group_counts[0]], draws.noise
            )

        if not np.all(np.isfinite(gradients)):
            raise NumericInputError(f"round {round_index}: non-finite client message")

        # Phase 3: weights, the model update (which checks them), metrics at
        # the pre-update point.
        w, delta = rule.weights(x, gradients, state.oracle, rng)
        x_new = apply_update(x, gradients, w, rule.model_step)
        if delta is not None and state.delta_estimator == DELTA_ESTIMATOR_GRID:
            objective = WeightObjective(
                x=x, gradients=gradients, model_step=rule.model_step, loss_oracle=state.oracle
            )
            delta = state.grid_delta(objective, w)
        if delta is not None:
            state.delta_sums[label] += delta
        state.metrics.append(state.state_metrics(label, round_index, delta))
        if round_index % spec.weight_log_every == 0 or round_index == spec.rounds - 1:
            state.weight_rows.append((round_index, label, w.copy()))
        if observer is not None:
            observer(round_index, label, x, gradients, w, delta, x_new)
        state.points[label] = x_new


def check_convergence_bounds(
    initial_gap: float,
    avg_grad_norm_sq: float,
    final_gap: float,
    rounds: int,
    model_step: float,
    group_size: int,
    sigma_sq: float,
    delta_bar: float,
    smoothness: float = MEAN_SMOOTHNESS,
    pl_constant: float = MEAN_PL_CONSTANT,
) -> dict:
    """Evaluate the two rate bounds against measured run quantities.

    The averaged-gradient bound is
    2*(f(x0)-f*)/(T*step) + 2*sigma^2*step*L/G + 2*delta_bar/step,
    compared with the measured (1/T) sum of squared true-gradient norms. The
    last-iterate bound under the quadratic growth (PL) condition is
    (1-step*mu)^T*(f(x0)-f*) + sigma^2*step*L/(mu*G) + delta_bar*T/(step*mu).
    """
    noncvx_rhs = (
        2.0 * initial_gap / (rounds * model_step)
        + 2.0 * sigma_sq * model_step * smoothness / group_size
        + 2.0 * delta_bar / model_step
    )
    pl_rhs = (
        (1.0 - model_step * pl_constant) ** rounds * initial_gap
        + sigma_sq * model_step * smoothness / (pl_constant * group_size)
        + delta_bar * rounds / (model_step * pl_constant)
    )
    tol = 1e-12
    return {
        "noncvx_rhs": noncvx_rhs,
        "noncvx_holds": bool(avg_grad_norm_sq <= noncvx_rhs * (1.0 + tol) + tol),
        "pl_rhs": pl_rhs,
        "pl_holds": bool(final_gap <= pl_rhs * (1.0 + tol) + tol),
        "step_size_ok": bool(model_step <= 1.0 / (2.0 * smoothness)),
    }


def _convergence_report(state: RunState) -> list[ConvergenceRow]:
    spec = state.spec
    if spec.task != TASK_MEAN:
        return []
    rows = []
    sigma_sq = 0.0 if spec.exact_gradients else 4.0 * spec.dim / spec.batch_size
    group_size = spec.group_counts[0]
    by_method: dict[str, list[RoundMetrics]] = {m.label: [] for m in spec.methods}
    for row in state.metrics:
        by_method[row.method].append(row)
    for rule in spec.methods:
        history = sorted(by_method[rule.label], key=lambda r: r.round_index)
        pre_update = history[: spec.rounds]
        initial_gap = pre_update[0].loss_gap
        avg_grad = float(np.mean([r.grad_norm_sq for r in pre_update]))
        final_gap = history[-1].loss_gap
        delta_bar = state.delta_sums[rule.label] / spec.rounds
        bounds = check_convergence_bounds(
            initial_gap=initial_gap,
            avg_grad_norm_sq=avg_grad,
            final_gap=final_gap,
            rounds=spec.rounds,
            model_step=rule.model_step,
            group_size=group_size,
            sigma_sq=sigma_sq,
            delta_bar=delta_bar,
        )
        rows.append(
            ConvergenceRow(
                method=rule.label,
                rounds=spec.rounds,
                group_size=group_size,
                sigma_sq=sigma_sq,
                delta_bar=delta_bar,
                delta_estimator=state.delta_estimator,
                initial_gap=initial_gap,
                avg_grad_norm_sq=avg_grad,
                final_gap=final_gap,
                applies=spec.byzantine_count == 0 or rule.bound_holds_under_attack,
                **bounds,
            )
        )
    return rows


def run_experiment(
    spec: ExperimentSpec, observer: Optional[Observer] = None
) -> ExperimentResult:
    """Run all configured methods for the full horizon and collect outputs."""
    state = RunState(spec)
    for t in range(spec.rounds):
        run_round(state, t, observer=observer)
    for rule in spec.methods:
        state.metrics.append(state.state_metrics(rule.label, spec.rounds, None))
    return ExperimentResult(
        spec=spec,
        metrics=state.metrics,
        weight_rows=state.weight_rows,
        convergence=_convergence_report(state),
        mixture_direction=state.mixture_direction,
        final_points={label: x.copy() for label, x in state.points.items()},
        oracle=state.oracle,
        shards=state.shards,
    )
