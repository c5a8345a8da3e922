"""Federated round-loop orchestration.

One experiment holds a fixed client population, laid out in index order as
target group 1, groups 2 and 3, then one block of Byzantine workers that all
run the same attack. The run's task (a `tasks.Task`) owns the client data,
the honest gradients and the task's metrics; the engine runs every
configured method side by side from the task's start point. Per-(client, round) sample draws come from named streams
independent of the method, so sampling noise is coupled across methods; the
colluding attacks run in a second phase after all honest messages of the
round exist. Each method-round is one `WeightObjective`: the method's point,
the round's gradient set, the run's model step and the validation oracle.
The method's rule picks weights for it, the update is its candidate point at
those weights, and the grid gap, where the run takes one, scores the same
objective. Per-round metrics, weight trajectories, and convergence-bound
reports are collected for the output layer.

`RunState` keeps each method's point in `rules` slot order. Every round
appends exactly one metrics row per method in slot order, and the run one
final row per method the same way, so slot s's rows are
`metrics[s::len(rules)]`: the convergence report reads them from there.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import streams
from .aggregators import Rule, apply_update
from .clients import ATTACK_ALIE, ATTACK_NONE, ATTACK_RANDOM_NOISE, AttackSpec, byzantine_messages
from .errors import ConfigError, Count, NumericInputError, PositiveFloat, PositiveInt, RoundCount, check_fields
from .simplex_opt import WeightObjective, simplex_grid
from .tasks import MODE_EXTRA, MODE_POPULATION, MODE_REUSE_TRAIN, Task, ValidationMode
from .tasks import check_convergence_bounds, check_indexable

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
    task: Task
    dim: PositiveInt = 10
    # The target group needs at least one honest client.
    group_counts: tuple[PositiveInt, Count, Count] = (5, 95, 50)
    byzantine_count: Count = 0
    attack: AttackSpec = field(default_factory=lambda: AttackSpec(ATTACK_NONE))
    shard_size: int = 1000
    batch_size: PositiveInt = 100
    model_step: PositiveFloat = 0.01
    rounds: RoundCount = 2000
    validation_size: int = 100000
    validation_mode: ValidationMode = MODE_EXTRA
    exact_gradients: bool = False
    master_seed: Count = 0
    weight_log_every: PositiveInt = 1

    @property
    def n_clients(self) -> int:
        return int(sum(self.group_counts)) + int(self.byzantine_count)

    @property
    def validation_rows(self) -> int:
        """Rows of the validation set the oracle holds: none for the population loss."""
        rows_by_mode = {MODE_EXTRA: self.validation_size, MODE_REUSE_TRAIN: self.shard_size, MODE_POPULATION: 0}
        return rows_by_mode[self.validation_mode]

    @property
    def batch_clients(self) -> int:
        """Clients whose batches a round reads: all but a Byzantine block whose attack reads none."""
        return self.n_clients - (0 if self.attack.reads_own else self.byzantine_count)

    def validate(self) -> None:
        """Check every field against its hint, the attack, task and rules included, then across fields."""
        check_fields(self)
        if self.byzantine_count > 0:
            if self.attack.kind == ATTACK_NONE:
                raise ConfigError("byzantine clients need an attack other than none")
            if self.attack.kind == ATTACK_ALIE and self.group_counts[0] < 2:
                raise ConfigError("alie needs at least two clients in the target group")
        if not self.methods:
            raise ConfigError("at least one method is required")
        labels = [m.label for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate method labels in {labels}")
        if self.batch_size > self.shard_size:
            raise ConfigError(f"batch size {self.batch_size} exceeds shard size {self.shard_size}")
        if self.validation_mode == MODE_EXTRA and self.validation_size < 1:
            raise ConfigError("extra-validation mode needs validation_size >= 1")
        if self.validation_mode == MODE_REUSE_TRAIN and self.exact_gradients:
            raise ConfigError("reuse-train validation needs realized shards")
        self.task.check(self)
        for rule in self.methods:
            rule.check(self.n_clients, self.validation_rows)
        # Arrays that grow with the config (the task checks its own): a round's
        # gradients, the shards (a batch is never larger), the validation set.
        n, d = self.n_clients, self.dim
        check_indexable((n, self.task.model_dim(d)))
        if not self.exact_gradients:
            check_indexable((n, self.shard_size, d))
        if self.validation_mode == MODE_EXTRA:
            check_indexable((self.validation_size, d))


@dataclass(kw_only=True, slots=True)
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

    rows holds the batch rows of the first spec.batch_clients clients (None
    under exact gradients), noise the Byzantine block's standard-normal rows
    (None without a random-noise attack), and method_streams each rule's
    stream of the round (None for a rule that reads none).
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
    samples: Optional[np.ndarray]


class RunState:
    """Mutable state of one experiment run."""

    def __init__(self, spec: ExperimentSpec) -> None:
        spec.validate()
        self.spec = spec
        # Fresh copies: the task holds the run's data, rules keep cross-round
        # state, and the spec may be rerun.
        self.task = dataclasses.replace(spec.task)
        self.task.build(spec)
        self.rules = [dataclasses.replace(rule) for rule in spec.methods]
        self.stream_tags = [rule.stream_tag(spec.validation_rows) for rule in self.rules]
        # Each rule's current point, in the rules' slot order.
        self.points = [self.task.start.copy() for _ in self.rules]
        self.metrics: list[RoundMetrics] = []
        self.weight_rows: list[tuple[int, str, np.ndarray]] = []
        # The brute-force simplex grid that replaces the solver's own delta
        # estimate, for rate-bound tasks with few clients; None otherwise.
        grid_gap = self.task.rate_bounds and spec.n_clients <= MAX_GRID_CLIENTS
        self._grid = simplex_grid(spec.n_clients, GRID_RESOLUTION) if grid_gap else None
        # Every round opens the same streams, in round_draws' order: the batch
        # clients', the random-noise attackers', then the method slots' that
        # read one.
        n = spec.n_clients
        self._batch_clients = 0 if spec.exact_gradients else spec.batch_clients
        self._noise_clients = spec.byzantine_count if spec.attack.kind == ATTACK_RANDOM_NOISE else 0
        layout = [(streams.BATCH, i) for i in range(self._batch_clients)]
        layout += [(streams.ATTACK_NOISE, i) for i in range(n - self._noise_clients, n)]
        layout += [(tag, m) for m, tag in enumerate(self.stream_tags) if tag is not None]
        self.round_streams = streams.RoundStreams(spec.master_seed, layout, spec.rounds)

    def round_draws(self, round_index: int) -> RoundDraws:
        """The round's batch rows, attack noise and method streams, from the run's `RoundStreams`.

        Batch rows and noise are per client and round, identical for every
        method; a method stream is keyed by the method's slot and the round.
        """
        spec = self.spec
        rngs = iter(self.round_streams.generators(round_index))
        rows = noise = None
        if self._batch_clients:
            rows = np.empty((self._batch_clients, spec.batch_size), dtype=np.int64)
            for i in range(self._batch_clients):
                rows[i] = next(rngs).choice(spec.shard_size, spec.batch_size, replace=False)
        if self._noise_clients:
            noise = np.empty((self._noise_clients, self.task.model_dim(spec.dim)))
            for row in noise:
                next(rngs).standard_normal(out=row)
        return RoundDraws(rows, noise, [None if tag is None else next(rngs) for tag in self.stream_tags])

    def state_metrics(self, slot: int, round_index: int, delta: Optional[float]) -> RoundMetrics:
        x = self.points[slot]
        return RoundMetrics(
            round_index=round_index,
            method=self.rules[slot].label,
            val_loss=self.task.oracle.value(x),
            delta=delta,
            **self.task.metric_fields(x),
        )


def run_round(state: RunState, round_index: int, observer: Optional[Observer] = None) -> None:
    """One federated round: honest phase, collusion phase, per-method updates."""
    spec, task = state.spec, state.task
    n = spec.n_clients

    draws = state.round_draws(round_index)
    basis = task.round_basis(draws.rows)
    byzantine = slice(n - spec.byzantine_count, n)

    for slot, (rule, rng) in enumerate(zip(state.rules, draws.method_streams)):
        x = state.points[slot]

        # Phase 1: what every client would honestly send at this method's point.
        gradients = task.honest_gradients(x, basis)

        # Phase 2: the attack replaces the Byzantine block's honest rows;
        # colluders read the target group's rows only.
        if spec.byzantine_count > 0:
            gradients[byzantine] = byzantine_messages(
                spec.attack, gradients[byzantine], gradients[: spec.group_counts[0]], draws.noise
            )

        if not np.isfinite(gradients).all():
            raise NumericInputError(f"round {round_index}: non-finite client message")

        # Phase 3: weights, the model update (which checks them), metrics at
        # the pre-update point.
        objective = WeightObjective(x, gradients, spec.model_step, task.oracle)
        w, delta = rule.weights(objective, rng)
        x_new = apply_update(objective, w)
        if delta is not None and state._grid is not None:
            # Solver gap against the brute-force simplex grid, scored with the loss alone.
            losses = [task.oracle.value(objective.candidate(p)) for p in (w, *state._grid)]
            delta = max(losses[0] - min(losses[1:]), 0.0)
        state.metrics.append(state.state_metrics(slot, round_index, delta))
        if round_index % spec.weight_log_every == 0 or round_index == spec.rounds - 1:
            state.weight_rows.append((round_index, rule.label, w.copy()))
        if observer is not None:
            observer(round_index, rule.label, x, gradients, w, delta, x_new)
        state.points[slot] = x_new


def _convergence_report(state: RunState) -> list[ConvergenceRow]:
    """One row per method, read from that method's metric rows of rounds 0..T."""
    spec, rounds = state.spec, state.spec.rounds
    if not state.task.rate_bounds:
        return []
    estimator = DELTA_ESTIMATOR_ITERATE if state._grid is None else DELTA_ESTIMATOR_GRID
    rows = []
    for slot, rule in enumerate(state.rules):
        history = state.metrics[slot :: len(state.rules)]
        # A plain += in round order, a blank as 0: builtin sum compensates
        # float sums from Python 3.12 on, which would move delta_bar's bits.
        delta_sum = 0.0
        for row in history[:rounds]:
            delta_sum += row.delta or 0.0
        measured = dict(
            rounds=rounds,
            group_size=spec.group_counts[0],
            sigma_sq=state.task.gradient_variance(spec),
            delta_bar=delta_sum / rounds,
            initial_gap=history[0].loss_gap,
            avg_grad_norm_sq=float(np.mean([row.grad_norm_sq for row in history[:rounds]])),
            final_gap=history[rounds].loss_gap,
        )
        rows.append(
            ConvergenceRow(
                method=rule.label,
                delta_estimator=estimator,
                applies=spec.byzantine_count == 0 or rule.bound_holds_under_attack,
                **measured,
                **check_convergence_bounds(model_step=spec.model_step, **measured),
            )
        )
    return rows


def run_experiment(
    spec: ExperimentSpec, observer: Optional[Observer] = None
) -> ExperimentResult:
    """Run all configured methods for the full horizon and collect outputs.

    A method that diverges overflows to inf and nan, which its rows record;
    numpy's floating-point warnings are silenced for the rounds, the final
    rows and the report, so a run that completes writes nothing to stderr.
    """
    state = RunState(spec)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(spec.rounds):
            run_round(state, t, observer=observer)
        for slot in range(len(state.rules)):
            state.metrics.append(state.state_metrics(slot, spec.rounds, None))
        convergence = _convergence_report(state)
    return ExperimentResult(
        spec=spec,
        metrics=state.metrics,
        weight_rows=state.weight_rows,
        convergence=convergence,
        mixture_direction=state.task.mixture_direction,
        final_points={rule.label: x for rule, x in zip(state.rules, state.points)},
        oracle=state.task.oracle,
        samples=state.task.samples,
    )
