"""Federated round-loop orchestration.

One experiment holds a fixed client population, laid out in index order as
target group 1, groups 2 and 3, then one block of Byzantine workers that all
run the same attack. The run's task (a `tasks.Task`) owns the client data,
the honest gradients, the task's metrics and deltas and the convergence
report; the engine runs every configured method side by side from the task's
start point. Per-(client, round) sample draws come from named streams
independent of the method, so sampling noise is coupled across methods; the
colluding attacks run in a second phase after all honest messages of the
round exist. Each method-round is one `WeightObjective`: the method's point,
the round's gradient set, the run's model step and the validation oracle.
The method's rule picks weights for it, and the update is its candidate
point at those weights.

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
from .clients import ATTACK_NONE, ATTACK_RANDOM_NOISE, AttackSpec, byzantine_messages
from .errors import ConfigError, Count, NumericInputError, PositiveFloat, PositiveInt, RoundCount, check_fields
from .simplex_opt import WeightObjective
from .tasks import MODE_EXTRA, ConvergenceRow, Task, ValidationMode, check_indexable, validation_rows

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

    def validate(self) -> None:
        """Check every field against its hint, the attack, task and rules included, then across fields."""
        check_fields(self)
        self.attack.check(self)
        if not self.methods:
            raise ConfigError("at least one method is required")
        labels = [m.label for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate method labels in {labels}")
        if self.batch_size > self.shard_size:
            raise ConfigError(f"batch size {self.batch_size} exceeds shard size {self.shard_size}")
        self.task.check(self)
        for rule in self.methods:
            rule.check(self.n_clients, validation_rows(self))
        # Arrays that grow with the config (the task checks its own): a round's
        # gradients and the shards (a batch is never larger).
        n, d = self.n_clients, self.dim
        check_indexable((n, self.task.model_dim(d)))
        if not self.exact_gradients:
            check_indexable((n, self.shard_size, d))


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
class RoundDraws:
    """Everything one round draws, from one stream derivation.

    rows holds the batch rows of the clients the round reads (None under
    exact gradients), noise the Byzantine block's standard-normal rows
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
        self.stream_tags = [rule.stream_tag(self.task.oracle.size) for rule in self.rules]
        # Each rule's current point, in the rules' slot order.
        self.points = [self.task.start.copy() for _ in self.rules]
        self.metrics: list[RoundMetrics] = []
        self.weight_rows: list[tuple[int, str, np.ndarray]] = []
        # Every round opens the same streams, in round_draws' order: the batch
        # clients' (none under exact gradients, nor a Byzantine block whose
        # attack reads no own gradient), the random-noise attackers', then the
        # method slots' that read one.
        n, k = spec.n_clients, spec.byzantine_count
        self._batch_clients = 0 if spec.exact_gradients else n - (0 if spec.attack.reads_own else k)
        self._noise_clients = k if spec.attack.kind == ATTACK_RANDOM_NOISE else 0
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
        delta = task.delta_estimate(objective, w, delta)
        state.metrics.append(state.state_metrics(slot, round_index, delta))
        if round_index % spec.weight_log_every == 0 or round_index == spec.rounds - 1:
            state.weight_rows.append((round_index, rule.label, w.copy()))
        if observer is not None:
            observer(round_index, rule.label, x, gradients, w, delta, x_new)
        state.points[slot] = x_new


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
        convergence = state.task.convergence_report(spec, state.rules, state.metrics)
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
