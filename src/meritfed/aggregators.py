"""Aggregation-weight rules and the shared model update.

Each compared method is one rule object: merit-based solving of the
validation objective (`MeritFed`), uniform averaging (`SgdFull`), oracle
averaging over the first `group_size` clients, the target group
(`SgdIdeal`), angle-based weighting through a Gompertz mapping (`FedAdp`),
a one-step multiplicative cosine-similarity heuristic (`Tawt`), and uniform
random client sampling (`FedAvg`). A rule holds its label, its own
constants and its own cross-round state; `weights` maps one round's weight
problem, a `WeightObjective` built by the engine with the run's model step,
to a weight vector on the simplex. The similarity rules
take client 0, which always belongs to the target group, as the reference;
a zero reference gradient carries no direction, so on it they return their
previous weights (uniform before their first update) and keep their state.
A zero gradient of any other client has no direction either and counts as
orthogonal to the reference (angle pi/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from . import streams
from .errors import ConfigError, PositiveFloat, check_fields
from .simplex_opt import (
    MdConfig,
    WeightObjective,
    check_weights,
    entropic_md_step,
    solve_weights,
    uniform_weights,
)


@dataclass
class Rule:
    """One compared method; label is its name in metric output (e.g. fedavg-5).

    Each rule defines weights(objective, rng), returning the round's weight
    vector and, for solver rules, the solver-accuracy proxy (None
    otherwise). The objective is the round's weight problem: the point, the
    client gradient set, the run's model step and the validation oracle.
    stream_tag names the one method stream the rule reads
    on a validation set of a given size, or is None for a rule that draws
    nothing; the engine passes that stream of the current round as rng, and
    None to a rule that reads no stream.
    """

    label: str

    # Whether the convergence bounds are claimed for this rule under attack.
    bound_holds_under_attack: ClassVar[bool] = False

    __post_init__ = check_fields  # every rule checks its fields when it is built

    def check(self, n_clients: int, validation_rows: int) -> None:
        """Reject, before round 0, a run this rule cannot serve."""

    def stream_tag(self, validation_rows: int) -> Optional[int]:
        """The method stream weights reads on a validation set this size, or None."""
        return None

    def reads_validation_rows(self, validation_rows: int) -> bool:
        """Whether weights reads rows of a validation set this size, not only full-set losses."""
        return False


@dataclass
class MeritFed(Rule):
    """Merit-based weights: solve the validation objective over the simplex."""

    md: MdConfig
    bound_holds_under_attack: ClassVar[bool] = True

    def check(self, n_clients: int, validation_rows: int) -> None:
        if self.md.minibatch > validation_rows:
            raise ConfigError(
                f"{self.label}: solver minibatch {self.md.minibatch} exceeds the "
                f"{validation_rows} rows of the validation set"
            )

    def stream_tag(self, validation_rows: int) -> Optional[int]:
        return streams.MD if self.md.reads_rng(validation_rows) else None

    def reads_validation_rows(self, validation_rows: int) -> bool:
        return self.md.draws_rows(validation_rows)

    def weights(self, objective, rng):
        return solve_weights(objective, self.md, rng)


@dataclass
class SgdFull(Rule):
    """Uniform averaging over all clients."""

    def weights(self, objective, rng):
        return uniform_weights(objective.n), None


@dataclass
class SgdIdeal(Rule):
    """Uniform averaging over the target group only: clients 0 .. group_size-1."""

    group_size: int
    bound_holds_under_attack: ClassVar[bool] = True

    def check(self, n_clients: int, validation_rows: int) -> None:
        if not 1 <= self.group_size <= n_clients:
            raise ConfigError(
                f"{self.label}: target group size {self.group_size} out of range for n={n_clients}"
            )

    def weights(self, objective, rng):
        w = np.zeros(objective.n)
        w[: self.group_size] = 1.0 / self.group_size
        return w, None


def gompertz_map(xi: np.ndarray, alpha: float) -> np.ndarray:
    """Decreasing angle-to-score mapping alpha * (1 - exp(-exp(-alpha * xi)))."""
    return alpha * (1.0 - np.exp(-np.exp(-alpha * np.asarray(xi, dtype=float))))


def _angles_to_reference(gradients: np.ndarray) -> Optional[np.ndarray]:
    """Each client's angle to client 0's gradient; None when that gradient is zero.

    A zero client gradient counts as orthogonal to the reference: its cos
    stays 0, and arccos(0) is pi/2. For a C-contiguous set, as the engine
    passes, each nonzero row g gets bit for bit the per-pair angle
    arccos(clip(g0 @ g / (|g0| |g|), -1, 1)) to g0 = gradients[0]. The dot
    products and squared norms are two stacked (1, d) @ (d, 1) matmuls:
    numpy runs each member of the stack through the same BLAS `ddot` that
    the 1-D `g0 @ g` calls, so each sum keeps its order. The matrix-vector
    product `gradients @ g0` goes to `dgemv` instead, which sums in another
    order and rounds differently. The clip and arccos run once over all rows.
    """
    rows = gradients[:, None, :]
    dots = (rows @ gradients[0][:, None])[:, 0, 0]
    norms = np.sqrt(rows @ gradients[:, :, None])[:, 0, 0]
    if norms[0] == 0.0:
        return None
    cos = np.zeros_like(norms)
    np.divide(dots, norms[0] * norms, out=cos, where=norms > 0.0)
    return np.arccos(np.clip(cos, -1.0, 1.0))


@dataclass
class FedAdp(Rule):
    """Angle-based weights: Gompertz-mapped angles to the target gradient, softmaxed.

    The per-client angle is averaged over the updates so far (rounds with a
    nonzero reference) before the mapping, so the first update uses the raw
    angles.
    """

    alpha: PositiveFloat = 5.0
    _mean_angles: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _rounds: int = field(default=0, init=False, repr=False, compare=False)

    def weights(self, objective, rng):
        angles = _angles_to_reference(objective.gradients)
        if angles is not None:
            t = self._rounds + 1
            if self._mean_angles is None:
                self._mean_angles = angles
            else:
                self._mean_angles = ((t - 1) * self._mean_angles + angles) / t
            self._rounds = t
        if self._mean_angles is None:
            return uniform_weights(objective.n), None
        scores = gompertz_map(self._mean_angles, self.alpha)
        expd = np.exp(scores - scores.max())
        return expd / expd.sum(), None


@dataclass
class Tawt(Rule):
    """One multiplicative step per round on -cos(angle to the target gradient).

    Weights persist across rounds, starting uniform.
    """

    step_size: PositiveFloat
    _current: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def weights(self, objective, rng):
        if self._current is None:
            self._current = uniform_weights(objective.n)
        angles = _angles_to_reference(objective.gradients)
        if angles is not None:
            self._current = entropic_md_step(self._current, -np.cos(angles), self.step_size)
        return self._current, None


@dataclass
class FedAvg(Rule):
    """Uniform weights over a uniformly random subset of sample_count clients."""

    sample_count: int

    def stream_tag(self, validation_rows: int) -> Optional[int]:
        return streams.METHOD

    def check(self, n_clients: int, validation_rows: int) -> None:
        if not 1 <= self.sample_count <= n_clients:
            raise ConfigError(
                f"{self.label}: sample count {self.sample_count} out of range for n={n_clients}"
            )

    def weights(self, objective, rng):
        n = objective.n
        chosen = rng.choice(n, size=self.sample_count, replace=False)
        w = np.zeros(n)
        w[chosen] = 1.0 / self.sample_count
        return w, None


def apply_update(objective: WeightObjective, w: np.ndarray) -> np.ndarray:
    """Model update x - model_step * sum_i w_i g_i: the objective's candidate at checked weights."""
    return objective.candidate(check_weights(w, n=objective.n))
