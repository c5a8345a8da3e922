"""Optimization primitives over the probability simplex.

The aggregation-weight subproblem minimizes the validation objective of the
candidate model point x - step * sum_i w_i g_i over weight vectors w on the
unit simplex. This module provides the multiplicative (entropic mirror
descent) update, the exact chain-rule gradient of that objective in w, a
two-point zeroth-order estimator, and the inner solver loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np

from .errors import Count, MeritFedError, NumericInputError, PositiveFloat, PositiveInt, check_fields
from .streams import unit_sphere_vector

SIMPLEX_SUM_TOL = 1e-9

ESTIMATOR_EXACT = "exact-chain-rule"
ESTIMATOR_ZO = "zeroth-order"


def uniform_weights(n: int) -> np.ndarray:
    """Uniform weight vector 1/n, the mirror-descent initialization."""
    if n < 1:
        raise MeritFedError(f"weight vector needs at least one entry, got n={n}")
    return np.full(n, 1.0 / n)


def check_weights(w: np.ndarray, n: Optional[int] = None) -> np.ndarray:
    """Validate a weight vector: nonnegative entries summing to 1 within 1e-9."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise MeritFedError(f"weights must be a nonempty vector, got shape {w.shape}")
    if n is not None and w.size != n:
        raise MeritFedError(f"expected {n} weights, got {w.size}")
    if not np.isfinite(w).all():
        raise NumericInputError("weights contain non-finite entries")
    if (w < 0.0).any():
        raise NumericInputError(f"weights contain negative entries (min {w.min()})")
    if abs(float(w.sum()) - 1.0) > SIMPLEX_SUM_TOL:
        raise NumericInputError(f"weights sum to {w.sum()!r}, expected 1 within {SIMPLEX_SUM_TOL}")
    return w


def entropic_md_step(w: np.ndarray, g: np.ndarray, step_size: float) -> np.ndarray:
    """One multiplicative-weights step w_i' proportional to w_i * exp(-step_size * g_i).

    The exponent is shifted by its maximum over the support before
    exponentiation, which keeps the update exactly invariant to adding a
    constant to g and rules out overflow. Entries of w that are exactly zero
    take the exponent -inf, so they stay zero.
    """
    w = np.asarray(w, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.shape != w.shape:
        raise MeritFedError(f"gradient shape {g.shape} does not match weights {w.shape}")
    if np.count_nonzero(np.isfinite(g)) < g.size:  # one C call; ndarray.all wraps in Python
        raise NumericInputError("mirror-descent step received a non-finite gradient")
    z = np.where(w > 0.0, -step_size * g, -np.inf)
    z -= np.maximum.reduce(z)
    np.exp(z, out=z)
    z *= w
    total = np.add.reduce(z)
    if not math.isfinite(total) or total <= 0.0:
        raise MeritFedError("multiplicative update produced no positive mass")
    z /= total
    return z


def zo_two_point_estimate(
    objective: Callable[[np.ndarray], float],
    w: np.ndarray,
    smoothing: float,
    direction: np.ndarray,
) -> np.ndarray:
    """Two-point directional estimate n * (phi(w+h e) - phi(w-h e)) / (2h) * e.

    The caller supplies a unit direction e; the objective must be evaluable at
    w +- h e (the candidate-point construction is defined on all of R^n).
    """
    if smoothing <= 0.0:
        raise MeritFedError(f"smoothing radius must be positive, got {smoothing}")
    w = np.asarray(w, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if direction.shape != w.shape:
        raise MeritFedError(f"direction shape {direction.shape} does not match weights {w.shape}")
    n = w.size
    delta = float(objective(w + smoothing * direction)) - float(objective(w - smoothing * direction))
    return (n * delta / (2.0 * smoothing)) * direction


@dataclass
class MdConfig:
    """Inner-solver settings for the aggregation-weight subproblem.

    step_size is consumed literally by the multiplicative update. The exact
    estimator steps on the full-set gradient, or with minibatch>0 (and below
    the set size) on fresh validation rows per step. The zeroth-order
    estimator takes no minibatch. solve_weights draws the rows and the
    zeroth-order directions from the rng it is given.
    """

    step_size: PositiveFloat
    step_count: PositiveInt
    estimator: Literal[ESTIMATOR_EXACT, ESTIMATOR_ZO] = ESTIMATOR_EXACT
    smoothing: PositiveFloat = 1e-4
    minibatch: Count = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.estimator == ESTIMATOR_ZO and self.minibatch > 0:
            raise MeritFedError(f"zeroth-order estimator takes no minibatch, got {self.minibatch}")

    def reads_rng(self, validation_rows: int) -> bool:
        """Whether solve_weights draws directions or rows from its rng on a validation set this size."""
        return self.estimator == ESTIMATOR_ZO or self.draws_rows(validation_rows)

    def draws_rows(self, validation_rows: int) -> bool:
        """Whether a step draws a minibatch from a validation set this size, not the full set."""
        return 0 < self.minibatch < validation_rows


@dataclass
class WeightObjective:
    """The weight subproblem: evaluate f_hat at x - model_step * sum_i w_i g_i.

    loss_oracle has a size (its validation rows) and evaluate(point), the
    full-set (value, gradient), which value(w) reads. solve_weights also calls
    its value(point), the loss alone, and gradient_rows(point, rows).
    """

    x: np.ndarray
    gradients: np.ndarray
    model_step: float
    loss_oracle: object

    def __post_init__(self) -> None:
        x = self.x = np.asarray(self.x, dtype=float)
        gradients = self.gradients = np.asarray(self.gradients, dtype=float)
        if gradients.ndim != 2 or gradients.shape[1] != x.shape[0]:
            raise MeritFedError(
                f"gradient set shape {gradients.shape} does not match point dimension {x.shape[0]}"
            )
        if self.model_step <= 0.0:
            raise MeritFedError(f"model_step must be positive, got {self.model_step}")

    @property
    def n(self) -> int:
        return self.gradients.shape[0]

    def candidate(self, w: np.ndarray) -> np.ndarray:
        return self.x - self.model_step * (np.asarray(w, dtype=float) @ self.gradients)

    def weight_gradient(self, val_grad: np.ndarray) -> np.ndarray:
        """The chain rule in w: -model_step * <g_i, val_grad> for the gradient at a candidate."""
        return -self.model_step * (self.gradients @ val_grad)

    def value(self, w: np.ndarray) -> float:
        return float(self.loss_oracle.evaluate(self.candidate(w))[0])


def weight_gradient_exact(
    x: np.ndarray,
    gradients: np.ndarray,
    model_step: float,
    val_grad: Callable[[np.ndarray], np.ndarray],
    w: np.ndarray,
) -> np.ndarray:
    """Exact gradient of w -> f_hat(x - model_step * sum_i w_i g_i).

    By the chain rule the i-th component is
    -model_step * <g_i, grad f_hat(candidate)>: the objective's
    weight_gradient at its candidate(w).
    """
    obj = WeightObjective(x, gradients, model_step, loss_oracle=None)
    return obj.weight_gradient(np.asarray(val_grad(obj.candidate(w)), dtype=float))


def solve_weights(
    obj: WeightObjective, cfg: MdConfig, rng: Optional[np.random.Generator] = None
) -> tuple[np.ndarray, float]:
    """Approximately minimize the weight subproblem over the simplex.

    Runs cfg.step_count multiplicative updates from the uniform vector, each
    driven by the exact chain-rule gradient or by the two-point estimator
    along a fresh random unit direction from rng. Every iterate and every
    two-point probe is scored on the full validation set; the best-scoring
    iterate is returned together with the solver-accuracy proxy
    phi(last iterate) - phi(best iterate) >= 0.

    Only the exact estimator on the full set steps on the oracle gradient at
    an iterate, so only it scores with oracle.evaluate, which returns both;
    the other paths score with the loss alone, oracle.value. With
    0 < cfg.minibatch < oracle size, a step takes the gradient on
    cfg.minibatch rows drawn from rng without replacement. The bound and the
    rng are checked before any call.
    """
    oracle = obj.loss_oracle
    if cfg.minibatch > oracle.size:
        raise MeritFedError(f"minibatch {cfg.minibatch} exceeds validation set size {oracle.size}")
    if cfg.reads_rng(oracle.size) and rng is None:
        raise MeritFedError(f"{cfg.estimator} solver with minibatch {cfg.minibatch} needs an rng")
    draws_rows = cfg.draws_rows(oracle.size)
    full_set_steps = cfg.estimator == ESTIMATOR_EXACT and not draws_rows
    score = oracle.evaluate if full_set_steps else lambda point: (oracle.value(point), None)
    probe = lambda v: oracle.value(obj.candidate(v))
    w = uniform_weights(obj.n)
    best_w, point = w, obj.candidate(w)
    best_value, val_grad = score(point)
    last_value = best_value
    for _ in range(cfg.step_count):
        if cfg.estimator == ESTIMATOR_ZO:
            direction = unit_sphere_vector(rng, obj.n)
            g = zo_two_point_estimate(probe, w, cfg.smoothing, direction)
        else:
            if draws_rows:
                rows = rng.choice(oracle.size, size=cfg.minibatch, replace=False)
                val_grad = oracle.gradient_rows(point, rows)
            g = obj.weight_gradient(val_grad)
        w = entropic_md_step(w, g, cfg.step_size)
        point = obj.candidate(w)
        last_value, val_grad = score(point)
        if last_value < best_value:
            best_value = last_value
            best_w = w
    delta_estimate = max(last_value - best_value, 0.0)
    return best_w, delta_estimate


def simplex_grid(n: int, resolution: float) -> np.ndarray:
    """All grid points of the unit simplex at the given coordinate resolution.

    Used as a brute-force oracle and as the small-n solver-gap estimator.
    Supports n <= 3 (the grid grows combinatorially beyond that).
    """
    if n < 1 or n > 3:
        raise MeritFedError(f"simplex grid supports 1 <= n <= 3, got {n}")
    steps = int(round(1.0 / resolution))
    if steps < 1:
        raise MeritFedError(f"resolution {resolution} coarser than the whole simplex")
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        a = np.arange(steps + 1) / steps
        return np.column_stack([a, 1.0 - a])
    points = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            points.append((i / steps, j / steps, (steps - i - j) / steps))
    return np.array(points)
