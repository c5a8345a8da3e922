"""Tests for the simplex optimization core.

Oracles: brute-force simplex grids for the solver, central finite
differences for the exact weight gradient, Monte Carlo sphere averages
for the two-point estimator, and a copy of the solver loop that asks the
validation oracle separately for each iterate's value and gradient and
draws its minibatch rows from the same stream.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritfed.errors import MeritFedError, NumericInputError
from meritfed.simplex_opt import (
    ESTIMATOR_EXACT,
    ESTIMATOR_ZO,
    MdConfig,
    WeightObjective,
    check_weights,
    entropic_md_step,
    simplex_grid,
    solve_weights,
    uniform_weights,
    weight_gradient_exact,
    zo_two_point_estimate,
)
from meritfed.streams import unit_sphere_vector
from meritfed.tasks import MeanValidationOracle, SoftmaxValidationOracle


class QuadraticOracle:
    """Validation loss ||y - target||^2 with its gradient; duck-types the task oracles."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        self.size = 1

    def evaluate(self, point):
        r = point - self.target
        return float(r @ r), 2.0 * r

    def value(self, point):
        return self.evaluate(point)[0]


class SpoilingOracle(QuadraticOracle):
    """A quadratic oracle whose gradients pass through spoil from the given gradient call on."""

    def __init__(self, target, spoil, from_call):
        super().__init__(target)
        self.size = 10
        self.spoil, self.from_call, self.gradient_calls = spoil, from_call, 0

    def gradient(self, point):
        self.gradient_calls += 1
        grad = QuadraticOracle.evaluate(self, point)[1]
        return self.spoil(grad) if self.gradient_calls >= self.from_call else grad

    def evaluate(self, point):
        return self.value(point), self.gradient(point)

    def value(self, point):
        return QuadraticOracle.evaluate(self, point)[0]

    def gradient_rows(self, point, rows):
        return self.gradient(point)


def quadratic_objective(x, gradients, model_step, target):
    return WeightObjective(
        x=np.asarray(x, dtype=float),
        gradients=np.asarray(gradients, dtype=float),
        model_step=model_step,
        loss_oracle=QuadraticOracle(target),
    )


def simplex_vectors(n):
    return (
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n)
        .map(np.asarray)
        .filter(lambda v: v.sum() > 1e-6)
        .map(lambda v: v / v.sum())
    )


class CountingOracle:
    """Passes the three oracle calls through to an oracle and counts each kind."""

    def __init__(self, inner):
        self.inner = inner
        self.size = inner.size
        self.calls = {"evaluate": 0, "value": 0, "gradient_rows": 0}

    def evaluate(self, point):
        self.calls["evaluate"] += 1
        return self.inner.evaluate(point)

    def value(self, point):
        self.calls["value"] += 1
        return self.inner.value(point)

    def gradient_rows(self, point, rows):
        self.calls["gradient_rows"] += 1
        return self.inner.gradient_rows(point, rows)


def solve_weights_two_calls(obj, cfg, rng):
    """The solver loop that scores each iterate and asks again for its gradient."""
    oracle = obj.loss_oracle
    w = uniform_weights(obj.n)
    best_w = w
    best_value = obj.value(w)
    last_value = best_value
    for _ in range(cfg.step_count):
        if cfg.estimator == ESTIMATOR_EXACT:
            if cfg.minibatch:
                rows = rng.choice(oracle.size, size=cfg.minibatch, replace=False)
                val_grad = lambda y: oracle.gradient_rows(y, rows)
            else:
                val_grad = lambda y: oracle.evaluate(y)[1]
            g = weight_gradient_exact(obj.x, obj.gradients, obj.model_step, val_grad, w)
        else:
            direction = unit_sphere_vector(rng, obj.n)
            g = zo_two_point_estimate(obj.value, w, cfg.smoothing, direction)
        w = entropic_md_step(w, g, cfg.step_size)
        last_value = obj.value(w)
        if last_value < best_value:
            best_value = last_value
            best_w = w
    return best_w, max(last_value - best_value, 0.0)


def mean_oracle(rng, d):
    return MeanValidationOracle(rng.standard_normal((200, d)) + rng.standard_normal(d))


def softmax_oracle(rng, d, n_classes=3):
    labels = rng.integers(0, n_classes, size=200)
    samples = rng.standard_normal((200, d)) + 2.0 * np.eye(n_classes, d)[labels]
    return SoftmaxValidationOracle(samples, labels, n_classes)


class TestUniformWeights:
    def test_single_client(self):
        np.testing.assert_array_equal(uniform_weights(1), [1.0])

    def test_four_clients(self):
        np.testing.assert_array_equal(uniform_weights(4), [0.25] * 4)

    def test_many_clients_sum(self):
        w = uniform_weights(150)
        assert np.all(w == 1.0 / 150)
        assert abs(w.sum() - 1.0) <= 1e-9

    def test_zero_clients_rejected(self):
        with pytest.raises(MeritFedError, match="weight vector needs at least one entry"):
            uniform_weights(0)


def md_step_on_support(w, g, step_size):
    """The multiplicative step computed on the gathered support only."""
    support = w > 0.0
    z = -step_size * g[support]
    z -= z.max()
    out = np.zeros_like(w)
    out[support] = w[support] * np.exp(z)
    return out / out.sum()


class TestEntropicStep:
    @settings(max_examples=500, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=40),
        step_size=st.floats(1e-3, 50.0),
    )
    def test_masked_step_equals_step_on_the_support(self, seed, n, step_size):
        # The exponent -inf off the support changes no bit of the result.
        rng = np.random.default_rng(seed)
        w = rng.random(n) * (rng.random(n) < 0.5)
        w[rng.integers(n)] += 0.1
        w /= w.sum()
        g = rng.standard_normal(n) * 10.0 ** int(rng.integers(-3, 4))
        assert np.array_equal(entropic_md_step(w, g, step_size), md_step_on_support(w, g, step_size))

    def test_zero_gradient_fixed_point(self):
        w = np.full(3, 1.0 / 3.0)
        out = entropic_md_step(w, np.zeros(3), 1.0)
        np.testing.assert_allclose(out, w, rtol=0, atol=1e-15)

    def test_closed_form_two_clients(self):
        out = entropic_md_step(np.array([0.5, 0.5]), np.array([math.log(2.0), 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)

    def test_constant_gradient_is_fixed_point(self):
        w = np.array([0.2, 0.8])
        for c in (-7.0, 0.0, 5.0, 123.456):
            out = entropic_md_step(w, np.array([c + 5.0, c + 5.0]), 1.0)
            np.testing.assert_allclose(out, w, rtol=0, atol=1e-12)

    def test_nonfinite_gradient_rejected(self):
        w = np.array([0.5, 0.5])
        with pytest.raises(NumericInputError):
            entropic_md_step(w, np.array([np.nan, 0.0]), 1.0)
        with pytest.raises(NumericInputError):
            entropic_md_step(w, np.array([np.inf, 0.0]), 1.0)

    def test_huge_gradients_survive_via_shift(self):
        # The exponent shift makes even extreme magnitudes finite.
        w = np.array([0.5, 0.5])
        out = entropic_md_step(w, np.array([1e6, -1e6]), 1.0)
        assert check_weights(out, 2) is out or np.all(out >= 0)
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        w=simplex_vectors(4),
        g=st.lists(st.floats(-50, 50, allow_nan=False), min_size=4, max_size=4).map(np.asarray),
        alpha=st.floats(1e-3, 10.0),
    )
    def test_simplex_preserved(self, w, g, alpha):
        out = entropic_md_step(w, g, alpha)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        w=simplex_vectors(5),
        g=st.lists(st.floats(-20, 20, allow_nan=False), min_size=5, max_size=5).map(np.asarray),
        c=st.floats(-100, 100, allow_nan=False),
    )
    def test_shift_invariance(self, w, g, c):
        base = entropic_md_step(w, g, 0.7)
        shifted = entropic_md_step(w, g + c, 0.7)
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        g=st.lists(st.floats(-20, 20, allow_nan=False), min_size=4, max_size=4).map(np.asarray)
    )
    def test_zero_entries_stay_zero(self, g):
        w = np.array([0.0, 0.5, 0.5, 0.0])
        out = entropic_md_step(w, g, 1.0)
        assert out[0] == 0.0 and out[3] == 0.0
        assert abs(out.sum() - 1.0) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        w=simplex_vectors(4),
        g=st.lists(st.floats(-20, 20, allow_nan=False), min_size=4, max_size=4).map(np.asarray),
    )
    def test_permutation_equivariance(self, w, g):
        perm = np.array([2, 0, 3, 1])
        direct = entropic_md_step(w[perm], g[perm], 1.3)
        permuted = entropic_md_step(w, g, 1.3)[perm]
        np.testing.assert_allclose(direct, permuted, rtol=0, atol=1e-12)


class TestZeroOrderEstimate:
    def test_linear_objective_axis_direction(self):
        c = np.array([3.0, -1.0, 2.0])
        objective = lambda w: float(c @ w)
        e = np.array([1.0, 0.0, 0.0])
        for h in (1e-2, 1e-4, 1e-6):
            est = zo_two_point_estimate(objective, np.full(3, 1.0 / 3.0), h, e)
            np.testing.assert_allclose(est, 3.0 * c[0] * e, rtol=1e-6)

    def test_constant_objective_zero(self):
        est = zo_two_point_estimate(lambda w: 7.5, np.full(4, 0.25), 1e-4, np.array([0, 1, 0, 0.0]))
        np.testing.assert_array_equal(est, np.zeros(4))

    def test_nonpositive_smoothing_rejected(self):
        with pytest.raises(MeritFedError, match="smoothing radius must be positive"):
            zo_two_point_estimate(lambda w: 0.0, np.array([1.0]), 0.0, np.array([1.0]))
        with pytest.raises(MeritFedError, match="smoothing radius must be positive"):
            zo_two_point_estimate(lambda w: 0.0, np.array([1.0]), -1e-4, np.array([1.0]))

    def test_monte_carlo_recovers_linear_gradient(self):
        # Acceptance-level check: the sphere average over 1e5 directions
        # matches a linear objective's coefficients to 1% per coordinate.
        n = 3
        c = np.array([2.0, -2.0, 2.0])
        objective = lambda w: float(c @ w)
        w = np.full(n, 1.0 / n)
        rng = np.random.default_rng(3)
        m = 100000
        total = np.zeros(n)
        for _ in range(m):
            e = rng.standard_normal(n)
            e /= np.linalg.norm(e)
            total += zo_two_point_estimate(objective, w, 1e-4, e)
        mean = total / m
        rel = np.abs(mean - c) / np.abs(c)
        assert np.all(rel <= 0.01), f"per-coordinate relative errors {rel}"

    def test_error_shrinks_with_more_directions(self):
        # Sample-mean error at 1e5 directions stays within 10x of the 1e7
        # baseline on a pinned stream. The large batch reuses the estimator's
        # exact arithmetic (verified on a subsample) in vectorized form.
        n = 3
        c = np.array([1.0, 2.0, -1.5])
        objective = lambda w: float(c @ w)
        w = np.full(n, 1.0 / n)
        h = 1e-4

        def batch_estimates(directions):
            # Same formula as zo_two_point_estimate for a linear objective.
            lo = (w[None, :] - h * directions) @ c
            hi = (w[None, :] + h * directions) @ c
            return (n * (hi - lo) / (2.0 * h))[:, None] * directions

        rng = np.random.default_rng(7)
        probe = rng.standard_normal((50, n))
        probe /= np.linalg.norm(probe, axis=1, keepdims=True)
        vec = batch_estimates(probe)
        ref = np.stack([zo_two_point_estimate(objective, w, h, e) for e in probe])
        np.testing.assert_allclose(vec, ref, rtol=1e-9)

        def mc_error(m, seed):
            gen = np.random.default_rng(seed)
            total = np.zeros(n)
            chunk = 100000
            left = m
            while left:
                take = min(chunk, left)
                directions = gen.standard_normal((take, n))
                directions /= np.linalg.norm(directions, axis=1, keepdims=True)
                total += batch_estimates(directions).sum(axis=0)
                left -= take
            return float(np.linalg.norm(total / m - c))

        small = mc_error(100000, seed=11)
        large = mc_error(10000000, seed=11)
        assert small < 10.0 * large, f"1e5-direction error {small} vs 1e7 baseline {large}"


class TestExactWeightGradient:
    def test_zero_gradients_give_zero(self):
        x = np.array([1.0, 2.0])
        g = np.zeros((3, 2))
        oracle = QuadraticOracle(np.zeros(2))
        out = weight_gradient_exact(x, g, 0.1, lambda y: oracle.evaluate(y)[1], np.full(3, 1 / 3))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_single_client_inner_product(self):
        # With g1 the fixed point of g = grad(x - gamma*g), the weight
        # gradient collapses to -gamma*||g1||^2. For the quadratic oracle the
        # fixed point is closed-form: g1 = 2(x - target)/(1 + 2*gamma).
        x = np.array([2.0, -1.0])
        target = np.array([0.5, 0.5])
        gamma = 0.3
        oracle = QuadraticOracle(target)
        val_grad = lambda y: oracle.evaluate(y)[1]
        g1 = 2.0 * (x - target) / (1.0 + 2.0 * gamma)
        np.testing.assert_allclose(val_grad(x - gamma * g1), g1, rtol=1e-14)
        out = weight_gradient_exact(x, g1[None, :], gamma, val_grad, np.array([1.0]))
        np.testing.assert_allclose(out, [-gamma * float(g1 @ g1)], rtol=1e-12)

    def test_matches_central_finite_differences(self):
        # 100 random quadratic instances, relative error at most 1e-5.
        rng = np.random.default_rng(314)
        h = 1e-6
        for _ in range(100):
            n, d = 4, 3
            x = rng.standard_normal(d)
            g = rng.standard_normal((n, d))
            target = rng.standard_normal(d)
            gamma = float(rng.uniform(0.05, 0.5))
            w = rng.random(n)
            w /= w.sum()
            oracle = QuadraticOracle(target)
            val_grad = lambda y: oracle.evaluate(y)[1]
            exact = weight_gradient_exact(x, g, gamma, val_grad, w)

            def phi(weights):
                y = x - gamma * (weights @ g)
                return oracle.evaluate(y)[0]

            fd = np.empty(n)
            for i in range(n):
                up, down = w.copy(), w.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (phi(up) - phi(down)) / (2.0 * h)
            scale = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(exact - fd) / scale <= 1e-5

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(MeritFedError, match=r"gradient set shape \(2, 4\) does not match"):
            weight_gradient_exact(
                np.zeros(3),
                np.zeros((2, 4)),
                0.1,
                lambda y: y,
                np.array([0.5, 0.5]),
            )


class TestSolveWeights:
    def test_identical_gradients_stay_uniform(self):
        g = np.tile(np.array([1.5, -0.5]), (4, 1))
        obj = quadratic_objective(np.array([1.0, 1.0]), g, 0.1, target=np.zeros(2))
        w, delta = solve_weights(obj, MdConfig(step_size=2.0, step_count=50, estimator=ESTIMATOR_EXACT))
        np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-12)
        assert delta == 0.0

    def test_two_client_opposed_gradients(self):
        # Candidate point 1.5 - w1 under gamma=0.25; pushing all weight onto
        # the first client is optimal with objective value 0.25.
        obj = quadratic_objective(
            np.array([1.0]), np.array([[2.0], [-2.0]]), 0.25, target=np.zeros(1)
        )
        w, delta = solve_weights(obj, MdConfig(step_size=1.0, step_count=200, estimator=ESTIMATOR_EXACT))
        assert w[0] >= 0.99
        assert obj.value(w) <= 0.2501
        assert delta >= 0.0
        grid = [(u, 1.0 - u) for u in np.arange(0.0, 1.0001, 0.001)]
        best = min(obj.value(np.array(p)) for p in grid)
        assert obj.value(w) <= best + 1e-4

    def test_three_client_grid_oracle(self):
        rng = np.random.default_rng(99)
        grid = simplex_grid(3, 0.01)
        for _ in range(20):
            x = rng.standard_normal(2)
            g = rng.standard_normal((3, 2))
            target = rng.standard_normal(2)
            obj = quadratic_objective(x, g, 0.25, target=target)
            w, _ = solve_weights(
                obj, MdConfig(step_size=5.0, step_count=200, estimator=ESTIMATOR_EXACT)
            )
            grid_best = min(obj.value(p) for p in grid)
            assert abs(obj.value(w) - grid_best) <= 1e-3

    def test_best_iterate_non_increasing_in_step_count(self):
        obj = quadratic_objective(
            np.array([1.0, -2.0]),
            np.array([[2.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
            0.2,
            target=np.array([0.3, 0.3]),
        )
        values = []
        for k in (1, 5, 10, 50, 200):
            w, _ = solve_weights(obj, MdConfig(step_size=1.0, step_count=k, estimator=ESTIMATOR_EXACT))
            values.append(obj.value(w))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), values

    def test_zeroth_order_reaches_exact_solution(self):
        obj = quadratic_objective(
            np.array([1.0]), np.array([[2.0], [-2.0]]), 0.25, target=np.zeros(1)
        )
        cfg = MdConfig(
            step_size=1.0,
            step_count=400,
            estimator=ESTIMATOR_ZO,
            smoothing=1e-4,
        )
        w, _ = solve_weights(obj, cfg, np.random.default_rng(5))
        assert obj.value(w) <= 0.26

    def test_minibatch_variant_improves_objective(self):
        rng = np.random.default_rng(42)
        samples = rng.standard_normal((500, 2)) + np.array([0.1, -0.2])
        oracle = MeanValidationOracle(samples)
        g = rng.standard_normal((4, 2))
        obj = WeightObjective(
            x=np.array([1.0, 1.0]), gradients=g, model_step=0.2, loss_oracle=oracle
        )
        cfg = MdConfig(
            step_size=1.0,
            step_count=60,
            estimator=ESTIMATOR_EXACT,
            minibatch=50,
        )
        w, delta = solve_weights(obj, cfg, np.random.default_rng(3))
        start = obj.value(uniform_weights(4))
        assert obj.value(w) <= start + 1e-12
        assert delta >= 0.0

    def test_minibatch_larger_than_validation_rejected(self):
        oracle = CountingOracle(QuadraticOracle(np.zeros(1)))
        obj = WeightObjective(
            x=np.array([1.0]), gradients=np.array([[1.0]]), model_step=0.1, loss_oracle=oracle
        )
        cfg = MdConfig(step_size=1.0, step_count=5, estimator=ESTIMATOR_EXACT, minibatch=10)
        with pytest.raises(MeritFedError, match="minibatch 10 exceeds validation set size 1"):
            solve_weights(obj, cfg, np.random.default_rng(0))
        assert oracle.calls == {"evaluate": 0, "value": 0, "gradient_rows": 0}

    @pytest.mark.parametrize("minibatch", [0, 2], ids=["full-set", "minibatch"])
    @pytest.mark.parametrize(
        "spoil, error, match",
        [
            (lambda grad: np.full_like(grad, np.nan), NumericInputError, "non-finite gradient"),
            (lambda grad: grad[:, None], MeritFedError, r"gradient shape \(4, 1\) does not match"),
        ],
        ids=["non-finite", "column"],
    )
    def test_solver_steps_keep_the_step_checks(self, minibatch, spoil, error, match):
        # The solver forms the weight gradient itself; a bad oracle gradient at
        # the third iterate still stops the solve in entropic_md_step, and a
        # (d, 1) gradient is rejected rather than broadcast to (n, n).
        rng = np.random.default_rng(4)
        oracle = SpoilingOracle(np.zeros(3), spoil, from_call=3)
        obj = WeightObjective(
            x=rng.standard_normal(3), gradients=rng.standard_normal((4, 3)), model_step=0.2, loss_oracle=oracle
        )
        cfg = MdConfig(step_size=1.0, step_count=10, minibatch=minibatch)
        with pytest.raises(error, match=match) as caught:
            solve_weights(obj, cfg, np.random.default_rng(0))
        assert type(caught.value) is error
        assert oracle.gradient_calls == 3

    @pytest.mark.parametrize(
        "settings", [dict(minibatch=20), dict(estimator=ESTIMATOR_ZO)], ids=["minibatch", "zeroth-order"]
    )
    def test_solver_that_draws_needs_an_rng(self, settings):
        rng = np.random.default_rng(0)
        oracle = CountingOracle(mean_oracle(rng, 3))
        obj = WeightObjective(
            x=rng.standard_normal(3),
            gradients=rng.standard_normal((5, 3)),
            model_step=0.3,
            loss_oracle=oracle,
        )
        cfg = MdConfig(step_size=1.0, step_count=3, **settings)
        assert cfg.reads_rng(oracle.size)
        with pytest.raises(MeritFedError, match="needs an rng") as caught:
            solve_weights(obj, cfg)
        assert type(caught.value) is MeritFedError
        assert oracle.calls == {"evaluate": 0, "value": 0, "gradient_rows": 0}

    def test_minibatch_of_the_whole_set_needs_no_rng(self):
        # A minibatch as large as the validation set steps on the full set,
        # draws nothing, and matches the exact solver bit for bit.
        rng = np.random.default_rng(0)
        oracle = mean_oracle(rng, 3)
        obj = WeightObjective(
            x=rng.standard_normal(3),
            gradients=rng.standard_normal((5, 3)),
            model_step=0.3,
            loss_oracle=oracle,
        )
        cfg = MdConfig(step_size=1.0, step_count=3, minibatch=oracle.size)
        assert not cfg.reads_rng(oracle.size)
        w, delta = solve_weights(obj, cfg)
        w_exact, delta_exact = solve_weights(obj, MdConfig(step_size=1.0, step_count=3))
        assert np.array_equal(w, w_exact) and delta == delta_exact


SOLVER_SETTINGS = {
    "exact": dict(estimator=ESTIMATOR_EXACT),
    "minibatch": dict(estimator=ESTIMATOR_EXACT, minibatch=20),
    "zeroth-order": dict(estimator=ESTIMATOR_ZO),
}


class TestSolverOracleCalls:
    STEPS = 7

    def solve(self, settings, seed=0):
        rng = np.random.default_rng(seed)
        oracle = CountingOracle(mean_oracle(rng, 3))
        obj = WeightObjective(
            x=rng.standard_normal(3),
            gradients=rng.standard_normal((5, 3)),
            model_step=0.3,
            loss_oracle=oracle,
        )
        cfg = MdConfig(step_size=1.0, step_count=self.STEPS, **settings)
        solve_weights(obj, cfg, np.random.default_rng(seed))
        return oracle.calls

    def test_exact_full_set_one_call_per_iterate(self):
        calls = self.solve(SOLVER_SETTINGS["exact"])
        assert calls == {"evaluate": self.STEPS + 1, "value": 0, "gradient_rows": 0}

    def test_minibatch_scores_on_full_set_and_steps_on_minibatch(self):
        calls = self.solve(SOLVER_SETTINGS["minibatch"])
        assert calls == {"evaluate": 0, "value": self.STEPS + 1, "gradient_rows": self.STEPS}

    def test_zeroth_order_two_probes_and_a_score_per_step(self):
        calls = self.solve(SOLVER_SETTINGS["zeroth-order"])
        assert calls == {"evaluate": 0, "value": 3 * self.STEPS + 1, "gradient_rows": 0}

    @pytest.mark.parametrize("settings", SOLVER_SETTINGS.values(), ids=SOLVER_SETTINGS.keys())
    def test_reads_rng_says_whether_the_solver_draws(self, settings):
        rng = np.random.default_rng(0)
        obj = WeightObjective(
            x=rng.standard_normal(3),
            gradients=rng.standard_normal((5, 3)),
            model_step=0.3,
            loss_oracle=mean_oracle(rng, 3),
        )
        cfg = MdConfig(step_size=1.0, step_count=self.STEPS, **settings)
        stream = np.random.default_rng(1)
        before = stream.bit_generator.state
        solve_weights(obj, cfg, stream)
        assert (stream.bit_generator.state != before) == cfg.reads_rng(obj.loss_oracle.size)
        assert cfg.reads_rng(obj.loss_oracle.size) == (settings != SOLVER_SETTINGS["exact"])


class TestSolverMatchesTwoCallLoop:
    # Reusing the scoring call's gradient, and scoring probes with value,
    # changes no bit of the result.

    @pytest.mark.parametrize("make_oracle", [mean_oracle, softmax_oracle])
    @pytest.mark.parametrize("settings", SOLVER_SETTINGS.values(), ids=SOLVER_SETTINGS.keys())
    def test_bit_identical(self, make_oracle, settings):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            oracle = make_oracle(rng, 4)
            dim = 4 if isinstance(oracle, MeanValidationOracle) else 4 * oracle.n_classes
            obj = WeightObjective(
                x=rng.standard_normal(dim),
                gradients=rng.standard_normal((6, dim)),
                model_step=float(rng.uniform(0.05, 0.5)),
                loss_oracle=oracle,
            )
            cfg = MdConfig(step_size=2.0, step_count=25, **settings)
            best_w, delta = solve_weights(obj, cfg, np.random.default_rng(seed))
            expected_w, expected_delta = solve_weights_two_calls(obj, cfg, np.random.default_rng(seed))
            assert np.array_equal(best_w, expected_w), seed
            assert delta == expected_delta, seed


class TestSimplexGrid:
    def test_two_client_grid_is_line(self):
        grid = simplex_grid(2, 0.5)
        rows = sorted(tuple(p) for p in grid)
        assert rows == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_grid_points_are_valid(self):
        for p in simplex_grid(3, 0.1):
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p >= -1e-12)


class TestMdConfigValidation:
    def test_bad_step_size(self):
        with pytest.raises(Exception):
            MdConfig(step_size=0.0, step_count=1, estimator=ESTIMATOR_EXACT)

    def test_bad_step_count(self):
        with pytest.raises(Exception):
            MdConfig(step_size=1.0, step_count=0, estimator=ESTIMATOR_EXACT)

    def test_bad_smoothing(self):
        with pytest.raises(Exception):
            MdConfig(step_size=1.0, step_count=1, estimator=ESTIMATOR_ZO, smoothing=0.0)

    def test_unknown_estimator(self):
        with pytest.raises(Exception):
            MdConfig(step_size=1.0, step_count=1, estimator="newton")

    def test_zeroth_order_takes_no_minibatch(self):
        with pytest.raises(MeritFedError, match="zeroth-order estimator takes no minibatch"):
            MdConfig(step_size=1.0, step_count=1, estimator=ESTIMATOR_ZO, minibatch=10)
