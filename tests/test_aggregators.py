"""Tests for the weighting rules and the shared model update.

Oracles: high-precision scalar evaluation (mpmath) for the angle-mapping
rule, the per-client loop over `angle` for the array form of the reference
angles, binomial statistics for subset sampling, and the simplex-grid solver
checks reused from the optimizer suite.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritfed import streams
from meritfed.aggregators import (
    FedAdp,
    FedAvg,
    MeritFed,
    SgdFull,
    SgdIdeal,
    Tawt,
    _angles_to_reference,
    apply_update,
    gompertz_map,
)
from meritfed.engine import ExperimentSpec, run_experiment
from meritfed.errors import ConfigError, MeritFedError
from meritfed.simplex_opt import (
    ESTIMATOR_EXACT,
    ESTIMATOR_ZO,
    MdConfig,
    WeightObjective,
    uniform_weights,
)
from meritfed.tasks import MeanTask, MeanValidationOracle


def weights(rule, gradients, x=None, oracle=None, rng=None, model_step=0.01):
    """One round of a rule on a gradient set (the point, step and oracle matter only to solver rules)."""
    gradients = np.asarray(gradients, dtype=float)
    x = np.zeros(gradients.shape[1]) if x is None else x
    return rule.weights(WeightObjective(x, gradients, model_step, oracle), rng)


def full_weights(n):
    return weights(SgdFull("sgd-full"), np.ones((n, 1)))[0]


def ideal_weights(group_size, n):
    rule = SgdIdeal("sgd-ideal", group_size=group_size)
    rule.check(n, 0)
    return weights(rule, np.ones((n, 1)))[0]


def fedadp():
    return FedAdp("fedadp", alpha=5.0)


def tawt(step):
    return Tawt("tawt", step_size=step)


def sampled_weights(n, k, rng):
    rule = FedAvg(f"fedavg-{k}", sample_count=k)
    rule.check(n, 0)
    return weights(rule, np.ones((n, 1)), rng=rng)[0]


def meritfed_weights(x, g, model_step, md, oracle):
    rule = MeritFed("meritfed-md", md=md)
    # The exact full-set solver reads no stream, so the engine passes none.
    assert rule.stream_tag(oracle.size) is None
    return weights(rule, g, x=x, oracle=oracle, model_step=model_step)


class TestFixedRules:
    def test_full_uniform_many_clients(self):
        w = full_weights(150)
        assert np.all(w == 1.0 / 150)

    def test_full_single_client(self):
        np.testing.assert_array_equal(full_weights(1), [1.0])

    def test_full_equals_uniform_weights(self):
        np.testing.assert_array_equal(full_weights(7), uniform_weights(7))

    def test_ideal_first_five(self):
        w = ideal_weights(5, 150)
        assert np.all(w[:5] == 0.2)
        assert np.all(w[5:] == 0.0)

    def test_ideal_singleton(self):
        np.testing.assert_array_equal(ideal_weights(1, 5), [1, 0, 0, 0, 0])

    def test_ideal_full_set_degenerates_to_uniform(self):
        np.testing.assert_array_equal(ideal_weights(6, 6), full_weights(6))

    def test_ideal_empty_rejected(self):
        with pytest.raises(ConfigError):
            ideal_weights(0, 5)
        with pytest.raises(ConfigError):
            ideal_weights(6, 5)


def angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between two nonzero vectors in radians, in [0, pi]: the per-pair reference."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise MeritFedError("angle against a zero vector is undefined")
    cos = float(np.clip((a @ b) / (na * nb), -1.0, 1.0))
    return float(np.arccos(cos))


class TestAngle:
    def test_self_angle_zero(self):
        # arccos has unbounded slope at 1, so one ulp of cosine rounding
        # becomes about 1e-8 of angle; exact zero is not achievable.
        assert angle(np.array([1.0, 2.0]), np.array([1.0, 2.0])) <= 1e-7

    def test_opposite_angle_pi(self):
        a = np.array([1.0, 2.0])
        assert abs(angle(a, -a) - math.pi) <= 1e-7

    def test_orthogonal_angle(self):
        assert abs(angle(np.array([1.0, 0.0]), np.array([0.0, 1.0])) - math.pi / 2) <= 1e-12

    def test_clamping_survives_rounding(self):
        a = np.array([1e-8, 1.0, 3.0])
        assert np.isfinite(angle(a * 7.0, a * 11.0))

    def test_zero_vector_rejected(self):
        with pytest.raises(MeritFedError, match="angle against a zero vector is undefined"):
            angle(np.zeros(2), np.array([1.0, 0.0]))


def angles_by_loop(gradients):
    """The reference angles as one angle() call per nonzero client (the replaced loop)."""
    norms = np.linalg.norm(gradients, axis=1)
    if norms[0] == 0.0:
        return None
    return np.array(
        [np.pi / 2 if norm == 0.0 else angle(gradients[0], g) for g, norm in zip(gradients, norms)]
    )


class TestAnglesToReference:
    # Rows are random, zero, or a scaled copy of the reference row (parallel)
    # or of its negative (sign-flipped); each row is then scaled by 10^e for
    # e in [-150, 150], so products and squared norms stay finite.

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dim=st.integers(min_value=1, max_value=12),
        kinds=st.lists(
            st.sampled_from(["random", "zero", "parallel", "flipped"]), min_size=1, max_size=20
        ),
        exponents=st.lists(st.integers(min_value=-150, max_value=150), min_size=20, max_size=20),
    )
    def test_equals_per_client_angle_loop(self, seed, dim, kinds, exponents):
        base = np.random.default_rng(seed).standard_normal((len(kinds), dim))
        rows = {"random": base, "zero": 0.0 * base, "parallel": base[[0]], "flipped": -base[[0]]}
        gradients = np.array([
            rows[kind][i % len(rows[kind])] * 10.0 ** exponents[i] for i, kind in enumerate(kinds)
        ])
        expected = angles_by_loop(gradients)
        got = _angles_to_reference(gradients)
        if expected is None:
            assert got is None
        else:
            assert np.array_equal(got, expected), (got, expected)

    def test_edge_rows(self):
        a = np.array([3.0, -4.0, 1e-3])
        gradients = np.array([a, 7.0 * a, -a, np.zeros(3), [4.0, 3.0, 0.0], a * 1e-150, a * 1e150])
        assert np.array_equal(_angles_to_reference(gradients), angles_by_loop(gradients))
        assert _angles_to_reference(np.array([np.zeros(3), a])) is None

    @pytest.mark.parametrize("layout", ["fortran", "column-slice", "strided-columns", "strided-rows"])
    def test_non_contiguous_gradient_sets(self, layout):
        # Each stack member's ddot reads the rows with their strides, as the
        # 1-D dot calls of a per-row loop do. angle() is no reference here:
        # np.linalg.norm sums a contiguous copy of a strided row.
        rng = np.random.default_rng(3)
        base = rng.standard_normal((60, 80)) * 10.0 ** rng.integers(-5, 6, size=(60, 1))
        gradients = {
            "fortran": np.asfortranarray(base[:, :40]),
            "column-slice": base[:, :40],
            "strided-columns": base[:, ::2],
            "strided-rows": base[::2],
        }[layout]
        assert not gradients.flags.c_contiguous
        g0 = gradients[0]
        dots = np.array([float(g0 @ g) for g in gradients])
        norms = np.array([math.sqrt(g.dot(g)) for g in gradients])
        expected = np.arccos(np.clip(dots / (norms[0] * norms), -1.0, 1.0))
        assert np.array_equal(_angles_to_reference(gradients), expected)
        contiguous = np.ascontiguousarray(gradients)
        assert np.array_equal(_angles_to_reference(contiguous), angles_by_loop(contiguous))


class TestStreamTags:
    def test_rules_declare_the_stream_they_read(self):
        def md(**kwargs):
            return MdConfig(step_size=1.0, step_count=5, **kwargs)

        assert MeritFed("md", md=md()).stream_tag(100) is None
        assert MeritFed("smd", md=md(minibatch=10)).stream_tag(100) == streams.MD
        assert MeritFed("zo", md=md(estimator=ESTIMATOR_ZO)).stream_tag(100) == streams.MD
        assert FedAvg("fedavg-2", sample_count=2).stream_tag(100) == streams.METHOD
        ideal = SgdIdeal("sgd-ideal", group_size=1)
        for rule in (SgdFull("sgd-full"), ideal, fedadp(), tawt(1.0)):
            assert rule.stream_tag(100) is None

    def test_minibatch_of_the_whole_set_reads_no_stream(self):
        # A minibatch as large as the validation set steps on the full set
        # and draws no rows, so the rule asks for no stream.
        md = MdConfig(step_size=1.0, step_count=5, minibatch=100)
        assert MeritFed("smd", md=md).stream_tag(100) is None
        assert MeritFed("smd", md=md).stream_tag(101) == streams.MD


class TestAngleMappedWeights:
    # A fresh rule's first round maps the raw angles, with no smoothing yet.

    def test_identical_gradients_uniform(self):
        g = np.tile(np.array([1.0, 1.0]), (4, 1))
        w, delta = weights(fedadp(), g)
        np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-12)
        assert delta is None

    def test_opposed_pair_ratio_matches_high_precision_oracle(self):
        # Two clients at angles 0 and pi through the alpha=5 double-exponential
        # mapping: the weight ratio is exp(map(0) - map(pi)), evaluated
        # independently with mpmath at 50 digits.
        mpmath.mp.dps = 50
        a = mpmath.mpf(5)
        map0 = a * (1 - mpmath.e ** (-mpmath.e ** (-a * 0)))
        map_pi = a * (1 - mpmath.e ** (-mpmath.e ** (-a * mpmath.pi)))
        expected_ratio = float(mpmath.e ** (map0 - map_pi))
        assert abs(expected_ratio - 23.59) <= 0.01  # sanity on the oracle itself

        g = np.array([[1.0, 0.0], [-1.0, 0.0]])
        w, _ = weights(fedadp(), g)
        assert abs(w[0] / w[1] - expected_ratio) <= 1e-10 * expected_ratio

    def test_gompertz_values_match_oracle(self):
        mpmath.mp.dps = 50
        a = mpmath.mpf(5)
        expected0 = float(a * (1 - mpmath.e ** (-1)))
        assert abs(gompertz_map(np.array([0.0]), 5.0)[0] - expected0) <= 1e-14
        assert abs(expected0 - 3.16060) <= 1e-5

    def test_target_weight_is_maximal(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            g = rng.standard_normal((6, 4))
            w, _ = weights(fedadp(), g)
            assert w[0] >= w.max() - 1e-12

    def test_running_mean_smoothing_accumulates(self):
        g1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        g2 = np.array([[1.0, 0.0], [1.0, 0.0]])
        rule = fedadp()
        w1, _ = weights(rule, g1)
        w2, _ = weights(rule, g2)
        # Second-round smoothed angle for client 1 is (pi/2 + 0)/2 = pi/4,
        # so its weight rises but stays below the target's.
        assert w2[1] > w1[1]
        assert w2[1] < w2[0]

    def test_scale_invariance_of_single_gradient(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 3))
        scaled = g.copy()
        scaled[2] *= 2.0
        w_base, _ = weights(fedadp(), g)
        w_scaled, _ = weights(fedadp(), scaled)
        np.testing.assert_allclose(w_base, w_scaled, atol=1e-12)

    def test_zero_target_gradient_keeps_previous_weights(self):
        # A zero reference carries no direction: uniform before the first
        # update, then the last weights, with the running mean untouched.
        zero_target = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rule = fedadp()
        w0, _ = weights(rule, zero_target)
        np.testing.assert_array_equal(w0, np.full(3, 1.0 / 3.0))
        g = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        w1, _ = weights(rule, g)
        np.testing.assert_array_equal(w1, weights(fedadp(), g)[0])
        w2, _ = weights(rule, zero_target)
        np.testing.assert_array_equal(w2, w1)
        # The next update averages two rounds of angles, not three.
        reference = fedadp()
        weights(reference, g)
        np.testing.assert_array_equal(weights(rule, g)[0], weights(reference, g)[0])

    def test_zero_client_gradient_counts_as_orthogonal(self):
        # A zero gradient has no direction: it weighs like a unit gradient at
        # angle pi/2 to the reference, round after round.
        zero_client = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        orthogonal = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        rule, reference = fedadp(), fedadp()
        for _ in range(3):
            w, _ = weights(rule, zero_client)
            np.testing.assert_array_equal(w, weights(reference, orthogonal)[0])


class TestMultiplicativeAngleRule:
    def test_identical_gradients_stay_uniform(self):
        g = np.tile(np.array([2.0, -1.0]), (3, 1))
        w, delta = weights(tawt(1.0), g)
        np.testing.assert_allclose(w, np.full(3, 1.0 / 3.0), atol=1e-12)
        assert delta is None

    def test_opposed_client_loses_mass_every_round(self):
        g = np.array([[1.0, 0.0], [-1.0, 0.0]])
        rule = tawt(0.5)
        previous = 0.5
        for _ in range(5):
            w, _ = weights(rule, g)
            assert w[1] < previous
            previous = w[1]

    def test_state_persists_between_rounds(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        rule = tawt(1.0)
        w1 = weights(rule, g)[0].copy()
        w2, _ = weights(rule, g)
        assert not np.array_equal(w1, w2)

    def test_valid_simplex_every_round(self):
        rng = np.random.default_rng(6)
        rule = tawt(2.0)
        for _ in range(50):
            g = rng.standard_normal((4, 3))
            w, _ = weights(rule, g)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-9

    def test_scale_invariance_of_single_gradient(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((4, 3))
        scaled = g.copy()
        scaled[1] *= 2.0
        w_base, _ = weights(tawt(1.0), g)
        w_scaled, _ = weights(tawt(1.0), scaled)
        np.testing.assert_allclose(w_base, w_scaled, atol=1e-12)

    def test_zero_target_gradient_keeps_previous_weights(self):
        # A zero reference carries no direction: uniform before the first
        # update, then the last weights, and no multiplicative step.
        zero_target = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rule = tawt(1.0)
        w0 = weights(rule, zero_target)[0].copy()
        np.testing.assert_array_equal(w0, np.full(3, 1.0 / 3.0))
        g = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        w1 = weights(rule, g)[0].copy()
        np.testing.assert_array_equal(w1, weights(tawt(1.0), g)[0])
        w2 = weights(rule, zero_target)[0].copy()
        np.testing.assert_array_equal(w2, w1)
        # The next step starts from w1, as if the zero round never happened.
        reference = tawt(1.0)
        weights(reference, g)
        np.testing.assert_array_equal(weights(rule, g)[0], weights(reference, g)[0])

    def test_zero_client_gradient_counts_as_orthogonal(self):
        # A zero gradient has no direction: it steps like a unit gradient at
        # angle pi/2 to the reference, round after round.
        zero_client = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        orthogonal = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        rule, reference = tawt(1.0), tawt(1.0)
        for _ in range(3):
            w = weights(rule, zero_client)[0].copy()
            np.testing.assert_array_equal(w, weights(reference, orthogonal)[0])


class TestSampledSubsetRule:
    def test_full_participation_is_uniform(self):
        w = sampled_weights(6, 6, np.random.default_rng(0))
        np.testing.assert_array_equal(w, full_weights(6))

    def test_single_sample_is_one_hot(self):
        w = sampled_weights(8, 1, np.random.default_rng(1))
        assert sorted(np.unique(w)) == [0.0, 1.0]
        assert w.sum() == 1.0

    def test_inclusion_frequency_matches_subset_probability(self):
        n, k, m = 10, 3, 100000
        rng = np.random.default_rng(15)
        hits = np.zeros(n)
        for _ in range(m):
            hits += sampled_weights(n, k, rng) > 0
        freq = hits / m
        p = k / n
        se = math.sqrt(p * (1 - p) / m)
        assert np.all(np.abs(freq - p) <= 3.0 * se)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            sampled_weights(5, 0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            sampled_weights(5, 6, np.random.default_rng(0))


class TestMeritFedRule:
    def oracle(self):
        return MeanValidationOracle(np.zeros((50, 1)))

    def test_opposed_gradients_select_descent_client(self):
        x = np.array([1.0])
        g = np.array([[2.0], [-2.0]])
        md = MdConfig(step_size=1.0, step_count=200, estimator=ESTIMATOR_EXACT)
        w, delta = meritfed_weights(x, g, 0.25, md, self.oracle())
        assert w[0] >= 0.99
        assert delta >= 0.0

    def test_identical_gradients_stay_uniform(self):
        x = np.array([1.0])
        g = np.tile(np.array([0.5]), (5, 1))
        md = MdConfig(step_size=1.0, step_count=50, estimator=ESTIMATOR_EXACT)
        w, _ = meritfed_weights(x, g, 0.25, md, self.oracle())
        np.testing.assert_allclose(w, np.full(5, 0.2), atol=1e-12)

    def test_duplicated_validation_set_changes_nothing(self):
        rng = np.random.default_rng(20)
        samples = rng.standard_normal((40, 3))
        x = rng.standard_normal(3)
        g = rng.standard_normal((4, 3))
        md = MdConfig(step_size=1.0, step_count=50, estimator=ESTIMATOR_EXACT)
        w1, d1 = meritfed_weights(x, g, 0.1, md, MeanValidationOracle(samples))
        w2, d2 = meritfed_weights(
            x, g, 0.1, md, MeanValidationOracle(np.vstack([samples, samples]))
        )
        np.testing.assert_allclose(w1, w2, atol=1e-12)
        assert abs(d1 - d2) <= 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal(3)
        g = rng.standard_normal((4, 3))
        samples = rng.standard_normal((30, 3))
        md = MdConfig(step_size=1.0, step_count=80, estimator=ESTIMATOR_EXACT)
        perm = np.array([3, 1, 0, 2])
        w_base, _ = meritfed_weights(x, g, 0.2, md, MeanValidationOracle(samples))
        w_perm, _ = meritfed_weights(x, g[perm], 0.2, md, MeanValidationOracle(samples))
        np.testing.assert_allclose(w_perm, w_base[perm], atol=1e-12)

    def test_dominates_fixed_reference_weights(self):
        # The solved weights never do meaningfully worse than averaging the
        # first-group clients, the key comparison behind the rate bound.
        rng = np.random.default_rng(40)
        for _ in range(10):
            x = rng.standard_normal(2)
            g = rng.standard_normal((5, 2))
            samples = rng.standard_normal((60, 2))
            oracle = MeanValidationOracle(samples)
            obj = WeightObjective(x=x, gradients=g, model_step=0.2, loss_oracle=oracle)
            md = MdConfig(step_size=2.0, step_count=100, estimator=ESTIMATOR_EXACT)
            w, delta = meritfed_weights(x, g, 0.2, md, oracle)
            reference = ideal_weights(2, 5)
            assert obj.value(w) <= obj.value(reference) + delta + 1e-3


def update(x, gradients, w, model_step):
    """apply_update on the round's objective; it is that objective's candidate, bit for bit."""
    objective = WeightObjective(x, gradients, model_step, None)
    out = apply_update(objective, w)
    np.testing.assert_array_equal(out, objective.candidate(w))
    return out


class TestApplyUpdate:
    def test_one_hot_steps_along_single_client(self):
        x = np.array([1.0, 1.0])
        g = np.array([[1.0, 0.0], [0.0, 2.0]])
        out = update(x, g, np.array([0.0, 1.0]), 0.5)
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_zero_gradients_keep_point(self):
        x = np.array([3.0, -1.0])
        out = update(x, np.zeros((4, 2)), np.full(4, 0.25), 0.7)
        np.testing.assert_array_equal(out, x)

    def test_uniform_weights_average_like_parallel_sgd(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(3)
        g = rng.standard_normal((5, 3))
        out = update(x, g, full_weights(5), 0.1)
        np.testing.assert_allclose(out, x - 0.1 * g.mean(axis=0), rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        # The objective the update reads checks its gradient set once.
        with pytest.raises(MeritFedError, match=r"gradient set shape \(2, 4\) does not match"):
            update(np.zeros(3), np.zeros((2, 4)), np.array([0.5, 0.5]), 0.1)

    def test_invalid_weights_rejected(self):
        with pytest.raises(Exception):
            update(np.zeros(2), np.zeros((2, 2)), np.array([0.9, 0.9]), 0.1)
        with pytest.raises(MeritFedError, match="expected 2 weights, got 3"):
            update(np.zeros(2), np.zeros((2, 2)), np.full(3, 1.0 / 3.0), 0.1)


class TestMethodConfigValidation:
    # Constructor and config-time checks of the rule classes.

    def test_ideal_requires_indices(self):
        rule = SgdIdeal("ideal", group_size=0)
        with pytest.raises(ConfigError):
            rule.check(5, 0)

    def test_meritfed_requires_md_config(self):
        with pytest.raises(TypeError):
            MeritFed("mf")

    def test_nonpositive_model_step_rejected(self):
        # The run owns the model step: its spec rejects a step that is not
        # positive before round 0, so no round reaches the observer.
        rounds = []
        for step, expected in ((0.0, "positive"), (-0.5, "positive"), (float("nan"), "a finite number")):
            spec = ExperimentSpec(methods=[SgdFull("sgd-full")], task=MeanTask(), model_step=step)
            with pytest.raises(ConfigError, match=f"model_step must be {expected}, got {step}"):
                spec.validate()
            with pytest.raises(ConfigError, match=f"model_step must be {expected}"):
                run_experiment(spec, observer=lambda t, *rest: rounds.append(t))
        assert rounds == []

    def test_nonpositive_fedadp_alpha_rejected(self):
        for alpha in (0.0, -1.0):
            with pytest.raises(ConfigError, match=f"fedadp: alpha must be positive, got {alpha}"):
                FedAdp("fedadp", alpha=alpha)
