"""Tests for the round engine.

Oracles: closed-form trajectories under exact gradients (plain gradient
descent on a quadratic contracts by (1 - 2*step) per round), hand replay of
one round from the stored client samples and the shared batch streams, and direct
arithmetic for the rate-bound evaluator.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritfed import streams
from meritfed.aggregators import FedAdp, FedAvg, MeritFed, SgdFull, SgdIdeal, Tawt
from meritfed.cli import build_experiment, parse_config
from meritfed.clients import (
    ATTACK_BIT_FLIP,
    ATTACK_IPM,
    ATTACK_KINDS,
    ATTACK_NONE,
    ATTACK_RANDOM_NOISE,
    AttackSpec,
)
from meritfed.engine import ExperimentSpec, RunState, run_experiment, run_round
from meritfed.errors import ConfigError
from meritfed.simplex_opt import ESTIMATOR_EXACT, ESTIMATOR_ZO, MdConfig, WeightObjective, simplex_grid
from meritfed.tasks import (
    DELTA_ESTIMATOR_GRID,
    DELTA_ESTIMATOR_ITERATE,
    GRID_RESOLUTION,
    MODE_EXTRA,
    MODE_POPULATION,
    MODE_REUSE_TRAIN,
    MeanTask,
    MeanValidationOracle,
    SoftmaxRows,
    SoftmaxTask,
    check_convergence_bounds,
    validation_rows,
)


def full_method(label="sgd-full"):
    return SgdFull(label)


def ideal_method(group_size, label="sgd-ideal"):
    return SgdIdeal(label, group_size=group_size)


def meritfed_method(label="meritfed-md", md_steps=30, md_step_size=2.0):
    md = MdConfig(step_size=md_step_size, step_count=md_steps, estimator=ESTIMATOR_EXACT)
    return MeritFed(label, md=md)


def small_spec(**kwargs):
    defaults = dict(
        methods=[full_method()],
        task=MeanTask(),
        dim=3,
        group_counts=(2, 1, 1),
        shard_size=50,
        batch_size=10,
        rounds=5,
        validation_size=200,
        master_seed=7,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def softmax_spec(**kwargs):
    # Five clients with 60-row shards, 12 features and 10 classes.
    defaults = dict(
        methods=[full_method()],
        model_step=0.05,
        task=SoftmaxTask(test_size=100),
        dim=12,
        group_counts=(1, 2, 2),
        shard_size=60,
        batch_size=20,
        rounds=3,
        validation_size=100,
        master_seed=11,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestLayout:
    # Groups (2, 1, 1) and two attackers: rows 0-1 are group 1, row 2 group 2,
    # row 3 group 3 and rows 4-5 the Byzantine block.

    def test_groups_in_index_order(self):
        spec = small_spec(
            byzantine_count=2,
            attack=AttackSpec(kind=ATTACK_BIT_FLIP),
            task=MeanTask(group2_shift=0.25),
        )
        state = RunState(spec)
        zero = np.zeros(spec.dim)
        expected = [zero, zero, np.full(spec.dim, 0.25), state.task.mixture_direction, zero, zero]
        np.testing.assert_array_equal(state.task.centers, np.array(expected))

    def test_byzantine_block_carries_the_attack(self):
        for kind in ATTACK_KINDS:
            attack = AttackSpec(kind=kind, sigma=0.5, epsilon=0.2, z=3.0)
            spec = small_spec(byzantine_count=2, attack=attack, rounds=1)
            seen = []
            run_experiment(spec, observer=lambda t, label, x, g, *rest: seen.append((x, g.copy())))
            [(x, gradients)] = seen
            state = RunState(spec)
            honest = 2.0 * (x - state.task.round_basis(state.round_draws(0).rows))
            np.testing.assert_array_equal(gradients[:4], honest[:4])
            if kind == ATTACK_BIT_FLIP:
                expected = -honest[4:]
            elif kind == ATTACK_RANDOM_NOISE:
                draws = [
                    streams.substream(spec.master_seed, streams.ATTACK_NOISE, i, 0)
                    .standard_normal(spec.dim)
                    for i in (4, 5)
                ]
                expected = honest[4:] + 0.5 * np.array(draws)
            else:
                # Colluders read rows 0-1 only; a two-sample standard
                # deviation is |a - b| / sqrt(2).
                a, b = honest[0], honest[1]
                mean, spread = (a + b) / 2.0, np.abs(a - b) / np.sqrt(2.0)
                message = -0.2 * mean if kind == ATTACK_IPM else mean - 3.0 * spread
                expected = np.array([message, message])
                # The same rule over groups 1-3 would send something else.
                mean, spread = honest[:4].mean(axis=0), honest[:4].std(axis=0, ddof=1)
                leaky = -0.2 * mean if kind == ATTACK_IPM else mean - 3.0 * spread
                assert not np.allclose(gradients[4], leaky), kind
            np.testing.assert_allclose(
                gradients[4:], expected, rtol=1e-12, atol=1e-12, err_msg=kind
            )


class TestSpecValidation:
    def test_zero_rounds_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(rounds=0).validate()

    def test_empty_target_group_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(group_counts=(0, 3, 0)).validate()

    def test_byzantine_without_attack_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(byzantine_count=3).validate()
        # "none" is the default attack, and never falls through to alie.
        assert small_spec().attack == AttackSpec(ATTACK_NONE)
        with pytest.raises(ConfigError, match="need an attack other than none"):
            small_spec(byzantine_count=2, attack=AttackSpec(ATTACK_NONE)).validate()

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ConfigError, match="master_seed must be >= 0, got -1"):
            small_spec(master_seed=-1).validate()

    @pytest.mark.parametrize("group_counts", [(5, 95), (2, 1, 1, 1), ()])
    def test_group_counts_other_than_three_rejected(self, group_counts):
        message = f"group_counts must be a tuple of 3 values, got {group_counts}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_spec(group_counts=group_counts).validate()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(methods=[full_method(), full_method()]).validate()

    def test_batch_larger_than_shard_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(batch_size=60).validate()

    def test_softmax_with_exact_gradients_rejected(self):
        with pytest.raises(ConfigError):
            softmax_spec(exact_gradients=True).validate()

    def test_softmax_with_byzantine_rejected(self):
        spec = softmax_spec(byzantine_count=1, attack=AttackSpec(kind=ATTACK_BIT_FLIP))
        with pytest.raises(ConfigError, match="byzantine clients are supported on the mean task only"):
            run_experiment(spec)

    def test_no_methods_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(methods=[]).validate()


def small_ints(low, high):
    """An int field's values: Python or numpy integers in [low, high]."""
    return st.integers(low, high) | st.integers(low, high).map(np.int64)


SMALL_RULES = st.sampled_from([
    full_method(),
    FedAdp("fedadp"),
    FedAdp("fedadp", alpha=2),
    Tawt("tawt", step_size=1.0),
    MeritFed("meritfed-md", md=MdConfig(step_size=2.0, step_count=3)),
    MeritFed("meritfed-zo", md=MdConfig(step_size=2, step_count=np.int64(3), estimator=ESTIMATOR_ZO)),
]) | st.builds(
    lambda k: MeritFed("meritfed-smd", md=MdConfig(step_size=2.0, step_count=3, minibatch=k)),
    small_ints(0, 8),
) | st.builds(lambda k: SgdIdeal("sgd-ideal", group_size=k), small_ints(-1, 3)) | st.builds(
    lambda k: FedAvg(f"fedavg-{k}", sample_count=k), small_ints(-1, 3)
)

# Values of another type than most fields' hints; one of them may replace
# one field of a drawn spec.
ODD_VALUES = [None, "1", 1.5, True, float("nan"), float("inf"), 10**400, [], (1, 1, 1), object(), MeanTask()]
SPEC_FIELDS = [f.name for f in dataclasses.fields(ExperimentSpec)]


class TestSmallSpecsRunOrRaiseConfigError:
    """Every small spec either runs a round or is rejected with ConfigError before round 0."""

    @settings(max_examples=400, deadline=None)
    @given(
        methods=st.lists(SMALL_RULES, min_size=0, max_size=3),
        task=st.builds(MeanTask, group2_shift=st.integers(-1, 1) | st.floats(-1, 1))
        | st.just(SoftmaxTask(n_classes=3, test_size=5)),
        dim=small_ints(0, 12),
        group_counts=st.lists(small_ints(-1, 3), min_size=0, max_size=4).map(tuple),
        byzantine_count=small_ints(-1, 3),
        attack=st.builds(
            AttackSpec, st.sampled_from((ATTACK_NONE,) + ATTACK_KINDS), sigma=st.integers(0, 2) | st.floats(0, 2)
        ),
        shard_size=small_ints(0, 8),
        batch_size=small_ints(0, 8),
        model_step=st.sampled_from([0.01, 0.5, 1]),
        rounds=small_ints(0, 2),
        validation_size=small_ints(0, 20),
        validation_mode=st.sampled_from([MODE_EXTRA, MODE_REUSE_TRAIN, MODE_POPULATION]),
        exact_gradients=st.booleans(),
        master_seed=small_ints(-1, 3),
        weight_log_every=small_ints(0, 2),
        odd=st.none() | st.tuples(st.sampled_from(SPEC_FIELDS), st.sampled_from(ODD_VALUES)),
    )
    def test_round_zero_runs_or_config_error(self, odd, **fields):
        if odd is not None:
            fields[odd[0]] = odd[1]
        try:
            state = RunState(ExperimentSpec(**fields))
        except ConfigError:
            return
        run_round(state, 0)


class TestExactGradientTrajectories:
    def test_full_averaging_contracts_like_gradient_descent(self):
        # All centers zero, exact gradients: every client sends 2*x, so the
        # uniform update is x <- (1 - 2*step) x and after T rounds the point
        # is (1 - 2*step)^T * ones exactly.
        step, rounds = 0.01, 40
        spec = small_spec(
            methods=[full_method()],
            model_step=step,
            group_counts=(4, 0, 0),
            exact_gradients=True,
            rounds=rounds,
            validation_mode=MODE_POPULATION,
        )
        result = run_experiment(spec)
        expected = (1.0 - 2.0 * step) ** rounds * np.ones(spec.dim)
        np.testing.assert_allclose(result.final_points["sgd-full"], expected, rtol=1e-12)

    def test_ideal_subset_ignores_shifted_groups(self):
        # Oracle averaging over group 1 sees only zero centers, so the
        # trajectory is the same contraction regardless of groups 2 and 3.
        step, rounds = 0.05, 10
        spec = small_spec(
            methods=[ideal_method(2)],
            model_step=step,
            group_counts=(2, 5, 3),
            exact_gradients=True,
            rounds=rounds,
            validation_mode=MODE_POPULATION,
        )
        result = run_experiment(spec)
        expected = (1.0 - 2.0 * step) ** rounds * np.ones(spec.dim)
        np.testing.assert_allclose(result.final_points["sgd-ideal"], expected, rtol=1e-12)

    def test_full_averaging_pulls_towards_center_mean(self):
        # One round from x0 with exact gradients: x1 = x0 - 2*step*(x0 - cbar)
        # where cbar is the mean of the client centers.
        step = 0.1
        spec = small_spec(
            methods=[full_method()],
            model_step=step,
            group_counts=(1, 0, 1),
            exact_gradients=True,
            rounds=1,
            validation_mode=MODE_POPULATION,
        )
        result = run_experiment(spec)
        direction = result.mixture_direction
        cbar = direction / 2.0
        x0 = np.ones(spec.dim)
        expected = x0 - 2.0 * step * (x0 - cbar)
        np.testing.assert_allclose(result.final_points["sgd-full"], expected, rtol=1e-12)

    def test_mixture_direction_is_unit_norm(self):
        result = run_experiment(small_spec(rounds=1))
        assert abs(np.linalg.norm(result.mixture_direction) - 1.0) <= 1e-12


class TestStochasticReplay:
    def test_one_round_matches_hand_replay_from_shards(self):
        # Rebuild the round from the result's samples and the shared batch
        # streams; the engine's update must match exactly.
        step = 0.02
        spec = small_spec(methods=[full_method()], model_step=step, rounds=1)
        result = run_experiment(spec)
        n = spec.n_clients
        x0 = np.ones(spec.dim)
        grads = np.empty((n, spec.dim))
        for i in range(n):
            rng = streams.substream(spec.master_seed, streams.BATCH, i, 0)
            rows = rng.choice(spec.shard_size, size=spec.batch_size, replace=False)
            grads[i] = 2.0 * (x0 - result.samples[i][rows].mean(axis=0))
        expected = x0 - step * grads.mean(axis=0)
        np.testing.assert_array_equal(result.final_points["sgd-full"], expected)

    def test_ideal_equals_local_descent_on_target_client(self):
        # With a single target client, oracle averaging is plain local SGD on
        # that client's shard.
        step, rounds = 0.05, 8
        spec = small_spec(
            methods=[ideal_method(1)], model_step=step, group_counts=(1, 2, 1), rounds=rounds
        )
        result = run_experiment(spec)
        x = np.ones(spec.dim)
        for t in range(rounds):
            rng = streams.substream(spec.master_seed, streams.BATCH, 0, t)
            rows = rng.choice(spec.shard_size, size=spec.batch_size, replace=False)
            x = x - step * 2.0 * (x - result.samples[0][rows].mean(axis=0))
        np.testing.assert_array_equal(result.final_points["sgd-ideal"], x)


class TestDeterminismAndCoupling:
    def test_rerun_is_bit_identical(self):
        spec_a = small_spec(methods=[full_method(), meritfed_method()])
        spec_b = small_spec(methods=[full_method(), meritfed_method()])
        r1 = run_experiment(spec_a)
        r2 = run_experiment(spec_b)
        for label in r1.final_points:
            np.testing.assert_array_equal(r1.final_points[label], r2.final_points[label])
        assert [
            (m.round_index, m.method, m.val_loss, m.dist_sq) for m in r1.metrics
        ] == [(m.round_index, m.method, m.val_loss, m.dist_sq) for m in r2.metrics]
        for (t1, l1, w1), (t2, l2, w2) in zip(r1.weight_rows, r2.weight_rows):
            assert (t1, l1) == (t2, l2)
            np.testing.assert_array_equal(w1, w2)

    def test_same_spec_reruns_identically(self):
        # Cross-round rule state lives in copies owned by each run, so a
        # second run of the very same spec object starts from fresh state.
        spec = small_spec(
            methods=[
                FedAdp("fedadp"),
                Tawt("tawt", step_size=3.5),
                FedAvg("fedavg-2", sample_count=2),
                meritfed_method(),
            ]
        )
        r1 = run_experiment(spec)
        r2 = run_experiment(spec)
        assert r1.metrics == r2.metrics
        assert len(r1.weight_rows) == len(r2.weight_rows)
        for (t1, l1, w1), (t2, l2, w2) in zip(r1.weight_rows, r2.weight_rows):
            assert (t1, l1) == (t2, l2)
            np.testing.assert_array_equal(w1, w2)
        for label in r1.final_points:
            np.testing.assert_array_equal(r1.final_points[label], r2.final_points[label])

    def test_softmax_spec_reruns_identically(self):
        # The run's data lives in a copy of the spec's task, so a second run
        # of the same spec rebuilds it and the spec's task stays empty.
        spec = softmax_spec(methods=[full_method(), meritfed_method()])
        r1 = run_experiment(spec)
        r2 = run_experiment(spec)
        assert r1.metrics == r2.metrics
        for label in r1.final_points:
            np.testing.assert_array_equal(r1.final_points[label], r2.final_points[label])
        assert r1.oracle is not r2.oracle
        task = spec.task
        assert task.samples is None and task.oracle is None and task.start is None
        assert task.labels is None and task.test_set is None

    def test_method_set_does_not_perturb_other_methods(self):
        # Batch streams are keyed by client and round only, and the exact
        # inner solver draws no randomness, so adding or reordering methods
        # leaves each method's own trajectory untouched.
        alone = run_experiment(small_spec(methods=[full_method()]))
        first = run_experiment(small_spec(methods=[full_method(), meritfed_method()]))
        second = run_experiment(small_spec(methods=[meritfed_method(), full_method()]))
        np.testing.assert_array_equal(
            alone.final_points["sgd-full"], first.final_points["sgd-full"]
        )
        np.testing.assert_array_equal(
            first.final_points["sgd-full"], second.final_points["sgd-full"]
        )
        np.testing.assert_array_equal(
            first.final_points["meritfed-md"], second.final_points["meritfed-md"]
        )

    def test_attack_noise_shared_across_methods(self):
        # Noise draws are per worker and round, not per method: two copies of
        # the same rule see identical corrupted gradients and stay identical.
        spec = small_spec(
            methods=[full_method(label="copy-a"), full_method(label="copy-b")],
            group_counts=(2, 0, 0),
            byzantine_count=2,
            attack=AttackSpec(kind=ATTACK_RANDOM_NOISE, sigma=1.0),
        )
        result = run_experiment(spec)
        np.testing.assert_array_equal(
            result.final_points["copy-a"], result.final_points["copy-b"]
        )


class TestObserverAndDominance:
    def test_observer_sees_consistent_transitions(self):
        seen = []

        def observer(t, label, x_before, gradients, w, delta, x_after):
            seen.append((t, label, x_before.copy(), gradients.copy(), w.copy(), delta, x_after.copy()))

        spec = small_spec(methods=[full_method()], model_step=0.03, rounds=4)
        run_experiment(spec, observer=observer)
        assert [t for t, *_ in seen] == [0, 1, 2, 3]
        for t, label, x_before, gradients, w, delta, x_after in seen:
            assert label == "sgd-full"
            assert delta is None
            np.testing.assert_allclose(
                x_after, x_before - 0.03 * (w @ gradients), rtol=1e-12
            )
        # Chained: each round starts where the previous ended.
        for prev, cur in zip(seen, seen[1:]):
            np.testing.assert_array_equal(prev[6], cur[2])

    def test_solved_weights_dominate_target_average_within_gap(self):
        # With at most three clients the reported gap is measured against the
        # brute-force grid, and averaging group 1 is itself a grid point, so
        # the post-update population loss can exceed that reference by at
        # most the gap.
        oracle = None
        rows = []

        def observer(t, label, x_before, gradients, w, delta, x_after):
            rows.append((x_before.copy(), gradients.copy(), delta, x_after.copy()))

        step = 0.05
        spec = small_spec(
            methods=[meritfed_method(md_steps=25)],
            model_step=step,
            group_counts=(2, 1, 0),
            rounds=6,
            validation_mode=MODE_POPULATION,
        )
        result = run_experiment(spec, observer=observer)
        oracle = result.oracle
        assert isinstance(oracle, MeanValidationOracle) and oracle.size == 0
        assert len(rows) == 6
        for x_before, gradients, delta, x_after in rows:
            assert delta is not None and delta >= 0.0
            reference = x_before - step * gradients[:2].mean(axis=0)
            f_after, _ = oracle.evaluate(x_after)
            f_ref, _ = oracle.evaluate(reference)
            assert f_after <= f_ref + delta + 1e-9


class TestMetricsLayout:
    def test_rows_cover_every_round_plus_final_state(self):
        spec = small_spec(methods=[full_method(), meritfed_method()], rounds=5)
        result = run_experiment(spec)
        by_method = {}
        for row in result.metrics:
            by_method.setdefault(row.method, []).append(row.round_index)
        for label in ("sgd-full", "meritfed-md"):
            assert by_method[label] == [0, 1, 2, 3, 4, 5]
        finals = [m for m in result.metrics if m.round_index == 5]
        assert all(m.delta is None for m in finals)

    def test_mean_metrics_relations(self):
        result = run_experiment(small_spec(rounds=2))
        for row in result.metrics:
            assert row.loss_gap == row.dist_sq
            assert abs(row.grad_norm_sq - 4.0 * row.dist_sq) <= 1e-12
            assert row.accuracy is None

    def test_weight_rows_follow_logging_cadence(self):
        spec = small_spec(methods=[full_method()], rounds=7, weight_log_every=3)
        result = run_experiment(spec)
        rounds_logged = [t for t, _, _ in result.weight_rows]
        assert rounds_logged == [0, 3, 6]
        for _, _, w in result.weight_rows:
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_first_round_metrics_at_initial_point(self):
        result = run_experiment(small_spec(rounds=1))
        first = result.metrics[0]
        assert first.round_index == 0
        assert abs(first.dist_sq - 3.0) <= 1e-12  # ones(3) vs zero optimum


class TestConvergenceReport:
    def test_bound_arithmetic_matches_hand_computation(self):
        out = check_convergence_bounds(
            initial_gap=10.0,
            avg_grad_norm_sq=1.0,
            final_gap=0.001,
            rounds=100,
            model_step=0.01,
            group_size=5,
            sigma_sq=0.4,
            delta_bar=0.002,
        )
        noncvx = 2.0 * 10.0 / (100 * 0.01) + 2.0 * 0.4 * 0.01 * 2.0 / 5 + 2.0 * 0.002 / 0.01
        pl = (1.0 - 0.01 * 2.0) ** 100 * 10.0 + 0.4 * 0.01 * 2.0 / (2.0 * 5) + 0.002 * 100 / (
            0.01 * 2.0
        )
        assert abs(out["noncvx_rhs"] - noncvx) <= 1e-12 * noncvx
        assert abs(out["pl_rhs"] - pl) <= 1e-12 * pl
        assert out["noncvx_holds"] and out["pl_holds"]
        assert out["step_size_ok"]

    def test_violated_bounds_are_reported(self):
        out = check_convergence_bounds(
            initial_gap=0.0,
            avg_grad_norm_sq=5.0,
            final_gap=5.0,
            rounds=10,
            model_step=0.01,
            group_size=5,
            sigma_sq=0.0,
            delta_bar=0.0,
        )
        assert not out["noncvx_holds"]
        assert not out["pl_holds"]

    @pytest.mark.parametrize("diverged", ["avg_grad_norm_sq", "final_gap"])
    def test_an_infinite_measured_side_holds_no_bound(self, diverged):
        # An infinite initial gap makes both right-hand sides inf; the bound
        # whose measured side is inf fails, the one with a finite side holds.
        measured = {"avg_grad_norm_sq": 1.0, "final_gap": 0.001, diverged: math.inf}
        out = check_convergence_bounds(
            initial_gap=math.inf,
            rounds=100,
            model_step=0.01,
            group_size=5,
            sigma_sq=0.4,
            delta_bar=0.002,
            **measured,
        )
        assert out["noncvx_rhs"] == out["pl_rhs"] == math.inf
        assert out["noncvx_holds"] == (diverged != "avg_grad_norm_sq")
        assert out["pl_holds"] == (diverged != "final_gap")

    @pytest.mark.parametrize("measured, bound", [("avg_grad_norm_sq", "noncvx"), ("final_gap", "pl")])
    def test_a_measured_side_holds_up_to_a_relative_and_absolute_1e_12(self, measured, bound):
        # The edge is rhs * (1 + 1e-12) + 1e-12: a side exactly there holds,
        # one a relative 1e-9 above the right-hand side does not.
        def report(value: float) -> dict:
            sides = {"avg_grad_norm_sq": 0.0, "final_gap": 0.0, measured: value}
            return check_convergence_bounds(
                initial_gap=10.0, rounds=100, model_step=0.01, group_size=5, sigma_sq=0.4, delta_bar=0.002, **sides
            )

        rhs = report(0.0)[f"{bound}_rhs"]
        assert report(rhs * (1.0 + 1e-12) + 1e-12)[f"{bound}_holds"]
        assert not report(rhs * (1.0 + 1e-9))[f"{bound}_holds"]

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        clients=st.integers(1, 3),
        dim=st.integers(1, 4),
        rounds=st.integers(2, 10),
        md_steps=st.integers(1, 10),
        model_step=st.floats(0.01, 0.25),
        md_lr=st.sampled_from([0.5, 2.0, 3.5, 12.5]),
        group2_shift=st.sampled_from([0.0, 0.001, 0.1, 1.0]),
        seed=st.integers(0, 3),
    )
    def test_deterministic_runs_meet_both_bounds(
        self, data, clients, dim, rounds, md_steps, model_step, md_lr, group2_shift, seed
    ):
        # Exact gradients and the population oracle leave no noise: with at
        # most three clients the grid gap is the delta, and every row whose
        # step is small enough meets both bounds at their 1e-12 tolerance.
        group1 = data.draw(st.integers(1, clients), label="group1_count")
        group2 = data.draw(st.integers(0, clients - group1), label="group2_count")
        overrides = {
            "group1_count": group1,
            "group2_count": group2,
            "group3_count": clients - group1 - group2,
            "dim": dim,
            "rounds": rounds,
            "md_steps": md_steps,
            "model_step": repr(model_step),
            "md_lr": md_lr,
            "group2_shift": group2_shift,
            "exact_gradients": "true",
            "validation_mode": "population",
            "shard_size": 20,
            "batch_size": 10,
            "methods": "meritfed-md,meritfed-zo,sgd-ideal",
        }
        config = parse_config("", preset="mean-mu-0.1", overrides=[f"{k}={v}" for k, v in overrides.items()])
        rows = run_experiment(build_experiment(config, master_seed=seed)).convergence
        assert [row.method for row in rows] == ["meritfed-md", "meritfed-zo", "sgd-ideal"]
        for row in rows:
            assert row.delta_estimator == DELTA_ESTIMATOR_GRID and row.step_size_ok
            assert row.noncvx_holds, (row.method, row.avg_grad_norm_sq, row.noncvx_rhs)
            assert row.pl_holds, (row.method, row.final_gap, row.pl_rhs)

    def test_large_step_flagged(self):
        out = check_convergence_bounds(
            initial_gap=1.0,
            avg_grad_norm_sq=0.0,
            final_gap=0.0,
            rounds=1,
            model_step=0.3,
            group_size=1,
            sigma_sq=0.0,
            delta_bar=0.0,
        )
        assert not out["step_size_ok"]

    def test_step_size_ok_up_to_one_over_twice_the_smoothness(self):
        # The bounds assume step <= 1 / (2 L), with L = 2 for the mean task: 0.25 itself is allowed.
        def step_size_ok(model_step: float) -> bool:
            return check_convergence_bounds(
                initial_gap=1.0, avg_grad_norm_sq=0.0, final_gap=0.0, rounds=1, model_step=model_step,
                group_size=1, sigma_sq=0.0, delta_bar=0.0,
            )["step_size_ok"]

        assert step_size_ok(0.25)
        assert not step_size_ok(math.nextafter(0.25, 1.0))

    def test_exact_gradient_run_has_zero_noise_tight_contraction(self):
        # Noise-free descent on the quadratic: the last-iterate gap equals
        # (1 - 2*step)^(2T) * initial gap, far below the contraction bound
        # (1 - 2*step)^T * initial gap, and the report must agree to
        # round-off.
        step, rounds = 0.01, 50
        spec = small_spec(
            methods=[full_method()],
            model_step=step,
            group_counts=(5, 0, 0),
            exact_gradients=True,
            rounds=rounds,
            validation_mode=MODE_POPULATION,
        )
        result = run_experiment(spec)
        row = result.convergence[0]
        assert row.sigma_sq == 0.0
        assert row.delta_bar == 0.0
        assert row.delta_estimator == DELTA_ESTIMATOR_ITERATE
        predicted_rhs = (1.0 - 2.0 * step) ** rounds * row.initial_gap
        assert abs(row.pl_rhs - predicted_rhs) <= 1e-12 * predicted_rhs
        assert row.noncvx_holds and row.pl_holds and row.step_size_ok
        assert row.final_gap <= predicted_rhs

    def test_stochastic_variance_constant(self):
        spec = small_spec(rounds=2)
        result = run_experiment(spec)
        row = result.convergence[0]
        assert abs(row.sigma_sq - 4.0 * spec.dim / spec.batch_size) <= 1e-15
        assert row.group_size == 2
        assert row.applies

    def test_byzantine_restricts_applicability(self):
        spec = small_spec(
            methods=[full_method(), meritfed_method(), ideal_method(2)],
            group_counts=(2, 0, 0),
            byzantine_count=2,
            attack=AttackSpec(kind=ATTACK_BIT_FLIP),
            rounds=2,
        )
        result = run_experiment(spec)
        applies = {row.method: row.applies for row in result.convergence}
        assert applies == {"sgd-full": False, "meritfed-md": True, "sgd-ideal": True}

    def test_small_client_count_uses_grid_estimator(self):
        spec = small_spec(
            methods=[meritfed_method()], group_counts=(2, 1, 0), rounds=2
        )
        result = run_experiment(spec)
        assert result.convergence[0].delta_estimator == DELTA_ESTIMATOR_GRID

    @pytest.mark.parametrize("group_counts", [(2, 0, 0), (2, 1, 0)])
    @pytest.mark.parametrize("validation_mode", [MODE_EXTRA, MODE_POPULATION])
    def test_grid_gap_is_the_brute_force_minimum(self, group_counts, validation_mode):
        rows = []

        def observer(t, label, x, gradients, w, delta, x_after):
            rows.append((x.copy(), gradients.copy(), w.copy(), delta))

        spec = small_spec(
            methods=[meritfed_method(md_steps=10)],
            group_counts=group_counts,
            rounds=3,
            validation_mode=validation_mode,
        )
        result = run_experiment(spec, observer=observer)
        assert isinstance(result.oracle, MeanValidationOracle)
        assert len(rows) == spec.rounds
        grid = simplex_grid(spec.n_clients, GRID_RESOLUTION)
        for x, gradients, w, delta in rows:
            obj = WeightObjective(x, gradients, spec.model_step, result.oracle)
            assert delta == max(obj.value(w) - min(obj.value(p) for p in grid), 0.0)

    @pytest.mark.parametrize(
        "preset, overrides, blank_delta_methods",
        [
            # 8 methods, all but the two solver rules with blank deltas.
            ("mean-mu-0.1", [], {"sgd-full", "sgd-ideal", "fedadp", "tawt", "fedavg-5", "fedavg-10"}),
            # 3 clients: the grid-gap delta.
            (
                "theorem-mean",
                ["exact_gradients=true", "validation_mode=population", "group1_count=3"],
                {"sgd-ideal"},
            ),
        ],
    )
    def test_report_is_a_function_of_each_methods_metric_rows(self, preset, overrides, blank_delta_methods):
        config = parse_config("", preset=preset, overrides=["seeds=1", "rounds=12"] + overrides)
        spec = build_experiment(config)
        result = run_experiment(spec)
        rounds, k = spec.rounds, len(spec.methods)
        assert [row.method for row in result.convergence] == [m.label for m in spec.methods]
        for slot, report in enumerate(result.convergence):
            rows = [m for m in result.metrics if m.method == report.method]
            # The engine appends one row per method per round, in slot order.
            assert result.metrics[slot::k] == rows
            assert [m.round_index for m in rows] == list(range(rounds + 1))
            assert all(m.delta is None for m in rows) == (report.method in blank_delta_methods)
            delta_sum = 0.0
            for m in rows[:rounds]:
                delta_sum += 0.0 if m.delta is None else m.delta
            assert report.initial_gap == rows[0].loss_gap
            assert report.final_gap == rows[rounds].loss_gap
            assert report.avg_grad_norm_sq == np.mean([m.grad_norm_sq for m in rows[:rounds]])
            assert report.delta_bar == delta_sum / rounds


class TestSoftmaxEngine:
    def test_run_completes_with_accuracy_metrics(self):
        spec = softmax_spec(methods=[full_method(), ideal_method(1)])
        result = run_experiment(spec)
        assert result.mixture_direction is None
        assert result.convergence == []
        for label in ("sgd-full", "sgd-ideal"):
            assert result.final_points[label].shape == (spec.task.n_classes * spec.dim,)
        for row in result.metrics:
            assert row.dist_sq is None
            assert 0.0 <= row.accuracy <= 1.0
            assert np.isfinite(row.val_loss)

    def test_softmax_training_reduces_validation_loss(self):
        spec = softmax_spec(
            methods=[ideal_method(1)],
            model_step=0.1,
            group_counts=(1, 0, 0),
            shard_size=200,
            batch_size=50,
            rounds=40,
            validation_size=300,
            master_seed=3,
        )
        result = run_experiment(spec)
        rows = [m for m in result.metrics if m.method == "sgd-ideal"]
        assert rows[-1].val_loss < rows[0].val_loss
        assert rows[-1].accuracy > rows[0].accuracy


class TestValidationModes:
    def test_reuse_train_with_exact_gradients_rejected(self):
        spec = small_spec(validation_mode=MODE_REUSE_TRAIN, exact_gradients=True)
        with pytest.raises(ConfigError):
            run_experiment(spec)

    def test_population_oracle_reports_population_loss(self):
        spec = small_spec(validation_mode=MODE_POPULATION, rounds=1)
        result = run_experiment(spec)
        first = result.metrics[0]
        # Population loss at ones(3) around the zero center: ||x||^2 + d.
        assert abs(first.val_loss - (3.0 + 3.0)) <= 1e-12

    def test_reuse_train_mode_runs(self):
        result = run_experiment(small_spec(validation_mode=MODE_REUSE_TRAIN, rounds=2))
        assert np.isfinite(result.metrics[-1].val_loss)

    @pytest.mark.parametrize("make_spec", [small_spec, softmax_spec])
    def test_the_task_checks_the_validation_set(self, make_spec):
        task = make_spec().task
        with pytest.raises(ConfigError, match=re.escape("needs validation_size >= 1")):
            task.check(make_spec(validation_size=0))
        with pytest.raises(ConfigError, match="too large for numpy to index"):
            task.check(make_spec(validation_size=2**62))
        with pytest.raises(ConfigError, match="reuse-train validation needs realized shards"):
            task.check(make_spec(validation_mode=MODE_REUSE_TRAIN, exact_gradients=True))

    @pytest.mark.parametrize(
        "make_spec, mode",
        [
            (small_spec, MODE_EXTRA),
            (small_spec, MODE_REUSE_TRAIN),
            (small_spec, MODE_POPULATION),
            (softmax_spec, MODE_EXTRA),
            (softmax_spec, MODE_REUSE_TRAIN),
        ],
    )
    def test_rules_are_checked_against_the_oracle_size(self, make_spec, mode, monkeypatch):
        # The rules are checked against the count the spec gives, and the
        # solver reads the built oracle's size. Minibatches of the whole set
        # and of one row fewer take the two sides of the solver's full-set
        # test.
        rows = validation_rows(make_spec(validation_mode=mode))

        def md(minibatch):
            return MdConfig(step_size=2.0, step_count=3, minibatch=minibatch)

        methods = [MeritFed("meritfed-md", md=md(0)), FedAvg("fedavg-2", sample_count=2)]
        if rows > 1:
            methods += [MeritFed("meritfed-smd", md=md(rows)), MeritFed("smd-1", md=md(rows - 1))]
        spec = make_spec(validation_mode=mode, methods=methods)
        checked = []
        monkeypatch.setattr(MeritFed, "check", lambda rule, n, size: checked.append(size))
        state = RunState(spec)
        assert checked == [state.task.oracle.size] * (len(methods) - 1)
        assert state.stream_tags == [rule.stream_tag(rows) for rule in spec.methods]
        assert [tag is not None for tag in state.stream_tags] == [False, True] + [False, True] * (rows > 1)


def reference_stream(master_seed, *key):
    """A stream as numpy's own SeedSequence seeds it (the stream contract)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed,) + key))


def per_client_rows(spec, round_index):
    """The per-client batch draw: one stream and one choice per client."""
    return [
        reference_stream(spec.master_seed, streams.BATCH, i, round_index).choice(
            spec.shard_size, size=spec.batch_size, replace=False
        )
        for i in range(spec.n_clients)
    ]


class TestRoundDrawsMatchPerClientLoop:
    # The engine derives a round's streams from one per-run RoundStreams and
    # gathers the batch means in one index; a loop over clients, one stream
    # at a time, is the oracle. 2^32 + 5 puts two 32-bit words in the master
    # seed's entropy.
    SEEDS = (0, 2**32 + 5)

    def byzantine_spec(self, master_seed, **kwargs):
        attack = AttackSpec(kind=ATTACK_RANDOM_NOISE, sigma=0.5)
        return small_spec(byzantine_count=3, attack=attack, master_seed=master_seed, **kwargs)

    @pytest.mark.parametrize("master_seed", SEEDS)
    @pytest.mark.parametrize("mode", ["extra-validation", MODE_REUSE_TRAIN])
    def test_honest_gradient_basis(self, master_seed, mode):
        state = RunState(self.byzantine_spec(master_seed, validation_mode=mode))
        for t in (0, 1, 4):
            expected = [
                state.task.samples[i][rows].mean(axis=0)
                for i, rows in enumerate(per_client_rows(state.spec, t))
            ]
            rows = state.round_draws(t).rows
            assert np.array_equal(state.task.round_basis(rows), np.array(expected))

    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_honest_gradient_basis_exact(self, master_seed):
        state = RunState(self.byzantine_spec(master_seed, exact_gradients=True))
        assert state.task.samples is None
        assert state.round_draws(2).rows is None
        assert np.array_equal(state.task.round_basis(None), state.task.centers)

    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_softmax_batch_rows(self, master_seed):
        spec = softmax_spec(master_seed=master_seed)
        state = RunState(spec)
        for t in (0, 2):
            assert np.array_equal(state.round_draws(t).rows, np.array(per_client_rows(spec, t)))

    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_softmax_honest_gradients(self, master_seed):
        state = RunState(softmax_spec(master_seed=master_seed))
        x = np.random.default_rng(5).standard_normal(state.task.model_dim(state.spec.dim))
        theta = x.reshape(state.task.n_classes, -1)
        for t in (0, 2):
            expected = [
                SoftmaxRows(samples[None, rows], labels[None, rows], len(theta)).loss_grad(theta)[1][0].ravel()
                for samples, labels, rows in zip(
                    state.task.samples, state.task.labels, per_client_rows(state.spec, t)
                )
            ]
            basis = state.task.round_basis(state.round_draws(t).rows)
            assert np.array_equal(state.task.honest_gradients(x, basis), np.array(expected))

    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_random_noise_rows(self, master_seed):
        spec = self.byzantine_spec(master_seed)
        state = RunState(spec)
        for t in (0, 3):
            expected = [
                reference_stream(master_seed, streams.ATTACK_NOISE, i, t).standard_normal(spec.dim)
                for i in range(spec.n_clients - spec.byzantine_count, spec.n_clients)
            ]
            assert np.array_equal(state.round_draws(t).noise, np.array(expected))
        assert RunState(small_spec(master_seed=master_seed)).round_draws(0).noise is None

    def test_mean_shards_share_one_block(self):
        spec = self.byzantine_spec(0)
        state = RunState(spec)
        block = state.task.samples
        assert isinstance(block, np.ndarray)
        assert block.shape == (spec.n_clients, spec.shard_size, spec.dim)
        # An in-place write to a client's samples reaches the gathered batch means.
        block[1] = 7.0
        basis = state.task.round_basis(state.round_draws(0).rows)
        np.testing.assert_array_equal(basis[1], np.full(spec.dim, 7.0))


class TestRoundStreams:
    # Groups (2, 1, 1) and two random-noise attackers (clients 4 and 5); of
    # the eight methods, meritfed-smd (slot 1) and meritfed-zo (slot 2) read
    # their MD stream and fedavg-1 and fedavg-3 (slots 6 and 7) their METHOD
    # stream. The exact full-set solver (slot 0) reads none.
    ROUND = 3

    def spec(self):
        md = MdConfig(step_size=2.0, step_count=3, estimator=ESTIMATOR_EXACT)
        methods = [
            MeritFed("meritfed-md", md=md),
            MeritFed("meritfed-smd", md=dataclasses.replace(md, minibatch=20)),
            MeritFed("meritfed-zo", md=dataclasses.replace(md, estimator=ESTIMATOR_ZO)),
            full_method(),
            FedAdp("fedadp"),
            Tawt("tawt", step_size=1.0),
            FedAvg("fedavg-1", sample_count=1),
            FedAvg("fedavg-3", sample_count=3),
        ]
        attack = AttackSpec(kind=ATTACK_RANDOM_NOISE)
        return small_spec(methods=methods, byzantine_count=2, attack=attack)

    def test_one_generators_call_per_round(self, monkeypatch):
        spec, t = self.spec(), self.ROUND
        state = RunState(spec)
        calls = []
        derive = streams.RoundStreams.generators

        def recording(derivation, round_index):
            rngs = derive(derivation, round_index)
            keys = [(tag, index, round_index) for tag, index in derivation.layout]
            calls.append((derivation.master_seed, keys, [rng.bit_generator.state for rng in rngs]))
            return rngs

        monkeypatch.setattr(streams.RoundStreams, "generators", recording)
        run_round(state, t)
        monkeypatch.undo()
        [(master_seed, keys, states)] = calls
        expected = [(streams.BATCH, i, t) for i in range(spec.n_clients)]
        expected += [(streams.ATTACK_NOISE, i, t) for i in (4, 5)]
        expected += [(streams.MD, 1, t), (streams.MD, 2, t)]
        expected += [(streams.METHOD, 6, t), (streams.METHOD, 7, t)]
        assert master_seed == spec.master_seed
        assert sorted(keys) == sorted(expected)
        assert len(states) == len(keys)
        for key, state_at_open in zip(keys, states):
            assert state_at_open == streams.substream(spec.master_seed, *key).bit_generator.state

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_attacker_batches_are_drawn_only_when_the_attack_reads_them(self, kind, monkeypatch):
        # The colluding attacks read the target group's messages only, so the
        # Byzantine block (clients 4 and 5) opens no batch stream and draws
        # no rows.
        spec, t = small_spec(byzantine_count=2, attack=AttackSpec(kind=kind)), self.ROUND
        state = RunState(spec)
        opened = []
        derive = streams.RoundStreams.generators

        def recording(derivation, round_index):
            opened.extend((tag, index, round_index) for tag, index in derivation.layout)
            return derive(derivation, round_index)

        monkeypatch.setattr(streams.RoundStreams, "generators", recording)
        rows = state.round_draws(t).rows
        batch_clients = [key[1] for key in opened if key[0] == streams.BATCH]
        expected = per_client_rows(spec, t)
        if kind in (ATTACK_BIT_FLIP, ATTACK_RANDOM_NOISE):
            assert batch_clients == list(range(6))
        else:
            assert batch_clients == list(range(4))
            expected = expected[:4]
        assert np.array_equal(rows, np.array(expected))

    def test_each_rule_gets_its_stream_of_the_round(self):
        spec, t = self.spec(), self.ROUND
        method_streams = RunState(spec).round_draws(t).method_streams
        tags = [None, streams.MD, streams.MD, None, None, None, streams.METHOD, streams.METHOD]
        assert len(method_streams) == len(tags)
        for m, (rng, tag) in enumerate(zip(method_streams, tags)):
            if tag is None:
                assert rng is None, m
            else:
                reference = streams.substream(spec.master_seed, tag, m, t)
                assert rng.bit_generator.state == reference.bit_generator.state, m

    @pytest.mark.parametrize("mode, rows", [(MODE_EXTRA, 200), (MODE_REUSE_TRAIN, 50)])
    def test_minibatch_of_the_whole_set_opens_no_stream(self, mode, rows):
        # The solver steps on the full set when its minibatch is the whole
        # validation set, so no MD stream is derived for it; one row fewer
        # draws rows from its stream.
        def method_streams(minibatch):
            md = MdConfig(step_size=2.0, step_count=3, minibatch=minibatch)
            spec = small_spec(methods=[MeritFed("smd", md=md)], validation_mode=mode)
            return RunState(spec).round_draws(self.ROUND).method_streams

        assert method_streams(rows) == [None]
        assert method_streams(rows - 1)[0] is not None
