"""Tests for task objectives, data generation, and validation oracles.

Oracles: closed-form Gaussian moments (E||xi||^2 = d, batch-mean covariance
I/b), long-run gradient descent for the mixture fixed point, central
finite differences for the softmax gradient, and the row-wise softmax in
(rows, classes) layout (`reference_softmax_loss_grad`), which the softmax
kernel must match bit for bit on a single row set and on every member of a
stack.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritfed import streams, tasks
from meritfed.aggregators import SgdFull
from meritfed.cli import build_experiment, parse_config
from meritfed.engine import ExperimentSpec, RunState, run_round
from meritfed.errors import ConfigError, MeritFedError
from meritfed.simplex_opt import MdConfig, WeightObjective, solve_weights
from meritfed.tasks import (
    MEAN_PL_CONSTANT,
    MEAN_SMOOTHNESS,
    MODE_EXTRA,
    MODE_REUSE_TRAIN,
    MeanTask,
    MeanValidationOracle,
    SoftmaxRows,
    SoftmaxTask,
    SoftmaxValidationOracle,
    generate_mean_shards,
    pairwise_row_sums,
    softmax_accuracy,
    softmax_class_centers,
    softmax_task_generate,
)


def mean_loss(x, sample):
    """Squared distance ||x - sample||^2, the mean task's per-sample loss."""
    r = np.asarray(x, dtype=float) - np.asarray(sample, dtype=float)
    return float(r @ r)


def mean_grad(x, batch):
    """Mean-task gradient on a batch, from the validation oracle over that batch."""
    return MeanValidationOracle(batch).evaluate(x)[1]


class TestMeanLoss:
    # The oracle over a single sample evaluates that sample's loss.

    def test_coincident_points(self):
        assert MeanValidationOracle(np.zeros((1, 3))).evaluate(np.zeros(3))[0] == 0.0

    def test_unit_offsets(self):
        oracle = MeanValidationOracle(np.array([[0.0, 1.0]]))
        assert oracle.evaluate(np.array([1.0, 0.0]))[0] == 2.0

    def test_expected_loss_at_center_is_dimension(self):
        d = 10
        rng = np.random.default_rng(12)
        samples = rng.standard_normal((1000000, d))
        empirical = float(np.mean((samples * samples).sum(axis=1)))
        assert abs(empirical - d) <= 0.05


class TestMeanGrad:
    def test_formula(self):
        batch = np.array([[0.1, 0.0, 0.0]])
        np.testing.assert_allclose(mean_grad(np.zeros(3), batch), [-0.2, 0.0, 0.0], atol=1e-15)

    def test_vanishes_at_batch_mean(self):
        batch = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(mean_grad(batch.mean(axis=0), batch), np.zeros(2))

    def test_empty_batch_rejected(self):
        spec = ExperimentSpec(methods=[SgdFull("sgd-full")], task=MeanTask(), batch_size=0)
        with pytest.raises(ConfigError, match="batch_size must be >= 1, got 0"):
            spec.validate()

    def test_unbiased_over_fresh_batches(self):
        # Empirical mean of the stochastic gradient at fixed x over 1e5 fresh
        # batches matches the population gradient 2(x - center) within three
        # standard errors per coordinate (and within the 1e-2 budget).
        d, b, m = 10, 100, 100000
        x = np.linspace(-1.0, 1.0, d)
        center = np.zeros(d)
        rng = np.random.default_rng(77)
        total = np.zeros(d)
        for _ in range(100):
            batches = center + rng.standard_normal((1000, b, d))
            total += (2.0 * (x - batches.mean(axis=1))).sum(axis=0)
        empirical = total / m
        expected = 2.0 * (x - center)
        se = 2.0 / np.sqrt(b * m)  # std of one gradient coordinate is 2/sqrt(b)
        assert np.all(np.abs(empirical - expected) <= 3.0 * se)
        assert np.all(np.abs(empirical - expected) <= 1e-2)

    def test_variance_matches_closed_form(self):
        # E||g - grad f||^2 = 4d/b for identity-covariance Gaussian samples.
        d, b, m = 10, 100, 100000
        x = np.ones(d)
        center = np.zeros(d)
        rng = np.random.default_rng(21)
        expected_grad = 2.0 * (x - center)
        total = 0.0
        for _ in range(100):
            batches = center + rng.standard_normal((1000, b, d))
            deviation = 2.0 * (x - batches.mean(axis=1)) - expected_grad
            total += float((deviation * deviation).sum())
        empirical = total / m
        target = 4.0 * d / b
        assert abs(empirical - target) / target <= 0.05


class TestTrueOptimum:
    # The population objective is minimized at the center with value d.

    def test_standard_normal_group(self):
        f_star, grad = MeanValidationOracle.population(np.zeros(10)).evaluate(np.zeros(10))
        np.testing.assert_array_equal(grad, np.zeros(10))
        assert f_star == 10.0

    def test_shifted_group(self):
        center = 0.1 * np.ones(10)
        f_star, grad = MeanValidationOracle.population(center).evaluate(center)
        np.testing.assert_array_equal(grad, np.zeros(10))
        assert f_star == 10.0

    def test_mixture_fixed_point_matches_gradient_descent(self):
        # Uniform aggregation over 5 + 95 + 50 clients has stationary point
        # (95*mu*ones + 50*e)/150; confirm by gradient descent on the mixture
        # loss driven to 1e-10.
        d, mu = 10, 0.1
        e = streams.unit_sphere_vector(streams.substream(0, streams.MIXTURE_DIRECTION), d)
        centers = np.vstack(
            [np.zeros((5, d)), np.tile(mu * np.ones(d), (95, 1)), np.tile(e, (50, 1))]
        )
        predicted = (95 * mu * np.ones(d) + 50 * e) / 150.0

        x = np.ones(d)
        for _ in range(20000):
            grad = 2.0 * (x - centers.mean(axis=0))
            x = x - 0.1 * grad
            if float(grad @ grad) < 1e-22:
                break
        assert float(grad @ grad) < 1e-20
        np.testing.assert_allclose(x, predicted, atol=1e-10)


class TestQuadraticConstants:
    def test_smoothness_and_pl_hold_with_equality(self):
        rng = np.random.default_rng(5)
        center = rng.standard_normal(10)
        oracle = MeanValidationOracle.population(center)
        f_star = 10.0
        for _ in range(50):
            x = rng.standard_normal(10) * 3
            y = rng.standard_normal(10) * 3
            fx, gx = oracle.evaluate(x)
            fy, _ = oracle.evaluate(y)
            upper = fx + float(gx @ (y - x)) + 0.5 * MEAN_SMOOTHNESS * float((y - x) @ (y - x))
            assert abs(fy - upper) <= 1e-12 * max(1.0, abs(fy))
            pl_lhs = float(gx @ gx)
            pl_rhs = 2.0 * MEAN_PL_CONSTANT * (fx - f_star)
            assert abs(pl_lhs - pl_rhs) <= 1e-12 * max(1.0, abs(pl_lhs))


class TestShardGeneration:
    def test_reproducible(self):
        centers = np.zeros((3, 4))
        a = generate_mean_shards(9, centers, 50)
        b = generate_mean_shards(9, centers, 50)
        assert a.shape == (3, 50, 4)
        np.testing.assert_array_equal(a, b)

    def test_clients_draw_independent_streams(self):
        centers = np.zeros((2, 4))
        samples = generate_mean_shards(9, centers, 50)
        assert not np.array_equal(samples[0], samples[1])

    def test_client_stream_is_stable_under_client_count(self):
        big = generate_mean_shards(3, np.zeros((5, 4)), 20)
        small = generate_mean_shards(3, np.zeros((2, 4)), 20)
        np.testing.assert_array_equal(big[1], small[1])

    def test_center_offsets_applied(self):
        center = 5.0 * np.ones(4)
        samples = generate_mean_shards(1, center[None, :], 2000)[0]
        assert np.all(np.abs(samples.mean(axis=0) - center) < 0.2)


class TestValidationOracles:
    def test_gradient_zero_at_sample_mean(self):
        rng = np.random.default_rng(8)
        samples = rng.standard_normal((200, 5))
        oracle = MeanValidationOracle(samples)
        _, grad = oracle.evaluate(samples.mean(axis=0))
        np.testing.assert_allclose(grad, np.zeros(5), atol=1e-12)

    def test_matches_direct_average(self):
        rng = np.random.default_rng(13)
        samples = rng.standard_normal((64, 3))
        oracle = MeanValidationOracle(samples)
        x = np.array([0.5, -1.0, 2.0])
        value, grad = oracle.evaluate(x)
        direct = float(np.mean([mean_loss(x, s) for s in samples]))
        assert abs(value - direct) <= 1e-12 * max(1.0, direct)
        np.testing.assert_allclose(grad, 2.0 * (x - samples.mean(axis=0)), rtol=1e-12)

    @staticmethod
    def solver_objective(rows):
        # The solver over a mean oracle of the given number of rows.
        rng = np.random.default_rng(3)
        return WeightObjective(
            x=rng.standard_normal(4),
            gradients=rng.standard_normal((5, 4)),
            model_step=0.3,
            loss_oracle=MeanValidationOracle(rng.standard_normal((rows, 4))),
        )

    def test_full_minibatch_equals_full_set(self):
        # A solver minibatch of all 40 rows steps on the full-set gradient
        # and draws nothing.
        obj = self.solver_objective(40)
        w0, delta0 = solve_weights(obj, MdConfig(step_size=1.0, step_count=5, minibatch=0))
        stream = np.random.default_rng(0)
        before = stream.bit_generator.state
        w1, delta1 = solve_weights(obj, MdConfig(step_size=1.0, step_count=5, minibatch=40), stream)
        assert delta0 == delta1
        np.testing.assert_array_equal(w0, w1)
        assert stream.bit_generator.state == before

    def test_minibatch_gradient_unbiased(self):
        # Averaging the minibatch gradient over 1e4 without-replacement draws
        # recovers the full-set gradient within 1e-2 per coordinate.
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((1000, 10))
        oracle = MeanValidationOracle(samples)
        x = np.linspace(-1, 1, 10)
        _, full = oracle.evaluate(x)
        stream = np.random.default_rng(123)
        total = np.zeros(10)
        draws = 10000
        for _ in range(draws):
            total += oracle.gradient_rows(x, stream.choice(1000, size=100, replace=False))
        np.testing.assert_allclose(total / draws, full, atol=1e-2)

    def test_oversized_minibatch_rejected(self):
        obj = self.solver_objective(10)
        cfg = MdConfig(step_size=1.0, step_count=5, minibatch=11)
        with pytest.raises(MeritFedError, match="minibatch 11 exceeds validation set size 10"):
            solve_weights(obj, cfg, np.random.default_rng(0))

    def test_empty_validation_rejected(self):
        with pytest.raises(ConfigError):
            MeanValidationOracle(np.empty((0, 3)))

    def test_value_equals_loss_of_evaluate(self):
        rng = np.random.default_rng(14)
        features, labels = rng.standard_normal((300, 6)), rng.integers(0, 4, size=300)
        cases = [
            (MeanValidationOracle(rng.standard_normal((500, 6))), 6),
            (MeanValidationOracle.population(rng.standard_normal(6)), 6),
            (SoftmaxValidationOracle(features, labels, 4), 24),
        ]
        for oracle, size in cases:
            for _ in range(5):
                x = rng.standard_normal(size) * 3.0
                value = oracle.value(x)
                assert isinstance(value, float)
                assert value == oracle.evaluate(x)[0]

    def test_row_norms_and_minibatch_match_direct_computation(self):
        # The mean squared norm, from row norms built a chunk of rows at a
        # time, is that of the row-wise squared norms bit for bit, across
        # more than one chunk; the gradient on given rows is that of their
        # mean.
        rng = np.random.default_rng(15)
        samples = rng.standard_normal((10000, 7)) * 3.0
        oracle = MeanValidationOracle(samples)
        squares = (samples * samples).sum(axis=1)
        assert oracle.mean_sq_norm == float(np.mean(squares))
        x = rng.standard_normal(7)
        rows = rng.choice(10000, size=300, replace=False)
        expected = 2.0 * (x - samples[rows].mean(axis=0))
        assert np.array_equal(oracle.gradient_rows(x, rows), expected)

    def test_construction_makes_no_samples_sized_temporary(self):
        # 100,000 x 10 rows are 8,000,000 bytes; squaring them at once would
        # allocate that much again.
        samples = np.random.default_rng(16).standard_normal((100000, 10))
        tracemalloc.start()
        try:
            MeanValidationOracle(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_population_oracle_is_true_loss(self):
        center = np.array([1.0, -1.0])
        oracle = MeanValidationOracle.population(center)
        value, grad = oracle.evaluate(np.zeros(2))
        assert value == 2.0 + 2.0  # squared distance plus dimension
        np.testing.assert_array_equal(grad, -2.0 * center)


def mean_run_oracle(construction):
    """The validation oracle a small mean run builds: kept or streamed rows, the reuse-train shard, or population."""
    mode, methods = {
        "kept-rows": ("extra-validation", "meritfed-smd"),
        "streamed-rows": ("extra-validation", "meritfed-md"),
        "reuse-train": ("reuse-train", "meritfed-md"),
        "population": ("population", "meritfed-md"),
    }[construction]
    overrides = [
        "seeds=1", "rounds=1", "dim=4", "group1_count=2", "group2_count=1", "group3_count=1", "shard_size=40",
        "batch_size=10", "validation_size=50", "smd_minibatch=10", f"validation_mode={mode}", f"methods={methods}",
    ]
    return RunState(build_experiment(parse_config("", preset="mean-mu-0.1", overrides=overrides))).task.oracle


class TestOneMeanOracle:
    # One class serves every mean validation mode. Its population instance
    # gives the bits of the population formula ||x - 0||^2 + d at every finite
    # point, and every instance gives the loss inf at a point with an
    # infinite entry and nan at a point with a nan entry.

    @settings(max_examples=400, deadline=None)
    @given(
        dim=st.integers(1, 57),
        exponent=st.floats(-300, 150),
        seed=st.integers(0, 2**32 - 1),
        negative_zeros=st.floats(0, 1),
    )
    def test_population_instance_is_the_population_formula(self, dim, exponent, seed, negative_zeros):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(dim) * 10.0**exponent
        x[rng.random(dim) < negative_zeros] = -0.0
        center = np.zeros(dim)
        r = x - center
        value, grad = MeanValidationOracle.population(center).evaluate(x)
        assert MeanValidationOracle.population(center).value(x) == value == float(r @ r) + float(center.size)
        assert grad.tobytes() == (2.0 * (x - center)).tobytes()

    @pytest.mark.parametrize("construction", ["kept-rows", "streamed-rows", "reuse-train", "population"])
    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(st.floats(allow_nan=False), min_size=4, max_size=4),
        infinite=st.sets(st.integers(0, 3), min_size=1),
        negative=st.booleans(),
        nan_at=st.integers(0, 3),
    )
    def test_infinite_entry_gives_inf_and_nan_entry_nan(self, construction, entries, infinite, negative, nan_at):
        oracle = mean_run_oracle(construction)
        assert (oracle.size, oracle.samples is None) == {
            "kept-rows": (50, False), "streamed-rows": (50, True), "reuse-train": (40, False), "population": (0, True)
        }[construction]
        x = np.array(entries)
        x[sorted(infinite)] = -math.inf if negative else math.inf
        with np.errstate(over="ignore", invalid="ignore"):  # as a run's rounds are
            assert oracle.value(x) == math.inf
            assert oracle.evaluate(x)[0] == oracle.value(x)
            x[nan_at] = math.nan
            assert math.isnan(oracle.value(x)) and math.isnan(oracle.evaluate(x)[0])


class TestMeanRoundBasis:
    # The round's batch means, folded over blocks of batch positions of every
    # client, equal each client's own batch mean bit for bit, and so does
    # the oracle's gradient on given rows at d = 1, where numpy sums a
    # contiguous batch pairwise.

    @pytest.mark.parametrize(
        "n, shard_size, batch, dim",
        [(150, 1000, 100, 10), (7, 40, 1, 5), (7, 40, 40, 5), (1, 40, 13, 5), (9, 40, 20, 1)],
        ids=["mean-mu-0.1", "batch-1", "batch-is-shard", "one-client", "dim-1"],
    )
    def test_equals_each_clients_batch_mean(self, n, shard_size, batch, dim):
        overrides = [
            f"group1_count={n}", "group2_count=0", "group3_count=0", f"shard_size={shard_size}",
            f"batch_size={batch}", f"dim={dim}", "methods=sgd-full", "seeds=1",
        ]
        state = RunState(build_experiment(parse_config("", preset="mean-mu-0.1", overrides=overrides)))
        task = state.task
        for round_index in range(3):
            rows = state.round_draws(round_index).rows
            expected = np.array([samples[r].mean(axis=0) for samples, r in zip(task.samples, rows)])
            assert np.array_equal(task.round_basis(rows), expected)

    def test_gradient_rows_at_dimension_one(self):
        rng = np.random.default_rng(17)
        samples = rng.standard_normal((500, 1)) * 3.0
        oracle = MeanValidationOracle(samples)
        x = rng.standard_normal(1)
        for size in (1, 7, 8, 130, 500):
            rows = rng.choice(500, size=size, replace=False)
            assert np.array_equal(oracle.gradient_rows(x, rows), 2.0 * (x - samples[rows].mean(axis=0)))

    @pytest.mark.parametrize("kind", ["ipm", "alie", "random-noise"])
    def test_byzantine_rows_are_averaged_only_when_the_attack_reads_them(self, kind):
        # The colluding attacks overwrite the Byzantine rows unread, so the
        # basis gives them client 0's mean; random-noise reads each
        # attacker's own batch mean.
        overrides = ["seeds=1", f"attack_kind={kind}"]
        state = RunState(build_experiment(parse_config("", preset="byzantine-ipm", overrides=overrides)))
        task, honest = state.task, state.spec.n_clients - state.spec.byzantine_count
        for round_index in range(2):
            rows = state.round_draws(round_index).rows
            basis = task.round_basis(rows)
            expected = np.array([samples[r].mean(axis=0) for samples, r in zip(task.samples, rows)])
            assert basis.shape == task.centers.shape
            assert np.array_equal(basis[:honest], expected[:honest])
            if kind == "random-noise":
                assert np.array_equal(basis, expected)
            else:
                assert len(rows) == honest
                assert all(np.array_equal(row, basis[0]) for row in basis[honest:])


class TestFoldMean:
    # `fold_mean` folds the rows a bounded block at a time, each block
    # continuing the sum so far. At every block bound the round basis and
    # the mean oracle equal numpy's own means bit for bit, and a round holds
    # no gather that grows with batch x clients x dim.

    @staticmethod
    def block_bounds(count: int) -> list[int]:
        """Rows per block: one, two, half of count, one fewer than count, and past count."""
        return sorted({1, 2, max(count // 2, 1), max(count - 1, 1), count + 1})

    @staticmethod
    def rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        """Normal values spread over 16 decades, so that any other order of additions rounds differently."""
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 12),
        shard_size=st.integers(1, 30),
        dim=st.integers(2, 9),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_round_basis_is_each_clients_batch_mean(self, n, shard_size, dim, seed, data):
        rng = np.random.default_rng(seed)
        batch = data.draw(st.integers(1, shard_size), label="batch")
        task = MeanTask()
        task.samples, task.centers = self.rows(rng, (n, shard_size, dim)), np.zeros((n, dim))
        rows = np.stack([rng.choice(shard_size, size=batch, replace=False) for _ in range(n)])
        flat, index = task.flat_rows(rows)
        expected = np.take(flat, index, axis=0).mean(axis=1)
        for block in self.block_bounds(batch):
            with mock.patch.object(tasks, "FOLD_BLOCK_VALUES", block * n * dim):
                assert np.array_equal(task.round_basis(rows), expected), block

    @settings(max_examples=150, deadline=None)
    @given(size=st.integers(1, 60), dim=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
    def test_oracle_mean_is_the_rows_mean(self, size, dim, seed):
        rows = self.rows(np.random.default_rng(seed), (size, dim))
        drawn = np.random.default_rng(seed).standard_normal((size, dim))
        for block in self.block_bounds(size):
            with mock.patch.object(tasks, "FOLD_BLOCK_VALUES", block * dim):
                kept = MeanValidationOracle(rows)
                streamed = MeanValidationOracle.streamed(np.random.default_rng(seed), size, dim, False)
            assert np.array_equal(kept.mean, rows.mean(axis=0)), block
            assert kept.mean_sq_norm == float(np.mean(np.sum(np.square(rows), axis=1))), block
            assert np.array_equal(streamed.mean, drawn.mean(axis=0)), block

    def test_a_mean_round_holds_no_batch_gather(self):
        # mean-mu-0.1 gathers 100 batch rows of 10 values for each of 150
        # clients a round: 1,200,000 bytes if gathered at once.
        state = RunState(build_experiment(parse_config("", preset="mean-mu-0.1", overrides=["seeds=1"])))
        run_round(state, 0)
        tracemalloc.start()
        try:
            run_round(state, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_200_000


class TestStreamedMeanOracle:
    # The oracle built chunk by chunk from the validation stream keeps no
    # rows and equals the oracle over the whole draw bit for bit; the mean
    # task keeps the rows only where a solver minibatch reads them, or at
    # d = 1, where numpy sums the column pairwise.

    @pytest.mark.parametrize("size", [1, 4095, 4096, 4097, 100000])
    @pytest.mark.parametrize("dim", [2, 3, 10, 64])
    def test_equals_the_oracle_over_the_whole_draw(self, dim, size):
        whole_rng, streamed_rng = np.random.default_rng(size + dim), np.random.default_rng(size + dim)
        rows = whole_rng.standard_normal((size, dim))
        whole = MeanValidationOracle(rows)
        streamed = MeanValidationOracle.streamed(streamed_rng, size, dim, False)
        assert streamed.samples is None and streamed.size == size
        assert np.array_equal(streamed.mean, rows.mean(axis=0))
        assert streamed.mean_sq_norm == float(np.mean(np.sum(np.square(rows), axis=1)))
        assert streamed_rng.bit_generator.state == whole_rng.bit_generator.state
        for x in np.random.default_rng(dim).standard_normal((3, dim)) * 2.0:
            assert streamed.value(x) == whole.value(x)
            value, grad = streamed.evaluate(x)
            assert value == whole.evaluate(x)[0]
            assert np.array_equal(grad, whole.evaluate(x)[1])

    def test_dimension_one_keeps_the_rows(self):
        samples = np.random.default_rng(4).standard_normal((9000, 1))
        streamed = MeanValidationOracle.streamed(np.random.default_rng(4), 9000, 1, False)
        assert np.array_equal(streamed.samples, samples)
        assert np.array_equal(streamed.mean, samples.mean(axis=0))

    def test_gradient_rows_without_rows_raises(self):
        oracle = MeanValidationOracle.streamed(np.random.default_rng(5), 100, 3, False)
        with pytest.raises(MeritFedError, match="kept no rows"):
            oracle.gradient_rows(np.zeros(3), np.arange(10))

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError, match="validation set is empty"):
            MeanValidationOracle.streamed(np.random.default_rng(5), 0, 3, False)

    @staticmethod
    def oracle(preset, *overrides):
        config = parse_config("", preset=preset, overrides=["seeds=1", *overrides])
        return RunState(build_experiment(config)).task.oracle

    @pytest.mark.parametrize(
        "preset, overrides, kept",
        [
            ("mean-mu-0.1", (), True),
            ("mean-mu-0.1", ("methods=meritfed-smd",), True),
            ("mean-mu-0.1", ("methods=meritfed-md,sgd-ideal", "dim=1"), True),
            ("mean-mu-0.1", ("methods=meritfed-md,fedadp,tawt,fedavg-5,sgd-full",), False),
            ("mean-mu-0.1", ("methods=meritfed-zo",), False),
            ("mean-mu-0.1", ("methods=meritfed-smd", "smd_minibatch=100000"), False),
            ("byzantine-rn", (), False),
            ("byzantine-ipm", (), False),
            ("byzantine-alie", (), False),
            ("byzantine-bf", (), False),
        ],
    )
    def test_rows_kept_only_for_a_solver_minibatch_or_dimension_one(self, preset, overrides, kept):
        oracle = self.oracle(preset, *overrides)
        assert (oracle.samples is not None) == kept
        rows = streams.substream(0, streams.VALIDATION).standard_normal((oracle.size, len(oracle.mean)))
        assert np.array_equal(oracle.mean, rows.mean(axis=0))
        assert oracle.mean_sq_norm == float(np.mean(np.sum(np.square(rows), axis=1)))

    def test_byzantine_run_state_holds_little_beyond_its_shards(self):
        # byzantine-rn's 100,000 x 10 validation rows are 8,000,000 bytes;
        # the run state keeps none of them, and building it peaks at well
        # under 2 MiB above the 4,400,000-byte shard block.
        spec = build_experiment(parse_config("", preset="byzantine-rn", overrides=["seeds=1"]))
        tracemalloc.start()
        try:
            state = RunState(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state.task.samples.nbytes + 2 * 2**20


def softmax_data(mixing_alpha, n_classes, test_size, **spec_fields):
    """`softmax_task_generate` for a run spec with spec_fields and a softmax task with the rest."""
    task = SoftmaxTask(mixing_alpha=mixing_alpha, n_classes=n_classes, test_size=test_size)
    return softmax_task_generate(ExperimentSpec(methods=[SgdFull("sgd-full")], task=task, **spec_fields), task)


class TestSoftmaxGeneration:
    def test_alpha_one_group2_matches_group1_label_set(self):
        _, labels, _, _ = softmax_data(
            group_counts=(1, 2, 1),
            mixing_alpha=1.0,
            dim=10,
            n_classes=10,
            shard_size=300,
            master_seed=0,
            validation_size=50,
            test_size=50,
        )
        assert set(np.unique(labels[1:3])) <= {0, 1, 2}

    def test_alpha_half_target_fraction(self):
        counts = []
        for seed in range(3):
            _, labels, _, _ = softmax_data(
                group_counts=(1, 1, 1),
                mixing_alpha=0.5,
                dim=10,
                n_classes=10,
                shard_size=1000,
                master_seed=seed,
                validation_size=10,
                test_size=10,
            )
            counts.append(int(np.isin(labels[1], [0, 1, 2]).sum()))
        assert abs(np.mean(counts) - 500) <= 50

    def test_group3_never_sees_target_classes(self):
        _, labels, _, _ = softmax_data(
            group_counts=(1, 1, 1),
            mixing_alpha=0.5,
            dim=10,
            n_classes=10,
            shard_size=500,
            master_seed=1,
            validation_size=10,
            test_size=10,
        )
        assert not np.isin(labels[2], [0, 1, 2, 3, 4, 5]).any()

    def test_held_out_shards_are_target_distribution(self):
        _, _, validation, test = softmax_data(
            group_counts=(1, 0, 0),
            mixing_alpha=0.5,
            dim=10,
            n_classes=10,
            shard_size=10,
            master_seed=2,
            validation_size=400,
            test_size=400,
        )
        for _, labels in (validation, test):
            assert set(np.unique(labels)) <= {0, 1, 2}
        assert not np.array_equal(validation[0], test[0])

    def test_class_centers_pairwise_distance(self):
        centers = softmax_class_centers(10, 10)
        for i in range(10):
            for j in range(i + 1, 10):
                assert abs(np.linalg.norm(centers[i] - centers[j]) - 4.0) <= 1e-12

    def test_too_few_features_rejected(self):
        # Class centers sit on distinct feature axes.
        spec = ExperimentSpec(methods=[SgdFull("sgd-full")], model_step=0.05, task=SoftmaxTask(), dim=4)
        with pytest.raises(ConfigError, match="n_classes <= dim=4, got n_classes=10"):
            spec.validate()

    def test_validation_set_drawn_only_on_request(self):
        # Each held-out shard has its own stream: validating on client 0's
        # shard (reuse-train) draws no validation set, so a size no memory
        # could hold is never allocated, and changes neither the client
        # shards nor the test set.
        def generate(validation_mode, validation_size):
            return softmax_data(
                group_counts=(1, 1, 1),
                mixing_alpha=0.5,
                dim=10,
                n_classes=10,
                shard_size=20,
                master_seed=5,
                validation_mode=validation_mode,
                validation_size=validation_size,
                test_size=30,
            )

        features, labels, validation, test = generate(MODE_EXTRA, 40)
        bare_features, bare_labels, reused, bare_test = generate(MODE_REUSE_TRAIN, 10**15)
        assert validation[0].shape == (40, 10)
        for a, b in zip((features, labels, *test), (bare_features, bare_labels, *bare_test)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(reused[0], features[0])
        np.testing.assert_array_equal(reused[1], labels[0])


def softmax_loss_grad(theta, features, labels):
    """Mean cross-entropy of a linear softmax classifier and its gradient, by one `SoftmaxRows`.

    theta has shape (n_classes, feature_dim); the gradient has the same
    shape. The (m, feature_dim) rows go to the kernel as a stack of one.
    """
    theta = np.asarray(theta, dtype=float)
    losses, grads = SoftmaxRows(features[None], labels[None], len(theta)).loss_grad(theta)
    return float(losses[0]), grads[0]


def reference_softmax_loss_grad(theta, features, labels):
    """Row-wise softmax loss and gradient in (rows, classes) layout, with numpy's own reductions."""
    logits = features @ theta.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    m = features.shape[0]
    loss = float(np.mean(log_norm - shifted[np.arange(m), labels]))
    probs = np.exp(shifted - log_norm[:, None])
    probs[np.arange(m), labels] -= 1.0
    grad = probs.T @ features / m
    return loss, grad


class TestSoftmaxKernelMatchesReference:
    # Rows 1-300 and the 4,000 of the softmax presets' validation set;
    # classes 3-20 cover the pairwise sum's branches below 8, 8-15 and 16+
    # terms; theta scales up to 1e4 push most exps to underflow.
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.one_of(st.integers(min_value=1, max_value=300), st.just(4000)),
        n_classes=st.integers(min_value=3, max_value=20),
        extra_dims=st.integers(min_value=0, max_value=4),
        log_scale=st.floats(min_value=-2.0, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bit_identical(self, rows, n_classes, extra_dims, log_scale, seed):
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((rows, n_classes + extra_dims))
        labels = rng.integers(0, n_classes, size=rows)
        theta = rng.standard_normal((n_classes, n_classes + extra_dims)) * 10.0**log_scale
        kernel = SoftmaxRows(features[None], labels[None], n_classes)
        expected_loss, expected_grad = reference_softmax_loss_grad(theta, features, labels)
        for _ in range(2):  # the second call reuses the scratch of the first
            (loss,), (grad,) = kernel.loss_grad(theta)
            assert loss == expected_loss
            assert np.array_equal(grad, expected_grad)

    # A stack of s row sets gives each member the row-wise result; s = 1
    # keeps the stacked shapes, so a one-client round stays (1, ...).
    @settings(max_examples=150, deadline=None)
    @given(
        members=st.integers(min_value=1, max_value=24),
        rows=st.sampled_from([1, 2, 7, 8, 9, 75, 130, 300]),
        n_classes=st.integers(min_value=2, max_value=20),
        dim=st.integers(min_value=1, max_value=15),
        log_scale=st.floats(min_value=-2.0, max_value=2.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stack_members_bit_identical(self, members, rows, n_classes, dim, log_scale, seed):
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((members, rows, dim))
        labels = rng.integers(0, n_classes, size=(members, rows))
        theta = rng.standard_normal((n_classes, dim)) * 10.0**log_scale
        kernel = SoftmaxRows(features, labels, n_classes)
        for _ in range(2):  # the second call reuses the scratch of the first
            losses, grads = kernel.loss_grad(theta)
            values = kernel.loss(theta)
            assert losses.shape == values.shape == (members,)
            assert grads.shape == (members, n_classes, dim)
            for i in range(members):
                expected = reference_softmax_loss_grad(theta, features[i], labels[i])
                assert losses[i] == values[i] == expected[0]
                assert np.array_equal(grads[i], expected[1])

    def test_loss_only_call_equals_loss_of_loss_grad(self):
        rng = np.random.default_rng(11)
        features = rng.standard_normal((193, 12))
        labels = rng.integers(0, 12, size=193)
        theta = rng.standard_normal((12, 12))
        kernel = SoftmaxRows(features[None], labels[None], 12)
        value = kernel.loss(theta)
        assert value.shape == (1,)
        expected_loss, _ = reference_softmax_loss_grad(theta, features, labels)
        assert value[0] == kernel.loss_grad(theta)[0][0] == expected_loss

    @pytest.mark.parametrize("terms", list(range(1, 41)) + [128, 129, 300])
    def test_row_sums_round_as_numpy(self, terms):
        # Terms of mixed sign and magnitude make the order of the additions
        # show in the rounding; the all -0.0 row pins the reduction's 0.0 start.
        rng = np.random.default_rng(terms)
        values = rng.standard_normal((64, terms)) * 10.0 ** rng.uniform(-8, 8, size=(64, terms))
        values[0] = -0.0
        out = np.empty(64)
        sums = pairwise_row_sums(np.ascontiguousarray(values.T), out)
        assert sums is out
        np.testing.assert_array_equal(np.signbit(sums), np.signbit(values.sum(axis=1)))
        assert np.array_equal(sums, values.sum(axis=1))


class TestSoftmaxLoss:
    def test_zero_parameters_give_log_classes(self):
        features = np.random.default_rng(0).standard_normal((20, 4))
        labels = np.zeros(20, dtype=int)
        loss, _ = softmax_loss_grad(np.zeros((3, 4)), features, labels)
        assert abs(loss - np.log(3.0)) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        theta = rng.standard_normal((3, 4))
        features = rng.standard_normal((30, 4))
        labels = rng.integers(0, 3, size=30)
        _, grad = softmax_loss_grad(theta, features, labels)
        h = 1e-6
        fd = np.zeros_like(theta)
        for i in range(3):
            for j in range(4):
                up, down = theta.copy(), theta.copy()
                up[i, j] += h
                down[i, j] -= h
                fd[i, j] = (
                    softmax_loss_grad(up, features, labels)[0]
                    - softmax_loss_grad(down, features, labels)[0]
                ) / (2.0 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-6

    def test_duplicating_batch_is_invariant(self):
        rng = np.random.default_rng(9)
        theta = rng.standard_normal((3, 4))
        features = rng.standard_normal((10, 4))
        labels = rng.integers(0, 3, size=10)
        loss1, grad1 = softmax_loss_grad(theta, features, labels)
        loss2, grad2 = softmax_loss_grad(
            theta, np.vstack([features, features]), np.concatenate([labels, labels])
        )
        assert abs(loss1 - loss2) <= 1e-12
        np.testing.assert_allclose(grad1, grad2, atol=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(MeritFedError, match=r"label outside class range \[0, 3\)"):
            softmax_loss_grad(np.zeros((3, 4)), np.zeros((1, 4)), np.array([5]))

    def test_empty_batch_rejected(self):
        with pytest.raises(MeritFedError, match="softmax loss requested on an empty batch"):
            softmax_loss_grad(np.zeros((3, 4)), np.empty((0, 4)), np.array([], dtype=int))

    def test_accuracy_of_center_classifier(self):
        # The center matrix is the Bayes rule for equal-norm clusters; at
        # pairwise distance 4 it sits near 0.88 over 10 classes, far above
        # the 0.1 chance level, so cluster separation is real.
        _, _, _, test = softmax_data(
            group_counts=(1, 0, 0),
            mixing_alpha=1.0,
            dim=10,
            n_classes=10,
            shard_size=10,
            master_seed=3,
            validation_size=10,
            test_size=2000,
        )
        theta = softmax_class_centers(10, 10)
        assert softmax_accuracy(theta, *test) >= 0.85


class TestSoftmaxOracle:
    def test_matches_direct_loss(self):
        _, _, validation, _ = softmax_data(
            group_counts=(1, 0, 0),
            mixing_alpha=1.0,
            dim=6,
            n_classes=6,
            shard_size=10,
            master_seed=4,
            validation_size=80,
            test_size=10,
        )
        oracle = SoftmaxValidationOracle(*validation, n_classes=6)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(36)
        value, grad = oracle.evaluate(x)
        direct_value, direct_grad = softmax_loss_grad(x.reshape(6, 6), *validation)
        assert value == direct_value
        np.testing.assert_array_equal(grad, direct_grad.ravel())
        assert oracle.size == 80

    @staticmethod
    def validation_oracle(rows=4000, n_classes=10):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((rows, n_classes))
        labels = rng.integers(0, n_classes, size=rows)
        return labels, SoftmaxValidationOracle(samples, labels, n_classes)

    def test_honest_gradients_equal_per_client_kernels(self):
        # One round of the softmax-alpha-0.5 preset at a point away from the
        # start: the stacked kernel gives each client's row-wise gradient.
        spec = build_experiment(parse_config("", preset="softmax-alpha-0.5"), master_seed=0)
        state = RunState(spec)
        task = state.task
        rows = state.round_draws(3).rows
        x = np.random.default_rng(12).standard_normal(task.model_dim(spec.dim))
        theta = x.reshape(task.n_classes, -1)
        expected = np.array(
            [
                softmax_loss_grad(theta, samples[r], labels[r])[1].ravel()
                for samples, labels, r in zip(task.samples, task.labels, rows)
            ]
        )
        gradients = task.honest_gradients(x, task.round_basis(rows))
        assert gradients.shape == (spec.n_clients, task.model_dim(spec.dim))
        assert np.array_equal(gradients, expected)

    def test_full_set_call_allocates_less_than_one_rows_by_classes_array(self):
        # The full-set kernel keeps its scratch between calls, so a warm call
        # allocates no (rows, classes) float64 array: 4000 * 10 * 8 bytes.
        _, oracle = self.validation_oracle()
        x = np.random.default_rng(6).standard_normal(100)
        oracle.evaluate(x)
        tracemalloc.start()
        try:
            oracle.evaluate(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4000 * 10 * 8

    def test_label_index_cannot_go_stale(self):
        labels, oracle = self.validation_oracle(rows=50, n_classes=4)
        x = np.random.default_rng(7).standard_normal(16)
        value, grad = oracle.evaluate(x)
        with pytest.raises(ValueError, match="read-only"):
            oracle.labels[0] = (oracle.labels[0] + 1) % 4
        labels[:] = (labels + 1) % 4
        again_value, again_grad = oracle.evaluate(x)
        assert again_value == value
        assert np.array_equal(again_grad, grad)
        assert np.array_equal(oracle.gradient_rows(x, np.arange(50)), grad)

    def test_checks_at_construction_and_per_call(self):
        # The batch and label checks run once, at construction; the theta
        # shape check on every call.
        with pytest.raises(MeritFedError, match=r"label outside class range \[0, 3\)"):
            SoftmaxValidationOracle(np.zeros((2, 4)), np.array([0, 3]), 3)
        with pytest.raises(MeritFedError, match="empty batch"):
            SoftmaxRows(np.empty((1, 0, 4)), np.empty((1, 0), dtype=int), 3)
        _, oracle = self.validation_oracle(rows=20, n_classes=4)
        for bad in (np.zeros(12), np.zeros(20)):
            with pytest.raises(MeritFedError, match="does not match features"):
                oracle.evaluate(bad)
        with pytest.raises(MeritFedError, match=r"theta shape \(3, 4\) does not match"):
            SoftmaxRows(np.zeros((1, 2, 4)), np.array([[0, 1]]), 4).loss_grad(np.zeros((3, 4)))

    @pytest.mark.parametrize(
        "features_shape, labels_shape",
        [((5, 4), (5,)), ((4,), (1,)), ((1, 5, 4), (5,)), ((2, 5, 4), (2, 4)), ((1, 1, 5, 4), (1, 1, 5))],
    )
    def test_only_a_stack_of_row_sets_is_accepted(self, features_shape, labels_shape):
        # One row set goes in as a stack of one; any other shape is refused
        # by name at construction, before a call could broadcast it.
        with pytest.raises(MeritFedError, match=r"take \(s, m, d\) features and \(s, m\) labels"):
            SoftmaxRows(np.zeros(features_shape), np.zeros(labels_shape, dtype=int), 3)

    def test_distribution_spec_validation(self):
        # The config maps the task name to a task class; the softmax task
        # checks its own settings at construction, and at validate the run
        # settings it cannot serve.
        with pytest.raises(ConfigError, match="task must be one of 'mean', 'softmax', got 'image-net'"):
            parse_config("", preset="mean-mu-0.1", overrides=["task=image-net"])

        def spec(task=None, **kwargs):
            task = task or SoftmaxTask()
            return ExperimentSpec(methods=[SgdFull("sgd-full")], model_step=0.05, task=task, **kwargs)

        spec().validate()
        for changes, message in [
            (dict(mixing_alpha=0.0), r"SoftmaxTask.mixing_alpha must be in \(0, 1\], got 0.0"),
            (dict(mixing_alpha=1.5), r"SoftmaxTask.mixing_alpha must be in \(0, 1\], got 1.5"),
            (dict(test_size=0), "SoftmaxTask.test_size must be >= 1, got 0"),
        ]:
            with pytest.raises(ConfigError, match=message):
                SoftmaxTask(**changes)
        rejected = [
            (spec(SoftmaxTask(n_classes=6)), "need 7 <= n_classes"),
            (spec(SoftmaxTask(n_classes=11)), "n_classes <= dim=10, got n_classes=11"),
            (spec(exact_gradients=True), "exact gradients are only defined"),
            (spec(validation_mode="population"), "population validation is only defined"),
            (spec(SoftmaxTask(test_size=2**62)), r"shape \(4611686018427387904, 10\) is too large"),
        ]
        for bad, message in rejected:
            with pytest.raises(ConfigError, match=message):
                bad.validate()
