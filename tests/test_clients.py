"""Tests for client messages and Byzantine attacks.

Oracles: hand-computed attack arithmetic cross-checked with the stdlib
statistics module, Gaussian moment checks for the noise attack, and the
round engine's own honest phase for the honest messages.
"""

import statistics

import numpy as np
import pytest

from meritfed.aggregators import SgdFull
from meritfed.clients import ATTACK_KINDS, AttackSpec, attack_alie, attack_ipm, byzantine_messages
from meritfed.engine import ExperimentSpec, RunState, run_round
from meritfed.errors import ConfigError, NumericInputError
from meritfed.tasks import MeanTask


def honest_spec(**kwargs):
    # One target-group client with a 50-row shard in dimension 4.
    defaults = dict(
        methods=[SgdFull("sgd-full", 0.01)],
        task=MeanTask(),
        dim=4,
        group_counts=(1, 0, 0),
        shard_size=50,
        batch_size=10,
        rounds=2,
        validation_size=20,
        master_seed=0,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def honest_message(state, x, round_index):
    """Client 0's honest mean-task gradient 2(x - batch mean) in the engine."""
    rows = state.round_draws(round_index).rows
    return 2.0 * (x - state.task.round_basis(rows)[0])


def bit_flip(gradients):
    """Phase-two messages of sign-flip workers whose honest rows are gradients."""
    pool = np.zeros((2, gradients.shape[1]))
    return byzantine_messages(AttackSpec(kind="bit-flip"), gradients, pool, None)


def random_noise(g, sigma, draw):
    """The phase-two message of one random-noise worker given its standard-normal draw."""
    attack = AttackSpec(kind="random-noise", sigma=sigma)
    return byzantine_messages(attack, g[None, :], np.zeros((1, g.size)), draw[None, :])[0]


class TestHonestMessage:
    def test_deterministic_for_fixed_stream(self):
        x = np.ones(4)
        a = honest_message(RunState(honest_spec()), x, 1)
        b = honest_message(RunState(honest_spec()), x, 1)
        np.testing.assert_array_equal(a, b)

    def test_full_batch_is_stream_independent(self):
        # A batch of the whole shard is a permutation of its rows, so every
        # round's stream gives the shard mean up to summation order.
        state = RunState(honest_spec(batch_size=50))
        x = np.ones(4)
        np.testing.assert_allclose(
            honest_message(state, x, 0), honest_message(state, x, 1), rtol=0, atol=1e-14
        )

    def test_zero_at_shard_mean_on_full_batch(self):
        state = RunState(honest_spec(batch_size=50))
        x = state.task.samples[0].mean(axis=0)
        np.testing.assert_allclose(honest_message(state, x, 0), np.zeros(4), rtol=0, atol=1e-14)

    def test_zero_batch_rejected(self):
        with pytest.raises(ConfigError):
            honest_spec(batch_size=0).validate()

    def test_oversized_batch_rejected(self):
        with pytest.raises(ConfigError):
            honest_spec(shard_size=10, batch_size=11).validate()


class TestBitFlip:
    def test_sign_flip(self):
        np.testing.assert_array_equal(bit_flip(np.array([[1.0, -2.0]])), [[-1.0, 2.0]])

    def test_zero_fixed_point(self):
        np.testing.assert_array_equal(bit_flip(np.zeros((1, 3))), np.zeros((1, 3)))

    def test_involution(self):
        g = np.array([[0.5, -3.0, 2.5]])
        np.testing.assert_array_equal(bit_flip(bit_flip(g)), g)


class TestRandomNoise:
    def test_zero_scale_is_identity(self):
        g = np.array([1.0, 2.0, 3.0])
        draw = np.random.default_rng(0).standard_normal(3)
        np.testing.assert_array_equal(random_noise(g, 0.0, draw), g)

    def test_noise_mean_is_zero(self):
        g = np.array([1.0, -1.0, 0.5, 2.0])
        sigma = 1.0
        rng = np.random.default_rng(31)
        m = 100000
        total = np.zeros(4)
        for _ in range(m):
            total += random_noise(g, sigma, rng.standard_normal(4)) - g
        mean = total / m
        se = sigma / np.sqrt(m)
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_noise_variance_matches_scale(self):
        g = np.zeros(4)
        sigma = 1.5
        rng = np.random.default_rng(8)
        m = 100000
        draws = np.stack([random_noise(g, sigma, rng.standard_normal(4)) for _ in range(m)])
        var = draws.var(axis=0)
        assert np.all(np.abs(var - sigma**2) / sigma**2 <= 0.05)


class TestInnerProductAttack:
    def test_two_gradient_example(self):
        honest = [np.array([2.0, 0.0]), np.array([0.0, 2.0])]
        np.testing.assert_allclose(attack_ipm(honest, 0.1), [-0.1, -0.1], rtol=1e-15)

    def test_scales_linearly_to_zero(self):
        honest = [np.array([4.0, -2.0])]
        for eps in (1e-3, 1e-6, 1e-9):
            np.testing.assert_allclose(attack_ipm(honest, eps), -eps * honest[0], rtol=1e-12)

    def test_antiparallel_to_honest_mean(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            honest = [rng.standard_normal(5) for _ in range(4)]
            mean = np.mean(honest, axis=0)
            if np.linalg.norm(mean) == 0:
                continue
            out = attack_ipm(honest, 0.1)
            assert float(out @ mean) < 0


class TestMeanShiftAttack:
    def test_identical_gradients_pass_through(self):
        g = np.array([1.0, -2.0])
        out = attack_alie([g.copy(), g.copy(), g.copy()], 100.0)
        np.testing.assert_allclose(out, g, atol=1e-12)

    def test_hand_computed_one_dimensional_case(self):
        honest = [np.array([0.0]), np.array([2.0])]
        out = attack_alie(honest, 1.0)
        mean = statistics.mean([0.0, 2.0])
        spread = statistics.stdev([0.0, 2.0])  # independent sample-stdev oracle
        assert abs(out[0] - (mean - spread)) <= 1e-12
        assert abs(out[0] - (-0.41421)) <= 1e-5

    def test_zero_shift_returns_mean(self):
        honest = [np.array([1.0, 5.0]), np.array([3.0, -1.0])]
        np.testing.assert_allclose(attack_alie(honest, 0.0), [2.0, 2.0], rtol=1e-15)

    def test_positive_sign_flag_shifts_up(self):
        honest = [np.array([0.0]), np.array([2.0])]
        out = attack_alie(honest, 1.0, shift_sign=1)
        assert abs(out[0] - (1.0 + statistics.stdev([0.0, 2.0]))) <= 1e-12


class TestByzantineMessages:
    # Clients 0-1 form the target group, 2-3 the Byzantine block.

    def test_colluders_send_identical_vectors(self):
        rng = np.random.default_rng(0)
        honest = rng.standard_normal((4, 3))
        for kind in ("ipm", "alie"):
            block = honest.copy()
            block[2:] = byzantine_messages(AttackSpec(kind=kind), honest[2:], honest[:2], None)
            np.testing.assert_array_equal(block[2], block[3])
            np.testing.assert_array_equal(block[:2], honest[:2])

    def test_bit_flip_acts_on_own_gradient(self):
        rng = np.random.default_rng(1)
        honest = rng.standard_normal((4, 3))
        attack = AttackSpec(kind="bit-flip")
        out = byzantine_messages(attack, honest[2:], honest[:2], None)
        np.testing.assert_array_equal(out[0], -honest[2])
        np.testing.assert_array_equal(out[1], -honest[3])
        assert not np.array_equal(out[0], out[1])

    def test_noise_attack_uses_provided_draws(self):
        rng = np.random.default_rng(2)
        honest = rng.standard_normal((4, 3))
        draws = np.array([np.ones(3), -np.ones(3)])
        attack = AttackSpec(kind="random-noise", sigma=2.0)
        out = byzantine_messages(attack, honest[2:], honest[:1], draws)
        np.testing.assert_allclose(out[0], honest[2] + 2.0, rtol=1e-15)
        np.testing.assert_allclose(out[1], honest[3] - 2.0, rtol=1e-15)

    def test_honest_clients_produce_no_messages(self):
        # Without a Byzantine block, writing the messages changes no row.
        honest = np.random.default_rng(3).standard_normal((2, 3))
        for kind in ATTACK_KINDS:
            gradients = honest.copy()
            gradients[2:] = byzantine_messages(
                AttackSpec(kind=kind), gradients[2:], gradients[:2], np.empty((0, 3))
            )
            np.testing.assert_array_equal(gradients, honest)


class TestValidation:
    def test_gradient_set_rejects_non_finite(self):
        state = RunState(honest_spec())
        state.task.samples[0] = np.nan
        with pytest.raises(NumericInputError, match="round 1: non-finite client message"):
            run_round(state, 1)

    def test_attack_spec_parameter_ranges(self):
        with pytest.raises(ConfigError):
            AttackSpec(kind="gradient-eavesdrop")
        with pytest.raises(ConfigError):
            AttackSpec(kind="random-noise", sigma=-1.0)
        with pytest.raises(ConfigError):
            AttackSpec(kind="ipm", epsilon=0.0)
        with pytest.raises(ConfigError):
            AttackSpec(kind="alie", z=0.0)
        with pytest.raises(ConfigError):
            AttackSpec(kind="alie", shift_sign=2)
