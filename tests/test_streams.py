"""Tests for the named random streams.

Oracle: numpy's own SeedSequence -> PCG64 seeding. The stream of
(master_seed, *key) must be the generator
`np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, *key)))`,
state for state and draw for draw.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritfed import streams
from meritfed.cli import PRESETS, build_experiment, parse_config
from meritfed.engine import RunState, run_experiment


def numpy_stream(master_seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed,) + key))


def assert_same_stream(ours, reference):
    assert ours.bit_generator.state == reference.bit_generator.state
    np.testing.assert_array_equal(
        ours.choice(1000, size=50, replace=False), reference.choice(1000, size=50, replace=False)
    )
    np.testing.assert_array_equal(ours.standard_normal(7), reference.standard_normal(7))


# Master seeds of one, two and three 32-bit words, with their edges.
SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 1]),
    st.integers(min_value=0, max_value=2**70),
)
# Key indices are one 32-bit word each. A key of 7 indices with a three-word
# master seed is 10 entropy words: it fills the 4-word pool and goes past it.
INDICES = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(min_value=0, max_value=2**32 - 1))
KEYS = st.lists(INDICES, min_size=0, max_size=7).map(tuple)


class TestDerivationMatchesNumpy:
    @settings(max_examples=300, deadline=None)
    @given(master_seed=SEEDS, key=KEYS)
    def test_substream(self, master_seed, key):
        assert_same_stream(streams.substream(master_seed, *key), numpy_stream(master_seed, *key))

    @settings(max_examples=100, deadline=None)
    @given(master_seed=SEEDS, arity=st.integers(min_value=0, max_value=7), data=st.data())
    def test_substreams_of_one_arity(self, master_seed, arity, data):
        # All keys are hashed in one call; the generators come back in the
        # order of the keys.
        keys = data.draw(st.lists(st.lists(INDICES, min_size=arity, max_size=arity).map(tuple), max_size=12))
        generators = streams.substreams(master_seed, keys)
        assert len(generators) == len(keys)
        for rng, key in zip(generators, keys):
            assert_same_stream(rng, numpy_stream(master_seed, *key))

    def test_pool_edges(self):
        # Entropy of 1-10 words: short of, at, and past the 4-word pool.
        for master_seed in (0, 2**32 - 1, 2**32, 2**64 + 1, 2**96 - 1):
            for length in range(8):
                key = tuple(range(2**32 - 1, 2**32 - 1 - length, -1))
                assert_same_stream(
                    streams.substream(master_seed, *key), numpy_stream(master_seed, *key)
                )

    def test_numpy_integer_keys(self):
        key = (np.int64(4), np.uint32(3), np.uint64(2**32 - 1))
        assert_same_stream(streams.substream(np.int64(5), *key), numpy_stream(5, 4, 3, 2**32 - 1))


class TestStreams:
    def test_generators_are_independent_objects(self):
        a, b = streams.substreams(3, [(streams.BATCH, 0, 1), (streams.BATCH, 0, 1)])
        assert a is not b
        first = a.standard_normal(3)
        np.testing.assert_array_equal(b.standard_normal(3), first)
        np.testing.assert_array_equal(streams.substream(3, streams.BATCH, 0, 1).standard_normal(3), first)

    def test_distinct_keys_give_distinct_draws(self):
        # Keys of different arities are opened one call each.
        keys = [(streams.SHARDS, 1), (streams.VALIDATION,), (streams.BATCH, 1, 0), (streams.BATCH, 0, 1)]
        draws = [streams.substream(0, *key).random() for key in keys]
        assert len(set(draws)) == len(keys)

    @pytest.mark.parametrize("seed, key", [(-1, ()), (0, (streams.BATCH, -2, 0))])
    def test_negative_entropy_is_rejected(self, seed, key):
        with pytest.raises(ValueError, match="non-negative"):
            streams.substream(seed, *key)

    @pytest.mark.parametrize(
        "layout",
        [
            [(streams.BATCH, 2**32)],
            [(streams.BATCH, 0), (streams.BATCH, 2**64 + 1)],
            [(streams.BATCH, -1)],
            [(streams.BATCH, 0), (streams.VALIDATION,)],
            [(streams.VALIDATION,), (streams.BATCH, 0)],
            [(streams.BATCH, 0), (streams.BATCH, 0, 1)],
        ],
    )
    def test_substreams_and_round_streams_reject_a_key_alike(self, layout):
        # An index past one word or below zero, or keys of mixed arity in
        # one call: both derivations raise the same error.
        with pytest.raises(ValueError) as by_substreams:
            streams.substreams(0, layout)
        with pytest.raises(ValueError) as by_round_streams:
            streams.RoundStreams(0, layout, 5)
        assert str(by_substreams.value) == str(by_round_streams.value)
        assert "non-negative indices in [0, 2**32)" in str(by_substreams.value)

    def test_float_entropy_is_rejected(self):
        with pytest.raises(TypeError):
            streams.substream(1.5)


def documented_arities():
    """Tag name -> number of key indices, from the key table of the streams docstring."""
    table = {}
    for line in streams.__doc__.splitlines():
        match = re.fullmatch(r" {4}([A-Z_]+) +\((.*)\)", line)
        if match:
            table[match[1]] = len([part for part in match[2].split(",") if part.strip()])
    return table


class TestOneArityPerTag:
    # A key with trailing zero indices is the same stream as the shorter key,
    # so a tag opened with two arities would share draws between its keys.

    def test_every_preset_opens_each_tag_with_its_documented_arity(self, monkeypatch):
        table = documented_arities()
        assert len(table) == 8
        keys = []
        derive, derive_round = streams.substreams, streams.RoundStreams.generators

        def recording(master_seed, batch):
            batch = list(batch)
            keys.extend(batch)
            return derive(master_seed, batch)

        def recording_round(derivation, round_index):
            keys.extend((tag, index, round_index) for tag, index in derivation.layout)
            return derive_round(derivation, round_index)

        monkeypatch.setattr(streams, "substreams", recording)
        monkeypatch.setattr(streams.RoundStreams, "generators", recording_round)
        for preset in PRESETS:
            config = parse_config("", preset=preset, overrides=["seeds=1", "rounds=2"])
            run_experiment(build_experiment(config))
        name_of = {getattr(streams, name): name for name in table}
        arities = {}
        for key in keys:
            arities.setdefault(name_of[key[0]], set()).add(len(key) - 1)
        assert all(len(used) == 1 for used in arities.values()), arities
        assert {name: used.pop() for name, used in arities.items()} == table


# (tag, index) layouts of 32-bit indices, edges included.
WORDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(min_value=0, max_value=2**32 - 1))
LAYOUTS = st.lists(st.tuples(WORDS, WORDS), max_size=6)


class TestRoundStreams:
    @settings(max_examples=60, deadline=None)
    @given(
        master_seed=st.sampled_from([7, 2**32 + 5]),
        layout=LAYOUTS,
        rounds=st.integers(min_value=1, max_value=3 * streams.ROUND_BLOCK),
        data=st.data(),
    )
    def test_every_generator_is_its_substream(self, master_seed, layout, rounds, data):
        # Rounds at and across the block boundaries, the run's last round
        # (in a partial block unless rounds is a multiple of the block),
        # then rounds in any order.
        block = streams.ROUND_BLOCK
        edges = [0, block - 1, block, block + 1, 2 * block - 1, 2 * block, rounds - 1]
        asked = [t for t in edges if t < rounds]
        asked += data.draw(st.lists(st.integers(min_value=0, max_value=rounds - 1), max_size=6))
        derivation = streams.RoundStreams(master_seed, layout, rounds)
        for t in asked:
            generators = derivation.generators(t)
            assert len(generators) == len(layout)
            for rng, (tag, index) in zip(generators, layout):
                assert_same_stream(rng, streams.substream(master_seed, tag, index, t))

    def test_final_partial_block(self):
        rounds = streams.ROUND_BLOCK + 4
        derivation = streams.RoundStreams(2**32 + 5, [(streams.BATCH, 3), (streams.METHOD, 0)], rounds)
        for t in range(rounds - 6, rounds):
            for rng, key in zip(derivation.generators(t), derivation.layout):
                assert_same_stream(rng, numpy_stream(2**32 + 5, *key, t))
        with pytest.raises(IndexError):
            derivation.generators(rounds)

    def test_a_run_that_opens_no_round_stream(self):
        # Exact gradients, no attackers and a rule that reads no stream.
        config = parse_config(
            "", preset="theorem-mean", overrides=["exact_gradients=true", "methods=sgd-full", "rounds=20"]
        )
        state = RunState(build_experiment(config))
        assert state.round_streams.layout == ()
        for t in (0, 16, 19):
            assert state.round_streams.generators(t) == []
            draws = state.round_draws(t)
            assert (draws.rows, draws.noise, draws.method_streams) == (None, None, [None])

    @pytest.mark.parametrize(
        "layout, rounds", [([(streams.BATCH, 2**32)], 5), ([(streams.BATCH, -1)], 5), ([], 2**32 + 1)]
    )
    def test_indices_past_one_word_are_rejected(self, layout, rounds):
        with pytest.raises(ValueError, match=r"in \[0, 2\*\*32\)"):
            streams.RoundStreams(0, layout, rounds)
