"""Named deterministic random streams.

Every source of randomness in a run is a dedicated stream keyed by the master
seed, a stream tag, and optional indices (client, round, method slot). Streams
are independent of each other and of the order in which they are opened, so
per-(client, round) sample draws are identical across methods and across any
parallel execution schedule.

The stream contract: the stream of (master_seed, *key) is a PCG64 generator in
exactly the state of
`np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, *key)))`.
This module derives those states itself, for many keys at once:
`_seed_words` transcribes numpy's `SeedSequence.mix_entropy` and
`generate_state(4, np.uint64)` (numpy/random/bit_generator.pyx) line for
line, with the entropy pool as four uint32 columns, one per pool word, each
holding that word for every key; numpy's PCG64 seeding takes the resulting
words. The keys of one call share one arity, and each index is one 32-bit
word; any other key is a ValueError.

A key with trailing zero indices names the same stream as the key without
them (the entropy pool hashes zeros past the end of the entropy), so each tag
is used with one number of indices only. The keys the program opens:

    SHARDS             (client,)
    VALIDATION         ()
    MIXTURE_DIRECTION  ()
    BATCH              (client, round)
    ATTACK_NOISE       (client, round)
    MD                 (method, round)
    METHOD             (method, round)
    TEST_SET           ()

A method's index is its slot in the run's method list. A run's rounds all
open the same (tag, index) layout, each with its round as the last index:
a `RoundStreams` hashes the seed words of ROUND_BLOCK rounds of that layout
in one call. `substreams` serves the keys a run opens once, at set-up. Both
take their entropy from `_key_entropy`.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream tags. Values are part of the reproducibility contract: changing them
# changes every run's draws.
SHARDS = 1
VALIDATION = 2
MIXTURE_DIRECTION = 3
BATCH = 4
ATTACK_NOISE = 5
MD = 6
METHOD = 7
TEST_SET = 8

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# generate_state(4, np.uint64) draws 8 words, cycling over the pool.
_STATE_WORDS = 8
# Rounds whose seed words a RoundStreams hashes in one call. A longer block
# saves little more and holds more words: 64 rounds added 0.9 MB to the peak
# memory of a 150-client run.
ROUND_BLOCK = 16


class _DerivedSeed(ISeedSequence):
    """The derived seed words of one stream, in the role of its SeedSequence.

    numpy's PCG64 seeds itself from `generate_state(4, np.uint64)`, the one
    request it makes; these are the words it gets.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        return self.words


def _entropy_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as numpy splits entropy."""
    value = operator.index(value)
    if 0 <= value <= _MASK32:
        return [value]
    if value < 0:
        raise ValueError(f"stream seeds and keys must be non-negative, got {value}")
    words = []
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """(rows, length) uint32 entropy -> (rows, 4) uint64 words, one row per key.

    Row i equals `np.random.SeedSequence(entropy[i]).generate_state(4, np.uint64)`.
    The body transcribes numpy's `mix_entropy` and `generate_state` line for
    line: each pool word is a column holding that word for every key, and
    each of numpy's hash calls is one array operation on one column.
    """
    rows, length = entropy.shape
    hash_const, mult = _INIT_A, _MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        # Xor the multiplier, advance it once per call, multiply by the new one.
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    # mix_entropy: add in the entropy up to the pool size, hashing zeros past its end.
    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zeros) for i in range(_POOL_SIZE)]
    # Mix all bits together so late bits can affect earlier bits.
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    # Add any remaining entropy, mixing each new entropy word with each pool word.
    for i_src in range(_POOL_SIZE, length):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(entropy[:, i_src]))
    # generate_state(4, np.uint64): 8 words cycling over the pool, paired
    # little-endian into 64-bit words.
    hash_const, mult = _INIT_B, _MULT_B
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(_STATE_WORDS)], axis=1)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


def _key_entropy(master_seed: int, keys: Sequence[tuple[int, ...]]) -> np.ndarray:
    """(keys, words) uint32 entropy of each stream (master_seed, *key), one row per key.

    The keys must share one arity, with each index in [0, 2**32): one entropy word.
    """
    seed = _entropy_words(master_seed)
    rows = [seed + [operator.index(value) for value in key] for key in keys]
    for key, row in zip(keys, rows):
        if len(row) != len(rows[0]) or not 0 <= min(row) <= max(row) <= _MASK32:
            raise ValueError(f"stream key {tuple(key)} is not {len(keys[0])} non-negative indices in [0, 2**32)")
    return np.array(rows, dtype=np.uint32).reshape(len(rows), -1 if rows else 0)


def _generators(seed_words: Iterable[np.ndarray]) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(_DerivedSeed(words))) for words in seed_words]


def substreams(master_seed: int, keys: Iterable[tuple[int, ...]]) -> list[np.random.Generator]:
    """The generator of each stream (master_seed, *key), in the order of keys.

    Each generator is its own object, in the same state as `substream` gives.
    """
    return _generators(_seed_words(_key_entropy(master_seed, list(keys))))


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the generator for one named stream.

    The same (master_seed, key) always yields an identical generator state.
    """
    return substreams(master_seed, [key])[0]


class RoundStreams:
    """The streams (master_seed, tag, index, t) of a fixed (tag, index) layout, for each round t of a run.

    `generators(t)` gives them in layout order, each in the state `substream`
    gives. The layout's entropy, repeated over ROUND_BLOCK rounds, is one
    uint32 table; the block's seed words are hashed in one `_seed_words` call
    when a round of the block is first asked for. The last block ends at
    round `rounds - 1`.
    """

    def __init__(self, master_seed: int, layout: Sequence[tuple[int, int]], rounds: int) -> None:
        if not 0 <= rounds - 1 <= _MASK32:
            raise ValueError(f"round indices must be in [0, 2**32), for {rounds} rounds")
        self.master_seed, self.layout, self.rounds = master_seed, tuple(layout), rounds
        # Block rows x keys x words: the key's entropy, then the round.
        keys = np.pad(_key_entropy(master_seed, self.layout), ((0, 0), (0, 1)))
        self._entropy = np.repeat(keys[None], ROUND_BLOCK, axis=0)
        self._block_start: int | None = None
        self._words = np.empty(0)

    def generators(self, round_index: int) -> list[np.random.Generator]:
        if not 0 <= round_index < self.rounds:
            raise IndexError(f"round {round_index} outside a run of {self.rounds} rounds")
        offset = round_index % ROUND_BLOCK
        start = round_index - offset
        if start != self._block_start:
            block = self._entropy[: min(ROUND_BLOCK, self.rounds - start)]
            block[..., -1] = np.arange(start, start + len(block), dtype=np.uint32)[:, None]
            words = _seed_words(block.reshape(-1, block.shape[-1]))
            self._words = words.reshape(len(block), len(self.layout), 4)
            self._block_start = start
        return _generators(self._words[offset])


def unit_sphere_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw a vector uniformly from the unit Euclidean sphere."""
    v = rng.standard_normal(dim)
    norm = float(np.linalg.norm(v))
    while norm == 0.0:  # probability zero, defensive only
        v = rng.standard_normal(dim)
        norm = float(np.linalg.norm(v))
    return v / norm
