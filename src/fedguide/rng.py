"""Keyed random-number streams for reproducible simulation.

Every random draw in the simulator comes from a generator derived from
(seed, *path), where the path encodes what the stream is for and which
client/round it belongs to. No stream carries state from one draw site to
the next, so results do not depend on the order in which clients are
stepped, and a run resumed at round t draws exactly the numbers an
uninterrupted run would.

``stream`` builds one generator through ``np.random.SeedSequence``.
``client_streams`` and ``RoundStreams`` give the same generators, bit for
bit, for the streams a run draws per client (at set-up) and per client and
round: they derive the seed words with ``seed_words``, which takes the
seed's pool from numpy and hashes whole columns of keys into it, and seed
each ``PCG64`` from its precomputed words. ``RoundStreams`` does so a block of rounds at a time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ContractViolation

# Stream purpose tags; (seed, tag, *indices) names one independent stream.
DATA = 0
PARTITION = 1
SPLIT = 2
MODEL_INIT = 3
GUIDE_INIT = 4
PARTICIPATION = 5
EPOCH = 6
BATCH = 7
NOISE = 8


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator keyed by (seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))


# numpy.random.SeedSequence's pool size and hash constants. Its arithmetic is
# on uint32 words, which numpy arrays wrap modulo 2**32 as C does.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def seed_words(seed: int, keys: np.ndarray) -> np.ndarray:
    """The (m, 4) uint64 words that
    ``SeedSequence(entropy=seed, spawn_key=keys[i]).generate_state(4, np.uint64)``
    gives for each row of the (m, w) key array, w >= 1 and every key below
    2**32.

    The seed's words mix into a pool shared by every row, which numpy
    gives as ``SeedSequence(seed).pool``. That stage hashes 4 times to fill
    the pool, 12 times to cross-mix it and 4 times for each seed word past
    the fourth, so the hash constant leaves it advanced
    ``16 + 4 * max(0, words - 4)`` times. Only the key columns and the
    output are hashed here, each step one array operation over the rows.
    """
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] < 1 or (
        keys.size and (keys.min() < 0 or keys.max() > _MASK32)
    ):
        raise ContractViolation(
            f"keys must be an (m, w >= 1) array of 32-bit words, got shape {keys.shape}"
        )
    if seed < 0:
        raise ContractViolation(f"seed must be >= 0, got {seed}")
    n_words = max(1, -(-int(seed).bit_length() // 32))
    hashes = 16 + _POOL_SIZE * max(0, n_words - _POOL_SIZE)
    hash_const = _INIT_A * pow(_MULT_A, hashes, 2**32) & _MASK32
    # Pool words as (1,) arrays: array arithmetic wraps modulo 2**32
    # silently, where numpy scalars warn on overflow.
    pool = list(np.random.SeedSequence(seed).pool[:, None])
    for j in range(keys.shape[1]):
        word = keys[:, j].astype(np.uint32)
        for dst in range(_POOL_SIZE):
            value = word ^ hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value *= hash_const
            value ^= value >> _XSHIFT
            mixed = pool[dst] * _MIX_MULT_L - value * _MIX_MULT_R
            pool[dst] = mixed ^ (mixed >> _XSHIFT)

    # The four uint64 words as eight little-endian uint32 ones, as
    # generate_state builds them.
    hash_const = _INIT_B
    out = np.empty((keys.shape[0], 8), "<u4")
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        out[:, i] = value ^ (value >> _XSHIFT)
    return out.view("<u8").astype(np.uint64, copy=False)


class _StateWords(ISeedSequence):
    """A SeedSequence whose PCG64 state words are already derived."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or dtype is not np.uint64:
            raise ContractViolation(f"holds {len(self.words)} uint64 words, not {n_words} {dtype}")
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    """The generator a SeedSequence whose state words are ``words`` seeds."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def client_streams(seed: int, purpose: int, n_clients: int) -> list[np.random.Generator]:
    """``stream(seed, purpose, i)`` for every client i, bit for bit, with the
    seed words of all of them derived in one ``seed_words`` pass."""
    keys = np.empty((n_clients, 2), np.int64)
    keys[:, 0] = purpose
    keys[:, 1] = np.arange(n_clients)
    return [_generator(words) for words in seed_words(seed, keys)]


# Streams whose words RoundStreams derives at once: 128 KB of words, and
# about 0.4 ms per block (4,080 streams, one Xeon core).
_BLOCK_STREAMS = 4096


class RoundStreams:
    """Generators keyed by (seed, purpose, client, round) for a run's
    per-client, per-round purposes, each equal, bit for bit, to
    ``stream(seed, purpose, client, round)``.

    The seed words of every client's streams are derived for a block of
    rounds at once, starting at the first round asked for that the held
    block lacks, and at most ``_BLOCK_STREAMS`` streams (or one round's) at
    a time, so memory does not grow with the number of rounds. Blocks are
    keyed by absolute round, so a resumed run gets the same streams.
    """

    def __init__(self, seed: int, purposes: Sequence[int], n_clients: int, last_round: int):
        self.seed = seed
        self.purposes = tuple(purposes)
        self.n_clients = n_clients
        self.last_round = last_round
        self.block_rounds = max(1, _BLOCK_STREAMS // (len(self.purposes) * n_clients))
        self._slot = {p: i for i, p in enumerate(self.purposes)}
        self._first = 0
        self._words = np.empty((0, len(self.purposes), n_clients, 4), np.uint64)

    def _derive(self, round_index: int):
        if not 1 <= round_index <= self.last_round:
            raise ContractViolation(f"round {round_index} is outside 1..{self.last_round}")
        rounds = np.arange(
            round_index, min(round_index + self.block_rounds, self.last_round + 1)
        )
        shape = (len(rounds), len(self.purposes), self.n_clients)
        keys = np.empty(shape + (3,), np.uint32)
        keys[..., 0] = np.array(self.purposes)[:, None]
        keys[..., 1] = np.arange(self.n_clients)
        keys[..., 2] = rounds[:, None, None]
        self._words = seed_words(self.seed, keys.reshape(-1, 3)).reshape(shape + (4,))
        self._first = round_index

    def generators(self, purpose: int, clients: Sequence[int], round_index: int) -> list:
        """The generators of ``clients`` (in that order) for one purpose and round."""
        r = round_index - self._first
        if not 0 <= r < self._words.shape[0]:
            self._derive(round_index)
            r = 0
        words = self._words[r, self._slot[purpose]]
        return [_generator(words[i]) for i in clients]
