"""Keyed streams: the vectorized seed words and the per-round stream table
must give exactly the generators ``rng.stream`` builds through numpy's
SeedSequence, for every seed a run accepts and every round of a run."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedguide import rng
from fedguide.errors import ContractViolation

# One word, the largest one-word seed, the first two-word seed, a three-word
# seed, four- and five-word seeds and a seven-word one: the entropy is padded
# to the pool size only below four words, and only words past the fourth
# advance the seed stage's hash constant further.
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 2**128, 2**200 + 7)
N, T = 20, 200


def reference_words(seed, key):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return ss.generate_state(4, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_words_equal_seed_sequence(seed):
    keys = np.array(
        [
            [purpose, client, round_index]
            for purpose in (rng.EPOCH, rng.BATCH, rng.NOISE)
            for client in (0, N - 1)
            for round_index in (1, T)
        ]
        + [[0, 2**32 - 1, 0]]
    )
    words = rng.seed_words(seed, keys)
    assert words.shape == (len(keys), 4) and words.dtype == np.uint64
    for key, row in zip(keys, words):
        assert np.array_equal(row, reference_words(seed, key)), key


@pytest.mark.parametrize("width", [1, 2, 5])
def test_seed_words_hold_for_any_key_width(width):
    keys = np.arange(3 * width).reshape(3, width) * 7919
    for key, row in zip(keys, rng.seed_words(2**40 + 1, keys)):
        assert np.array_equal(row, reference_words(2**40 + 1, key))


@pytest.mark.parametrize(
    "keys", [np.zeros((2, 0), np.int64), np.array([[-1, 0]]), np.array([[2**32, 0]]), np.zeros(3)]
)
def test_seed_words_reject_keys_that_are_not_single_words(keys):
    with pytest.raises(ContractViolation, match="32-bit words"):
        rng.seed_words(1, keys)


@pytest.mark.parametrize("seed", SEEDS)
def test_round_streams_draw_what_stream_draws(seed):
    table = rng.RoundStreams(seed, (rng.EPOCH, rng.BATCH), N, T)
    clients = [0, 7, N - 1]
    for round_index in (1, 2, table.block_rounds + 1, T):
        for purpose in (rng.EPOCH, rng.BATCH):
            gens = table.generators(purpose, clients, round_index)
            for client, gen in zip(clients, gens):
                expected = rng.stream(seed, purpose, client, round_index)
                assert gen.bit_generator.state == expected.bit_generator.state
                assert np.array_equal(gen.permutation(30), expected.permutation(30))


PURPOSES = (
    rng.DATA,
    rng.PARTITION,
    rng.SPLIT,
    rng.MODEL_INIT,
    rng.GUIDE_INIT,
    rng.PARTICIPATION,
    rng.EPOCH,
    rng.BATCH,
    rng.NOISE,
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.sampled_from(SEEDS) | st.integers(0, 2**32 - 1) | st.integers(2**32, 2**130),
    st.sampled_from(PURPOSES),
    st.integers(1, 40),
)
def test_client_streams_draw_what_stream_draws(seed, purpose, n_clients):
    gens = rng.client_streams(seed, purpose, n_clients)
    assert len(gens) == n_clients
    for client, gen in enumerate(gens):
        expected = rng.stream(seed, purpose, client)
        assert gen.bit_generator.state == expected.bit_generator.state
        assert np.array_equal(gen.permutation(30), expected.permutation(30))
        assert gen.random(4).tobytes() == expected.random(4).tobytes()


def test_round_streams_derive_a_bounded_block_from_any_round():
    table = rng.RoundStreams(3, (rng.EPOCH, rng.BATCH, rng.NOISE), 100, T)
    assert table.block_rounds * 3 * 100 <= rng._BLOCK_STREAMS
    # a resumed run asks first for a round in the middle, the next block
    # starts where the held one ends, and the last stops at the run's end
    last_block = T - table.block_rounds + 1
    for round_index in (57, 57 + table.block_rounds, last_block + 1, T):
        [gen] = table.generators(rng.NOISE, [99], round_index)
        assert np.array_equal(gen.random(4), rng.stream(3, rng.NOISE, 99, round_index).random(4))
        assert table._words.shape[0] <= table.block_rounds
        assert table._first <= round_index
    assert table._first == last_block + 1 and table._words.shape[0] == table.block_rounds - 1
    with pytest.raises(ContractViolation, match="outside 1..200"):
        table.generators(rng.EPOCH, [0], T + 1)


def test_precomputed_words_serve_only_the_state_pcg64_asks_for():
    words = rng.seed_words(1, np.array([[rng.EPOCH, 0, 1]]))[0]
    with pytest.raises(ContractViolation):
        rng._StateWords(words).generate_state(8, np.uint32)
