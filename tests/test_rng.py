"""Deterministic stream derivation."""

import numpy as np
import pytest

from emt_lab import derive_stream, make_generator
from emt_lab._rng import _pcg64_seed_words, make_generators

# Golden vector fixed at first implementation; any change to the mixing
# constants breaks every recorded scenario digest.
GOLDEN_SEED0_INDEX0 = 16294208416658607535


def test_golden_vector():
    assert derive_stream(0, 0) == GOLDEN_SEED0_INDEX0


def test_stable_across_calls():
    assert derive_stream(123, 45) == derive_stream(123, 45)


def test_distinct_children_large_scan():
    seed = 987654321
    children = {derive_stream(seed, i) for i in range(1_000_000)}
    assert len(children) == 1_000_000


def test_generator_reproducibility():
    a = make_generator(42, 3).random(10)
    b = make_generator(42, 3).random(10)
    assert np.array_equal(a, b)


def test_generator_streams_differ():
    a = make_generator(42, 0).random(10)
    b = make_generator(42, 1).random(10)
    assert not np.array_equal(a, b)


def test_output_range():
    for i in range(100):
        child = derive_stream(2**63, i)
        assert 0 <= child < 2**64


MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 3, 2**64 - 1]
# a few thousand indices: the seeding block edges, a dense run and a sparse tail
INDICES = sorted({255, 256, 257, 513, *range(2000), *range(2000, 10**6, 997), 2**40, 2**63})


@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_make_generators_states_equal_make_generator(master):
    gens = make_generators(master, INDICES)
    assert len(gens) == len(INDICES)
    for i, rng in zip(INDICES, gens):
        assert rng.bit_generator.state == make_generator(master, i).bit_generator.state, i


def test_make_generators_equal_states_give_equal_draws():
    for i, rng in zip([0, 256, 513], make_generators(2**64 - 3, [0, 256, 513])):
        oracle = make_generator(2**64 - 3, i)
        assert rng.random(5).tobytes() == oracle.random(5).tobytes()
        assert rng.exponential(1.0, 1000).tobytes() == oracle.exponential(1.0, 1000).tobytes()


def test_make_generators_of_no_indices():
    assert make_generators(7, []) == []


def test_seed_words_are_seed_sequence_states_at_word_edges():
    # one 32-bit entropy word (below 2**32) and two, at both ends
    entropy = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
    words = _pcg64_seed_words(np.array(entropy, dtype=np.uint64))
    for e, row in zip(entropy, words):
        assert row.tolist() == np.random.SeedSequence(e).generate_state(4, np.uint64).tolist()


def test_derive_stream_on_an_index_array_is_the_scalar_mix():
    idx = np.array([0, 1, 255, 2**40, 2**64 - 2], dtype=np.uint64)
    for master in (-5, 0, 2**64 - 1, 2**64 + 7):
        got = derive_stream(master, idx)
        assert got.tolist() == [derive_stream(master, int(i)) for i in idx]
