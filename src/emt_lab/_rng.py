"""Deterministic stream derivation for reproducible runs.

All randomness in the toolkit flows through a 64-bit master seed and
`derive_stream`, a stateless splitmix64-style mixer. A (seed, index) pair
always maps to the same child seed on every platform, so parallel fan-out
over replicates or scenario runs stays order-independent.

`make_generator` seeds numpy's default generator (PCG64) from the child seed
through `np.random.SeedSequence`. `make_generators` gives the same generators
for many indices at once: it runs the splitmix and SeedSequence's integer hash
over arrays, which numpy keeps fixed (NEP 19), and hands the resulting state
words to PCG64, which seeds itself from them as `default_rng` has it do.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def derive_stream(master_seed: int, index):
    """Mix a master seed and stream index into a child seed (splitmix64).

    `index` is an int, or an np.uint64 array whose elements are mixed alike:
    uint64 arithmetic wraps as the masks do.
    """
    z = ((master_seed & _MASK64) + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def make_generator(master_seed: int, index: int = 0) -> np.random.Generator:
    """Generator seeded from the derived child stream."""
    return np.random.default_rng(derive_stream(master_seed, index))


def _hash_constants(init: int, mult: int, calls: int):
    """The (xor, multiplier) pairs of `calls` successive SeedSequence hash
    calls, as uint32 columns: each call multiplies the running constant."""
    a = [init]
    for _ in range(calls):
        a.append(a[-1] * mult & 0xFFFFFFFF)
    return np.array(a[:-1], np.uint32)[:, None], np.array(a[1:], np.uint32)[:, None]


# SeedSequence with its pool of 4 words: mix_entropy hashes each word in
# (4 calls), then each word into the 3 others (12 calls); generate_state(4,
# np.uint64) hashes out 8 32-bit words.
_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (values ^ xor) * mul
    return v ^ (v >> 16)


def _pcg64_seed_words(entropy: np.ndarray) -> np.ndarray:
    """Row r is `SeedSequence(entropy[r]).generate_state(4, np.uint64)`.

    An entropy below 2**32 is one 32-bit word, which SeedSequence pads with
    hashed zeros like the high word 0 here.
    """
    pool = np.zeros((4, entropy.size), np.uint32)
    pool[0] = entropy & 0xFFFFFFFF
    pool[1] = entropy >> 32
    pool = _hash(pool, _POOL_XOR[:4], _POOL_MUL[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        calls = slice(4 + 3 * src, 7 + 3 * src)
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], _POOL_XOR[calls], _POOL_MUL[calls])
        pool[dst] = mixed ^ (mixed >> 16)
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MUL)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence whose PCG64 state words are already computed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def make_generators(master_seed: int, indices) -> list[np.random.Generator]:
    """`make_generator(master_seed, i)` for each non-negative int i of
    `indices`, in the same states, seeded in one vectorized pass.

    For a single index `make_generator` is faster. The generators cannot
    `spawn`: their seed sequence is only the state words.
    """
    entropy = derive_stream(master_seed, np.asarray(indices, dtype=np.uint64))
    return [np.random.Generator(np.random.PCG64(_SeedWords(words)))
            for words in _pcg64_seed_words(entropy)]
