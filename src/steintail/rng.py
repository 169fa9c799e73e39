"""Keyed random streams with reproducible block decomposition, and keyed counts of the stream's law.

Block b of a stream comes from its own SFC64 generator, seeded through
``SeedSequence([seed, b])``, so it is computable without generating blocks
0..b-1; the seed sequence's hashing spreads neighbouring keys apart.
Assembling blocks by index makes the output independent of the order in
which blocks are produced.  ``pearson.sample`` maps a stream CHUNK draws
at a time: the block size fixes the stream, the chunk size only bounds the
temporaries.  ``counts_below`` draws how many of n uniforms of the stream's
law fall below each of a few points, as one multinomial draw under a key of
its own, without drawing the uniforms (docs/DECISIONS.md, decision 10).
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 1 << 16  # draws per generator key: fixes the stream
U_MIN, U_MAX = 2.0**-53, 1.0 - 2.0**-53  # the range of the uniforms, which inverse CDFs serve
CHUNK = 1 << 14  # draws per transform: 128 KB temporaries, small enough for the allocator to reuse
COUNT_KEY = (0,)  # the spawn key of the count draw; no block key has a spawn key
_SEED_MASK = (1 << 64) - 1  # SeedSequence takes non-negative integers: a seed keys as its 64-bit image


def _generator(entropy, spawn_key=()) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy, spawn_key=spawn_key)))


def uniform_block(seed: int, block_index: int, size: int) -> np.ndarray:
    """Uniforms in [U_MIN, U_MAX]; keeping 0 out keeps inverse CDFs finite.

    ``random`` returns multiples of 2^-53, so raising 0 to U_MIN changes no
    other value.
    """
    u = _generator([seed & _SEED_MASK, block_index]).random(size)
    return np.maximum(u, U_MIN, out=u)


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """n uniforms, block b at [b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE)."""
    out = np.empty(n)
    for b, lo in enumerate(range(0, n, BLOCK_SIZE)):
        out[lo:lo + BLOCK_SIZE] = uniform_block(seed, b, min(BLOCK_SIZE, n - lo))
    return out


def counts_below(seed: int, n: int, points: np.ndarray) -> np.ndarray:
    """#(u < v) among n uniforms of the stream's law, for each v of the increasing points in (U_MIN, U_MAX].

    A uniform is max(k, 1) 2^-53 for k uniform on [0, 2^53), so P[u < v] = ceil(v 2^53) 2^-53 exactly.  The
    counts of the bins that the points cut are one multinomial draw with those dyadic probabilities, keyed by
    (seed, ``COUNT_KEY``).  numpy draws it as conditional binomials, Binomial(draws left, p_j / mass left),
    whose mass left stays exact, so each count has the law of the stream's count in O(#points) work.
    """
    cuts = np.ceil(np.asarray(points, dtype=float) * 2.0**53)
    bins = np.diff(cuts, prepend=0.0, append=2.0**53) * 2.0**-53
    return np.cumsum(_generator(seed & _SEED_MASK, COUNT_KEY).multinomial(n, bins))[:-1]
