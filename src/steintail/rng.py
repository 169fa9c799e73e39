"""Keyed random streams with reproducible block decomposition.

Block b of a stream comes from its own SFC64 generator, seeded through
``SeedSequence([seed, b])``, so it is computable without generating blocks
0..b-1; the seed sequence's hashing spreads neighbouring keys apart.
Assembling blocks by index makes the output independent of the order in
which blocks are produced, which is what guarantees byte-identical results
under parallel execution.  ``pearson.sample`` maps a stream CHUNK draws at a
time: the block size fixes the stream, the chunk size only bounds the
temporaries (docs/DECISIONS.md, decision 10).
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 1 << 16  # draws per generator key: fixes the stream
U_MIN, U_MAX = 2.0**-53, 1.0 - 2.0**-53  # the range of the uniforms, which inverse CDFs serve
CHUNK = 1 << 14  # draws per transform: 128 KB temporaries, small enough for the allocator to reuse


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, block_index])))


def n_blocks(n: int) -> int:
    return (n + BLOCK_SIZE - 1) // BLOCK_SIZE


def uniform_block(seed: int, block_index: int, size: int) -> np.ndarray:
    """Uniforms in [U_MIN, U_MAX]; keeping 0 out keeps inverse CDFs finite.

    ``random`` returns multiples of 2^-53, so raising 0 to U_MIN changes no
    other value.
    """
    u = _block_generator(seed, block_index).random(size)
    return np.maximum(u, U_MIN, out=u)


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """n uniforms, block b at [b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE)."""
    out = np.empty(n)
    for b in range(n_blocks(n)):
        lo = b * BLOCK_SIZE
        hi = min(lo + BLOCK_SIZE, n)
        out[lo:hi] = uniform_block(seed, b, hi - lo)
    return out
