"""The keyed uniform stream: its values at two keys, its seed mask and its block decomposition.

Every sampled count in ``tests/record.json`` follows from this stream, so a
change of generator or key shows here first, in one fast test.
"""

import numpy as np

from steintail import rng


def test_the_first_values_of_a_block_are_pinned_at_two_keys():
    assert repr(rng.uniform_block(20240527, 0, 4).tolist()) == (
        "[0.3345499343672821, 0.5969983134052739, 0.5632020608514032, 0.5904310554544904]")
    assert repr(rng.uniform_block(2**64 - 1, 15, 4).tolist()) == (
        "[0.4442926748918047, 0.43569038569950336, 0.45941335090744506, 0.11614392336302792]")


def test_a_negative_seed_keys_the_block_of_its_64_bit_image():
    # ScenarioSpec accepts negative seeds; the key masks them to 64 bits
    assert np.array_equal(rng.uniform_block(-1, 15, rng.BLOCK_SIZE), rng.uniform_block(2**64 - 1, 15, rng.BLOCK_SIZE))


def test_the_stream_is_its_blocks_drawn_in_any_order():
    seed, n = 11, 3 * rng.BLOCK_SIZE + 5
    blocks = {b: rng.uniform_block(seed, b, min(rng.BLOCK_SIZE, n - b * rng.BLOCK_SIZE))
              for b in reversed(range(rng.n_blocks(n)))}
    u = rng.uniform_stream(seed, n)
    assert np.array_equal(u, np.concatenate([blocks[b] for b in sorted(blocks)]))
    assert rng.U_MIN <= u.min() and u.max() <= rng.U_MAX
