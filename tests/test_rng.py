"""The keyed uniform stream: its values at two keys, its seed mask and its block decomposition; and the keyed
count draw over the stream's law, pinned at two keys.

Every sampled count in ``tests/record.json`` follows from the count draw, so a
change of generator or key shows here first, in one fast test.
"""

import math
from fractions import Fraction

import numpy as np
from conftest import stream_below

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
              for b in reversed(range(-(-n // rng.BLOCK_SIZE)))}
    u = rng.uniform_stream(seed, n)
    assert np.array_equal(u, np.concatenate([blocks[b] for b in sorted(blocks)]))
    assert rng.U_MIN <= u.min() and u.max() <= rng.U_MAX


def test_the_keyed_counts_below_three_points_are_pinned_at_two_keys():
    # one multinomial draw under (seed, rng.COUNT_KEY); seed -1 keys as 2^64 - 1, as the blocks do
    points = np.array([0.25, 0.5, 0.75])
    assert rng.counts_below(20240527, 10**6, points).tolist() == [250374, 499483, 749426]
    assert rng.counts_below(-1, 10**6, points).tolist() == rng.counts_below(2**64 - 1, 10**6, points).tolist() == [
        249477, 499543, 749762]
    assert rng.counts_below(3, 10**6, np.array([])).tolist() == []


def test_the_count_draw_gives_each_bin_the_stream_s_exact_probability(monkeypatch):
    # the bins that the points cut, each with P[v_prev <= u < v] of a stream uniform to the last bit, points
    # off the 2^-53 grid included; the last bin takes the rest
    seen = []

    class Spy:
        def multinomial(self, n, pvals):
            seen.append((n, pvals))
            return np.zeros(len(pvals), dtype=np.int64)

    monkeypatch.setattr(rng, "_generator", lambda *key: Spy())
    points = [2.0**-52, math.nextafter(0.25, 0.0), 0.3, math.nextafter(0.5, 1.0), rng.U_MAX]
    assert rng.counts_below(7, 10**6, np.array(points)).tolist() == [0] * len(points)
    (n, pvals), = seen
    below = [Fraction(0), *map(stream_below, points), Fraction(1)]
    assert n == 10**6 and [Fraction(p) for p in pvals.tolist()] == [b - a for a, b in zip(below, below[1:])]
