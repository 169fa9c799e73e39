"""``quadrature.solve_monotone``: finished problems leave, each root is the one it gets alone, and the array and
float executors take the same steps."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steintail import quadrature
from steintail.errors import DomainError

# x^3 = c on brackets of different widths: Newton from the bracket's split point
# takes a different number of steps for each, so the problems finish at different steps;
# there are more of them than quadrature._FLOAT_MAX, so a batch starts on the array executor
_MORE = 10.0 ** np.linspace(-4.0, 9.0, 33) * np.resize([1.0, -1.0, 1.0], 33)
_WIDTHS = 10.0 ** np.random.default_rng(11).uniform(-2.0, 4.0, (2, _MORE.size))
CUBES = np.concatenate([[1e-6, 0.5, 2.0, 7.0, 1e3, 1e6, -3.0, -1e4], _MORE])
LO = np.concatenate([[0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -10.0, -1e3], np.cbrt(_MORE) - _WIDTHS[0]])
HI = np.concatenate([[1.0, 1.0, 4.0, 100.0, 1e3, 1e3, 0.0, 0.0], np.cbrt(_MORE) + _WIDTHS[1]])


def _cube(record=None):
    def f(x, i):
        if record is not None:
            record.append(i.copy())
        return x**3 - CUBES[i], 3.0 * x * x
    return f


def test_finished_problems_leave_and_never_come_back():
    seen = []
    roots = quadrature.solve_monotone(_cube(seen), LO, HI, True, xtol=1e-13)
    np.testing.assert_allclose(roots, np.cbrt(CUBES), rtol=1e-12)
    np.testing.assert_array_equal(seen[0], np.arange(CUBES.size))
    for before, after in zip(seen, seen[1:]):
        assert np.all(np.diff(after) > 0) and np.isin(after, before).all()  # in order, and a subset
    sizes = [i.size for i in seen]
    assert len(set(sizes)) >= 3, sizes  # problems finish at different steps
    assert seen[-1].size >= 1


def test_batch_roots_equal_single_solves_bit_for_bit():
    assert CUBES.size > quadrature._FLOAT_MAX  # the batch starts on arrays, each single solve on floats
    batch = quadrature.solve_monotone(_cube(), LO, HI, True, xtol=1e-13)
    for k in range(CUBES.size):
        alone = quadrature.solve_monotone(lambda x, i: (x**3 - CUBES[k], 3.0 * x * x), [LO[k]], [HI[k]], True,
                                          xtol=1e-13)
        assert alone[0] == batch[k], k


def test_per_problem_direction_and_start():
    # decreasing problems read by index, from given starts
    c = np.array([0.5, 8.0, 27.0])
    f = lambda x, i: (c[i] - x**3, -3.0 * x * x)
    roots = quadrature.solve_monotone(f, [0.0, 0.0, 0.0], [1.0, 5.0, 5.0], [False, False, False], [0.9, 1.0, 4.0],
                                      xtol=1e-14)
    np.testing.assert_allclose(roots, np.cbrt(c), rtol=1e-14)


# ---------------------------------------------------------------------------
# the array and the float executor


def _solve(f_of, lo, hi, increasing, x0, xtol, float_max):
    """(roots or the DomainError's message, [(i, x) of every f call]) with quadrature._FLOAT_MAX = float_max."""
    calls = []

    def f(x, i):
        calls.append((i.tobytes(), x.tobytes()))
        return f_of(x, i)

    with mock.patch.object(quadrature, "_FLOAT_MAX", float_max):
        try:
            out = quadrature.solve_monotone(f, lo, hi, increasing, x0, xtol=xtol).tobytes()
        except DomainError as exc:
            out = str(exc)
    return out, calls


def _same_on_both_executors(f_of, lo, hi, increasing, x0=None, xtol=1e-13) -> int:
    """Solves on arrays only, on floats only and with the module's switch take the same steps and converge;
    the step count."""
    arrays = _solve(f_of, lo, hi, increasing, x0, xtol, 0)
    assert isinstance(arrays[0], bytes), arrays[0]  # roots, not the DomainError's message
    for float_max in (quadrature._FLOAT_MAX, math.inf):
        assert _solve(f_of, lo, hi, increasing, x0, xtol, float_max) == arrays, float_max
    return len(arrays[1])


# slope: the true one, 0, +inf, NaN or a millionth of it (Newton leaves the bracket); or a NaN value right of the root
_MODES = ("newton", "zero_slope", "inf_slope", "nan_slope", "shallow", "nan_value")
# a problem: a (x - r)^m on [r - 10^left, r + 10^right], increasing where a > 0, started at its midpoint
# (NaN), at a point of the bracket or at its root, where the slope of a multiple root is 0; r anywhere in
# [-1e3, 1e3], 0 and the subnormals included, where only bisection on the order of the doubles gets close
_ROOT = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 5e-324, -1e-300, 1e-20]))
_PROBLEM = st.tuples(_ROOT, st.sampled_from([1, 3, 5]), st.sampled_from([-2.5, -1.0, 0.5, 3.0]),
                     st.floats(-3.0, 60.0), st.floats(-3.0, 60.0), st.sampled_from(_MODES),
                     st.one_of(st.just(math.nan), st.just("root"), st.floats(0.0, 1.0)))


def _problems(problems):
    r, m, a, left, right, mode, start = zip(*problems)
    r, m, a = np.array(r), np.array(m, dtype=float), np.array(a)
    lo, hi = r - 10.0 ** np.array(left), r + 10.0 ** np.array(right)
    x0 = [root if s == "root" else s if math.isnan(s) else min(max(lo_ + s * (hi_ - lo_), lo_), hi_)
          for root, s, lo_, hi_ in zip(r, start, lo, hi)]
    mode = np.array([_MODES.index(v) for v in mode])
    gap = 10.0 ** (np.array(right) - 1.0)

    def f(x, i):
        d = x - r[i]
        val = a[i] * d ** m[i]
        slope = a[i] * m[i] * d ** (m[i] - 1.0)
        slope = np.choose(mode[i], [slope, 0.0, math.inf, math.nan, 1e-6 * slope, slope])
        return np.where((mode[i] == 5) & (d > gap[i]), math.nan, val), slope

    return f, lo, hi, a > 0.0, x0


_SIZES = st.sampled_from([1, 2, 3, 8, quadrature._FLOAT_MAX, quadrature._FLOAT_MAX + 1, 2 * quadrature._FLOAT_MAX + 5])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problems=_SIZES.flatmap(lambda n: st.lists(_PROBLEM, min_size=n, max_size=n)),
       xtol=st.sampled_from([1e-13, 0.0]))  # with 0, a Newton step stops a problem only when it is exactly 0
@example(problems=[(1.0, 5, 1.0, 0.0, 300.0, "newton", 0.1)], xtol=1e-13)  # multiplicity 5 past the patience rule
@example(problems=[(0.0, 3, 1.0, 1.0, 1.0, "newton", "root")], xtol=1e-13)  # slope 0 at the start
@example(problems=[(0.0, 1, 0.5, 5.0, 47.0, "nan_slope", "root")], xtol=1e-13)  # root 0 by bisection alone
@example(problems=[(0.0, 1, 1.0, 1.0, 1.0, "zero_slope", math.nan)] + [(1.0, 1, 1.0, 0.0, 0.0, "newton", math.nan)]
         * quadrature._FLOAT_MAX, xtol=1e-13)  # root 0 by bisection alone, past the switch from arrays to floats
def test_array_and_float_executors_agree_bit_for_bit(problems, xtol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _same_on_both_executors(*_problems(problems), xtol)


def test_the_executors_agree_past_the_patience_rule_at_equal_steps_and_on_a_thinning_batch():
    f, lo, hi, inc, x0 = _problems([(1.0, 5, 1.0, 0.0, 300.0, "newton", 0.1)])
    assert _same_on_both_executors(f, lo, hi, inc, x0) > quadrature._PATIENCE
    # a Newton step of exactly half the first bracket is taken: to 1, where bisection would go to 1.5
    assert _same_on_both_executors(lambda x, i: (x - 1.0, np.ones_like(x)), [0.0], [4.0], True, [3.0]) == 2
    # a Newton step that lands on the bracket's end is taken: from 3 to 1, the root
    assert _same_on_both_executors(lambda x, i: (x - 1.0, np.ones_like(x)), [1.0], [10.0], True, [3.0]) == 2
    # ends 1 and 4 are split in the order of the doubles, at 2, not at their arithmetic midpoint, 2.5
    nan_slope = lambda x, i: (x - 3.0, np.full_like(x, math.nan))
    _same_on_both_executors(nan_slope, [1.0], [4.0], True, [1.0])
    assert np.frombuffer(_solve(nan_slope, [1.0], [4.0], True, [1.0], 1e-13, math.inf)[1][1][1])[0] == 2.0
    # a NaN start is the arithmetic midpoint
    assert np.frombuffer(_solve(nan_slope, [1.0], [4.0], True, None, 1e-13, math.inf)[1][0][1])[0] == 2.5
    # with xtol 0, the exact Newton step 0 at the root 0 stops the problem
    assert _same_on_both_executors(lambda x, i: (x, np.ones_like(x)), [-1.0], [4.0], True, [0.0], xtol=0.0) == 1
    sizes = []
    quadrature.solve_monotone(_cube(sizes), LO, HI, True, xtol=1e-13)
    assert sizes[0].size > quadrature._FLOAT_MAX >= sizes[-1].size  # the default switches executors mid-solve
    assert _same_on_both_executors(_cube(), LO, HI, True) == len(sizes)


def test_f_may_return_one_number_for_all_problems():
    c = np.linspace(-3.0, 3.0, 5)
    _same_on_both_executors(lambda x, i: (2.0 * x - c[i], 2.0), np.full(5, -4.0), np.full(5, 4.0), True)


# ---------------------------------------------------------------------------
# refusals, and silence, on either executor


@pytest.mark.parametrize("float_max", [0, quadrature._FLOAT_MAX, math.inf])
def test_refusals_and_silence_on_either_executor(float_max):
    def never(x, i):
        raise AssertionError("f called")

    with mock.patch.object(quadrature, "_FLOAT_MAX", float_max), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quadrature.solve_monotone(never, [], [], True, xtol=1e-13).shape == (0,)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="finite brackets"):
                quadrature.solve_monotone(never, [0.0, 0.0], [1.0, bad], True, xtol=1e-13)
        # a tolerance no step can meet: the exact Newton step 0 never stops a problem
        with pytest.raises(DomainError, match="did not converge in 400 steps"):
            quadrature.solve_monotone(lambda x, i: (x - 0.3, np.ones_like(x)), [0.0], [1.0], True, xtol=-1.0)
        # a slope of exactly 0, everywhere or where a multiple root starts, is a bisection step
        root = quadrature.solve_monotone(lambda x, i: (x - 0.3, 0.0), [0.0], [1.0], True, xtol=1e-13)
        assert abs(root[0] - 0.3) <= 1e-16
        root = quadrature.solve_monotone(lambda x, i: (x**3 - 8.0, 3.0 * x * x), [-1.0], [5.0], True, [0.0],
                                         xtol=1e-13)
        assert root[0] == pytest.approx(2.0, rel=1e-14)
        # f overflows to inf past 1e62 on a bracket as wide as the doubles
        root = quadrature.solve_monotone(lambda x, i: ((x - 1.0)**5, 5.0 * (x - 1.0)**4), [-1e300], [1e300], True,
                                         xtol=1e-13)
        assert root[0] == pytest.approx(1.0, abs=1e-12)
        # bisection alone on a bracket wider than the largest double, whose width overflows to inf
        root = quadrature.solve_monotone(lambda x, i: (x - 1e-300, math.nan), [-1.7e308], [1.7e308], True, xtol=0.0)
        assert abs(root[0] - 1e-300) <= math.ulp(1e-300)


@pytest.mark.parametrize("r", [0.0, 1e-300])
def test_bisection_alone_closes_a_bracket_around_a_root_near_0(r):
    calls = []

    def f(x, i):
        calls.append(x)
        return x - r, np.full(x.shape, math.nan)  # every Newton step refused

    assert abs(quadrature.solve_monotone(f, r - 1.0, r + 10.0, True, xtol=0.0)[0] - r) <= math.ulp(r)  # one double
    assert len(calls) <= 66  # the start, at most 64 halvings and one call at the last double


# ---------------------------------------------------------------------------
# the bisection point

_DOUBLE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.7e308, 1.7e308]),
                    st.floats(-2.3e-308, 2.3e-308))  # the subnormals and the smallest normals


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ends=st.tuples(_DOUBLE, _DOUBLE), root=st.floats(0.0, 1.0))
@example(ends=(-1.7976931348623157e308, 1.7976931348623157e308), root=0.5)
@example(ends=(-5e-324, 5e-324), root=0.0)
@example(ends=(-0.0, 0.0), root=0.0)
def test_split_halves_any_finite_bracket_in_the_order_of_the_doubles(ends, root):
    lo, hi = sorted(ends)
    target = lo + root * (hi - lo) if math.isfinite(hi - lo) else root * hi + (1.0 - root) * lo
    halvings = 0
    while True:
        mid = quadrature._split(lo, hi)
        assert lo <= mid <= hi
        assert np.array(mid).tobytes() == quadrature._split(np.array([lo]), np.array([hi])).tobytes()  # either form
        if not np.nextafter(lo, hi) < hi:  # lo and hi are equal or adjacent doubles
            break
        assert lo < mid < hi
        lo, hi = (mid, hi) if mid < target else (lo, mid)
        halvings += 1
        assert halvings <= 64, (lo, hi)
