"""``quadrature.solve_monotone``: finished problems leave, each root is the one it gets alone, and the array steps
and the float rule of a polynomial's problems take the same steps."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steintail import pearson, quadrature
from steintail.errors import DomainError

# x^3 = c on brackets of different widths: Newton from the bracket's split point
# takes a different number of steps for each, so the problems finish at different steps
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
# the array steps and the float rule


def _never(*args):
    raise AssertionError("a callable reached the float steps")


def _on_arrays(f_of, lo, hi, increasing, x0, xtol):
    """(roots or the DomainError's message, {problem: bytes of its iterates at each f call}) of ``solve_monotone``,
    which steps a callable f on arrays from first to last: the float steps are never reached."""
    trace = {}

    def f(x, i):
        for j, v in zip(i.tolist(), x.tolist()):
            trace.setdefault(j, []).append(v)
        return f_of(x, i)

    with mock.patch.object(quadrature, "_float_step", _never), mock.patch.object(quadrature, "_poly_root", _never):
        try:
            out = quadrature.solve_monotone(f, lo, hi, increasing, x0, xtol=xtol).tobytes()
        except DomainError as exc:
            out = str(exc)
    return out, {j: np.array(v).tobytes() for j, v in trace.items()}


def _on_floats(f_of, lo, hi, increasing, x0, xtol):
    """The same as ``_on_arrays``, each problem run to its root on its own by ``quadrature._float_step``, the rule
    of the float steps, with f read at one point at a time."""
    lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    inc = np.broadcast_to(increasing, lo.shape).tolist()
    starts = np.broadcast_to(np.nan if x0 is None else np.asarray(x0, dtype=float), lo.shape).tolist()
    roots, trace, converged = [], {}, True
    for j, (a, b, s, v) in enumerate(zip(lo.tolist(), hi.tolist(), starts, inc)):
        row = (0.5 * a + 0.5 * b if math.isnan(s) else s, a, b, 1.0 if v else -1.0, b - a, b - a)
        trace[j] = []
        for k in range(quadrature._MAX_STEPS):
            trace[j].append(row[0])
            with np.errstate(**quadrature._QUIET):
                val, slope = (np.broadcast_to(u, 1).tolist()[0] for u in f_of(np.array([row[0]]), np.array([j])))
            row, going = quadrature._float_step(k, val, slope, row, xtol)
            if not going:
                break
        converged &= not going
        roots.append(row[0])
    out = np.array(roots).tobytes() if converged else (
        f"bracketed solve did not converge in {quadrature._MAX_STEPS} steps")
    return out, {j: np.array(v).tobytes() for j, v in trace.items()}


def _same_on_both_executors(f_of, lo, hi, increasing, x0=None, xtol=1e-13) -> int:
    """The array steps and the float rule take the same steps from the same points and converge; the number of
    array steps."""
    arrays = _on_arrays(f_of, lo, hi, increasing, x0, xtol)
    assert isinstance(arrays[0], bytes), arrays[0]  # roots, not the DomainError's message
    assert _on_floats(f_of, lo, hi, increasing, x0, xtol) == arrays
    return max(len(v) for v in arrays[1].values()) // 8


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
         * quadrature._FLOAT_MAX, xtol=1e-13)  # root 0 by bisection alone, after 32 problems have left
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
    assert np.frombuffer(_on_floats(nan_slope, [1.0], [4.0], True, [1.0], 1e-13)[1][0])[1] == 2.0
    # a NaN start is the arithmetic midpoint
    assert np.frombuffer(_on_floats(nan_slope, [1.0], [4.0], True, None, 1e-13)[1][0])[0] == 2.5
    # taken as 0.5 lo + 0.5 hi, which stays finite where lo + hi overflows
    big = lambda x, i: (x - 1.5e308, np.ones_like(x))
    assert _same_on_both_executors(big, [1e308], [1.7e308], True) <= 3
    assert np.frombuffer(_on_floats(big, [1e308], [1.7e308], True, None, 1e-13)[1][0])[0] == 1.35e308
    # with xtol 0, the exact Newton step 0 at the root 0 stops the problem
    assert _same_on_both_executors(lambda x, i: (x, np.ones_like(x)), [-1.0], [4.0], True, [0.0], xtol=0.0) == 1
    # a callable batch thins out on arrays to its last problem
    sizes = []
    quadrature.solve_monotone(_cube(sizes), LO, HI, True, xtol=1e-13)
    assert sizes[0].size == CUBES.size > quadrature._FLOAT_MAX >= sizes[-1].size
    assert _same_on_both_executors(_cube(), LO, HI, True) == len(sizes)
    # a polynomial batch leaves the arrays once at most _FLOAT_MAX problems run, each then from its own row
    p, dp = (-2.0, 0.0, 0.0, 1.0), (0.0, 0.0, 3.0)  # x^3 = 2 on brackets of the widths above
    lo, hi = np.cbrt(2.0) - _WIDTHS[0], np.cbrt(2.0) + _WIDTHS[1]
    handed = []
    poly_root = quadrature._poly_root
    with mock.patch.object(quadrature, "_poly_root", lambda *a: handed.append(a[2]) or poly_root(*a)):
        roots = quadrature.solve_monotone((p, dp), lo, hi, True, xtol=1e-13)
    assert len(set(handed)) == 1 and handed[0] > 0 and len(handed) <= quadrature._FLOAT_MAX
    cube = lambda x, i: (quadrature.horner(p, x), quadrature.horner(dp, x))
    want = _on_arrays(cube, lo, hi, True, None, 1e-13)[0]
    assert roots.tobytes() == want == _on_floats(cube, lo, hi, True, None, 1e-13)[0]


def test_f_may_return_one_number_for_all_problems():
    c = np.linspace(-3.0, 3.0, 5)
    _same_on_both_executors(lambda x, i: (2.0 * x - c[i], 2.0), np.full(5, -4.0), np.full(5, 4.0), True)


def _fujiwara(c) -> float:
    """2 max_j |c_j / c_d|^(1/(d - j)): every root of sum c_k t^k lies within it."""
    d = len(c) - 1
    return 2.0 * max([abs(c[j] / c[d]) ** (1.0 / (d - j)) for j in range(d) if c[j]], default=1.0)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(lower=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=1, max_size=12),
       lead=st.floats(0.01, 2.0).flatmap(lambda v: st.sampled_from((v, -v))),
       starts=st.sampled_from([1, 2, 5, 32, 33, 40]).flatmap(
           lambda n: st.lists(st.one_of(st.just(math.nan), st.floats(0.0, 1.0)), min_size=n, max_size=n)),
       on_arrays=st.booleans())
def test_a_polynomial_keeps_the_bits_of_its_callable_on_either_executor(lower, lead, starts, on_arrays):
    # degrees 1 to 12, up to 40 problems: the pieces of p between the Fujiwara bound and its critical points,
    # again and again from other starts (NaN: the midpoint).  The callable steps on arrays; (p, p') on arrays
    # alone with _FLOAT_MAX 0, on floats from the start with _FLOAT_MAX inf, and with the module's _FLOAT_MAX on
    # floats from the start up to 32 problems and past it on arrays until at most 32 run
    p = (*lower, lead)
    dp = tuple(k * ck for k, ck in enumerate(p))[1:]
    r = _fujiwara(p)
    crit = sorted(t.real for t in np.roots(dp[::-1]) if abs(t.imag) < 1e-9 and abs(t.real) < r) if len(dp) > 1 else []
    ends = [-r, *crit, r]
    pieces = [(a, b) for a, b in zip(ends, ends[1:]) if a < b]
    crossed = [(a, b) for a, b in pieces if quadrature.horner(p, a) * quadrature.horner(p, b) < 0.0]
    pieces = crossed or pieces
    lo, hi = (list(side) for side in zip(*(pieces[k % len(pieces)] for k in range(len(starts)))))
    inc = [quadrature.horner(p, b) > quadrature.horner(p, a) for a, b in zip(lo, hi)]
    x0 = [u if math.isnan(u) else a + u * (b - a) for u, a, b in zip(starts, lo, hi)]
    if on_arrays:
        lo, hi, inc, x0 = np.array(lo), np.array(hi), np.array(inc), np.array(x0)

    def outcome(f, float_max=quadrature._FLOAT_MAX):
        """(roots or the DomainError's message, the step at which each problem reached the float loop)"""
        handed, poly_root = [], quadrature._poly_root
        with mock.patch.object(quadrature, "_FLOAT_MAX", float_max), \
                mock.patch.object(quadrature, "_poly_root", lambda *a: handed.append(a[2]) or poly_root(*a)):
            try:
                return quadrature.solve_monotone(f, lo, hi, inc, x0, xtol=1e-13).tobytes(), handed
            except DomainError as exc:
                return str(exc), handed

    n = len(starts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want, handed = outcome(lambda x, i: (quadrature.horner(p, x), quadrature.horner(dp, x)))
        assert isinstance(want, bytes) and not handed
        for float_max in (0, quadrature._FLOAT_MAX, math.inf):
            got, handed = outcome((p, dp), float_max)
            assert got == want, float_max
            if float_max == 0:  # arrays alone
                assert not handed
            elif n <= float_max:  # floats from the start
                assert handed == [0] * n
            else:  # arrays, then floats for the last few, unless all finish at one step
                assert not handed or (len(set(handed)) == 1 and handed[0] > 0 and len(handed) <= float_max)


# ---------------------------------------------------------------------------
# refusals, and silence, on either executor


@pytest.mark.parametrize("float_max", [0, quadrature._FLOAT_MAX, math.inf])
def test_refusals_and_silence_on_either_executor(float_max):
    # each case through a callable, which steps on arrays whatever _FLOAT_MAX is, and through a polynomial
    # (p, p'), which steps on arrays with _FLOAT_MAX 0 and on floats from the start otherwise
    def never(*args):
        raise AssertionError("f called")

    steps, float_step = [], quadrature._float_step

    def both(f, p, lo, hi, x0=None, xtol=1e-13):
        """The roots, or the DomainError's message, of the callable f and of the polynomial p."""
        out = []
        for f_or_p in (f, p):
            steps.clear()
            try:
                out.append(quadrature.solve_monotone(f_or_p, lo, hi, True, x0, xtol=xtol)[0])
            except DomainError as exc:
                out.append(str(exc))
            assert bool(steps) == (f_or_p is p and float_max > 0)  # the run reached the executor it names
        return out

    with mock.patch.object(quadrature, "_FLOAT_MAX", float_max), warnings.catch_warnings(), \
            mock.patch.object(quadrature, "_float_step", lambda *a: steps.append(a[0]) or float_step(*a)):
        warnings.simplefilter("error")
        with mock.patch.object(quadrature, "horner", never):  # no problem, or a refused one: nothing evaluated
            for f in (never, ((0.0, 1.0), (1.0,))):
                assert quadrature.solve_monotone(f, [], [], True, xtol=1e-13).shape == (0,)
                for bad in (math.inf, -math.inf, math.nan):
                    with pytest.raises(DomainError, match="finite brackets"):
                        quadrature.solve_monotone(f, [0.0, 0.0], [1.0, bad], True, xtol=1e-13)
            assert not steps
        # a tolerance no step can meet: the exact Newton step 0 never stops a problem
        assert both(lambda x, i: (x - 0.3, np.ones_like(x)), ((-0.3, 1.0), (1.0,)), [0.0], [1.0], xtol=-1.0) == [
            "bracketed solve did not converge in 400 steps"] * 2
        # a slope of exactly 0, everywhere or where a multiple root starts, is a bisection step
        for root in both(lambda x, i: (x - 0.3, 0.0), ((-0.3, 1.0), (0.0,)), [0.0], [1.0]):
            assert abs(root - 0.3) <= 1e-16
        for root in both(lambda x, i: (x**3 - 8.0, 3.0 * x * x), ((-8.0, 0.0, 0.0, 1.0), (0.0, 0.0, 3.0)), [-1.0],
                         [5.0], [0.0]):
            assert root == pytest.approx(2.0, rel=1e-14)
        # f overflows to inf past 1e62 on a bracket as wide as the doubles: (x - 1)^5, and x^5 + x - 2
        for root in both(lambda x, i: ((x - 1.0)**5, 5.0 * (x - 1.0)**4),
                         ((-2.0, 1.0, 0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0, 5.0)), [-1e300], [1e300]):
            assert root == pytest.approx(1.0, abs=1e-12)
        # bisection alone on a bracket wider than the largest double, whose width overflows to inf
        for root in both(lambda x, i: (x - 1e-300, math.nan), ((-1e-300, 1.0), (math.nan,)), [-1.7e308], [1.7e308],
                         xtol=0.0):
            assert abs(root - 1e-300) <= math.ulp(1e-300)


@pytest.mark.parametrize("r", [0.0, 1e-300, 0.3])
def test_bisection_alone_closes_a_bracket_around_a_root_near_0(r):
    calls = []

    def f(x, i):
        calls.append(x)
        return x - r, np.full(x.shape, math.nan)  # every Newton step refused

    # bisection reaches r itself, where f is exactly 0, and stops there on arrays and by the float rule
    root = quadrature.solve_monotone(f, r - 1.0, r + 10.0, True, xtol=0.0)
    assert root[0] == r
    assert len(calls) <= 66  # the start, at most 64 halvings and one call at the last double
    assert _on_floats(f, r - 1.0, r + 10.0, True, None, 0.0)[0] == root.tobytes()
    poly = quadrature.solve_monotone(((-r, 1.0), (math.nan,)), [r - 1.0], [r + 10.0], True, xtol=0.0)
    assert poly.tobytes() == root.tobytes()
    batch = quadrature.solve_monotone(f, [r - 1.0] * 40, [r + 10.0] * 40, [True] * 40, xtol=0.0)
    assert batch.tobytes() == np.repeat(root, 40).tobytes()


# ---------------------------------------------------------------------------
# panels


def test_panel_integrals_keep_their_bits_whatever_the_chunk(monkeypatch):
    # each interval is computed on its own, so the chunk only bounds the temporaries
    rng = np.random.default_rng(5)
    lo = rng.uniform(-30.0, 30.0, 5000)
    hi = lo + rng.choice([1e-12, 1e-3, 0.5, 7.0], 5000) * rng.uniform(0.0, 1.0, 5000)
    f = lambda x: np.exp(-0.5 * x * x) * np.cos(3.0 * x) + 1e-3 * x ** 3
    law = pearson.build_law(pearson.PearsonCoefficients(0.25, 0.0, 0.25))  # case 5 reads its tails by panels
    xs = np.linspace(-40.0, 40.0, 5000)
    got = {}
    for chunk in (7, 512, 2048):
        monkeypatch.setattr(quadrature, "_PANEL_CHUNK", chunk)
        got[chunk] = quadrature.panel_integrals(f, lo, hi).tobytes(), pearson.tail(law, xs).tobytes()
    assert got[7] == got[512] == got[2048]


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
