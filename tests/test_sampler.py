"""The sampler's inverse CDF (``pearson.quantile_grid``) against independent oracles.

Cases 2-4 are compared with scipy's closed-form inverses on the smaller side:
near a density pole the double-precision x limits any sampler, so the tail at
the sample is compared with the tail at the closed-form x.  Case 5 has no
closed form and is compared with the exact tail at the sample.
"""

import functools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special as sp

from steintail import pearson, rng
from steintail.errors import InvalidProbabilityError, InverseTableError
from steintail.pearson import CaseTag, PearsonCoefficients, build_law
from steintail.verify import Hypothesis, ScenarioSpec, run_scenario

from conftest import CANONICAL_COEFFS

U_MIN = 2.0**-53
TOL = 1e-10

ACCEPTANCE_LAWS = [c for name, c in CANONICAL_COEFFS.items() if name != "normal"] + [
    PearsonCoefficients(0.0, -2.0, 2.0),      # mirrored Gamma, pole (r = 1/2)
    PearsonCoefficients(0.5, -1.0, 0.5),      # mirrored inverse-gamma type
    PearsonCoefficients(0.0, 1.0, 0.1),       # Gamma, pole (r = 0.1)
    PearsonCoefficients(-0.5, 0.3, 0.25),     # Beta, pole at a (r = 0.61)
    PearsonCoefficients(0.25, 0.3, 0.25),     # case 5, skewed
    PearsonCoefficients(0.45, 0.0, 0.25),     # case 5, heavy tails
]


def _probe(n: int) -> np.ndarray:
    """Uniforms from 2^-53 to 1 - 2^-53, evenly spaced in logit, both ends included."""
    t_max = math.log(2.0**53 - 1.0)
    return np.clip(sp.expit(np.linspace(-t_max, t_max, n)), U_MIN, 1.0 - U_MIN)


def _closed_form(law, u: np.ndarray) -> np.ndarray:
    """The exact inverse of the tail at u, from the smaller side's closed form."""
    upper = u <= 0.5
    p = np.where(upper, u, 1.0 - u)  # 1 - u is exact for u >= 1/2
    canon_upper = upper != law.mirrored  # the tail of X = -Z is the cdf of Z
    r, s, mu = law.r, law.s, law.mu
    if law.case is CaseTag.GAMMA:
        z = s * np.where(canon_upper, sp.gammainccinv(r, p), sp.gammaincinv(r, p)) - mu
    elif law.case is CaseTag.INVERSE_GAMMA_TYPE:
        z = s / np.where(canon_upper, sp.gammaincinv(r - 1.0, p), sp.gammainccinv(r - 1.0, p)) - mu
    else:
        # the positions from a and from b, each from its own inverse; x from the nearer end
        a, b = law.support_a, law.support_b
        v = np.where(canon_upper, sp.betainccinv(r, s, p), sp.betaincinv(r, s, p))
        w = np.where(canon_upper, sp.betaincinv(s, r, p), sp.betainccinv(s, r, p))
        z = np.where(v <= w, a + (b - a) * v, b - (b - a) * w)
    return -z if law.mirrored else z


def _smaller_side(law, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The tail at x where u <= 1/2, the cdf elsewhere."""
    upper = u <= 0.5
    if law.case is CaseTag.BETA:
        # from the nearer end of the interval, where the argument keeps its digits
        a, b = law.support_a, law.support_b
        v, w = (x - a) / (b - a), (b - x) / (b - a)
        near_a = v <= w
        tail = np.where(near_a, sp.betaincc(law.r, law.s, v), sp.betainc(law.s, law.r, w))
        cdf = np.where(near_a, sp.betainc(law.r, law.s, v), sp.betaincc(law.s, law.r, w))
        return np.where(upper, tail, cdf)
    return np.where(upper, pearson.tail(law, x), pearson.cdf(law, x))


def _errors(law, u: np.ndarray):
    """(samples, absolute error, error relative to the smaller side's probability)."""
    x = pearson.quantile_grid(law, u)
    p = np.where(u <= 0.5, u, 1.0 - u)
    if law.case is CaseTag.NO_REAL_ROOTS:
        err = np.abs(_smaller_side(law, x, u) - p)
    else:
        err = np.abs(_smaller_side(law, x, u) - _smaller_side(law, _closed_form(law, u), u))
    return x, err, err / p


@pytest.mark.parametrize("coeffs", ACCEPTANCE_LAWS, ids=str)
def test_inverse_accuracy_over_the_whole_uniform_range(coeffs):
    law = build_law(coeffs)
    u = _probe(4001)
    x, err, _ = _errors(law, u)
    assert np.all(np.isfinite(x))
    assert np.all(np.diff(x) <= 0.0)
    assert err.max() <= TOL, (coeffs, u[np.argmax(err)])


@pytest.mark.parametrize("coeffs", list(CANONICAL_COEFFS.values()) + ACCEPTANCE_LAWS[4:], ids=str)
def test_inverse_finite_and_unclipped_at_extreme_probabilities(coeffs):
    # every uniform the stream can emit, with no clip: the deepest probes are
    # resolved to a relative error far below the gaps between them
    law = build_law(coeffs)
    u = np.concatenate([[U_MIN], np.logspace(-15, -8, 50), [1.0 - 1e-9, 1.0 - U_MIN]])
    x = pearson.quantile_grid(law, u)
    assert np.all(np.isfinite(x))
    if law.case is CaseTag.NORMAL:
        np.testing.assert_allclose(sp.erfc(x / math.sqrt(2.0)) / 2.0, u, rtol=1e-12)
        return
    _, _, rel = _errors(law, u)
    assert rel.max() <= 1e-9, (coeffs, u[np.argmax(rel)])


def test_inverse_rejects_probabilities_outside_the_stream(gamma_law, case5_law):
    for law in (gamma_law, case5_law):
        for bad in (0.0, 1.0, 1e-17, -0.5, 2.0, math.nan):
            with pytest.raises(InvalidProbabilityError):
                pearson.quantile_grid(law, np.array([0.5, bad]))


def test_inverse_table_raises_where_it_misses_its_bound():
    # a Beta law with both shapes 0.025: two density poles and almost no mass
    # between them; the cubic misses 1e-10 in logit there, and says so
    law = build_law(PearsonCoefficients(-20.0, 0.0, 5.0))
    assert law.r == pytest.approx(0.025) and law.s == pytest.approx(0.025)
    with pytest.raises(InverseTableError, match="misses its bound"):
        pearson.sample(law, 10, seed=1)


# ---------------------------------------------------------------------------
# the table is built piece by piece, as points reach it


PIECES = pearson._TABLE_NODES - 1
ON_DEMAND_LAWS = [c for name, c in CANONICAL_COEFFS.items() if name != "normal"] + [
    PearsonCoefficients(0.0, -2.0, 2.0),  # mirrored Gamma
]


@functools.lru_cache(maxsize=None)
def _full_table(coeffs):
    table = pearson._InverseTable(build_law(coeffs))
    table.build(np.arange(PIECES))
    assert table.full
    return table


@settings(max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(coeffs=st.sampled_from(ON_DEMAND_LAWS),
       batches=st.lists(st.lists(st.one_of(st.floats(U_MIN, 1.0 - U_MIN), st.floats(-36.0, 36.0).map(sp.expit)),
                                 min_size=1, max_size=20), min_size=1, max_size=6))
def test_partial_fills_in_any_order_equal_the_full_fill(coeffs, batches):
    # batches of points fill a fresh table in their own order; every value and every built piece
    # has the bits of the table built whole
    law, full = build_law(coeffs), _full_table(coeffs)
    table = pearson._InverseTable(law)
    for batch in batches:
        t = pearson._logit(np.clip(batch, U_MIN, 1.0 - U_MIN))
        if law.mirrored:
            t = -t
        got, want = table.at(t.copy()), full.at(t.copy())
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert 0 < table.built.sum() <= sum(map(len, batches))
    built = table.built
    np.testing.assert_array_equal(table.coef[:, built].view(np.int64), full.coef[:, built].view(np.int64))


# the laws and z grids of the benchmark's pearson_sandwich workload
SANDWICH_CASES = [
    (PearsonCoefficients(0.0, 2.0, 2.0), (1.0, 2.0, 3.0, 5.0, 8.0)),
    (PearsonCoefficients(-0.25, 0.0, 0.0625), (0.05, 0.1, 0.2, 0.3, 0.4)),
    (PearsonCoefficients(0.25, 1.0, 1.0), (1.0, 2.0, 3.0, 5.0, 8.0)),
    (PearsonCoefficients(0.25, 0.0, 0.25), (1.0, 2.0, 3.0, 5.0, 8.0)),
]


@pytest.mark.parametrize("seed", [20240527, *range(1, 10)])
def test_a_sandwich_scenario_builds_few_pieces(seed):
    # a cost guard by count: a 10^6-draw equality sandwich counts its draws on the ends P[X > z] and
    # maps none, so it builds no piece (8,192 when the table was built whole, then 1-2 per threshold)
    for coeffs, zs in SANDWICH_CASES:
        law = build_law(coeffs)
        pearson._inverse_table.cache_clear()
        spec = ScenarioSpec(x_model=law, reference=coeffs, hypothesis=Hypothesis.SANDWICH, z_grid=zs,
                            n_samples=10**6, seed=seed)
        assert run_scenario(spec).all_passed
        assert pearson._inverse_table(law).built.sum() == 0, coeffs


def test_a_table_that_misses_its_bound_in_the_middle_serves_its_tails():
    # r = s = 0.025: the pieces that miss 1e-10 all sit around the middle; a call that reaches
    # one raises, while a call in the tails is served and meets the contract
    law = build_law(PearsonCoefficients(-20.0, 0.0, 5.0))
    _, err, monotone = pearson._build_pieces(law, np.arange(PIECES))
    bad = np.flatnonzero(~((err <= pearson._TABLE_TOL) & monotone))
    assert bad.size == 44
    piece_ends = pearson._H * bad - pearson._T_MAX, pearson._H * (bad + 1) - pearson._T_MAX
    assert -0.21 <= piece_ends[0].min() and piece_ends[1].max() <= 0.21
    pearson._inverse_table.cache_clear()
    for p in (0.49, 0.51):
        with pytest.raises(InverseTableError, match="misses its bound"):
            pearson.quantile_grid(law, np.array([1e-3, p]))
    p = 1e-3
    assert pearson.quantile_grid(law, p) == pytest.approx(law.support_b, abs=1e-15)
    # x rounds to b there, so the contract is checked on the table's y, the logit of the position
    y = float(pearson._inverse_table(law).at(pearson._logit(np.array([p])))[0])
    with mp.workdps(40):
        tail = mp.betainc(law.s, law.r, 0, 1 / (1 + mp.exp(mp.mpf(y))), regularized=True)
        assert abs(float(mp.log(tail / (1 - tail)) - mp.log(p / (1 - p)))) <= TOL


def test_concurrent_scenarios_read_one_table():
    # four callers' threads running one scenario at once each get the report of one run; the scenario
    # counts on P[X > z] and reads no piece of the table, which starts empty
    law = build_law(PearsonCoefficients(0.25, 0.0, 0.25))
    spec = ScenarioSpec(x_model=law, reference=law.coeffs, hypothesis=Hypothesis.SANDWICH,
                        z_grid=(1.0, 2.0, 3.0, 5.0, 8.0), n_samples=4 * rng.BLOCK_SIZE + 11, seed=9)
    pearson._inverse_table.cache_clear()
    serial = run_scenario(spec)
    pearson._inverse_table.cache_clear()
    start = threading.Barrier(4)

    def run(_):
        start.wait(timeout=30)
        return run_scenario(spec)

    with ThreadPoolExecutor(max_workers=4) as ex:
        reports = list(ex.map(run, range(4), timeout=120))
    assert all(r.to_csv() == serial.to_csv() and r.to_json() == serial.to_json() for r in reports)


def test_concurrent_fills_give_the_serial_values(monkeypatch):
    # four threads map overlapping points of one empty table, switching often; each gets the
    # values that one thread gets, and every piece is built once, with the bits of the whole table
    law = build_law(PearsonCoefficients(0.25, 0.3, 0.25))
    p = _probe(8000)
    pearson._inverse_table.cache_clear()
    want = pearson.quantile_grid(law, p)
    pearson._inverse_table.cache_clear()
    built, build_pieces = [], pearson._build_pieces
    monkeypatch.setattr(pearson, "_build_pieces", lambda law, ks: built.append(ks.size) or build_pieces(law, ks))
    start = threading.Barrier(4)

    def run(i):
        start.wait(timeout=30)
        return pearson.quantile_grid(law, p[1000 * i:1000 * i + 5000])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:
            got = [f.result(timeout=120) for f in [ex.submit(run, i) for i in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    for i, x in enumerate(got):
        np.testing.assert_array_equal(x, want[1000 * i:1000 * i + 5000])
    table = pearson._inverse_table(law)
    assert sum(built) == table.built.sum() and len(built) > 1
    np.testing.assert_array_equal(table.coef[:, table.built], _full_table(law.coeffs).coef[:, table.built])


def test_inverse_keeps_shape_and_matches_blocked_sampling(beta_law):
    u = _probe(12).reshape(3, 4)
    assert pearson.quantile_grid(beta_law, u).shape == (3, 4)
    assert pearson.quantile_grid(beta_law, np.array([], dtype=float)).shape == (0,)
    # the whole stream at once equals the block-by-block draws
    n = rng.BLOCK_SIZE + 17
    whole = pearson.quantile_grid(beta_law, rng.uniform_stream(5, n))
    np.testing.assert_array_equal(pearson.sample(beta_law, n, seed=5), whole)


# ---------------------------------------------------------------------------
# the table's nodes: case 5 from Newton steps on the smaller side, Beta from one inverse


CASE5_NODE_LAWS = [c for c in ACCEPTANCE_LAWS if build_law(c).case is CaseTag.NO_REAL_ROOTS] + [
    PearsonCoefficients(0.25, 100.0, 10000.01),  # skew s = 4000
    PearsonCoefficients(1e-9, 0.0, 1.0),         # r = 5e8, nearly normal
    PearsonCoefficients(0.25, -0.3, 0.25),       # the skewed law reflected
]


@pytest.mark.parametrize("coeffs", CASE5_NODE_LAWS, ids=str)
def test_case5_nodes_meet_the_newton_tolerance_on_the_smaller_side(coeffs):
    # the nodes and midpoints the table is built from, each checked on the exact
    # tail (t <= 0) or cdf (t > 0): the side at or below 1/2, whose logit keeps its digits
    law = build_law(coeffs)
    t = np.linspace(-pearson._T_MAX, pearson._T_MAX, 2 * pearson._TABLE_NODES - 1)
    z = pearson._case5_nodes(law, t)
    upper = t <= 0.0
    v = np.where(upper, pearson.tail(law, z), pearson.cdf(law, z))
    logit = np.log(v) - np.log1p(-v)
    err = np.abs(np.where(upper, logit, -logit) - t)
    assert err.max() <= pearson._NEWTON_TOL, (coeffs, t[np.argmax(err)], err.max())


@pytest.mark.parametrize("coeffs", CASE5_NODE_LAWS, ids=str)
def test_case5_nodes_integrate_few_points_per_node(coeffs, monkeypatch):
    # a cost guard by count: each solver step integrates only the nodes still running,
    # each on its smaller side; at most 3.25 points per node and midpoint on average
    law = build_law(coeffs)
    points, side = [], pearson._case5_xi_side

    def counted(law, xi, upper):
        points.append(xi.size)
        return side(law, xi, upper)

    monkeypatch.setattr(pearson, "_case5_xi_side", counted)
    t = np.linspace(-pearson._T_MAX, pearson._T_MAX, 2 * pearson._TABLE_NODES - 1)
    pearson._case5_nodes(law, t)
    assert sum(points) / t.size <= 3.25, sum(points) / t.size


BETA_SPLIT_LAWS = [
    PearsonCoefficients(-0.25, 0.0, 0.0625),   # r = s = 2
    PearsonCoefficients(-1.07, 1.152, 0.0302),  # r = 0.021, s = 0.91
    PearsonCoefficients(-1.0 / 0.15, -0.01 / 0.15**2, 0.08 * 0.07 / 0.15**3),  # r = 0.08, s = 0.07
]


@pytest.mark.parametrize("coeffs", BETA_SPLIT_LAWS, ids=str)
def test_beta_nodes_against_mpmath_across_the_inverse_split(coeffs):
    # logit x for I_x(a, b) = p comes from the inverse of x below I_(1/2)(a, b) and
    # from that of 1 - x above it; both sides against a 40-digit root, in both shape orders
    law = build_law(coeffs)
    for a, b in ((law.r, law.s), (law.s, law.r)):
        half = float(sp.betainc(a, b, 0.5))
        band = half * (1.0 + np.linspace(-1e-3, 1e-3, 21) * min(1.0, (1.0 - half) / half))
        got = pearson._beta_logit_inverse(band, a, b)
        with mp.workdps(40):
            f = lambda p: lambda y: mp.betainc(a, b, 0, 1 / (1 + mp.exp(-y)), regularized=True) - p
            want = [float(mp.findroot(f(mp.mpf(p)), mp.mpf(g))) for p, g in zip(band, got)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=f"{coeffs} shapes {a}, {b}")
        # steps of 1e-11 p across the split move x by far more than the inverses' few ulps
        logits = pearson._beta_logit_inverse(half * (1.0 + 1e-11 * np.arange(-50, 51)), a, b)
        assert np.all(np.diff(logits) > 0.0), (coeffs, a, b)


# ---------------------------------------------------------------------------
# property tests over random admissible triples, by case


def _gamma_triples():
    # r = gamma / beta^2 spans density poles (r < 1) and near-normal shapes
    return st.tuples(st.floats(0.01, 50.0), st.floats(0.1, 10.0), st.booleans()).map(
        lambda a: PearsonCoefficients(0.0, a[1] if a[2] else -a[1], a[0] * a[1] ** 2))


def _beta_triples():
    # shapes r, s (poles below 1) and width w: alpha = -1/(r + s), a = -r w/(r + s),
    # b = s w/(r + s).  Below shapes of about 0.05 the bulk of a skewed law sits
    # within a few ulps of its end, where no double x can resolve it; with
    # r + s below about 0.12 the table raises (see the test above)
    return st.tuples(st.floats(0.08, 20.0), st.floats(0.08, 20.0), st.floats(0.1, 10.0)).map(
        lambda a: PearsonCoefficients(-1.0 / (a[0] + a[1]), (a[1] - a[0]) * a[2] / (a[0] + a[1]) ** 2,
                                      a[0] * a[1] * a[2] ** 2 / (a[0] + a[1]) ** 3))


def _invgamma_triples():
    return st.tuples(st.floats(0.02, 0.95), st.floats(0.1, 5.0), st.booleans()).map(
        lambda a: PearsonCoefficients(a[0], a[1] if a[2] else -a[1], a[1] ** 2 / (4.0 * a[0])))


def _case5_triples():
    return st.tuples(st.floats(0.02, 0.95), st.floats(-2.0, 2.0), st.floats(0.05, 4.0)).map(
        lambda a: PearsonCoefficients(a[0], a[1], a[1] ** 2 / (4.0 * a[0]) + a[2]))


def _check_property(coeffs):
    law = build_law(coeffs)
    u = _probe(401)
    x, err, _ = _errors(law, u)
    assert np.all(np.isfinite(x)), coeffs
    assert np.all(np.diff(x) <= 0.0), coeffs
    assert err.max() <= TOL, (coeffs, u[np.argmax(err)], err.max())


_PROPERTY = settings(max_examples=15, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


@_PROPERTY
@given(_gamma_triples())
def test_property_gamma(coeffs):
    _check_property(coeffs)


@_PROPERTY
@given(_beta_triples())
def test_property_beta(coeffs):
    _check_property(coeffs)


@_PROPERTY
@given(_invgamma_triples())
def test_property_inverse_gamma_type(coeffs):
    _check_property(coeffs)


@settings(max_examples=8, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(_case5_triples())
def test_property_case5(coeffs):
    _check_property(coeffs)
