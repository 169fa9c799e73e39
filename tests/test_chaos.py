import hashlib
import math
import random
import warnings
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from conftest import CANONICAL_COEFFS, WIDER_COEFFS, normal_stream
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e as herme
from numpy.polynomial import polynomial as npoly
from numpy.polynomial import polyutils as pu
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad
from scipy.optimize import brentq

from steintail import chaos, pearson, quadrature
from steintail.chaos import (
    HermiteSeries,
    dominance_margin,
    expect_polynomial,
    g_from_conditional,
    g_function,
    hermite_eval,
    ibp_check,
    law_of_polynomial,
    malliavin_G,
    margin_extrema,
)
from steintail.errors import DomainError, OutsideSupportError
from steintail.pearson import PearsonCoefficients

H1 = HermiteSeries((0.0, 1.0))
H2 = HermiteSeries((0.0, 0.0, 1.0))
H3 = HermiteSeries((0.0, 0.0, 0.0, 1.0))

PHI = lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


def _law_quantile(law, p):
    """Oracle x with P[X > x] = p: Brent on a bracket doubled out from [-1, 1]."""
    lo, hi = -1.0, 1.0
    while law.tail(lo) < p:
        lo *= 2.0
    while law.tail(hi) > p:
        hi *= 2.0
    return brentq(lambda x: law.tail(x) - p, lo, hi, xtol=1e-13)


# ---------------------------------------------------------------------------
# Hermite basics


def test_hermite_eval_values():
    xs = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(hermite_eval(2, xs), xs**2 - 1, rtol=1e-14)
    assert hermite_eval(3, 2.0) == pytest.approx(2.0)  # 8 - 6
    assert hermite_eval(0, 1.7) == 1.0


def test_hermite_eval_guard():
    with pytest.raises(DomainError):
        hermite_eval(65, 0.0)
    with pytest.raises(DomainError):
        hermite_eval(-1, 0.0)


def test_hermite_degree_takes_integer_values_and_refuses_the_rest():
    xs = np.linspace(-2.0, 2.0, 5)
    np.testing.assert_array_equal(hermite_eval(2.0, xs), hermite_eval(2, xs))
    assert hermite_eval(np.int64(3), 2.0) == hermite_eval(3, 2.0)
    for bad in (2.5, math.nan, math.inf, "2"):
        with pytest.raises(DomainError, match="must be an integer"):
            hermite_eval(bad, 0.5)


def test_hermite_orthogonality_by_quadrature():
    from numpy.polynomial.hermite_e import hermegauss

    x, w = hermegauss(12)
    val = float(np.dot(w, hermite_eval(3, x) * hermite_eval(4, x)) / math.sqrt(2 * math.pi))
    assert abs(val) < 1e-10
    norm = float(np.dot(w, hermite_eval(4, x) ** 2) / math.sqrt(2 * math.pi))
    assert norm == pytest.approx(24.0, rel=1e-12)


def test_series_validation():
    with pytest.raises(DomainError):
        HermiteSeries((1.0, 1.0))   # not centered
    with pytest.raises(DomainError):
        HermiteSeries((0.0, 1.0, 0.0))  # zero leading coefficient
    with pytest.raises(DomainError):
        HermiteSeries((0.0,))


def test_series_variance_isometry():
    s = HermiteSeries((0.0, 1.5, -0.5, 2.0))
    assert s.variance == pytest.approx(1.5**2 + 2 * 0.25 + 6 * 4.0)


# ---------------------------------------------------------------------------
# Malliavin G


def test_G_for_first_grades():
    assert malliavin_G(H1) == (1.0,)
    assert malliavin_G(H2) == (0.0, 0.0, 2.0)  # exactly 2 N^2
    g3 = malliavin_G(H3)
    # 3 (N^2 - 1)^2 = 3 - 6 N^2 + 3 N^4
    assert g3 == (3.0, 0.0, -6.0, 0.0, 3.0)


def test_G_and_X_keep_a_tiny_leading_coefficient():
    # X = H1 + c H3 = (1 - 3c) N + c N^3 and, with u = N^2 - 1,
    # G = (1 + 3c u)(1 + c u) = 1 + 4c u + 3c^2 u^2; each coefficient is rounded once
    c = Fraction(1e-20)
    x = HermiteSeries((0.0, 1.0, 0.0, 1e-20))
    assert x.to_polynomial() == (0.0, float(1 - 3 * c), 0.0, 1e-20)
    want = (1 - 4 * c + 3 * c * c, 0, 4 * c - 6 * c * c, 0, 3 * c * c)
    assert malliavin_G(x) == tuple(float(v) for v in want)


def test_law_keeps_a_subnormal_leading_coefficient():
    # X = H1 + 1e-310 H3 and X = H1 + 1e-300 H2: the ratios c_1 / c_d are no doubles, so the
    # critical points come from rescaled coefficients and the root bound is taken in logs;
    # where phi is not 0, X is N to within 1e-250
    for series, crit in [((0.0, 1.0, 0.0, 1e-310), ()), ((0.0, 1.0, 1e-300), (-5e299,))]:
        x = HermiteSeries(series)
        law = law_of_polynomial(x)
        assert law.crit_points == pytest.approx(crit, rel=1e-14)
        for z in (-2.0, 1.0, 5.0):
            assert law.tail(z) == pytest.approx(0.5 * math.erfc(z / math.sqrt(2.0)), rel=1e-14), (series, z)
            assert law.density(z) == pytest.approx(PHI(z), rel=1e-14), (series, z)
            assert g_function(x, z) == pytest.approx(1.0, rel=1e-12), (series, z)
            assert g_from_conditional(x, z) == pytest.approx(1.0, rel=1e-14), (series, z)


def test_non_finite_series_coefficients_are_rejected():
    # before, (0, nan) and (0, 1, inf) built and law_of_polynomial raised ValueError and OverflowError
    for c in [(0.0, math.nan), (0.0, 1.0, math.inf), (0.0, -math.inf, 1.0)]:
        with pytest.raises(DomainError, match="finite"):
            HermiteSeries(c)


def test_nan_level_raises():
    # before, tail(nan) read 0.99999994 and E[G | X = nan] 33.67
    x = HermiteSeries((0.0, 1.0, 0.0, 0.1))
    law = law_of_polynomial(x)
    for f in (law.level, law.tail, law.density, law.partial_moments,
              lambda v: g_function(x, v), lambda v: g_from_conditional(x, v)):
        with pytest.raises(DomainError):
            f(math.nan)


@pytest.mark.parametrize("coeffs", [(0.0, 1.0, 0.0, 0.1), (0.0, 1.0, 0.0, -0.1), (0.0, 0.0, 1.0)],
                         ids=["whole-line", "whole-line-reversed", "half-line"])
def test_infinite_levels_read_the_limits(coeffs):
    # before, every evaluator raised "bracketed solve needs finite brackets" at +-inf on the whole line
    x = HermiteSeries(coeffs)
    law = law_of_polynomial(x)
    assert (law.tail(-math.inf), law.tail(math.inf)) == (1.0, 0.0)
    assert (law.density(-math.inf), law.density(math.inf)) == (0.0, 0.0)
    p, m1, m2 = law.partial_moments(-math.inf)
    assert (p, m1) == (1.0, 0.0) and m2 == pytest.approx(x.variance, rel=1e-15)
    assert law.partial_moments(math.inf) == (0.0, 0.0, 0.0)
    for end in (-math.inf, math.inf):
        with pytest.raises(OutsideSupportError):
            g_from_conditional(x, end)
        with pytest.raises(OutsideSupportError):
            g_function(x, end)


def test_bracketed_solve_needs_finite_brackets():
    with pytest.raises(DomainError):
        quadrature.solve_monotone(lambda n, i: (n, np.ones_like(n)), [-math.inf], [1.0], True, xtol=1e-13)


def test_G_degree_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        deg = rng.integers(1, 9)
        c = np.concatenate([[0.0], rng.normal(size=deg)])
        if c[-1] == 0.0:
            c[-1] = 1.0
        s = HermiteSeries(tuple(c))
        g = malliavin_G(s)
        if s.degree >= 1:
            assert len(g) - 1 == 2 * (s.degree - 1)


def test_expected_G_equals_variance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        c = np.concatenate([[0.0], rng.normal(size=deg)])
        if c[-1] == 0.0:
            c[-1] = 0.7
        s = HermiteSeries(tuple(c))
        eg = expect_polynomial(malliavin_G(s))
        assert abs(eg - s.variance) < 1e-10 * max(1.0, s.variance)


# ---------------------------------------------------------------------------
# exact law


def test_h2_law_matches_pearson_gamma(gamma_law):
    law = law_of_polynomial(H2)
    assert law.support_a == pytest.approx(-1.0)
    assert law.support_b == math.inf
    zs = np.linspace(-0.999, 60.0, 300)
    for z in zs:
        assert abs(law.tail(float(z)) - pearson.tail(gamma_law, float(z))) < 1e-10
    for z in np.linspace(-0.9, 8.0, 50):
        assert law.density(float(z)) == pytest.approx(pearson.density(gamma_law, float(z)), rel=1e-9)


def test_h1_law_is_standard_normal():
    law = law_of_polynomial(H1)
    assert law.tail(0.0) == pytest.approx(0.5)
    assert law.density(0.3) == pytest.approx(PHI(0.3), rel=1e-13)


def test_odd_degree_negative_leading_law_covers_the_line():
    # X(n) -> +inf as n -> -inf: the support is the whole line, and -H1 is a standard normal
    for series in (HermiteSeries((0.0, -1.0)), HermiteSeries((0.0, 1.0, 0.0, -0.1))):
        law = law_of_polynomial(series)
        assert (law.support_a, law.support_b) == (-math.inf, math.inf)
        assert law.tail(2.0) == pytest.approx(law.partial_moments(2.0)[0], rel=1e-14)
    want = 0.5 * math.erfc(0.5 / math.sqrt(2.0))
    assert law_of_polynomial(HermiteSeries((0.0, -1.0))).tail(0.5) == pytest.approx(want, rel=1e-13)


def test_h3_law_symmetry():
    law = law_of_polynomial(H3)
    assert law.tail(0.0) == pytest.approx(0.5, abs=1e-12)
    for z in [0.5, 2.0, 10.0]:
        assert law.tail(z) == pytest.approx(1.0 - law.tail(-z), abs=1e-12)


def test_law_density_integrates_to_one_and_centered():
    for series in (H2, H3, HermiteSeries((0.0, 0.5, 1.0, 0.25))):
        law = law_of_polynomial(series)
        crit_vals = sorted(polyval(t, law.poly) for t in law.crit_points)
        a = law.support_a if math.isfinite(law.support_a) else _law_quantile(law, 1 - 1e-13)
        b = law.support_b if math.isfinite(law.support_b) else _law_quantile(law, 1e-13)
        pts = [v for v in crit_vals if a < v < b]
        mass, _ = quad(law.density, a, b, points=pts, limit=400, epsabs=1e-11, epsrel=1e-9)
        mean, _ = quad(lambda x: x * law.density(x), a, b, points=pts, limit=400,
                       epsabs=1e-11, epsrel=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert abs(mean) < 1e-9


def test_a_crossing_where_x_prime_vanishes_has_an_infinite_density():
    # X = N^3 crosses the level 0 at n = 0, where X' = 0: the weight phi(0) / 0 is inf, as a double divides
    series = HermiteSeries((0.0, 3.0, 0.0, 1.0))
    law = law_of_polynomial(series)
    assert law.level(0.0)[0] == [(0.0, 0.0)]
    assert law.density(0.0) == math.inf and law.density(np.array([0.0, 1.0]))[0] == math.inf
    assert g_function(series, 0.0) == 0.0  # E[X; X > 0] / inf


def test_both_g_routes_read_the_limit_0_where_x_prime_vanishes_at_a_crossing():
    # the one weight at n = 0 is inf: E[G | X = 0] is the mean of G over the infinite-weight preimages,
    # G(0) = X'(0) A(0) = 0, as g_function's E[X; X > 0] / inf is
    series = HermiteSeries((0.0, 3.0, 0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (g_function, g_from_conditional):
            assert fn(series, 0.0) == 0.0 and type(fn(series, 0.0)) is float
            assert fn(series, np.array([0.0, 1.0])).tolist() == [0.0, fn(series, 1.0)]


@pytest.mark.parametrize("degree, level", [(2, 0.5), (3, 0.5), (7, 0.3), (8, 0.3), (12, 0.1), (20, 2.0), (40, 0.5)])
def test_preimage_weights_add_in_numpy_order(degree, level):
    # below 8 weights Python's sum adds as numpy's pairwise sum does; from 8 on numpy's order is kept
    series = HermiteSeries((0.0,) * degree + (1.0,))
    law = law_of_polynomial(series)
    pre, above = law.level(level)
    assert len(pre) == degree
    w = np.array([chaos._phi(n) / abs(d) for n, d in pre])
    g = [quadrature.horner(law.gpoly, n) for n, _ in pre]
    assert law.density(level) == float(np.sum(w))
    assert g_from_conditional(series, level) == float(np.dot(w, g) / np.sum(w))
    assert g_function(series, level) == chaos._gauss_integral(series.coeffs, above) / float(np.sum(w))


def test_law_sampling_matches_tail():
    law = law_of_polynomial(H2)
    xs = H2.evaluate(normal_stream(19, 200_000))
    for z in [-0.5, 0.0, 1.0, 3.0]:
        assert float(np.mean(xs > z)) == pytest.approx(law.tail(z), abs=5e-3)


# ---------------------------------------------------------------------------
# the kernel g of the exact law


def test_g_function_h2_linear():
    for x in [-0.5, 0.0, 1.0, 2.5]:
        assert g_function(H2, x) == pytest.approx(2.0 * x + 2.0, rel=1e-9)
        assert g_from_conditional(H2, x) == pytest.approx(2.0 * x + 2.0, rel=1e-9)


def test_g_function_h1_constant():
    for x in [-1.0, 0.4]:
        assert g_function(H1, x) == pytest.approx(1.0, rel=1e-12)


def test_g_function_h3_branch_oracle():
    # explicit preimages of 0 under H3: {-sqrt3, 0, sqrt3}
    s3 = math.sqrt(3.0)
    w_out, w_mid = PHI(s3) / 6.0, PHI(0.0) / 3.0
    expected = (2 * w_out * 12.0 + w_mid * 3.0) / (2 * w_out + w_mid)
    assert g_from_conditional(H3, 0.0) == pytest.approx(expected, rel=1e-12)
    assert g_function(H3, 0.0) == pytest.approx(expected, rel=1e-9)


def test_preimage_weights_are_the_per_preimage_doubles():
    # the weights taken one preimage at a time on floats are the doubles of one array call on all preimages,
    # numpy's exp either way, on the 40 levels that the benchmark's reference_certify workload draws for
    # each of its series at seed 20240527
    rnd = random.Random(20240527)
    for _ in range(40):  # the workload's Stein thresholds come first
        rnd.uniform(0.1, 1.0)
    for series in (HermiteSeries((0.0, 1.0, 0.0, 0.1)), H2, HermiteSeries((0.0, 1.0, 0.2))):
        law = law_of_polynomial(series)
        ns = [rnd.choice((-1.0, 1.0)) * rnd.uniform(0.3, 2.0) for _ in range(40)]
        for x in (float(series.evaluate(n)) for n in ns):
            pre, _ = law.level(x)
            ns, ds = np.array(pre).T
            want = np.exp(-0.5 * ns**2) / math.sqrt(2.0 * math.pi) / np.abs(ds)
            assert np.array(chaos._preimage_weights(pre)).tobytes() == want.tobytes()
            assert [float(chaos._phi(n)) / abs(d) for n, d in pre] == want.tolist()
    assert chaos._preimage_weights([]) == []


def test_g_two_routes_agree_on_grid():
    for series in (H2, H3):
        law = law_of_polynomial(series)
        lo = _law_quantile(law, 0.95)
        hi = _law_quantile(law, 0.05)
        for x in np.linspace(lo, hi, 25):
            crit_vals = [polyval(t, law.poly) for t in law.crit_points]
            if any(abs(x - v) < 1e-6 for v in crit_vals):
                continue
            assert g_function(series, float(x)) == pytest.approx(
                g_from_conditional(series, float(x)), abs=1e-8, rel=1e-8)


def test_g_function_quadrature_oracle():
    # independent route: integrate y * rho(y) by quadrature; the density has
    # integrable poles at the critical values of the polynomial
    law = law_of_polynomial(H3)
    x = 0.7
    upper = _law_quantile(law, 1e-13)
    pts = [polyval(t, law.poly) for t in law.crit_points if x < polyval(t, law.poly) < upper]
    num, _ = quad(lambda y: y * law.density(y), x, upper, points=sorted(pts),
                  limit=400, epsabs=1e-12, epsrel=1e-10)
    assert g_function(H3, x) == pytest.approx(num / law.density(x), rel=1e-7)


def _g_mpmath(coeffs, x: float, n_start: float):
    """g at level x for a one-preimage level, at 50 digits: G = X' sum c_m H_{m-1} at the root near n_start."""
    with mp.workdps(50):
        c = [mp.mpf(v) for v in coeffs]

        def herm(k, n):
            prev, cur = mp.mpf(1), n
            if k == 0:
                return prev
            for j in range(1, k):
                prev, cur = cur, n * cur - j * prev
            return cur

        xval = lambda n: sum(c[k] * herm(k, n) for k in range(len(c)))
        n0 = mp.findroot(lambda n: xval(n) - mp.mpf(x), mp.mpf(n_start))
        slope = sum(k * c[k] * herm(k - 1, n0) for k in range(1, len(c)))
        return slope * sum(c[k] * herm(k - 1, n0) for k in range(1, len(c)))


def test_g_routes_where_every_preimage_weight_underflows():
    # X = 3.6e-7 H1 - 0.0428 H2 - 1.13e-6 H3 at 0.0605: the one preimage is n = -37876, where phi(n) = 0;
    # the weights are taken in logs and X(n) = 0.0605 stands in for its cancelling terms
    coeffs = (0.0, 3.6e-7, -0.0428, -1.13e-6)
    series, law = HermiteSeries(coeffs), law_of_polynomial(HermiteSeries(coeffs))
    (n0, _), = law.level(0.0605)[0]
    assert n0 < -37000 and law.density(0.0605) == 0.0
    exact = _g_mpmath(coeffs, 0.0605, n0)
    for route in (g_function, g_from_conditional):
        assert float(abs(route(series, 0.0605) - exact) / exact) < 1e-10, route.__name__


def test_g_function_outside_support():
    with pytest.raises(OutsideSupportError):
        g_function(H2, -1.5)


# ---------------------------------------------------------------------------
# dominance margins


def test_dominance_equality_cases():
    m, _ = dominance_margin(H2, PearsonCoefficients(0.0, 2.0, 2.0))
    assert m == 0.0
    m, _ = dominance_margin(H1, PearsonCoefficients(0.0, 0.0, 1.0))
    assert m == 0.0


def test_dominance_strict_margin():
    # lowered gamma: G - (2X + 1) = 1 wherever X is inside the reference
    # support (-1/2, inf), but X = H2 reaches down to -1 where the kernel's
    # indicator zeroes it, so the almost-sure margin min is 0, at n = 0
    m, arg = dominance_margin(H2, PearsonCoefficients(0.0, 2.0, 1.0))
    assert m == pytest.approx(0.0, abs=1e-15)
    assert arg == pytest.approx(0.0, abs=1e-12)
    assert m >= 0.0  # hypothesis still certified
    g_poly = malliavin_G(H2)
    for n in [-2.0, 1.0, 3.0]:  # interior points match the bare difference +1
        x = H2.evaluate(n)
        assert polyval(n, g_poly) - (2.0 * x + 1.0) == pytest.approx(1.0, abs=1e-12)


def test_margin_extrema_false_certificates():
    x = HermiteSeries((0.0, 1.0, 0.0, 1e-5))
    res = margin_extrema(x.to_polynomial(), malliavin_G(x), PearsonCoefficients(0.0, 0.0, 1.01),
                         (-math.inf, math.inf))
    assert res["max"] == math.inf and math.isinf(res["argmax"])
    res = margin_extrema((0.0, 1.0), (1.0, 0.1, 0.0), PearsonCoefficients(0.0, 0.05, 0.725), (-10.0, math.inf))
    assert res["min"] == pytest.approx(-0.225, rel=1e-12)
    assert res["argmin"] == -10.0
    assert res["max"] == math.inf


def test_margin_extrema_keeps_a_tiny_leading_term():
    # G - g = 1e-12 x^2 - 300 x: the minimum -2.25e16 sits at x = 1.5e14, where only the 2e-12 term
    # of the derivative places it; it is -300 already at x = 1
    res = margin_extrema((0.0, 1.0), (1.0, 0.0, 1e-12), PearsonCoefficients(0.0, 300.0, 1.0),
                         (-math.inf, math.inf))
    assert res["min"] == pytest.approx(-2.25e16, rel=1e-12)
    assert res["argmin"] == pytest.approx(1.5e14, rel=1e-12)


def test_margin_extrema_identical_kernels_are_exactly_zero():
    # a support end counts as inside: the Beta kernel rounds to -3.3e-16 at its own end
    for c in [PearsonCoefficients(0.0, 0.0, 1.0), PearsonCoefficients(0.0, -2.0, 2.0),
              PearsonCoefficients(-0.3, 0.1, 0.7), PearsonCoefficients(0.5, 1.0, 0.5),
              PearsonCoefficients(0.25, 0.0, 0.25)]:
        res = margin_extrema((0.0, 1.0), (c.gamma, c.beta, c.alpha), c, pearson.support(c))
        assert (res["min"], res["max"]) == (0.0, 0.0), c


def test_dominance_unbounded_failure():
    # quadratic-kernel reference dominates any linear-kernel chaos variable at infinity
    m, arg = dominance_margin(H2, PearsonCoefficients(0.25, 0.0, 0.25))
    assert m == -math.inf
    assert math.isinf(arg)


# ---------------------------------------------------------------------------
# integration by parts


def test_ibp_h2_examples():
    assert ibp_check(H2, (0.0, 1.0)) < 1e-10            # E[X^2]=2 vs E[G]=2
    assert ibp_check(H2, (0.0, 0.0, 1.0)) < 1e-10        # E[X^3]=8 vs E[2X(2X+2)]=8
    assert ibp_check(H1, (0.0, 0.0, 0.0, 1.0)) < 1e-10   # E[N^4]=3 vs E[3N^2]=3
    assert ibp_check(H2, ()) == 0.0                      # m = 0, the empty coefficient sequence


def test_ibp_cross_checks_closed_moments():
    x_poly = H2.to_polynomial()
    assert expect_polynomial(np.polynomial.polynomial.polymul(x_poly, x_poly)) == pytest.approx(2.0, rel=1e-13)
    lhs = np.polynomial.polynomial.polymul(x_poly, np.polynomial.polynomial.polymul(x_poly, x_poly))
    assert expect_polynomial(lhs) == pytest.approx(8.0, rel=1e-13)


_MIXED_COEFF = st.builds(lambda sign, mag: sign * 10.0**mag, st.sampled_from((-1.0, 1.0)), st.floats(-12.0, 3.0))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(c=st.lists(_MIXED_COEFF, min_size=1, max_size=21), at=st.integers(0, 20),
       bad=st.sampled_from((math.nan, math.inf, -math.inf)))
def test_expect_polynomial_is_the_exact_gaussian_moment_sum_rounded_once(c, at, bad):
    got = expect_polynomial(c)
    with mp.workdps(50):
        # p(x) phi(x) is below 1e-300 past |x| = 40 at degree 20; Gauss-Legendre on panels is exact to 50 digits
        exact = mp.quad(lambda x: mp.polyval(c[::-1], x) * mp.npdf(x), [-40, -20, -10, -5, 0, 5, 10, 20, 40],
                        method="gauss-legendre")
        scale = sum(abs(ck) * mp.sqrt(math.prod(range(1, 2 * k, 2))) for k, ck in enumerate(c))  # >= E|p(N)|
        assert abs(mp.mpf(got) - exact) <= mp.mpf(math.ulp(got)) / 2 + mp.mpf(10) ** -40 * scale
    with pytest.raises(DomainError, match="finite"):
        expect_polynomial(c[:at] + [bad] + c[at:])


def test_expect_polynomial_refuses_a_sum_past_the_doubles():
    with pytest.raises(DomainError, match="past the doubles"):
        expect_polynomial([0.0, 0.0, 1e308, 0.0, 1e308])  # 1e308 (1 + 3)


@pytest.mark.parametrize("evaluate", [lambda x: hermite_eval(3, x), HermiteSeries((0.0, 1.0, 0.5)).evaluate])
def test_hermite_evaluators_refuse_nan_non_numbers_and_values_past_the_doubles(evaluate):
    # before, NaN and None gave NaN, "a" a bare ValueError, and inf or 1e200 a RuntimeWarning
    for bad in (math.nan, [0.5, math.nan], None, "a"):
        with pytest.raises(DomainError, match="NaN|real number"):
            evaluate(bad)
    for far in (math.inf, -math.inf, 1e200, [0.5, 1e200]):
        with pytest.raises(DomainError, match="not a finite double"):
            evaluate(far)
    assert evaluate(0.5) == evaluate(np.array([0.5]))[0] and isinstance(evaluate(0.5), float)


def test_ibp_random_series():
    rng = np.random.default_rng(23)
    for _ in range(10):
        deg = int(rng.integers(1, 6))
        c = np.concatenate([[0.0], rng.normal(size=deg)])
        if c[-1] == 0.0:
            c[-1] = 0.3
        s = HermiteSeries(tuple(c))
        m = rng.normal(size=int(rng.integers(2, 5)))
        assert ibp_check(s, tuple(m)) < 1e-9 * max(1.0, s.variance ** 2)


# ---------------------------------------------------------------------------
# monomial coefficient tuples


def test_polynomial_trim_and_derivative():
    # X = H1 + 1e-200 H2: G = 1 + 3e-200 N + 2e-400 N^2, whose top coefficient
    # rounds to 0 and is dropped; a G that rounds to 0 entirely keeps one 0
    assert malliavin_G(HermiteSeries((0.0, 1.0, 1e-200))) == (1.0, 3e-200)
    assert malliavin_G(HermiteSeries((0.0, 1e-200))) == (0.0,)
    assert HermiteSeries((0.0, 1.0, 2.0)).to_polynomial() == (-2.0, 1.0, 2.0)
    assert law_of_polynomial(HermiteSeries((0.0, 1.0, 2.0))).dpoly == (1.0, 4.0)
    assert law_of_polynomial(H1).dpoly == (1.0,)


# nonzero magnitudes from 1e-30 to 1e30 of either sign, and exact zeros below the leading term
_MAGNITUDES = st.floats(1e-30, 1e30).flatmap(lambda v: st.sampled_from((v, -v)))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lower=st.lists(st.one_of(st.just(0.0), _MAGNITUDES), min_size=1, max_size=64), lead=_MAGNITUDES,
       ts=st.lists(_FINITE, min_size=1, max_size=8))
def test_horner_equals_polyval_bit_for_bit(lower, lead, ts):
    # degrees 1 to 64 at finite points: the same operations, so the same doubles, overflow and NaN included
    c = (*lower, lead)
    with np.errstate(all="ignore"):
        expected = polyval(np.array(ts), c)
        got = quadrature.horner(c, np.array(ts))
    assert got.tobytes() == expected.tobytes()
    assert np.array([quadrature.horner(c, t) for t in ts]).tobytes() == expected.tobytes()  # on Python floats


# zeros of either sign and nonzero magnitudes from 1e-300 to 1e300 of either sign
_ELEMENTS = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(1e-300, 1e300).flatmap(lambda v: st.sampled_from((v, -v))))


def _bits(c) -> bytes:
    return np.asarray(c, dtype=float).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(c1=st.lists(_ELEMENTS, min_size=1, max_size=20), c2=st.lists(_ELEMENTS, min_size=1, max_size=20))
def test_the_list_sum_and_derivative_equal_numpy_s_bit_for_bit(c1, c2):
    # the same operations on the same trimmed operands, signed zeros and unequal lengths included
    assert _bits(chaos._add(c1, c2)) == _bits(npoly.polyadd(c1, c2))
    assert _bits(chaos._add(c1, c2, -1.0)) == _bits(npoly.polysub(c1, c2))
    assert _bits(chaos._add(c2, c1, -1.0)) == _bits(npoly.polysub(c2, c1))
    assert _bits(chaos._derivative(c1)) == _bits(npoly.polyder(c1))
    assert _bits(chaos._rounded(c1)) == _bits(pu.trimseq(np.array(c1)))
    assert chaos._derivative([]) == [] and npoly.polyder([]).size == 0


def _numpy_real_roots(coeffs) -> list[float]:
    """The real roots as they were found on numpy.polynomial: trim_zeros, flatnonzero and polyder on arrays."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(c) <= 1:
        return []
    if k := int(np.flatnonzero(c)[0]):
        return sorted(_numpy_real_roots(c[k:]) + [0.0] * (k % 2))
    dc = npoly.polyder(c)
    return chaos._sign_changes(c.tolist(), dc.tolist(), _numpy_real_roots(dc))


def _numpy_margin_extrema(x_poly, g_poly, coeffs, domain) -> dict:
    """``margin_extrema`` with its pieces formed by npoly.polyadd, polysub and polyder on arrays."""
    x_poly, g_poly = np.asarray(x_poly, dtype=float), np.asarray(g_poly, dtype=float)
    a, b = pearson.support(coeffs)
    quad = npoly.polyadd(npoly.polyadd(coeffs.alpha * npoly.polymul(x_poly, x_poly), coeffs.beta * x_poly),
                         [coeffs.gamma])
    m_in = npoly.polysub(g_poly, quad)
    candidates = [[0.0], _numpy_real_roots(npoly.polyder(m_in)), _numpy_real_roots(npoly.polyder(g_poly))]
    candidates += [_numpy_real_roots(npoly.polysub(x_poly, [v])) for v in (a, b) if math.isfinite(v)]
    candidates.append([end for end in domain if math.isfinite(end)])
    ts = np.unique(np.concatenate([np.asarray(c, dtype=float) for c in candidates]))
    ts = ts[(ts >= domain[0]) & (ts <= domain[1])]
    x_vals = npoly.polyval(ts, x_poly)
    margin = np.where((x_vals >= a) & (x_vals <= b), npoly.polyval(ts, m_in), npoly.polyval(ts, g_poly))
    points = list(zip(margin.tolist(), ts.tolist()))
    for end in domain:
        if math.isinf(end):
            inside = (b == math.inf) if chaos._poly_limit(x_poly, end) > 0 else (a == -math.inf)
            points.append((chaos._poly_limit(m_in if inside else g_poly, end), end))
    lo, hi = min(points, key=lambda p: p[0]), max(points, key=lambda p: p[0])
    return {"min": lo[0], "argmin": lo[1], "max": hi[0], "argmax": hi[1]}


def _hex(res: dict) -> dict:
    return {k: float(v).hex() for k, v in res.items()}  # tells -0.0 from 0.0


# centered series of degree 1 to 8, leading coefficient at least 0.05 in size
_SERIES_1_8 = st.integers(1, 8).flatmap(lambda d: st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=d - 1, max_size=d - 1), st.floats(0.05, 1.0), st.booleans(),
)).map(lambda a: HermiteSeries((0.0, *a[0], a[1] if a[2] else -a[1])))


@pytest.mark.parametrize("ref", CANONICAL_COEFFS.values(), ids=CANONICAL_COEFFS.keys())
@settings(max_examples=25, deadline=None, derandomize=True)
@given(series=_SERIES_1_8, pearson_x=st.sampled_from(list(WIDER_COEFFS.values())), scale=st.floats(0.1, 10.0))
def test_margin_extrema_equals_its_numpy_polynomial_form_bit_for_bit(ref, series, pearson_x, scale):
    # a chaos X over the whole line, and a Pearson X, sX with kernel alpha x^2 + s beta x + s^2 gamma, on its support
    law = law_of_polynomial(series)
    args = law.poly, law.gpoly, ref, (-math.inf, math.inf)
    assert _hex(margin_extrema(*args)) == _hex(_numpy_margin_extrema(*args))
    cx = PearsonCoefficients(pearson_x.alpha, scale * pearson_x.beta, scale * scale * pearson_x.gamma)
    args = (0.0, 1.0), (cx.gamma, cx.beta, cx.alpha), ref, pearson.support(cx)
    assert _hex(margin_extrema(*args)) == _hex(_numpy_margin_extrema(*args))


@pytest.mark.parametrize("coeffs", [(0.0, 1.0, 0.0, 0.1), (0.0, 0.0, 1.0), (0.0, 1.0, 0.2)],
                         ids=["H1+0.1H3", "H2", "H1+0.2H2"])
def test_level_crossings_match_polyval_evaluation_exactly(coeffs, monkeypatch):
    # the series of the benchmark's chaos kernels; the reference evaluates every polynomial by polyval
    x = HermiteSeries(coeffs)
    law = law_of_polynomial(x)
    levels = [float(v) for v in x.evaluate(np.linspace(-2.5, 2.5, 41))] + [law.support_a, law.support_b]
    got = [law.level(v) for v in levels]
    monkeypatch.setattr(quadrature, "horner", lambda c, t: polyval(t, c))
    assert got == [law.level(v) for v in levels]


# ---------------------------------------------------------------------------
# a level on Python floats, against the array form it replaced


def _sign_changes_on_arrays(c, dc, splits, limits=None, log2_bound=None):
    """``chaos._sign_changes`` as it was taken on arrays: numpy signs at the splits, numpy brackets, and a
    callable f that evaluates p and p' by Horner on arrays.  The reference for the bits of the float form."""
    splits = np.asarray(splits, dtype=float)
    if limits is None:
        limits = chaos._poly_limit(c, -math.inf), chaos._poly_limit(c, math.inf)
    with np.errstate(over="ignore"):
        signs = np.sign([limits[0], *quadrature.horner(c, splits), limits[1]])
    found = splits[:0]
    if not signs.all():
        nz = np.flatnonzero(signs)
        run = (np.diff(nz) > 1) & (signs[nz[:-1]] * signs[nz[1:]] < 0.0)
        found = splits[(nz[:-1][run] + nz[1:][run]) // 2 - 1]
    cross = signs[:-1] * signs[1:] < 0.0
    if cross.any():
        log2_r = 1.0 + (chaos._log2_root_bound(c) if log2_bound is None else log2_bound)
        r = 2.0 ** log2_r if log2_r < 1024.0 else math.inf
        ends = np.concatenate([[-r], splits, [r]])
        solved = quadrature.solve_monotone(lambda t, i: (quadrature.horner(c, t), quadrature.horner(dc, t)),
                                           ends[:-1][cross], ends[1:][cross], signs[1:][cross] > 0.0, xtol=1e-13)
        found = np.sort(np.concatenate([found, solved]))
    return found.tolist()


def _phi_on_arrays(n):
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * np.asarray(n, dtype=float) ** 2) / math.sqrt(2.0 * math.pi)


def _gauss_integral_on_arrays(herm, intervals):
    """``chaos._gauss_integral`` as it was: each edge by ``herme.hermeval`` and phi on a 0-d array."""
    shift = np.asarray(herm[1:], dtype=float)

    def edge(n):
        if not shift.size or not math.isfinite(n):
            return 0.0
        return float(herme.hermeval(n, shift) * _phi_on_arrays(n))

    return float(sum(herm[0] * chaos._gauss_interval_prob(u, v) + (edge(u) - edge(v)) for u, v in intervals))


def _outcomes(series, levels, law=None):
    """Every level evaluator and both g routes at each level: the bytes of the value, or the error raised."""
    law = law or law_of_polynomial(series)
    out = []
    for fn in (law.level, law.density, law.tail, law.partial_moments,
               lambda v: g_function(series, v), lambda v: g_from_conditional(series, v)):
        for v in levels:
            try:
                value = fn(v)
                out.append(repr(value) if fn == law.level else np.array(value, dtype=float).tobytes())
            except DomainError as exc:
                out.append((type(exc).__name__, str(exc)))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lower=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), max_size=11),
       lead=st.floats(0.01, 2.0).flatmap(lambda v: st.sampled_from((v, -v))),
       ns=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4), far=st.floats(-1e3, 1e3))
def test_level_evaluators_on_floats_equal_the_array_form_bit_for_bit(lower, lead, ns, far):
    # degrees 1 to 12; levels X(n) inside, every critical value (a tangent level), the support ends and one
    # level anywhere; the law itself is rebuilt on the array form, so its critical points are compared too
    series = HermiteSeries((0.0, *lower, lead))
    law = law_of_polynomial(series)
    levels = [float(v) for v in series.evaluate(np.array(ns))] + list(law.crit_values)
    levels += [law.support_a, law.support_b, far]
    got = _outcomes(series, levels)
    with mock.patch.object(chaos, "_sign_changes", _sign_changes_on_arrays), \
            mock.patch.object(chaos, "_gauss_integral", _gauss_integral_on_arrays), \
            mock.patch.object(chaos, "_preimage_weights", lambda pre: _phi_on_arrays([n for n, _ in pre])
                              / np.abs([d for _, d in pre])):
        on_arrays = chaos._law_of_polynomial.__wrapped__(series)
        assert on_arrays == law
        assert _outcomes(series, levels, on_arrays) == got


def test_sign_changes_on_floats_merge_a_zero_run_with_solved_roots_in_order():
    # p = t^3 - t is exactly 0 at the repeated split 0, between opposite signs, and a root is solved on each side
    args = ((0.0, -1.0, 0.0, 1.0), (-1.0, 0.0, 3.0), [-(3.0 ** -0.5), 0.0, 0.0, 3.0 ** -0.5])
    got = chaos._sign_changes(*args)
    assert isinstance(got, list) and repr(got) == repr(_sign_changes_on_arrays(*args))  # the same doubles
    np.testing.assert_allclose(got, [-1.0, 0.0, 1.0], rtol=0, atol=1e-13)
    assert got[1] == 0.0


def test_a_scalar_g_is_one_solve_on_floats_from_its_first_step(monkeypatch):
    series = HermiteSeries((0.0, 1.0, 0.0, 0.1))
    want = g_function(series, 0.9)  # the law is built before anything is counted
    solves, points = [], []
    solve, horner = quadrature.solve_monotone, quadrature.horner
    monkeypatch.setattr(quadrature, "solve_monotone", lambda f, *a, **kw: solves.append(f) or solve(f, *a, **kw))
    monkeypatch.setattr(quadrature, "horner", lambda c, t: points.append(type(t)) or horner(c, t))
    assert g_function(series, 0.9) == want
    assert len(solves) == 1 and not callable(solves[0])  # one solve, of the polynomial X(n) - 0.9 itself
    assert points and set(points) == {float}  # every evaluation on a Python float: no array step ran
    # the pin sees an array step: the same solve forced onto the array executor evaluates on arrays
    monkeypatch.setattr(quadrature, "_FLOAT_MAX", 0)
    points.clear()
    assert g_function(series, 0.9) == want and np.ndarray in points


# preimages of level 0.5 under H_40 and critical points of H_64: more brackets than quadrature._FLOAT_MAX, so
# these solves start on the array executor.  The digests pin their bits, which the float route left as they were.
def test_a_level_of_h40_has_40_preimages_from_array_steps(monkeypatch):
    law = law_of_polynomial(HermiteSeries((0.0,) * 40 + (1.0,)))
    starts, poly_root = [], quadrature._poly_root
    monkeypatch.setattr(quadrature, "_poly_root", lambda p, dp, k, *a: starts.append(k) or poly_root(p, dp, k, *a))
    pre, above = law.level(0.5)
    assert len(law.crit_points) == 39 and len(pre) == 40 > quadrature._FLOAT_MAX
    assert starts and starts[0] > 0  # array steps first, then floats once the batch thins out
    ns = np.array([n for n, _ in pre])
    # hermeroots solves the Hermite form (within 6e-14 of 50-digit roots here); the preimages of the monomial
    # form, whose coefficients reach 1e24, are within 6e-9 of them
    np.testing.assert_allclose(ns, np.sort(herme.hermeroots([-0.5] + [0.0] * 39 + [1.0]).real), rtol=0, atol=1e-8)
    assert [lo for lo, _ in above] == [-math.inf, *ns[1::2]] and [hi for _, hi in above] == [*ns[::2], math.inf]
    assert hashlib.sha256(np.array(pre).tobytes()).hexdigest() == (
        "53a9624f14fd0c9ccc1096a3a2fb1b4d4b2dd124bfefc33a8dd176946c4654d4")


def test_the_law_of_h64_has_63_critical_points_from_array_steps():
    law = law_of_polynomial(HermiteSeries((0.0,) * 64 + (1.0,)))
    crit = np.array(law.crit_points)
    assert crit.size == 63 and np.all(np.diff(crit) > 0.0)
    # X' = 64 H_63; in monomial form (coefficients up to 1e44) its roots are within 3.5e-3 of those of H_63
    np.testing.assert_allclose(crit, np.sort(herme.hermeroots([0.0] * 63 + [1.0]).real), rtol=0, atol=5e-3)
    assert hashlib.sha256(np.array([law.crit_points, law.crit_values]).tobytes()).hexdigest() == (
        "13e0fcf80ef987b4f403dccebeb4386a4d0ff1eaf5128fbd95472b1ce15c5086")
