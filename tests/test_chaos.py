import math

import numpy as np
import pytest
from scipy.integrate import quad

from steintail import pearson
from steintail.chaos import (
    HermiteSeries,
    PolynomialInN,
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
    assert malliavin_G(H1).coeffs == (1.0,)
    assert malliavin_G(H2).coeffs == (0.0, 0.0, 2.0)  # exactly 2 N^2
    g3 = malliavin_G(H3)
    # 3 (N^2 - 1)^2 = 3 - 6 N^2 + 3 N^4
    assert g3.coeffs == (3.0, 0.0, -6.0, 0.0, 3.0)


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
            assert g.degree == 2 * (s.degree - 1)


def test_expected_G_equals_variance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        c = np.concatenate([[0.0], rng.normal(size=deg)])
        if c[-1] == 0.0:
            c[-1] = 0.7
        s = HermiteSeries(tuple(c))
        eg = expect_polynomial(malliavin_G(s).coeffs)
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
        crit_vals = sorted(law.poly(t) for t in law.crit_points)
        a = law.support_a if math.isfinite(law.support_a) else law.quantile(1 - 1e-13)
        b = law.support_b if math.isfinite(law.support_b) else law.quantile(1e-13)
        pts = [v for v in crit_vals if a < v < b]
        mass, _ = quad(law.density, a, b, points=pts, limit=400, epsabs=1e-11, epsrel=1e-9)
        mean, _ = quad(lambda x: x * law.density(x), a, b, points=pts, limit=400,
                       epsabs=1e-11, epsrel=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert abs(mean) < 1e-9


def test_law_quantile_round_trip():
    law = law_of_polynomial(H3)
    for p in [0.9, 0.5, 0.1, 0.01]:
        z = law.quantile(p)
        assert law.tail(z) == pytest.approx(p, abs=1e-11)


def test_law_sampling_matches_tail():
    law = law_of_polynomial(H2)
    xs = law.sample(200_000, seed=19)
    for z in [-0.5, 0.0, 1.0, 3.0]:
        assert float(np.mean(xs > z)) == pytest.approx(law.tail(z), abs=5e-3)
    np.testing.assert_array_equal(xs, law.sample(200_000, seed=19))


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


def test_g_two_routes_agree_on_grid():
    for series in (H2, H3):
        law = law_of_polynomial(series)
        lo = law.quantile(0.95)
        hi = law.quantile(0.05)
        for x in np.linspace(lo, hi, 25):
            crit_vals = [law.poly(t) for t in law.crit_points]
            if any(abs(x - v) < 1e-6 for v in crit_vals):
                continue
            assert g_function(series, float(x)) == pytest.approx(
                g_from_conditional(series, float(x)), abs=1e-8, rel=1e-8)


def test_g_function_quadrature_oracle():
    # independent route: integrate y * rho(y) by quadrature; the density has
    # integrable poles at the critical values of the polynomial
    law = law_of_polynomial(H3)
    x = 0.7
    upper = law.quantile(1e-13)
    pts = [law.poly(t) for t in law.crit_points if x < law.poly(t) < upper]
    num, _ = quad(lambda y: y * law.density(y), x, upper, points=sorted(pts),
                  limit=400, epsabs=1e-12, epsrel=1e-10)
    assert g_function(H3, x) == pytest.approx(num / law.density(x), rel=1e-7)


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
        assert g_poly(n) - (2.0 * x + 1.0) == pytest.approx(1.0, abs=1e-12)


def test_margin_extrema_false_certificates():
    x = HermiteSeries((0.0, 1.0, 0.0, 1e-5))
    res = margin_extrema(x.to_polynomial().coeffs, malliavin_G(x).coeffs, PearsonCoefficients(0.0, 0.0, 1.01),
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


def test_ibp_cross_checks_closed_moments():
    x_poly = H2.to_polynomial()
    assert expect_polynomial(np.polynomial.polynomial.polymul(x_poly.coeffs, x_poly.coeffs)) == pytest.approx(2.0, rel=1e-13)
    lhs = np.polynomial.polynomial.polymul(x_poly.coeffs, np.polynomial.polynomial.polymul(x_poly.coeffs, x_poly.coeffs))
    assert expect_polynomial(lhs) == pytest.approx(8.0, rel=1e-13)


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
# polynomial wrapper


def test_polynomial_str():
    assert str(malliavin_G(H1)) == "1"
    assert str(malliavin_G(H2)) == "2*N^2"
    assert str(PolynomialInN((1.0, -1.0))) == "1 - N"


def test_polynomial_trim_and_derivative():
    p = PolynomialInN.from_array([1.0, 2.0, 0.0, 0.0])
    assert p.coeffs == (1.0, 2.0)
    assert p.derivative().coeffs == (2.0,)
