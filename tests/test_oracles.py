"""Closed forms against independent oracles: mpmath at 50 digits, quadrature, hypothesis.

The implicit lower bound's integral int_z^b (2x - z) P[X > x] dx comes from
the partial moments of X (``bounds.implicit_integral``).  The oracles
integrate (2x - z) P[X > x] with mpmath, except for the case-5 laws: there the
oracle is E[X (X - z); X > z] with the Student-type antiderivatives in closed
form, because the x^(-1.11) integrand of (0.9, 0, 1) leaves about 1e-6 of its
mass beyond the smallest nodes of any 50-digit quadrature.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy import special as sp
from scipy.integrate import quad

from steintail import bounds, chaos, pearson
from steintail.pearson import PearsonCoefficients, build_law

from conftest import CANONICAL_COEFFS
from test_sampler import _beta_triples, _case5_triples, _gamma_triples, _invgamma_triples

mp.mp.dps = 50
REL = 1e-12


def _rel(got: float, want) -> float:
    return float(abs((mp.mpf(got) - want) / want))


# ---------------------------------------------------------------------------
# Normal tails below the normal doubles: erfc flushes to 0 near 1e-309


@pytest.mark.parametrize("p", [1e-300, 1e-310, 1e-320, 5e-324])
def test_normal_quantile_down_to_the_smallest_double(p):
    law = build_law(PearsonCoefficients(0.0, 0.0, 1.0))
    want = mp.findroot(lambda z: mp.log(mp.erfc(z / mp.sqrt(2)) / 2) - mp.log(p), 38.0)
    assert _rel(pearson.quantile(law, p), want) < REL


def test_normal_tail_keeps_the_subnormals():
    law = build_law(PearsonCoefficients(0.0, 0.0, 1.0))
    z = 37.75  # erfc(z / sqrt 2) is 0 in double; the tail is 3.76e-312
    assert _rel(pearson.tail(law, z), mp.erfc(z / mp.sqrt(2)) / 2) < 1e-10
    assert _rel(pearson.cdf(law, -z), mp.erfc(z / mp.sqrt(2)) / 2) < 1e-10
    tails = pearson.tail(law, np.linspace(37.0, 38.4, 15))
    assert np.all(tails > 0.0) and np.all(np.diff(tails) <= 0.0)


# ---------------------------------------------------------------------------
# Gamma tails below the normal doubles: gammaincc keeps few digits, then flushes to 0

DEEP_GAMMA_LAWS = [PearsonCoefficients(0.0, 2.0, 2.0), PearsonCoefficients(0.0, 0.5, 2.0),
                   PearsonCoefficients(0.0, 10.0, 1.0)]  # r = 0.5, 0.125, 0.01


def _gamma_log_tail_mp(law, z):
    return mp.log(mp.gammainc(law.r, (mp.mpf(z) + mp.mpf(law.mu)) / mp.mpf(law.s), mp.inf, regularized=True))


@pytest.mark.parametrize("coeffs", DEEP_GAMMA_LAWS, ids=str)
def test_gamma_log_tail_from_the_normal_underflow_to_ten_times_beyond(coeffs):
    law = build_law(coeffs)
    z_under = float(sp.gammainccinv(law.r, np.finfo(float).tiny)) * law.s - law.mu  # tail = smallest normal
    for z in np.geomspace(z_under, 10.0 * z_under, 13):
        assert _rel(pearson.log_tail(law, z), _gamma_log_tail_mp(law, z)) < REL, z


@pytest.mark.parametrize("coeffs", DEEP_GAMMA_LAWS, ids=str)
@pytest.mark.parametrize("p", [1e-310, 1e-320, 5e-324])
def test_gamma_quantile_down_to_the_smallest_double(coeffs, p):
    law = build_law(coeffs)
    x = mp.findroot(lambda x: mp.log(mp.gammainc(law.r, x, mp.inf, regularized=True)) - mp.log(p), -math.log(p))
    assert _rel(pearson.quantile(law, p), x * mp.mpf(law.s) - mp.mpf(law.mu)) < REL


# ---------------------------------------------------------------------------
# Beta tails near both ends

SKEWED_BETA = PearsonCoefficients(-1.07, 1.152, 0.0302)  # r = 0.021


@pytest.mark.parametrize("end, offset", [("a", 1e-15), ("a", 1e-13), ("a", 1e-10), ("b", 1e-6), ("b", 1e-12)])
def test_beta_tail_and_cdf_near_the_ends(end, offset):
    law = build_law(SKEWED_BETA)
    a, b = law.support_a, law.support_b
    z = a + offset if end == "a" else b - offset
    x = (mp.mpf(z) - mp.mpf(a)) / (mp.mpf(b) - mp.mpf(a))
    want_cdf = mp.betainc(law.r, law.s, 0, x, regularized=True)
    want_tail = mp.betainc(law.r, law.s, x, 1, regularized=True)
    t, c = pearson.tail(law, z), pearson.cdf(law, z)
    assert _rel(t, want_tail) <= 1e-14 and _rel(c, want_cdf) <= 1e-14, (t, c)
    assert abs(t + c - 1.0) <= 2e-16
    np.testing.assert_array_equal(pearson.tail(law, [z, 0.0]), [t, pearson.tail(law, 0.0)])


# ---------------------------------------------------------------------------
# case 5 (Pearson type IV) tails, cdf and normalization


def _case5_oracle(coeffs: PearsonCoefficients):
    """ln C from |Gamma(r + i s/2)|^2, and z -> (P[Z > z], P[Z <= z]) by mpmath.

    The smaller side integrates the density of xi = asinh((z + mu)/delta) from
    xi(z) away from the peak, scaled by its value at xi(z) (mpmath's error
    control is absolute), on steps growing by 4 from the local decay length;
    the larger side is 1 minus it.
    """
    al, be, ga = (mp.mpf(v) for v in (coeffs.alpha, coeffs.beta, coeffs.gamma))
    mu, delta = be / (2 * al), mp.sqrt(4 * al * ga - be * be) / (2 * al)
    r = 1 + 1 / (2 * al)
    s, e = mu / (al * delta), 2 * r - 1
    log_c = (2 * mp.re(mp.loggamma(r + 0.5j * s)) - mp.log(mp.pi) / 2 - mp.loggamma(r - mp.mpf(1) / 2)
             - mp.loggamma(r) + e * mp.log(delta))
    log_rho = lambda xi: log_c - e * (mp.log(delta) + mp.log(mp.cosh(xi))) + s * mp.atan(mp.sinh(xi))

    def sides(z: float):
        xi0 = mp.asinh((mp.mpf(z) + mu) / delta)
        upper = xi0 >= mp.asinh(s / e)
        steps = [4**k / (abs(s / mp.cosh(xi0) - e * mp.tanh(xi0)) + mp.sqrt(e)) for k in range(-1, 9)]
        pts = [xi0, *(xi0 + h for h in steps), mp.inf] if upper else [-mp.inf, *(xi0 - h for h in steps[::-1]), xi0]
        l0 = log_rho(xi0)
        small = mp.exp(l0) * mp.quad(lambda xi: mp.exp(log_rho(xi) - l0), pts)
        return (small, 1 - small) if upper else (1 - small, small)

    return log_c, sides


CASE5_ORACLE_LAWS = [
    ((0.25, 0.0, 0.25), (-30.0, -2.0, 0.7, 3.0, 50.0, 1e6)),
    ((0.5, 1.0, 1.0), (-30.0, -2.0, 0.7, 3.0, 50.0, 1e6)),
    ((0.9, -0.3, 1.0), (-30.0, -2.0, 0.7, 3.0, 50.0, 1e6)),
    ((0.05, 0.2, 1.0), (-30.0, -2.0, 0.7, 3.0, 50.0, 1e6)),
    # alpha near 0, where the law is nearly Normal (docs/DECISIONS.md, decision 2)
    ((1e-9, 0.0, 1.0), (-30.0, -1.0, 0.5, 8.0)),
    ((1e-11, 0.0, 1.0), (-8.0, 0.5, 3.0, 30.0)),
]


@pytest.mark.parametrize("coeffs, zs", CASE5_ORACLE_LAWS, ids=[str(c) for c, _ in CASE5_ORACLE_LAWS])
def test_case5_tail_cdf_and_constant_against_mpmath(coeffs, zs):
    law = build_law(PearsonCoefficients(*coeffs))
    with mp.workdps(30):
        log_c, sides = _case5_oracle(law.coeffs)
        assert _rel(law.log_norm_const, log_c) <= 1e-14
        for z in zs:
            want_tail, want_cdf = sides(z)
            t, c = pearson.tail(law, z), pearson.cdf(law, z)
            assert _rel(t, want_tail) <= REL and _rel(c, want_cdf) <= REL, (z, t, c)


def test_case5_strongly_skewed_tail_and_cdf_against_mpmath():
    # s = mu / (alpha delta) = -3.4e6: ln f is evaluated relative to its peak, where
    # (1 - 2r) ln cosh(xi) and s gd(xi), each about 1e7, cancel to O(1)
    law = build_law(PearsonCoefficients(8.5e-6, -1.8, 95409.7))
    with mp.workdps(30):
        _, sides = _case5_oracle(law.coeffs)
        for z in (-927.0, -309.0, 0.0, 309.0, 927.0):  # 0 and +-1, +-3 sd
            want_tail, want_cdf = sides(z)
            t, c = pearson.tail(law, z), pearson.cdf(law, z)
            assert _rel(t, want_tail) <= REL and _rel(c, want_cdf) <= REL, (z, t, c)


def test_case5_tiny_alpha_leaves_the_normal_limit_linearly():
    # (alpha, 0, 1) tends to the Normal of variance 1/(1 - alpha); its tail's
    # relative distance from that Normal is first order in alpha.  At z = 8 and 12 the
    # alpha = 1e-11 gap is 1e-8 to 5e-8, so the 1e-12 relative error the tail is held to
    # moves the ratio by at most 1e-4
    def gap(alpha, z):
        law = build_law(PearsonCoefficients(alpha, 0.0, 1.0))
        return pearson.tail(law, z) / float(mp.ncdf(-z * mp.sqrt(1 - mp.mpf(alpha)))) - 1.0

    for z in (8.0, 12.0):
        assert gap(1e-9, z) / gap(1e-11, z) == pytest.approx(100.0, rel=1e-3)


# ---------------------------------------------------------------------------
# the implicit-bound integral


def _case5_symmetric_integral(alpha: float, gamma: float, z: float):
    """E[X (X - z); X > z] for X with density C (x^2 + d^2)^(-r), the law (alpha, 0, gamma)."""
    al, d2, z = mp.mpf(alpha), mp.mpf(gamma) / mp.mpf(alpha), mp.mpf(z)
    r, h = 1 + 1 / (2 * al), mp.mpf(1) / 2
    c = d2 ** (r - h) / mp.beta(r - h, h)
    m1 = c * (z * z + d2) ** (1 - r) / (2 * (r - 1))
    # u = d^2 / (x^2 + d^2) turns x^2 (x^2 + d^2)^(-r) dx into an incomplete beta
    m2 = c * d2 ** (3 * h - r) / 2 * mp.betainc(r - 3 * h, 3 * h, 0, d2 / (z * z + d2))
    return m2 - z * m1


def _tail_integral(tail_x, z: float, b=mp.inf):
    z = mp.mpf(z)
    return mp.quad(lambda x: (2 * x - z) * tail_x(x), [z, b])


def _x_moments(model):
    if isinstance(model, chaos.HermiteSeries):
        return chaos.law_of_polynomial(model).partial_moments
    law = build_law(model)
    return lambda y: pearson.partial_moments(law, y)


H2 = chaos.HermiteSeries((0.0, 0.0, 1.0))
H1_H3 = chaos.HermiteSeries((0.0, 1.0, 0.0, 0.1))  # X(n) = 0.1 n^3 + 0.7 n, increasing
TENTH_H1 = chaos.HermiteSeries((0.0, 0.1))
BETA = PearsonCoefficients(-0.25, 0.0, 0.0625)  # support (-0.5, 0.5)


def _h1_h3_integral(z: float):
    x = lambda n: n * n * n / 10 + 7 * n / 10
    n0 = mp.findroot(lambda n: x(n) - z, 1)
    return mp.quad(lambda n: (2 * x(n) - z) * mp.ncdf(-n) * (3 * n * n / 10 + mp.mpf(7) / 10), [n0, mp.inf])


IMPLICIT_CASES = (
    [("case5", PearsonCoefficients(0.25, 0.0, 0.25), z, lambda z: _case5_symmetric_integral(0.25, 0.25, z))
     for z in (1.0, 8.0, 50.0, 200.0, 400.0)]
    + [("heavy case5", PearsonCoefficients(0.9, 0.0, 1.0), z, lambda z: _case5_symmetric_integral(0.9, 1.0, z))
       for z in (2.0, 10.0)]
    + [("H2", H2, z, lambda z: _tail_integral(lambda x: mp.erfc(mp.sqrt((x + 1) / 2)), z))
       for z in (1.0, 2.0, 3.0, 5.0, 8.0, 50.0, 200.0)]
    + [("H1+0.1H3", H1_H3, z, _h1_h3_integral) for z in (0.5, 1.0, 3.0, 8.0, 20.0)]
    # thresholds inside the Beta's support (-0.5, 0.5); the integral runs past its end, where P[X > 0.5] = 2.9e-7
    + [("0.1H1 vs Beta", TENTH_H1, z, lambda z: _tail_integral(lambda x: mp.ncdf(-10 * x), z))
       for z in (0.05, 0.1, 0.25, 0.4, 0.49)]
)


@pytest.mark.parametrize("name, model, z, oracle", IMPLICIT_CASES, ids=[f"{c[0]}-z{c[2]:g}" for c in IMPLICIT_CASES])
def test_implicit_integral_against_mpmath(name, model, z, oracle):
    got = bounds.implicit_integral(z, _x_moments(model)(z))
    assert _rel(got, oracle(z)) <= REL, (name, z, got)


def test_implicit_bound_with_finite_b_counts_the_mass_beyond_b():
    # P[0.1 N > 0.5] = P[N > 5]: past b = 0.5, |f'| = F(z)/x^2 reaches F(z)/b^2, above 1/q(z) at z = 0.49
    ref = build_law(BETA)
    t_b = chaos.law_of_polynomial(TENTH_H1).tail(ref.support_b)
    assert t_b == pytest.approx(2.8665157187919e-07, rel=1e-12)
    z = 0.49
    lower = bounds.implicit_lower_bound(ref, z, _x_moments(TENTH_H1)(z), math.inf)
    integral = _tail_integral(lambda x: mp.ncdf(-10 * x), z)
    q = min(1.25 * z * z + 0.0625, ref.support_b**2 / pearson.cdf(ref, z))  # q(z) = (1 - alpha) z^2 + gamma
    assert q < 1.25 * z * z + 0.0625
    assert _rel(lower, pearson.tail(ref, z) - integral / q) <= REL


def test_heavy_case5_bound_is_finite_and_below_the_tail():
    law = build_law(PearsonCoefficients(0.9, 0.0, 1.0))
    for z in (2.0, 10.0, 1e3):
        lower = bounds.implicit_lower_bound(law, z, _x_moments(law.coeffs)(z))
        assert math.isfinite(lower) and lower <= pearson.tail(law, z)


# ---------------------------------------------------------------------------
# Pearson partial moments


@pytest.mark.parametrize("coeffs", list(CANONICAL_COEFFS.values()) + [PearsonCoefficients(0.0, -2.0, 2.0),
                                                                      PearsonCoefficients(0.5, -1.0, 0.5)], ids=str)
def test_partial_moments_against_quadrature(coeffs):
    law = build_law(coeffs)
    sd = math.sqrt(law.variance)
    for y in (-0.5 * sd, 0.0, 0.3 * sd, 1.5 * sd):
        if not law.support_a < y < law.support_b:
            continue
        t, m1, m2 = pearson.partial_moments(law, y)
        for k, got in ((1, m1), (2, m2)):
            want, _ = quad(lambda x: x**k * pearson.density(law, x), y, law.support_b, epsabs=0.0, epsrel=1e-12,
                           limit=200)
            assert got == pytest.approx(want, rel=1e-9), (coeffs, y, k)


def _normal_triples():
    return st.floats(0.01, 100.0).map(lambda g: PearsonCoefficients(0.0, 0.0, g))


def _check_partial_moments(coeffs):
    law = build_law(coeffs)
    below = law.support_a - 1.0 if math.isfinite(law.support_a) else -math.inf
    below_moments = pearson.partial_moments(law, below)
    assert below_moments == (1.0, 0.0, coeffs.gamma / (1.0 - coeffs.alpha))
    assert below_moments[2] == pearson.moment(coeffs, 2)
    # split at an interior y: E[Z^2; Z > y] + E[Z^2; Z <= y] = E[Z^2], the
    # second term read off the reflected law at -y
    refl = build_law(PearsonCoefficients(coeffs.alpha, -coeffs.beta, coeffs.gamma))
    sd = math.sqrt(law.variance)
    b = law.support_b
    zs = [f * b for f in (0.1, 0.5, 0.9, 0.999)] if math.isfinite(b) else [0.1 * sd, sd, 5.0 * sd, 30.0 * sd]
    for y in zs:
        upper, lower = pearson.partial_moments(law, y), pearson.partial_moments(refl, -y)
        assert upper[2] + lower[2] == pytest.approx(pearson.moment(coeffs, 2), rel=1e-12)
        bound = bounds.implicit_lower_bound(law, y, upper, b)  # X = Z: no mass past b
        assert math.isfinite(bound) and bound <= upper[0], (coeffs, y)


@pytest.mark.parametrize("triples", [_normal_triples, _gamma_triples, _beta_triples, _invgamma_triples,
                                      _case5_triples], ids=["normal", "gamma", "beta", "invgamma", "case5"])
@settings(max_examples=12, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_property_partial_moments(triples, data):
    _check_partial_moments(data.draw(triples()))


# past |y| of about 1e154 the kernel g overflows, while for a heavy power tail the flux g rho ~ K |y|^(-1/alpha) is
# still a normal double: case 5, and the inverse-gamma type with its heavy end on either side
HEAVY_ROWS = [(0.9, 0.0, 1.0), (0.9, 0.3, 1.0), (0.9, -0.3, 1.0), (0.99, 0.3, 1.0), (0.6, 0.5, 1.0),
              (0.9, 1.8, 0.9), (0.9, -1.8, 0.9), (0.99, 1.98, 0.99), (0.99, -1.98, 0.99)]
TINY = 2.2250738585072014e-308  # the smallest normal double


def _heavy_oracle(coeffs):
    """y -> (g(y) rho(y), P[Z > y], P[Z <= y]) at 50 digits for a case-5 or an inverse-gamma-type law."""
    al, be, ga = (mp.mpf(v) for v in coeffs)
    if 4 * al * ga > be * be:  # case 5: rho ~ (1 + u^2)^(-r) e^(s atan u), u = (y + mu)/delta
        log_c, sides = _case5_oracle(PearsonCoefficients(*coeffs))
        mu, delta = be / (2 * al), mp.sqrt(4 * al * ga - be * be) / (2 * al)
        r, s = 1 + 1 / (2 * al), mu / (al * delta)
        log_rho = lambda u: log_c - 2 * r * mp.log(delta) - r * mp.log1p(u * u) + s * mp.atan(u)
        return lambda y: (mp.exp(mp.log((al * y + be) * y + ga) + log_rho((y + mu) / delta)), *sides(y))
    # the inverse-gamma type, rho ~ u^(-r) e^(-s/u) with u = y + mu > 0, or its mirror image where beta < 0
    m = 1 if be > 0 else -1
    mu, r = abs(be) / (2 * al), 2 + 1 / al
    s = mu / al
    log_c = (r - 1) * mp.log(s) - mp.loggamma(r - 1)

    def at(y):
        u = m * y + mu
        upper, lower = (mp.gammainc(r - 1, a, b, regularized=True) for a, b in ((0, s / u), (s / u, mp.inf)))
        flux = mp.exp(mp.log((al * y + be) * y + ga) + log_c - r * mp.log(u) - s / u)
        return (flux, upper, lower) if m > 0 else (flux, lower, upper)

    return at


def _heavy_points(law):
    return [v for y in (1e150, 1e160, 1e200, 1e250, 1e300) for v in (y, -y) if law.support_a < v < law.support_b]


def _close(got: float, want, rel: float = 2e-12) -> bool:
    """Within rel of want where want is a normal double, else within one subnormal step of it (so 0 where want is far
    below the smallest subnormal).  rel: exp of ln g + ln rho, whose terms reach 1,500 and each carry a few eps."""
    return abs(mp.mpf(got) - want) <= (rel * want if want >= TINY else 5e-324)


@pytest.mark.parametrize("coeffs", HEAVY_ROWS, ids=str)
def test_flux_and_partial_moments_past_the_kernel_overflow_against_mpmath(coeffs):
    law = build_law(PearsonCoefficients(*coeffs))
    oracle = _heavy_oracle(coeffs)
    al, be, ga = (mp.mpf(v) for v in coeffs)
    with mp.workdps(50):
        for y in _heavy_points(law):
            flux, upper, _ = oracle(mp.mpf(y))
            (t, m1, m2), f = pearson.partial_moments(law, y), pearson.flux(law, y)
            assert _close(f, flux) and m1 == f, (y, f)
            # the tail, about y^(-1 - 1/alpha), is subnormal past 1e150 on these rows; there case 5 keeps a few
            # bits (the inverse-gamma type keeps them all: the next test)
            assert _close(t, upper) if upper >= TINY else 0.0 <= t <= 2 * upper, (y, t)
            assert pearson.kernel_and_flux(law, y)[1] == f
            assert _close(m2, ((y + be) * flux + ga * upper) / (1 - al)), (y, m2)


@pytest.mark.parametrize("coeffs", [(0.9, 1.8, 0.9), (0.9, -1.8, 0.9)], ids=str)
def test_inverse_gamma_tail_below_the_normal_doubles_against_mpmath(coeffs):
    # scipy's gammainc keeps a few bits of the tail's first subnormals (1e146) and flushes it to 0 past about
    # 1e146.5; the tail's last subnormal is near 1e153.  The oracle takes the law's own r, s and mu: at
    # x = s/(y + mu) of 1e-146, the last bit of r moves the tail by 2.6e-14, some 20 subnormal steps at 1e146
    law = build_law(PearsonCoefficients(*coeffs))
    r, s, mu = (mp.mpf(v) for v in (law.r, law.s, law.mu))
    with mp.workdps(50):
        for y in np.logspace(140.0, 160.0, 41):
            want = mp.gammainc(r - 1, 0, s / (mp.mpf(y) + mu), regularized=True)
            got = pearson.cdf(law, -y) if law.mirrored else pearson.tail(law, y)  # the heavy end: left if mirrored
            assert _close(got, want), (y, got, want)


def test_second_partial_moment_where_the_flux_underflows_against_mpmath():
    # (0.9, 0, 1) at 1e300: g rho is about 1e-334 and reads 0, while (y + beta) g rho is about 2.4e-33
    law = build_law(PearsonCoefficients(0.9, 0.0, 1.0))
    with mp.workdps(50):
        flux, upper, _ = _heavy_oracle((0.9, 0.0, 1.0))(mp.mpf(1e300))
        assert flux < 5e-324
        assert _close(pearson.partial_moments(law, 1e300)[2], (mp.mpf(1e300) * flux + upper) / (1 - mp.mpf(0.9)))


# ---------------------------------------------------------------------------
# dominance margins: the exact extrema bound G - g(X) wherever it is evaluated directly


def _hermite_series():
    """Centered Hermite series of degree 1 to 4, leading coefficient at least 0.05 in size."""
    return st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=d - 1, max_size=d - 1), st.floats(0.05, 1.0), st.booleans(),
    )).map(lambda a: chaos.HermiteSeries((0.0, *a[0], a[1] if a[2] else -a[1])))


def _pearson_triples():
    return st.one_of(_normal_triples(), _gamma_triples(), _beta_triples(), _invgamma_triples(), _case5_triples())


def _far_points(top: float) -> np.ndarray:
    """+-10^k for k from 0 to top: extrema pushed out by a tiny leading term land among them."""
    far = np.logspace(0.0, top, int(20 * top) + 1)
    return np.concatenate([-far[::-1], far])


def _assert_within_extrema(res, big_g, x, coeffs):
    g = pearson.stein_kernel(pearson.build_law(coeffs), x)
    tol = 1e-9 * (1.0 + np.abs(big_g) + np.abs(g))
    margin = big_g - g
    assert np.all(res["min"] - tol <= margin), (res, coeffs)
    assert np.all(margin <= res["max"] + tol), (res, coeffs)


@pytest.mark.parametrize("triples", [_normal_triples, _gamma_triples, _beta_triples, _invgamma_triples,
                                      _case5_triples], ids=["normal", "gamma", "beta", "invgamma", "case5"])
@settings(max_examples=25, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_property_margin_extrema(triples, data):
    ref = data.draw(triples())
    series = data.draw(_hermite_series())
    big_g = chaos.malliavin_G(series)
    res = chaos.margin_extrema(series.to_polynomial(), big_g, ref, (-math.inf, math.inf))
    ns = np.concatenate([np.linspace(-8.0, 8.0, 1001), _far_points(12.0)])
    _assert_within_extrema(res, npoly.polyval(ns, big_g), series.evaluate(ns), ref)

    cx = data.draw(_pearson_triples())
    a, b = pearson.support(cx)
    sd = math.sqrt(pearson.variance(cx))
    xs = np.linspace(a if math.isfinite(a) else -20.0 * sd, b if math.isfinite(b) else 20.0 * sd, 1001)
    _check_pearson_margin(cx, ref, xs)


def _check_pearson_margin(cx, ref, xs):
    a, b = pearson.support(cx)
    xs = np.concatenate([xs, _far_points(32.0)])
    xs = xs[(xs >= a) & (xs <= b)]
    res = chaos.margin_extrema((0.0, 1.0), (cx.gamma, cx.beta, cx.alpha), ref, (a, b))
    _assert_within_extrema(res, pearson.stein_kernel(pearson.build_law(cx), xs), xs, ref)


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_property_margin_extrema_tiny_leading_term(data):
    # an x^2 term of 1e-30 to 1e-13 in g_X or in the reference kernel (snapped to Normal or Gamma)
    # puts the extremum of the margin out at about 1/alpha, far beyond any sampled range
    cx, ref = (data.draw(st.one_of(_normal_triples(), _gamma_triples())) for _ in range(2))
    tiny = data.draw(st.tuples(st.floats(-30.0, -13.0), st.booleans()).map(lambda t: (-1.0) ** t[1] * 10.0 ** t[0]))
    if data.draw(st.booleans()):
        cx = PearsonCoefficients(tiny, cx.beta, cx.gamma)
    else:
        ref = PearsonCoefficients(tiny, ref.beta, ref.gamma)
    _check_pearson_margin(cx, ref, np.linspace(-20.0, 20.0, 1001))


# ---------------------------------------------------------------------------
# real roots of a polynomial: sympy's exact isolation of the float coefficients


def _exact_odd_roots(c) -> list[float]:
    """Odd-multiplicity real roots of sum c_k t^k, isolated by sympy on the exact value of each double."""
    t = sympy.Symbol("t")
    poly = sympy.Poly([sympy.Rational(Fraction(float(v))) for v in c[::-1]], t)
    return sorted(float((a + b) / 2) for (a, b), m in poly.intervals(eps=sympy.Rational(1, 10**18)) if m % 2)


def test_real_roots_against_exact_isolation():
    # roots at least 1e-3 (1 + |t|) apart and complex pairs; the tolerance is 1e-12 (1 + |t|) plus
    # the rounding bound of Horner's rule over the slope: the rounding of p alone moves a root that far
    rnd = np.random.default_rng(20240527)
    for _ in range(200):
        d = int(rnd.integers(1, 9))
        pairs = int(rnd.integers(0, d // 2 + 1))
        real = np.sort(rnd.uniform(-3.0, 3.0, d - 2 * pairs))
        while np.any(np.diff(real) < 1e-3 * (1.0 + np.abs(real[1:]))):
            real = np.sort(rnd.uniform(-3.0, 3.0, d - 2 * pairs))
        z = rnd.uniform(-3.0, 3.0, pairs) + 1j * rnd.uniform(0.05, 2.0, pairs)
        lead = rnd.choice([-1.0, 1.0]) * 10.0 ** rnd.uniform(-3.0, 3.0)
        c = lead * npoly.polyfromroots(np.concatenate([real, z, z.conj()])).real
        want = np.array(_exact_odd_roots(c))
        got = np.array(chaos._real_roots(c))
        assert got.shape == want.shape, (c, want, got)
        rounding = 2 * d * np.finfo(float).eps * npoly.polyval(np.abs(want), np.abs(c))
        tol = 1e-12 * (1.0 + np.abs(want)) + rounding / np.abs(npoly.polyval(want, npoly.polyder(c)))
        assert np.all(np.abs(got - want) <= tol), (c, want, got)


@pytest.mark.parametrize("d", range(1, 9))
def test_real_roots_of_a_monomial_and_a_power_of_t_factor(d):
    # c_d t^d has root bound -inf: its root 0 is exact, of odd multiplicity or none
    assert chaos._real_roots(np.eye(d + 1)[d] * -2.5) == [0.0] * (d % 2)
    c = npoly.polymul(np.eye(d + 1)[d], [-1e60, 1.0])  # t^d (t - 1e60): the root 0 takes no solve
    assert chaos._real_roots(c) == sorted([0.0] * (d % 2) + [1e60])


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("e", [10, 50, 60, 70])
def test_real_roots_of_an_odd_multiple_root_inside_a_wide_piece(m, e):
    # (t - 1)^m (t - 10^e): p' keeps its sign across 1, so 1 lies deep inside the piece
    # [-R, 0.75 10^e] and Newton from its middle gains only (m - 1)/m a step.  Horner's
    # rounding, 2 d eps 2^m 10^e at 1, leaves no sign within 2 (2 d eps)^(1/m) of it;
    # there an odd number of crossings is what the doubles resolve
    c = npoly.polymul(npoly.polypow([-1.0, 1.0], m), [-10.0**e, 1.0])
    got = np.array(chaos._real_roots(c))
    noise = 2.0 * (2 * (m + 1) * np.finfo(float).eps) ** (1.0 / m)
    assert got[:-1].size % 2 == 1 and np.all(np.abs(got[:-1] - 1.0) <= noise), got
    assert got[-1] == pytest.approx(10.0**e, rel=1e-12)


@pytest.mark.parametrize("e", [60, 70])
def test_real_roots_of_a_simple_root_past_a_power_law_stretch(e):
    # (t - 1)(t^2 + 1)(t - 10^e) is about -10^e t^3 between 1 and 10^e: Newton there
    # shrinks the distance by 2/3 a step, too slow to close 10^e within the solver's steps
    c = npoly.polymul([-1.0, 1.0, -1.0, 1.0], [-10.0**e, 1.0])
    got = chaos._real_roots(c)
    assert len(got) == 2 and abs(got[0] - 1.0) <= 1e-13 and got[1] == pytest.approx(10.0**e, rel=1e-12)


def test_sign_changes_take_a_run_of_zero_splits_as_one_root():
    # rounding noise can put several splits with p exactly 0 at an odd multiple root
    # ((t - 1)^5 (t - 1e10) gives two); between opposite signs the run is one root
    assert chaos._sign_changes([0.0, 1.0], [1.0], [0.0, 0.0]) == [0.0]
    assert chaos._sign_changes([0.0, 0.0, 1.0], [0.0, 2.0], [0.0, 0.0]) == []
