"""Closed forms against independent oracles: mpmath at 50 digits, quadrature, hypothesis.

The implicit lower bound's integral int_z^b (2x - z) P[X > x] dx comes from
the partial moments of X (``bounds.implicit_integral``).  The oracles
integrate (2x - z) P[X > x] with mpmath, except for the case-5 laws: there the
oracle is E[X (X - z); X > z] with the Student-type antiderivatives in closed
form, because the x^(-1.11) integrand of (0.9, 0, 1) leaves about 1e-6 of its
mass beyond the smallest nodes of any 50-digit quadrature.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
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
    np.testing.assert_array_equal(pearson.tail_grid(law, [z, 0.0]), [t, pearson.tail(law, 0.0)])


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
    [("case5", PearsonCoefficients(0.25, 0.0, 0.25), z, math.inf,
      lambda z: _case5_symmetric_integral(0.25, 0.25, z)) for z in (1.0, 8.0, 50.0, 200.0, 400.0)]
    + [("heavy case5", PearsonCoefficients(0.9, 0.0, 1.0), z, math.inf,
        lambda z: _case5_symmetric_integral(0.9, 1.0, z)) for z in (2.0, 10.0)]
    + [("H2", H2, z, math.inf, lambda z: _tail_integral(lambda x: mp.erfc(mp.sqrt((x + 1) / 2)), z))
       for z in (1.0, 2.0, 3.0, 5.0, 8.0, 50.0, 200.0)]
    + [("H1+0.1H3", H1_H3, z, math.inf, _h1_h3_integral) for z in (0.5, 1.0, 3.0, 8.0, 20.0)]
    + [("0.1H1 vs Beta", TENTH_H1, z, build_law(BETA).support_b,
        lambda z: _tail_integral(lambda x: mp.ncdf(-10 * x), z, mp.mpf(build_law(BETA).support_b)))
       for z in (0.05, 0.1, 0.25, 0.4, 0.49)]
)


@pytest.mark.parametrize("name, model, z, b, oracle", IMPLICIT_CASES,
                         ids=[f"{c[0]}-z{c[2]:g}" for c in IMPLICIT_CASES])
def test_implicit_integral_against_mpmath(name, model, z, b, oracle):
    got = bounds.implicit_integral(_x_moments(model), z, b)
    assert _rel(got, oracle(z)) <= REL, (name, z, got)


def test_implicit_bound_with_finite_b_counts_the_mass_beyond_b():
    # P[0.1 N > 0.5] = P[N > 5]: the b (b - z) P[X > b] term is not negligible
    ref = build_law(BETA)
    t_b = chaos.law_of_polynomial(TENTH_H1).tail(ref.support_b)
    assert t_b == pytest.approx(2.8665157187919e-07, rel=1e-12)
    z = 0.49
    lower = bounds.implicit_lower_bound(ref, _x_moments(TENTH_H1), z)
    integral = _tail_integral(lambda x: mp.ncdf(-10 * x), z, mp.mpf(0.5))
    want = pearson.tail(ref, z) - integral / (1.25 * z * z + 0.0625)  # q(z) = (1 - alpha) z^2 + gamma
    assert _rel(lower, want) <= REL


def test_heavy_case5_bound_is_finite_and_below_the_tail():
    law = build_law(PearsonCoefficients(0.9, 0.0, 1.0))
    for z in (2.0, 10.0, 1e3):
        lower = bounds.implicit_lower_bound(law, _x_moments(law.coeffs), z)
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
        bound = bounds.implicit_lower_bound(law, lambda v: pearson.partial_moments(law, v), y)
        assert math.isfinite(bound) and bound <= upper[0], (coeffs, y)


@pytest.mark.parametrize("triples", [_normal_triples, _gamma_triples, _beta_triples, _invgamma_triples,
                                      _case5_triples], ids=["normal", "gamma", "beta", "invgamma", "case5"])
@settings(max_examples=12, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_property_partial_moments(triples, data):
    _check_partial_moments(data.draw(triples()))
