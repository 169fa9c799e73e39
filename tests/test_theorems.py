"""The implicit lower bound (docs/DECISIONS.md, decision 6) against exact tails, on random certified pairs.

A pair is a Hermite series X of degree 2-6 and a reference whose kernel g
lies below G = <DX, -DL^{-1}X> everywhere, certified by the exact
``chaos.dominance_margin``.  Such a pair exists only where G >= 0 on the whole
line and every critical value of X lies outside the open support (a, b) of
the reference (G vanishes where X' does), so the strategy builds the
reference from X: the ends a and b between X's critical values, then the
largest kernel of that shape below G, scaled down.  Half the references have
a finite right end b, and nearly all of those leave X mass past b.
"""

import math
import random

import numpy as np
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from steintail import chaos
from steintail.bounds import implicit_lower_bound
from steintail.chaos import HermiteSeries
from steintail.errors import SteintailError
from steintail.pearson import PearsonCoefficients, build_law

GRID = np.linspace(-9.0, 9.0, 3601)  # the n that shape the reference; the exact margin then certifies it


def _series(rnd: random.Random, degree: int) -> HermiteSeries:
    """A leading term and lower terms at most ``spread`` times its size, some of them 0."""
    spread = rnd.choice([0.0, 10.0 ** rnd.uniform(-2.0, 2.0)])
    lead = rnd.choice([-1.0, 1.0]) * rnd.uniform(0.05, 1.0)
    lower = [rnd.choice([0.0, spread * lead * rnd.uniform(-1.0, 1.0)]) for _ in range(degree - 1)]
    return HermiteSeries((0.0, *lower, lead))


def _reference(rnd: random.Random, series: HermiteSeries, finite: bool):
    """A reference with a finite (Beta, mirrored Gamma) or infinite (Normal, Gamma) right end that
    G dominates on the grid, or None where X admits none of that kind."""
    law = chaos.law_of_polynomial(series)
    x, g = npoly.polyval(GRID, law.poly), npoly.polyval(GRID, law.gpoly)
    if g.min() < 0.0:
        return None
    sd = math.sqrt(series.variance)
    below = [v for v in law.crit_values if v < 0.0]
    above = [v for v in law.crit_values if v > 0.0]
    if len(below) + len(above) < len(law.crit_values):
        return None  # a critical value at 0, inside every support
    a = max(below) * rnd.uniform(0.0, 1.0) if below else -rnd.uniform(0.1, 3.0) * sd
    b = min(above) * rnd.uniform(0.0, 1.0) if above else rnd.uniform(0.1, 3.0) * sd
    shapes = []  # (kernel on X, alpha, beta, gamma) of kernels positive on (a, b)
    if finite:
        shapes.append((lambda v: (v - a) * (b - v), -1.0, a + b, -a * b))  # Beta
        if not below:
            shapes.append((lambda v: b - v, 0.0, -1.0, b))  # mirrored Gamma on (-inf, b)
    elif not above:
        shapes.append((lambda v: v - a, 0.0, 1.0, -a))  # Gamma on (a, inf)
        if not below:
            shapes.append((lambda v: np.ones_like(v), 0.0, 0.0, 1.0))  # Normal
    if not shapes or not a < 0.0 < b:
        return None
    kernel, *poly = rnd.choice(shapes)
    k = kernel(x)
    inside = k > 0.0
    scale = rnd.uniform(0.3, 0.95) * np.min(g[inside] / k[inside])
    return PearsonCoefficients(*(scale * c for c in poly)) if scale > 0.0 else None


@st.composite
def certified_pairs(draw):
    """(X, reference) with G >= g(X) certified exactly, X of a drawn degree 2-6, from a drawn seed;
    half with a finite right end."""
    degree, finite = draw(st.integers(2, 6), label="degree"), draw(st.booleans(), label="finite")
    rnd = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    for _ in range(200):
        series = _series(rnd, degree)
        coeffs = _reference(rnd, series, finite)
        if coeffs is None:
            continue
        try:
            if chaos.dominance_margin(series, coeffs)[0] >= 0.0:
                return series, build_law(coeffs)
        except SteintailError:
            continue
    reject()


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(pair=certified_pairs(), fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4))
def test_implicit_lower_bound_is_at_most_the_exact_tail(pair, fractions):
    series, law = pair
    x_law = chaos.law_of_polynomial(series)
    b = law.support_b
    zs = np.array([f * b if math.isfinite(b) else 4.0 * f * math.sqrt(series.variance) for f in fractions])
    at_z = x_law.partial_moments(zs)
    bound = implicit_lower_bound(law, zs, at_z, x_law.support_b)
    assert np.all(bound <= at_z[0]), (series, law.coeffs, zs, bound, at_z[0])
