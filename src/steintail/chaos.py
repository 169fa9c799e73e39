"""Exact Malliavin calculus for polynomial functionals of one Gaussian.

A variable X = sum_n c_n H_n(N), with H_n the probabilists' Hermite
polynomials and N standard normal, lives on a one-dimensional Wiener space
where the derivative operator multiplies chaos grade n by n and the inverse
Ornstein-Uhlenbeck generator divides by it.  The carre-du-champ-style quantity

    G = <DX, -DL^{-1}X> = X'(N) * sum_m c_m H_{m-1}(N)

is therefore an explicit polynomial in N, the law of X is an explicit
pushforward of the Gaussian read off the level crossings of X(n), and the
identity E[X m(X)] = E[m'(X) G] can be checked with every Gaussian
expectation in closed form.
Every polynomial in n is a plain tuple of monomial coefficients, low to high:
X(n) and G(n) are computed in exact rationals and each coefficient is rounded
once, and X'(n) is the derivative of the rounded X(n).
This module produces the dominated/dominating variables fed to the
tail-comparison machinery, and the exact extrema of the dominance margin
G - g(X) that certify them; ``verify`` uses the same routine for a Pearson X,
with x and its kernel in place of X(n) and G(n).  Every real root is a
bracketed sign change solved by ``quadrature.solve_monotone``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import hermite_e as herme
from numpy.polynomial import polynomial as npoly

from . import quadrature
from .errors import DomainError, OutsideSupportError, as_float, as_int, pointwise, reading
from .pearson import PearsonCoefficients, support as pearson_support

__all__ = [
    "MAX_DEGREE",
    "HermiteSeries",
    "hermite_eval",
    "malliavin_G",
    "law_of_polynomial",
    "PolynomialChaosLaw",
    "g_function",
    "g_from_conditional",
    "dominance_margin",
    "margin_extrema",
    "ibp_check",
    "expect_polynomial",
]

MAX_DEGREE = 64

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def hermite_eval(n: int, x):
    """Probabilists' Hermite H_n(x) at a number or an array, as the series with one unit coefficient."""
    n = as_int(n, "Hermite degree")
    if not 0 <= n <= MAX_DEGREE:
        raise DomainError(f"Hermite degree must be in 0..{MAX_DEGREE} (the overflow guard), got {n}")
    return pointwise(_hermeval, (0.0,) * n + (1.0,), x)


def _hermeval(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs_k H_k(x) by Clenshaw's recurrence, the rows of ``errors.pointwise``; a value past the doubles,
    or at an infinite x, raises DomainError."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        val = herme.hermeval(x, coeffs)
    if not np.isfinite(val).all():
        raise DomainError(f"sum c_k H_k(x) is not a finite double at every x, for c = {coeffs}")
    return val


def _phi(n: float) -> float:
    return float(np.exp(-0.5 * (n * n))) / _SQRT_2PI  # numpy's exp: math.exp's last bit differs; 0 past n^2 = inf


def _clenshaw(c, n: float):
    """sum c_k H_k(n) at a float n: ``herme.hermeval``'s Clenshaw steps one for one, on floats."""
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    for j in range(len(c) - 3, -1, -1):
        c0, c1 = c[j] - c1 * (j + 1), c0 + c1 * n
    return c0 + c1 * n


def _gauss_interval_prob(u: float, v: float) -> float:
    """P[u < N <= v] for u <= v, in complement-free form on either side of 0."""
    sf = lambda x: 0.5 * math.erfc(x / math.sqrt(2.0))  # P[N > x], exactly 0 and 1 at +-inf
    if u >= 0.0:
        return sf(u) - sf(v)
    if v <= 0.0:
        return sf(-v) - sf(-u)
    return 1.0 - sf(-u) - sf(v)


def _gauss_integral(herm, intervals) -> float:
    """Integral of P(n) phi(n) over the intervals, for P = sum_k herm_k H_k (a sequence of floats).

    (H_{k-1} phi)' = -H_k phi, so with A = sum_{k>=1} herm_k H_{k-1} each
    interval (u, v) gives herm_0 P[u < N <= v] + A(u) phi(u) - A(v) phi(v).
    """
    shift = herm[1:]

    def edge(n: float) -> float:
        if not shift or not math.isfinite(n):
            return 0.0
        return _clenshaw(shift, n) * _phi(n)

    return float(sum(herm[0] * _gauss_interval_prob(u, v) + (edge(u) - edge(v)) for u, v in intervals))


def _log2_root_bound(c, lower=None) -> float:
    """log2 max_j |c_j / c_d|^(1/(d - j)) over the lower indices j (all of 0..d-1 by default), in logs so no ratio
    overflows; the roots of sum c_k N^k lie within twice it over all of them."""
    d = len(c) - 1
    js = range(d) if lower is None else lower
    return max(((math.log2(abs(c[j])) - math.log2(abs(c[d]))) / (d - j) for j in js if c[j]), default=-math.inf)


def _sign_changes(c, dc, splits, limits=None, log2_bound=None) -> list[float]:
    """Sorted sign changes of p = sum c_k t^k, monotone between the sorted splits; dc holds p'.

    The signs at +-inf are those of p's limits, and the Fujiwara bound R
    closes the outer pieces; a caller that holds both passes the limits and
    log2(R / 2) (``_log2_root_bound``).  Every piece whose end signs differ
    is solved in one ``quadrature.solve_monotone`` call; a run of splits
    where p is exactly 0 between opposite signs is one root, its middle
    split.  Roots of even multiplicity change no sign.  A solve stops after a Newton step below
    1e-13 + 4 eps |t|; at an odd multiple root, or where p is close to a power
    c t^k across a wide piece, Newton gains only (m - 1)/m a step, and the
    solver's patience rule closes the distance.  Near an odd multiple root
    rounding noise, about eps^(1/m) |t| wide, leaves no sign to follow, and
    bisection ends there; the noise can also put several splits, all with
    p = 0, at such a root.  c, dc and the splits are sequences of floats, and
    signs and brackets are taken on floats: a level has a few pieces at most.
    """
    if limits is None:
        limits = _poly_limit(c, -math.inf), _poly_limit(c, math.inf)
    # past the doubles p is +-inf, which keeps its sign; the limits at +-inf are never 0
    signs = [1 if v > 0.0 else -1 if v < 0.0 else 0
             for v in (limits[0], *(quadrature.horner(c, t) for t in splits), limits[1])]
    nz = [k for k, v in enumerate(signs) if v]
    found = [splits[(a + b) // 2 - 1] for a, b in zip(nz, nz[1:]) if b - a > 1 and signs[a] != signs[b]]
    cross = [k for k in range(len(signs) - 1) if signs[k] * signs[k + 1] < 0]
    if cross:
        log2_r = 1.0 + (_log2_root_bound(c) if log2_bound is None else log2_bound)
        r = 2.0 ** log2_r if log2_r < 1024.0 else math.inf  # solve_monotone refuses the infinite bracket
        ends = [-r, *splits, r]
        solved = quadrature.solve_monotone((c, dc), [ends[k] for k in cross], [ends[k + 1] for k in cross],
                                           [signs[k + 1] > 0 for k in cross], xtol=1e-13)
        found = sorted(found + solved.tolist())
    return found


def _real_roots(coeffs) -> list[float]:
    """Sorted real roots of odd multiplicity of a monomial-coefficient polynomial.

    It is monotone between the roots of its derivative, so this recurses down
    the derivative sequence, one bracketed solve per order.  Only exact
    trailing zeros are dropped: a tiny leading coefficient still places roots,
    far out.  A factor t^k is divided out, so a root 0 is exact: no rounding
    noise would end Newton's creep into it.  Every step is on float tuples.
    """
    c = _rounded(coeffs)
    if len(c) <= 1:
        return []
    if k := next(j for j, v in enumerate(c) if v):  # the last coefficient is not 0
        return sorted(_real_roots(c[k:]) + [0.0] * (k % 2))
    dc = _derivative(c)
    return _sign_changes(c, dc, _real_roots(dc))


def _derivative(c) -> list[float]:
    """``npoly.polyder``'s coefficients of p' for p's finite float coefficients c, low to high and not trimmed:
    j c_j for j >= 1, and c_0 * 0 for a constant (() gives []).  A j c_j past the doubles raises DomainError:
    p' would lose its roots, and with them p's extrema."""
    dc = [j * c[j] for j in range(1, len(c))] or [v * 0.0 for v in c[:1]]
    if not all(map(math.isfinite, dc)):
        raise DomainError(f"the derivative of the polynomial {tuple(c)} has a coefficient past the doubles")
    return dc


def _add(c1, c2, sign: float = 1.0) -> tuple[float, ...]:
    """c1 + sign c2 for sign 1 or -1, on nonempty float sequences low to high: ``npoly.polyadd``'s and
    ``polysub``'s operations to the bit.  Both operands lose their trailing zeros first, as numpy's do (which
    decides the sign of a zero sum), the common terms are added, the rest of the longer one is kept, and the
    sum loses its trailing zeros (``_rounded``); -c2 is c2 with its signs flipped, and u + (-v) is u - v."""
    a, b = _rounded(c1), _rounded(c2)
    if sign < 0.0:
        b = tuple(-v for v in b)
    if len(a) < len(b):
        a, b = b, a
    return _rounded([u + v for u, v in zip(a, b)] + list(a[len(b):]))


@dataclass(frozen=True)
class HermiteSeries:
    """Coefficients c_0..c_N of X = sum c_n H_n(N); centered, degree >= 1."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        with reading("coeffs"):  # coeffs that are not a sequence; a coefficient that is not a number names itself
            c = tuple(as_float(v, "a series coefficient") for v in self.coeffs)
        object.__setattr__(self, "coeffs", c)
        if len(c) < 2:
            raise DomainError("series must reach at least grade 1")
        if not all(map(math.isfinite, c)):
            raise DomainError(f"coefficients must be finite, got {c}")
        if c[0] != 0.0:
            raise DomainError(f"c_0 must be 0 (centered variable), got {c[0]}")
        if c[-1] == 0.0:
            raise DomainError("leading coefficient must be nonzero")
        if len(c) - 1 > MAX_DEGREE:
            raise DomainError(f"degree {len(c) - 1} exceeds {MAX_DEGREE}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def variance(self) -> float:
        return float(sum(math.factorial(n) * c * c for n, c in enumerate(self.coeffs)))

    def to_polynomial(self) -> tuple[float, ...]:
        """X(n) as monomial coefficients low to high, each rounded once from its exact value."""
        return _rounded(_exact_monomials(self.coeffs))

    def evaluate(self, x):
        """X(n) at a number or an array (``_hermeval``)."""
        return pointwise(_hermeval, self.coeffs, x)


def _exact_monomials(herm) -> list[Fraction]:
    """Monomial coefficients of sum_k herm_k H_k, exact.

    Floats are dyadic rationals and the H_k have integer coefficients.
    """
    out = [Fraction(0)] * len(herm)
    prev, cur = [], [1]  # H_{k-1}, H_k
    for k, c in enumerate(herm):
        if c:
            c = Fraction(c)
            for j, h in enumerate(cur):
                out[j] += c * h
        nxt = [0, *cur]  # H_{k+1} = x H_k - k H_{k-1}
        for j, h in enumerate(prev):
            nxt[j] -= k * h
        prev, cur = cur, nxt
    return out


def _rounded(coeffs) -> tuple[float, ...]:
    """The coefficients as doubles, low to high; only trailing zeros are dropped, and one is kept (numpy's
    ``trimseq``)."""
    c = [float(v) for v in coeffs]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(c)


def _series(x_series) -> HermiteSeries:
    if not isinstance(x_series, HermiteSeries):
        raise DomainError(f"x_series must be a HermiteSeries, got {x_series!r}")
    return x_series


def malliavin_G(x_series: HermiteSeries) -> tuple[float, ...]:
    """G(N) = X'(N) * sum_m c_m H_{m-1}(N) in monomial form, each coefficient rounded once from its exact value."""
    c = _series(x_series).coeffs
    deriv = _exact_monomials([k * Fraction(c[k]) for k in range(1, len(c))])  # sum n c_n H_{n-1}
    shift = _exact_monomials(c[1:])  # sum c_m H_{m-1}: the -DL^{-1} factor
    prod = [Fraction(0)] * (len(deriv) + len(shift) - 1)
    for i, a in enumerate(deriv):
        for j, b in enumerate(shift):
            prod[i + j] += a * b
    return _rounded(prod)


# ---------------------------------------------------------------------------
# exact law of X


@dataclass(frozen=True)
class PolynomialChaosLaw:
    """Pushforward of the standard Gaussian through a polynomial.

    Every evaluator below reduces to the crossings of a level between the
    critical points of X(n) (one bracketed solve per level) plus closed-form
    Gaussian integrals.  The evaluators and both g routes take a number or an
    array of levels of any shape (``_per_level``).  G(n) is kept next to X(n)
    and X'(n), so the kernels and margins build each once per series, and so
    is X^2's Hermite form, which every E[X^2; X > x] reads.
    """

    series: HermiteSeries
    poly: tuple[float, ...]  # X(n), monomial coefficients low to high
    dpoly: tuple[float, ...]  # X'(n)
    gpoly: tuple[float, ...]  # G(n) = <DX, -DL^{-1}X>, see ``malliavin_G``
    square: tuple[float, ...]  # X^2 = sum_k square_k H_k, ``herme.hermemul(c, c)``: at most 129 floats
    crit_points: tuple[float, ...]  # sorted, where X'(n) changes sign
    crit_values: tuple[float, ...]  # X at each critical point
    limits: tuple[float, float]  # X(n) as n -> -inf and +inf
    log2_rest: float  # the Fujiwara bound's max over every coefficient of X(n) but c_0 (``_log2_root_bound``)
    support_a: float
    support_b: float

    # -- structure ---------------------------------------------------------

    def level(self, x: float) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
        """The strictly-crossing preimages (n, X'(n)) of level x, and disjoint
        intervals whose union is {n : X(n) > x}.

        The crossings are the sign changes of X(n) - x between the critical
        points; {X > x} alternates between them, starting from the sign of
        X - x at -inf.  A level equal to a critical value has no preimage there.
        An infinite level has none either, and {X > x} is the whole line at
        -inf and empty at +inf.
        """
        if math.isnan(x):
            raise DomainError("level must be a number, got nan")
        if math.isinf(x):
            return [], ([(-math.inf, math.inf)] if x < 0.0 else [])
        c = (self.poly[0] - x, *self.poly[1:])
        ns = _sign_changes(c, self.dpoly, self.crit_points, self.limits,
                           max(self.log2_rest, _log2_root_bound(c, (0,))))
        pts = [-math.inf, *ns, math.inf]
        first = 0 if self.limits[0] > 0.0 else 1
        return [(n, quadrature.horner(self.dpoly, n)) for n in ns], list(zip(pts[first:-1:2], pts[first + 1::2]))

    # -- evaluators ---------------------------------------------------------

    def density(self, x):
        return _per_level(self, x, lambda v, pre, above: _total(_preimage_weights(pre)))

    def tail(self, x):
        return _per_level(self, x, lambda v, pre, above: _gauss_integral((1.0,), above))

    def partial_moments(self, x):
        """(P[X > x], E[X; X > x], E[X^2; X > x]), closed form over one set of superlevel intervals per level."""
        return _per_level(self, x, lambda v, pre, above: self.moments_over(above), 3)

    def moments_over(self, intervals) -> tuple[float, float, float]:
        """(P[N in A], E[X; N in A], E[X^2; N in A]) over A, a union of disjoint intervals (u, v) of n: at a
        level x, ``level(x)``'s superlevel intervals give the partial moments without a second solve.  A pair
        that is not two numbers u <= v (a NaN end included) raises DomainError."""
        with reading("intervals"):  # not a sequence of pairs
            if not all(_real(u) and _real(v) and u <= v for u, v in intervals):
                raise DomainError(f"intervals must be pairs (u, v) of numbers with u <= v, got {intervals!r}")
        return tuple(_gauss_integral(h, intervals) for h in ((1.0,), self.series.coeffs, self.square))


_REAL = (int, float, np.integer, np.floating)


def _real(v) -> bool:
    """Whether v is a real number: an int or a float, numpy's included, but not a bool."""
    return isinstance(v, _REAL) and not isinstance(v, bool)


def law_of_polynomial(x_series: HermiteSeries) -> PolynomialChaosLaw:
    """The exact law of X with X(n), X'(n) and G(n), cached per series: every kernel and margin asks for it.
    A value that is not a series raises DomainError before the cache is read."""
    return _law_of_polynomial(_series(x_series))


@functools.lru_cache(maxsize=32)
def _law_of_polynomial(x_series: HermiteSeries) -> PolynomialChaosLaw:
    poly = x_series.to_polynomial()  # degree >= 1: H_n has leading coefficient 1
    dpoly = _rounded(_derivative(poly))
    crit = tuple(_real_roots(dpoly))
    values = tuple(npoly.polyval(crit, poly).tolist())
    limits = _poly_limit(poly, -math.inf), _poly_limit(poly, math.inf)
    rest = _log2_root_bound(poly, range(1, len(poly) - 1))
    square = tuple(herme.hermemul(x_series.coeffs, x_series.coeffs).tolist())
    return PolynomialChaosLaw(x_series, poly, dpoly, malliavin_G(x_series), square, crit, values, limits, rest,
                              min(*values, *limits), max(*values, *limits))


# ---------------------------------------------------------------------------
# the conditional kernel g and dominance checks


def _per_level(law: PolynomialChaosLaw, x, at, width: int = 1):
    """at(level, *law.level(level)) at every point of x, a number or an array of any shape
    (``errors.pointwise``): the one loop over levels, one level solve per point.  at returns a float,
    or a tuple of ``width``."""
    def rows(law, xs):
        out = np.array([at(v, *law.level(v)) for v in xs.tolist()], dtype=float)
        return tuple(out.reshape(-1, width).T) if width > 1 else out

    return pointwise(rows, law, x)


def _preimage_weights(pre) -> list:
    """phi(n) / |X'(n)| per preimage (n, X'(n)), on floats: the density of X at the level is their sum.  Where
    X'(n) is 0 the weight is what a double division by 0 gives, inf (nan where phi(n) is 0 too)."""
    return [_phi(n) / abs(d) if d else _phi(n) * math.inf for n, d in pre]


def _total(w: list) -> float:
    """sum(w) to numpy's bits: its pairwise sum adds fewer than 8 terms one by one from 0, as Python's sum does,
    and splits 8 or more (a level of degree 8 or more) among 8 running sums, which only numpy is left to do."""
    return sum(w) if len(w) < 8 else float(np.sum(w))


def _g_given(law: PolynomialChaosLaw, v: float, pre) -> float:
    """E[G | X = v]: the mean of G(n) over the preimages n of v, weighted by phi(n) / |X'(n)|.

    Where every weight underflows (|n| > 37), the weights are taken in logs relative to the largest,
    so only their ratios are formed, and G(n) is X'(n) (v + B(n)) / n with
    B = sum_m (m - 1) c_m H_{m-2}, from X = n A - B and G = X' A: the level v stands in for X(n),
    whose terms cancel there, so the rounding of n does not reach A(n).
    """
    if not pre:
        raise OutsideSupportError(f"no preimages of {v}")
    w = _preimage_weights(pre)
    w = [float(u == math.inf) for u in w] if math.inf in w else w  # X'(n) = 0 at a crossing: the limit, G's mean there
    if any(w):
        return float(np.dot(w, [quadrature.horner(law.gpoly, n) for n, _ in pre]) / _total(w))
    ns, ds = np.array(pre).T
    with np.errstate(over="ignore", divide="ignore"):  # past 1e154 n^2 is inf: a weight of 0 even in logs
        logs = -0.5 * ns * ns - np.log(np.abs(ds))
    if not np.isfinite(logs.max()):
        raise OutsideSupportError(f"every preimage weight of {v} underflows, even in logs")
    w = np.exp(logs - logs.max())
    c = law.series.coeffs
    values = ds * (v + herme.hermeval(ns, [(m - 1) * c[m] for m in range(2, len(c))] or [0.0])) / ns
    return float(np.dot(w, values) / np.sum(w))


def g_function(x_series: HermiteSeries, x):
    """g(x) = E[X 1_{X>x}] / rho_X(x), the Stein kernel of the exact law.

    Where rho_X(x) underflows, both are sums over the preimages of phi(n) times a polynomial
    (``_gauss_integral``; X is centered), and their ratio is E[G | X = x] from the log-weights
    (``_g_given``), as ``g_from_conditional`` forms it.
    """
    law = law_of_polynomial(x_series)

    def at(v: float, pre, above) -> float:
        if not law.support_a < v < law.support_b:
            raise OutsideSupportError(f"{v} outside the support ({law.support_a}, {law.support_b})")
        rho = _total(_preimage_weights(pre))
        return _gauss_integral(x_series.coeffs, above) / rho if rho > 0.0 else _g_given(law, v, pre)

    return _per_level(law, x, at)


def g_from_conditional(x_series: HermiteSeries, x):
    """E[G | X = x] as a preimage-weighted average of the polynomial G (``_g_given``)."""
    law = law_of_polynomial(x_series)
    return _per_level(law, x, lambda v, pre, above: _g_given(law, v, pre))


def margin_extrema(x_poly, g_poly, coeffs: PearsonCoefficients, domain) -> dict:
    """Exact extrema of G(t) - g(X(t)) over t in the domain, g the reference kernel clipped to its support.

    X and G are polynomials in t, monomial coefficients low to high: X(n) and
    G(n) over the whole line for a chaos variable, x and g_X(x) over the
    support of a Pearson one.  Where X lies in the closed reference support
    [a, b] the margin is the inside piece G - (alpha X^2 + beta X + gamma),
    elsewhere the outside piece G.  The kernel vanishes at a finite a or b, so
    the margin is continuous and its extrema lie among 0, the critical points
    of both pieces, the crossings X = a and X = b, the finite ends of the
    domain, and the limits at its infinite ends: +-inf for a nonconstant
    piece, the constant itself otherwise.  Each piece is evaluated from its
    subtracted coefficients, so identical kernels give 0.0 exactly.  The
    pieces are formed on float tuples (``_add``, ``_derivative``) but for X^2,
    whose convolution stays ``npoly.polymul``, and the candidates are read by
    ``npoly.polyval`` on one array.  A polynomial that is empty, not 1-D or
    not finite, an inside piece (X^2 included) or derivative past the
    doubles, and a domain that is not two ends lo <= hi raise DomainError.
    """
    x_poly, g_poly = (_finite_coefficients(p, name) for p, name in ((x_poly, "x_poly"), (g_poly, "g_poly")))
    with reading("domain"):  # a domain that is not a sequence; an end that is not a number names itself
        domain = tuple(as_float(end, "a domain end") for end in domain)
    if len(domain) != 2 or not domain[0] <= domain[1]:
        raise DomainError(f"domain must be two ends lo <= hi, got {domain}")
    a, b = pearson_support(coeffs)
    square = npoly.polymul(x_poly, x_poly).tolist()
    quad_comp = _add(_add([coeffs.alpha * v for v in square], [coeffs.beta * v for v in x_poly]), (coeffs.gamma,))
    m_in = _add(g_poly, quad_comp, -1.0)
    if not all(map(math.isfinite, m_in)):  # a square past the doubles too: inf, or NaN where alpha is 0
        raise DomainError(f"g_poly - g(x_poly) is past the doubles, for g_poly = {g_poly} and x_poly = {x_poly}")

    candidates = [[0.0], _real_roots(_derivative(m_in)), _real_roots(_derivative(g_poly))]
    candidates += [_real_roots(_add(x_poly, (level,), -1.0)) for level in (a, b) if math.isfinite(level)]
    candidates.append([end for end in domain if math.isfinite(end)])
    ts = np.unique(np.array([t for c in candidates for t in c]))
    ts = ts[(ts >= domain[0]) & (ts <= domain[1])]
    x_vals = npoly.polyval(ts, x_poly)
    margin = np.where((x_vals >= a) & (x_vals <= b), npoly.polyval(ts, m_in), npoly.polyval(ts, g_poly))
    points = list(zip(margin.tolist(), ts.tolist()))

    for end in domain:
        if math.isinf(end):
            inside = (b == math.inf) if _poly_limit(x_poly, end) > 0 else (a == -math.inf)
            points.append((_poly_limit(m_in if inside else g_poly, end), end))
    lo = min(points, key=lambda p: p[0])
    hi = max(points, key=lambda p: p[0])
    return {"min": lo[0], "argmin": lo[1], "max": hi[0], "argmax": hi[1]}


def _finite_coefficients(p, name: str) -> list[float]:
    """p's coefficients as floats, a number being a constant; a polynomial that is empty, of more than one
    dimension or not finite raises DomainError naming it."""
    c = as_float(p, "a polynomial's coefficients", arrays=True)
    if c.ndim > 1 or not c.size or not np.isfinite(c).all():
        raise DomainError(f"{name} must be a nonempty sequence of finite numbers, got {p!r}")
    return c.reshape(-1).tolist()


def _poly_limit(coeffs, end: float) -> float:
    """Limit of the polynomial as t -> end = +-inf: its constant if it has no other term."""
    deg = max((k for k, c in enumerate(coeffs) if k > 0 and c != 0.0), default=0)
    return math.copysign(math.inf, coeffs[deg] * end**deg) if deg else float(coeffs[0])


def dominance_margin(x_series: HermiteSeries, coeffs: PearsonCoefficients) -> tuple[float, float]:
    """(min margin, argmin) of G(n) - g(X(n)) over the whole line, exact (see ``margin_extrema``)."""
    law = law_of_polynomial(x_series)
    res = margin_extrema(law.poly, law.gpoly, coeffs, (-math.inf, math.inf))
    return res["min"], res["argmin"]


# ---------------------------------------------------------------------------
# integration-by-parts checks


def expect_polynomial(poly_coeffs) -> float:
    """E[p(N)] for p = sum c_k N^k, monomial coefficients low to high: the sum of c_k E[N^k] = c_k (k - 1)!!
    over even k, summed as integers over the largest power-of-two denominator and rounded once, by int / int
    division.  A coefficient that is not finite, or a sum past the doubles, raises DomainError."""
    c = as_float(poly_coeffs, "polynomial coefficients", arrays=True)
    if c.ndim > 1 or not np.isfinite(c).all():
        raise DomainError(f"polynomial coefficients must be a finite sequence, got {poly_coeffs!r}")
    terms = [(ck.as_integer_ratio(), math.prod(range(1, 2 * k, 2))) for k, ck in enumerate(c.reshape(-1)[::2].tolist())]
    den = max((d for (_, d), _ in terms), default=1)
    try:
        return sum(n * (den // d) * m for (n, d), m in terms) / den
    except OverflowError:
        raise DomainError(f"E[p(N)] is past the doubles for coefficients {poly_coeffs!r}") from None


def ibp_check(x_series: HermiteSeries, m_coeffs) -> float:
    """|E[X m(X)] - E[m'(X) G]|, each Gaussian expectation in closed form (``expect_polynomial``).

    m is a polynomial, monomial coefficients low to high; the bounded
    derivative hypothesis of the underlying identity is relaxed to polynomial
    growth, which Gaussian integrability covers at this scale.
    """
    if (m := as_float(m_coeffs, "m's coefficients", arrays=True)).ndim != 1:
        raise DomainError(f"m's coefficients must be a sequence of numbers, got {m_coeffs!r}")
    law, m = law_of_polynomial(x_series), m.tolist()
    lhs = npoly.polymul(law.poly, _compose(m, law.poly))
    rhs = npoly.polymul(_compose(_derivative(m), law.poly), law.gpoly)
    return abs(expect_polynomial(lhs) - expect_polynomial(rhs))


def _compose(m, x):
    """The coefficients of m(X) for X's coefficients x, by Horner: each step is ``npoly.polymul`` by x, then
    ``_add`` of the next coefficient; [] is 0."""
    step = lambda acc, mk: _add(npoly.polymul(acc, x).tolist(), (mk,))
    return functools.reduce(step, m[-2::-1], m[-1:] or (0.0,))
