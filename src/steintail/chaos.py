"""Exact Malliavin calculus for polynomial functionals of one Gaussian.

A variable X = sum_n c_n H_n(N), with H_n the probabilists' Hermite
polynomials and N standard normal, lives on a one-dimensional Wiener space
where the derivative operator multiplies chaos grade n by n and the inverse
Ornstein-Uhlenbeck generator divides by it.  The carre-du-champ-style quantity

    G = <DX, -DL^{-1}X> = X'(N) * sum_m c_m H_{m-1}(N)

is therefore an explicit polynomial in N, the law of X is an explicit
pushforward of the Gaussian through a polynomial (computable branch by
branch), and the identity E[X m(X)] = E[m'(X) G] can be checked to quadrature
exactness.  This is the module that produces the dominated/dominating
variables fed to the tail-comparison machinery, and the exact extrema of the
dominance margin G - g(X) that certify them; ``verify`` uses the same routine
for a Pearson X, with x and its kernel in place of X(n) and G(n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite_e as herme
from numpy.polynomial import polynomial as npoly
from scipy import optimize as _opt

from . import rng
from .errors import DomainError, OutsideSupportError
from .pearson import PearsonCoefficients, support as pearson_support

__all__ = [
    "MAX_DEGREE",
    "HermiteSeries",
    "PolynomialInN",
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
    """Probabilists' Hermite H_n(x) by the three-term recurrence."""
    if n < 0 or n != int(n):
        raise DomainError(f"Hermite degree must be a nonnegative integer, got {n}")
    if n > MAX_DEGREE:
        raise DomainError(f"Hermite degree {n} exceeds the overflow guard {MAX_DEGREE}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return float(prev) if prev.ndim == 0 else prev
    cur = x.copy()
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return float(cur) if cur.ndim == 0 else cur


def _phi(x):
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / _SQRT_2PI


def _gauss_interval_prob(u: float, v: float) -> float:
    """P[u < N <= v] in complement-free form on either side of 0."""
    if v <= u:
        return 0.0
    sf = lambda x: 0.5 * math.erfc(x / math.sqrt(2.0))  # P[N > x], exactly 0 and 1 at +-inf
    if u >= 0.0:
        return sf(u) - sf(v)
    if v <= 0.0:
        return sf(-v) - sf(-u)
    return 1.0 - sf(-u) - sf(v)


def _gauss_integral(herm, intervals) -> float:
    """Integral of P(n) phi(n) over the intervals, for P = sum_k herm_k H_k.

    (H_{k-1} phi)' = -H_k phi, so with A = sum_{k>=1} herm_k H_{k-1} each
    interval (u, v) gives herm_0 P[u < N <= v] + A(u) phi(u) - A(v) phi(v).
    """
    shift = np.asarray(herm[1:], dtype=float)

    def edge(n: float) -> float:
        if not shift.size or not math.isfinite(n):
            return 0.0
        return float(herme.hermeval(n, shift) * _phi(n))

    return float(sum(herm[0] * _gauss_interval_prob(u, v) + (edge(u) - edge(v)) for u, v in intervals))


@dataclass(frozen=True)
class PolynomialInN:
    """Polynomial in the driving standard normal, monomial coefficients low to high."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise DomainError("polynomial needs at least one coefficient")

    @staticmethod
    def from_array(arr) -> "PolynomialInN":
        arr = np.atleast_1d(np.asarray(arr, dtype=float))
        scale = np.max(np.abs(arr)) if arr.size else 0.0
        if scale > 0.0:
            nz = np.nonzero(np.abs(arr) > 1e-14 * scale)[0]
            arr = arr[: nz[-1] + 1] if nz.size else arr[:1] * 0.0
        return PolynomialInN(tuple(float(v) for v in arr))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        val = npoly.polyval(np.asarray(x, dtype=float), np.asarray(self.coeffs))
        return float(val) if np.ndim(x) == 0 else val

    def derivative(self) -> "PolynomialInN":
        return PolynomialInN.from_array(npoly.polyder(np.asarray(self.coeffs)))

    def real_roots(self) -> np.ndarray:
        return _real_roots(np.asarray(self.coeffs))

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0.0 and self.degree > 0:
                continue
            base = "1" if k == 0 else ("N" if k == 1 else f"N^{k}")
            if k == 0:
                terms.append(f"{c:g}")
            elif c == 1.0:
                terms.append(base)
            elif c == -1.0:
                terms.append(f"-{base}")
            else:
                terms.append(f"{c:g}*{base}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of a monomial-coefficient polynomial, Newton-polished.

    Only exact trailing zeros are dropped: a tiny leading coefficient still
    places roots, far out.
    """
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        return np.array([])
    c = coeffs[: nz[-1] + 1]
    if len(c) <= 1:
        return np.array([])
    roots = npoly.polyroots(c)
    real = roots[np.abs(roots.imag) < 1e-8 * (1.0 + np.abs(roots.real))].real
    if real.size == 0:
        return real
    d = npoly.polyder(c)
    for _ in range(3):
        fv = npoly.polyval(real, c)
        dv = npoly.polyval(real, d)
        step = np.where(np.abs(dv) > 1e-300, fv / np.where(dv == 0.0, 1.0, dv), 0.0)
        real = real - step
    real = np.sort(real)
    keep = np.ones(real.size, dtype=bool)
    keep[1:] = np.diff(real) > 1e-10 * (1.0 + np.abs(real[1:]))
    return real[keep]


@dataclass(frozen=True)
class HermiteSeries:
    """Coefficients c_0..c_N of X = sum c_n H_n(N); centered, degree >= 1."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        object.__setattr__(self, "coeffs", c)
        if len(c) < 2:
            raise DomainError("series must reach at least grade 1")
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

    def to_polynomial(self) -> PolynomialInN:
        return PolynomialInN.from_array(herme.herme2poly(np.asarray(self.coeffs)))

    def evaluate(self, x):
        val = herme.hermeval(np.asarray(x, dtype=float), np.asarray(self.coeffs))
        return float(val) if np.ndim(x) == 0 else val


def malliavin_G(x_series: HermiteSeries) -> PolynomialInN:
    """G(N) = X'(N) * sum_m c_m H_{m-1}(N), expanded to monomial form."""
    deriv = herme.hermeder(np.asarray(x_series.coeffs))       # sum n c_n H_{n-1}
    shift = np.asarray(x_series.coeffs[1:])                    # sum   c_m H_{m-1}: the -DL^{-1} factor
    prod = npoly.polymul(herme.herme2poly(deriv), herme.herme2poly(shift))
    return PolynomialInN.from_array(prod)


# ---------------------------------------------------------------------------
# exact law of X


@dataclass(frozen=True)
class PolynomialChaosLaw:
    """Pushforward of the standard Gaussian through a polynomial.

    Critical points of the polynomial split the line into monotone branches;
    every evaluator below reduces to branch inverses (bracketed Brent solves)
    plus closed-form Gaussian integrals.
    """

    series: HermiteSeries
    poly: PolynomialInN
    dpoly: PolynomialInN
    crit_points: tuple[float, ...]
    support_a: float
    support_b: float

    # -- structure ---------------------------------------------------------

    def _branches(self):
        pts = (-math.inf, *self.crit_points, math.inf)
        return list(zip(pts[:-1], pts[1:]))

    def _value_at(self, n: float) -> float:
        return _poly_limit(self.poly.coeffs, n) if math.isinf(n) else self.poly(n)

    @staticmethod
    def _expand(f, start: float, direction: float) -> float:
        """Walk geometrically from start until f changes sign."""
        s0 = f(start)
        step = 1.0
        for _ in range(80):
            pt = start + direction * step
            if f(pt) * s0 <= 0.0:
                return pt
            step *= 2.0
        raise DomainError("failed to bracket a branch inverse")

    def _solve_on_branch(self, lo: float, hi: float, v_lo: float, v_hi: float, x: float) -> float:
        """Unique n in the monotone branch (lo, hi) with X(n) = x; x crosses strictly."""
        f = lambda n: self.poly(n) - x
        if math.isfinite(lo) and math.isfinite(hi):
            u, v = lo, hi
        elif math.isfinite(hi):
            u, v = self._expand(f, hi, -1.0), hi
        elif math.isfinite(lo):
            u, v = lo, self._expand(f, lo, +1.0)
        else:
            s0 = f(0.0)
            if s0 == 0.0:
                return 0.0
            go_right = (s0 < 0.0) == (v_hi > v_lo)
            pt = self._expand(f, 0.0, +1.0 if go_right else -1.0)
            u, v = (0.0, pt) if go_right else (pt, 0.0)
        return float(_opt.brentq(f, u, v, xtol=1e-13, rtol=4.0 * np.finfo(float).eps, maxiter=200))

    def preimages(self, x: float) -> list[tuple[float, float]]:
        """Strictly-crossing preimage points (n_i, X'(n_i)) of level x."""
        out = []
        for lo, hi in self._branches():
            v_lo, v_hi = self._value_at(lo), self._value_at(hi)
            v_min, v_max = min(v_lo, v_hi), max(v_lo, v_hi)
            if not (v_min < x < v_max):
                continue
            n = self._solve_on_branch(lo, hi, v_lo, v_hi, x)
            out.append((n, float(self.dpoly(n))))
        return out

    def superlevel_intervals(self, x: float) -> list[tuple[float, float]]:
        """Disjoint intervals whose union is {n : X(n) > x}."""
        out = []
        for lo, hi in self._branches():
            v_lo, v_hi = self._value_at(lo), self._value_at(hi)
            if v_lo < v_hi:  # increasing
                if v_hi <= x:
                    continue
                if v_lo >= x:
                    out.append((lo, hi))
                else:
                    out.append((self._solve_on_branch(lo, hi, v_lo, v_hi, x), hi))
            else:  # decreasing
                if v_lo <= x:
                    continue
                if v_hi >= x:
                    out.append((lo, hi))
                else:
                    out.append((lo, self._solve_on_branch(lo, hi, v_lo, v_hi, x)))
        return out

    # -- evaluators ---------------------------------------------------------

    def density(self, x: float) -> float:
        pre = self.preimages(x)
        if not pre:
            return 0.0
        return float(sum(_phi(n) / abs(d) for n, d in pre))

    def tail(self, x: float) -> float:
        if x < self.support_a:
            return 1.0
        if x >= self.support_b:
            return 0.0
        return _gauss_integral((1.0,), self.superlevel_intervals(x))

    def partial_moments(self, x: float) -> tuple[float, float, float]:
        """(P[X > x], E[X; X > x], E[X^2; X > x]), closed form over one set of superlevel intervals."""
        c = self.series.coeffs
        intervals = self.superlevel_intervals(x)
        return tuple(_gauss_integral(herm, intervals) for herm in ((1.0,), c, herme.hermemul(c, c)))

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile requires 0 < p < 1, got {p}")
        step = math.sqrt(self.series.variance)
        lo, hi = -step, step
        while self.tail(lo) < p and lo > self.support_a:
            lo = max(lo * 2.0, self.support_a)
        while self.tail(hi) > p and hi < self.support_b:
            hi = min(hi * 2.0, self.support_b)
        return float(_opt.brentq(lambda t: self.tail(t) - p, lo, hi, xtol=1e-13, maxiter=200))

    def sample(self, n: int, seed: int) -> np.ndarray:
        draws = rng.normal_stream(seed, n)
        return self.series.evaluate(draws)

    @property
    def variance(self) -> float:
        return self.series.variance


@functools.lru_cache(maxsize=32)
def law_of_polynomial(x_series: HermiteSeries) -> PolynomialChaosLaw:
    """The exact law of X, cached per series: g_function and g_from_conditional ask for it on every call."""
    poly = x_series.to_polynomial()
    if poly.degree < 1:
        raise DomainError("polynomial variable must be nonconstant")
    dpoly = poly.derivative()
    crit = tuple(float(t) for t in dpoly.real_roots())
    values = [poly(t) for t in crit] + [_poly_limit(poly.coeffs, end) for end in (-math.inf, math.inf)]
    return PolynomialChaosLaw(x_series, poly, dpoly, crit, min(values), max(values))


# ---------------------------------------------------------------------------
# the conditional kernel g and dominance checks


def g_function(x_series: HermiteSeries, x: float) -> float:
    """g(x) = E[X 1_{X>x}] / rho_X(x), the Stein kernel of the exact law."""
    law = law_of_polynomial(x_series)
    if not law.support_a < x < law.support_b:
        raise OutsideSupportError(f"{x} outside the support ({law.support_a}, {law.support_b})")
    rho = law.density(x)
    if rho == 0.0:
        raise OutsideSupportError(f"density vanishes at {x}")
    return _gauss_integral(x_series.coeffs, law.superlevel_intervals(x)) / rho


def g_from_conditional(x_series: HermiteSeries, x: float) -> float:
    """E[G | X = x] as a preimage-weighted average of the polynomial G."""
    law = law_of_polynomial(x_series)
    pre = law.preimages(x)
    if not pre:
        raise OutsideSupportError(f"no preimages of {x}")
    g_poly = malliavin_G(x_series)
    weights = np.array([_phi(n) / abs(d) for n, d in pre])
    values = np.array([g_poly(n) for n, _ in pre])
    return float(np.dot(weights, values) / np.sum(weights))


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
    subtracted coefficients, so identical kernels give 0.0 exactly.
    """
    x_poly, g_poly = np.asarray(x_poly, dtype=float), np.asarray(g_poly, dtype=float)
    a, b = pearson_support(coeffs)
    quad_comp = npoly.polyadd(
        npoly.polyadd(coeffs.alpha * npoly.polymul(x_poly, x_poly), coeffs.beta * x_poly), [coeffs.gamma])
    m_in = npoly.polysub(g_poly, quad_comp)

    candidates = [[0.0], _real_roots(npoly.polyder(m_in)), _real_roots(npoly.polyder(g_poly))]
    candidates += [_real_roots(npoly.polysub(x_poly, [level])) for level in (a, b) if math.isfinite(level)]
    candidates.append([end for end in domain if math.isfinite(end)])
    ts = np.unique(np.concatenate([np.asarray(c, dtype=float) for c in candidates]))
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


def _poly_limit(coeffs, end: float) -> float:
    """Limit of the polynomial as t -> end = +-inf: its constant if it has no other term."""
    deg = max((k for k, c in enumerate(coeffs) if k > 0 and c != 0.0), default=0)
    return math.copysign(math.inf, coeffs[deg] * end**deg) if deg else float(coeffs[0])


def dominance_margin(x_series: HermiteSeries, coeffs: PearsonCoefficients) -> tuple[float, float]:
    """(min margin, argmin) of G(n) - g(X(n)) over the whole line, exact (see ``margin_extrema``)."""
    res = margin_extrema(x_series.to_polynomial().coeffs, malliavin_G(x_series).coeffs, coeffs,
                         (-math.inf, math.inf))
    return res["min"], res["argmin"]


# ---------------------------------------------------------------------------
# integration-by-parts checks


def _compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Coefficients of outer(inner(n)) by Horner in polynomial arithmetic."""
    acc = np.array([0.0])
    for c in outer[::-1]:
        acc = npoly.polyadd(npoly.polymul(acc, inner), [c])
    return acc


def expect_polynomial(poly_coeffs) -> float:
    """E[p(N)] by probabilists' Gauss-Hermite with exactness-level node count."""
    c = np.atleast_1d(np.asarray(poly_coeffs, dtype=float))
    nodes = max(len(c) // 2 + 1, 2)
    x, w = herme.hermegauss(nodes)
    return float(np.dot(w, npoly.polyval(x, c)) / _SQRT_2PI)


def ibp_check(x_series: HermiteSeries, m_poly) -> float:
    """|E[X m(X)] - E[m'(X) G]| by exact Gauss-Hermite quadrature.

    m is a polynomial (monomial coefficients or PolynomialInN); the bounded
    derivative hypothesis of the underlying identity is relaxed to polynomial
    growth, which Gaussian integrability covers at this scale.
    """
    m = np.asarray(m_poly.coeffs if isinstance(m_poly, PolynomialInN) else m_poly, dtype=float)
    x_poly = np.asarray(x_series.to_polynomial().coeffs)
    g_poly = np.asarray(malliavin_G(x_series).coeffs)
    lhs = npoly.polymul(x_poly, _compose(m, x_poly))
    rhs = npoly.polymul(_compose(npoly.polyder(m), x_poly), g_poly)
    return abs(expect_polynomial(lhs) - expect_polynomial(rhs))
