"""Quadratic-kernel (Pearson) reference laws.

A centered law in this family is determined by the coefficient triple
(alpha, beta, gamma) of its Stein kernel

    g(z) = alpha*z**2 + beta*z + gamma     on the support (a, b),

equivalently by the log-density derivative rho'/rho = -((2*alpha+1)z + beta)/g.
The classification by degree and root pattern of g gives five canonical shapes:

    Normal            alpha = 0, beta = 0        support R
    Gamma             alpha = 0, beta != 0       support half-line
    Beta              alpha < 0                  bounded support
    InverseGammaType  alpha > 0, double root     support half-line
    NoRealRoots       alpha > 0, complex roots   support R, power tails

This module classifies coefficient triples, recovers canonical shape/scale
parameters, and evaluates densities, tails, quantiles, moments, and the
companion function q(z) = (1-alpha)z**2 + gamma that controls every derivative
bound downstream.

Everything that depends on the case is one row of one table, ``_CASES``
(docs/DECISIONS.md, decision 9): the support, the canonical parameters and
log C, the vectorized log-density and tail/cdf on the canonical beta >= 0
form (case 5 reads one cached table of Gauss-Legendre panels, which also
gives its normalization), the quantile start and the sampler's inverse, and
the right-tail asymptotics.  Laws with beta < 0 in the half-line cases are
reflections of the canonical form and carry ``mirrored=True``; they are
evaluated at -x with the tail and the cdf swapped.  Every pointwise evaluator,
``quantile`` and ``partial_moments`` included, is called as (law, x), x a number
or an array of any shape (``errors.pointwise``): a number gives a float, an array
an array of x's shape; a NaN point raises ``DomainError``.
The sampler inverts the tail through one cached cubic-Hermite table per law
but the Normal, built piece by piece as points reach it; case 5's nodes and
``quantile`` are bracketed Newton solves.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import special as _sp

from . import quadrature, rng
from .errors import (
    DomainError,
    InvalidCoefficientsError,
    InvalidProbabilityError,
    InverseTableError,
    MomentDoesNotExistError,
    UnsupportedCaseError,
    as_float,
    as_int,
    pointwise,
    reading,
)

__all__ = [
    "CaseTag",
    "PearsonCoefficients",
    "PearsonLaw",
    "classify",
    "build_law",
    "support",
    "stein_kernel",
    "q_function",
    "log_density",
    "density",
    "flux",
    "kernel_and_flux",
    "tail",
    "partial_moments",
    "log_tail",
    "tail_asymptotics",
    "cdf",
    "quantile",
    "quantile_grid",
    "sample",
    "moment",
    "moment_exists",
    "variance",
    "law_to_json",
    "law_from_json",
]

# Relative snap tolerance for degree/discriminant classification.
TAU_CLS = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)
_TINY = np.finfo(float).tiny  # below it a double is subnormal and holds few digits


class CaseTag(str, Enum):
    NORMAL = "Normal"
    GAMMA = "Gamma"
    BETA = "Beta"
    INVERSE_GAMMA_TYPE = "InverseGammaType"
    NO_REAL_ROOTS = "NoRealRoots"


@dataclass(frozen=True)
class PearsonCoefficients:
    """Kernel coefficients g(z) = alpha*z**2 + beta*z + gamma, each stored as a float and checked when made."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):  # a string, a bool or None raises DomainError, which names it
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma))):
            raise InvalidCoefficientsError(f"coefficients must be finite, got {self}")
        if not self.gamma > 0.0:
            raise InvalidCoefficientsError(f"gamma must be positive (g(0) > 0), got {self.gamma}")
        if not self.alpha < 1.0:
            raise InvalidCoefficientsError(f"alpha must be < 1 for a finite variance, got {self.alpha}")

    def kernel(self, z):
        return (self.alpha * z + self.beta) * z + self.gamma


def classify(coeffs: PearsonCoefficients) -> CaseTag:
    """Classify coefficients into one of the five canonical cases.

    Degree and discriminant are tested with the relative snap tolerance
    TAU_CLS.  The combination alpha > 0 with two real roots is Pearson type VI
    (beta-prime or F laws), which is not one of the five supported cases
    (docs/DECISIONS.md, decision 5).
    """
    a, b, g = coeffs.alpha, coeffs.beta, coeffs.gamma
    scale = max(1.0, abs(b), abs(g))
    if abs(a) < TAU_CLS * scale:
        if abs(b) < TAU_CLS * scale:
            return CaseTag.NORMAL
        return CaseTag.GAMMA
    if a < 0.0:
        return CaseTag.BETA
    disc = b * b - 4.0 * a * g
    if abs(disc) < TAU_CLS * (b * b + 4.0 * abs(a * g)):
        return CaseTag.INVERSE_GAMMA_TYPE
    if disc < 0.0:
        return CaseTag.NO_REAL_ROOTS
    raise InvalidCoefficientsError(
        "alpha > 0 with two real roots is Pearson type VI (beta-prime or F law), which steintail does not support"
    )


def support(coeffs: PearsonCoefficients) -> tuple[float, float]:
    """Open interval (a, b) where the kernel is positive and contains 0: between the real roots of g nearest 0."""
    return _support(coeffs, classify(coeffs))


def _support(coeffs: PearsonCoefficients, case: CaseTag) -> tuple[float, float]:
    roots = _CASES[case].roots(coeffs)
    return (max((x for x in roots if x < 0.0), default=-math.inf),
            min((x for x in roots if x > 0.0), default=math.inf))


@dataclass(frozen=True)
class PearsonLaw:
    """Classified law with canonical parameters and evaluator state.

    For mirrored laws (beta < 0 in the half-line cases) the canonical
    parameters r, s, mu describe the reflected beta > 0 form; support_a and
    support_b are always the actual support.
    """

    coeffs: PearsonCoefficients
    case: CaseTag
    r: Optional[float]
    s: Optional[float]
    mu: Optional[float]
    delta: Optional[float]
    support_a: float
    support_b: float
    log_norm_const: float
    mirrored: bool = False

    @property
    def variance(self) -> float:
        return self.coeffs.gamma / (1.0 - self.coeffs.alpha)


def build_law(coeffs: PearsonCoefficients) -> PearsonLaw:
    """Recover canonical parameters and the log normalization constant."""
    case = classify(coeffs)
    a, b = _support(coeffs, case)
    mirrored = a == -math.inf and b < math.inf  # a left half-line reflects the canonical right one
    canonical = PearsonCoefficients(coeffs.alpha, -coeffs.beta, coeffs.gamma) if mirrored else coeffs
    r, s, mu, delta, log_c = _CASES[case].params(canonical, a, b)
    return PearsonLaw(coeffs, case, r, s, mu, delta, a, b, log_c, mirrored)


# ---------------------------------------------------------------------------
# the per-case forms that `_CASES` collects: roots of g, canonical parameters,
# and vectorized forms on the canonical (beta >= 0) form, for 1-d points z;
# mirroring is applied in `_side`, `_log_density` and in the sampler


def _beta_roots(coeffs: PearsonCoefficients) -> tuple[float, float]:
    """q/alpha and gamma/q with q = -(beta + sign(beta) sqrt(disc))/2: neither root cancels."""
    al, be = coeffs.alpha, coeffs.beta
    disc = be * be - 4.0 * al * coeffs.gamma
    if not math.isfinite(disc):
        raise InvalidCoefficientsError(f"discriminant of {coeffs} is beyond the doubles")
    q = -0.5 * (be + math.copysign(math.sqrt(disc), be))
    return q / al, (coeffs.gamma / q if be else -q / al)  # beta = 0: the exactly symmetric pair


def _gamma_params(c: PearsonCoefficients, a: float, b: float):
    r = c.gamma / (c.beta * c.beta)
    mu = c.gamma / c.beta
    log_c = -r * math.log(c.beta) - _sp.gammaln(r)
    # the mean r s = mu is an exact consequence of the recovery; it fails on a shape lost to underflow
    if not (abs(r * c.beta - mu) <= 1e-9 * mu and math.isfinite(log_c)):
        raise InvalidCoefficientsError(f"Gamma shape of {c} is not recoverable in doubles: r={r}, ln C={log_c}")
    return r, c.beta, mu, None, log_c


def _beta_params(c: PearsonCoefficients, a: float, b: float):
    w = b - a
    r = a / (c.alpha * w)
    s = -b / (c.alpha * w)
    # exact consequence of the recovery; fails on a root-order slip or a shape lost to underflow
    if not (r > 0 and s > 0 and abs(w * r / (r + s) + a) <= 1e-9 * max(1.0, w)):
        raise InvalidCoefficientsError(f"Beta shapes of {c} are not recoverable in doubles: r={r}, s={s}")
    log_beta_fn = _sp.gammaln(r) + _sp.gammaln(s) - _sp.gammaln(r + s)
    return r, s, None, None, -log_beta_fn - (r + s - 1.0) * math.log(w)


def _invgamma_params(c: PearsonCoefficients, a: float, b: float):
    mu = c.beta / (2.0 * c.alpha)
    r = 2.0 + 1.0 / c.alpha
    s = mu / c.alpha  # > 0: classify gives this case only where beta^2 > 0, and the canonical beta is > 0
    return r, s, mu, None, (r - 1.0) * math.log(s) - _sp.gammaln(r - 1.0)


def _case5_params(c: PearsonCoefficients, a: float, b: float):
    # kernel alpha*((z+mu)^2 + delta^2)
    mu = c.beta / (2.0 * c.alpha)
    delta = math.sqrt(4.0 * c.alpha * c.gamma - c.beta * c.beta) / (2.0 * c.alpha)
    r = 1.0 + 1.0 / (2.0 * c.alpha)
    s = mu / (c.alpha * delta)
    # rho(z) dz = C delta^(1 - 2r) f(xi) dxi, with f the table's xi-density
    tab = _case5_table(r, s)
    return r, s, mu, delta, -((1.0 - 2.0 * r) * math.log(delta) + tab.log_peak + tab.log_mass)


def _normal_side(law: PearsonLaw, z, upper: bool):
    u = z if upper else -z
    out = 0.5 * _sp.erfc(u / (law.s * math.sqrt(2.0)))
    if not out.all():  # erfc flushes to 0 below about 1e-309; log_ndtr keeps the subnormals
        out = np.where(out == 0.0, np.exp(_sp.log_ndtr(-u / law.s)), out)
    return out


def _gamma_log_pdf(law: PearsonLaw, z):
    u = z + law.mu
    inside = u > 0.0
    v = np.where(inside, u, 1.0)
    out = np.where(inside, law.log_norm_const + (law.r - 1.0) * np.log(v) - v / law.s, -np.inf)
    if law.r <= 1.0:  # continuous limit at the end: a pole, or ln C where the exponent r - 1 is 0
        out = np.where(u == 0.0, np.inf if law.r < 1.0 else law.log_norm_const, out)
    return out


def _gamma_log_tail(law: PearsonLaw, z):
    """ln Q(r, x), x = (z + mu)/s: the log of the tail down to the smallest normal double.

    Below it Q = x^r e^(-x) h/Gamma(r), in logs, with h the Legendre continued fraction
    1/(x + 1 - r - 1(1 - r)/(x + 3 - r - 2(2 - r)/(x + 5 - r - ...))) (DLMF 8.9.2) summed from
    its 16th term: there 6 terms reach the rounding for every r from 1e-3 to 1e12, fewer further out.
    """
    t = _side(law, z, True)
    deep = t < _TINY
    r, x = law.r, (z[deep] + law.mu) / law.s
    f = 0.0
    for k in range(16, 0, -1):
        f = k * (k - r) / (x + 2 * k + 1 - r - f)
    with np.errstate(divide="ignore", invalid="ignore"):  # x = inf: the tail's log is -inf
        out = np.log(t)
        out[deep] = np.where(x == np.inf, -np.inf, r * np.log(x) - x - _sp.gammaln(r) - np.log(x + 1.0 - r - f))
    return out


def _beta_log_pdf(law: PearsonLaw, z):
    a, b = law.support_a, law.support_b
    inside = (z > a) & (z < b)
    za = np.where(inside, z - a, 1.0)
    bz = np.where(inside, b - z, 1.0)
    out = np.where(inside, law.log_norm_const + (law.r - 1.0) * np.log(za) + (law.s - 1.0) * np.log(bz), -np.inf)
    if law.r <= 1.0:  # as for the Gamma, a pole or the finite limit at each end
        out = np.where(z == a, np.inf if law.r < 1.0 else law.log_norm_const + (law.s - 1.0) * math.log(b - a), out)
    if law.s <= 1.0:
        out = np.where(z == b, np.inf if law.s < 1.0 else law.log_norm_const + (law.r - 1.0) * math.log(b - a), out)
    return out


def _beta_side(law: PearsonLaw, z, upper: bool):
    # each point from its nearer end, so no argument rounds next to 1; a midpoint
    # goes to betainc on either side, so the reflected law reads the same expression
    a, b = law.support_a, law.support_b
    near_a = z - a < b - z if upper else z - a <= b - z
    x = np.clip(np.where(near_a, z - a, b - z) / (b - a), 0.0, 1.0)
    out = np.empty_like(x)
    out[near_a] = (_sp.betaincc if upper else _sp.betainc)(law.r, law.s, x[near_a])
    out[~near_a] = (_sp.betainc if upper else _sp.betaincc)(law.s, law.r, x[~near_a])
    return out


def _invgamma_log_pdf(law: PearsonLaw, z):
    u = z + law.mu
    inside = u > 0.0
    v = np.where(inside, u, 1.0)
    return np.where(inside, law.log_norm_const - law.r * np.log(v) - law.s / v, -np.inf)


def _invgamma_side(law: PearsonLaw, z, upper: bool):
    # the tail is the lower regularized gamma of s/(z + mu), the cdf the upper
    u = z + law.mu
    inside = u > 0.0
    arg = np.where(inside, law.s / np.maximum(u, 1e-300), np.inf)
    if not upper:
        return np.where(inside, _sp.gammaincc(law.r - 1.0, arg), 0.0)
    out = np.where(inside, _sp.gammainc(law.r - 1.0, arg), 1.0)
    sub = (out < _TINY) & (arg > 0.0)  # gammainc loses a subnormal's bits, then flushes it to 0
    if sub.any():  # P(a, x) = x^a e^-x / Gamma(a + 1) 1F1(1; a + 1; x), the power taken last to keep the bits
        x, a = arg[sub], law.r - 1.0
        out[sub] = np.power(x * np.exp(-(x + _sp.gammaln(law.r)) / a), a) * _sp.hyp1f1(1.0, law.r, x)
    return out


def _case5_log_pdf(law: PearsonLaw, z):
    # ln rho(z) = ln(f(xi)/f(xi_m)) - ln(mass) - ln(delta cosh xi): no large constant cancels, however small alpha is
    xi = np.arcsinh((z + law.mu) / law.delta)
    return (_case5_log_f(law.r, law.s, xi) - _case5_table(law.r, law.s).log_mass
            - math.log(law.delta) - _log_cosh(xi))


# Case 5 integrates in xi = asinh((z + mu)/delta), where the density is
# C delta^(1 - 2r) f(xi), f(xi) = cosh(xi)^(1 - 2r) e^(s gd(xi)), and both power
# tails are exponential.  Every tail, cdf and normalization reads one cached
# table per (r, s) of panels summed from each end (docs/DECISIONS.md, decision 2).

_XI_DROP = 800.0  # beyond, the mass is below the smallest double, whatever r and s
_XI_STEP = 8.0    # panel width times the largest |d ln f/d xi| on the table
_XI_WIDTH = 1.0   # widest panel: f has poles at xi = +-i pi/2


class _XiTable(NamedTuple):
    edges: np.ndarray  # panel ends in xi, uniform
    log_mass: float    # ln of the integral of f/f(xi_m) over the line
    log_peak: float    # ln f(xi_m)
    upper: np.ndarray  # P[xi > edges[k]], summed from the right end
    lower: np.ndarray  # P[xi <= edges[k]], summed from the left end


def _log_cosh(xi):
    """ln cosh(xi) without overflow, to an absolute error of a few eps |xi|."""
    a = np.abs(xi)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _case5_log_f(r: float, s: float, xi):
    """ln f(xi) - ln f(xi_m), the peak at sinh(xi_m) = s/(2r - 1), in d = xi - xi_m.

    gd(xi) - gd(xi_m) = 2 arctan(S t / (1 + T t)) and, for |d| < 1,
    cosh(xi)/cosh(xi_m) = 1 + u (u + T (2 + u)) / (2 + 2u), with t = tanh(d/2),
    u = expm1(d), T = tanh(xi_m), S = sech(xi_m): rounding grows with |s d S|,
    not with |s|, which is huge for a small alpha with beta != 0.
    """
    e = 2.0 * r - 1.0
    xm = math.asinh(s / e)
    tm, sm = math.tanh(xm), 1.0 / math.cosh(xm)
    d = xi - xm
    near = np.abs(d) < 1.0
    log_ratio = np.empty_like(d)
    u = np.expm1(d[near])
    log_ratio[near] = np.log1p(u * (u + tm * (2.0 + u)) / (2.0 + 2.0 * u))
    log_ratio[~near] = _log_cosh(xi[~near]) - _log_cosh(xm)
    t = np.tanh(0.5 * d)
    return -e * log_ratio + 2.0 * s * np.arctan(sm * t / (1.0 + tm * t))


@functools.lru_cache(maxsize=32)
def _case5_table(r: float, s: float) -> _XiTable:
    """The panels of f for shape r and skew s; their width and range follow from r and s alone.

    The range ends where ln f has fallen by _XI_DROP, one bracketed solve per
    side inside the bound ln f - peak <= |s| pi/2 - e(|xi| - ln 2), e = 2r - 1.
    The slope s sech(xi) - e tanh(xi) is extreme at sinh(xi) = -e/s, where it
    is hypot(e, s), or at an end.
    """
    e = 2.0 * r - 1.0
    slope = lambda xi: s / np.cosh(xi) - e * np.tanh(xi)
    xi_peak = math.asinh(s / e)
    far = math.log(2.0) + (_XI_DROP + abs(s) * math.pi / 2.0) / e
    with np.errstate(over="ignore"):
        lo, hi = quadrature.solve_monotone(lambda xi, i: (_case5_log_f(r, s, xi) + _XI_DROP, slope(xi)),
                                           [-far, xi_peak], [xi_peak, far], [True, False], xtol=1e-9)
    steepest = max(abs(slope(lo)), abs(slope(hi)))
    if s != 0.0 and lo < math.asinh(-e / s) < hi:
        steepest = math.hypot(e, s)
    n = math.ceil((hi - lo) / min(_XI_WIDTH, _XI_STEP / steepest))
    edges = np.linspace(lo, hi, n + 1)
    panels = quadrature.panel_integrals(lambda xi: np.exp(_case5_log_f(r, s, xi)), edges[:-1], edges[1:])
    upper = np.append(np.cumsum(panels[::-1])[::-1], 0.0)
    lower = np.insert(np.cumsum(panels), 0, 0.0)
    # each sum divided by its own total, so both reach exactly 1 at their far end
    log_peak = (1.0 - 2.0 * r) * float(_log_cosh(xi_peak)) + 2.0 * s * math.atan(math.tanh(0.5 * xi_peak))
    return _XiTable(edges, math.log(upper[0]), log_peak, upper / upper[0], lower / lower[-1])


def _case5_xi_side(law: PearsonLaw, xi: np.ndarray, upper: bool) -> np.ndarray:
    """P[Xi > xi] (upper) or P[Xi <= xi] at every point of a 1-d xi: the table's sum
    beyond the point's panel plus its own rule over the rest, so no point depends on another."""
    tab = _case5_table(law.r, law.s)
    edges = tab.edges
    x = np.clip(xi, edges[0], edges[-1])  # beyond the ends the far-side mass is below the smallest double
    if upper:  # from x up to the first panel end at or above it
        k = np.minimum(np.searchsorted(edges, x), edges.size - 1)
        lo, hi, base = x, edges[k], tab.upper[k]
    else:  # from the last panel end at or below x
        k = np.maximum(np.searchsorted(edges, x, side="right") - 1, 0)
        lo, hi, base = edges[k], x, tab.lower[k]
    rho = lambda t: np.exp(_case5_log_f(law.r, law.s, t) - tab.log_mass)
    return base + quadrature.panel_integrals(rho, lo, hi)


def _case5_side(law: PearsonLaw, zs, upper: bool):
    with np.errstate(over="ignore"):  # xi = +-inf beyond the doubles is right
        xi = np.arcsinh((zs + law.mu) / law.delta)
    return _case5_xi_side(law, xi, upper)


# ---------------------------------------------------------------------------
# the sampler's inverse table: every non-Normal law samples through one cubic
# Hermite table of y(t), with t the logit of the tail probability of the
# canonical law and y an end-free coordinate of it: ln(z + mu) on a half-line
# (taken from the canonical variable, never from x, so a density pole at the
# end loses nothing), the logit of the position in the interval for Beta, and
# z itself in case 5.  Nodes are exact inverses, and the slopes are exact too:
# dy/dt = -u(1-u)/rho_y(y), with rho_y the density of y.

_TABLE_NODES = 8193
_T_MAX = math.log(rng.U_MAX / rng.U_MIN)  # logit(U_MAX), exactly ln(2^53 - 1); the nodes span [-_T_MAX, _T_MAX]
_H = 2.0 * _T_MAX / (_TABLE_NODES - 1)
_TABLE_TOL = 1e-10  # bound on |logit p' - logit p|, node error plus interpolation error
_NEWTON_TOL = 0.5 * _TABLE_TOL  # case 5's node error; closed-form nodes are exact to rounding


def _logit(u: np.ndarray) -> np.ndarray:
    """ln(u / (1 - u)); 1 - u is exact for u >= 1/2, so the upper tail keeps its digits."""
    t = 1.0 - u
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(u, t, out=t)
        return np.log(t, out=t)


def _locate(t: np.ndarray) -> np.ndarray:
    """The piece of the table each logit t falls in; t is overwritten by its coordinate in that piece."""
    t += _T_MAX
    t *= 1.0 / _H
    k = t.astype(np.intp)
    np.minimum(k, _TABLE_NODES - 2, out=k)
    t -= k
    return k


def _hermite(coef: np.ndarray, k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The cubics coef[:, k] at their coordinates u, in Horner form."""
    c0, c1, c2, c3 = coef
    y = c3[k]
    y *= u
    y += c2[k]
    y *= u
    y += c1[k]
    y *= u
    y += c0[k]
    return y


def _build_pieces(law: PearsonLaw, ks: np.ndarray):
    """Horner coefficients, shape (4, ks.size), of y on the distinct pieces ks, and each
    piece's check: its error in logit against the exact inverse at its midpoint, where the cubic's
    error peaks, and whether it lies in the Fritsch-Carlson region, where exact slopes make it monotone.

    Every node and midpoint is one elementwise solve, so a piece has the same bits whichever
    other pieces are built with it.
    """
    form = _CASES[law.case]
    needed = np.zeros(_TABLE_NODES, dtype=bool)
    needed[ks] = needed[ks + 1] = True  # each node once, where two pieces share it too
    nodes = np.flatnonzero(needed)
    at = np.cumsum(needed) - 1  # node j is solved at t[at[j]]
    left, right, n = at[ks], at[ks + 1], nodes.size
    grid = np.linspace(-_T_MAX, _T_MAX, 2 * _TABLE_NODES - 1)  # the nodes and the midpoints between them
    t = grid[np.concatenate([2 * nodes, 2 * ks + 1])]
    with np.errstate(all="ignore"):
        y = form.nodes(law, t)
        # ln u(1-u) = -softplus(-t) - softplus(t)
        slope = -np.exp(-np.logaddexp(0.0, -t) - np.logaddexp(0.0, t) - form.y_log_pdf(law, y))
        y0, y1, m0, m1 = y[left], y[right], _H * slope[left], _H * slope[right]
        coef = np.array([y0, m0, 3.0 * (y1 - y0) - 2.0 * m0 - m1, 2.0 * (y0 - y1) + m0 + m1])
        mid = t[n:].copy()
        _locate(mid)  # the piece of each midpoint is its own
        err = np.abs(_hermite(coef, np.arange(ks.size), mid) - y[n:]) / -slope[n:]
        a, b = m0 / (y1 - y0), m1 / (y1 - y0)
        monotone = (a >= 0.0) & (b >= 0.0) & (a * a + b * b <= 9.0)
    return coef, err, monotone


class _InverseTable:
    """One law's table, built piece by piece as draws reach it; a built piece never changes.

    ``coef`` holds the Horner coefficients of every piece, ``built`` marks the pieces built so
    far, and ``full`` says all are.  Threads may read one table at once: the pieces a call
    needs are built under ``lock``, and a piece is marked built only after its coefficients are
    stored.
    """

    def __init__(self, law: PearsonLaw):
        self.law = law
        self.coef = np.empty((4, _TABLE_NODES - 1))
        self.built = np.zeros(_TABLE_NODES - 1, dtype=bool)
        self.full = False
        self.lock = threading.Lock()

    def build(self, k: np.ndarray) -> None:
        """Build the pieces k that are not built yet, in one call; a piece that misses its
        bound or is not monotone raises ``InverseTableError`` and stays unbuilt."""
        if self.full:
            return
        with self.lock:
            new = np.zeros(_TABLE_NODES - 1, dtype=bool)
            new[k] = True
            new = np.flatnonzero(new & ~self.built)  # another thread may have built some meanwhile
            if not new.size:
                return
            coef, err, monotone = _build_pieces(self.law, new)
            bound = _TABLE_TOL - _CASES[self.law.case].node_err
            bad = ~((err <= bound) & monotone)  # NaN fails too
            if bad.any():
                t = _H * new[bad] - _T_MAX
                raise InverseTableError(
                    f"inverse table for {self.law.coeffs} misses its bound on {bad.sum()} pieces in "
                    f"t = [{t.min():.3g}, {t.max() + _H:.3g}]: interpolation error in logit "
                    f"{np.max(err[bad]):.3g} (bound {bound:.3g}), monotone pieces: {bool(monotone.all())}")
            self.coef[:, new] = coef
            self.built[new] = True
            self.full = bool(self.built.all())

    def at(self, t: np.ndarray) -> np.ndarray:
        """y at the logit-tails t, building the pieces they fall in first; t is overwritten."""
        k = _locate(t)
        if not self.full and not self.built[k].all():
            self.build(k)
        return _hermite(self.coef, k, t)


_TABLES_LOCK = threading.Lock()  # one table per law, however many threads ask for it at once


@functools.lru_cache(maxsize=32)
def _inverse_table(law: PearsonLaw) -> _InverseTable:
    return _InverseTable(law)


def _table(law: PearsonLaw) -> _InverseTable:
    with _TABLES_LOCK:
        return _inverse_table(law)


def _two_sided(t: np.ndarray, upper: Callable, lower: Callable) -> np.ndarray:
    """upper(p) at the tail p = expit(t) for t <= 0, lower(q) at the cdf q = expit(-t) for t > 0."""
    up = t <= 0.0
    p = _sp.expit(-np.abs(t))
    y = np.empty_like(t)
    y[up] = upper(p[up])
    y[~up] = lower(p[~up])
    return y


def _log_small_inverse(x: np.ndarray, p: np.ndarray, a: float, log_k: float) -> np.ndarray:
    """ln x for an inverse x of F(x) = p, where F(x) ~ x^a / k at 0.

    Below 1e-250 the power law replaces the closed form, which underflows
    there for small shapes; the next term of F is O(x) smaller.
    """
    return np.where(x > 1e-250, np.log(x), (np.log(p) + log_k) / a)


def _gamma_nodes(law: PearsonLaw, t: np.ndarray) -> np.ndarray:
    r, log_k = law.r, _sp.gammaln(law.r + 1.0)  # P(r, x) ~ x^r / Gamma(r + 1)
    return math.log(law.s) + _two_sided(
        t, lambda p: _log_small_inverse(_sp.gammainccinv(r, p), 1.0 - p, r, log_k),
        lambda q: _log_small_inverse(_sp.gammaincinv(r, q), q, r, log_k))


def _beta_logit_inverse(p: np.ndarray, a: float, b: float) -> np.ndarray:
    """logit x for I_x(a, b) = p, from the one inverse of x or 1 - x that is at most 1/2.

    p <= I_(1/2)(a, b) puts x at or below 1/2; the other end is then log1p of
    minus the one solved.
    """
    log_beta = _sp.betaln(a, b)  # I_x(a, b) ~ x^a / (a B(a, b))
    near_0 = p <= _sp.betainc(a, b, 0.5)
    out = np.empty_like(p)
    x = _sp.betaincinv(a, b, p[near_0])
    out[near_0] = _log_small_inverse(x, p[near_0], a, math.log(a) + log_beta) - np.log1p(-x)
    w = _sp.betainccinv(b, a, p[~near_0])  # 1 - x
    out[~near_0] = np.log1p(-w) - _log_small_inverse(w, 1.0 - p[~near_0], b, math.log(b) + log_beta)
    return out


def _beta_to_z(law: PearsonLaw, y: np.ndarray) -> np.ndarray:
    a, b = law.support_a, law.support_b
    v = np.exp(-np.abs(y))
    v /= 1.0 + v  # expit(-|y|): the position's distance to the nearer end, in units of b - a
    v *= b - a
    return np.where(y < 0.0, a + v, b - v)


def _half_line_to_z(law: PearsonLaw, y: np.ndarray) -> np.ndarray:
    np.exp(y, out=y)
    y -= law.mu
    return y


def _inverse_start(law: PearsonLaw, p: np.ndarray) -> np.ndarray:
    """The closed-form inverse that the sampler's table interpolates, at the tails p."""
    form, sign = _CASES[law.case], -1.0 if law.mirrored else 1.0
    return sign * form.to_z(law, form.nodes(law, sign * (np.log(p) - np.log1p(-p))))


def _case5_xi_start(law: PearsonLaw, t: np.ndarray) -> np.ndarray:
    """xi at logit-tail t, interpolated in the logit at the panel ends of the case-5 table."""
    tab = _case5_table(law.r, law.s)
    with np.errstate(divide="ignore"):
        logit = np.log(tab.upper) - np.log(tab.lower)
    ok = np.isfinite(logit)
    return np.interp(-t, -logit[ok], tab.edges[ok])  # logit falls as xi grows


def _case5_nodes(law: PearsonLaw, t: np.ndarray) -> np.ndarray:
    """z at logit-tail t: one ``quadrature.solve_monotone`` on logit P[Z > z] in xi = asinh((z + mu)/delta).

    Each point integrates only its smaller side, the tail for t <= 0 and the
    cdf for t > 0: with that side v, the logit is +-(ln v - log1p(-v)) and
    its slope -rho/(v(1 - v)).  Every bracket is the table's range, and the
    start interpolates the logit at its panel ends; in xi the power tails make
    it nearly linear.  A node stops after a Newton step of at most 1e-12 in
    xi, which leaves its logit residual far inside _NEWTON_TOL, the node error
    the midpoint check charges; only the nodes still running are integrated again.
    """
    tab = _case5_table(law.r, law.s)

    def logit_side(xi, i):  # falls as xi grows, on either side
        up, v = t[i] <= 0.0, np.empty_like(xi)
        v[up] = _case5_xi_side(law, xi[up], True)
        v[~up] = _case5_xi_side(law, xi[~up], False)
        logit = np.log(v) - np.log1p(-v)
        rho = np.exp(_case5_log_f(law.r, law.s, xi) - tab.log_mass)
        return np.where(up, logit, -logit) - t[i], -rho / (v * (1.0 - v))

    ends = np.full(t.shape, tab.edges[0]), np.full(t.shape, tab.edges[-1])
    xi = quadrature.solve_monotone(logit_side, *ends, False, _case5_xi_start(law, t), xtol=1e-12)
    return law.delta * np.sinh(xi) - law.mu


class _Case(NamedTuple):
    """One row of ``_CASES``: everything that depends on the case (docs/DECISIONS.md, decision 9)."""

    roots: Callable    # coeffs -> the real roots of g; the support ends at the nearest ones around 0
    params: Callable   # (canonical coeffs, a, b) -> (r, s, mu, delta, ln C)
    log_pdf: Callable  # (law, z) -> ln rho, on the canonical form
    side: Callable     # (law, z, upper) -> P[Z > z] if upper else P[Z <= z], on the canonical form
    # the sampler's inverse table (docs/DECISIONS.md, decision 4); no nodes: `start` is the exact inverse
    nodes: Optional[Callable] = None      # (law, t) -> y at logit-tail t, on the canonical form
    y_log_pdf: Optional[Callable] = None  # (law, y) -> ln rho_y
    to_z: Optional[Callable] = None       # (law, y) -> z, overwriting y where it can
    node_err: float = 0.0                 # bound on the nodes' own error in logit
    start: Callable = _inverse_start      # (law, p) -> z near the quantiles at tails p, mirroring included
    log_tail: Optional[Callable] = None    # (law, z) -> ln P[Z > z], canonical, past the tail's underflow
    right_tail: Optional[Callable] = None  # law -> (ln K, p, scale) of the canonical form


_CASES = {
    CaseTag.NORMAL: _Case(
        lambda c: (),
        lambda c, a, b: (None, math.sqrt(c.gamma), 0.0, None, -0.5 * _LOG_2PI - math.log(math.sqrt(c.gamma))),
        log_pdf=lambda law, z: law.log_norm_const - z * z / (2.0 * law.coeffs.gamma),
        side=_normal_side,
        start=lambda law, p: law.s * math.sqrt(2.0) * _sp.erfcinv(2.0 * p),
        log_tail=lambda law, z: _sp.log_ndtr(-z / law.s)),
    CaseTag.GAMMA: _Case(
        lambda c: (-c.gamma / c.beta,), _gamma_params, _gamma_log_pdf,
        side=lambda law, z, upper: (_sp.gammaincc if upper else _sp.gammainc)(
            law.r, np.maximum(z + law.mu, 0.0) / law.s),
        nodes=_gamma_nodes, y_log_pdf=lambda law, y: law.log_norm_const + law.r * y - np.exp(y) / law.s,
        to_z=_half_line_to_z,
        log_tail=_gamma_log_tail,
        right_tail=lambda law: (law.log_norm_const + math.log(law.s) - law.mu / law.s, law.r, law.s)),
    CaseTag.BETA: _Case(
        _beta_roots, _beta_params, _beta_log_pdf, _beta_side,
        nodes=lambda law, t: _two_sided(t, lambda p: -_beta_logit_inverse(p, law.s, law.r),
                                        lambda q: _beta_logit_inverse(q, law.r, law.s)),
        y_log_pdf=lambda law, y: (-_sp.betaln(law.r, law.s) - law.r * np.logaddexp(0.0, -y)
                                  - law.s * np.logaddexp(0.0, y)),
        to_z=_beta_to_z),
    CaseTag.INVERSE_GAMMA_TYPE: _Case(
        lambda c: (-c.beta / (2.0 * c.alpha),), _invgamma_params, _invgamma_log_pdf, _invgamma_side,
        nodes=lambda law, t: math.log(law.s) - np.log(_two_sided(
            t, lambda p: _sp.gammaincinv(law.r - 1.0, p), lambda q: _sp.gammainccinv(law.r - 1.0, q))),
        y_log_pdf=lambda law, y: law.log_norm_const + (1.0 - law.r) * y - law.s * np.exp(-y),
        to_z=_half_line_to_z,
        right_tail=lambda law: (law.log_norm_const + math.log(law.coeffs.alpha), -1.0 / law.coeffs.alpha, math.inf)),
    CaseTag.NO_REAL_ROOTS: _Case(
        lambda c: (), _case5_params, _case5_log_pdf, _case5_side,
        nodes=_case5_nodes, y_log_pdf=_case5_log_pdf, to_z=lambda law, y: y, node_err=_NEWTON_TOL,
        start=lambda law, p: law.delta * np.sinh(_case5_xi_start(law, np.log(p) - np.log1p(-p))) - law.mu,
        # g rho ~ C alpha e^(s gd(inf)) z^(-1/alpha), gd(inf) = pi/2
        right_tail=lambda law: (law.log_norm_const + math.log(law.coeffs.alpha) + law.s * math.pi / 2.0,
                                -1.0 / law.coeffs.alpha, math.inf)),
}


def _side(law: PearsonLaw, x: np.ndarray, upper: bool):
    """P[Z > x] (upper) or P[Z <= x] at every point of x."""
    if law.mirrored:
        x, upper = -x, not upper
    return _CASES[law.case].side(law, x, upper)


def _kernel(law: PearsonLaw, x: np.ndarray) -> np.ndarray:
    inside = (x > law.support_a) & (x < law.support_b)
    val = np.zeros(x.shape)
    val[inside] = law.coeffs.kernel(x[inside])  # only inside points: at +-inf nan; past |x| of 1e154 inf, its limit
    return val


_quiet_kernel = np.errstate(over="ignore")(_kernel)  # the kernel and q are inf past |x| of 1e154: no warning
_q = np.errstate(over="ignore")(lambda law, x: np.where((x > law.support_a) & (x < law.support_b),
                                                        (1.0 - law.coeffs.alpha) * x * x + law.coeffs.gamma, x * x))


def _log_density(law: PearsonLaw, x: np.ndarray):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _CASES[law.case].log_pdf(law, -x if law.mirrored else x)


def _kernel_flux(law: PearsonLaw, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g, the flux g rho and ln g + ln rho, which keeps its bits where the flux underflows."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # g is inf past |x| of 1e154
        g = _kernel(law, x)
        log_g = np.log(g)
        if log_g.max(initial=-np.inf) == np.inf:  # ln g = ln|x| + ln|alpha x + beta + gamma/x|, finite at every double
            c, big = law.coeffs, log_g == np.inf
            log_g[big] = np.log(np.abs(x[big])) + np.log(np.abs(c.alpha * x[big] + c.beta + c.gamma / x[big]))
        log_flux = log_g + _log_density(law, x)
        val = np.exp(log_flux)
    return g, np.where(np.isfinite(log_g), val, 0.0), log_flux  # 0 where g is 0, even against a pole: its limit


def _log_tail(law: PearsonLaw, z: np.ndarray):
    form = _CASES[law.case].log_tail
    if form is not None and not law.mirrored:
        return form(law, z)
    t = _side(law, z, True)
    lost = (t == 0.0) & (z < law.support_b)  # from the right end on the tail is exactly 0
    if lost.any():
        raise DomainError(f"tail underflow at z={z[lost][0]} with no asymptotic branch for case {law.case.value}")
    with np.errstate(divide="ignore"):
        return np.log(t)


def stein_kernel(law: PearsonLaw, x):
    """g(x) = (alpha x^2 + beta x + gamma) on the open support, 0 outside; inf, its limit, past |x| of 1e154."""
    return pointwise(_quiet_kernel, law, x)


def q_function(law: PearsonLaw, x):
    """q(x) = x^2 - x g'(x) + g(x): (1-alpha)x^2 + gamma inside, x^2 outside; inf, its limit, past |x| of 1e154."""
    return pointwise(_q, law, x)


def log_density(law: PearsonLaw, x):
    """ln rho(x); -inf outside the closed support, the continuous limit at a, b."""
    return pointwise(_log_density, law, x)


def density(law: PearsonLaw, x):
    return pointwise(lambda law, x: np.exp(_log_density(law, x)), law, x)


def flux(law: PearsonLaw, x):
    """g(x) rho(x) in log space; 0 where the kernel vanishes, even against a density pole."""
    return pointwise(lambda law, x: _kernel_flux(law, x)[1], law, x)


def kernel_and_flux(law: PearsonLaw, x):
    """(``stein_kernel``, ``flux``) at x from one evaluation of the kernel."""
    return pointwise(lambda law, x: _kernel_flux(law, x)[:2], law, x)


def tail(law: PearsonLaw, z):
    """Survival probability P[Z > z].

    Cases 1-4 read scipy.special (Beta from the nearer end, Normal through
    log_ndtr where erfc flushes to 0, the inverse-gamma type through its
    series below the normal doubles); case 5 its xi-panel table, within
    1e-12 relative of mpmath for z + mu up to 1e6 delta (tests/test_oracles.py).
    A tail below the smallest double is 0.
    """
    return pointwise(_side, law, z, True)


tail_grid = tail  # the benchmark harness reads tails under this old name; no steintail module does


def cdf(law: PearsonLaw, z):
    """P[Z <= z], complement-free so it keeps relative accuracy near the lower end."""
    return pointwise(_side, law, z, False)


def log_tail(law: PearsonLaw, z):
    """ln P[Z > z]: the case's own form where it has one (Normal's log_ndtr, Gamma's
    continued fraction below the smallest normal double), else the log of the tail."""
    return pointwise(_log_tail, law, z)


def _partial_moments(law: PearsonLaw, y: np.ndarray):
    c, t, (_, f, log_flux) = law.coeffs, _side(law, y, True), _kernel_flux(law, y)
    v, inside = y + c.beta, (law.support_a < y) & (y < law.support_b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # no flux out of the support, y may be inf
        logs = np.sign(v) * np.exp(np.log(np.abs(v)) + log_flux)  # (y + beta) g rho where the flux lost its bits
        return t, f, (np.where(f >= _TINY, v * f, np.where(inside, logs, 0.0)) + c.gamma * t) / (1.0 - c.alpha)


def partial_moments(law: PearsonLaw, y):
    """(P[Z > y], E[Z; Z > y], E[Z^2; Z > y]) in closed form, a tuple of floats for a number y.

    E[Z; Z > y] is the flux g(y) rho(y), and the Stein identity with the test
    function x 1{x > y} gives E[Z^2; Z > y] = ((y + beta) g rho + gamma P[Z > y]) / (1 - alpha),
    valid for every admissible alpha < 1.
    """
    return pointwise(_partial_moments, law, y)


def tail_asymptotics(law: PearsonLaw) -> tuple[float, float, float]:
    """The right tail g(z) rho(z) ~ K z^p e^(-z/scale) as (ln K, p, scale), from the case's row.

    Gamma: K = C s e^(-mu/s), p = r, scale = s.  Quadratic kernels: p = -1/alpha,
    scale = inf.  A finite right end or a Gaussian tail raises ``UnsupportedCaseError``.
    """
    if not isinstance(law, PearsonLaw):
        raise DomainError(f"law must be a PearsonLaw, got {law!r}")
    form = _CASES[law.case].right_tail
    if form is None or law.support_b != math.inf:
        raise UnsupportedCaseError(f"no right tail g rho ~ K z^p e^(-z/scale) for case {law.case.value}"
                                   + (" (mirrored)" if law.mirrored else ""))
    return form(law)


# ---------------------------------------------------------------------------
# quantiles and sampling


def _quantile(law: PearsonLaw, p: np.ndarray) -> np.ndarray:
    if not ((0.0 < p) & (p < 1.0)).all():
        raise InvalidProbabilityError(f"quantile requires 0 < p < 1, got values in [{p.min()}, {p.max()}]")
    sd = math.sqrt(law.variance)
    a = np.maximum(law.support_a, -sd * np.sqrt(p) / np.sqrt(1.0 - p))
    b = np.minimum(law.support_b, sd * np.sqrt(1.0 - p) / np.sqrt(p))
    row = _CASES[law.case]
    with np.errstate(all="ignore"):
        x0 = row.start(law, p)
    upper = p <= 0.5  # solve on the smaller side, 1 - p being exact for p >= 1/2
    sign, target = np.where(upper, 1.0, -1.0), np.where(upper, np.log(p), np.log1p(-p))
    deep = row.log_tail if not law.mirrored else None

    def log_side(z, i):  # ln P[Z > z] - ln p, or ln(1 - p) - ln P[Z <= z]; both fall as z grows
        up, side = upper[i], np.empty_like(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            side[up], side[~up] = _side(law, z[up], True), _side(law, z[~up], False)
            ln_side = np.log(side)
            sub = up & (side < _TINY)  # a subnormal tail holds few digits
            if deep is not None and sub.any():
                ln_side[sub] = deep(law, z[sub])
            return sign[i] * (ln_side - target[i]), -np.exp(_log_density(law, z) - ln_side)

    x0 = np.where(np.isfinite(x0), np.minimum(np.maximum(x0, a), b), 0.0)  # else the mean, 0, inside every bracket
    return quadrature.solve_monotone(log_side, a, b, False, x0, xtol=1e-14)


def quantile(law: PearsonLaw, p):
    """z with tail(z) = p, for every 0 < p < 1 (docs/DECISIONS.md, decision 8), in one solve for every p.

    Newton steps on the log of the tail, or of the cdf for p > 1/2, guarded
    by bisection (``quadrature.solve_monotone``), inside the support cut by
    Cantelli's inequality P[Z > z] <= var/(var + z^2).  They start from the
    row's ``start``, the inverse the sampler's table is built from, without
    building the table: erfcinv, the closed forms of cases 2-4, and case 5's
    panel-end logits.  Where the tail is subnormal the row's ``log_tail``
    gives its logarithm, so p keeps its digits down to the smallest double.
    """
    return pointwise(_quantile, law, p)


def quantile_grid(law: PearsonLaw, p) -> np.ndarray:
    """Vectorized inverse of the tail, the sampler's inverse CDF, on p mapped whole (decision 10).

    Every case serves p in [``rng.U_MIN``, ``rng.U_MAX``] = [2^-53, 1 - 2^-53],
    the range of the ``rng`` uniforms; p outside it raises
    ``InvalidProbabilityError``.  Normal uses the closed form.  Every other
    case reads one cached cubic-Hermite table (``_inverse_table``), whose
    pieces are built the first time a point falls in them, each checked as it
    is built: a call whose points reach a piece that misses the bound raises
    ``InverseTableError``.  Contract: the
    result is the exact inverse at some p' with |logit p' - logit p| <= 1e-10,
    that is a relative error of at most 1e-10 in the smaller of p and 1 - p,
    up to the rounding of the returned double; it is non-increasing in p.
    """
    p = as_float(p, "p", arrays=True)
    if p.size and not (rng.U_MIN <= p.min() and p.max() <= rng.U_MAX):  # NaN fails too
        raise InvalidProbabilityError(f"the sampler's inverse serves p in [2^-53, 1 - 2^-53], got "
                                      f"values in [{p.min()}, {p.max()}]")
    row = _CASES[law.case]
    if row.nodes is None:
        return row.start(law, p)
    t = _logit(p.reshape(-1))
    if law.mirrored:  # X = -Z: the tail of X at x is the cdf of Z at -x
        np.negative(t, out=t)
    x = row.to_z(law, _table(law).at(t))
    if law.mirrored:
        np.negative(x, out=x)
    return x.reshape(p.shape)


def sample(law: PearsonLaw, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws by inverse CDF on counter-based uniform blocks.

    Deterministic given (seed, n); block decomposition keeps the stream
    identical no matter how callers partition the work.  The stream is mapped
    in place, ``rng.CHUNK`` draws at a time.  Each draw meets the
    ``quantile_grid`` contract: a relative error of at most 1e-10 in the
    smaller tail probability of its uniform.  A stream may reach any piece of
    the table, so every piece is built and checked before the first draw: a
    law whose table misses its bound anywhere raises ``InverseTableError``.
    """
    n, seed = as_int(n, "sample size"), as_int(seed, "seed")
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    if _CASES[law.case].nodes is not None:
        _table(law).build(np.arange(_TABLE_NODES - 1))
    u = rng.uniform_stream(seed, n)
    for lo in range(0, n, rng.CHUNK):
        u[lo:lo + rng.CHUNK] = quantile_grid(law, u[lo:lo + rng.CHUNK])
    return u


# ---------------------------------------------------------------------------
# moments


def moment_exists(coeffs: PearsonCoefficients, m: int) -> bool:
    if (m := as_int(m, "moment order")) < 0:
        return False
    if coeffs.alpha <= 0.0:
        return True
    return m < 1.0 + 1.0 / coeffs.alpha


def moment(coeffs: PearsonCoefficients, m: int) -> float:
    """E[Z^m] by the exact recursion (1 - alpha k) E[Z^{k+1}] = beta k E[Z^k] + gamma k E[Z^{k-1}]."""
    m = as_int(m, "moment order")
    if m < 0:
        raise DomainError(f"moment order must be a nonnegative integer, got {m}")
    if not moment_exists(coeffs, m):
        raise MomentDoesNotExistError(
            f"moment of order {m} does not exist for alpha={coeffs.alpha} (needs m < 1 + 1/alpha)"
        )
    prev, cur = 1.0, 0.0  # E[Z^0], E[Z^1]
    if m == 0:
        return prev
    for k in range(1, m):
        denom = 1.0 - coeffs.alpha * k
        if abs(denom) < 1e-14:
            raise MomentDoesNotExistError(f"recursion pivot 1 - alpha*k vanishes at k={k}")
        prev, cur = cur, (coeffs.beta * k * cur + coeffs.gamma * k * prev) / denom
    return cur


def variance(coeffs: PearsonCoefficients) -> float:
    return coeffs.gamma / (1.0 - coeffs.alpha)


# ---------------------------------------------------------------------------
# serialization


_JSON_FIELDS = ("alpha", "beta", "gamma", "case", "r", "s", "mu", "delta", "a", "b", "logC")


def law_to_json(law: PearsonLaw) -> str:
    c = law.coeffs
    values = (c.alpha, c.beta, c.gamma, law.case.value, law.r, law.s, law.mu, law.delta,
              law.support_a, law.support_b, law.log_norm_const)
    return json.dumps(dict(zip(_JSON_FIELDS, values)))


def law_from_json(text: str) -> PearsonLaw:
    with reading("law JSON"):
        obj = json.loads(text)
        missing = [k for k in _JSON_FIELDS if k not in obj]
        if missing:
            raise DomainError(f"law JSON missing fields: {missing}")
        law = build_law(PearsonCoefficients(obj["alpha"], obj["beta"], obj["gamma"]))
    if law.case.value != obj["case"]:
        raise DomainError(f"case mismatch: stored {obj['case']}, rebuilt {law.case.value}")
    return law
