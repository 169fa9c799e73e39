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

All evaluation goes through one table, ``_CASES``: per case, vectorized
closed forms on the canonical beta >= 0 form for the log-density, the tail and
the cdf (case 5 integrates its tail numerically).  Laws with beta < 0 in the
half-line cases are reflections of the canonical form and carry
``mirrored=True``; they are evaluated at -x with the tail and the cdf swapped.
The scalar ``tail``/``cdf`` are the grid functions on a 0-d input.  The sampler
inverts the tail through one cached cubic-Hermite table per non-Normal law,
built from the per-case forms in ``_INVERSES``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import optimize as _opt
from scipy import special as _sp

from . import quadrature, rng
from .errors import (
    DomainError,
    InvalidCoefficientsError,
    InvalidProbabilityError,
    InverseTableError,
    MomentDoesNotExistError,
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
    "tail",
    "partial_moments",
    "tail_grid",
    "log_tail",
    "cdf",
    "cdf_grid",
    "quantile",
    "quantile_grid",
    "sample",
    "moment",
    "moment_exists",
    "variance",
    "check_pearson_identities",
    "law_to_json",
    "law_from_json",
]

# Relative snap tolerance for degree/discriminant classification.
TAU_CLS = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)


class CaseTag(str, Enum):
    NORMAL = "Normal"
    GAMMA = "Gamma"
    BETA = "Beta"
    INVERSE_GAMMA_TYPE = "InverseGammaType"
    NO_REAL_ROOTS = "NoRealRoots"


@dataclass(frozen=True)
class PearsonCoefficients:
    """Kernel coefficients g(z) = alpha*z**2 + beta*z + gamma."""

    alpha: float
    beta: float
    gamma: float

    def validate(self) -> None:
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
    coeffs.validate()
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
    """Open interval (a, b) where the kernel is positive and contains 0."""
    case = classify(coeffs)
    al, be = coeffs.alpha, coeffs.beta
    if case is CaseTag.NORMAL or case is CaseTag.NO_REAL_ROOTS:
        return (-math.inf, math.inf)
    if case is CaseTag.GAMMA:
        root = -coeffs.gamma / be
        return (root, math.inf) if be > 0 else (-math.inf, root)
    if case is CaseTag.INVERSE_GAMMA_TYPE:
        root = -be / (2.0 * al)
        return (root, math.inf) if be > 0 else (-math.inf, root)
    disc = math.sqrt(be * be - 4.0 * al * coeffs.gamma)
    r1 = (-be - disc) / (2.0 * al)
    r2 = (-be + disc) / (2.0 * al)
    return (min(r1, r2), max(r1, r2))


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
    al, be, ga = coeffs.alpha, coeffs.beta, coeffs.gamma
    a, b = support(coeffs)

    if case is CaseTag.NORMAL:
        sigma = math.sqrt(ga)
        return PearsonLaw(coeffs, case, None, sigma, 0.0, None, a, b,
                          -0.5 * _LOG_2PI - math.log(sigma))

    mirrored = be < 0.0 and case in (CaseTag.GAMMA, CaseTag.INVERSE_GAMMA_TYPE)
    bc = abs(be) if mirrored else be

    if case is CaseTag.GAMMA:
        s = bc
        mu = ga / bc
        r = ga / (bc * bc)
        log_c = -r * math.log(s) - _sp.gammaln(r)
        return PearsonLaw(coeffs, case, r, s, mu, None, a, b, log_c, mirrored)

    if case is CaseTag.BETA:
        w = b - a
        r = a / (al * w)
        s = -b / (al * w)
        # exact consequence of the recovery; guards against root-order slips
        assert r > 0 and s > 0 and abs(w * r / (r + s) + a) <= 1e-9 * max(1.0, w)
        log_beta_fn = _sp.gammaln(r) + _sp.gammaln(s) - _sp.gammaln(r + s)
        log_c = -log_beta_fn - (r + s - 1.0) * math.log(w)
        return PearsonLaw(coeffs, case, r, s, None, None, a, b, log_c)

    if case is CaseTag.INVERSE_GAMMA_TYPE:
        mu = bc / (2.0 * al)
        r = 2.0 + 1.0 / al
        s = mu / al
        if not s > 0.0:
            raise InvalidCoefficientsError("degenerate inverse-gamma-type law (s = 0)")
        log_c = (r - 1.0) * math.log(s) - _sp.gammaln(r - 1.0)
        return PearsonLaw(coeffs, case, r, s, mu, None, a, b, log_c, mirrored)

    # NoRealRoots: kernel alpha*((z+mu)^2 + delta^2)
    mu = be / (2.0 * al)
    delta = math.sqrt(4.0 * al * ga - be * be) / (2.0 * al)
    r = 1.0 + 1.0 / (2.0 * al)
    s = mu / (al * delta)
    # normalize by quadrature, shifted by the integrand's peak
    z_peak = s * delta / (2.0 * r) - mu
    m = _case5_unnorm_logpdf(z_peak, r, s, mu, delta)
    val = quadrature.adaptive(
        lambda z: math.exp(_case5_unnorm_logpdf(z, r, s, mu, delta) - m),
        -math.inf, math.inf,
    )
    return PearsonLaw(coeffs, case, r, s, mu, delta, a, b, -(m + math.log(val)))


def _case5_unnorm_logpdf(z, r: float, s: float, mu: float, delta: float):
    u = z + mu
    return -r * np.log(u * u + delta * delta) + s * np.arctan(u / delta)


# ---------------------------------------------------------------------------
# the case table: vectorized forms on the canonical (beta >= 0) form, for
# points z of any shape, 0-d included; mirroring is applied in `_side` and in
# the sampler's inverse table


class _Forms(NamedTuple):
    log_pdf: Callable  # (law, z) -> ln rho
    side: Callable     # (law, z, upper) -> P[Z > z] if upper else P[Z <= z]


def _gamma_log_pdf(law: PearsonLaw, z):
    u = z + law.mu
    inside = u > 0.0
    v = np.where(inside, u, 1.0)
    out = np.where(inside, law.log_norm_const + (law.r - 1.0) * np.log(v) - v / law.s, -np.inf)
    if law.r < 1.0:  # endpoint pole: continuous limit is +inf
        out = np.where(u == 0.0, np.inf, out)
    return out


def _beta_log_pdf(law: PearsonLaw, z):
    a, b = law.support_a, law.support_b
    inside = (z > a) & (z < b)
    za = np.where(inside, z - a, 1.0)
    bz = np.where(inside, b - z, 1.0)
    out = np.where(inside, law.log_norm_const + (law.r - 1.0) * np.log(za) + (law.s - 1.0) * np.log(bz), -np.inf)
    if law.r < 1.0:
        out = np.where(z == a, np.inf, out)
    if law.s < 1.0:
        out = np.where(z == b, np.inf, out)
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
    fn = _sp.gammainc if upper else _sp.gammaincc
    return np.where(inside, fn(law.r - 1.0, arg), 1.0 if upper else 0.0)


def _case5_log_pdf(law: PearsonLaw, z):
    return law.log_norm_const + _case5_unnorm_logpdf(z, law.r, law.s, law.mu, law.delta)


def _case5_quad_tail(law: PearsonLaw, z: float) -> float:
    # scalar QUADPACK from the side away from the peak; the integrand stays a
    # plain math expression, which keeps the cost per evaluation low
    z_peak = law.s * law.delta / (2.0 * law.r) - law.mu
    f = lambda x: math.exp(law.log_norm_const + _case5_unnorm_logpdf(x, law.r, law.s, law.mu, law.delta))
    if z >= z_peak:
        return quadrature.adaptive(f, z, math.inf, epsabs=1e-300, epsrel=1e-11)
    return 1.0 - quadrature.adaptive(f, -math.inf, z, epsabs=1e-300, epsrel=1e-11)


def _case5_xi_log_pdf(law: PearsonLaw, xi):
    """ln of the density of xi = asinh((Z + mu)/delta), in forms that overflow in neither tail."""
    log_cosh = np.logaddexp(xi, -xi) - math.log(2.0)
    return (law.log_norm_const + (1.0 - 2.0 * law.r) * (math.log(law.delta) + log_cosh)
            + 2.0 * law.s * np.arctan(np.tanh(0.5 * xi)))


def _case5_side(law: PearsonLaw, zs, upper: bool):
    if not upper:  # the cdf is the tail of the reflected law of -Z, same normalization
        c = law.coeffs
        law = replace(law, coeffs=PearsonCoefficients(c.alpha, -c.beta, c.gamma), s=-law.s, mu=-law.mu)
        zs = -zs
    if zs.size == 1:
        return np.full(zs.shape, _case5_quad_tail(law, float(zs.flat[0])))
    # integrate once on a refined grid in xi = asinh((z + mu)/delta), then read
    # off; xi keeps full relative precision in both power tails
    order = np.argsort(zs)
    zs_sorted = zs[order]
    xi_user = np.arcsinh((zs_sorted + law.mu) / law.delta)
    xi_all = np.unique(np.concatenate([xi_user, np.linspace(xi_user[0], xi_user[-1], 1025)]))
    f = lambda xi: np.exp(_case5_xi_log_pdf(law, xi))
    end = float(xi_all[-1])
    if end >= math.asinh(law.s / (2.0 * law.r)):  # right of the peak
        right = quadrature.adaptive(f, end, math.inf, epsabs=1e-300, epsrel=1e-11)
    else:
        right = 1.0 - quadrature.adaptive(f, -math.inf, end, epsabs=1e-300, epsrel=1e-11)
    tails_all = quadrature.tail_accumulate(f, xi_all, right)
    result = np.empty_like(zs_sorted)
    result[order] = tails_all[np.searchsorted(xi_all, xi_user)]
    return result


_CASES = {
    CaseTag.NORMAL: _Forms(
        lambda law, z: law.log_norm_const - z * z / (2.0 * law.coeffs.gamma),
        lambda law, z, upper: 0.5 * _sp.erfc((z if upper else -z) / (law.s * math.sqrt(2.0)))),
    CaseTag.GAMMA: _Forms(
        _gamma_log_pdf,
        lambda law, z, upper: (_sp.gammaincc if upper else _sp.gammainc)(
            law.r, np.maximum(z + law.mu, 0.0) / law.s)),
    CaseTag.BETA: _Forms(_beta_log_pdf, _beta_side),
    CaseTag.INVERSE_GAMMA_TYPE: _Forms(_invgamma_log_pdf, _invgamma_side),
    CaseTag.NO_REAL_ROOTS: _Forms(_case5_log_pdf, _case5_side),
}


def _side(law: PearsonLaw, x: np.ndarray, upper: bool) -> np.ndarray:
    """P[Z > x] (upper) or P[Z <= x] at every point of x."""
    if law.mirrored:
        x, upper = -x, not upper
    return _CASES[law.case].side(law, x, upper)


# ---------------------------------------------------------------------------
# kernel and companion function


def stein_kernel(coeffs: PearsonCoefficients, x):
    """g(x) = (alpha x^2 + beta x + gamma) on the open support, 0 outside."""
    a, b = support(coeffs)
    x = np.asarray(x, dtype=float)
    inside = (x > a) & (x < b)
    val = np.zeros(x.shape)
    val[inside] = coeffs.kernel(x[inside])  # only inside points: the kernel at +-inf is nan
    return float(val) if val.ndim == 0 else val


def q_function(coeffs: PearsonCoefficients, x):
    """q(x) = x^2 - x g'(x) + g(x): (1-alpha)x^2 + gamma inside, x^2 outside."""
    a, b = support(coeffs)
    x = np.asarray(x, dtype=float)
    inside = (x > a) & (x < b)
    val = np.where(inside, (1.0 - coeffs.alpha) * x * x + coeffs.gamma, x * x)
    return float(val) if val.ndim == 0 else val


# ---------------------------------------------------------------------------
# density, flux, tails


def log_density(law: PearsonLaw, x):
    """ln rho(x); -inf outside the closed support, the continuous limit at a, b."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = _CASES[law.case].log_pdf(law, -x if law.mirrored else x)
    return float(val) if val.ndim == 0 else val


def density(law: PearsonLaw, x):
    out = np.exp(log_density(law, x))
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def flux(law: PearsonLaw, x) -> np.ndarray:
    """g(x) rho(x) in log space; 0 where the kernel vanishes, even against a density pole."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(stein_kernel(law.coeffs, x))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.exp(np.log(g) + log_density(law, x))
    return np.where(g > 0.0, val, 0.0)


def tail(law: PearsonLaw, z) -> float:
    """Survival probability P[Z > z], absolute error <= 1e-10."""
    return float(_side(law, np.asarray(float(z)), upper=True))


def tail_grid(law: PearsonLaw, zs) -> np.ndarray:
    """Vectorized tails on an arbitrary grid."""
    return _side(law, np.atleast_1d(np.asarray(zs, dtype=float)), upper=True)


def partial_moments(law: PearsonLaw, y) -> tuple[float, float, float]:
    """(P[Z > y], E[Z; Z > y], E[Z^2; Z > y]) in closed form.

    E[Z; Z > y] is the flux g(y) rho(y), and the Stein identity with the test
    function x 1{x > y} gives E[Z^2; Z > y] = ((y + beta) g rho + gamma P[Z > y]) / (1 - alpha),
    valid for every admissible alpha < 1.
    """
    c, t = law.coeffs, tail(law, y)
    if not law.support_a < y < law.support_b:  # no flux out here, and y may be infinite
        return t, 0.0, c.gamma * t / (1.0 - c.alpha)
    f = float(flux(law, y))
    return t, f, ((y + c.beta) * f + c.gamma * t) / (1.0 - c.alpha)


def cdf(law: PearsonLaw, z) -> float:
    """P[Z <= z], complement-free so it keeps relative accuracy near the lower end."""
    return float(_side(law, np.asarray(float(z)), upper=False))


def cdf_grid(law: PearsonLaw, zs) -> np.ndarray:
    """Vectorized complement-free CDF on an arbitrary grid."""
    return _side(law, np.atleast_1d(np.asarray(zs, dtype=float)), upper=False)


def log_tail(law: PearsonLaw, z) -> float:
    """ln P[Z > z], with asymptotic continuation where the tail underflows."""
    z = float(z)
    if law.case is CaseTag.NORMAL:
        return float(_sp.log_ndtr(-z / law.s))
    t = tail(law, z)
    if t > 0.0:
        return math.log(t)
    if law.case is CaseTag.GAMMA and not law.mirrored:
        # Q(r, x) ~ x^(r-1) e^(-x)/Gamma(r) for large x
        x = (z + law.mu) / law.s
        return (law.r - 1.0) * math.log(x) - x - float(_sp.gammaln(law.r))
    raise DomainError(f"tail underflow at z={z} with no asymptotic branch for case {law.case.value}")


# ---------------------------------------------------------------------------
# the sampler's inverse table: every non-Normal law samples through one cubic
# Hermite table of y(t), with t the logit of the tail probability of the
# canonical law and y an end-free coordinate of it: ln(z + mu) on a half-line
# (taken from the canonical variable, never from x, so a density pole at the
# end loses nothing), the logit of the position in the interval for Beta, and
# z itself in case 5.  Nodes are exact inverses, and the slopes are exact too:
# dy/dt = -u(1-u)/rho_y(y), with rho_y the density of y.

_TABLE_NODES = 8193
_T_MAX = math.log(2.0**53 - 1.0)  # logit(1 - 2^-53); the nodes span [-_T_MAX, _T_MAX]
_H = 2.0 * _T_MAX / (_TABLE_NODES - 1)
_TABLE_TOL = 1e-10  # bound on |logit p' - logit p|, node error plus interpolation error
_NEWTON_TOL = 0.5 * _TABLE_TOL  # case 5's node error; closed-form nodes are exact to rounding
_NEWTON_STEPS = 8
_CHUNK = 1 << 14  # 128 KB temporaries: small enough for the allocator to reuse, per thread


def _logit(u: np.ndarray) -> np.ndarray:
    """ln(u / (1 - u)); 1 - u is exact for u >= 1/2, so the upper tail keeps its digits."""
    t = 1.0 - u
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(u, t, out=t)
        return np.log(t, out=t)


def _hermite(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The table at the points t, in Horner form; t is overwritten."""
    t += _T_MAX
    t *= 1.0 / _H
    k = t.astype(np.intp)
    np.minimum(k, coef.shape[1] - 1, out=k)
    t -= k
    c0, c1, c2, c3 = coef
    y = c3[k]
    y *= t
    y += c2[k]
    y *= t
    y += c1[k]
    y *= t
    y += c0[k]
    return y


@functools.lru_cache(maxsize=32)
def _inverse_table(law: PearsonLaw) -> np.ndarray:
    """Horner coefficients, shape (4, nodes - 1), of y on each interval of t.

    The cubic's error peaks mid-interval, so the table is checked against the
    exact inverse at every midpoint, as an error in t.  Exact slopes inside
    the Fritsch-Carlson region make every piece monotone.  A table that fails
    either check raises ``InverseTableError``.
    """
    form = _INVERSES[law.case]
    t = np.linspace(-_T_MAX, _T_MAX, 2 * _TABLE_NODES - 1)  # the nodes and the midpoints between them
    with np.errstate(all="ignore"):
        y = form.nodes(law, t)
        # ln u(1-u) = -softplus(-t) - softplus(t)
        slope = -np.exp(-np.logaddexp(0.0, -t) - np.logaddexp(0.0, t) - form.log_pdf(law, y))
        y0, y1, m0, m1 = y[:-2:2], y[2::2], _H * slope[:-2:2], _H * slope[2::2]
        coef = np.array([y0, m0, 3.0 * (y1 - y0) - 2.0 * m0 - m1, 2.0 * (y0 - y1) + m0 + m1])
        err = float(np.max(np.abs(_hermite(coef, t[1::2].copy()) - y[1::2]) / -slope[1::2]))
        a, b = m0 / (y1 - y0), m1 / (y1 - y0)
        monotone = bool(np.all((a >= 0.0) & (b >= 0.0) & (a * a + b * b <= 9.0)))
    bound = _TABLE_TOL - form.node_err
    if not (err <= bound and monotone):  # NaN fails too
        raise InverseTableError(f"inverse table for {law.coeffs} misses its bound: interpolation error "
                                f"in logit {err:.3g} (bound {bound:.3g}), monotone pieces: {monotone}")
    return coef


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
    """logit x for I_x(a, b) = p; x and 1 - x each come from their own inverse."""
    log_beta = _sp.betaln(a, b)  # I_x(a, b) ~ x^a / (a B(a, b))
    return (_log_small_inverse(_sp.betaincinv(a, b, p), p, a, math.log(a) + log_beta)
            - _log_small_inverse(_sp.betainccinv(b, a, p), 1.0 - p, b, math.log(b) + log_beta))


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


def _case5_nodes(law: PearsonLaw, t: np.ndarray) -> np.ndarray:
    """z at logit-tail t: Newton steps on logit P[Z > z] in xi = asinh((z + mu)/delta).

    The start interpolates a grid in xi that reaches past both tails' smallest
    targets; in xi the power tails make logit P[Z > z] nearly linear.  The
    targets go through the quadrature grids a few thousand at a time, which
    bounds the memory the grids take.
    """
    mu, delta, e = law.mu, law.delta, 2.0 * law.r - 1.0

    def reach(s: float) -> float:
        # xi beyond which that tail is below every target, from
        # rho <= C e^(max(s, 0) pi/2) |z + mu|^(-2r)
        return math.asinh(math.exp((law.log_norm_const + max(s, 0.0) * math.pi / 2.0 - math.log(e)
                                    + _T_MAX + 1.0) / e) / delta)

    def logit_and_slope(xi):
        z = delta * np.sinh(xi) - mu
        s, c = tail_grid(law, z), cdf_grid(law, z)
        return np.log(s) - np.log(c), -np.exp(_case5_xi_log_pdf(law, xi)) / (s * c)

    def newton(target):
        xi = np.interp(-target, -logit[ok], grid[ok])  # logit falls as xi grows
        for _ in range(_NEWTON_STEPS):
            value, slope = logit_and_slope(xi)
            err = np.max(np.abs(value - target))
            if err <= _NEWTON_TOL:
                return delta * np.sinh(xi) - mu
            xi -= (value - target) / slope
        raise InverseTableError(f"case-5 inverse for {law.coeffs} did not converge: logit error {err:.3g}")

    grid = np.linspace(-reach(-law.s), reach(law.s), 2049)
    logit, _ = logit_and_slope(grid)
    ok = np.isfinite(logit)
    return np.concatenate([newton(part) for part in np.array_split(t, 8)])


class _Inverse(NamedTuple):
    nodes: Callable    # (law, t) -> y at logit-tail t, on the canonical form
    log_pdf: Callable  # (law, y) -> ln rho_y
    to_z: Callable     # (law, y) -> z, overwriting y where it can
    node_err: float = 0.0  # bound on the nodes' own error in logit


_INVERSES = {
    CaseTag.GAMMA: _Inverse(
        _gamma_nodes,
        lambda law, y: law.log_norm_const + law.r * y - np.exp(y) / law.s,
        _half_line_to_z),
    CaseTag.BETA: _Inverse(
        lambda law, t: _two_sided(t, lambda p: -_beta_logit_inverse(p, law.s, law.r),
                                  lambda q: _beta_logit_inverse(q, law.r, law.s)),
        lambda law, y: -_sp.betaln(law.r, law.s) - law.r * np.logaddexp(0.0, -y) - law.s * np.logaddexp(0.0, y),
        _beta_to_z),
    CaseTag.INVERSE_GAMMA_TYPE: _Inverse(
        lambda law, t: math.log(law.s) - np.log(_two_sided(
            t, lambda p: _sp.gammaincinv(law.r - 1.0, p), lambda q: _sp.gammainccinv(law.r - 1.0, q))),
        lambda law, y: law.log_norm_const + (1.0 - law.r) * y - law.s * np.exp(-y),
        _half_line_to_z),
    CaseTag.NO_REAL_ROOTS: _Inverse(_case5_nodes, _case5_log_pdf, lambda law, y: y, _NEWTON_TOL),
}


# ---------------------------------------------------------------------------
# quantiles and sampling


def quantile(law: PearsonLaw, p: float) -> float:
    """z with tail(z) = p, by geometric bracketing plus Brent's method."""
    if not 0.0 < p < 1.0:
        raise InvalidProbabilityError(f"quantile requires 0 < p < 1, got {p}")
    a, b = law.support_a, law.support_b
    step = math.sqrt(law.variance)
    t0 = tail(law, 0.0)
    f = lambda z: tail(law, z) - p
    if t0 == p:
        return 0.0
    if t0 > p:  # root to the right of 0
        lo, hi = 0.0, min(step, 0.5 * b) if math.isfinite(b) else step
        while tail(law, hi) > p:
            lo = hi
            hi = 0.5 * (hi + b) if math.isfinite(b) else 2.0 * hi
            if math.isfinite(b) and b - hi < 1e-15 * max(1.0, abs(b)):
                return b
    else:
        hi, lo = 0.0, max(-step, 0.5 * a) if math.isfinite(a) else -step
        while tail(law, lo) < p:
            hi = lo
            lo = 0.5 * (lo + a) if math.isfinite(a) else 2.0 * lo
            if math.isfinite(a) and lo - a < 1e-15 * max(1.0, abs(a)):
                return a
    return float(_opt.brentq(f, lo, hi, xtol=1e-14, rtol=4.0 * np.finfo(float).eps, maxiter=200))


def quantile_grid(law: PearsonLaw, p) -> np.ndarray:
    """Vectorized inverse of the tail, the sampler's inverse CDF.

    Normal uses the closed form.  Every other case reads one cached
    cubic-Hermite table (``_inverse_table``) and serves p in
    [2^-53, 1 - 2^-53], the range of the ``rng`` uniforms; p outside it raises
    ``InvalidProbabilityError``.  Contract: the result is the exact inverse at
    some p' with |logit p' - logit p| <= 1e-10, that is a relative error of at
    most 1e-10 in the smaller of p and 1 - p, up to the rounding of the
    returned double; it is non-increasing in p.
    """
    p = np.asarray(p, dtype=float)
    if law.case is CaseTag.NORMAL:
        return law.s * math.sqrt(2.0) * _sp.erfcinv(2.0 * p)
    coef, form = _inverse_table(law), _INVERSES[law.case]
    flat = p.ravel()
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, _CHUNK):  # chunks keep the temporaries small
        t = _logit(flat[lo:lo + _CHUNK])
        if law.mirrored:  # X = -Z: the tail of X at x is the cdf of Z at -x
            np.negative(t, out=t)
        if not (-_T_MAX <= t.min() and t.max() <= _T_MAX):  # NaN fails too
            raise InvalidProbabilityError(f"the sampler's inverse serves p in [2^-53, 1 - 2^-53], got "
                                          f"values in [{flat[lo:lo + _CHUNK].min()}, {flat[lo:lo + _CHUNK].max()}]")
        x = form.to_z(law, _hermite(coef, t))
        out[lo:lo + _CHUNK] = -x if law.mirrored else x
    return out.reshape(p.shape)


def sample(law: PearsonLaw, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws by inverse CDF on counter-based uniform blocks.

    Deterministic given (seed, n); block decomposition keeps the stream
    identical no matter how callers partition the work.  Each draw meets the
    ``quantile_grid`` contract: a relative error of at most 1e-10 in the
    smaller tail probability of its uniform.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    return quantile_grid(law, rng.uniform_stream(seed, n))


# ---------------------------------------------------------------------------
# moments


def moment_exists(coeffs: PearsonCoefficients, m: int) -> bool:
    if m < 0:
        return False
    if coeffs.alpha <= 0.0:
        return True
    return m < 1.0 + 1.0 / coeffs.alpha


def moment(coeffs: PearsonCoefficients, m: int) -> float:
    """E[Z^m] by the exact recursion (1 - alpha k) E[Z^{k+1}] = beta k E[Z^k] + gamma k E[Z^{k-1}]."""
    coeffs.validate()
    if m < 0 or m != int(m):
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
    coeffs.validate()
    return coeffs.gamma / (1.0 - coeffs.alpha)


# ---------------------------------------------------------------------------
# diagnostics and serialization


@dataclass(frozen=True)
class PearsonDiagnostics:
    max_flux_residual: float      # max |(g rho)' + x rho| on the interior grid
    normalization_error: float    # |integral of rho - 1|
    mean_error: float             # |integral of x rho|
    boundary_flux_low: float      # g rho near the lower support end
    boundary_flux_high: float     # g rho near the upper support end
    tolerance: float
    passed: bool


def check_pearson_identities(law: PearsonLaw, n_grid: int = 201, tol: float = 1e-6) -> PearsonDiagnostics:
    """Numerical check of the flux identity (g rho)' = -x rho and unit mass/zero mean."""
    lo = quantile(law, 0.95)
    hi = quantile(law, 0.05)
    grid = np.linspace(min(lo, hi), max(lo, hi), n_grid)
    h = 1e-3 * np.minimum.reduce([
        grid - law.support_a,        # +inf when the end is infinite
        law.support_b - grid,
        1.0 + np.abs(grid),
    ])
    # five-point central difference of the flux g*rho
    d = (flux(law, grid - 2 * h) - 8 * flux(law, grid - h)
         + 8 * flux(law, grid + h) - flux(law, grid + 2 * h)) / (12 * h)
    flux_residual = float(np.max(np.abs(d + grid * np.exp(log_density(law, grid)))))

    f = lambda x: float(density(law, x))
    xf = lambda x: x * float(density(law, x))
    a, b = law.support_a, law.support_b
    pts = None
    if math.isfinite(a) and math.isfinite(b):
        pts = [a + 0.1 * (b - a), a + 0.9 * (b - a)]
    norm_err = abs(quadrature.adaptive(f, a, b, points=pts) - 1.0)
    mean_err = abs(quadrature.adaptive(xf, a, b, points=pts))

    q_lo = quantile(law, 1.0 - 1e-8)
    q_hi = quantile(law, 1e-8)
    flux_lo = float(flux(law, np.asarray(q_lo)))
    flux_hi = float(flux(law, np.asarray(q_hi)))
    worst = max(flux_residual, norm_err, mean_err, flux_lo, flux_hi)
    return PearsonDiagnostics(flux_residual, norm_err, mean_err, flux_lo, flux_hi, tol, worst < tol)


_JSON_FIELDS = ("alpha", "beta", "gamma", "case", "r", "s", "mu", "delta", "a", "b", "logC")


def law_to_json(law: PearsonLaw) -> str:
    c = law.coeffs
    values = (c.alpha, c.beta, c.gamma, law.case.value, law.r, law.s, law.mu, law.delta,
              law.support_a, law.support_b, law.log_norm_const)
    return json.dumps(dict(zip(_JSON_FIELDS, values)))


def law_from_json(text: str) -> PearsonLaw:
    obj = json.loads(text)
    missing = [k for k in _JSON_FIELDS if k not in obj]
    if missing:
        raise DomainError(f"law JSON missing fields: {missing}")
    law = build_law(PearsonCoefficients(obj["alpha"], obj["beta"], obj["gamma"]))
    if law.case.value != obj["case"]:
        raise DomainError(f"case mismatch: stored {obj['case']}, rebuilt {law.case.value}")
    return law
