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
closed forms on the canonical beta >= 0 form for the log-density, the tail,
the cdf and the inverse tail (case 5 integrates its tail numerically).  Laws
with beta < 0 in the half-line cases are reflections of the canonical form and
carry ``mirrored=True``; they are evaluated at -x with the tail and the cdf
swapped.  The scalar ``tail``/``cdf`` are the grid functions on a 0-d input.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import interpolate as _interp
from scipy import optimize as _opt
from scipy import special as _sp

from . import quadrature, rng
from .errors import (
    DomainError,
    InvalidCoefficientsError,
    InvalidProbabilityError,
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
    TAU_CLS.  The combination alpha > 0 with two real roots is rejected: its
    support component cannot contain 0 with the centering convention used here.
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
        "alpha > 0 with two real roots puts 0 outside the support; not an admissible centered law"
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
# points z of any shape, 0-d included; mirroring is applied in `_side` and
# `quantile_grid`, so only the half-line cases see upper=False in `inverse`


class _Forms(NamedTuple):
    log_pdf: Callable  # (law, z) -> ln rho
    side: Callable     # (law, z, upper) -> P[Z > z] if upper else P[Z <= z]
    inverse: Callable  # (law, p, upper) -> z where that side equals p


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
    a, b = law.support_a, law.support_b
    if upper:
        return _sp.betainc(law.s, law.r, np.clip((b - z) / (b - a), 0.0, 1.0))
    return _sp.betainc(law.r, law.s, np.clip((z - a) / (b - a), 0.0, 1.0))


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


def _case5_side(law: PearsonLaw, zs, upper: bool):
    if not upper:  # the cdf is the tail of the reflected law of -Z, same normalization
        c = law.coeffs
        law = replace(law, coeffs=PearsonCoefficients(c.alpha, -c.beta, c.gamma), s=-law.s, mu=-law.mu)
        zs = -zs
    if zs.size == 1:
        return np.full(zs.shape, _case5_quad_tail(law, float(zs.flat[0])))
    # integrate once on a refined grid in arctan coordinates, then read off
    order = np.argsort(zs)
    zs_sorted = zs[order]
    mu, delta = law.mu, law.delta
    t_user = np.arctan((zs_sorted + mu) / delta)
    t_all = np.unique(np.concatenate([t_user, np.linspace(t_user[0], t_user[-1], 1025)]))
    f_t = lambda t: np.exp(_case5_log_pdf(law, delta * np.tan(t) - mu)) * delta / np.cos(t) ** 2
    tails_all = quadrature.tail_accumulate(f_t, t_all, _case5_quad_tail(law, float(zs_sorted[-1])))
    result = np.empty_like(zs_sorted)
    result[order] = tails_all[np.searchsorted(t_all, t_user)]
    return result


_CASE5_P_MIN = 1e-9


@functools.lru_cache(maxsize=32)
def _case5_inverse_table(law: PearsonLaw) -> Callable:
    """Monotone interpolant of tail -> z on a dense arctan-uniform grid.

    Tails are clipped to the range the table covers, cut to [P_MIN, 1 - P_MIN].
    """
    z_lo = quantile(law, 1.0 - _CASE5_P_MIN)
    z_hi = quantile(law, _CASE5_P_MIN)
    mu, delta = law.mu, law.delta
    t = np.linspace(math.atan((z_lo + mu) / delta), math.atan((z_hi + mu) / delta), 4097)
    z_grid = delta * np.tan(t) - mu
    z_grid[0], z_grid[-1] = z_lo, z_hi
    f_t = lambda tt: np.exp(_case5_log_pdf(law, delta * np.tan(tt) - mu)) * delta / np.cos(tt) ** 2
    tails = quadrature.tail_accumulate(f_t, t, tail(law, z_hi))
    interp = _interp.PchipInterpolator(tails[::-1], z_grid[::-1], extrapolate=False)
    p_lo, p_hi = max(tails[-1], _CASE5_P_MIN), min(tails[0], 1.0 - _CASE5_P_MIN)
    return lambda p: interp(np.clip(p, p_lo, p_hi))


_CASES = {
    CaseTag.NORMAL: _Forms(
        lambda law, z: law.log_norm_const - z * z / (2.0 * law.coeffs.gamma),
        lambda law, z, upper: 0.5 * _sp.erfc((z if upper else -z) / (law.s * math.sqrt(2.0))),
        lambda law, p, upper: law.s * math.sqrt(2.0) * _sp.erfcinv(2.0 * p)),
    CaseTag.GAMMA: _Forms(
        _gamma_log_pdf,
        lambda law, z, upper: (_sp.gammaincc if upper else _sp.gammainc)(
            law.r, np.maximum(z + law.mu, 0.0) / law.s),
        lambda law, p, upper: law.s * (_sp.gammainccinv if upper else _sp.gammaincinv)(law.r, p) - law.mu),
    CaseTag.BETA: _Forms(
        _beta_log_pdf,
        _beta_side,
        lambda law, p, upper: law.support_b - (law.support_b - law.support_a) * _sp.betaincinv(law.s, law.r, p)),
    CaseTag.INVERSE_GAMMA_TYPE: _Forms(
        _invgamma_log_pdf,
        _invgamma_side,
        lambda law, p, upper: law.s / (_sp.gammaincinv if upper else _sp.gammainccinv)(law.r - 1.0, p) - law.mu),
    CaseTag.NO_REAL_ROOTS: _Forms(
        _case5_log_pdf,
        _case5_side,
        lambda law, p, upper: _case5_inverse_table(law)(p)),
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
    val = np.where(inside, coeffs.kernel(x), 0.0)
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

    Closed forms except in case 5, which interpolates a monotone table and
    clips p to the tail range the table covers.
    """
    p = np.asarray(p, dtype=float)
    inverse = _CASES[law.case].inverse
    return -inverse(law, p, False) if law.mirrored else inverse(law, p, True)


def sample(law: PearsonLaw, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws by inverse CDF on counter-based uniform blocks.

    Deterministic given (seed, n); block decomposition keeps the stream
    identical no matter how callers partition the work.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    u = rng.uniform_stream(seed, n)
    return quantile_grid(law, u)


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
