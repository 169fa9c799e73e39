"""Bounded solution of the Stein equation for indicator test functions.

For a reference law with kernel g, density rho, CDF F and survival function
Phi, the equation

    g(x) f'(x) - x f(x) = h(x) - E[h(Z)],        h = 1_(-inf, z]

has a unique bounded continuous solution.  Writing the Schoutens integral form
with the indicator reduced, the solution factors into complement-free products

    f(x) = F(x) Phi(z) / (g(x) rho(x))     for a < x <= z,
    f(x) = F(z) Phi(x) / (g(x) rho(x))     for z <= x < b,

so both the numerator and the flux g*rho vanish together at the support ends
and no catastrophic cancellation occurs.  The derivative has closed forms with
parallel structure, a fixed sign pattern (nonnegative left of z, nonpositive
right of z), and explicit bounds through q(x) = x^2 - x g'(x) + g(x).

One limit rule covers every point where the flux is 0 or a quotient is not
finite (outside [a, b], at a and b, where the flux underflows):

    f(x) = -(h(x) - E[h(Z)]) / x,          f'(x) = (h(x) - E[h(Z)]) / x^2,

with h - E[h] taken complement-free, Phi(z) left of z and -F(z) right of it;
the residual reads the same vector.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import pearson
from .errors import (DensityUnderflowError, DomainError, EvaluationAtKinkError, ThresholdOutOfRangeError, as_float,
                     as_int)
from .pearson import PearsonLaw, q_function, stein_kernel

__all__ = [
    "IndicatorSteinSolution",
    "SteinDerivativeCertificate",
    "solve_indicator",
    "evaluate",
    "fprime_limits_at_threshold",
    "check_residual",
    "certify_fprime",
    "certification_grid",
]


@dataclass(frozen=True)
class IndicatorSteinSolution:
    law: PearsonLaw
    z: float
    eh: float        # E[h(Z)] = F(z)
    phi_star_z: float  # Phi(z) = 1 - eh, complement-free


def solve_indicator(law: PearsonLaw, z: float) -> IndicatorSteinSolution:
    z = as_float(z, "the threshold z")
    if not 0.0 < z < law.support_b:
        raise ThresholdOutOfRangeError(f"threshold must satisfy 0 < z < b, got z={z}, b={law.support_b}")
    return IndicatorSteinSolution(law, z, pearson.cdf(law, z), pearson.tail(law, z))


def _numerators(sol: IndicatorSteinSolution, xs: np.ndarray, left: np.ndarray):
    """g, the flux g rho (0 outside the open support) and the numerators of f and of g f' at every
    point, f = N / flux and g f' = N' / flux, each from its own side alone: F(x) where ``left``, else Phi(x).
    """
    law = sol.law
    side = np.empty_like(xs)
    side[left] = pearson.cdf(law, xs[left])
    side[~left] = pearson.tail(law, xs[~left])
    (g, flux), weight = pearson.kernel_and_flux(law, xs), np.where(left, sol.phi_star_z, sol.eh)
    num_p = weight * (xs * side + np.where(left, flux, -flux))  # x F + flux left, x Phi - flux right
    return g, flux, weight * side, num_p


def evaluate(sol: IndicatorSteinSolution, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, f', residual g f' - x f - (h - E[h])) on a grid in one pass, each point reading one side.

    Where the flux is 0 or a quotient is not finite (outside the support, at
    its ends, past underflow) f and f' take their one-sided limits, and at
    x = +-inf the residual takes its limit 0; at the kinks {z, a, b} f' and
    the residual are one-sided values, so callers that need them exclude those
    points.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    left = xs <= sol.z
    hc = np.where(left, sol.phi_star_z, -sol.eh)  # h - E[h], complement-free
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g, flux, num, num_p = _numerators(sol, xs, left)
        f, fp = num / flux, num_p / (g * flux)
        f = np.where((flux > 0.0) & np.isfinite(f), f, -hc / xs)
        fp = np.where((flux > 0.0) & np.isfinite(fp), fp, hc / (xs * xs))
        residual = np.where(np.isfinite(xs), g * fp - xs * f - hc, 0.0)  # its limit at +-inf, where x f = inf * 0
    return f, fp, residual


def _checked_grid(sol: IndicatorSteinSolution, grid) -> np.ndarray:
    """grid as an array of doubles, nonempty and clear of the kinks {z, a, b}, where f' is not defined."""
    xs = np.asarray(grid, dtype=float)
    if xs.size == 0:
        raise DomainError("the grid is empty")
    for kink in (sol.z, sol.law.support_a, sol.law.support_b):
        if math.isfinite(kink) and np.any(xs == kink):
            raise EvaluationAtKinkError(f"f' is not defined at the kink x={kink}")
    return xs


def fprime_limits_at_threshold(sol: IndicatorSteinSolution) -> tuple[float, float]:
    """One-sided limits of f' at the indicator threshold."""
    g, flux, _, num_p = _numerators(sol, np.array([sol.z, sol.z]), np.array([True, False]))
    return tuple(float(n / (g[0] * flux[0])) for n in num_p)


def check_residual(sol: IndicatorSteinSolution, grid) -> float:
    """max over the grid of |g f' - x f - (h - E[h])|; grid must be nonempty and avoid {z, a, b}."""
    xs = _checked_grid(sol, grid)
    return float(np.max(np.abs(evaluate(sol, xs)[2])))


# ---------------------------------------------------------------------------
# derivative certificates


@dataclass(frozen=True)
class SteinDerivativeCertificate:
    z: float
    grid_spec: str
    n_points: int
    residual_max: float
    sign_violations: int
    min_margin_left: float      # left branch: min of (f', UB_left - f')
    min_margin_right: float     # right branch: min of (f' + 1/q(z), -f')
    uniform_bound: float        # z/(g(z)^2 rho(z)) + 1/q(0)
    uniform_bound_margin: float
    passed: bool
    law_json: str

    def to_json(self) -> str:
        return json.dumps({
            "law": json.loads(self.law_json),
            "z": self.z,
            "grid_spec": self.grid_spec,
            "residual_max": self.residual_max,
            "sign_violations": self.sign_violations,
            "bound_margins": {"min_left": self.min_margin_left, "min_right": self.min_margin_right},
            "uniform_bound": self.uniform_bound,
            "uniform_bound_margin": self.uniform_bound_margin,
            "passed": self.passed,
        })


def certify_fprime(sol: IndicatorSteinSolution, grid) -> SteinDerivativeCertificate:
    """Check the sign pattern and both derivative bounds over the grid.

    Inside the support the bounds are 0 <= f' <= z/(g(z)^2 rho(z)) + 1/q(0)
    left of z and -1/q(z) <= f' <= 0 right of z.  Outside a finite-support
    law's interval the derivative is (h - E[h])/x^2, bounded by Phi(z)/a^2
    below a and by F(z)/b^2 in magnitude above b.  The grid must be
    nonempty and avoid {z, a, b}.
    """
    xs = _checked_grid(sol, grid)
    law, z = sol.law, sol.z
    a, b = law.support_a, law.support_b
    _, fp, residual = evaluate(sol, xs)
    left = xs <= z
    sign_violations = int(np.sum((left & (fp < 0.0)) | (~left & (fp > 0.0))))

    g_z = stein_kernel(law, z)
    flux_g = g_z * g_z * pearson.density(law, z)
    ub_left = z / flux_g + 1.0 / q_function(law, 0.0) if flux_g > 0.0 else math.inf
    if not math.isfinite(ub_left):  # decision 11: an infinite bound says nothing, so no certificate carries it
        raise DensityUnderflowError(f"the uniform bound z/(g(z)^2 rho(z)) at z={z} is past the largest double: "
                                    f"g(z)^2 rho(z) has underflowed to {flux_g!r}")
    lower = np.where(left, 0.0, np.where(xs < b, -1.0 / q_function(law, z), -sol.eh / (b * b)))
    upper = np.where(left, np.where(xs > a, ub_left, sol.phi_star_z / (a * a)), 0.0)
    margins = np.minimum(fp - lower, upper - fp)
    min_left = float(np.min(margins[left], initial=np.inf))
    min_right = float(np.min(margins[~left], initial=np.inf))

    in_support = (xs > a) & (xs < b)
    uni_margin = float(ub_left - np.max(np.abs(fp[in_support]), initial=-np.inf))
    passed = sign_violations == 0 and min_left >= 0.0 and min_right >= 0.0 and uni_margin >= 0.0
    return SteinDerivativeCertificate(
        z=z,
        grid_spec=f"{xs.min()}:{xs.max()}:{len(xs)}",
        n_points=len(xs),
        residual_max=float(np.max(np.abs(residual))),
        sign_violations=sign_violations,
        min_margin_left=min_left,
        min_margin_right=min_right,
        uniform_bound=ub_left,
        uniform_bound_margin=uni_margin,
        passed=passed,
        law_json=pearson.law_to_json(law),
    )


def certification_grid(law: PearsonLaw, z: float, n: int = 2000) -> np.ndarray:
    """Interior grid spanning the bulk of the law, kinks excluded; a fresh array on every call.

    Covers quantiles 1e-6 to 1-1e-6 with n points; for finite support ends a
    short segment of n // 20 points beyond each endpoint is appended so the
    outside-support branches are exercised too.  Points within a relative
    1e-9 neighborhood of {z, a, b} are dropped.  z enters only as that kink,
    so the rest of the grid is built once per (law, n) and reused for every
    threshold.  n is an integer of at least 2; a NaN z raises DomainError.
    """
    n = as_int(n, "the grid size n")
    if n < 2:
        raise DomainError(f"the grid needs n >= 2 points, got n={n}")
    z = as_float(z, "the threshold z")
    if math.isnan(z):
        raise DomainError("the threshold z is NaN")
    xs = _bulk_grid(law, n)
    return xs[np.abs(xs - z) > 1e-9 * max(1.0, abs(z))] if math.isfinite(z) else xs.copy()


@functools.lru_cache(maxsize=32)
def _bulk_grid(law: PearsonLaw, n: int) -> np.ndarray:
    """The part of ``certification_grid`` that does not depend on z, sorted and clear of the kinks
    {a, b}; read-only, as it is shared by every call with this (law, n)."""
    lo, hi = pearson.quantile(law, np.array([1.0 - 1e-6, 1e-6])).tolist()
    parts = [np.linspace(lo, hi, n)]
    w = hi - lo
    if math.isfinite(law.support_a):
        parts.append(np.linspace(law.support_a - 0.5 * w, law.support_a - 1e-6 * w, n // 20))
    if math.isfinite(law.support_b):
        parts.append(np.linspace(law.support_b + 1e-6 * w, law.support_b + 0.5 * w, n // 20))
    xs = np.sort(np.concatenate(parts))
    keep = np.ones(len(xs), dtype=bool)
    for kink in (law.support_a, law.support_b):
        if math.isfinite(kink):
            keep &= np.abs(xs - kink) > 1e-9 * max(1.0, abs(kink))
    xs = xs[keep]
    xs.flags.writeable = False
    return xs
