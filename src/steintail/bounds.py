"""Tail-comparison certificates for quadratic-kernel reference laws.

Three layers of machinery:

* finite-z envelopes: for z > 0 the survival function is pinched between
  max(z - g'(z), 0)/q(z) * g(z) rho(z) and g(z) rho(z) / z, with a mirrored
  pair for z < 0;
* comparison bounds for a dominating/dominated variable X: the implicit
  integral lower bound P[X>z] >= Phi(z) - (1/q(z)) int_z^b (2x-z) P[X>x] dx,
  with the integral exact from X's partial moments (Fubini, no quadrature),
  its explicit closure ((c-2) q(z)) / ((c-2) q(z) + 2 z^2) * Phi(z), and the
  admissible multiplier infimum (1-alpha)/(1-2*alpha) for upper bounds;
* asymptotic constants: the limit K of the normalized flux
  z^(-p) e^(z/scale) g(z) rho(z), read from the law's right-tail form
  g rho ~ K z^p e^(-z/scale) (``pearson.tail_asymptotics``), which sandwiches
  z-power-normalized tails in [K (1-2 alpha)/(1-alpha), K] (exact squeeze in
  the linear-kernel case).
"""

from __future__ import annotations

import math
from enum import Enum

from . import pearson
from .errors import DomainError, InvalidConstantError, ThirdMomentError
from .pearson import PearsonCoefficients, PearsonLaw, q_function

__all__ = [
    "Direction",
    "phi_envelope",
    "implicit_integral",
    "implicit_lower_bound",
    "pearson_lower",
    "pearson_upper_constant",
    "asymptotic_tail_constant",
    "normalized_tail",
    "variance_bound_check",
    "regime_threshold",
]


class Direction(str, Enum):
    GE = "GE"
    LE = "LE"


def phi_envelope(law: PearsonLaw, x: float) -> tuple[float, float]:
    """Certified bracket from the flux g(x) rho(x).

    For x > 0 the pair (lower, upper) brackets the tail P[Z > x]; for x < 0 it
    brackets 1 - P[Z > x].  At x = 0 the upper bound degenerates to the trivial
    1.
    """
    x = float(x)
    if not law.support_a < x < law.support_b:
        raise DomainError(f"envelope point {x} outside the open support")
    c = law.coeffs
    flux = pearson.flux(law, x)
    q = q_function(law, x)
    g_prime = 2.0 * c.alpha * x + c.beta
    gap = x - g_prime if x >= 0.0 else g_prime - x  # the mirrored pair for x < 0
    upper = flux / abs(x) if x != 0.0 else 1.0
    return max(gap, 0.0) / q * flux, min(upper, 1.0)


def implicit_integral(x_moments, z: float, b: float) -> float:
    """int_z^b (2x - z) P[X > x] dx in closed form from the partial moments of X.

    By Fubini the integral is E[m (m - z); X > z] with m = min(X, b).  With
    J(y) = E[X (X - z); X > y] that is J(z), less J(b) - b (b - z) P[X > b]
    for a finite b.  x_moments(y) returns (P[X > y], E[X; X > y], E[X^2; X > y]).
    """
    _, m1, m2 = x_moments(z)
    integral = m2 - z * m1
    if math.isfinite(b):
        t_b, m1_b, m2_b = x_moments(b)
        integral -= m2_b - z * m1_b - b * (b - z) * t_b
    return integral


def implicit_lower_bound(law: PearsonLaw, x_moments, z: float) -> float:
    """Phi(z) - (1/q(z)) int_z^b (2x - z) P[X > x] dx, the integral by ``implicit_integral``."""
    if not 0.0 < z < law.support_b:
        raise DomainError(f"requires 0 < z < b, got z={z}")
    integral = implicit_integral(x_moments, z, law.support_b)
    return pearson.tail(law, z) - integral / q_function(law, z)


def pearson_lower(law: PearsonLaw, z: float, c: float) -> tuple[float, float]:
    """Explicit lower-bound factor and its large-z limit.

    Returns (bound, asymptotic_constant) where
    bound = (c-2) q(z) / ((c-2) q(z) + 2 z^2) * Phi(z) and the constant is
    (c-2)(1-alpha) / (c - alpha (c-2)); both require c > 2.
    """
    if not c > 2.0:
        raise InvalidConstantError(f"explicit lower bound requires c > 2, got {c}")
    if not z > 0.0:
        raise DomainError(f"requires z > 0, got {z}")
    al = law.coeffs.alpha
    q = q_function(law, z)
    bound = (c - 2.0) * q / ((c - 2.0) * q + 2.0 * z * z) * pearson.tail(law, z)
    asymptotic = (c - 2.0) * (1.0 - al) / (c - al * (c - 2.0))
    return bound, asymptotic


def pearson_upper_constant(alpha: float) -> float:
    """Infimum of admissible upper-bound multipliers; callers pick any K above it."""
    if not alpha < 0.5:
        raise ThirdMomentError(f"upper-bound constant needs alpha < 1/2 (finite third moment), got {alpha}")
    return (1.0 - alpha) / (1.0 - 2.0 * alpha)


def asymptotic_tail_constant(law: PearsonLaw) -> tuple[float, float]:
    """Closed-form limit K of the normalized flux and the sandwich lower factor.

    Defined for laws whose flux has the right tail g rho ~ K z^p e^(-z/scale)
    (``pearson.tail_asymptotics``); K is formed from ln K.  An exponential
    tail (the linear kernel) squeezes exactly (lower factor 1).  Quadratic
    kernels: the normalized tail z^(1+1/alpha) P[Z > z] ends up in
    [K (1-2 alpha)/(1-alpha), K].  A K beyond the doubles raises
    ``DomainError``.
    """
    log_k, _, scale = pearson.tail_asymptotics(law)
    try:
        k = math.exp(log_k)
    except OverflowError:
        raise DomainError(f"asymptotic constant K = exp({log_k:.6g}) is beyond the doubles") from None
    al = law.coeffs.alpha
    return k, 1.0 if math.isfinite(scale) else max((1.0 - 2.0 * al) / (1.0 - al), 0.0)


def normalized_tail(law: PearsonLaw, z: float) -> float:
    """Tail rescaled so that it converges into [K * lower_factor, K]: z times the flux normalizer.

    Linear kernel: z^(1-r) e^(z/s) P[Z > z] -> K exactly (note the exponent
    1 - r = 1 - mu/s; the growth normalizer must cancel the z^(r-1) factor of
    the flux).  Quadratic kernels: z^(1+1/alpha) P[Z > z].
    """
    if not z > 0.0:
        raise DomainError(f"normalized_tail requires z > 0, got {z}")
    lt = pearson.log_tail(law, z)
    _, p, scale = pearson.tail_asymptotics(law)
    log_val = lt + z / scale + (1.0 - p) * math.log(z)
    try:
        return math.exp(log_val)
    except OverflowError:
        raise DomainError(f"normalized tail exp({log_val:.6g}) at z={z} is beyond the doubles") from None


def variance_bound_check(coeffs: PearsonCoefficients, var_of_x: float, direction: Direction | str) -> bool:
    """Compare Var[X] against the reference variance gamma/(1-alpha), to a relative 1e-9."""
    if var_of_x < 0.0:
        raise DomainError(f"variance must be nonnegative, got {var_of_x}")
    direction = Direction(direction)
    target = pearson.variance(coeffs)
    slack = 1e-9 * target
    if direction is Direction.GE:
        return var_of_x >= target - slack
    return var_of_x <= target + slack


def regime_threshold(coeffs: PearsonCoefficients) -> float:
    """z_min = 10 sqrt(gamma/(1-alpha)): below it large-z verdicts are informational."""
    return 10.0 * math.sqrt(pearson.variance(coeffs))
