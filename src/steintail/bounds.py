"""Tail-comparison certificates for quadratic-kernel reference laws.

Three layers of machinery:

* finite-z envelopes: for z > 0 the survival function is pinched between
  max(z - g'(z), 0)/q(z) * g(z) rho(z) and g(z) rho(z) / z, with a mirrored
  pair for z < 0;
* comparison bounds for a dominating/dominated variable X: the implicit
  integral lower bound P[X>z] >= Phi(z) - (1/q(z)) int_z^inf (2x-z) P[X>x] dx,
  with the integral exact from X's partial moments (Fubini, no quadrature)
  and q(z) lowered to b^2/F(z) where X has mass past a finite right end b,
  its explicit closure ((c-2) q(z)) / ((c-2) q(z) + 2 z^2) * Phi(z), and the
  admissible multiplier infimum (1-alpha)/(1-2*alpha) for upper bounds.
  ``statement_table`` owns their policy: which statements a scenario makes,
  where each is asserted and with which constants (decision 6);
* asymptotic constants: the limit K of the normalized flux
  z^(-p) e^(z/scale) g(z) rho(z), read from the law's right-tail form
  g rho ~ K z^p e^(-z/scale) (``pearson.tail_asymptotics``), which sandwiches
  z-power-normalized tails in [K (1-2 alpha)/(1-alpha), K] (exact squeeze in
  the linear-kernel case).

The pointwise certificates (``phi_envelope``, ``implicit_integral``,
``implicit_lower_bound``, ``pearson_lower``) take a number or an array of any
shape, so a z grid is one call: they compose ``pearson``'s evaluators with
broadcasting arithmetic, and a number gives a float.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

import numpy as np

from . import pearson
from .errors import DomainError, InvalidConstantError, ThirdMomentError
from .pearson import PearsonCoefficients, PearsonLaw, q_function

__all__ = [
    "Direction",
    "phi_envelope",
    "implicit_integral",
    "implicit_lower_bound",
    "pearson_lower",
    "pearson_lower_constant",
    "pearson_upper_constant",
    "asymptotic_tail_constant",
    "normalized_tail",
    "variance_bound_check",
    "statement_table",
]


class Direction(str, Enum):
    GE = "GE"
    LE = "LE"


def _points(x):  # a number as a numpy scalar: the arithmetic broadcasts, and a number stays cheap
    return np.asarray(x, dtype=float)[()]


def _out(v):
    return float(v) if np.ndim(v) == 0 else v


def phi_envelope(law: PearsonLaw, x):
    """Certified bracket (lower, upper) from the flux g(x) rho(x).

    For x > 0 it brackets the tail P[Z > x]; for x < 0 it brackets
    1 - P[Z > x].  At x = 0 the upper bound degenerates to the trivial 1.
    A float is bracketed in Python arithmetic around its one flux call, to
    the bits of the array form.
    """
    c = law.coeffs
    if isinstance(x, float):
        x = float(x)  # a numpy float64 too
        if not law.support_a < x < law.support_b:  # NaN fails too
            raise DomainError(f"envelope point {x} outside the open support")
        flux, g_prime = pearson.flux(law, x), 2.0 * c.alpha * x + c.beta
        gap = x - g_prime if x >= 0.0 else g_prime - x
        q = (1.0 - c.alpha) * x * x + c.gamma
        lower = (gap if gap > 0.0 else 0.0) / q * flux  # np.maximum(gap, 0.0) is +0.0 at -0.0 too
        return lower, min(flux / abs(x), 1.0) if x else 1.0
    x = _points(x)
    inside = (law.support_a < x) & (x < law.support_b)
    if not inside.all():  # NaN fails too
        raise DomainError(f"envelope point {np.extract(~inside, x)[0]} outside the open support")
    flux, q = pearson.flux(law, x), q_function(law, x)
    g_prime = 2.0 * c.alpha * x + c.beta
    gap = np.where(x >= 0.0, x - g_prime, g_prime - x)  # the mirrored pair for x < 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # fmin reads 1 at x = 0; q may be inf
        return _out(np.maximum(gap, 0.0) / q * flux), _out(np.fmin(flux / np.abs(x), 1.0))


def implicit_integral(z, at_z):
    """int_z^inf (2x - z) P[X > x] dx = E[X (X - z); X > z] in closed form from X's partial moments at z.

    By Fubini the integral is E[X^2 - z X; X > z] = m2 - z m1, where at_z holds
    (P[X > z], m1, m2) = (P[X > z], E[X; X > z], E[X^2; X > z]), each a number or of z's shape.
    """
    z = _points(z)
    if np.isnan(z).any():
        raise DomainError("evaluation point is NaN")
    _, m1, m2 = at_z
    return _out(m2 - z * m1)


def implicit_lower_bound(law: PearsonLaw, z, at_z, x_end: float = math.inf):
    """Phi(z) - E[X (X - z); X > z] / q for 0 < z < b, the integral by ``implicit_integral`` from X's
    partial moments at z (docs/DECISIONS.md, decision 6).

    q is q(z).  Where the reference's right end b is finite and below X's right end ``x_end``, X has
    mass where the Stein solution has |f'(x)| = F(z) / x^2 <= F(z) / b^2, so q is min(q(z), b^2 / F(z)).
    """
    z = _points(z)
    inside = (0.0 < z) & (z < law.support_b)
    if not inside.all():  # NaN fails too
        raise DomainError(f"requires 0 < z < b, got z={np.extract(~inside, z)[0]}")
    q, b = q_function(law, z), law.support_b
    if b < x_end:
        q = np.minimum(q, b * b / pearson.cdf(law, z))
    return _out(pearson.tail(law, z) - implicit_integral(z, at_z) / q)


def pearson_lower(law: PearsonLaw, z, c: float):
    """Explicit lower-bound factor and its large-z limit.

    Returns (bound, asymptotic_constant) where
    bound = (c-2) q(z) / ((c-2) q(z) + 2 z^2) * Phi(z), of z's shape, and the
    constant is ``pearson_lower_constant``; both require c > 2.
    """
    constant = pearson_lower_constant(law.coeffs.alpha, c)
    z = _points(z)
    if not (z > 0.0).all():
        raise DomainError(f"requires z > 0, got {np.extract(~(z > 0.0), z)[0]}")
    q = q_function(law, z)
    bound = (c - 2.0) * q / ((c - 2.0) * q + 2.0 * z * z) * pearson.tail(law, z)
    return _out(bound), constant


def pearson_lower_constant(alpha: float, c: float) -> float:
    """Large-z limit (c-2)(1-alpha) / (c - alpha (c-2)) of the explicit lower-bound factor; the bound needs c > 2."""
    if not c > 2.0:
        raise InvalidConstantError(f"explicit lower bound requires c > 2, got {c}")
    return (c - 2.0) * (1.0 - alpha) / (c - alpha * (c - 2.0))


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


Statement = namedtuple("Statement", "name side value asserted")  # side "lower" or "upper"; value, asserted of z's shape


def statement_table(lower: PearsonLaw | None, upper: PearsonLaw | None, z, at_z, x_end: float = math.inf,
                    c: float = 4.0, k: float | None = None) -> tuple[list[Statement], dict]:
    """The comparison statements on a z grid, one row each, and the constants they use (decision 6 tabulates both).

    A side under a dominance hypothesis names its reference law, the other None; at_z and ``x_end`` are X's.  The
    explicit lower bound, with constant c, and K Phi_u, K = k or twice ``pearson_upper_constant``, are asserted
    past 10 sd of their reference, while the implicit one is asserted at every z.
    """
    z = np.asarray(z, dtype=float)
    rows, z_lower, z_upper = [], None, None
    if lower is not None:
        z_lower = 10.0 * math.sqrt(lower.variance)
        rows += [Statement("implicit", "lower", implicit_lower_bound(lower, z, at_z, x_end), np.full(z.shape, True)),
                 Statement("explicit", "lower", pearson_lower(lower, z, c)[0], z >= z_lower)]
    if upper is not None:
        z_upper = 10.0 * math.sqrt(upper.variance)
        k = 2.0 * pearson_upper_constant(upper.coeffs.alpha) if k is None else k
        rows.append(Statement("K Phi", "upper", k * pearson.tail(upper, z), z >= z_upper))
    return rows, {"k_upper": k, "c_lower": c, "z_min_lower": z_lower, "z_min_upper": z_upper}
