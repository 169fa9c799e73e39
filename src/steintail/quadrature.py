"""Numerical kernels shared by the law and chaos modules.

``panel_integrals`` integrates over many intervals at once with fixed-order
Gauss-Legendre panels; summed from the small end, panels keep relative
accuracy in deep tails.  ``solve_monotone`` finds the roots of any number of
monotone functions in one call, by Newton steps safeguarded with bisection:
on arrays, and a polynomial's last few problems each on Python floats.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import DomainError

# 16-node Gauss-Legendre rule on [-1, 1]; exact through degree 31 per panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANEL_CHUNK = 512
# bisection alone closes any finite bracket in 64 halvings; with Newton steps mixed in, no bound is derived (decision 8)
_MAX_STEPS = 400
_RTOL = 4.0 * sys.float_info.epsilon
_PATIENCE = 100  # steps after which a Newton step must halve the last step, not the one before it
_FLOAT_MAX = 32  # polynomial problems at or below which each runs on floats; measured crossover ~40 (decision 8)
_LOW63 = 2**63 - 1  # every bit of an int64 but its sign
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")  # f and the steps may overflow, divide by 0 or meet NaN


def panel_integrals(f_vec: Callable[[np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """Integral of f over each interval (lo[i], hi[i]) (vectorized f).

    Each interval is computed on its own, so its value does not depend on the
    others.  f is called on _PANEL_CHUNK intervals at a time, 8,192 nodes,
    so each of its temporaries is 64 KB whatever the number of intervals: a
    case-5 certificate, both tails read on its 2,000-point grid, peaks at
    0.73 MB under tracemalloc (2.3 MB with 2,048 intervals a call).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    out = np.empty(half.size)
    for i in range(0, half.size, _PANEL_CHUNK):
        h, m = half[i:i + _PANEL_CHUNK], mid[i:i + _PANEL_CHUNK]
        xs = m[:, None] + h[:, None] * _GL_NODES[None, :]  # (intervals, 16)
        out[i:i + _PANEL_CHUNK] = h * np.sum(f_vec(xs.ravel()).reshape(xs.shape) * _GL_WEIGHTS, axis=1)
    return out


def _split(lo, hi):
    """Bisection points of arrays or floats: the lower middle double of [lo, hi] in the order of the doubles, read
    as int64 with the sign folded.  There are fewer than 2^64 doubles, so any finite bracket closes in 64 halvings."""
    ends = (np.array([lo, hi], dtype=float) + 0.0).view(np.int64)  # + 0.0 reads -0.0 as 0.0
    a, b = ends ^ ((ends >> 63) & _LOW63)
    mid = (a >> 1) + (b >> 1) + (a & b & 1)  # floor((a + b) / 2), free of overflow
    return (mid ^ ((mid >> 63) & _LOW63)).view(float)


def horner(c, t):
    """sum c_k t^k by Horner (c low to high, () is 0; t a number or an array): polyval's steps at finite t."""
    acc = c[-1] if len(c) else 0.0
    for ck in c[-2::-1]:
        acc = acc * t + ck
    return acc


def solve_monotone(f, lo, hi, increasing, x0=None, *, xtol: float) -> np.ndarray:
    """Roots of strictly monotone functions, any number in one call, each inside its finite bracket.

    f(x, i) returns (value, slope) of the problems i, the indices of those
    still running, at their iterates x.  A polynomial f is given instead as
    (p, p'), two sequences of monomial coefficients low to high, and the
    solver evaluates it by ``horner``.  Problem i has one root in
    [lo[i], hi[i]] and is increasing where increasing[i].  Each step is
    Newton's where it stays inside the current bracket and is at most half the
    step before last, and a bisection otherwise (rtsafe, Numerical Recipes
    9.4); the sign of f at each iterate shrinks the bracket.  From step
    _PATIENCE on, a Newton step must be at most half the last step: Newton on
    a power c x^k, or at a root of multiplicity k, gains only (k - 1)/k a
    step, which the first rule lets pass for k <= 3, and across the doubles'
    range that takes hundreds.  No solve that ends sooner is touched by the
    second rule.  A problem stops after a Newton step of at most
    xtol + 4 eps |x|, at an iterate where f is exactly 0, or when bisection
    can no longer split its bracket: the root is then within one double,
    however steep f is there.  It then leaves the working arrays, so f never
    sees it again, and no problem's steps depend on another's.  x0 are
    optional starting points inside the brackets; a NaN start is the bracket's
    arithmetic midpoint, rtsafe's own start.  A bracket end that is not finite
    raises DomainError.

    A callable f steps on arrays: a few dozen array operations a step for all
    running problems.  A polynomial of at most _FLOAT_MAX problems has no
    array set-up (brackets given as lists do not become arrays at all): each
    problem runs to its root in a loop of its own on Python floats
    (``_poly_root``), where numpy's per-call overhead would be all of a step's
    cost; a larger batch steps on arrays until at most _FLOAT_MAX run.
    """
    poly = not callable(f)
    if poly and isinstance(lo, list) and len(lo) <= _FLOAT_MAX:
        lo, hi = list(map(float, lo)), list(map(float, hi))
    else:
        lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
        if poly and lo.size <= _FLOAT_MAX:
            lo, hi = lo.tolist(), hi.tolist()
    if isinstance(lo, list):  # a polynomial on floats from the start: no numpy until its roots
        if not all(map(math.isfinite, lo + hi)):
            raise DomainError("bracketed solve needs finite brackets")
        n = len(lo)
        starts = [math.nan] * n if x0 is None else _each(x0, n)
        inc = increasing if isinstance(increasing, list) and len(increasing) == n else _each(increasing, n)
        return np.array([_poly_root(*f, 0, (0.5 * a + 0.5 * b if math.isnan(s) else s, a, b, 1.0 if v else -1.0,
                                            b - a, b - a), xtol)  # b - a is inf where wider than the largest double
                         for a, b, s, v in zip(lo, hi, starts, inc)])
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise DomainError("bracketed solve needs finite brackets")
    if not lo.size:  # no problem, no call of f
        return np.empty(lo.shape)
    sign = np.full(lo.shape, np.where(increasing, 1.0, -1.0))
    mid = 0.5 * lo + 0.5 * hi  # rtsafe's start where none is given
    x = mid if x0 is None else np.where(np.isnan(x0), mid, x0)
    root = np.empty(lo.shape)
    i = np.arange(lo.size)
    on_arrays = (lambda x, i: (horner(f[0], x), horner(f[1], x))) if poly else f
    with np.errstate(**_QUIET):
        step_old = step = hi - lo  # inf where the bracket is wider than the largest double
        for k in range(_MAX_STEPS):
            if poly and i.size <= _FLOAT_MAX:  # the rest on floats, each problem from its own row
                rows = zip(*(a.tolist() for a in (x, lo, hi, sign, step_old, step)))
                root[i] = [_poly_root(*f, k, row, xtol) for row in rows]
                return root
            val, slope = on_arrays(x, i)
            below = sign * val < 0.0  # the root is right of x
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            dx = val / slope
            x_new = x - dx
            limit = step_old if k < _PATIENCE else step
            newton = (x_new >= lo) & (x_new <= hi) & (np.abs(dx) <= 0.5 * limit) & np.isfinite(slope)
            if not newton.all():  # bisect, unless f is exactly 0 at x: x is then the root
                x_new = np.where(newton, x_new, np.where(val == 0.0, x, _split(lo, hi)))
            step_old, step, x = step, np.abs(x_new - x), x_new
            going = np.where(newton, np.abs(dx) > xtol + _RTOL * np.abs(x), step > 0.0)
            if not going.all():
                root[i[~going]] = x[~going]
                if not going.any():
                    return root
                x, lo, hi, sign, step_old, step, i = (a[going] for a in (x, lo, hi, sign, step_old, step, i))
    raise DomainError(f"bracketed solve did not converge in {_MAX_STEPS} steps")


def _poly_root(p, dp, k: int, row: tuple, xtol: float) -> float:
    """The root of one polynomial problem from step k on: ``_float_step`` at Horner's value and slope."""
    for k in range(k, _MAX_STEPS):
        row, going = _float_step(k, horner(p, row[0]), horner(dp, row[0]), row, xtol)
        if not going:
            return row[0]
    raise DomainError(f"bracketed solve did not converge in {_MAX_STEPS} steps")


def _float_step(k: int, v: float, s: float, row: tuple, xtol: float):
    """Step k of one problem, row = (x, lo, hi, sign, step_old, step), from f's value v and slope s at x: the
    row after it, and whether the problem goes on.  A slope that is 0 or not finite refuses the Newton step
    before the division, as the inf or NaN step of the array form fails its tests."""
    x, lo, hi, sign, step_old, step = row
    if sign * v < 0.0:  # the root is right of x
        lo = x
    else:
        hi = x
    newton = s != 0.0 and math.isfinite(s)
    if newton:
        dx = v / s
        x_new = x - dx
        newton = lo <= x_new <= hi and abs(dx) <= 0.5 * (step_old if k < _PATIENCE else step)
    if not newton:
        x_new = x if v == 0.0 else float(_split(lo, hi))
    step_old, step = step, abs(x_new - x)
    return (x_new, lo, hi, sign, step_old, step), (abs(dx) > xtol + _RTOL * abs(x_new)) if newton else step > 0.0


def _each(a, n: int) -> list[float]:
    """n floats, one per problem: the starts or the directions of a polynomial's; one number stands for all."""
    out = np.asarray(a, dtype=float).ravel().tolist()
    return out * n if len(out) == 1 else out
