"""Numerical kernels shared by the law and chaos modules.

``panel_integrals`` integrates over many intervals at once with fixed-order
Gauss-Legendre panels; summed from the small end, panels keep relative
accuracy in deep tails.  ``solve_monotone`` finds the roots of any number of
monotone functions in one call, by Newton steps safeguarded with bisection:
on arrays while many problems run, on Python floats once few are left.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import DomainError

# 16-node Gauss-Legendre rule on [-1, 1]; exact through degree 31 per panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANEL_CHUNK = 2048
# Bisection alone closes a bracket around a root of magnitude >= 1 in about 10 + 55 steps (at most 67 measured,
# brackets up to +-1.7e308).  Below magnitude 1 it halves arithmetically: about 55 + log2(1/|root|) steps for a
# normal root, 124 at 1e-20, 390 at 1e-100 and 1,076 at 0, so a root below ~1e-100 that only bisection reaches
# raises here (decision 8).
_MAX_STEPS = 400
_RTOL = 4.0 * sys.float_info.epsilon
_PATIENCE = 100  # steps after which a Newton step must halve the last step, not the one before it
_FLOAT_MAX = 32  # running problems at or below which the steps run on floats; measured crossover ~40 (decision 8)


def panel_integrals(f_vec: Callable[[np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """Integral of f over each interval (lo[i], hi[i]) (vectorized f).

    Each interval is computed on its own, so its value does not depend on the
    others.  f is called on _PANEL_CHUNK intervals at a time, so its
    temporaries stay a few MB whatever the number of intervals.
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


def _split(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bisection points: where the ends' magnitudes, counted as at least 1, differ by more than 4x,
    their geometric mean (0 across a sign change): around a root of magnitude >= 1 any bracket closes in
    ~65 steps, but below magnitude 1 the midpoints are arithmetic (see _MAX_STEPS)."""
    a, b = np.maximum(np.abs(lo), 1.0), np.maximum(np.abs(hi), 1.0)
    geo = np.where((lo >= 0.0) | (hi <= 0.0), np.sign(lo + hi) * np.sqrt(a) * np.sqrt(b), 0.0)
    return np.where(np.maximum(a, b) > 4.0 * np.minimum(a, b), geo, 0.5 * lo + 0.5 * hi)


def _split_float(lo: float, hi: float) -> float:
    """``_split`` of one bracket.  Where the geometric mean is taken, |lo + hi| > 4, so its sign is +-1."""
    a, b = max(abs(lo), 1.0), max(abs(hi), 1.0)
    if not max(a, b) > 4.0 * min(a, b):
        return 0.5 * lo + 0.5 * hi
    return math.copysign(math.sqrt(a), lo + hi) * math.sqrt(b) if lo >= 0.0 or hi <= 0.0 else 0.0


def solve_monotone(f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]], lo, hi, increasing,
                   x0=None, *, xtol: float) -> np.ndarray:
    """Roots of strictly monotone functions, any number in one call, each inside its finite bracket.

    f(x, i) returns (value, slope) of the problems i, the indices of those
    still running, at their iterates x.  Problem i has one root in
    [lo[i], hi[i]] and is increasing where increasing[i].  Each step is
    Newton's where it stays inside the current bracket and is at most half the
    step before last, and a bisection otherwise (rtsafe, Numerical Recipes
    9.4); the sign of f at each iterate shrinks the bracket.  From step
    _PATIENCE on, a Newton step must be at most half the last step: Newton on
    a power c x^k, or at a root of multiplicity k, gains only (k - 1)/k a
    step, which the first rule lets pass for k <= 3, and across the doubles'
    range that takes hundreds.  No solve that ends sooner is touched by the
    second rule.  A problem stops after a Newton step of at most
    xtol + 4 eps |x|, or when bisection can no longer split its bracket: the
    root is then within one double, however steep f is there.  It then leaves
    the working arrays, so f never sees it again, and no problem's steps depend
    on another's.  x0 are optional starting points inside the brackets; a NaN
    start is the bracket's first bisection point.  A bracket end that is not
    finite raises DomainError.

    While more than _FLOAT_MAX problems run, each step is a few dozen array
    operations; once at most _FLOAT_MAX are left, from the start or after a
    batch thins out, ``_float_steps`` takes the same steps on Python floats,
    where numpy's per-call overhead would be all of a step's cost.  f is
    called with arrays either way, and every root keeps its bits.
    """
    lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise DomainError("bracketed solve needs finite brackets")
    sign = np.full(lo.shape, np.where(increasing, 1.0, -1.0))
    x = np.full(lo.shape, math.nan if x0 is None else x0, dtype=float)  # NaN: the executor that starts sets it
    root = np.empty(lo.shape)
    if not lo.size:
        return root
    i = np.arange(lo.size)
    step_old = step = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if i.size > _FLOAT_MAX:
            x = np.where(np.isnan(x), _split(lo, hi), x)
        for k in range(_MAX_STEPS):
            if i.size <= _FLOAT_MAX:
                return _float_steps(f, k, root, i, x, lo, hi, sign, step_old, step, xtol=xtol)
            val, slope = f(x, i)
            below = sign * val < 0.0  # the root is right of x
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            dx = val / slope
            x_new = x - dx
            limit = step_old if k < _PATIENCE else step
            newton = (x_new >= lo) & (x_new <= hi) & (np.abs(dx) <= 0.5 * limit) & np.isfinite(slope)
            if not newton.all():
                x_new = np.where(newton, x_new, _split(lo, hi))
            step_old, step, x = step, np.abs(x_new - x), x_new
            going = np.where(newton, np.abs(dx) > xtol + _RTOL * np.abs(x), step > 0.0)
            if not going.all():
                root[i[~going]] = x[~going]
                if not going.any():
                    return root
                x, lo, hi, sign, step_old, step, i = (a[going] for a in (x, lo, hi, sign, step_old, step, i))
    raise DomainError(f"bracketed solve did not converge in {_MAX_STEPS} steps")


def _float_steps(f, k0: int, root: np.ndarray, i: np.ndarray, *state: np.ndarray, xtol: float) -> np.ndarray:
    """Steps k0, k0 + 1, ... of ``solve_monotone`` for the problems i, on Python floats; writes their roots.

    state is (x, lo, hi, sign, step_old, step) as the array steps hold them;
    at k0 = 0, x holds the starts, NaN where none was given.
    Each problem takes the array steps' rule, operation for operation: a
    float and a float64 array element round alike, so each root keeps its
    bits (``tests/test_quadrature.py``).  A slope that is 0 or not finite
    refuses the Newton step before the division, as the inf or NaN step of
    the array form fails its tests.
    """
    x, lo, hi, sign, step_old, step = (a.tolist() for a in state)
    if k0 == 0:  # a NaN start is the bracket's first bisection point
        x = [_split_float(a, b) if math.isnan(v) else v for v, a, b in zip(x, lo, hi)]
    xs = np.array(x)
    for k in range(k0, _MAX_STEPS):
        val, slope = f(xs, i)
        val, slope = _floats(val, len(x)), _floats(slope, len(x))
        limit = step_old if k < _PATIENCE else step
        keep = []
        for j, (v, s) in enumerate(zip(val, slope)):
            xj = x[j]
            if sign[j] * v < 0.0:  # the root is right of x
                lo[j] = xj
            else:
                hi[j] = xj
            newton = s != 0.0 and math.isfinite(s)
            if newton:
                dx = v / s
                x_new = xj - dx
                newton = lo[j] <= x_new <= hi[j] and abs(dx) <= 0.5 * limit[j]
            if not newton:
                x_new = _split_float(lo[j], hi[j])
            step_old[j], step[j], x[j] = step[j], abs(x_new - xj), x_new
            if (abs(dx) > xtol + _RTOL * abs(x_new)) if newton else (step[j] > 0.0):
                keep.append(j)
            else:
                root[i[j]] = x_new
        if len(keep) < len(x):
            if not keep:
                return root
            x, lo, hi, sign, step_old, step = ([a[j] for j in keep] for a in (x, lo, hi, sign, step_old, step))
            i = i[keep]
        xs = np.array(x)
    raise DomainError(f"bracketed solve did not converge in {_MAX_STEPS} steps")


def _floats(a, n: int) -> list[float]:
    """f's values or slopes as n floats; f may return one number for all."""
    return a.tolist() if np.ndim(a) else [float(a)] * n
