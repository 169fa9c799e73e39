"""Quadrature helpers shared by the law, bound, and chaos modules.

Adaptive work goes through QUADPACK (Gauss-Kronrod with the usual rational
substitutions on infinite ranges).  Grid-restricted cumulative integrals use
fixed-order Gauss-Legendre panels between consecutive grid points, which keeps
relative accuracy in deep tails when accumulated from the small end.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
from scipy import integrate as _int

from .errors import NonIntegrableTailError

ABS_TOL = 1e-12
REL_TOL = 1e-10

# 16-node Gauss-Legendre rule on [-1, 1]; exact through degree 31 per panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANEL_CHUNK = 4096


def adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    points=None,
    epsabs: float = ABS_TOL,
    epsrel: float = REL_TOL,
    limit: int = 200,
) -> float:
    """Adaptive integral of f over (a, b); raises if QUADPACK fails to converge."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", _int.IntegrationWarning)
        try:
            if points is not None and np.isfinite(a) and np.isfinite(b):
                val, _ = _int.quad(f, a, b, points=points, epsabs=epsabs, epsrel=epsrel, limit=limit)
            else:
                val, _ = _int.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
        except _int.IntegrationWarning as exc:
            raise NonIntegrableTailError(f"quadrature on ({a}, {b}) did not converge: {exc}") from None
    return val


def panel_integrals(f_vec: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> np.ndarray:
    """Integral of f over each consecutive pair of grid points (vectorized f).

    f is called on _PANEL_CHUNK panels at a time, so its temporaries stay a
    few MB whatever the grid size.
    """
    grid = np.asarray(grid, dtype=float)
    half = 0.5 * (grid[1:] - grid[:-1])
    mid = 0.5 * (grid[1:] + grid[:-1])
    out = np.empty(half.size)
    for i in range(0, half.size, _PANEL_CHUNK):
        h, m = half[i:i + _PANEL_CHUNK], mid[i:i + _PANEL_CHUNK]
        xs = m[:, None] + h[:, None] * _GL_NODES[None, :]  # (panels, 16)
        out[i:i + _PANEL_CHUNK] = h * (f_vec(xs.ravel()).reshape(xs.shape) @ _GL_WEIGHTS)
    return out


def tail_accumulate(
    f_vec: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
    tail_at_right: float,
) -> np.ndarray:
    """Right tails at each grid point given the tail at the last point.

    tail(grid[i]) = tail(grid[-1]) + integral of f from grid[i] to grid[-1],
    assembled from panel integrals so the deep-tail end keeps relative accuracy.
    """
    panels = panel_integrals(f_vec, grid)
    out = np.empty(len(grid))
    out[-1] = tail_at_right
    out[:-1] = tail_at_right + np.cumsum(panels[::-1])[::-1]
    return out
