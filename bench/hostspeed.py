"""Host-speed probe: a fixed numpy/scipy kernel that uses no steintail code.

On a shared host the same pass can take 1x to 1.5x as long, depending on
the host's load.  The changes come in phases of seconds to minutes, so they
do not average out within one run.  The worker runs a probe between ops and
scales each stretch of op time by the probe's speed factor, reference time
over measured time.  That reports the time the ops would have taken at the
reference speed.  A change to steintail cannot change the kernel's time,
so every gain or loss of the program passes through the scaling in full.
"""

from __future__ import annotations

import math
import time

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import integrate, optimize, special

_Z = np.array([1.0, 2.0, 3.0, 5.0, 8.0])


def _kernel() -> float:
    """Draws and counts, special functions, polynomial roots, Brent solves
    and QUADPACK integrals: the mix of steintail's own work."""
    g = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    x = g.standard_normal(1 << 16)
    acc = float(((x * x - 1.0)[:, None] > _Z[None, :]).sum())
    acc += float(special.gammainccinv(0.5, g.random(1 << 10)).sum())
    x = g.standard_normal(1 << 16)
    for _ in range(4):
        acc += float(np.exp(-0.5 * x * x).sum() + np.log1p(x * x).sum())
    for k in range(200):
        acc += float(npoly.polyroots([1.0, 0.3 * k, -2.0, 0.1, 1.0]).real.sum())
    for k in range(600):
        acc += optimize.brentq(lambda t: t * t * t + t - 1.0 - 0.01 * k, -2.0, 2.0, xtol=1e-13)
    for k in range(60):
        acc += integrate.quad(lambda t: (2.0 * t - 1.0) * math.exp(-0.5 * t * t), 1.0 + 0.05 * k, 40.0)[0]
    return acc


# the kernel's usual time on the machine baseline.json was recorded on; a
# fixed scale, so it needs no update when the host changes
REFERENCE_S = 0.04


def probe() -> float:
    """Reference time over measured time of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return REFERENCE_S / (time.perf_counter() - t0)
