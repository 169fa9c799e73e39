"""The benchmark's workloads: fixed op lists built from a seed.

Every op drives steintail's public API only and carries its own correctness
checks.  A failed check or an exception marks the op as failed; it never
aborts the run.  Building a workload (laws, specs, thresholds, levels) is the
set-up that ``setup_s`` measures, so it stays free of heavy numerics.

Which layers each workload loads, and which per-layer metric should move
which end-to-end metric, is tabulated in ``bench/README.md``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from steintail import bounds, chaos, pearson, stein, verify
from steintail.chaos import HermiteSeries
from steintail.pearson import CaseTag, PearsonCoefficients
from steintail.verify import Hypothesis, ScenarioSpec

N_SAMPLES = 10**6
# acceptance tolerances for the Stein residual (criterion 2)
RESIDUAL_TOL = 1e-8
RESIDUAL_TOL_CASE5 = 1e-7
G_ROUTES_TOL = 1e-8
IBP_TOL = 1e-10

H2 = HermiteSeries((0.0, 0.0, 1.0))
GAMMA_022 = PearsonCoefficients(0.0, 2.0, 2.0)


def _derived_seeds(seed: int, n: int) -> list[int]:
    rnd = random.Random(seed)
    return [rnd.randrange(1, 2**63) for _ in range(n)]


# ---------------------------------------------------------------------------
# ops


@dataclass
class ScenarioOp:
    """One ``run_scenario`` call; the report must pass and bracket the exact tail."""

    name: str
    spec: ScenarioSpec
    zero_margin: bool = False  # H2 against (0, 2, 2): G - g(X) vanishes identically

    def run(self):
        return verify.run_scenario(self.spec)

    def check(self, rep) -> list[str]:
        errs = []
        if any(v != "pass" for v in rep.verdicts):
            errs.append(f"verdicts {rep.verdicts}")
        exact = rep.meta["exact_tail_x"]
        for z, lo, s, hi in zip(rep.z_grid, rep.lower_cert, exact, rep.upper_cert):
            if not lo <= s <= hi:
                errs.append(f"z={z}: exact tail {s!r} outside [{lo!r}, {hi!r}]")
        if self.zero_margin:
            cert = rep.meta["certification"]
            if cert.get("lower_margin") != 0.0 or cert.get("upper_margin") != 0.0:
                errs.append(f"margins {cert} are not exactly 0")
        return errs

    def replay(self, rep) -> list[str]:
        """Re-run on two threads; the report must be byte-identical."""
        par = verify.run_scenario(self.spec, n_workers=2)
        if par.to_csv().encode() != rep.to_csv().encode() or \
                par.to_json().encode() != rep.to_json().encode():
            return ["report differs under n_workers=2"]
        return []


@dataclass
class CertifyOp:
    """Indicator Stein solution at z, its certification grid and certificate."""

    name: str
    law: pearson.PearsonLaw
    z: float

    def run(self):
        sol = stein.solve_indicator(self.law, self.z)
        grid = stein.certification_grid(self.law, self.z, 2000)
        return stein.certify_fprime(sol, grid)

    def check(self, cert) -> list[str]:
        tol = RESIDUAL_TOL_CASE5 if self.law.case is CaseTag.NO_REAL_ROOTS else RESIDUAL_TOL
        errs = []
        if not cert.passed:
            errs.append(f"certificate failed: {cert.to_json()}")
        if not cert.residual_max < tol:
            errs.append(f"residual {cert.residual_max!r} >= {tol}")
        return errs

    def replay(self, cert) -> list[str]:
        return [] if self.run().to_json() == cert.to_json() else ["certificate not reproducible"]


@dataclass
class EnvelopeOp:
    """Tails on a grid and the flux envelope at each point; the envelope must bracket."""

    name: str
    law: pearson.PearsonLaw
    grid: tuple[float, ...]

    def run(self):
        tails = pearson.tail_grid(self.law, self.grid)
        return [(float(t), *bounds.phi_envelope(self.law, x)) for x, t in zip(self.grid, tails)]

    def check(self, rows) -> list[str]:
        errs = []
        for x, (t, lo, hi) in zip(self.grid, rows):
            target = t if x >= 0.0 else 1.0 - t
            if not (target - lo >= -1e-14 and hi - target >= -1e-14):  # criterion 4
                errs.append(f"x={x}: {target!r} outside envelope [{lo!r}, {hi!r}]")
        return errs

    def replay(self, rows) -> list[str]:
        return [] if self.run() == rows else ["envelope not reproducible"]


@dataclass
class ChaosKernelOp:
    """Dominance margin, g by both routes on fixed levels, and IBP residuals."""

    name: str
    series: HermiteSeries
    reference: PearsonCoefficients
    levels: tuple[float, ...]
    zero_margin: bool

    def run(self):
        margin, _ = chaos.dominance_margin(self.series, self.reference)
        g_flux = [chaos.g_function(self.series, x) for x in self.levels]
        g_cond = [chaos.g_from_conditional(self.series, x) for x in self.levels]
        ibp = [chaos.ibp_check(self.series, m) for m in ((0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0))]
        return margin, g_flux, g_cond, ibp

    def check(self, result) -> list[str]:
        margin, g_flux, g_cond, ibp = result
        errs = []
        if self.zero_margin and margin != 0.0:
            errs.append(f"margin {margin!r} is not exactly 0")
        if math.isnan(margin):
            errs.append("margin is NaN")
        for x, a, b in zip(self.levels, g_flux, g_cond):
            if not abs(a - b) <= G_ROUTES_TOL * (1.0 + abs(b)):
                errs.append(f"x={x}: g routes disagree, {a!r} vs {b!r}")
        if not max(ibp) < IBP_TOL:
            errs.append(f"ibp residuals {ibp}")
        return errs

    def replay(self, result) -> list[str]:
        return [] if self.run() == result else ["chaos kernels not reproducible"]


# ---------------------------------------------------------------------------
# workloads


def chaos_sandwich(seed: int) -> list:
    """Acceptance scenario 7 (X = H2, reference (0, 2, 2), Sandwich) over derived seeds."""
    return [
        ScenarioOp(f"s7[{i}]", ScenarioSpec(x_model=H2, reference=GAMMA_022,
                                            hypothesis=Hypothesis.SANDWICH,
                                            z_grid=(1.0, 2.0, 3.0, 5.0, 8.0),
                                            n_samples=N_SAMPLES, seed=s),
                   zero_margin=True)
        for i, s in enumerate(_derived_seeds(seed, 4))
    ]


# one equality Sandwich per non-Normal case: (name, coefficients, z grid)
PEARSON_CASES = (
    ("gamma", PearsonCoefficients(0.0, 2.0, 2.0), (1.0, 2.0, 3.0, 5.0, 8.0)),
    ("beta", PearsonCoefficients(-0.25, 0.0, 0.0625), (0.05, 0.1, 0.2, 0.3, 0.4)),
    ("invgamma", PearsonCoefficients(0.25, 1.0, 1.0), (1.0, 2.0, 3.0, 5.0, 8.0)),
    ("case5", PearsonCoefficients(0.25, 0.0, 0.25), (1.0, 2.0, 3.0, 5.0, 8.0)),
)


def pearson_sandwich(seed: int) -> list:
    """X drawn from the reference law itself, so the Pearson sampler does the work."""
    ops = []
    for (name, coeffs, zs), s in zip(PEARSON_CASES, _derived_seeds(seed, len(PEARSON_CASES))):
        spec = ScenarioSpec(x_model=pearson.build_law(coeffs), reference=coeffs,
                            hypothesis=Hypothesis.SANDWICH, z_grid=zs,
                            n_samples=N_SAMPLES, seed=s)
        ops.append(ScenarioOp(name, spec))
    return ops


# the five conftest laws
CANONICAL_COEFFS = (
    ("normal", PearsonCoefficients(0.0, 0.0, 1.0)),
    ("gamma", PearsonCoefficients(0.0, 2.0, 2.0)),
    ("beta", PearsonCoefficients(-0.25, 0.0, 0.0625)),
    ("invgamma", PearsonCoefficients(0.5, 1.0, 0.5)),
    ("case5", PearsonCoefficients(0.25, 0.0, 0.25)),
)

# (name, series, reference, margin exactly zero)
CHAOS_SERIES = (
    ("H1+0.1H3", HermiteSeries((0.0, 1.0, 0.0, 0.1)), PearsonCoefficients(0.0, 0.0, 1.0), False),
    ("H2", H2, GAMMA_022, True),
    ("H1+0.2H2", HermiteSeries((0.0, 1.0, 0.2)), PearsonCoefficients(0.0, 0.4, 1.0), False),
)

N_THRESHOLDS = 8
N_ENVELOPE = 50
N_LEVELS = 40


def reference_certify(seed: int) -> list:
    """Stein certificates, envelopes and chaos kernels; no sampling.

    Thresholds and levels are drawn from the seed inside ranges fixed by each
    law's variance and support, so building them needs no quantile solves.
    """
    rnd = random.Random(seed)
    ops = []
    for name, coeffs in CANONICAL_COEFFS:
        law = pearson.build_law(coeffs)
        sd = math.sqrt(law.variance)
        z_max = min(3.0 * sd, law.support_b - 0.05 * sd)
        for i in range(N_THRESHOLDS):
            ops.append(CertifyOp(f"{name}.cert[{i}]", law, rnd.uniform(0.1, 1.0) * z_max))
        lo = max(-2.0 * sd, law.support_a + 0.05 * sd)
        hi = min(4.0 * sd, law.support_b - 0.05 * sd)
        grid = tuple(lo + (hi - lo) * k / (N_ENVELOPE - 1) for k in range(N_ENVELOPE))
        ops.append(EnvelopeOp(f"{name}.envelope", law, grid))
    for name, series, ref, zero in CHAOS_SERIES:
        # levels X(n) away from the critical points of every series used here
        ns = [rnd.choice((-1.0, 1.0)) * rnd.uniform(0.3, 2.0) for _ in range(N_LEVELS)]
        levels = tuple(float(series.evaluate(n)) for n in ns)
        ops.append(ChaosKernelOp(f"{name}.kernels", series, ref, levels, zero))
    return ops


WORKLOADS = {
    "chaos_sandwich": chaos_sandwich,
    "pearson_sandwich": pearson_sandwich,
    "reference_certify": reference_certify,
}
