"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
tolerance is pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from steintail import bounds, chaos, pearson, stein, verify
from steintail.chaos import HermiteSeries
from steintail.pearson import PearsonCoefficients
from steintail.verify import Hypothesis, ScenarioSpec

H2 = HermiteSeries((0.0, 0.0, 1.0))

SCENARIO_7 = dict(
    x_model=H2,
    reference=PearsonCoefficients(0.0, 2.0, 2.0),
    hypothesis=Hypothesis.SANDWICH,
    z_grid=(1.0, 2.0, 3.0, 5.0, 8.0),
    n_samples=10**6,
    seed=20240527,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@contextmanager
def _runtime(budget_s: float):
    t0 = time.perf_counter()
    box = {}
    yield box
    box["elapsed"] = time.perf_counter() - t0
    assert box["elapsed"] < budget_s, f"runtime {box['elapsed']:.2f}s exceeds {budget_s}s"


def _acceptance_z_values(law) -> list[float]:
    zs = [0.5, 1.0, 2.0, 4.0]
    if math.isfinite(law.support_b):
        cap = law.support_b - 0.01 * (law.support_b - law.support_a)
        zs = sorted({min(z, cap) for z in zs})
    return zs


def test_criterion_1_pearson_ode_identity(canonical_laws):
    with _runtime(1.0) as t:
        worst = 0.0
        for name, law in canonical_laws.items():
            lo, hi = pearson.quantile(law, 0.95), pearson.quantile(law, 0.05)
            grid = np.linspace(lo, hi, 200)
            h = 1e-3 * np.minimum.reduce([
                grid - law.support_a, law.support_b - grid, 1.0 + np.abs(grid)])
            ld = lambda x: pearson.log_density(law, x)
            fd = (ld(grid - 2 * h) - 8 * ld(grid - h) + 8 * ld(grid + h) - ld(grid + 2 * h)) / (12 * h)
            c = law.coeffs
            target = -((2 * c.alpha + 1) * grid + c.beta) / pearson.stein_kernel(law, grid)
            worst = max(worst, float(np.max(np.abs(fd - target))))
    _report(1, worst < 1e-6, f"max |rho'/rho + ((2a+1)x+b)/g| = {worst:.3e} "
            f"over 5 cases x 200 points in {t['elapsed']:.2f}s")


def test_criterion_2_stein_residual(canonical_laws):
    with _runtime(5.0) as t:
        details = []
        ok = True
        for name, law in canonical_laws.items():
            tol = 1e-7 if name == "no_real_roots" else 1e-8
            for z in _acceptance_z_values(law):
                sol = stein.solve_indicator(law, z)
                grid = stein.certification_grid(law, z, 1000)
                res = stein.check_residual(sol, grid)
                ok &= res < tol
                details.append(f"{name}@z={z:g}:{res:.1e}")
    _report(2, ok, f"residuals {'; '.join(details)} in {t['elapsed']:.2f}s")


def test_criterion_3_derivative_certificates(canonical_laws):
    with _runtime(10.0) as t:
        ok = True
        worst_margin = math.inf
        violations = 0
        for name, law in canonical_laws.items():
            for z in _acceptance_z_values(law):
                sol = stein.solve_indicator(law, z)
                cert = stein.certify_fprime(sol, stein.certification_grid(law, z, 2000))
                violations += cert.sign_violations
                worst_margin = min(worst_margin, cert.min_margin_left, cert.min_margin_right)
                ok &= cert.passed
    _report(3, ok and violations == 0 and worst_margin >= 0.0,
            f"0 sign violations expected, got {violations}; worst bound margin "
            f"{worst_margin:.3e} in {t['elapsed']:.2f}s")


def test_criterion_4_envelope(canonical_laws):
    worst = math.inf
    for name, law in canonical_laws.items():
        zs = np.linspace(pearson.quantile(law, 0.95), pearson.quantile(law, 1e-4), 50)
        tails = pearson.tail(law, zs)
        for z, tval in zip(zs, tails):
            lo, hi = bounds.phi_envelope(law, float(z))
            target = float(tval) if z >= 0 else 1.0 - float(tval)
            worst = min(worst, target - lo, hi - target)
    normal = canonical_laws["normal"]
    lo2, hi2 = bounds.phi_envelope(normal, 2.0)
    t2 = pearson.tail(normal, 2.0)
    anchors = (abs(lo2 - 0.021596) < 1e-6 and abs(hi2 - 0.026995) < 1e-6
               and abs(t2 - 0.022750) < 1e-6)
    _report(4, worst >= -1e-14 and anchors,
            f"min bracket margin {worst:.3e}; normal z=2 bracket "
            f"[{lo2:.6f}, {hi2:.6f}] around {t2:.6f}")


def test_criterion_5_moments(canonical_laws):
    worst_rel = 0.0
    for name, law in canonical_laws.items():
        c = law.coeffs
        for m in range(0, 7):
            if not pearson.moment_exists(c, m):
                continue
            val, _ = quad(lambda x: x**m * pearson.density(law, x),
                          law.support_a, law.support_b, limit=400)
            rec = pearson.moment(c, m)
            # odd moments can vanish identically; scale relative error by the
            # natural moment magnitude Var^(m/2)
            scale = max(abs(val), law.variance ** (m / 2.0))
            worst_rel = max(worst_rel, abs(rec - val) / scale)
    sweep_ok = True
    for alpha in (-0.25, 0.0, 0.2, 0.25, 0.49):
        coeffs = PearsonCoefficients(alpha, 0.5 if alpha > 0 else 0.0, 1.0)
        limit = math.inf if alpha <= 0 else 1.0 + 1.0 / alpha
        for m in range(0, 10):
            sweep_ok &= pearson.moment_exists(coeffs, m) == (m < limit)
    _report(5, worst_rel < 1e-6 and sweep_ok,
            f"recursion vs quadrature worst rel err {worst_rel:.3e}; "
            f"existence sweep {'consistent' if sweep_ok else 'inconsistent'}")


def test_criterion_6_chaos_end_to_end(gamma_law):
    with _runtime(5.0) as t:
        g = chaos.malliavin_G(H2)
        exact_g = g == (0.0, 0.0, 2.0)

        law_x = chaos.law_of_polynomial(H2)
        zs = np.concatenate([np.linspace(-0.999, 10, 400), np.geomspace(10, 80, 50)])
        sup_diff = max(abs(law_x.tail(float(z)) - pearson.tail(gamma_law, float(z))) for z in zs)

        margin, _ = chaos.dominance_margin(H2, PearsonCoefficients(0.0, 2.0, 2.0))
        ibp_worst = max(chaos.ibp_check(H2, m) for m in ((0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0)))
        eg = chaos.expect_polynomial(g)
    ok = exact_g and sup_diff < 1e-10 and margin == 0.0 and ibp_worst < 1e-10 \
        and abs(eg - 2.0) < 1e-12 and abs(H2.variance - 2.0) < 1e-12
    _report(6, ok, f"G coeffs {g}, tail sup-diff {sup_diff:.2e}, margin {margin!r}, "
            f"ibp worst {ibp_worst:.2e}, E[G]={eg!r} in {t['elapsed']:.2f}s")


@pytest.fixture(scope="module")
def scenario7_report():
    return verify.run_scenario(ScenarioSpec(**SCENARIO_7))


def test_criterion_7_sandwich_scenario(scenario7_report):
    t0 = time.perf_counter()
    rep = verify.run_scenario(ScenarioSpec(**SCENARIO_7))
    elapsed = time.perf_counter() - t0
    verdicts_ok = all(v == "pass" for v in rep.verdicts)
    dkw_ok = all(abs(e - p) <= rep.ci_half_width for e, p in zip(rep.empirical, rep.phi_star))
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(7, verdicts_ok and dkw_ok,
            f"verdicts {rep.verdicts}; max |emp - phi*| = "
            f"{max(abs(e - p) for e, p in zip(rep.empirical, rep.phi_star)):.2e} "
            f"<= DKW {rep.ci_half_width:.2e}; runtime {elapsed:.1f}s")


def test_criterion_8_asymptotic_constants(gamma_law, case5_law):
    # The closed constant for the linear-kernel law is K = C s e^(-mu/s); the
    # matching finite-z normalizer is z^(1-r) e^(z/s) P[Z>z] (the growth
    # factor must cancel the z^(r-1) flux factor; see the decisions ledger on
    # the source's misprinted exponent).
    k_gamma, _ = bounds.asymptotic_tail_constant(gamma_law)
    val_gamma = bounds.normalized_tail(gamma_law, 60.0)
    gamma_ok = abs(k_gamma - 0.4839414) < 1e-6 and abs(val_gamma / k_gamma - 1.0) <= 0.05

    k5, lf5 = bounds.asymptotic_tail_constant(case5_law)
    val5 = bounds.normalized_tail(case5_law, 50.0)
    case5_ok = (lf5 * k5) * 0.95 <= val5 <= k5 * 1.05
    _report(8, gamma_ok and case5_ok,
            f"gamma: z^0.5 e^(z/2) tail at 60 = {val_gamma:.5f} vs K = {k_gamma:.5f} "
            f"(ratio {val_gamma / k_gamma:.4f}); case5: z^5 tail at 50 = {val5:.5f} in "
            f"[{lf5 * k5:.5f}, {k5:.5f}] (5% slack)")


def test_criterion_9_slopes(gamma_law, case5_law):
    zs = np.geomspace(20.0, 200.0, 25)
    s5 = verify.slope_estimate(zs, [pearson.log_tail(case5_law, z) for z in zs], "loglog")
    sg = verify.slope_estimate(zs, [pearson.log_tail(gamma_law, z) for z in zs], "loglinear")
    ok = abs(s5 + 5.0) <= 0.1 and abs(sg + 0.5) <= 0.01
    _report(9, ok, f"loglog slope {s5:.4f} (target -5 +- 0.1); "
            f"loglinear slope {sg:.4f} (target -0.5 +- 0.01)")


def test_criterion_10_determinism(scenario7_report):
    rerun = verify.run_scenario(ScenarioSpec(**SCENARIO_7), n_workers=1)
    parallel = verify.run_scenario(ScenarioSpec(**SCENARIO_7), n_workers=4)
    same_serial = scenario7_report.to_csv().encode() == rerun.to_csv().encode() \
        and scenario7_report.to_json().encode() == rerun.to_json().encode()
    same_parallel = scenario7_report.to_csv().encode() == parallel.to_csv().encode()
    _report(10, same_serial and same_parallel,
            "byte-identical reports across default, serial and 4-worker parallel runs")
