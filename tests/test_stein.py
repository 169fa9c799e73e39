import json
import math

import mpmath as mp
import numpy as np
import pytest
from conftest import WIDER_COEFFS
from scipy.integrate import quad

from steintail import bounds, pearson, stein
from steintail.errors import DensityUnderflowError, DomainError, EvaluationAtKinkError, ThresholdOutOfRangeError
from steintail.pearson import PearsonCoefficients, build_law, density, quantile, stein_kernel
from steintail.stein import (
    certification_grid,
    certify_fprime,
    check_residual,
    fprime_limits_at_threshold,
    solve_indicator,
)


def residual_for_test_function(law, f, fprime, h, eh: float, grid) -> float:
    """Residual of the Stein equation for caller-supplied f, f', h, E[h(Z)]: a reference for ``evaluate``."""
    xs = np.asarray(grid, dtype=float)
    g = stein_kernel(law, xs)
    res = g * fprime(xs) - xs * f(xs) - (h(xs) - eh)
    return float(np.max(np.abs(res)))


def evaluate_both_sides(sol, xs):
    """(f, f', residual) from the cdf and the tail at every point, one of them selected per point, all
    formed afresh: the reference for ``evaluate``, which reads the grid's z-free values once per (law, grid)."""
    law = sol.law
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    left = xs <= sol.z
    hc = np.where(left, sol.phi_star_z, -sol.eh)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g, flux = stein_kernel(law, xs), pearson.flux(law, xs)
        cdf, tail = pearson.cdf(law, xs), pearson.tail(law, xs)
        f = np.where(left, cdf * sol.phi_star_z, sol.eh * tail) / flux
        fp = np.where(left, sol.phi_star_z * (xs * cdf + flux), sol.eh * (xs * tail - flux)) / (g * flux)
        f = np.where((flux > 0.0) & np.isfinite(f), f, -hc / xs)
        fp = np.where((flux > 0.0) & np.isfinite(fp), fp, hc / (xs * xs))
        residual = np.where(np.isfinite(xs), g * fp - xs * f - hc, 0.0)
    return f, fp, residual


def _z_values(law):
    if math.isfinite(law.support_b):
        return [min(z, law.support_b - 0.01 * (law.support_b - law.support_a)) for z in (0.5,)]
    return [0.5, 1.0, 2.0, 4.0]


# ---------------------------------------------------------------------------
# values of f


def test_f_value_normal_z0(normal_law):
    sol = solve_indicator(normal_law, 1e-300)  # z -> 0+ limit
    # closed form F(0)(1-F(0))/phi(0) = sqrt(2 pi)/4
    assert stein.evaluate(sol, 0.0)[0][0] == pytest.approx(math.sqrt(2 * math.pi) / 4, rel=1e-9)


def test_f_value_normal_z2(normal_law):
    sol = solve_indicator(normal_law, 2.0)
    phi2 = math.exp(-2.0) / math.sqrt(2 * math.pi)
    expected = 0.9772498680518208 * 0.022750131948179212 / phi2  # erfc oracle
    assert stein.evaluate(sol, 2.0)[0][0] == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(0.4117830, rel=1e-5)


def test_f_by_direct_quadrature(normal_law, gamma_law):
    # oracle: Schoutens integral evaluated by quadrature with pointwise h
    for law, z, x in [(normal_law, 1.0, 0.3), (normal_law, 1.0, 1.7), (gamma_law, 2.0, 0.5)]:
        sol = solve_indicator(law, z)
        num, _ = quad(lambda y: ((y <= z) - sol.eh) * density(law, y),
                      law.support_a, x, limit=200, epsabs=1e-13, epsrel=1e-12)
        flux = stein_kernel(law, x) * density(law, x)
        assert stein.evaluate(sol, x)[0][0] == pytest.approx(num / flux, rel=1e-8)


def test_f_vanishes_at_infinity(normal_law):
    sol = solve_indicator(normal_law, 1.0)
    assert abs(stein.evaluate(sol, 1e8)[0][0]) < 1e-7
    assert abs(stein.evaluate(sol, -1e8)[0][0]) < 1e-7


def test_f_outside_support_formula(beta_law, gamma_law):
    solb = solve_indicator(beta_law, 0.2)
    x = 0.75
    assert stein.evaluate(solb, x)[0][0] == pytest.approx(-(0.0 - solb.eh) / x, rel=1e-12)
    x = -0.8
    assert stein.evaluate(solb, x)[0][0] == pytest.approx(-(1.0 - solb.eh) / x, rel=1e-12)
    solg = solve_indicator(gamma_law, 1.0)
    x = -1.5
    assert stein.evaluate(solg, x)[0][0] == pytest.approx(-(1.0 - solg.eh) / x, rel=1e-12)


def test_f_continuous_at_threshold_and_endpoints(canonical_laws):
    for name, law in canonical_laws.items():
        for z in _z_values(law):
            sol = solve_indicator(law, z)
            eps = 1e-9 * max(1.0, abs(z))
            below, above = stein.evaluate(sol, [z - eps, z + eps])[0]
            assert below == pytest.approx(above, rel=1e-6), name
            for end in (law.support_a, law.support_b):
                if math.isfinite(end):
                    inner = end + math.copysign(1e-9, -end)
                    f_inner, f_end = stein.evaluate(sol, [inner, end])[0]
                    assert f_inner == pytest.approx(f_end, rel=1e-5), name


def test_f_bounded_on_grids(canonical_laws):
    for name, law in canonical_laws.items():
        for z in _z_values(law):
            sol = solve_indicator(law, z)
            grid = certification_grid(law, z, 500)
            vals = stein.evaluate(sol, grid)[0]
            assert np.all(np.isfinite(vals)), name


# the five canonical laws, the mirrored half-line laws and a skewed Beta
SWEEP_COEFFS = (
    pearson.PearsonCoefficients(0.0, 0.0, 1.0),
    pearson.PearsonCoefficients(0.0, 2.0, 2.0),
    pearson.PearsonCoefficients(-0.25, 0.0, 0.0625),
    pearson.PearsonCoefficients(0.5, 1.0, 0.5),
    pearson.PearsonCoefficients(0.25, 0.0, 0.25),
    pearson.PearsonCoefficients(0.0, -2.0, 2.0),
    pearson.PearsonCoefficients(0.5, -1.0, 0.5),
    pearson.PearsonCoefficients(-1.07, 1.152, 0.0302),
)


@pytest.mark.parametrize("coeffs", SWEEP_COEFFS, ids=str)
def test_evaluate_finite_far_out_and_at_the_ends(coeffs):
    # the Normal's flux underflows to 0 from |x| of about 38.6 sd on; there,
    # outside the support and at its ends f and f' are the one-sided limits
    law = pearson.build_law(coeffs)
    sd = math.sqrt(law.variance)
    extra = [-1e8, 1e8] + [e for e in (law.support_a, law.support_b) if math.isfinite(e)]
    if law.case is pearson.CaseTag.NORMAL:
        extra += [-40.0, -38.6, 38.6, 40.0]
    xs = np.concatenate([np.linspace(-10.0 * sd, 10.0 * sd, 801), extra])
    for k in (0.3, 1.0, 2.0, 4.0, 6.0):
        if not k * sd < law.support_b:
            continue
        sol = solve_indicator(law, k * sd)
        f, fp, res = stein.evaluate(sol, xs)
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(fp)) and np.all(np.isfinite(res)), k
        zero = pearson.flux(law, xs) == 0.0
        h_centered = np.where(xs <= sol.z, sol.phi_star_z, -sol.eh)
        np.testing.assert_array_equal(fp[zero], h_centered[zero] / xs[zero] ** 2)


def test_evaluate_at_infinity_returns_the_limits(canonical_laws):
    # x f is inf * 0 there; the residual's limit is 0 (tier-1 turns a RuntimeWarning into an error)
    for name, law in canonical_laws.items():
        sol = solve_indicator(law, 0.5 * min(1.0, law.support_b))
        f, fp, res = stein.evaluate(sol, [-math.inf, math.inf])
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(fp)), name
        assert res.tolist() == [0.0, 0.0], name


def test_outside_limits_keep_a_tail_below_the_complement(beta_law):
    # Phi(z) = 3.0e-18 while 1 - F(z) rounds to 0: h - E[h] left of z is Phi(z)
    sol = solve_indicator(beta_law, beta_law.support_b - 1e-9)
    assert sol.phi_star_z == pytest.approx(3.0e-18, rel=1e-3) and 1.0 - sol.eh == 0.0
    f, fp, _ = stein.evaluate(sol, -0.6)
    assert f[0] == pytest.approx(sol.phi_star_z / 0.6, rel=1e-14)
    assert fp[0] == pytest.approx(sol.phi_star_z / 0.36, rel=1e-14)
    grid = certification_grid(beta_law, sol.z, 2000)
    assert grid.min() < beta_law.support_a
    cert = certify_fprime(sol, grid)
    assert cert.passed and cert.min_margin_left > 0.0


def test_solve_indicator_threshold_validation(normal_law, beta_law):
    with pytest.raises(ThresholdOutOfRangeError):
        solve_indicator(normal_law, -1.0)
    with pytest.raises(ThresholdOutOfRangeError):
        solve_indicator(beta_law, 0.5)
    with pytest.raises(ThresholdOutOfRangeError):
        solve_indicator(beta_law, 0.0)


# ---------------------------------------------------------------------------
# derivative


def test_fprime_examples(normal_law):
    sol = solve_indicator(normal_law, 1.0)
    v = stein.evaluate(sol, 2.0)[1][0]
    assert v < 0.0
    assert v >= -1.0 / 2.0  # -1/q(1), q(1) = 2
    v = stein.evaluate(sol, 0.5)[1][0]
    phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert 0.0 <= v <= 1.0 / phi1 + 1.0


def test_fprime_finite_difference(canonical_laws):
    for name, law in canonical_laws.items():
        for z in _z_values(law):
            sol = solve_indicator(law, z)
            pts = [0.3 * z, 0.9 * z, min(1.5 * z, 0.5 * (z + law.support_b)),
                   quantile(law, 0.9)]
            for x in pts:
                if abs(x - z) < 1e-4 or x <= law.support_a or x >= law.support_b:
                    continue
                eps = 1e-5 * max(1.0, abs(x))
                f_up, f_down = stein.evaluate(sol, [x + eps, x - eps])[0]
                fd = (f_up - f_down) / (2 * eps)
                assert stein.evaluate(sol, x)[1][0] == pytest.approx(fd, rel=2e-5, abs=1e-6), (name, x)


def test_fprime_kink_errors(normal_law, beta_law):
    sol = solve_indicator(normal_law, 1.0)
    with pytest.raises(EvaluationAtKinkError):
        check_residual(sol, [1.0])
    solb = solve_indicator(beta_law, 0.2)
    with pytest.raises(EvaluationAtKinkError):
        certify_fprime(solb, [0.5])


def test_empty_grids_raise_a_typed_error(normal_law):
    sol = solve_indicator(normal_law, 1.0)
    with pytest.raises(DomainError, match="empty"):
        certify_fprime(sol, [])
    with pytest.raises(DomainError, match="empty"):
        check_residual(sol, [])


@pytest.mark.parametrize("n", [-1, 0, 1, 2.5, "200", True, None])
def test_certification_grid_refuses_a_bad_size_with_a_typed_error(normal_law, n):
    with pytest.raises(DomainError, match="grid"):
        certification_grid(normal_law, 0.5, n)


def test_certification_grid_takes_an_integer_valued_size_and_refuses_a_nan_threshold(canonical_laws):
    for law in canonical_laws.values():
        assert certification_grid(law, 0.1, 40.0).tobytes() == certification_grid(law, 0.1, 40).tobytes()
        with pytest.raises(DomainError, match="NaN"):
            certification_grid(law, math.nan, 40)


def test_evaluating_and_certifying_never_classify(canonical_laws, monkeypatch):
    # the built law carries its case and support, so no evaluator re-derives them
    work = []
    for law in canonical_laws.values():
        sol = solve_indicator(law, _z_values(law)[0])
        work.append((law, sol, certification_grid(law, sol.z, 200)))
    calls = []
    classify = pearson.classify
    monkeypatch.setattr(pearson, "classify", lambda c: calls.append(c) or classify(c))
    for law, sol, grid in work:
        stein.evaluate(sol, grid)
        certify_fprime(sol, grid)
        bounds.phi_envelope(law, 0.5 * sol.z)
    assert calls == []
    pearson.support(work[0][0].coeffs)  # the counter sees a call that does classify
    assert len(calls) == 1


def test_fprime_one_sided_limits(normal_law):
    sol = solve_indicator(normal_law, 1.0)
    left, right = fprime_limits_at_threshold(sol)
    eps = 1e-8
    assert stein.evaluate(sol, 1.0 - eps)[1][0] == pytest.approx(left, rel=1e-5)
    assert stein.evaluate(sol, 1.0 + eps)[1][0] == pytest.approx(right, rel=1e-5)
    assert left >= 0.0 >= right


def test_fprime_limits_take_their_closed_form(canonical_laws):
    for name, law in canonical_laws.items():
        for z in _z_values(law):
            sol = solve_indicator(law, z)
            left, right = fprime_limits_at_threshold(sol)
            assert left == stein.evaluate(sol, z)[1][0], name  # a grid point at z reads the left side
            # the scalar closed forms at z, operation for operation
            g_z, flux_z = stein_kernel(law, z), pearson.flux(law, z)
            assert left == sol.phi_star_z * (z * sol.eh + flux_z) / (g_z * flux_z), name
            assert right == sol.eh * (z * sol.phi_star_z - flux_z) / (g_z * flux_z), name


@pytest.mark.parametrize("coeffs", WIDER_COEFFS.values(), ids=WIDER_COEFFS.keys())
def test_one_side_per_point_equals_both_sides_bit_for_bit(coeffs):
    law = build_law(coeffs)
    for frac in (0.2, 0.5, 0.9):
        z = frac * min(2.0, law.support_b)
        sol, grid = solve_indicator(law, z), certification_grid(law, z)
        for got, want in zip(stein.evaluate(sol, grid), evaluate_both_sides(sol, grid)):
            assert got.tobytes() == want.tobytes(), z


def _count_grid_reads(monkeypatch):
    """Sizes of the points passed to ``pearson.cdf``, ``pearson.tail`` and ``pearson._kernel``, per name."""
    reads = {"cdf": [], "tail": [], "_kernel": []}
    for name, sizes in reads.items():
        fn = getattr(pearson, name)
        monkeypatch.setattr(pearson, name, lambda law, x, _fn=fn, _got=sizes: _got.append(np.size(x)) or _fn(law, x))
    return reads


def test_evaluate_reads_the_grid_once_per_law_and_grid(canonical_laws, monkeypatch):
    # F, Phi, g and the flux do not depend on z: the first threshold of a (law, grid) reads each on the whole
    # grid, once; a further threshold on that grid reads none; another grid, or another law, reads again
    grids = {name: certification_grid(law, math.inf, 1000)[:1000] for name, law in canonical_laws.items()}
    reads = _count_grid_reads(monkeypatch)
    stein._z_free.cache_clear()
    for name, law in canonical_laws.items():
        zs = np.linspace(0.1, 0.9, 4) * min(2.0, law.support_b)
        for grid in (grids[name], grids[name][::3], grids[name].reshape(-1, 2)):  # same doubles, a new shape
            for k, z in enumerate(zs):
                sol = solve_indicator(law, z)
                fprime_limits_at_threshold(sol)  # its one point at z reads no grid
                for sizes in reads.values():
                    sizes.clear()
                stein.evaluate(sol, grid)
                assert reads == {key: [grid.size] if k == 0 else [] for key in reads}, (name, grid.shape, z)
    # the normal's grid again, under the gamma and then the normal: the one entry holds the last (law, grid) only
    for law in (canonical_laws["gamma"], canonical_laws["normal"]):
        sol = solve_indicator(law, 1.0)
        for sizes in reads.values():
            sizes.clear()
        stein.evaluate(sol, grids["normal"])
        assert reads == {key: [grids["normal"].size] for key in reads}, law


def _stein_outputs(sol, grid, cold=False):
    """evaluate's three arrays, the residual and the certificate, as bytes and text to compare to the bit;
    cold empties the grid cache before each of the three calls."""
    out = []
    for fn in (stein.evaluate, check_residual, certify_fprime):
        if cold:
            stein._z_free.cache_clear()
        out.append(fn(sol, grid))
    (f, fp, residual), res_max, cert = out
    return f.tobytes(), fp.tobytes(), residual.tobytes(), repr(res_max), cert.to_json()


def test_a_warm_cache_equals_a_cold_one_bit_for_bit():
    laws = {name: build_law(c) for name, c in WIDER_COEFFS.items()}
    cases = []  # (law name, threshold, grid): thresholds of a law in a row on one grid, then grids of their own
    for name, law in laws.items():
        zs = [frac * min(2.0, law.support_b) for frac in (0.2, 0.5, 0.9)]
        bulk = certification_grid(law, math.inf)
        cases += [(name, z, bulk) for z in zs]
        on_grid = float(bulk[np.searchsorted(bulk, zs[1])])  # z on the grid: certification_grid drops its point
        assert 0.0 < on_grid < law.support_b and certification_grid(law, on_grid).size == bulk.size - 1
        cases += [(name, on_grid, certification_grid(law, on_grid))] * 2
        cases += [(name, z, bulk[: bulk.size // 2 * 2].reshape(-1, 2)) for z in zs[:2]]  # a 2-D user grid
        ends = np.concatenate([[-math.inf, -0.0, 0.0, math.inf], bulk[::50]])
        cases += [(name, z, ends) for z in zs[:2]]
    cold = [_stein_outputs(solve_indicator(laws[name], z), grid, cold=True) for name, z, grid in cases]
    stein._z_free.cache_clear()
    for (name, z, grid), want in zip(cases, cold):
        sol = solve_indicator(laws[name], z)
        assert _stein_outputs(sol, grid) == want, (name, z, grid.shape)
        both = evaluate_both_sides(sol, grid)
        assert tuple(v.tobytes() for v in both) == want[:3], (name, z, grid.shape)
    by_z = sorted(range(len(cases)), key=lambda i: (cases[i][1], i))  # laws interleaved: the one entry is rebuilt
    for i in by_z:
        name, z, grid = cases[i]
        assert _stein_outputs(solve_indicator(laws[name], z), grid) == cold[i], (name, z, grid.shape)


# ---------------------------------------------------------------------------
# residual and certificates


def test_residual_all_cases(canonical_laws):
    for name, law in canonical_laws.items():
        tol = 1e-7 if name == "no_real_roots" else 1e-8
        for z in _z_values(law):
            grid = certification_grid(law, z, 1000)
            sol = solve_indicator(law, z)
            assert check_residual(sol, grid) < tol, (name, z)


def test_residual_rejects_kink_grid(normal_law):
    sol = solve_indicator(normal_law, 1.0)
    with pytest.raises(EvaluationAtKinkError):
        check_residual(sol, np.array([0.5, 1.0, 1.5]))


def test_certificates_all_cases(canonical_laws):
    for name, law in canonical_laws.items():
        for z in _z_values(law):
            sol = solve_indicator(law, z)
            grid = certification_grid(law, z, 2000)
            cert = certify_fprime(sol, grid)
            assert cert.sign_violations == 0, (name, z)
            assert cert.min_margin_left >= 0.0, (name, z)
            assert cert.min_margin_right >= 0.0, (name, z)
            assert cert.uniform_bound_margin >= 0.0, (name, z)
            assert cert.passed, (name, z)


def test_certificate_beta_outside_branch(beta_law):
    # grid reaching past the finite endpoints exercises eq-(2.6)-style branches
    sol = solve_indicator(beta_law, 0.2)
    grid = certification_grid(beta_law, 0.2, 2000)
    assert grid.max() > beta_law.support_b
    assert grid.min() < beta_law.support_a
    cert = certify_fprime(sol, grid)
    assert cert.passed
    x = 0.7
    assert stein.evaluate(sol, x)[1][0] == pytest.approx(-sol.eh / x**2, rel=1e-12)


@pytest.mark.parametrize("variance, sds", [(1.0, 38.0), (1.0, 40.0), (1.0, 300.0), (1e4, 40.0), (1.7e-17, 40.0)])
def test_a_uniform_bound_past_the_doubles_raises_a_typed_error(variance, sds):
    # z / (g(z)^2 rho(z)) with rho(z) subnormal or 0: the bound would be +inf, a statement about nothing
    law = build_law(pearson.PearsonCoefficients(0.0, 0.0, variance))
    z = sds * math.sqrt(variance)
    sol = solve_indicator(law, z)
    with pytest.raises(DensityUnderflowError, match="underflowed"):
        certify_fprime(sol, [0.5 * z, 2.0 * z])
    assert np.isfinite(stein.evaluate(sol, [0.5 * z, 2.0 * z])[1]).all()  # the solution itself is fine


@pytest.mark.parametrize("coeffs", WIDER_COEFFS.values(), ids=WIDER_COEFFS.keys())
def test_a_certificate_counts_every_point_of_a_grid_of_any_shape(coeffs):
    # an n-d grid is certified as its points, and a number as a one-point grid, as check_residual takes them
    law = build_law(coeffs)
    z = 0.5 * min(2.0, law.support_b)
    sol = solve_indicator(law, z)
    flat = certification_grid(law, z, 240)[:200]
    want = certify_fprime(sol, flat)
    assert want.n_points == 200 and want.grid_spec == f"{flat.min()}:{flat.max()}:200"
    for grid in (flat.reshape(100, 2), flat.reshape(2, 10, 10), flat.reshape(2, 10, 10).transpose(2, 0, 1)):
        cert = certify_fprime(sol, grid)
        assert cert.n_points == 200 and cert.grid_spec.endswith(":200"), grid.shape
        assert cert.to_json() == want.to_json(), grid.shape
    x = float(flat[37])
    one = certify_fprime(sol, [x])
    for number in (x, np.float64(x), np.array(x), np.array([[x]])):
        cert = certify_fprime(sol, number)
        assert cert.n_points == 1 and cert.to_json() == one.to_json(), type(number)
        assert check_residual(sol, number) == cert.residual_max
    with pytest.raises(EvaluationAtKinkError):
        certify_fprime(sol, z)
    with pytest.raises(DomainError, match="empty"):
        certify_fprime(sol, np.empty((0, 2)))


def test_certificate_json_round_trip(normal_law):
    sol = solve_indicator(normal_law, 2.0)
    cert = certify_fprime(sol, certification_grid(normal_law, 2.0, 400))
    obj = json.loads(cert.to_json())
    assert obj["z"] == 2.0
    assert obj["sign_violations"] == 0
    assert set(obj["bound_margins"]) == {"min_left", "min_right"}
    assert obj["law"]["case"] == "Normal"


# ---------------------------------------------------------------------------
# characterization identities


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_stein_identity_for_smooth_test_function(canonical_laws):
    # E[g(Z) cos(Z) - Z sin(Z)] = 0 for every law in the family; power-law
    # tails make the integrand oscillatory-slow, so the far tail uses the
    # QUADPACK cos/sin weight rules.
    for name, law in canonical_laws.items():
        a, b = law.support_a, law.support_b
        t_cut = quantile(law, 1e-4) if math.isinf(b) else b
        core, _ = quad(
            lambda x: (stein_kernel(law, x) * math.cos(x) - x * math.sin(x)) * density(law, x),
            a, t_cut, limit=400, epsabs=1e-12, epsrel=1e-11,
        )
        val = core
        if math.isinf(b):
            gcos, _ = quad(lambda x: stein_kernel(law, x) * density(law, x),
                           t_cut, np.inf, weight="cos", wvar=1.0, epsabs=1e-12, limit=400)
            xsin, _ = quad(lambda x: x * density(law, x),
                           t_cut, np.inf, weight="sin", wvar=1.0, epsabs=1e-12, limit=400)
            val = core + gcos - xsin
        assert abs(val) < 1e-8, name


def test_residual_for_custom_test_function(normal_law):
    # for the standard normal and h(x) = x (E[h(Z)] = 0), f = -1 solves the
    # equation: g f' - x f = x
    res = residual_for_test_function(
        normal_law,
        f=lambda x: np.full_like(x, -1.0),
        fprime=lambda x: np.zeros_like(x),
        h=lambda x: x,
        eh=0.0,
        grid=np.linspace(-4, 4, 101),
    )
    assert res < 1e-14


def test_residual_generic_matches_indicator_path(gamma_law):
    sol = solve_indicator(gamma_law, 1.5)
    grid = certification_grid(gamma_law, 1.5, 300)
    generic = residual_for_test_function(
        gamma_law,
        f=lambda x: stein.evaluate(sol, x)[0],
        fprime=lambda x: stein.evaluate(sol, x)[1],
        h=lambda x: (np.asarray(x) <= 1.5).astype(float),
        eh=sol.eh,
        grid=grid,
    )
    assert generic == pytest.approx(check_residual(sol, grid), abs=1e-12)


def test_kernel_divergence_condition(canonical_laws):
    # int_0^{b-eps} z/g(z) dz grows without bound as eps -> 0 (4 decades), and
    # matches the closed form ln[flux(0)/flux(x)]
    for name, law in canonical_laws.items():
        a, b = law.support_a, law.support_b
        flux0 = float(pearson.flux(law, np.asarray(0.0)))
        prev = -np.inf
        vals = []
        for k in range(1, 5):
            eps = 10.0 ** (-k)
            x = b - eps * (b - min(a, 0.0)) if math.isfinite(b) else pearson.quantile(law, eps ** 1.5)
            val, _ = quad(lambda t: t / stein_kernel(law, t), 0.0, x, limit=200)
            closed = math.log(flux0) - math.log(float(pearson.flux(law, np.asarray(x))))
            assert val == pytest.approx(closed, rel=1e-6), name
            assert val > prev, name
            prev = val
            vals.append(val)
        assert vals[-1] > vals[0] + 2.0, name  # keeps growing, no plateau


@pytest.mark.xfail(strict=True, reason="next to a finite end where rho has a pole, f' is a difference that cancels")
def test_fprime_next_to_a_finite_end_with_a_density_pole_against_mpmath():
    # the mirrored Gamma (0, -1.808, 1.092) is Z = -1.808 (G - k), G ~ Gamma(k) with k = 1.092 / 1.808^2 < 1, so rho
    # has a pole at b = 1.092 / 1.808.  Right of z, f' = F(z) (x P[Z > x] - g rho(x)) / (g(x) g rho(x)), and
    # P[Z > x] = P[G < u] at u = (b - x) / 1.808, where the two terms of the numerator agree to about log10(b / (b - x))
    # digits.  Points at 1 - x/b from 1e-6 to 1e-12.
    law = build_law(PearsonCoefficients(0.0, -1.808, 1.092))
    sol = solve_indicator(law, law.support_b / 2)
    xs = law.support_b * (1.0 - np.array([1e-6, 1e-8, 1e-10, 1e-12]))
    fprime = stein.evaluate(sol, xs)[1]
    with mp.workdps(50):
        theta = mp.mpf(1.808)
        k, b = mp.mpf(1.092) / theta**2, mp.mpf(1.092) / theta
        big_f = mp.gammainc(k, (b - mp.mpf(sol.z)) / theta, mp.inf, regularized=True)
        for x, got in zip(map(mp.mpf, xs), fprime):
            u, g = (b - x) / theta, mp.mpf(1.092) - theta * x
            flux = g * u ** (k - 1) * mp.exp(-u) / (mp.gamma(k) * theta)
            want = big_f * (x * mp.gammainc(k, 0, u, regularized=True) - flux) / (g * flux)
            assert abs(got - want) <= 1e-10 * abs(want), (float(x), got, float(want))
    assert certify_fprime(sol, xs).passed
