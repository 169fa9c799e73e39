import json

import numpy as np
import pytest

from steintail import pearson
from steintail.chaos import HermiteSeries
from steintail.errors import (
    DomainError,
    InsufficientRangeError,
    UncertifiedHypothesisError,
)
from steintail.pearson import PearsonCoefficients, build_law
from steintail.verify import (
    Hypothesis,
    ScenarioSpec,
    dkw_half_width,
    empirical_tail,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
    slope_estimate,
)

H1 = HermiteSeries((0.0, 1.0))
H2 = HermiteSeries((0.0, 0.0, 1.0))


def h2_gamma_spec(**overrides):
    base = dict(
        x_model=H2,
        reference=PearsonCoefficients(0.0, 2.0, 2.0),
        hypothesis=Hypothesis.SANDWICH,
        z_grid=(1.0, 2.0, 3.0, 5.0, 8.0),
        n_samples=10**5,
        seed=1234,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# empirical tails


def test_dkw_half_width_value():
    assert dkw_half_width(10**6, 0.99) == pytest.approx(0.001628, abs=1e-6)


def test_empirical_tail_edges():
    tails, eps = empirical_tail(np.full(1000, -3.0), [0.0, 1.0])
    assert tails.tolist() == [0.0, 0.0]
    assert eps == dkw_half_width(1000, 0.99)
    tails, _ = empirical_tail(np.array([-1.0, 0.5, 2.0, 2.0]), [0.0, 1.9, 2.0])
    assert tails.tolist() == [0.75, 0.5, 0.0]


def test_empirical_tail_normal_symmetry():
    xs = pearson.sample(build_law(PearsonCoefficients(0.0, 0.0, 1.0)), 10**5, seed=5)
    tails, eps = empirical_tail(xs, [0.0])
    assert abs(tails[0] - 0.5) <= eps


def test_empirical_tail_validation():
    with pytest.raises(DomainError):
        empirical_tail(np.array([]), [0.0])


# ---------------------------------------------------------------------------
# scenario validation and certification


def test_scenario_validation():
    with pytest.raises(DomainError):
        h2_gamma_spec(n_samples=100)
    with pytest.raises(DomainError):
        h2_gamma_spec(z_grid=(2.0, 1.0))
    with pytest.raises(DomainError):
        h2_gamma_spec(z_grid=(-1.0, 2.0))


def test_uncertified_hypothesis_raises():
    # H2 cannot dominate a no-real-roots quadratic kernel at infinity
    spec = h2_gamma_spec(reference=PearsonCoefficients(0.25, 0.0, 0.25),
                         hypothesis=Hypothesis.DOMINATES_LOWER)
    with pytest.raises(UncertifiedHypothesisError):
        run_scenario(spec)


def test_chaos_margin_escaping_upward_is_not_certified():
    # G(n) - 1.01 grows like 3e-10 n^4: G(16) = 1.0102, so G <= 1.01 fails far out
    spec = ScenarioSpec(x_model=HermiteSeries((0.0, 1.0, 0.0, 1e-5)), reference=PearsonCoefficients(0.0, 0.0, 1.01),
                        hypothesis=Hypothesis.DOMINATED_UPPER, z_grid=(1.0, 2.0), n_samples=10**4, seed=1)
    with pytest.raises(UncertifiedHypothesisError, match="margin inf"):
        run_scenario(spec)


def test_pearson_margin_at_the_support_end_is_not_certified():
    # g_X - g_ref = 0.05 x + 0.275 on the support (-10, inf) of X: -0.225 at its end
    spec = ScenarioSpec(x_model=build_law(PearsonCoefficients(0.0, 0.1, 1.0)),
                        reference=PearsonCoefficients(0.0, 0.05, 0.725),
                        hypothesis=Hypothesis.DOMINATES_LOWER, z_grid=(1.0, 2.0), n_samples=10**4, seed=1)
    with pytest.raises(UncertifiedHypothesisError, match="at -10.0"):
        run_scenario(spec)


@pytest.mark.parametrize("x_coeffs, ref, hypothesis", [
    # G - g = 1e-13 x^2 - 300 x on the line: -300 at x = 1
    ((1e-13, 0.0, 1.0), (0.0, 300.0, 1.0), Hypothesis.DOMINATES_LOWER),
    # G - g_upper = x - 1e-15 x^2 on (-1, inf): +1 at x = 1
    ((0.0, 1.0, 1.0), (1e-15, 0.0, 1.0), Hypothesis.DOMINATED_UPPER),
], ids=["lower", "upper"])
def test_pearson_margin_with_a_tiny_leading_term_is_not_certified(x_coeffs, ref, hypothesis):
    spec = ScenarioSpec(x_model=build_law(PearsonCoefficients(*x_coeffs)), reference=PearsonCoefficients(*ref),
                        hypothesis=hypothesis, z_grid=(1.0, 2.0), n_samples=10**4, seed=1)
    with pytest.raises(UncertifiedHypothesisError):
        run_scenario(spec)


def test_h2_equality_scenario_passes():
    rep = run_scenario(h2_gamma_spec())
    assert rep.all_passed
    assert all(v == "pass" for v in rep.verdicts)
    ref = build_law(PearsonCoefficients(0.0, 2.0, 2.0))
    for z, e in zip(rep.z_grid, rep.empirical):
        assert abs(e - pearson.tail(ref, z)) <= rep.ci_half_width
    assert rep.meta["certification"] == {"lower_margin": 0.0, "upper_margin": 0.0}


def test_h1_normal_scenario_passes():
    spec = ScenarioSpec(
        x_model=H1,
        reference=PearsonCoefficients(0.0, 0.0, 1.0),
        hypothesis=Hypothesis.SANDWICH,
        z_grid=(0.5, 1.0, 2.0, 3.0),
        n_samples=10**5,
        seed=7,
    )
    rep = run_scenario(spec)
    assert rep.all_passed


def test_h2_upper_reference_scenario():
    # G = 2X + 2 <= 2X + 3: upper dominance with margin -1, deep-tail z past
    # the regime threshold 10 sqrt(3)
    spec = ScenarioSpec(
        x_model=H2,
        reference=PearsonCoefficients(0.0, 2.0, 2.0),
        reference_upper=PearsonCoefficients(0.0, 2.0, 3.0),
        hypothesis=Hypothesis.SANDWICH,
        z_grid=(2.0, 18.0, 20.0),
        n_samples=10**5,
        seed=99,
        k_upper=1.5,
    )
    rep = run_scenario(spec)
    assert rep.meta["certification"]["upper_margin"] == pytest.approx(-1.0)
    assert rep.all_passed
    assert rep.meta["deep_tail"][1] and rep.meta["deep_tail"][2]


def test_pearson_x_model_equality():
    law = build_law(PearsonCoefficients(0.0, 2.0, 2.0))
    spec = ScenarioSpec(
        x_model=law,
        reference=PearsonCoefficients(0.0, 2.0, 2.0),
        hypothesis=Hypothesis.SANDWICH,
        z_grid=(1.0, 2.0, 4.0),
        n_samples=10**5,
        seed=21,
    )
    rep = run_scenario(spec)
    assert rep.all_passed


def test_pearson_x_model_strict_dominance():
    # g_X = 2x + 3 >= g_ref = 2x + 2 on the support of X
    law = build_law(PearsonCoefficients(0.0, 2.0, 3.0))
    spec = ScenarioSpec(
        x_model=law,
        reference=PearsonCoefficients(0.0, 2.0, 2.0),
        hypothesis=Hypothesis.DOMINATES_LOWER,
        z_grid=(1.0, 2.0),
        n_samples=10**5,
        seed=3,
    )
    rep = run_scenario(spec)
    assert rep.all_passed
    # kernels vanish together toward the left support edge, so the margin
    # infimum is 0; certification only needs nonnegativity
    assert rep.meta["certification"]["lower_margin"] >= 0.0
    x = 1.0  # interior points carry the full gap
    assert pearson.stein_kernel(law.coeffs, x) - pearson.stein_kernel(spec.reference, x) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# determinism


def test_report_byte_identical():
    a = run_scenario(h2_gamma_spec())
    b = run_scenario(h2_gamma_spec())
    assert a.to_csv().encode() == b.to_csv().encode()
    assert a.to_json().encode() == b.to_json().encode()


def test_report_identical_under_parallel_execution():
    serial = run_scenario(h2_gamma_spec())
    parallel = run_scenario(h2_gamma_spec(), n_workers=4)
    assert serial.to_csv().encode() == parallel.to_csv().encode()


def test_block_counts_match_empirical_tail():
    spec = h2_gamma_spec()
    rep = run_scenario(spec)
    law = spec.x_model
    from steintail import rng as _rng

    draws = law.evaluate(_rng.normal_stream(spec.seed, spec.n_samples))
    tails, _ = empirical_tail(draws, spec.z_grid)
    np.testing.assert_array_equal(np.asarray(rep.empirical), tails)


def test_dkw_consistency_over_repetitions():
    # confidence 0.9, 100 seeded repetitions, n = 1e5 each: the empirical
    # tail must stay inside the band in at least 90 repetitions
    law = build_law(PearsonCoefficients(0.0, 2.0, 2.0))
    zs = np.linspace(-0.9, 6.0, 25)
    exact = pearson.tail_grid(law, zs)
    eps = dkw_half_width(10**5, 0.9)
    hits = 0
    for rep_seed in range(100):
        xs = pearson.sample(law, 10**5, seed=rep_seed)
        tails, _ = empirical_tail(xs, zs, confidence=0.9)
        if np.max(np.abs(tails - exact)) <= eps:
            hits += 1
    assert hits >= 90


# ---------------------------------------------------------------------------
# slope estimates


def test_slope_loglog_case5(case5_law):
    zs = np.geomspace(20.0, 200.0, 25)
    lt = [pearson.log_tail(case5_law, z) for z in zs]
    slope = slope_estimate(zs, lt, "loglog")
    assert slope == pytest.approx(-5.0, abs=0.1)


def test_slope_loglinear_gamma(gamma_law):
    zs = np.geomspace(20.0, 200.0, 25)
    lt = [pearson.log_tail(gamma_law, z) for z in zs]
    slope = slope_estimate(zs, lt, "loglinear")
    assert slope == pytest.approx(-0.5, abs=0.01)


def test_slope_stretched_normal(normal_law):
    zs = np.geomspace(20.0, 200.0, 25)
    lt = [pearson.log_tail(normal_law, z) for z in zs]
    slope = slope_estimate(zs, lt, "stretched", p=0.0)
    assert slope == pytest.approx(-0.5, abs=0.01)


def test_slope_windows_converge(case5_law):
    errs = []
    for lo in (5.0, 20.0, 80.0):
        zs = np.geomspace(lo, 10.0 * lo, 20)
        lt = [pearson.log_tail(case5_law, z) for z in zs]
        errs.append(abs(slope_estimate(zs, lt, "loglog") + 5.0))
    assert errs[0] > errs[1] > errs[2]


def test_slope_insufficient_range(gamma_law):
    zs = np.linspace(20.0, 100.0, 10)
    lt = [pearson.log_tail(gamma_law, z) for z in zs]
    with pytest.raises(InsufficientRangeError):
        slope_estimate(zs, lt, "loglog")


# ---------------------------------------------------------------------------
# JSON round trip


def test_scenario_json_round_trip():
    spec = h2_gamma_spec(reference_upper=PearsonCoefficients(0.0, 2.0, 3.0), k_upper=1.5)
    text = scenario_to_json(spec)
    spec2 = scenario_from_json(text)
    assert spec2 == spec
    rep1 = run_scenario(spec)
    rep2 = run_scenario(spec2)
    assert rep1.to_csv() == rep2.to_csv()


def test_scenario_json_missing_field():
    with pytest.raises(DomainError):
        scenario_from_json(json.dumps({"x_model": {"type": "hermite", "coeffs": [0, 1]}}))
