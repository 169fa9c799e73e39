"""Refusals in src that the module tests do not reach: each input below is one a caller can pass, and each
raises the package's typed error (``steintail.errors``), never a bare ValueError or TypeError."""

import json
import math
import re
from dataclasses import astuple

import numpy as np
import pytest

from steintail import bounds, chaos, cli, pearson, rng, stein, verify
from steintail.chaos import HermiteSeries
from steintail.errors import (
    DomainError,
    MomentDoesNotExistError,
    OutsideSupportError,
)
from steintail.pearson import PearsonCoefficients, build_law
from steintail.verify import Hypothesis, ScenarioSpec, TailReport, dkw_half_width, slope_estimate

GAMMA = PearsonCoefficients(0.0, 2.0, 2.0)


def test_bounds_refuse_a_nan_point_and_a_threshold_at_or_below_0():
    with pytest.raises(DomainError, match="NaN"):
        bounds.implicit_integral(math.nan, (0.5, 0.1, 0.2))
    law = build_law(GAMMA)
    for z in (0.0, -1.0):
        with pytest.raises(DomainError, match="requires z > 0"):
            bounds.normalized_tail(law, z)


def test_chaos_refuses_a_series_past_the_degree_guard_and_levels_without_a_weight():
    with pytest.raises(DomainError, match="exceeds 64"):
        HermiteSeries((0.0,) * 65 + (1.0,))
    h2 = HermiteSeries((0.0, 0.0, 1.0))
    with pytest.raises(OutsideSupportError, match="no preimages"):  # H2 >= -1
        chaos.g_from_conditional(h2, -2.0)
    # X = 1e-160 N crosses 1 at n = 1e160, where n^2 is past the doubles: no weight, even in logs
    with pytest.raises(OutsideSupportError, match="underflows, even in logs"):
        chaos.g_from_conditional(HermiteSeries((0.0, 1e-160)), 1.0)


@pytest.mark.parametrize("argv, message", [
    (["tail", "--alpha", "0", "--beta", "0", "--gamma", "1", "--grid", "0:1"], "grid must be a:b:n"),
    (["tail", "--alpha", "0", "--beta", "0", "--gamma", "1", "--grid", "1:0:5"], "grid needs b >= a"),
    (["tail", "--alpha", "0", "--beta", "0", "--gamma", "1", "--grid", "0:1:0"], "grid needs b >= a"),
    (["chaos-g", "--coeffs", "0,x"], "comma-separated numbers"),
])
def test_cli_parse_errors_exit_1_with_one_line(capsys, argv, message):
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert message in err and err.strip().count("\n") == 0


def test_cli_prints_unit_terms_bare_and_asym_as_csv(capsys):
    assert cli._format_polynomial((1.0, -1.0, 0.0, 2.0, 1.0)) == "1 - N + 2*N^3 + N^4"
    assert cli.run(["asym", "--alpha", "0", "--beta", "2", "--gamma", "2", "--mode", "loglinear",
                    "--z-grid", "5:60:12"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header == "mode,p,slope"
    mode, p, slope = row.split(",")
    assert (mode, p) == ("loglinear", "0.0") and -0.6 < float(slope) < -0.4  # the limit is -1/beta


def test_log_tail_refuses_where_a_tail_underflows_without_a_log_form():
    # the inverse-gamma type has no log form of its tail below the doubles' range
    with pytest.raises(DomainError, match="tail underflow"):
        pearson.log_tail(build_law(PearsonCoefficients(0.25, 1.0, 1.0)), 1e100)


def test_pearson_refuses_an_empty_sample_negative_moments_and_a_stored_case_that_does_not_rebuild():
    law = build_law(GAMMA)
    with pytest.raises(DomainError, match="sample size"):
        pearson.sample(law, 0, seed=1)
    with pytest.raises(DomainError, match="nonnegative"):
        pearson.moment(GAMMA, -1)
    assert not pearson.moment_exists(GAMMA, -1)
    obj = json.loads(pearson.law_to_json(law))
    with pytest.raises(DomainError, match="case mismatch"):
        pearson.law_from_json(json.dumps({**obj, "case": "Beta"}))


def test_moment_refuses_a_vanishing_recursion_pivot():
    # alpha one double below 1/2: the third moment passes m < 1 + 1/alpha in doubles, but 1 - 2 alpha is 2^-53
    coeffs = PearsonCoefficients(math.nextafter(0.5, 0.0), 0.0, 1.0)
    assert pearson.moment_exists(coeffs, 3)
    with pytest.raises(MomentDoesNotExistError, match="pivot"):
        pearson.moment(coeffs, 3)


def test_verify_refuses_a_bad_confidence_short_reports_and_unknown_models():
    base = dict(x_model=HermiteSeries((0.0, 0.0, 1.0)), reference=GAMMA, hypothesis=Hypothesis.SANDWICH,
                z_grid=(1.0, 2.0), n_samples=10**4, seed=1)
    for confidence in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError, match="confidence"):
            ScenarioSpec(**base, confidence=confidence)
    for n, confidence in ((0, 0.99), (10, 1.0)):
        with pytest.raises(DomainError, match="n >= 1"):
            dkw_half_width(n, confidence)
    with pytest.raises(DomainError, match="lower_cert length mismatch"):
        TailReport((1.0, 2.0), (0.1, 0.05), (0.0,), (1.0, 1.0), (0.1, 0.1), 0.01, ("pass", "pass"))
    obj = json.loads(verify.scenario_to_json(ScenarioSpec(**base)))
    with pytest.raises(DomainError, match="unknown x_model type 'gaussian'"):
        verify.scenario_from_json(json.dumps({**obj, "x_model": {"type": "gaussian"}}))


def test_slope_estimate_refuses_short_grids_nonpositive_points_and_unknown_modes():
    zs = np.array([1.0, 5.0, 20.0])
    ys = -zs
    for args, message in (((zs[:2], ys[:2], "loglog"), "at least 3 points"),
                          ((zs, ys[:2], "loglog"), "matching grids"),
                          ((zs - 2.0, ys, "loglinear"), "must be positive"),
                          ((zs, ys, "cubic"), "unknown slope mode"),
                          ((zs, ys, "stretched", 2.0), "0 <= p < 2")):
        with pytest.raises(DomainError, match=message):
            slope_estimate(*args)


@pytest.mark.parametrize("field, value", [("confidence", "x"), ("confidence", None), ("c_lower", "x"),
                                          ("c_lower", None), ("k_upper", "x")])
def test_scenario_spec_refuses_a_constant_that_is_not_a_number_and_names_it(field, value):
    base = dict(x_model=HermiteSeries((0.0, 0.0, 1.0)), reference=GAMMA, hypothesis=Hypothesis.SANDWICH,
                z_grid=(1.0, 2.0), n_samples=10**4, seed=1)
    with pytest.raises(DomainError, match=f"{field} must be a real number"):
        ScenarioSpec(**base, **{field: value})


@pytest.mark.parametrize("build, message", [
    (lambda: HermiteSeries((0, "x")), "series coefficient must be a real number, got 'x'"),
    (lambda: HermiteSeries(None), "malformed coeffs"),
    (lambda: build_law(PearsonCoefficients("a", 0, 1)), "alpha must be a real number, got 'a'"),
    (lambda: build_law(PearsonCoefficients(None, 0, 1)), "alpha must be a real number, got None"),
], ids=["series-str", "series-none", "pearson-str", "pearson-none"])
def test_series_and_coefficients_that_are_not_numbers_raise_domain_error_naming_the_field(build, message):
    with pytest.raises(DomainError, match=message):
        build()


LAW, SERIES, ZS, YS = build_law(GAMMA), HermiteSeries((0.0, 1.0, 0.0, 0.1)), [1.0, 5.0, 20.0], [-1.0, -5.0, -20.0]


@pytest.mark.parametrize("call, message", [
    (lambda: pearson.quantile_grid(LAW, ["a"]), "p must be a real number or an array of them, got ['a']"),
    (lambda: chaos.ibp_check(SERIES, ["a"]), "m's coefficients must be a real number or an array of them, got ['a']"),
    (lambda: chaos.ibp_check(SERIES, 2.0), "m's coefficients must be a sequence of numbers, got 2.0"),
    (lambda: verify.empirical_tail(["a"], [1.0]), "samples must be a real number or an array of them, got ['a']"),
    (lambda: verify.empirical_tail([1.0, 2.0], [1.0], "x"), "confidence must be a real number, got 'x'"),
    (lambda: slope_estimate(ZS, YS, 3), "unknown slope mode 3"),
    (lambda: slope_estimate(ZS, YS, "stretched", "a"), "p must be a real number, got 'a'"),
    (lambda: bounds.pearson_upper_constant("0.1"), "alpha must be a real number, got '0.1'"),
    (lambda: bounds.pearson_lower(LAW, 1.0, "5"), "c must be a real number, got '5'"),
    (lambda: bounds.normalized_tail(LAW, "1"), "z must be a real number, got '1'"),
    (lambda: pearson.moment_exists(GAMMA, "2"), "moment order must be an integer, got '2'"),
    (lambda: chaos.margin_extrema((0.0, 1.0), (1.0,), GAMMA, ("a", "b")), "a domain end must be a real number, got 'a'"),
    (lambda: bounds.variance_bound_check(GAMMA, math.nan, "GE"), "variance must be nonnegative, got nan"),
    (lambda: bounds.variance_bound_check(GAMMA, 1.0, "XX"), "malformed direction"),
    (lambda: bounds.implicit_integral("a", (0.5, 0.1, 0.2)), "the evaluation point must be a real number or an array"),
    (lambda: bounds.phi_envelope(LAW, ["a"]), "the evaluation point must be a real number or an array"),
    (lambda: bounds.statement_table(None, LAW, "a", None), "the evaluation point must be a real number or an array"),
    (lambda: chaos.margin_extrema(["a"], (1.0,), GAMMA, (0.0, 1.0)), "a polynomial's coefficients must be a real number"),
    (lambda: stein.evaluate(stein.solve_indicator(LAW, 1.0), "a"), "the grid must be a real number or an array"),
    (lambda: stein.certify_fprime(stein.solve_indicator(LAW, 1.0), ["a"]), "the grid must be a real number or an array"),
    (lambda: chaos.malliavin_G("a"), "x_series must be a HermiteSeries, got 'a'"),
    (lambda: chaos.law_of_polynomial("x"), "x_series must be a HermiteSeries, got 'x'"),
    (lambda: bounds.asymptotic_tail_constant("x"), "law must be a PearsonLaw, got 'x'"),
], ids=["quantile_grid-p", "ibp_check-m", "ibp_check-scalar-m", "empirical_tail-samples", "empirical_tail-confidence",
        "slope_estimate-mode", "slope_estimate-p", "pearson_upper_constant-alpha", "pearson_lower-c",
        "normalized_tail-z", "moment_exists-m", "margin_extrema-domain", "variance_bound_check-nan",
        "variance_bound_check-direction", "implicit_integral-z", "phi_envelope-x", "statement_table-z",
        "margin_extrema-x_poly", "evaluate-grid", "certify_fprime-grid", "malliavin_G-series", "law_of_polynomial-series",
        "asymptotic_tail_constant-law"])
def test_a_public_argument_of_the_wrong_kind_raises_domain_error_naming_it(call, message):
    # before, each raised a bare ValueError, TypeError or AttributeError, or (a NaN variance) returned False
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


SPEC = dict(x_model=HermiteSeries((0.0, 0.0, 1.0)), reference=GAMMA, hypothesis=Hypothesis.SANDWICH,
            z_grid=(1.0, 2.0), n_samples=10**4, seed=1)


@pytest.mark.parametrize("field, value, message", [
    ("hypothesis", "x", "malformed hypothesis (ValueError: 'x' is not a valid Hypothesis)"),
    ("x_model", "x", "x_model must be a HermiteSeries or a PearsonLaw, got 'x'"),
    ("reference", "x", "reference must be a PearsonCoefficients triple, got 'x'"),
], ids=["hypothesis", "x_model", "reference"])
def test_a_scenario_of_the_wrong_kind_is_refused_before_any_draw(monkeypatch, field, value, message):
    # before, each was accepted or raised a bare AttributeError: a wrong hypothesis after counting every draw
    def refuse(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(rng, "uniform_block", refuse)
    monkeypatch.setattr(rng, "counts_below", refuse)
    with pytest.raises(DomainError, match=re.escape(message)):
        verify.run_scenario(ScenarioSpec(**{**SPEC, field: value}))


@pytest.mark.parametrize("field, value, message", [
    ("x_model", "x", "x_model must be a HermiteSeries or a PearsonLaw, got 'x'"),
    ("x_model", GAMMA, "x_model must be a HermiteSeries or a PearsonLaw, got PearsonCoefficients("),
    ("n_samples", 2**63, f"n_samples must be at most 2^63 - 1, got {2**63}"),
], ids=["x_model-str", "x_model-triple", "n_samples-past-int64"])
def test_a_scenario_spec_of_the_wrong_kind_or_size_is_refused_as_it_is_made(field, value, message):
    # before, the spec took each: an x_model of neither kind raised a bare AttributeError in scenario_to_json,
    # and n_samples past 2^63 - 1 looped over about 2^47 blocks (or raised a bare OverflowError in the count draw)
    with pytest.raises(DomainError, match=re.escape(message)):
        ScenarioSpec(**{**SPEC, field: value})
    assert ScenarioSpec(**{**SPEC, "n_samples": 2**63 - 1}).n_samples == 2**63 - 1


def test_a_hypothesis_given_by_its_value_runs_as_the_member():
    # before, "Sandwich" counted every draw and then raised a bare AttributeError writing the report
    spec = ScenarioSpec(**{**SPEC, "hypothesis": "Sandwich"})
    assert spec.hypothesis is Hypothesis.SANDWICH
    assert verify.run_scenario(spec).to_json() == verify.run_scenario(ScenarioSpec(**SPEC)).to_json()


@pytest.mark.parametrize("edit, message", [
    (lambda o: o["reference"].update(gamma=True), "gamma must be a real number, got True"),
    (lambda o: o["reference"].update(alpha="0"), "alpha must be a real number, got '0'"),
    (lambda o: o.update(confidence="0.9"), "confidence must be a real number, got '0.9'"),
    (lambda o: o.update(K="3"), "k_upper must be a real number, got '3'"),
    (lambda o: o["x_model"]["coeffs"].__setitem__(2, "1"), "a series coefficient must be a real number, got '1'"),
], ids=["gamma-true", "alpha-str", "confidence-str", "K-str", "series-str"])
def test_a_scenario_file_value_of_the_wrong_kind_exits_1_naming_the_field(capsys, tmp_path, edit, message):
    # before, the reader cast each with float(): the reference (0, 2, 1) ran for "gamma": true and reported pass
    obj = json.loads(verify.scenario_to_json(ScenarioSpec(**SPEC)))
    edit(obj)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert cli.run(["verify", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and err.strip().count("\n") == 0


def test_a_spec_whose_upper_reference_has_a_string_alpha_raises_domain_error():
    # before, the triple took the string and the spec's third-moment check raised a bare TypeError
    with pytest.raises(DomainError, match="alpha must be a real number, got '0.1'"):
        ScenarioSpec(**SPEC, reference_upper=PearsonCoefficients("0.1", 2.0, 3.0))


def test_a_coefficient_given_as_a_0d_array_samples_and_serializes_like_its_float():
    # before, the array stayed in the triple, and the sampler's table cache and law_to_json raised a bare TypeError
    arr, flt = PearsonCoefficients(np.array(0.0), 2, np.float64(2.0)), PearsonCoefficients(0.0, 2.0, 2.0)
    assert arr == flt and [type(v) for v in astuple(arr)] == [float] * 3
    law, ref = build_law(arr), build_law(flt)
    assert pearson.law_to_json(law) == pearson.law_to_json(ref)
    assert pearson.sample(law, 1000, seed=3).tolist() == pearson.sample(ref, 1000, seed=3).tolist()
    spec = ScenarioSpec(**{**SPEC, "x_model": law, "reference": arr})
    assert verify.scenario_to_json(spec) == verify.scenario_to_json(ScenarioSpec(**{**SPEC, "x_model": ref}))
