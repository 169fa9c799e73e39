"""One call per grid: every pointwise evaluator of pearson, chaos and bounds takes a number or an
array of any shape, and an array call equals the calls at its numbers to the bit.  The callers
(stein's certification grid, the scenario runner and its interval ends) make one call per grid."""

import json
import math
import sys
import warnings

import numpy as np
import pytest
from conftest import CANONICAL_COEFFS, WIDER_COEFFS

from steintail import bounds, chaos, pearson, stein, verify
from steintail.chaos import HermiteSeries, law_of_polynomial
from steintail.cli import run
from steintail.errors import (
    DomainError,
    InvalidConstantError,
    InvalidProbabilityError,
    OutsideSupportError,
    ThirdMomentError,
)
from steintail.pearson import PearsonCoefficients, build_law
from steintail.verify import Hypothesis, ScenarioSpec, run_scenario, slope_estimate

LAWS = {**CANONICAL_COEFFS, "mirrored_gamma": WIDER_COEFFS["mirrored_gamma"],
        "mirrored_inverse_gamma": WIDER_COEFFS["mirrored_inverse_gamma"]}
# every canonical case in both orientations: the Normal is symmetric, and the symmetric Beta and case 5 get
# a skewed pair
ORIENTED = {**LAWS, "beta_skewed": PearsonCoefficients(-0.25, 0.1, 0.0625),
            "beta_skewed_mirrored": PearsonCoefficients(-0.25, -0.1, 0.0625),
            "no_real_roots_skewed": PearsonCoefficients(0.25, 0.3, 0.25),
            "no_real_roots_skewed_mirrored": PearsonCoefficients(0.25, -0.3, 0.25)}
PEARSON_POINTWISE = ("tail", "cdf", "log_tail", "density", "log_density", "flux", "kernel_and_flux",
                     "stein_kernel", "q_function", "partial_moments")
SERIES = {"H1+0.1H3": HermiteSeries((0.0, 1.0, 0.0, 0.1)), "H2": HermiteSeries((0.0, 0.0, 1.0)),
          "H1+0.2H2": HermiteSeries((0.0, 1.0, 0.2))}


def _members(v):
    return v if isinstance(v, tuple) else (v,)


def _check_array_equals_numbers(fn, xs):
    """fn on the 2-d xs, on xs flattened and on no points, against fn at each number of xs, given as a float,
    a numpy float64 and a 0-d array."""
    whole, flat = _members(fn(xs)), _members(fn(xs.ravel()))
    assert all(isinstance(v, np.ndarray) and v.shape == xs.shape for v in whole)
    assert all(v.shape == (xs.size,) for v in flat)
    for k, x in enumerate(xs.flat):
        for number in (float(x), np.float64(x), np.array(x)):
            got = _members(fn(number))
            assert all(type(g) is float for g in got), (x, type(number))
            for g, w, f in zip(got, whole, flat):
                assert np.float64(g).tobytes() == w.flat[k].tobytes() == f[k].tobytes(), (x, type(number))
    for empty in (np.empty(0), np.empty((0, 2))):
        assert all(v.shape == empty.shape for v in _members(fn(empty)))


def _check_every_form(fn, points):
    """fn at each point as a float, a numpy float64 and a 0-d array, against its value inside one array of
    every point where fn is defined: the same bits, and a float for a number.  Where fn raises a DomainError,
    or a RuntimeWarning (the suite raises warnings as errors), it raises the same in each form and inside
    that array.  A NaN raises DomainError in each form and inside the array."""
    def run(x):
        try:
            return _members(fn(x))
        except (DomainError, RuntimeWarning) as exc:
            return f"{type(exc).__name__}: {exc}"

    alone = [run(np.array([x])) for x in points]
    defined = np.array([x for x, v in zip(points, alone) if not isinstance(v, str)])
    whole, k = run(defined), 0
    for x, one in zip(points, alone):
        forms = [run(number) for number in (float(x), np.float64(x), np.array(x))]
        if isinstance(one, str):
            assert forms == [one] * 3 and run(np.append(defined, x)) == one, x
            continue
        for got in forms:
            assert all(type(g) is float for g in got), x
            assert [np.float64(g).tobytes() for g in got] == [w[k].tobytes() for w in whole], x
        k += 1
    for nan in (math.nan, np.float64(math.nan), np.array(math.nan), np.append(defined, math.nan)):
        with pytest.raises(DomainError):
            fn(nan)


def _near_the_ends(a, b, inside):
    """+-0.0, the inside points and, at each end of (a, b), the end and the doubles on either side of it, or
    the largest finite double where the end is infinite."""
    points = [-0.0, 0.0, *inside]
    for end in (a, b):
        near = (np.nextafter(end, -math.inf), np.nextafter(end, math.inf)) if math.isfinite(end) else \
            (math.copysign(sys.float_info.max, end),)
        points += [end, *near]
    return np.array(points)


def _with_nan(xs):
    bad = xs.copy()
    bad.flat[-1] = math.nan
    return bad


# ---------------------------------------------------------------------------
# pearson


@pytest.mark.parametrize("coeffs", LAWS.values(), ids=LAWS.keys())
def test_quantile_takes_an_array_of_p(coeffs):
    law = build_law(coeffs)
    ps = np.array([[1e-300, 1e-6, 0.3], [0.5, 0.9, 1.0 - 1e-6]])
    _check_array_equals_numbers(lambda p: pearson.quantile(law, p), ps)
    with pytest.raises(DomainError, match="NaN"):
        pearson.quantile(law, _with_nan(ps))
    for bad in (np.array([0.2, 0.0]), np.array([[0.5], [1.0]]), 1.5):
        with pytest.raises(InvalidProbabilityError):
            pearson.quantile(law, bad)


@pytest.mark.parametrize("coeffs", LAWS.values(), ids=LAWS.keys())
def test_partial_moments_take_an_array(coeffs):
    law = build_law(coeffs)
    sd = math.sqrt(law.variance)
    ys = np.array([[-1.5, -0.7, 0.0], [0.3, 1.2, 2.5]]) * sd  # inside and, for the bounded laws, outside
    ys[0, 0] = -math.inf
    _check_array_equals_numbers(lambda y: pearson.partial_moments(law, y), ys)
    with pytest.raises(DomainError, match="NaN"):
        pearson.partial_moments(law, _with_nan(ys))


@pytest.mark.parametrize("coeffs", ORIENTED.values(), ids=ORIENTED.keys())
def test_pearson_evaluators_and_the_envelope_give_the_same_bits_in_every_form(coeffs):
    law = build_law(coeffs)
    a, b = law.support_a, law.support_b
    inside = np.clip(np.array([-1.5, -0.3, 0.4, 2.0]) * math.sqrt(law.variance), 0.9 * a, 0.9 * b)
    for fn in [getattr(pearson, name) for name in PEARSON_POINTWISE] + [bounds.phi_envelope]:
        _check_every_form(lambda x, fn=fn: fn(law, x), _near_the_ends(a, b, inside))
    # past |x| of about 1e154 the kernel and q overflow: at the largest double beside an infinite end each form
    # reads their limit inf, and a flux of 0, the limit of E[Z - mu; Z > x], with no warning
    kernel_limit = law.coeffs.gamma if law.case == pearson.CaseTag.NORMAL else math.inf
    for end in (a, b):
        if math.isinf(end):
            big = math.copysign(sys.float_info.max, end)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for x in (big, np.full((2, 1), big)):
                    kernel, flux = pearson.kernel_and_flux(law, x)
                    assert np.all(kernel == kernel_limit) and np.all(flux == 0.0)
                    assert np.all(pearson.stein_kernel(law, x) == kernel_limit) and np.all(pearson.flux(law, x) == 0.0)
                    assert np.all(pearson.q_function(law, x) == math.inf)
                    assert np.all(pearson.partial_moments(law, x)[1] == 0.0)
                    assert np.all(np.array(bounds.phi_envelope(law, x)) == 0.0)


# ---------------------------------------------------------------------------
# chaos


@pytest.mark.parametrize("series", SERIES.values(), ids=SERIES.keys())
def test_chaos_evaluators_take_an_array_of_levels(series):
    law = law_of_polynomial(series)
    inside = series.evaluate(np.array([[-1.7, -0.4, 0.3], [0.9, 1.6, 2.2]]))
    levels = inside.copy()
    levels[0, 0], levels[1, 2] = -math.inf, math.inf
    for fn in (law.tail, law.density, law.partial_moments):
        _check_array_equals_numbers(fn, levels)
        with pytest.raises(DomainError, match="NaN"):
            fn(_with_nan(levels))
    for fn in (chaos.g_function, chaos.g_from_conditional):
        _check_array_equals_numbers(lambda x: fn(series, x), inside)
        with pytest.raises(DomainError, match="NaN"):
            fn(series, _with_nan(inside))
        with pytest.raises(OutsideSupportError):
            fn(series, np.append(inside, math.inf))


@pytest.mark.parametrize("series", SERIES.values(), ids=SERIES.keys())
def test_chaos_evaluators_give_the_same_bits_in_every_form(series):
    law = law_of_polynomial(series)
    points = _near_the_ends(law.support_a, law.support_b,
                            series.evaluate(np.array([-1.7, -0.4, 0.3, 0.9, 2.2])))
    for fn in (law.tail, law.density, law.partial_moments):
        _check_every_form(fn, points)
    for fn in (chaos.g_function, chaos.g_from_conditional):
        _check_every_form(lambda x, fn=fn: fn(series, x), points)


# ---------------------------------------------------------------------------
# bounds


@pytest.mark.parametrize("coeffs", LAWS.values(), ids=LAWS.keys())
def test_bounds_take_an_array_of_points(coeffs):
    law = build_law(coeffs)
    sd = math.sqrt(law.variance)
    b = law.support_b
    inside = np.clip(np.array([[-0.9, -0.2, 0.0], [0.1, 0.7, 1.4]]) * sd, law.support_a * 0.9, b * 0.9)
    zs = np.clip(np.array([[0.05, 0.2, 0.4], [0.8, 1.3, 2.0]]) * sd, 0.0, b * 0.95)
    evaluators = {
        "phi_envelope": (lambda x: bounds.phi_envelope(law, x), inside),
        "pearson_lower": (lambda z: bounds.pearson_lower(law, z, 4.0)[0], zs),
        "implicit_lower_bound": (lambda z: bounds.implicit_lower_bound(law, z, pearson.partial_moments(law, z), b),
                                 zs),
        "implicit_lower_bound, mass past b": (lambda z: bounds.implicit_lower_bound(
            law, z, pearson.partial_moments(law, z), math.inf), zs),
        "implicit_integral": (lambda z: bounds.implicit_integral(z, pearson.partial_moments(law, z)), zs),
    }
    for name, (fn, xs) in evaluators.items():
        _check_array_equals_numbers(fn, xs)
        with pytest.raises(DomainError):
            fn(_with_nan(xs))
    with pytest.raises(DomainError, match="outside the open support"):
        bounds.phi_envelope(law, np.array([0.0, law.support_b]))
    with pytest.raises(DomainError, match="z > 0"):
        bounds.pearson_lower(law, np.array([[1e-3], [-1e-3]]), 4.0)
    with pytest.raises(DomainError, match="0 < z < b"):
        bounds.implicit_lower_bound(law, np.array([0.1, 0.0]), (0.0, 0.0, 0.0), b)


# ---------------------------------------------------------------------------
# the callers: cost guards by count


def test_certification_grid_makes_one_quantile_call(monkeypatch):
    # one call for both ends per (law, n), at its first threshold; a law built again is the same key
    stein._bulk_grid.cache_clear()
    stein._z_free.cache_clear()
    calls, quantile = [], pearson.quantile
    monkeypatch.setattr(pearson, "quantile", lambda law, p: calls.append(np.size(p)) or quantile(law, p))
    for coeffs in CANONICAL_COEFFS.values():
        sd = math.sqrt(build_law(coeffs).variance)
        for n in (200, 500):
            calls.clear()
            for z in np.linspace(0.05, 0.4, 8) * sd:
                stein.certification_grid(build_law(coeffs), z, n)
                assert calls == [2], (coeffs, n, z)


def _grid_built_whole(law, z, n):
    """The certification grid built in full at every call, z's neighbourhood dropped with a's and b's:
    the reference for the bits of ``certification_grid``, which builds the z-free part once per (law, n)."""
    lo, hi = pearson.quantile(law, np.array([1.0 - 1e-6, 1e-6])).tolist()
    parts = [np.linspace(lo, hi, n)]
    w = hi - lo
    if math.isfinite(law.support_a):
        parts.append(np.linspace(law.support_a - 0.5 * w, law.support_a - 1e-6 * w, n // 20))
    if math.isfinite(law.support_b):
        parts.append(np.linspace(law.support_b + 1e-6 * w, law.support_b + 0.5 * w, n // 20))
    xs = np.sort(np.concatenate(parts))
    keep = np.ones(len(xs), dtype=bool)
    for kink in (z, law.support_a, law.support_b):
        if math.isfinite(kink):
            keep &= np.abs(xs - kink) > 1e-9 * max(1.0, abs(kink))
    return xs[keep]


@pytest.mark.parametrize("coeffs", LAWS.values(), ids=LAWS.keys())
def test_certification_grid_equals_the_grid_built_whole_bit_for_bit(coeffs):
    law = build_law(coeffs)
    sd = math.sqrt(law.variance)
    stein._bulk_grid.cache_clear()
    stein._z_free.cache_clear()
    for n in (2, 21, 200, 2000):
        whole = _grid_built_whole(law, math.inf, n)
        on_grid = float(whole[len(whole) // 3])
        zs = (on_grid, 0.3 * sd, np.float64(0.7 * sd), 1, 0.0, -0.6 * sd, law.support_a, law.support_b,
              math.inf, -math.inf)
        for z in zs:
            got = stein.certification_grid(law, z, n)
            assert got.dtype == np.float64 and got.tobytes() == _grid_built_whole(law, z, n).tobytes(), (n, z)
        assert stein.certification_grid(law, on_grid, n).size == whole.size - 1  # the z kink drops its point


def test_a_changed_grid_leaves_the_next_call_as_it_was():
    law = build_law(CANONICAL_COEFFS["beta"])
    for z in (0.1, math.inf):
        first = stein.certification_grid(law, z, 200)
        want = first.copy()
        first[:] = 0.0  # every call returns its own writeable array
        assert stein.certification_grid(law, z, 200).tobytes() == want.tobytes()
    assert not stein._bulk_grid(law, 200).flags.writeable


@pytest.mark.parametrize("x_model, reference, zs", [
    (HermiteSeries((0.0, 0.0, 1.0)), PearsonCoefficients(0.0, 2.0, 2.0), (1.0, 2.0, 3.0)),
    (build_law(PearsonCoefficients(-0.25, 0.0, 0.0625)), PearsonCoefficients(-0.25, 0.0, 0.0625), (0.05, 0.2, 0.4)),
], ids=["chaos", "pearson-beta"])
def test_run_scenario_reads_moments_once_on_the_grid_and_once_at_b(monkeypatch, x_model, reference, zs):
    # the implicit bound takes X's right end, not X's moments at b: no read at b for either model
    calls, model = [], verify._model

    def counted(x_model):
        m = model(x_model)
        return m._replace(moments=lambda y: calls.append(np.shape(y)) or m.moments(y))

    monkeypatch.setattr(verify, "_model", counted)
    spec = ScenarioSpec(x_model=x_model, reference=reference, hypothesis=Hypothesis.SANDWICH, z_grid=zs,
                        n_samples=20_000, seed=3)
    assert run_scenario(spec).all_passed
    assert calls == [(len(zs),)]


@pytest.mark.parametrize("x_model, points, intervals", [
    (build_law(PearsonCoefficients(0.25, 0.0, 0.25)), 5, 5),
    (build_law(PearsonCoefficients(0.0, 2.0, 2.0)), 5, 5),
    (HermiteSeries((0.0, 0.0, 1.0)), 20, 10),
], ids=["case5", "gamma", "chaos"])
def test_the_model_reads_every_threshold_s_ends_in_one_tail_call(monkeypatch, x_model, points, intervals):
    # a Pearson X's tail on the grid, or the Normal's tail at both ends of H2's two superlevel intervals per z
    calls, tail = [], pearson.tail
    monkeypatch.setattr(pearson, "tail", lambda law, z: calls.append(np.size(z)) or tail(law, z))
    lo, hi, owner = verify._model(x_model).intervals(np.array([1.0, 2.0, 3.0, 5.0, 8.0]))
    assert calls == [points]
    assert lo.size == hi.size == intervals and owner.tolist() == np.repeat(np.arange(5), intervals // 5).tolist()


# ---------------------------------------------------------------------------
# scenario checks that come before any draw


def _spec(**kw):
    law = PearsonCoefficients(0.0, 2.0, 2.0)
    args = dict(x_model=HermiteSeries((0.0, 0.0, 1.0)), reference=law, hypothesis=Hypothesis.SANDWICH,
                z_grid=(1.0, 2.0), n_samples=20_000, seed=1)
    return ScenarioSpec(**{**args, **kw})


@pytest.mark.parametrize("c", [2.0, 1.0, math.nan])
def test_a_lower_constant_of_at_most_2_is_refused_before_sampling(c):
    for hypothesis in (Hypothesis.DOMINATES_LOWER, Hypothesis.SANDWICH):
        with pytest.raises(InvalidConstantError):
            _spec(hypothesis=hypothesis, c_lower=c)
    _spec(hypothesis=Hypothesis.DOMINATED_UPPER, c_lower=c)  # the upper side reads no c


def test_an_upper_reference_without_a_third_moment_needs_k():
    heavy = PearsonCoefficients(0.5, 1.0, 0.5)
    for hypothesis in (Hypothesis.DOMINATED_UPPER, Hypothesis.SANDWICH):
        with pytest.raises(ThirdMomentError):
            _spec(hypothesis=hypothesis, reference_upper=heavy)
        _spec(hypothesis=hypothesis, reference_upper=heavy, k_upper=3.0)
    _spec(hypothesis=Hypothesis.DOMINATES_LOWER, reference_upper=heavy)


# ---------------------------------------------------------------------------
# slope fits and malformed input: typed errors, exit code 1 at the CLI


def test_slope_estimate_refuses_a_nan_or_infinite_point():
    zs, ys = np.array([0.1, 0.5, 1.0, 2.0]), np.array([-1.0, -2.0, -3.0, -4.0])
    for bad_z, bad_y in ((math.nan, -5.0), (math.inf, -5.0), (3.0, -math.inf), (3.0, math.nan)):
        with pytest.raises(DomainError, match="finite"):
            slope_estimate(np.append(zs, bad_z), np.append(ys, bad_y), "loglog")


def _run_cli(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().err


def test_asym_past_the_right_end_exits_1(capsys):
    # the Beta on (-0.5, 0.5): the log tails are -inf past b, so no slope
    code, err = _run_cli(capsys, "asym", "--alpha", "-0.25", "--beta", "0", "--gamma", "0.0625",
                         "--mode", "loglog", "--z-grid", "0.05:1:5")
    assert code == 1 and err.startswith("steintail asym: ") and "finite" in err


GOOD_SCENARIO = {"x_model": {"type": "hermite", "coeffs": [0, 0, 1]},
                 "reference": {"alpha": 0, "beta": 2, "gamma": 2},
                 "hypothesis": "Sandwich", "z_grid": [1, 2, 3], "n_samples": 20000, "seed": 42}


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps([GOOD_SCENARIO]),
    json.dumps({**GOOD_SCENARIO, "x_model": [0, 0, 1]}),
    json.dumps({**GOOD_SCENARIO, "reference": {"alpha": "x", "beta": 2, "gamma": 2}}),
    json.dumps({**GOOD_SCENARIO, "x_model": {"type": "hermite", "coeffs": [0, "x"]}}),
    json.dumps({**GOOD_SCENARIO, "hypothesis": "Nope"}),
    json.dumps({**GOOD_SCENARIO, "z_grid": 3}),
], ids=["not-json", "top-level-list", "x-model-list", "coefficient-text", "series-text", "hypothesis", "grid"])
def test_malformed_scenario_files_exit_1(capsys, tmp_path, text):
    path = tmp_path / "s.json"
    path.write_text(text)
    code, err = _run_cli(capsys, "verify", "--scenario", str(path))
    assert code == 1 and err.startswith("steintail verify: ") and "Traceback" not in err


GAMMA_JSON = json.loads(pearson.law_to_json(build_law(PearsonCoefficients(0.0, 2.0, 2.0))))


@pytest.mark.parametrize("text", ["[1, 2]", "nope", json.dumps({**GAMMA_JSON, "alpha": "x"})],
                         ids=["list", "not-json", "coefficient-text"])
def test_malformed_law_json_raises_a_domain_error(text):
    with pytest.raises(DomainError):
        pearson.law_from_json(text)
