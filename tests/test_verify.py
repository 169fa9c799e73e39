import json
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from conftest import CANONICAL_COEFFS, WIDER_COEFFS, stream_below
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from steintail import chaos, pearson, rng, stein, verify
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


def test_empirical_tail_refuses_nan():
    # before, a NaN sample was counted as not above z (2/3 here) and a NaN z read 0
    with pytest.raises(DomainError, match="NaN"):
        empirical_tail([1.0, math.nan, 3.0], [0.0])
    with pytest.raises(DomainError, match="NaN"):
        empirical_tail([1.0, 2.0, 3.0], [0.0, math.nan])


@pytest.mark.parametrize("n", [2.5, True, np.True_, "10", math.nan])
def test_dkw_half_width_takes_an_integer_count(n):
    with pytest.raises(DomainError, match="must be an integer"):
        dkw_half_width(n, 0.99)


def test_dkw_half_width_takes_integer_valued_floats():
    assert dkw_half_width(1000.0, 0.99) == dkw_half_width(1000, 0.99)


# ---------------------------------------------------------------------------
# scenario validation and certification


def test_scenario_validation():
    with pytest.raises(DomainError):
        h2_gamma_spec(n_samples=100)
    with pytest.raises(DomainError):
        h2_gamma_spec(z_grid=(2.0, 1.0))
    with pytest.raises(DomainError):
        h2_gamma_spec(z_grid=(-1.0, 2.0))


def test_scenario_rejects_non_finite_thresholds_and_constants():
    # before, z = nan and K = nan ran to 'pass' verdicts on NaN certificates
    with pytest.raises(DomainError):
        h2_gamma_spec(hypothesis=Hypothesis.DOMINATED_UPPER, z_grid=(1.0, math.nan))
    for k in (math.nan, math.inf, 0.0, -1.5):
        with pytest.raises(DomainError):
            h2_gamma_spec(k_upper=k)


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
    # the same with a case-5 X of alpha = 1e-12, buildable on the xi-panel route
    ((1e-12, 0.0, 1.0), (0.0, 300.0, 1.0), Hypothesis.DOMINATES_LOWER),
], ids=["lower", "upper", "lower-alpha-1e-12"])
def test_pearson_margin_with_a_tiny_leading_term_is_not_certified(x_coeffs, ref, hypothesis):
    spec = ScenarioSpec(x_model=build_law(PearsonCoefficients(*x_coeffs)), reference=PearsonCoefficients(*ref),
                        hypothesis=hypothesis, z_grid=(1.0, 2.0), n_samples=10**4, seed=1)
    with pytest.raises(UncertifiedHypothesisError):
        run_scenario(spec)


def test_chaos_margin_with_a_tiny_leading_coefficient_is_not_certified():
    # X = H1 + 1e-20 H3: G = (1 + 3c(n^2 - 1))(1 + c(n^2 - 1)), c = 1e-20, so G - 1
    # grows like 4c n^2 and has no upper bound; the exact polynomials keep c
    spec = ScenarioSpec(x_model=HermiteSeries((0.0, 1.0, 0.0, 1e-20)), reference=PearsonCoefficients(0.0, 0.0, 1.0),
                        hypothesis=Hypothesis.DOMINATED_UPPER, z_grid=(1.0, 2.0), n_samples=10**4, seed=1)
    with pytest.raises(UncertifiedHypothesisError):
        run_scenario(spec)


@pytest.mark.parametrize("series, coeffs", [
    (HermiteSeries((0.0, 0.1)), PearsonCoefficients(-0.25, 0.0, 0.0625)),  # P[X > 1/2] = P[N > 5]
    (H2, PearsonCoefficients(-0.25, 0.5, 2.0)),  # support (-2, 4): P[H2 > 4] = P[N^2 > 5]
    (HermiteSeries((0.0, 1.0, 0.3, 0.125)), PearsonCoefficients(0.0, -0.3, 0.05)),  # mirrored Gamma, b = 1/6
], ids=["0.1H1-beta", "H2-beta", "H1+0.3H2+0.125H3-mirrored-gamma"])
def test_dominated_upper_is_refused_with_mass_past_the_upper_end(series, coeffs):
    # past b_upper the upper kernel is 0 while E[G | X = x] = g_X(x) > 0, so G <= g_upper(X) fails there
    b = build_law(coeffs).support_b
    assert chaos.law_of_polynomial(series).tail(b) > 0.0
    spec = ScenarioSpec(x_model=series, reference=coeffs, hypothesis=Hypothesis.DOMINATED_UPPER,
                        z_grid=(b / 4.0, b / 2.0), n_samples=10**4, seed=1)
    with pytest.raises(UncertifiedHypothesisError, match="G <= g_upper"):
        run_scenario(spec)


def test_a_certified_x_with_mass_past_b_gets_no_fail_verdict():
    # P[X > b] = 0.288 past b = 1/6: the implicit bound divides by b^2/F(z) and reads about -17, valid and empty
    spec = ScenarioSpec(x_model=HermiteSeries((0.0, 1.0, 0.3, 0.125)), reference=PearsonCoefficients(0.0, -0.3, 0.05),
                        hypothesis=Hypothesis.DOMINATES_LOWER, z_grid=(0.05, 0.1), n_samples=10**4, seed=1)
    rep = run_scenario(spec)
    assert "fail" not in rep.verdicts
    assert all(lo <= t for lo, t in zip(rep.lower_cert, rep.meta["exact_tail_x"]))


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


_GATED = {  # spec overrides past a regime threshold -> repr of (lower_cert, upper_cert, verdicts), (k, z_min lower, upper)
    "sandwich-distinct-upper": (
        dict(reference_upper=PearsonCoefficients(0.0, 2.0, 3.0), z_grid=(2.0, 18.0, 20.0), seed=99, k_upper=1.5),
        "((-0.047277208760145906, 1.1394551578475868e-05, 4.06907161338831e-06), "
        "(0.16782973933480755, 3.945568627213108e-05, 1.4193043348590703e-05), ('pass', 'pass', 'pass'))",
        (1.5, 14.142135623730951, 17.32050807568877)),
    "dominates-lower": (  # c = 20: past 10 sqrt(2) the explicit bound is the larger, below it the implicit is reported
        dict(hypothesis=Hypothesis.DOMINATES_LOWER, z_grid=(1.0, 5.0, 15.0, 20.0), seed=7, c_lower=20.0),
        "((-0.22430526259697225, 0.006038454354339825, 5.7058507112049416e-05, 4.1356078569253026e-06), "
        "(nan, nan, nan, nan), ('pass', 'pass', 'pass', 'pass'))",
        (None, 14.142135623730951, None)),
    "dominated-upper-small-k": (  # K = 1e-3 misses everywhere: inconclusive below 10 sqrt(2), fail past it
        dict(hypothesis=Hypothesis.DOMINATED_UPPER, z_grid=(2.0, 5.0, 16.0), seed=7, k_upper=1e-3),
        "((-inf, -inf, -inf), (8.326451666355042e-05, 1.4305878435429641e-05, 3.737981840170153e-08), "
        "('inconclusive', 'inconclusive', 'fail'))",
        (0.001, None, 14.142135623730951)),
}


@pytest.mark.parametrize("name", list(_GATED))
def test_gated_certificates_and_verdicts_are_pinned(name):
    # the record reaches a regime threshold once; these pin a distinct upper reference, each
    # one-sided hypothesis, and a row that misses both below and past its threshold
    overrides, pinned, (k, z_lower, z_upper) = _GATED[name]
    rep = run_scenario(h2_gamma_spec(**overrides))
    assert repr((rep.lower_cert, rep.upper_cert, rep.verdicts)) == pinned
    assert list(rep.meta)[2:6] == ["k_upper", "c_lower", "z_min_lower", "z_min_upper"]
    assert (rep.meta["k_upper"], rep.meta["z_min_lower"], rep.meta["z_min_upper"]) == (k, z_lower, z_upper)


@pytest.mark.parametrize("upper, calls", [(None, 1), (PearsonCoefficients(0.0, 2.0, 3.0), 2)],
                         ids=["one-reference", "distinct-upper"])
def test_sandwich_computes_each_reference_margin_once(monkeypatch, upper, calls):
    # a Sandwich reads the min and the max of one margin_extrema call per distinct reference
    seen = []
    extrema = chaos.margin_extrema
    monkeypatch.setattr(chaos, "margin_extrema", lambda *args: seen.append(args[2]) or extrema(*args))
    rep = run_scenario(h2_gamma_spec(reference_upper=upper, z_grid=(2.0, 3.0), n_samples=10**4))
    assert len(seen) == calls
    assert seen[0] == PearsonCoefficients(0.0, 2.0, 2.0) and seen[-1] == (upper or seen[0])
    assert rep.meta["certification"]["lower_margin"] == 0.0
    assert rep.meta["certification"]["upper_margin"] == (-1.0 if upper else 0.0)


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
    assert pearson.stein_kernel(law, x) - pearson.stein_kernel(build_law(spec.reference), x) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# determinism


def test_report_byte_identical():
    a = run_scenario(h2_gamma_spec())
    b = run_scenario(h2_gamma_spec())
    assert a.to_csv().encode() == b.to_csv().encode()
    assert a.to_json().encode() == b.to_json().encode()


def test_report_identical_under_parallel_execution():
    # four callers' threads running scenario 7 at once each get the report of one run on its own
    spec = h2_gamma_spec()
    serial = run_scenario(spec)
    start = threading.Barrier(4)

    def run(_):
        start.wait(timeout=30)
        return run_scenario(spec)

    with ThreadPoolExecutor(max_workers=4) as ex:
        reports = list(ex.map(run, range(4), timeout=120))
    assert all(r.to_csv().encode() == serial.to_csv().encode()
               and r.to_json().encode() == serial.to_json().encode() for r in reports)


def _default_vs_serial_spec(name):
    if name == "chaos":
        return h2_gamma_spec()
    if name == "one_block":
        return h2_gamma_spec(n_samples=rng.BLOCK_SIZE - 1)
    law = build_law(CANONICAL_COEFFS[name])
    zs = (0.05, 0.1, 0.2, 0.4) if name == "beta" else (0.5, 1.0, 2.0)
    # the inverse-gamma type (alpha = 1/2) has no third moment, so no upper constant
    hypothesis = Hypothesis.DOMINATES_LOWER if name == "inverse_gamma_type" else Hypothesis.SANDWICH
    return ScenarioSpec(x_model=law, reference=law.coeffs, hypothesis=hypothesis, z_grid=zs,
                        n_samples=3 * rng.BLOCK_SIZE + 5, seed=11)


@pytest.mark.parametrize("name", ["chaos", *CANONICAL_COEFFS, "one_block"])
def test_default_report_is_the_serial_report(name):
    # counting is serial; the benchmark's replay passes n_workers=2, which is accepted and changes no byte
    spec = _default_vs_serial_spec(name)
    default, replay = run_scenario(spec), run_scenario(spec, n_workers=2)
    assert default.to_csv().encode() == replay.to_csv().encode()
    assert default.to_json().encode() == replay.to_json().encode()


@pytest.mark.parametrize("name", ["chaos", *CANONICAL_COEFFS, "one_block"])
def test_run_scenario_starts_no_thread(monkeypatch, name):
    # every block is counted on the calling thread, for a chaos X (scenario 7 at n = 10^5) and each Pearson X
    spec = _default_vs_serial_spec(name)
    expected = run_scenario(spec).to_json()

    def refuse(thread):
        raise AssertionError(f"run_scenario started a thread: {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    pearson._inverse_table.cache_clear()  # the Pearson tables are built again, on this thread
    assert run_scenario(spec).to_json() == expected


def _chaos_stream(series, seed, n):
    """X over rng's uniforms: X(n) by Horner on the law's monomial coefficients at the Normal's inverse of u."""
    ns = pearson.quantile_grid(build_law(PearsonCoefficients(0.0, 0.0, 1.0)), rng.uniform_stream(seed, n))
    return npoly.polyval(ns, chaos.law_of_polynomial(series).poly)


def test_the_report_reads_the_keyed_counts_within_the_band_of_the_stream():
    # the report's empirical tail is the keyed count over n, within two DKW half-widths of the empirical
    # tail of the stream itself, every draw mapped through X
    spec = h2_gamma_spec()
    rep = run_scenario(spec)
    counts = _keyed_bins(verify._model(spec.x_model), spec.seed, spec.n_samples, spec.z_grid)
    assert list(rep.empirical) == [c / spec.n_samples for c in counts]
    tails, eps = empirical_tail(_chaos_stream(spec.x_model, spec.seed, spec.n_samples), spec.z_grid)
    assert np.all(np.abs(np.asarray(rep.empirical) - tails) <= 2.0 * eps)


@pytest.mark.parametrize("x_model, zs", [
    (HermiteSeries((0.0, 1.0, 0.0, 0.1)), (-1.0, 0.0, 0.5, 2.0, 4.0)),
    (build_law(PearsonCoefficients(-0.25, 0.0, 0.0625)), (0.05, 0.1, 0.2, 0.4)),
], ids=["chaos", "pearson"])
@pytest.mark.parametrize("n", [2 * rng.BLOCK_SIZE + rng.CHUNK + 17, 2 * rng.BLOCK_SIZE, rng.CHUNK + 17],
                         ids=["mid_block", "block_end", "one_short_block"])
def test_counts_are_the_keyed_bins_walked_interval_by_interval(x_model, zs, n):
    # n ends mid-block and mid-chunk, on a block's end, or inside the first block: the weight matrix sums
    # the same keyed bins as a walk over each threshold's intervals, and the counts lie within two DKW
    # half-widths of the whole stream's, every draw mapped through X
    seed = 77
    model = verify._model(x_model)
    counts = verify._tail_counts(model, seed, n, np.asarray(zs))
    assert counts.tolist() == _keyed_bins(model, seed, n, zs)
    if isinstance(x_model, HermiteSeries):
        xs = _chaos_stream(x_model, seed, n)
    else:
        xs = pearson.quantile_grid(x_model, rng.uniform_stream(seed, n))
    stream = np.array([int((xs > z).sum()) for z in zs])
    assert np.all(np.abs(counts - stream) <= 2.0 * dkw_half_width(n, 0.99) * n)


# ---------------------------------------------------------------------------
# both X models counted in uniform space, on the intervals of u that X's law gives


def _inside(model, u, zs):
    """Per threshold, whether each draw lies strictly inside one of its intervals, tested one by one."""
    lo, hi, owner = model.intervals(np.asarray(zs, dtype=float))
    return np.array([np.logical_or.reduce([(lo[j] < u) & (u < hi[j]) for j in np.flatnonzero(owner == i)]
                                          + [np.zeros(u.shape, dtype=bool)]) for i in range(len(zs))])


def _brute_force(model, seed, n, zs):
    """Per threshold, the draws of the whole stream strictly inside one of its intervals."""
    return np.count_nonzero(_inside(model, rng.uniform_stream(seed, n), zs), axis=1).tolist()


def _keyed_bins(model, seed, n, zs):
    """Per threshold, its intervals walked one by one over the keyed bins of every threshold's ends: an interval
    (lo, hi) that holds a double adds #(u < hi) - #(u < lo+), lo+ the next double; no draw lies below U_MIN,
    and every draw below a point past U_MAX."""
    lo, hi, owner = model.intervals(np.asarray(zs, dtype=float))
    pieces = [(a, b, i) for a, b, i in zip(lo.tolist(), hi.tolist(), owner.tolist()) if b > a]
    ends = sorted({v for a, b, _ in pieces for v in (math.nextafter(a, 2.0), b) if rng.U_MIN < v <= rng.U_MAX})
    below = dict(zip(ends, rng.counts_below(seed, n, np.array(ends, dtype=float)).tolist()))
    count = lambda v: 0 if v <= rng.U_MIN else n if v > rng.U_MAX else below[v]
    return [sum(count(b) - count(math.nextafter(a, 2.0)) for a, b, j in pieces if j == i) for i in range(len(zs))]


def _counts_and_oracle(law, seed, n, zs):
    counts = verify._tail_counts(verify._model(law), seed, n, np.asarray(zs, dtype=float))
    xs = pearson.quantile_grid(law, rng.uniform_stream(seed, n))
    return counts.tolist(), [int(np.count_nonzero(xs > z)) for z in zs]


def _logit(p):
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log1p(-p)


@pytest.fixture
def mapped_points(monkeypatch):
    """Every uniform that goes through ``pearson.quantile_grid``, in call order."""
    seen, quantile_grid = [], pearson.quantile_grid

    def counted(law, p):
        seen.append(np.array(p, dtype=float).reshape(-1))
        return quantile_grid(law, p)

    monkeypatch.setattr(pearson, "quantile_grid", counted)
    return seen


@st.composite
def _thresholds(draw, law):
    """Quantiles of the law at random tails, and raw points around its bulk."""
    ps = draw(st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=1, max_size=4))
    raw = draw(st.lists(st.floats(-4.0, 4.0), max_size=2))
    return pearson.quantile_grid(law, np.array(ps)).tolist() + raw


@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_pearson_counts_walk_the_keyed_bins_and_the_intervals_match_the_map(data):
    # all five cases and the mirrored Gamma and inverse-gamma type; n mostly ends mid-block; thresholds
    # on a drawn X and the doubles beside it.  The table's map of a draw decides as the interval does
    # except within its 1e-10 logit contract of the end, P[X > z]
    law = build_law(WIDER_COEFFS[data.draw(st.sampled_from(sorted(WIDER_COEFFS)), label="law")])
    n = data.draw(st.integers(1, 3 * rng.BLOCK_SIZE), label="n")
    seed = data.draw(st.integers(0, 2**63), label="seed")
    u = rng.uniform_stream(seed, n)
    x = float(pearson.quantile_grid(law, u[data.draw(st.integers(0, n - 1), label="j")]))
    zs = data.draw(_thresholds(law), label="zs") + [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    model = verify._model(law)
    counts = verify._tail_counts(model, seed, n, np.asarray(zs))
    assert counts.tolist() == _keyed_bins(model, seed, n, zs)
    xs = pearson.quantile_grid(law, u)
    for z, p, inside in zip(zs, pearson.tail(law, np.asarray(zs)), _inside(model, u, zs)):
        differ = (xs > z) != inside
        assert np.all(np.abs(_logit(u[differ]) - _logit(p)) <= 2e-10), (z, u[differ])


@st.composite
def _series(draw):
    """Centered Hermite series of degrees 1-6, coefficients of either sign over 1e-3..1."""
    degree = draw(st.integers(1, 6), label="degree")
    mags = draw(st.lists(st.floats(1e-3, 1.0), min_size=degree, max_size=degree), label="mags")
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=degree, max_size=degree), label="signs")
    zeros = draw(st.lists(st.booleans(), min_size=degree - 1, max_size=degree - 1), label="zeros")
    coeffs = [m * s for m, s in zip(mags, signs)]
    coeffs[:-1] = [0.0 if z else c for c, z in zip(coeffs[:-1], zeros)]  # gaps below the leading grade
    return HermiteSeries((0.0, *coeffs))


@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_chaos_counts_walk_the_keyed_bins_and_the_intervals_match_the_map(data):
    # degrees 1-6; n mostly ends mid-block; thresholds on a drawn X and the doubles beside it, on X at
    # a drawn n (a preimage of that level), and on each critical value and the doubles beside it.  The
    # map X(n) of a draw decides as the intervals do wherever it reads z off by more than Horner's rounding
    series = data.draw(_series(), label="series")
    n = data.draw(st.integers(1, 3 * rng.BLOCK_SIZE), label="n")
    seed = data.draw(st.integers(0, 2**63), label="seed")
    xs = _chaos_stream(series, seed, n)
    x = float(xs[data.draw(st.integers(0, n - 1), label="j")])
    law = chaos.law_of_polynomial(series)
    at_n = float(npoly.polyval(data.draw(st.floats(-8.0, 8.0), label="n0"), law.poly))
    zs = [at_n] + [v for c in [x, *law.crit_values] for v in (math.nextafter(c, -math.inf), c,
                                                              math.nextafter(c, math.inf))]
    model = verify._model(series)
    counts = verify._tail_counts(model, seed, n, np.asarray(zs))
    assert counts.tolist() == _keyed_bins(model, seed, n, zs)
    u = rng.uniform_stream(seed, n)
    ns = pearson.quantile_grid(build_law(PearsonCoefficients(0.0, 0.0, 1.0)), u)
    rounding = 2.0**-40 * npoly.polyval(np.abs(ns), np.abs(law.poly))
    for z, inside in zip(zs, _inside(model, u, zs)):
        differ = (xs > z) != inside
        assert np.all(np.abs(xs[differ] - z) <= rounding[differ]), (z, xs[differ])


def _mp_crossing_tails(poly, z):
    """P[N > n] at each real simple root n of X(n) = z, X's monomial coefficients read exactly, in 50 digits."""
    with mp.workdps(50):
        coeffs = [mp.mpf(c) for c in poly]
        coeffs[0] -= mp.mpf(z)
        roots = mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
        real = sorted(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -30)
        return [float(mp.ncdf(-r)) for r in real]


@pytest.mark.parametrize("coeffs, zs", [
    ((0.0, 1.0), (-3.0, 0.5, 7.0)),
    ((0.0, 0.0, 1.0), (-0.5, 1.0, 2.0, 3.0, 5.0, 8.0)),
    ((0.0, 0.0, 0.0, 0.0, 1.0), (-5.0, 0.0, 3.5, 40.0)),
    ((0.0, 1.0, 0.3, 0.125), (-2.0, 0.2, 1.0, 6.0)),
    ((0.0, -0.4, 0.0, 0.2, 0.05, -0.01), (-3.0, -0.1, 0.7, 2.0)),
    ((0.0, 0.2, -0.5, 0.0, 0.1, 0.0, 0.02), (-1.0, 0.3, 1.5, 30.0)),
], ids=["H1", "H2", "H4", "degree3", "degree5", "degree6"])
def test_chaos_ends_are_the_normal_tails_at_the_crossings(coeffs, zs):
    # every end inside (0, 1) is P[N > n] at a root of X(n) = z, to 1e-12 relative of 50-digit mpmath roots
    series = HermiteSeries(coeffs)
    law = chaos.law_of_polynomial(series)
    lo, hi, owner = verify._model(series).intervals(np.asarray(zs))
    for i, z in enumerate(zs):
        mine = owner == i
        got = sorted(v for v in np.concatenate([lo[mine], hi[mine]]).tolist() if 0.0 < v < 1.0)
        want = sorted(_mp_crossing_tails(law.poly, z))
        assert len(got) == len(want), (z, got, want)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_a_threshold_at_a_drawn_value_counts_the_keyed_draws_below_its_tail():
    # z equal to one drawn X: a Pearson X exceeds z on (0, P[X > z]), and that draw sits at its end; the
    # count is the keyed count below P[X > z], its one end
    law, seed, n = build_law(PearsonCoefficients(0.0, 2.0, 2.0)), 5, rng.BLOCK_SIZE + 3
    u = rng.uniform_stream(seed, n)
    k = int(np.argmin(np.abs(u - 0.3)))
    z = float(pearson.quantile_grid(law, u[k]))
    p = pearson.tail(law, z)
    assert abs(_logit(u[k]) - _logit(p)) <= 1e-10  # the table's contract
    counts = verify._tail_counts(verify._model(law), seed, n, np.array([z]))
    assert counts.tolist() == rng.counts_below(seed, n, np.array([p])).tolist() == _keyed_bins(
        verify._model(law), seed, n, [z])


def test_thresholds_outside_the_support_and_past_the_smallest_uniform():
    # Beta on (-0.5, 0.5): P[X > z] = 0 right of it and 1 left of it; Gamma at z = 100: P[X > z] < 2^-53
    beta, gamma = build_law(PearsonCoefficients(-0.25, 0.0, 0.0625)), build_law(PearsonCoefficients(0.0, 2.0, 2.0))
    assert pearson.tail(beta, [0.6, -0.7]).tolist() == [0.0, 1.0] and 0.0 < pearson.tail(gamma, 100.0) < 2.0**-53
    n = 2 * rng.BLOCK_SIZE + 9
    counts, oracle = _counts_and_oracle(beta, 11, n, [-0.7, 0.6])
    assert counts == oracle == [n, 0]
    counts, oracle = _counts_and_oracle(gamma, 11, n, [100.0])
    assert counts == oracle == [0]


def _beta(r, s, alpha):
    """The Beta law with shapes (r, s) and quadratic coefficient alpha, on (a, b) = (-r, s) / (r + s) for
    alpha = -1 / (r + s)."""
    a, b = -r / (r + s), s / (r + s)
    return build_law(PearsonCoefficients(alpha, -alpha * (a + b), alpha * a * b))


def test_a_threshold_at_the_left_end_counts_every_draw():
    # Beta with r = 0.02, s = 1 on (-0.0196, 0.980): the median is about 1e-15 above a, where the table's
    # x cannot tell the draws apart; P[X > a] = 1 counts them all (the table's map counted 109,646)
    law = _beta(0.02, 1.0, -1.0 / 1.02)
    assert law.r == pytest.approx(0.02) and law.s == pytest.approx(1.0)
    n = 3 * rng.BLOCK_SIZE + 5
    zs = np.array([law.support_a, *np.sort(pearson.quantile_grid(law, np.array([0.1, 1e-3])))])
    counts = verify._tail_counts(verify._model(law), 3, n, zs)
    assert counts[0] == n
    assert counts.tolist() == _keyed_bins(verify._model(law), 3, n, zs)


def test_a_threshold_one_ulp_below_a_pole_at_b_reads_its_tail():
    # the Beta whose mass sits within a few ulps of b = 1/51: one ulp below b, the table's map read
    # 0.441964 against P[X > z] = 0.447513, 3.4 DKW half-widths off; the interval reads within one
    law = build_law(PearsonCoefficients(-0.9803921568627451, -0.9419454056132256, 0.018846446690940887))
    z, n = math.nextafter(law.support_b, 0.0), 10**6
    assert z == 0.019607843137254898
    count = verify._tail_counts(verify._model(law), 7, n, np.array([z]))[0]
    assert abs(count / n - pearson.tail(law, z)) <= dkw_half_width(n, 0.99)


@pytest.mark.parametrize("coeffs, zs, crossings", [
    # H4: a local maximum at 0 with value 3, where z = 3 leaves |n| > sqrt(6); minima -6 at +-sqrt(3), where
    # z = -6 leaves the whole line but two points
    ((0.0, 0.0, 0.0, 0.0, 1.0), (3.0, -6.0), [(-math.sqrt(6.0), math.sqrt(6.0)), ()]),
    # H2 at its minimum, where {X > z} is the whole line but n = 0, and just above it
    ((0.0, 0.0, 1.0), (-1.0, -1.0 + 1e-12), [(), (-math.sqrt(1e-12 - 1.0 + 1.0), math.sqrt(1e-12 - 1.0 + 1.0))]),
], ids=["H4", "H2"])
def test_a_threshold_at_a_critical_value_counts_by_its_intervals(mapped_points, coeffs, zs, crossings):
    # a critical value at z ends no interval where X - z keeps its sign, and no draw is mapped: X > z on
    # (0, P[N > n_2]) and (P[N > n_1], 1) past the crossings n_1 < n_2, or on (0, 1) without them
    series, n, seed = HermiteSeries(coeffs), 2 * rng.BLOCK_SIZE + 3, 9
    lo, hi, owner = verify._model(series).intervals(np.asarray(zs))
    for i, ns in enumerate(crossings):
        with mp.workdps(30):
            want = [0.0, *sorted(float(mp.ncdf(-c)) for c in ns), 1.0]
        got = [v for pair in sorted(zip(lo[owner == i].tolist(), hi[owner == i].tolist())) for v in pair]
        assert got == pytest.approx(want, rel=1e-12)
    counts = verify._tail_counts(verify._model(series), seed, n, np.asarray(zs))
    assert not mapped_points
    assert counts.tolist() == _keyed_bins(verify._model(series), seed, n, zs)


@pytest.mark.parametrize("x_model, ends", [(H2, 10), (build_law(PearsonCoefficients(0.0, 2.0, 2.0)), 5)],
                         ids=["scenario7", "gamma"])
def test_a_sandwich_draws_no_uniform_and_its_counts_in_one_keyed_draw(monkeypatch, mapped_points, x_model, ends):
    # a cost guard by count: a 10^6-draw sandwich on z = 1, 2, 3, 5, 8 draws no block of uniforms, maps no
    # draw, and draws its counts once, on the ends inside (0, 1): two per threshold for H2, one for a Pearson X
    blocks, draws, counts_below = [], [], rng.counts_below
    monkeypatch.setattr(rng, "uniform_block", lambda *args: blocks.append(args))
    monkeypatch.setattr(rng, "counts_below", lambda seed, n, points: draws.append(len(points))
                        or counts_below(seed, n, points))
    coeffs = PearsonCoefficients(0.0, 2.0, 2.0)
    spec = ScenarioSpec(x_model=x_model, reference=coeffs, hypothesis=Hypothesis.SANDWICH,
                        z_grid=(1.0, 2.0, 3.0, 5.0, 8.0), n_samples=10**6, seed=20240527)
    assert run_scenario(spec).all_passed
    assert blocks == [] and draws == [ends]
    assert not mapped_points


@pytest.mark.parametrize("x_model, zs", [
    (build_law(PearsonCoefficients(0.0, 2.0, 2.0)), (-0.5, 1.0, 4.0, 8.0)),
    (H2, (-0.5, 0.5, 2.0, 5.0)),
], ids=["gamma", "H2"])
def test_the_keyed_counts_have_the_law_of_the_stream_s_counts(x_model, zs):
    # 200 seeds at n = 10^4, derandomized: per threshold, the keyed counts and the brute-force counts of the
    # stream on the same intervals each have the mean and the variance of Binomial(n, p), p the sum over the
    # threshold's intervals of P[u < hi] - P[u <= lo], within 5 standard errors of each estimate; and the two
    # samples' means agree within 5 standard errors of their difference
    seeds, n = range(200), 10**4
    m = len(seeds)
    model = verify._model(x_model)
    lo, hi, owner = model.intervals(np.asarray(zs))
    p = np.array([float(sum(stream_below(b) - stream_below(math.nextafter(a, 2.0))
                            for a, b, j in zip(lo.tolist(), hi.tolist(), owner.tolist()) if j == i and b > a))
                  for i in range(len(zs))])
    assert np.all((p > 1e-3) & (p < 1.0 - 1e-3))
    keyed = np.array([verify._tail_counts(model, s, n, np.asarray(zs)) for s in seeds])
    stream = np.array([_brute_force(model, s, n, zs) for s in seeds])
    var = n * p * (1.0 - p)
    kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / var  # the binomial's excess kurtosis
    for counts in (keyed, stream):
        assert np.all(np.abs(counts.mean(axis=0) - n * p) <= 5.0 * np.sqrt(var / m))
        assert np.all(np.abs(counts.var(axis=0, ddof=1) - var) <= 5.0 * var * np.sqrt(2.0 / (m - 1) + kurtosis / m))
    assert np.all(np.abs(keyed.mean(axis=0) - stream.mean(axis=0)) <= 5.0 * np.sqrt(2.0 * var / m))


def test_dkw_consistency_over_repetitions():
    # confidence 0.9, 100 seeded repetitions, n = 1e5 each: the empirical
    # tail must stay inside the band in at least 90 repetitions
    law = build_law(PearsonCoefficients(0.0, 2.0, 2.0))
    zs = np.linspace(-0.9, 6.0, 25)
    exact = pearson.tail(law, zs)
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


ROUND_TRIP_REFERENCES = [CANONICAL_COEFFS[k] for k in ("normal", "gamma", "inverse_gamma_type", "no_real_roots")]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_scenario_json_round_trip_over_models_and_optional_fields(data):
    # either X model, every hypothesis, and each optional field present or absent: the reader gives back the spec,
    # and writing it again gives back the text
    if data.draw(st.booleans(), label="chaos X"):
        tail = data.draw(st.lists(st.floats(-3.0, 3.0).filter(bool), min_size=1, max_size=5), label="coeffs")
        x_model = HermiteSeries((0.0, *tail))
    else:
        x_model = build_law(data.draw(st.sampled_from(list(WIDER_COEFFS.values())), label="x triple"))
    optional = {
        "confidence": data.draw(st.none() | st.floats(1e-6, 1.0 - 1e-6), label="confidence"),
        "reference_upper": data.draw(st.none() | st.sampled_from(ROUND_TRIP_REFERENCES), label="reference_upper"),
        "c_lower": data.draw(st.none() | st.floats(2.0, 1e3, exclude_min=True), label="c"),
        "k_upper": data.draw(st.none() | st.floats(1e-3, 1e3), label="K"),
    }
    spec_kwargs = dict(
        x_model=x_model,
        reference=data.draw(st.sampled_from(ROUND_TRIP_REFERENCES), label="reference"),
        hypothesis=data.draw(st.sampled_from(list(Hypothesis)), label="hypothesis"),
        z_grid=tuple(sorted(data.draw(st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=5, unique=True)))),
        n_samples=data.draw(st.integers(10**4, 10**9), label="n_samples"),
        seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
        **{k: v for k, v in optional.items() if v is not None},
    )
    upper = optional["reference_upper"] or spec_kwargs["reference"]
    if spec_kwargs["hypothesis"] is not Hypothesis.DOMINATES_LOWER and optional["k_upper"] is None:
        assume(upper.alpha < 0.5)  # no default K without a third moment
    spec = ScenarioSpec(**spec_kwargs)
    text = scenario_to_json(spec)
    back = scenario_from_json(text)
    assert back == spec and scenario_to_json(back) == text


def test_scenario_integers_take_integer_values_and_refuse_the_rest():
    spec = h2_gamma_spec(n_samples=20000.0, seed=3.0)
    assert (spec.n_samples, spec.seed) == (20000, 3) and type(spec.n_samples) is type(spec.seed) is int
    assert run_scenario(spec).to_json() == run_scenario(h2_gamma_spec(n_samples=20000, seed=3)).to_json()
    for field, bad in [("n_samples", 20000.7), ("seed", 3.9), ("n_samples", "20000"), ("seed", math.nan)]:
        with pytest.raises(DomainError, match="must be an integer"):
            h2_gamma_spec(**{field: bad})
    # a scenario file asks for exactly what runs, or is refused
    obj = json.loads(scenario_to_json(h2_gamma_spec()))
    assert scenario_from_json(json.dumps({**obj, "n_samples": 20000.0, "seed": 3.0})) == spec
    for field, bad in [("n_samples", 20000.7), ("seed", 3.9)]:
        with pytest.raises(DomainError, match="must be an integer"):
            scenario_from_json(json.dumps({**obj, field: bad}))


@pytest.mark.parametrize("bad", ["abc", "1.5", None, True, np.True_, [1.0], 1j])
def test_a_threshold_that_is_not_a_real_number_raises_domain_error_naming_it(bad):
    # before, float() raised a bare ValueError or TypeError, or read True as 1
    law = build_law(PearsonCoefficients(0.0, 2.0, 2.0))
    named = re.escape(repr(bad))
    for call in (lambda: stein.solve_indicator(law, bad), lambda: stein.certification_grid(law, bad, 100),
                 lambda: h2_gamma_spec(z_grid=(bad, 2.0))):
        with pytest.raises(DomainError, match=f"must be a real number, got {named}"):
            call()
    if isinstance(bad, (str, bool, list, type(None))):  # a scenario file can hold it
        obj = json.loads(scenario_to_json(h2_gamma_spec()))
        with pytest.raises(DomainError, match=f"must be a real number, got {named}"):
            scenario_from_json(json.dumps({**obj, "z_grid": [bad, 2.0]}))
    for grid in (None, 3.0):  # before, a bare TypeError: the grid is not iterable
        with pytest.raises(DomainError, match="malformed z_grid"):
            h2_gamma_spec(z_grid=grid)


@pytest.mark.parametrize("bad", ["abc", None, True, [1.0, "2"], [1.0, [2.0]], 1j])
def test_an_evaluation_point_that_is_not_real_raises_domain_error_naming_it(bad):
    # before, None read as NaN ("evaluation point is NaN") and a string raised a bare ValueError
    law = build_law(PearsonCoefficients(0.0, 2.0, 2.0))
    with pytest.raises(DomainError, match=f"must be a real number or an array of them, got {re.escape(repr(bad))}"):
        pearson.tail(law, bad)
    assert pearson.tail(law, [1, 2]).tolist() == pearson.tail(law, np.array([1.0, 2.0])).tolist()


def test_scenario_json_missing_field():
    with pytest.raises(DomainError):
        scenario_from_json(json.dumps({"x_model": {"type": "hermite", "coeffs": [0, 1]}}))
