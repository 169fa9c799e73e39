import json
import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from steintail import pearson
from steintail.errors import (
    DomainError,
    InvalidCoefficientsError,
    InvalidProbabilityError,
    MomentDoesNotExistError,
)
from steintail.pearson import (
    CaseTag,
    PearsonCoefficients,
    build_law,
    classify,
    density,
    law_from_json,
    law_to_json,
    log_density,
    moment,
    moment_exists,
    q_function,
    quantile,
    sample,
    stein_kernel,
    support,
    tail,
)

from conftest import CANONICAL_COEFFS, WIDER_COEFFS


# ---------------------------------------------------------------------------
# classification


def test_classify_cases():
    assert classify(PearsonCoefficients(0.0, 0.0, 1.0)) is CaseTag.NORMAL
    assert classify(PearsonCoefficients(0.0, 2.0, 2.0)) is CaseTag.GAMMA
    assert classify(PearsonCoefficients(-0.25, 0.0, 0.0625)) is CaseTag.BETA
    assert classify(PearsonCoefficients(0.5, 1.0, 0.5)) is CaseTag.INVERSE_GAMMA_TYPE
    assert classify(PearsonCoefficients(0.25, 0.0, 0.25)) is CaseTag.NO_REAL_ROOTS


def test_classify_snap_tolerance():
    assert classify(PearsonCoefficients(1e-15, 1e-16, 1.0)) is CaseTag.NORMAL
    assert classify(PearsonCoefficients(1e-15, 2.0, 2.0)) is CaseTag.GAMMA
    # discriminant within snap tolerance of zero -> one real root
    assert classify(PearsonCoefficients(0.5, 1.0, 0.5 * (1 + 1e-14))) is CaseTag.INVERSE_GAMMA_TYPE


def test_classify_rejections():
    with pytest.raises(InvalidCoefficientsError):
        classify(PearsonCoefficients(0.0, 0.0, -1.0))
    with pytest.raises(InvalidCoefficientsError):
        classify(PearsonCoefficients(1.5, 0.0, 1.0))
    # alpha > 0 with two real roots
    with pytest.raises(InvalidCoefficientsError):
        classify(PearsonCoefficients(0.25, 2.0, 1.0))


def test_classify_names_pearson_type_vi():
    # roots -189.47 and -0.53: g > 0 on (-0.53, inf), which contains 0, so
    # the law exists; it is Pearson type VI, which is not supported
    c = PearsonCoefficients(0.01, 1.9, 1.0)
    disc = math.sqrt(c.beta**2 - 4.0 * c.alpha * c.gamma)
    roots = sorted(((-c.beta - disc) / (2 * c.alpha), (-c.beta + disc) / (2 * c.alpha)))
    assert roots[0] < roots[1] < 0.0 and c.kernel(0.0) > 0.0
    with pytest.raises(InvalidCoefficientsError, match="Pearson type VI") as info:
        classify(c)
    assert "outside the support" not in str(info.value)


def test_non_finite_coefficients_are_rejected():
    # before, (0, nan, 1) built a Gamma law with NaN parameters and (0, inf, 1) one with NaN ln C
    for c in [(0.0, math.nan, 1.0), (0.0, math.inf, 1.0), (math.nan, 0.0, 1.0), (-math.inf, 0.0, 1.0),
              (0.0, 0.0, math.inf)]:
        with pytest.raises(InvalidCoefficientsError, match="finite"):
            build_law(PearsonCoefficients(*c))


# ---------------------------------------------------------------------------
# parameter recovery


def test_build_gamma_parameters(gamma_law):
    assert gamma_law.case is CaseTag.GAMMA
    assert gamma_law.r == pytest.approx(0.5)
    assert gamma_law.s == pytest.approx(2.0)
    assert gamma_law.mu == pytest.approx(1.0)
    assert gamma_law.support_a == pytest.approx(-1.0)
    assert gamma_law.support_b == math.inf


def test_build_beta_parameters(beta_law):
    assert beta_law.case is CaseTag.BETA
    assert beta_law.r == pytest.approx(2.0)
    assert beta_law.s == pytest.approx(2.0)
    assert beta_law.support_a == pytest.approx(-0.5)
    assert beta_law.support_b == pytest.approx(0.5)


def test_build_beta_with_roots_of_far_apart_size():
    # the textbook quadratic formula cancels the small root of g to -0.0 here
    import mpmath as mp
    law = build_law(PearsonCoefficients(-1e-6, 1e6, 1.0))
    mp.mp.dps = 50
    al, be = mp.mpf(-1e-6), mp.mpf(1e6)
    disc = mp.sqrt(be * be + 4 * mp.mpf(1e-6))
    for end, exact in ((law.support_a, (-be + disc) / (2 * al)), (law.support_b, (-be - disc) / (2 * al))):
        assert abs(end - float(exact)) <= 4 * math.ulp(float(exact))
    for x in (0.0, 1.0, 1e6):
        assert abs(tail(law, x) + pearson.cdf(law, x) - 1.0) <= 1e-15


def test_beta_recovery_failures_raise_typed_errors():
    # beta^2 - 4 alpha gamma overflows: before, the roots were +-inf and the support the whole line
    for f in (pearson.support, build_law):
        with pytest.raises(InvalidCoefficientsError, match="discriminant"):
            f(PearsonCoefficients(-1e308, 0.0, 1.0))
    # the small root -1e-320 gives the shape r = 1e-330, which underflows to 0
    with pytest.raises(InvalidCoefficientsError, match="not recoverable"):
        build_law(PearsonCoefficients(-1.0, 1e10, 1e-310))


def test_gamma_recovery_failures_raise_typed_errors():
    # r = gamma / beta^2 underflows to 0: before, the law built with ln C = -inf and a tail of 0
    for coeffs in ((0.0, 1e200, 1.0), (-1.0, 1e200, 1.0), (0.0, -1e200, 1.0)):
        with pytest.raises(InvalidCoefficientsError, match="not recoverable"):
            build_law(PearsonCoefficients(*coeffs))
    # r = 1e-308 still holds its digits: the law builds, its mean r s = mu intact
    law = build_law(PearsonCoefficients(0.0, 1e154, 1.0))
    assert (law.r, law.s, law.mu) == (1e-308, 1e154, 1e-154) and math.isfinite(law.log_norm_const)


def test_build_inverse_gamma_parameters(invgamma_law):
    assert invgamma_law.r == pytest.approx(4.0)
    assert invgamma_law.s == pytest.approx(2.0)
    assert invgamma_law.mu == pytest.approx(1.0)
    # closed-form constant s^(r-1)/Gamma(r-1) = 8/2 = 4
    assert math.exp(invgamma_law.log_norm_const) == pytest.approx(4.0, rel=1e-12)


def test_build_case5_parameters(case5_law):
    assert case5_law.case is CaseTag.NO_REAL_ROOTS
    assert case5_law.r == pytest.approx(3.0)
    assert case5_law.mu == pytest.approx(0.0)
    assert case5_law.delta == pytest.approx(1.0)
    assert case5_law.s == pytest.approx(0.0)
    assert case5_law.variance == pytest.approx(1.0 / 3.0)
    # shape-parameter variance cross-check [4(r-1)^2 + s^2] / [4(r-1)^2 (2r-3)]
    r, s = case5_law.r, case5_law.s
    v = (4 * (r - 1) ** 2 + s**2) / (4 * (r - 1) ** 2 * (2 * r - 3))
    assert case5_law.variance == pytest.approx(v, rel=1e-12)


def test_build_normal_log_norm_const(normal_law):
    assert normal_law.log_norm_const == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-14)


def test_case5_closed_form_constant_when_delta_one(case5_law):
    # quadrature normalization must agree with the closed complex-gamma form
    from scipy.special import gammaln, loggamma

    r, s = case5_law.r, case5_law.s
    log_c = 2.0 * loggamma(complex(r, -s / 2.0)).real - 0.5 * math.log(math.pi) \
        - gammaln(r - 0.5) - gammaln(r)
    assert case5_law.log_norm_const == pytest.approx(log_c, abs=1e-10)
    assert math.exp(case5_law.log_norm_const) == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-10)


def test_case5_general_delta_scaling():
    # scaling z -> delta*z maps the delta=1 law onto the general form
    base = build_law(PearsonCoefficients(0.2, 0.1, 0.3))
    d = base.delta
    assert d != pytest.approx(1.0)
    lc_closed_delta1 = _case5_closed_log_c(base.r, base.s)
    expected = lc_closed_delta1 + (2.0 * base.r - 1.0) * math.log(d)
    assert base.log_norm_const == pytest.approx(expected, abs=1e-9)


def _case5_closed_log_c(r, s):
    from scipy.special import gammaln, loggamma

    return 2.0 * loggamma(complex(r, -s / 2.0)).real - 0.5 * math.log(math.pi) \
        - gammaln(r - 0.5) - gammaln(r)


# ---------------------------------------------------------------------------
# density


def test_density_values(normal_law, gamma_law, beta_law):
    assert log_density(normal_law, 0.0) == pytest.approx(-0.9189385332046727, abs=1e-12)
    # chi-square-1 oracle: rho(0) = e^{-1/2}/sqrt(2 pi)
    assert log_density(gamma_law, 0.0) == pytest.approx(math.log(math.exp(-0.5) / math.sqrt(2 * math.pi)), abs=1e-12)
    assert log_density(beta_law, 0.5) == -math.inf
    assert log_density(beta_law, -0.5) == -math.inf
    assert density(beta_law, 0.75) == 0.0
    # continuity toward the endpoint: density -> 0
    assert density(beta_law, 0.4999999) < 1e-5


def test_log_density_at_an_end_with_exponent_one_is_the_finite_limit():
    # the exponential (0, 1, 1) on (-1, inf) and the uniform Beta (-0.5, 0, 0.5) on (-1, 1)
    assert log_density(build_law(PearsonCoefficients(0.0, 1.0, 1.0)), -1.0) == 0.0
    assert log_density(build_law(PearsonCoefficients(0.0, -1.0, 1.0)), 1.0) == 0.0  # mirrored
    uniform = build_law(PearsonCoefficients(-0.5, 0.0, 0.5))
    np.testing.assert_allclose(log_density(uniform, [-1.0, 1.0]), -math.log(2.0), rtol=1e-15)
    # an exponent 1 at one end only: rho = 3/64 (x + 3)^2 on (-3, 1) vanishes at -3 and is 3/4 at 1
    skewed = build_law(PearsonCoefficients(-0.25, -0.5, 0.75))
    assert (skewed.r, skewed.s) == (3.0, 1.0)
    np.testing.assert_allclose(log_density(skewed, [-3.0, 1.0]), [-math.inf, math.log(0.75)], rtol=1e-14)


def test_density_integrates_to_one(canonical_laws):
    for name, law in canonical_laws.items():
        a, b = law.support_a, law.support_b
        val, _ = quad(lambda x: density(law, x), a, b, limit=200,
                      points=[0.0] if math.isfinite(a) and math.isfinite(b) else None)
        assert val == pytest.approx(1.0, abs=1e-8), name


def test_log_density_derivative_identity(canonical_laws):
    # finite-difference rho'/rho against -((2a+1)x + b)/g on interior grids
    for name, law in canonical_laws.items():
        lo, hi = quantile(law, 0.95), quantile(law, 0.05)
        grid = np.linspace(lo, hi, 200)
        c = law.coeffs
        for x in grid:
            h = 1e-3 * min(x - law.support_a, law.support_b - x, 1.0 + abs(x))
            fd = (log_density(law, x - 2 * h) - 8 * log_density(law, x - h)
                  + 8 * log_density(law, x + h) - log_density(law, x + 2 * h)) / (12 * h)
            target = -((2 * c.alpha + 1) * x + c.beta) / stein_kernel(law, x)
            assert abs(fd - target) < 1e-6, (name, x)


# ---------------------------------------------------------------------------
# tails


def test_tail_values(normal_law, gamma_law, beta_law):
    assert tail(normal_law, 0.0) == pytest.approx(0.5, abs=1e-14)
    # P[chi2_1 > 1] oracle
    assert tail(gamma_law, 0.0) == pytest.approx(0.3173105078629141, abs=1e-12)
    assert tail(beta_law, 0.0) == pytest.approx(0.5, abs=1e-13)


def test_tail_against_quadrature(canonical_laws):
    for name, law in canonical_laws.items():
        for p in [0.9, 0.5, 0.2, 0.05]:
            z = quantile(law, p)
            val, _ = quad(lambda x: density(law, x), z, law.support_b,
                          limit=200, epsabs=1e-12, epsrel=1e-11)
            assert tail(law, z) == pytest.approx(val, abs=1e-9), name


def test_tail_monotone_and_limits(canonical_laws):
    for name, law in canonical_laws.items():
        zs = np.linspace(quantile(law, 1 - 1e-6), quantile(law, 1e-6), 100)
        ts = tail(law, zs)
        assert np.all(np.diff(ts) < 0.0), name
        assert np.all((ts >= 0.0) & (ts <= 1.0)), name
        assert ts[0] > 1 - 1e-5 and ts[-1] < 1e-5, name


def test_tail_grid_matches_scalar(case5_law, gamma_law):
    zs = np.array([-3.0, -1.0, 0.0, 0.7, 2.0, 11.0, 50.0])
    for law in (case5_law, gamma_law):
        tg = tail(law, zs)
        ts = np.array([tail(law, z) for z in zs])
        np.testing.assert_allclose(tg, ts, rtol=1e-9, atol=1e-13)


def test_case5_tail_grid_memory(case5_law):
    # the quadrature panels are integrated in chunks, so the peak does not grow with the grid
    zs = np.linspace(-30.0, 60.0, 64_000)
    tracemalloc.start()
    try:
        tail(case5_law, zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize("z", [-30.0, -1.0, 0.3, 2.0, 50.0, 1e3, 1e6])
def test_case5_scalar_tail_is_the_grid_value_whatever_the_other_points(case5_law, z):
    # every point reads the one xi-panel table on its own
    t = tail(case5_law, z)
    for w in (-5.0, 0.0, 50.0 + 1e-9, 7e5, 1e8):
        assert tail(case5_law, [z, w])[0] == t
        assert pearson.cdf(case5_law, [w, z])[1] == pearson.cdf(case5_law, z)


def test_case5_one_point_grid_deep_in_the_tail(case5_law):
    one = tail(case5_law, [1e6])
    assert np.isfinite(one[0]) and one[0] == tail(case5_law, [1e6, 1e7])[0]
    assert one[0] == pytest.approx(1.6976527263e-31, rel=1e-9)  # (8 / (15 pi)) z^-5 (1 + O(z^-2))
    assert tail(case5_law, 1e300) == 0.0 and pearson.cdf(case5_law, 1e300) == 1.0


def test_case5_cdf_is_complement_free_in_the_left_tail():
    # the law of -Z is (alpha, -beta, gamma), so the cdf far left is a tail far right,
    # far below the 1e-16 a complement 1 - tail could resolve
    for c in (PearsonCoefficients(0.25, 0.0, 0.25), PearsonCoefficients(0.5, 1.0, 1.0)):
        law, refl = build_law(c), build_law(PearsonCoefficients(c.alpha, -c.beta, c.gamma))
        for z in (50.0, 1e3, 1e6):
            low = pearson.cdf(law, -z)
            assert 0.0 < low < 1e-5
            assert low == pytest.approx(tail(refl, z), rel=1e-13), (c, z)


def test_mirrored_gamma_reflection():
    law_pos = build_law(PearsonCoefficients(0.0, 2.0, 2.0))
    law_neg = build_law(PearsonCoefficients(0.0, -2.0, 2.0))
    assert law_neg.mirrored
    assert law_neg.support_a == -math.inf
    assert law_neg.support_b == pytest.approx(1.0)
    for z in [-5.0, -1.0, 0.0, 0.5, 0.99]:
        assert tail(law_neg, z) == pytest.approx(1.0 - tail(law_pos, -z), abs=1e-12)
        assert log_density(law_neg, z) == pytest.approx(log_density(law_pos, -z), abs=1e-12)


def test_mirrored_inverse_gamma_reflection():
    law_pos = build_law(PearsonCoefficients(0.5, 1.0, 0.5))
    law_neg = build_law(PearsonCoefficients(0.5, -1.0, 0.5))
    assert law_neg.mirrored
    for z in [-20.0, -2.0, 0.0, 0.9]:
        assert tail(law_neg, z) == pytest.approx(1.0 - tail(law_pos, -z), abs=1e-12)


def test_log_tail_deep(gamma_law, normal_law):
    # matches log of the linear-space tail while it is representable
    for z in [5.0, 40.0, 200.0]:
        assert pearson.log_tail(gamma_law, z) == pytest.approx(math.log(tail(gamma_law, z)), rel=1e-10)
    for z in [3.0, 30.0]:
        assert pearson.log_tail(normal_law, z) == pytest.approx(math.log(tail(normal_law, z)), rel=1e-10)
    # far beyond underflow the asymptotic branch takes over smoothly
    assert pearson.log_tail(normal_law, 60.0) == pytest.approx(-1804.08, rel=1e-3)
    lt = pearson.log_tail(gamma_law, 1500.0)
    assert lt == pytest.approx((gamma_law.r - 1) * math.log(750.5) - 750.5 - math.lgamma(0.5), rel=1e-6)
    # on an array the continued fraction runs on the subnormal points only, each as on its own
    zs = np.array([40.0, 1500.0, 5.0, 1420.0, math.inf, 3000.0])
    expected = [pearson.log_tail(gamma_law, z) for z in zs]
    assert pearson.log_tail(gamma_law, zs).tolist() == expected and tail(gamma_law, 1500.0) < 2.3e-308


@pytest.mark.parametrize("coeffs", WIDER_COEFFS.values(), ids=WIDER_COEFFS.keys())
def test_log_tail_is_minus_inf_at_and_beyond_the_right_end(coeffs):
    # the tail is exactly 0 there, so its log is -inf, not an underflow error
    law = build_law(coeffs)
    ends = [z for z in (law.support_b, 1000.0, math.inf) if z >= law.support_b]
    for z in ends:
        assert tail(law, z) == 0.0, z
        assert pearson.log_tail(law, z) == -math.inf, z


# ---------------------------------------------------------------------------
# NaN points: no tail, density or kernel; a typed error, never a NaN or a clipped value

NAN_POINT_LAWS = {**CANONICAL_COEFFS, "inverse_gamma_type_0.25": PearsonCoefficients(0.25, 1.0, 1.0),
                  "mirrored_gamma": PearsonCoefficients(0.0, -2.0, 2.0)}


@pytest.mark.parametrize("coeffs", NAN_POINT_LAWS.values(), ids=NAN_POINT_LAWS.keys())
def test_nan_points_raise_a_typed_error(coeffs):
    law = build_law(coeffs)
    scalar = [pearson.tail, pearson.cdf, pearson.log_tail, pearson.partial_moments, log_density, density,
              pearson.flux, stein_kernel, q_function]
    grid = [tail, pearson.cdf, log_density, density, pearson.flux, stein_kernel, q_function]
    for fn in scalar:
        with pytest.raises(DomainError, match="NaN"):
            fn(law, math.nan)
    for fn in grid:
        with pytest.raises(DomainError, match="NaN"):
            fn(law, np.array([0.0, math.nan]))
    # the infinite points keep their limits
    np.testing.assert_array_equal(tail(law, [-math.inf, math.inf]), [1.0, 0.0])


# ---------------------------------------------------------------------------
# one calling convention: (law, x), x a number or an array of any shape

EVALUATORS = [pearson.tail, pearson.cdf, pearson.log_tail, density, log_density, pearson.flux,
              stein_kernel, q_function]
ONE_RULE_LAWS = {**CANONICAL_COEFFS, "mirrored_gamma": WIDER_COEFFS["mirrored_gamma"],
                 "mirrored_inverse_gamma": WIDER_COEFFS["mirrored_inverse_gamma"]}


@pytest.mark.parametrize("coeffs", ONE_RULE_LAWS.values(), ids=ONE_RULE_LAWS.keys())
@pytest.mark.parametrize("fn", EVALUATORS, ids=[fn.__name__ for fn in EVALUATORS])
def test_every_evaluator_takes_a_number_or_an_array_of_any_shape(fn, coeffs):
    law = build_law(coeffs)
    sd = math.sqrt(law.variance)
    xs = np.array([[-1.5, -0.7, 0.0], [0.3, 1.2, 2.5]]) * sd  # inside and, for the bounded laws, outside
    out = fn(law, xs)
    assert isinstance(out, np.ndarray) and out.shape == xs.shape
    for x, v in zip(xs.flat, out.flat):
        for number in (float(x), np.float64(x), np.array(x)):
            got = fn(law, number)
            assert type(got) is float
            assert np.float64(got).tobytes() == fn(law, np.array([x])).tobytes() == v.tobytes(), x
    for empty in (np.empty(0), np.empty((0, 3)), []):
        got = fn(law, empty)
        assert isinstance(got, np.ndarray) and got.shape == np.shape(empty)
    bad = xs.copy()
    bad[1, 1] = math.nan
    for nan_points in (bad, math.nan):
        with pytest.raises(DomainError, match="NaN"):
            fn(law, nan_points)


# ---------------------------------------------------------------------------
# kernel and q


def test_kernel_and_q_examples():
    normal = build_law(PearsonCoefficients(0.0, 0.0, 1.0))
    assert (stein_kernel(normal, 2.0), q_function(normal, 2.0)) == (pytest.approx(1.0), pytest.approx(5.0))
    beta = build_law(CANONICAL_COEFFS["beta"])
    g, q = stein_kernel(beta, 0.75), q_function(beta, 0.75)
    assert g == 0.0
    assert q == pytest.approx(0.5625)
    gam = build_law(CANONICAL_COEFFS["gamma"])
    assert (stein_kernel(gam, 0.0), q_function(gam, 0.0)) == (pytest.approx(2.0), pytest.approx(2.0))


def test_kernel_at_infinity_is_zero_without_warnings(canonical_laws):
    xs = np.array([-math.inf, -3.0, -0.2, 0.0, 0.1, 0.7, 5.0, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, law in canonical_laws.items():
            c = law.coeffs
            g = stein_kernel(law, xs)
            assert g[0] == g[-1] == 0.0, name
            inside = (xs > law.support_a) & (xs < law.support_b)
            assert np.array_equal(g[inside], c.kernel(xs[inside])), name
            assert pearson.flux(law, -math.inf) == pearson.flux(law, math.inf) == 0.0, name


def test_q_minimum_at_zero(canonical_laws):
    for name, law in canonical_laws.items():
        c = law.coeffs
        xs = np.linspace(max(law.support_a, -50), min(law.support_b, 50), 501)
        xs = xs[(xs > law.support_a) & (xs < law.support_b)]
        qs = q_function(law, xs)
        assert np.all(qs >= c.gamma - 1e-15), name
        assert q_function(law, 0.0) == pytest.approx(c.gamma)


def test_kernel_integral_definition(canonical_laws):
    # g(x) = (1/rho) int_x^b y rho(y) dy, quadrature oracle
    for name, law in canonical_laws.items():
        for p in [0.8, 0.5, 0.25]:
            x = quantile(law, p)
            num, _ = quad(lambda y: y * density(law, y), x, law.support_b, limit=200)
            target = num / density(law, x)
            assert stein_kernel(law, x) == pytest.approx(target, abs=1e-8), name


# ---------------------------------------------------------------------------
# quantiles and sampling


def test_quantile_round_trip(canonical_laws):
    for name, law in canonical_laws.items():
        assert quantile(law, 0.5) == pytest.approx(quantile(law, 0.5))
        for p in [0.9, 0.5, 0.1, 0.01]:
            z = quantile(law, p)
            assert abs(tail(law, z) - p) <= 1e-10, name
        if law.support_b == math.inf or 1.234 < law.support_b:
            p = tail(law, 1.234)
            if 0 < p < 1:
                assert quantile(law, p) == pytest.approx(1.234, abs=1e-8), name


def test_quantile_examples(normal_law, gamma_law):
    assert quantile(normal_law, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert quantile(gamma_law, 0.3173105078629141) == pytest.approx(0.0, abs=1e-6)


def test_quantile_monotone(gamma_law):
    ps = np.linspace(0.01, 0.99, 25)
    zs = [quantile(gamma_law, p) for p in ps]
    assert all(b < a for a, b in zip(zs, zs[1:]))


@pytest.mark.parametrize("name", ["normal", "gamma"])
def test_quantile_grid_refuses_p_outside_the_uniforms_range(canonical_laws, name):
    law = canonical_laws[name]
    for p in (math.nan, 0.0, 1.0, 2.0, -1.0, 2.0**-54):
        for ps in (p, np.array([0.5, p])):
            with pytest.raises(InvalidProbabilityError):
                pearson.quantile_grid(law, ps)
    ends = pearson.quantile_grid(law, [2.0**-53, 1.0 - 2.0**-53])
    assert np.all(np.isfinite(ends)) and ends[0] > ends[1]


def test_quantile_domain(normal_law):
    with pytest.raises(InvalidProbabilityError):
        quantile(normal_law, 0.0)
    with pytest.raises(InvalidProbabilityError):
        quantile(normal_law, 1.2)


def test_quantile_batch_matches_scalar(canonical_laws):
    ps = np.array([0.9, 0.6, 0.5, 0.25, 0.08, 0.012])
    laws = dict(canonical_laws)
    laws["gamma_mirrored"] = build_law(PearsonCoefficients(0.0, -2.0, 2.0))
    laws["invgamma_mirrored"] = build_law(PearsonCoefficients(0.5, -1.0, 0.5))
    for name, law in laws.items():
        zs = pearson.quantile_grid(law, ps)
        for p, z in zip(ps, zs):
            assert z == pytest.approx(quantile(law, p), abs=5e-8), name


def test_sample_determinism(canonical_laws):
    for law in canonical_laws.values():
        a = sample(law, 1000, seed=7)
        b = sample(law, 1000, seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample(law, 1000, seed=8)
        assert not np.array_equal(a, c)


def test_sample_moments(normal_law, gamma_law):
    xs = sample(normal_law, 10**6, seed=7)
    assert abs(xs.mean()) <= 4e-3
    ys = sample(gamma_law, 10**6, seed=11)
    assert ys.var() == pytest.approx(2.0, rel=0.02)
    assert ys.min() > -1.0


def test_sample_case5_distribution(case5_law):
    xs = sample(case5_law, 200_000, seed=3)
    for z in [-1.0, 0.0, 0.5, 2.0]:
        emp = float(np.mean(xs > z))
        assert emp == pytest.approx(tail(case5_law, z), abs=5e-3)


# ---------------------------------------------------------------------------
# moments


def test_moment_examples():
    assert moment(PearsonCoefficients(0.0, 0.0, 1.0), 4) == pytest.approx(3.0, rel=1e-14)
    assert moment(CANONICAL_COEFFS["gamma"], 3) == pytest.approx(8.0, rel=1e-14)
    assert moment(CANONICAL_COEFFS["no_real_roots"], 4) == pytest.approx(1.0, rel=1e-14)


def test_moment_basics(canonical_laws):
    for name, law in canonical_laws.items():
        c = law.coeffs
        assert moment(c, 0) == 1.0
        assert moment(c, 1) == 0.0
        assert moment(c, 2) == pytest.approx(c.gamma / (1 - c.alpha), rel=1e-14), name


def test_moment_against_quadrature(canonical_laws):
    for name, law in canonical_laws.items():
        c = law.coeffs
        for m in range(2, 7):
            if not moment_exists(c, m):
                continue
            val, _ = quad(lambda x: x**m * density(law, x), law.support_a, law.support_b, limit=400)
            assert moment(c, m) == pytest.approx(val, rel=1e-6), (name, m)


def test_moment_existence_sweep():
    for alpha in [-0.25, 0.0, 0.2, 0.25, 0.49]:
        limit = math.inf if alpha <= 0 else 1 + 1 / alpha
        coeffs = PearsonCoefficients(alpha, 0.3 if alpha > 0 else 0.0, 1.0) \
            if alpha >= 0 else PearsonCoefficients(alpha, 0.0, 1.0)
        for m in range(0, 9):
            assert moment_exists(coeffs, m) == (m < limit), (alpha, m)


def test_integer_arguments_take_integer_values_and_refuse_the_rest(gamma_law):
    c = CANONICAL_COEFFS["gamma"]
    assert moment(c, 2.0) == moment(c, 2) and moment(c, np.int64(3)) == moment(c, 3)
    np.testing.assert_array_equal(sample(gamma_law, 5.0, 1.0), sample(gamma_law, 5, 1))
    for bad in (2.5, math.nan, math.inf, "2"):
        with pytest.raises(DomainError, match="must be an integer"):
            moment(c, bad)
        with pytest.raises(DomainError, match="must be an integer"):
            sample(gamma_law, bad, 1)
        with pytest.raises(DomainError, match="must be an integer"):
            sample(gamma_law, 5, bad)


def test_moment_nonexistent_raises():
    c = PearsonCoefficients(0.25, 0.0, 0.25)  # moments exist iff m < 5
    with pytest.raises(MomentDoesNotExistError):
        moment(c, 5)
    assert moment(c, 4) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# flux identity, mass and mean, with scipy's QUADPACK as the oracle


@dataclass(frozen=True)
class PearsonDiagnostics:
    max_flux_residual: float      # max |(g rho)' + x rho| on the interior grid
    normalization_error: float    # |integral of rho - 1|
    mean_error: float             # |integral of x rho|
    boundary_flux_low: float      # g rho near the lower support end
    boundary_flux_high: float     # g rho near the upper support end
    tolerance: float
    passed: bool


def check_pearson_identities(law, n_grid: int = 201, tol: float = 1e-6) -> PearsonDiagnostics:
    """Numerical check of the flux identity (g rho)' = -x rho and unit mass/zero mean."""
    lo = quantile(law, 0.95)
    hi = quantile(law, 0.05)
    grid = np.linspace(min(lo, hi), max(lo, hi), n_grid)
    h = 1e-3 * np.minimum.reduce([
        grid - law.support_a,        # +inf when the end is infinite
        law.support_b - grid,
        1.0 + np.abs(grid),
    ])
    # five-point central difference of the flux g*rho
    d = (pearson.flux(law, grid - 2 * h) - 8 * pearson.flux(law, grid - h)
         + 8 * pearson.flux(law, grid + h) - pearson.flux(law, grid + 2 * h)) / (12 * h)
    flux_residual = float(np.max(np.abs(d + grid * np.exp(log_density(law, grid)))))

    a, b = law.support_a, law.support_b
    opts = {"epsabs": 1e-12, "epsrel": 1e-10, "limit": 200}
    if math.isfinite(a) and math.isfinite(b):
        opts["points"] = [a + 0.1 * (b - a), a + 0.9 * (b - a)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)  # a QUADPACK run that did not converge fails the check
        norm_err = abs(quad(lambda x: density(law, x), a, b, **opts)[0] - 1.0)
        mean_err = abs(quad(lambda x: x * density(law, x), a, b, **opts)[0])

    flux_lo = float(pearson.flux(law, np.asarray(quantile(law, 1.0 - 1e-8))))
    flux_hi = float(pearson.flux(law, np.asarray(quantile(law, 1e-8))))
    worst = max(flux_residual, norm_err, mean_err, flux_lo, flux_hi)
    return PearsonDiagnostics(flux_residual, norm_err, mean_err, flux_lo, flux_hi, tol, worst < tol)


def test_check_pearson_identities(canonical_laws):
    for name in ["normal", "gamma", "beta", "no_real_roots"]:
        report = check_pearson_identities(canonical_laws[name])
        assert report.passed, (name, report)


def test_check_identities_heavy_tail_flux():
    # alpha = 1/2 puts the 1e-8 quantile near z ~ 500 where the boundary flux
    # g*rho ~ (1+1/alpha) z p ~ 8e-6 sits above the uniform 1e-6 threshold;
    # the diagnostic must report it faithfully and the flux must still vanish
    # as the quantile goes deeper.
    law = build_law(CANONICAL_COEFFS["inverse_gamma_type"])
    report = check_pearson_identities(law)
    assert report.max_flux_residual < 1e-6
    assert report.normalization_error < 1e-8 and report.mean_error < 1e-8
    assert 1e-6 < report.boundary_flux_high < 1e-4
    assert not report.passed
    deeper = pearson.flux(law, np.asarray(quantile(law, 1e-11)))
    assert deeper < report.boundary_flux_high / 50


def test_identities_tight_for_normal(normal_law):
    report = check_pearson_identities(normal_law)
    assert report.max_flux_residual < 1e-8
    assert report.normalization_error < 1e-10


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(canonical_laws):
    for name, law in canonical_laws.items():
        text = law_to_json(law)
        obj = json.loads(text)
        assert set(obj) == {"alpha", "beta", "gamma", "case", "r", "s", "mu", "delta", "a", "b", "logC"}
        law2 = law_from_json(text)
        assert law2 == law, name
        for z in [-0.3, 0.0, 0.2]:
            assert tail(law2, z) == tail(law, z)


def test_support_helper():
    assert support(PearsonCoefficients(0.0, 0.0, 1.0)) == (-math.inf, math.inf)
    assert support(CANONICAL_COEFFS["gamma"]) == (pytest.approx(-1.0), math.inf)
    a, b = support(CANONICAL_COEFFS["beta"])
    assert (a, b) == (pytest.approx(-0.5), pytest.approx(0.5))


# ---------------------------------------------------------------------------
# reflection: the law of -Z has coefficients (alpha, -beta, gamma)


def _random_triples(seed=20240527):
    """Admissible triples per case, twice with each sign of beta (beta = 0 for Normal)."""
    rnd = np.random.default_rng(seed)
    out = []
    for sign in (1.0, -1.0) * 2:
        out.append(("normal", PearsonCoefficients(0.0, 0.0, rnd.uniform(0.2, 3.0))))
        out.append(("gamma", PearsonCoefficients(0.0, sign * rnd.uniform(0.3, 3.0), rnd.uniform(0.2, 3.0))))
        out.append(("beta", PearsonCoefficients(-rnd.uniform(0.05, 2.0), sign * rnd.uniform(0.05, 1.0),
                                                rnd.uniform(0.1, 2.0))))
        al, be = rnd.uniform(0.05, 0.9), sign * rnd.uniform(0.3, 2.0)
        out.append(("inverse_gamma_type", PearsonCoefficients(al, be, be * be / (4.0 * al))))
        al, be = rnd.uniform(0.05, 0.45), sign * rnd.uniform(0.05, 1.0)
        out.append(("no_real_roots", PearsonCoefficients(al, be, be * be / (4.0 * al) + rnd.uniform(0.1, 2.0))))
    return out


def _probe_points(law):
    sd = math.sqrt(law.variance)
    lo = law.support_a if math.isfinite(law.support_a) else -6.0 * sd
    hi = law.support_b if math.isfinite(law.support_b) else 6.0 * sd
    pts = np.concatenate([np.linspace(lo - 0.5 * sd, hi + 0.5 * sd, 41), [0.0, 0.3 * sd]])
    ends = [e for e in (law.support_a, law.support_b) if math.isfinite(e)]
    return np.concatenate([pts, ends])


def test_reflection_swaps_tail_and_cdf():
    for name, c in _random_triples():
        law = build_law(c)
        refl = build_law(PearsonCoefficients(c.alpha, -c.beta, c.gamma))
        zs = _probe_points(law)
        got, want = pearson.cdf(law, zs), tail(refl, -zs)
        if law.case is CaseTag.NO_REAL_ROOTS:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14, err_msg=str(c))
            assert pearson.cdf(law, 0.3) == pytest.approx(tail(refl, -0.3), abs=1e-14)
        else:
            np.testing.assert_array_equal(got, want, err_msg=str(c))
            assert pearson.cdf(law, zs[3]) == tail(refl, -zs[3]), c


def test_reflection_log_density():
    # exact where the canonical form is shared; Beta sums its two log terms in
    # the other order after reflection, and case 5 normalizes the reflected
    # integrand by its own quadrature
    for name, c in _random_triples():
        law = build_law(c)
        refl = build_law(PearsonCoefficients(c.alpha, -c.beta, c.gamma))
        zs = _probe_points(law)
        got, want = log_density(law, zs), log_density(refl, -zs)
        if law.case in (CaseTag.BETA, CaseTag.NO_REAL_ROOTS):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14, err_msg=str(c))
        else:
            np.testing.assert_array_equal(got, want, err_msg=str(c))


def test_case5_inverse_finite_at_extreme_probabilities():
    # the inverse table must serve every uniform the stream can produce,
    # including both ends of its clip range
    u = np.concatenate([[2.0**-53, 1.0 - 1e-9, 1.0 - 2.0**-53], np.logspace(-12, -8, 2000)])
    for c in (PearsonCoefficients(0.25, 0.0, 0.25), PearsonCoefficients(0.25, 0.3, 0.25)):
        law = build_law(c)
        zs = pearson.quantile_grid(law, u)
        assert np.all(np.isfinite(zs)), (c, u[~np.isfinite(zs)])
        assert np.all(np.isfinite(sample(law, 5000, seed=3)))
