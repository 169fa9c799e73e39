import math

import numpy as np
import pytest
from scipy.integrate import quad

from steintail import chaos, pearson
from steintail.bounds import (
    Direction,
    asymptotic_tail_constant,
    implicit_lower_bound,
    normalized_tail,
    pearson_lower,
    pearson_lower_constant,
    pearson_upper_constant,
    phi_envelope,
    statement_table,
    variance_bound_check,
)
from steintail.errors import (
    DomainError,
    InvalidConstantError,
    ThirdMomentError,
    UnsupportedCaseError,
)
from steintail.pearson import PearsonCoefficients, build_law, quantile, stein_kernel, tail
from steintail.verify import TailReport


def log_normalized_flux(law, z: float) -> float:
    """ln(z^(-p) e^(z/scale) g(z) rho(z)), whose limit is ln K: the numeric-limit oracle for K."""
    lg = math.log(stein_kernel(law, z))
    lr = float(pearson.log_density(law, z))
    _, p, scale = pearson.tail_asymptotics(law)
    return lg + lr + z / scale - p * math.log(z)


# ---------------------------------------------------------------------------
# envelopes


def test_envelope_normal_z2(normal_law):
    lower, upper = phi_envelope(normal_law, 2.0)
    phi2 = math.exp(-2.0) / math.sqrt(2 * math.pi)
    assert lower == pytest.approx(0.4 * phi2, rel=1e-12)
    assert upper == pytest.approx(phi2 / 2.0, rel=1e-12)
    t = tail(normal_law, 2.0)
    assert lower <= t <= upper
    assert lower == pytest.approx(0.021596, abs=1e-6)
    assert upper == pytest.approx(0.026995, abs=1e-6)
    assert t == pytest.approx(0.022750, abs=1e-6)


def test_envelope_gamma_chi2_oracle(gamma_law):
    lower, upper = phi_envelope(gamma_law, 4.0)
    t = math.erfc(math.sqrt(5.0 / 2.0))  # P[chi2_1 > 5] = P[|N| > sqrt 5]
    assert lower <= t <= upper


def test_envelope_beta_exact_oracle(beta_law):
    lower, upper = phi_envelope(beta_law, 0.4)
    # exact polynomial tail of the centered Beta(2,2): 6 int_{0.4}^{0.5} (x+.5)(.5-x) dx
    t, _ = quad(lambda x: 6.0 * (x + 0.5) * (0.5 - x), 0.4, 0.5)
    assert lower <= t <= upper


def test_envelope_brackets_all_cases(canonical_laws):
    for name, law in canonical_laws.items():
        zs = np.linspace(quantile(law, 0.95), quantile(law, 1e-4), 50)
        tails = pearson.tail(law, zs)
        for z, t in zip(zs, tails):
            lo, hi = phi_envelope(law, float(z))
            target = t if z >= 0 else 1.0 - t
            assert lo - 1e-14 <= target <= hi + 1e-14, (name, z)


def test_envelope_negative_side(normal_law, case5_law):
    for law in (normal_law, case5_law):
        for z in [-0.5, -2.0]:
            lo, hi = phi_envelope(law, z)
            assert lo <= 1.0 - tail(law, z) <= hi


def test_envelope_at_zero(normal_law):
    lo, hi = phi_envelope(normal_law, 0.0)
    assert hi == 1.0
    assert lo <= tail(normal_law, 0.0) <= hi


def test_envelope_outside_support(beta_law):
    with pytest.raises(DomainError):
        phi_envelope(beta_law, 0.75)


def test_sandwich_normal_width(normal_law):
    lo, hi = phi_envelope(normal_law, 4.0)
    t = tail(normal_law, 4.0)
    assert lo <= t <= hi
    assert (hi - lo) / t < 0.07  # envelope ratio (z^2/(z^2+1))^-1 at z=4


# ---------------------------------------------------------------------------
# implicit and explicit lower bounds


def test_implicit_lower_bound_zero_tail(normal_law, gamma_law):
    for law, z in [(normal_law, 1.0), (gamma_law, 2.0)]:
        assert implicit_lower_bound(law, z, (0.0, 0.0, 0.0)) == pytest.approx(tail(law, z), rel=1e-12)


def test_implicit_lower_bound_self(normal_law):
    # X = Z: the bound must stay below the true tail
    z = 1.0
    val = implicit_lower_bound(normal_law, z, pearson.partial_moments(normal_law, z))
    t1 = tail(normal_law, 1.0)
    assert val <= t1
    # independent quadrature of the correction term
    corr, _ = quad(lambda x: (2 * x - z) * tail(normal_law, x), z, 40.0,
                   limit=200, epsabs=1e-13, epsrel=1e-11)
    assert val == pytest.approx(t1 - corr / 2.0, abs=1e-9)


def test_implicit_lower_bound_chaos_vs_reference(gamma_law):
    # X with the same law as the reference: bound <= exact tail at z = 2
    val = implicit_lower_bound(gamma_law, 2.0, pearson.partial_moments(gamma_law, 2.0))
    assert val <= tail(gamma_law, 2.0)


# X with mass past the reference's right end b: G >= g(X) is certified, and |f'| past b is F(z)/x^2, not 1/q(z)
MASS_PAST_B = (chaos.HermiteSeries((0.0, 1.0, 0.3, 0.125)), PearsonCoefficients(0.0, -0.3, 0.05))


def test_a_certified_x_can_have_mass_past_the_right_end():
    series, coeffs = MASS_PAST_B
    law, x_law = build_law(coeffs), chaos.law_of_polynomial(series)
    assert chaos.dominance_margin(series, coeffs)[0] > 0.0
    assert law.support_b == pytest.approx(1.0 / 6.0) and x_law.tail(law.support_b) == pytest.approx(0.2875, abs=1e-4)


def test_implicit_lower_bound_stays_below_the_tail_with_mass_past_b():
    series, coeffs = MASS_PAST_B
    law, x_law = build_law(coeffs), chaos.law_of_polynomial(series)
    zs = np.array([0.05, 0.1])
    at_z = x_law.partial_moments(zs)
    bound = implicit_lower_bound(law, zs, at_z, x_law.support_b)
    assert np.all(bound <= at_z[0]), (bound, at_z[0])


def test_pearson_lower_constants():
    normal = build_law(PearsonCoefficients(0.0, 0.0, 1.0))
    _, const = pearson_lower(normal, 1.0, 4.0)
    assert const == pytest.approx(0.5, rel=1e-14)
    case5 = build_law(PearsonCoefficients(0.25, 0.0, 0.25))
    _, const = pearson_lower(case5, 1.0, 3.0)
    assert const == pytest.approx(3.0 / 11.0, rel=1e-14) and const == pearson_lower_constant(0.25, 3.0)
    # proof-form denominator is the same constant
    alpha, c = 0.25, 3.0
    assert const == pytest.approx((c - 2) * (1 - alpha) / ((c - 2) * (1 - alpha) + 2), rel=1e-14)


def test_pearson_lower_normal_z3():
    normal = build_law(PearsonCoefficients(0.0, 0.0, 1.0))
    bound, _ = pearson_lower(normal, 3.0, 4.0)
    assert bound == pytest.approx((20.0 / 38.0) * tail(normal, 3.0), rel=1e-12)


def test_pearson_lower_monotone_in_c(gamma_law):
    cs = [2.5, 3.0, 4.0, 8.0, 50.0]
    vals = [pearson_lower(gamma_law, 2.0, c)[0] for c in cs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_pearson_lower_requires_c_above_2(gamma_law):
    with pytest.raises(InvalidConstantError):
        pearson_lower(gamma_law, 1.0, 2.0)


@pytest.mark.parametrize("c", [2.0, 1.0, math.nan])
def test_the_lower_constant_owns_the_c_above_2_rule(gamma_law, c):
    # pearson_lower refuses c through pearson_lower_constant: the same error, word for word
    with pytest.raises(InvalidConstantError) as owner:
        pearson_lower_constant(gamma_law.coeffs.alpha, c)
    with pytest.raises(InvalidConstantError) as caller:
        pearson_lower(gamma_law, 1.0, c)
    assert str(caller.value) == str(owner.value) == f"explicit lower bound requires c > 2, got {c}"


def test_pearson_lower_converges_to_asymptote(gamma_law):
    # ratio within 1% once z^2 >= 100 * variance
    z = 10.0 * math.sqrt(gamma_law.variance) * 1.05
    bound, const = pearson_lower(gamma_law, z, 4.0)
    ratio = bound / (const * tail(gamma_law, z))
    assert abs(ratio - 1.0) < 0.01


def test_upper_constant_values():
    assert pearson_upper_constant(0.0) == pytest.approx(1.0)
    assert pearson_upper_constant(0.25) == pytest.approx(1.5)
    assert pearson_upper_constant(0.49) == pytest.approx(25.5, rel=1e-12)
    with pytest.raises(ThirdMomentError):
        pearson_upper_constant(0.5)


def test_upper_constant_increasing():
    alphas = np.linspace(0.0, 0.49, 50)
    vals = [pearson_upper_constant(a) for a in alphas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# the statement table


def test_statement_table_rows_masks_and_constants(gamma_law, case5_law):
    # a lower reference states the implicit bound everywhere and the explicit one past 10 sd, an upper one K Phi_u past
    # its own 10 sd, K twice the infimum unless given; each value is the bound's own function on the grid
    zs, at_z = np.array([1.0, 5.0, 15.0]), chaos.law_of_polynomial(chaos.HermiteSeries((0.0, 0.0, 1.0))).partial_moments
    rows, constants = statement_table(gamma_law, case5_law, zs, at_z(zs), math.inf, 20.0)
    assert [(r.name, r.side, r.asserted.tolist()) for r in rows] == [
        ("implicit", "lower", [True, True, True]), ("explicit", "lower", [False, False, True]),
        ("K Phi", "upper", [False, False, True])]
    assert rows[0].value.tolist() == implicit_lower_bound(gamma_law, zs, at_z(zs)).tolist()
    assert rows[1].value.tolist() == pearson_lower(gamma_law, zs, 20.0)[0].tolist()
    assert rows[2].value.tolist() == (3.0 * tail(case5_law, zs)).tolist()
    assert constants == {"k_upper": 3.0, "c_lower": 20.0, "z_min_lower": 10.0 * math.sqrt(2.0),
                         "z_min_upper": 10.0 * math.sqrt(0.25 / 0.75)}
    rows, constants = statement_table(None, case5_law, zs, at_z(zs), k=1.5)
    assert [r.side for r in rows] == ["upper"] and rows[0].value.tolist() == (1.5 * tail(case5_law, zs)).tolist()
    assert constants["k_upper"] == 1.5 and constants["z_min_lower"] is None
    assert statement_table(None, None, zs, at_z(zs)) == ([], {"k_upper": None, "c_lower": 4.0, "z_min_lower": None,
                                                             "z_min_upper": None})


# ---------------------------------------------------------------------------
# asymptotic constants


def test_asymptotic_constant_gamma(gamma_law):
    k, lf = asymptotic_tail_constant(gamma_law)
    expected = (1.0 / math.sqrt(2 * math.pi)) * 2.0 * math.exp(-0.5)
    assert k == pytest.approx(expected, rel=1e-12)
    assert k == pytest.approx(0.4839414, abs=1e-7)
    assert lf == 1.0


def test_asymptotic_constant_case4(invgamma_law):
    k, lf = asymptotic_tail_constant(invgamma_law)
    assert k == pytest.approx(2.0, rel=1e-12)  # C alpha = 4 * 1/2
    assert lf == 0.0  # (1 - 2 alpha)/(1 - alpha) at alpha = 1/2


def test_asymptotic_constant_case5(case5_law):
    k, lf = asymptotic_tail_constant(case5_law)
    assert k == pytest.approx(math.exp(case5_law.log_norm_const) * 0.25, rel=1e-10)
    assert k == pytest.approx(8.0 / (3.0 * math.pi) / 4.0, rel=1e-9)
    assert lf == pytest.approx(2.0 / 3.0)


def test_asymptotic_constant_unsupported(normal_law, beta_law):
    for law in (normal_law, beta_law):
        with pytest.raises(UnsupportedCaseError):
            asymptotic_tail_constant(law)
    mirrored = build_law(PearsonCoefficients(0.0, -2.0, 2.0))
    with pytest.raises(UnsupportedCaseError):
        asymptotic_tail_constant(mirrored)


def test_flux_limit_oracle(gamma_law, invgamma_law, case5_law):
    # brute-force numeric limit of the defining expression over two decades;
    # (0.25, 100, 10000.01) has s = 4000, so e^(s pi/2) alone is beyond the
    # doubles, and its flux settles only for z far beyond s delta = 800
    skewed = build_law(PearsonCoefficients(0.25, 100.0, 10000.01))
    for law, zs in ((gamma_law, (1e2, 1e3, 1e4)), (invgamma_law, (1e2, 1e3, 1e4)),
                    (case5_law, (1e2, 1e3, 1e4)), (skewed, (1e6, 1e7, 1e8))):
        k, _ = asymptotic_tail_constant(law)
        errs = [abs(math.exp(log_normalized_flux(law, z) - math.log(k)) - 1.0) for z in zs]
        assert errs[2] < 1e-3, law.coeffs
        assert errs[0] > errs[2], law.coeffs


def test_asymptotic_constant_beyond_the_doubles_raises():
    # K = C alpha with ln C = 4.6e4: a typed error, not OverflowError
    with pytest.raises(DomainError):
        asymptotic_tail_constant(build_law(PearsonCoefficients(1e-4, 0.0, 1.0)))


def test_tail_asymptotics_fields(gamma_law, invgamma_law, case5_law):
    assert pearson.tail_asymptotics(gamma_law)[1:] == (gamma_law.r, gamma_law.s)
    for law in (invgamma_law, case5_law):
        assert pearson.tail_asymptotics(law)[1:] == (-1.0 / law.coeffs.alpha, math.inf)


def test_normalized_tail_gamma_at_60(gamma_law):
    k, _ = asymptotic_tail_constant(gamma_law)
    val = normalized_tail(gamma_law, 60.0)
    assert abs(val / k - 1.0) < 0.05


def test_normalized_tail_case5_at_50(case5_law):
    k, lf = asymptotic_tail_constant(case5_law)
    val = normalized_tail(case5_law, 50.0)
    assert lf * k * 0.95 <= val <= k * 1.05


def test_normalized_tail_beyond_the_doubles_is_a_domain_error():
    # z^(1 + 1/alpha) P[Z > z] for alpha = 1e-4 is about exp(1.6e4) at z = 5
    with pytest.raises(DomainError):
        normalized_tail(build_law(PearsonCoefficients(1e-4, 0.0, 1.0)), 5.0)


# ---------------------------------------------------------------------------
# variance comparisons


def test_variance_bound_check_examples():
    assert variance_bound_check(PearsonCoefficients(0.0, 2.0, 2.0), 2.0, Direction.GE)
    assert variance_bound_check(PearsonCoefficients(0.0, 0.0, 1.0), 1.0, "GE")
    assert not variance_bound_check(PearsonCoefficients(0.25, 0.0, 0.25), 0.2, Direction.GE)
    assert variance_bound_check(PearsonCoefficients(0.25, 0.0, 0.25), 0.2, Direction.LE)


def test_variance_bound_check_validation():
    with pytest.raises(DomainError):
        variance_bound_check(PearsonCoefficients(0.0, 0.0, 1.0), -0.5, Direction.GE)


# ---------------------------------------------------------------------------
# report container


def test_tail_report_invariants():
    rep = TailReport(
        z_grid=(1.0, 2.0),
        phi_star=(0.3, 0.1),
        lower_cert=(0.1, 0.05),
        upper_cert=(0.5, 0.2),
        empirical=(0.29, 0.11),
        ci_half_width=0.01,
        verdicts=("pass", "pass"),
    )
    assert rep.all_passed
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "z,phi_star,lower,upper,empirical,ci,verdict"
    assert len(csv.splitlines()) == 3
    with pytest.raises(DomainError):
        TailReport((1.0, 2.0), (0.1, 0.3), (0.0, 0.0), (1.0, 1.0), (0.1, 0.1), 0.01, ("pass", "pass"))
