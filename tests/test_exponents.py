"""Closed-form exponent formulas against independently computed oracles.

Every numeric pin below was worked out by hand from the defining formulas
before the implementation existed; the tests freeze those values.
"""

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from nlsmooth.exponents import (
    INF,
    ConditionError,
    GNParams,
    barenblatt_exponent,
    doubly_nonlinear_exponents,
    dtn_exponents,
    extrapolate_to_infinity,
    fractional_exponents,
    iteration_sequence,
    moser_exponents,
    moser_q_sequence,
    plaplace_exponents,
    smoothing_exponents,
)

ABS_TOLERANCE = 1e-12
REL_TOLERANCE = 1e-12
SERIES_TOLERANCE = 1e-9  # beta* on the Moser route is a numerically summed series


# ---------------------------------------------------------------------------
# base triple and the two extrapolation steps
# ---------------------------------------------------------------------------


def test_base_triple_from_generator_inequality():
    base = smoothing_exponents(GNParams(q=2.0, r=6.0, sigma=2.0))
    assert base.alpha == pytest.approx(0.5, abs=ABS_TOLERANCE)
    assert base.gamma == pytest.approx(1.0, abs=ABS_TOLERANCE)
    assert base.beta == pytest.approx(2.0, abs=ABS_TOLERANCE)
    with_rho = smoothing_exponents(GNParams(q=2.0, r=4.0, sigma=4.0, rho=2.0))
    assert with_rho.gamma == pytest.approx(1.0, abs=ABS_TOLERANCE)
    assert with_rho.alpha == pytest.approx(0.25, abs=ABS_TOLERANCE)


def test_extrapolation_to_infinity_worked_example():
    # q=2, r=6, gamma=1, alpha=1/2, beta=2, m0=2:
    # D = (6/2-1)*2 = 4, alpha* = 1/4, gamma* = 1, beta* = 3/2, pivot = 6
    star = extrapolate_to_infinity(2.0, 6.0, 1.0, 0.5, 2.0, 2.0)
    assert star.alpha_star == pytest.approx(0.25, abs=ABS_TOLERANCE)
    assert star.gamma_star == pytest.approx(1.0, abs=ABS_TOLERANCE)
    assert star.beta_star == pytest.approx(1.5, abs=ABS_TOLERANCE)
    assert star.pivot == pytest.approx(6.0, abs=ABS_TOLERANCE)
    assert star.conditions == {
        "gamma_r_gt_q": True,
        "m0_ge_q_over_gamma": True,
        "denominator_positive": True,
    }


@seed(20)
@given(q=st.floats(min_value=1.0, max_value=4.0),
       gamma=st.floats(min_value=0.2, max_value=3.0),
       excess=st.floats(min_value=0.1, max_value=5.0),
       margin=st.floats(min_value=0.0, max_value=3.0),
       alpha=st.floats(min_value=0.1, max_value=2.0))
def test_extrapolation_dual_route_identity(q, gamma, excess, margin, alpha):
    # for beta = gamma + 1 the published beta* admits two algebraic forms;
    # recompute both here with independent arithmetic
    r = max(q, q / gamma) * (1.0 + excess)  # keeps r >= 1 and gamma*r > q
    m0 = q / gamma + margin
    beta = gamma + 1.0
    star = extrapolate_to_infinity(q, r, gamma, alpha, beta, m0)
    D = (gamma * r / q - 1.0) * m0 + q * (1.0 / gamma - 1.0)
    route_a = ((beta - 1.0) * gamma * r / q + gamma - beta) / D + 1.0
    route_b = (gamma * gamma * r / q - 1.0) / D + 1.0
    assert star.alpha_star == pytest.approx(alpha * q / (gamma * D), rel=1e-12)
    assert star.gamma_star == pytest.approx((gamma * r / q - 1.0) * m0 / D, rel=1e-12)
    assert star.beta_star == pytest.approx(route_a, rel=1e-9)
    assert star.beta_star == pytest.approx(route_b, rel=1e-9)
    assert star.pivot == pytest.approx(gamma * r * m0 / q, rel=1e-12)


def test_extrapolation_rejects_gamma_r_equal_q():
    # the second case has gamma*r = q in real arithmetic but 7.000000000000001 in
    # floating point, which must not pass for gamma*r > q
    q, gamma = 7.0, 0.09
    for args in ((2.0, 2.0, 1.0, 0.5, 2.0, 2.0), (q, q / gamma, gamma, 1.0, 1.09, q / gamma)):
        with pytest.raises(ConditionError) as err:
            extrapolate_to_infinity(*args)
        assert err.value.condition == "gamma_r_gt_q"


def test_extrapolation_rejects_infinite_r_and_bad_seed():
    with pytest.raises(ValueError):
        extrapolate_to_infinity(2.0, INF, 1.0, 0.5, 2.0, 2.0)
    with pytest.raises(ConditionError) as err:
        extrapolate_to_infinity(2.0, 6.0, 1.0, 0.5, 2.0, 0.5)
    assert err.value.condition == "m0_ge_q_over_gamma"


# ---------------------------------------------------------------------------
# sequence laws
# ---------------------------------------------------------------------------


def test_iteration_doubling_pin():
    it = iteration_sequence(2.0, 1.0, 1.0, 1.0, 5)
    assert it.values == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    assert it.closed_form == it.values
    assert it.increasing
    assert it.growth_limit == pytest.approx(1.0, abs=ABS_TOLERANCE)


def test_iteration_non_monotone_when_seed_condition_fails():
    # kappa=2, r=2, gamma=3, m0=1: seed coefficient 1 - 2 = -1 < 0
    it = iteration_sequence(2.0, 2.0, 3.0, 1.0, 4)
    assert not it.increasing
    assert it.values[1] < it.values[0]


@seed(21)
@given(kappa=st.floats(min_value=1.5, max_value=3.0),
       r=st.floats(min_value=1.0, max_value=5.0),
       gamma=st.floats(min_value=0.0, max_value=4.0),
       m0=st.floats(min_value=-2.0, max_value=5.0),
       n=st.integers(min_value=1, max_value=30))
def test_iteration_closed_form_matches_recursion(kappa, r, gamma, m0, n):
    it = iteration_sequence(kappa, r, gamma, m0, n)
    for direct, closed in zip(it.values, it.closed_form):
        assert closed == pytest.approx(direct, rel=1e-9, abs=1e-9)
    diffs = [b - a for a, b in zip(it.values, it.values[1:])]
    if it.increasing:
        assert all(d > 0.0 for d in diffs)
    else:
        assert any(d <= 0.0 for d in diffs)


@seed(22)
@given(kappa=st.floats(min_value=1.5, max_value=3.0),
       r=st.floats(min_value=1.0, max_value=5.0),
       gamma=st.floats(min_value=1.0, max_value=3.0),
       margin=st.floats(min_value=0.01, max_value=4.0))
def test_iteration_growth_limit(kappa, r, gamma, margin):
    # m_k / kappa^k converges to the seed coefficient over (kappa - 1)
    m0 = r / kappa + margin  # admissible seed, strictly increasing orbit
    it = iteration_sequence(kappa, r, gamma, m0, 60)
    ratio = it.values[-1] / kappa**60
    assert abs(ratio - it.growth_limit) <= 1e-6 * max(1.0, abs(it.growth_limit))


def test_moser_sequence_doubling_pin():
    seq = moser_q_sequence(2.0, 1.0, 2.0, 1.0, 6)
    assert seq.values == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    assert seq.closed_form == seq.values
    assert seq.increasing


@seed(23)
@given(kappa=st.floats(min_value=1.2, max_value=3.0),
       m=st.floats(min_value=0.5, max_value=3.0),
       p=st.floats(min_value=1.1, max_value=4.0),
       q0=st.floats(min_value=1.0, max_value=5.0),
       n=st.integers(min_value=1, max_value=25))
def test_moser_sequence_closed_form(kappa, m, p, q0, n):
    seq = moser_q_sequence(kappa, m, p, q0, n)
    c = p - 1.0 - 1.0 / m
    value = q0
    for k in range(n + 1):
        assert seq.values[k] == pytest.approx(value, rel=1e-9, abs=1e-9)
        assert seq.closed_form[k] == pytest.approx(value, rel=1e-9, abs=1e-9)
        value = kappa * value + c


def test_iteration_rejects_bad_parameters():
    with pytest.raises(ValueError):
        iteration_sequence(1.0, 1.0, 1.0, 1.0, 3)
    with pytest.raises(ValueError):
        iteration_sequence(2.0, 1.0, 1.0, 1.0, -1)
    with pytest.raises(ValueError):
        moser_q_sequence(0.9, 1.0, 2.0, 1.0, 3)


# ---------------------------------------------------------------------------
# Moser route
# ---------------------------------------------------------------------------


def test_moser_exponents_geometric_pin():
    # kappa=2, m=1, p=2, q0=1: D=1, alpha*=1, gamma*=1, S=8, beta*=2
    out = moser_exponents(2.0, 1.0, 2.0, 1.0, s=1.0)
    star = out.star
    assert star.alpha_star == pytest.approx(1.0, abs=ABS_TOLERANCE)
    assert star.gamma_star == pytest.approx(1.0, abs=ABS_TOLERANCE)
    assert star.beta_star == pytest.approx(2.0, abs=SERIES_TOLERANCE)
    assert star.pivot == pytest.approx(2.0, abs=ABS_TOLERANCE)
    assert out.alpha_s == pytest.approx(2.0, abs=ABS_TOLERANCE)
    assert out.beta_s == pytest.approx(3.0, abs=SERIES_TOLERANCE)
    assert out.gamma_s == pytest.approx(1.0, abs=ABS_TOLERANCE)


def test_moser_exponents_second_pin():
    # kappa=3, m=1, p=2, q0=2: D=4, S=24, beta* = (2/4)(24/6) = 2
    out = moser_exponents(3.0, 1.0, 2.0, 2.0, s=1.0)
    assert out.star.alpha_star == pytest.approx(0.25, abs=ABS_TOLERANCE)
    assert out.star.gamma_star == pytest.approx(1.0, abs=ABS_TOLERANCE)
    assert out.star.beta_star == pytest.approx(2.0, abs=SERIES_TOLERANCE)
    assert out.star.pivot == pytest.approx(6.0, abs=ABS_TOLERANCE)


def test_moser_rejects_inadmissible_parameters():
    with pytest.raises(ValueError):
        moser_exponents(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ConditionError) as err:
        moser_exponents(1.5, 0.1, 2.0, 1.0)  # kappa*m*q0 = 0.15 < 1
    assert err.value.condition == "pivot_ge_one"
    with pytest.raises(ConditionError) as err:
        moser_exponents(1.1, 1.0, 1.05, 1.0)  # D = 0.1 + 0.05 - 1 < 0
    assert err.value.condition == "seed_condition"


# ---------------------------------------------------------------------------
# application dispatch: p-Laplace family
# ---------------------------------------------------------------------------


def test_plaplace_subcritical_pin():
    out = plaplace_exponents(3, 2.0, s=1.0, m0=2.0)
    assert out.alpha_s == pytest.approx(1.5, abs=ABS_TOLERANCE)
    assert out.gamma_s == pytest.approx(1.0, abs=ABS_TOLERANCE)
    assert out.beta_s == pytest.approx(5.5, abs=ABS_TOLERANCE)
    assert out.star.pivot == pytest.approx(6.0, abs=ABS_TOLERANCE)
    assert out.case == "plaplace:p<d"


def test_plaplace_supercritical_pin():
    # d=1, p=3: theta0 = 3/7, alpha* = 1/7, gamma* = 6/7; at s=1 alpha = 1/4
    out = plaplace_exponents(1, 3.0, s=1.0)
    assert out.star.alpha_star == pytest.approx(1.0 / 7.0, abs=ABS_TOLERANCE)
    assert out.star.gamma_star == pytest.approx(6.0 / 7.0, abs=ABS_TOLERANCE)
    assert out.star.beta_star == pytest.approx(13.0 / 7.0, abs=ABS_TOLERANCE)
    assert out.star.pivot == pytest.approx(2.0, abs=ABS_TOLERANCE)
    assert out.star.m0 is None
    assert out.alpha_s == pytest.approx(0.25, abs=ABS_TOLERANCE)
    assert out.gamma_s == pytest.approx(0.75, abs=ABS_TOLERANCE)
    assert out.beta_s == pytest.approx(19.0 / 8.0, abs=ABS_TOLERANCE)


def test_plaplace_matches_source_solution_rate():
    # the L^1 -> L^inf time exponent equals the self-similar rate d/(d(p-2)+p)
    for d, p in [(2, 1.9), (3, 2.0), (3, 2.5), (4, 3.0), (5, 4.0)]:
        out = plaplace_exponents(d, p, s=1.0)
        assert out.alpha_s == pytest.approx(barenblatt_exponent(d, p), abs=1e-12)


def test_plaplace_heat_reduction():
    for d in (1, 2, 3):
        for s in (1.0, 2.0):
            out = plaplace_exponents(d, 2.0, s=s)
            assert out.alpha_s == pytest.approx(d / (2.0 * s), abs=1e-12)


def test_plaplace_borderline_theta_independence():
    # at p = d = 2 the time exponent is theta-free: alpha_s = 1/s
    for theta in (0.3, 0.5, 0.8):
        out = plaplace_exponents(2, 2.0, s=1.7, theta=theta)
        assert out.alpha_s == pytest.approx(1.0 / 1.7, abs=1e-12)
        assert out.case == "plaplace:p=d"


def test_plaplace_seed_default_threshold():
    # p <= 2d/(d+2) needs an explicit seed
    with pytest.raises(ConditionError) as err:
        plaplace_exponents(3, 1.15, s=1.0)
    assert err.value.condition == "m0_required"
    # below the critical p there is no smoothing down to L^1: even with a
    # large explicit seed the source-lowering condition must fail
    with pytest.raises(ConditionError) as err:
        plaplace_exponents(3, 1.15, s=1.0, m0=4.0)
    assert err.value.condition == "gamma_star_condition"


def test_plaplace_argument_validation():
    with pytest.raises(ValueError):
        plaplace_exponents(3, 1.0)
    with pytest.raises(ValueError):
        plaplace_exponents(0, 2.0)
    with pytest.raises(ValueError):
        plaplace_exponents(2, 2.0, m0=3.0)  # m0 pinned at p = d
    with pytest.raises(ValueError):
        plaplace_exponents(1, 3.0, theta=0.5)  # no theta when p > d
    for theta in (0.0, 1.0):  # theta in (0, 1) is a recorded condition
        with pytest.raises(ConditionError) as err:
            plaplace_exponents(2, 2.0, theta=theta)
        assert err.value.condition == "theta_in_range"
    with pytest.raises(ValueError):
        plaplace_exponents(3, 2.0, s=0.5)


def test_dtn_pins():
    out = dtn_exponents(3, 2.0, s=1.0, m0=2.0)
    assert out.star.alpha_star == pytest.approx(0.5, abs=ABS_TOLERANCE)
    assert out.star.gamma_star == pytest.approx(1.0, abs=ABS_TOLERANCE)
    assert out.star.pivot == pytest.approx(4.0, abs=ABS_TOLERANCE)
    assert out.alpha_s == pytest.approx(2.0, abs=ABS_TOLERANCE)
    sup = dtn_exponents(2, 3.0, s=1.0)
    assert sup.alpha_s == pytest.approx(0.5, abs=ABS_TOLERANCE)
    assert sup.beta_s == pytest.approx(1.75, abs=ABS_TOLERANCE)
    assert sup.gamma_s == pytest.approx(0.5, abs=ABS_TOLERANCE)
    with pytest.raises(ValueError):
        dtn_exponents(1, 2.0)


def test_dtn_critical_pins():
    # d = p = 2: theta = 3/4, r = 4, sigma = 2, so alpha = 1/2, gamma = 1, beta = 2
    # with m0 pinned to p = 2; kappa = 2, D = 2, pivot 4, then s = 1: den = 1/4
    out = dtn_exponents(2, 2.0, s=1.0)
    assert out.case == "dtn:p=d"
    assert out.star.m0 == 2.0
    assert out.star.pivot == pytest.approx(4.0, abs=ABS_TOLERANCE)
    assert out.star.alpha_star == pytest.approx(0.5, abs=ABS_TOLERANCE)
    assert out.star.gamma_star == pytest.approx(1.0, abs=ABS_TOLERANCE)
    assert out.star.beta_star == pytest.approx(1.5, abs=ABS_TOLERANCE)
    assert (out.alpha_s, out.beta_s, out.gamma_s) == pytest.approx((2.0, 4.0, 1.0), abs=ABS_TOLERANCE)
    # theta = 0.6: r = 5/2, kappa = 5/4, D = 1/2, pivot 5/2, den = 2/5
    out = dtn_exponents(2, 2.0, s=1.0, theta=0.6)
    assert (out.alpha_s, out.beta_s, out.gamma_s) == pytest.approx((5.0, 23.0 / 8.0, 1.0), abs=ABS_TOLERANCE)
    # d = p = 3: theta = 5/6, r = 6, sigma = 3, m0 = 3; kappa = 2, D = 4, pivot 6
    out = dtn_exponents(3, 3.0, s=1.0)
    assert out.star.alpha_star == pytest.approx(0.25, abs=ABS_TOLERANCE)
    assert out.star.gamma_star == pytest.approx(0.75, abs=ABS_TOLERANCE)
    assert out.star.beta_star == pytest.approx(13.0 / 12.0, abs=ABS_TOLERANCE)
    assert out.star.pivot == pytest.approx(6.0, abs=ABS_TOLERANCE)
    assert (out.alpha_s, out.beta_s, out.gamma_s) == pytest.approx((2.0 / 3.0, 16.0 / 9.0, 1.0 / 3.0),
                                                                   abs=ABS_TOLERANCE)
    # theta must lie in (1 - 1/p, 1); m0 is pinned
    for theta in (0.5, 0.2, 1.0):
        with pytest.raises(ConditionError) as err:
            dtn_exponents(2, 2.0, s=1.0, theta=theta)
        assert err.value.condition == "theta_in_range"
        assert err.value.conditions == {"theta_in_range": False}
    with pytest.raises(ValueError):
        dtn_exponents(2, 2.0, m0=2.0)


def test_fractional_critical_pins():
    # d = 1, p = 4, sfrac = 1/4: theta = 1/2, r = 8, sigma = 4, so alpha = 1/4,
    # gamma = 1/2, beta = 3/2, m0 = 4; kappa = 2, D = 6, pivot 8, den = 5/12
    out = fractional_exponents(1, 4.0, 0.25, s=1.0)
    assert out.case == "fractional:sp=d"
    assert out.star.alpha_star == pytest.approx(1.0 / 6.0, abs=ABS_TOLERANCE)
    assert out.star.gamma_star == pytest.approx(2.0 / 3.0, abs=ABS_TOLERANCE)
    assert out.star.beta_star == pytest.approx(1.0, abs=ABS_TOLERANCE)
    assert out.star.pivot == pytest.approx(8.0, abs=ABS_TOLERANCE)
    assert (out.alpha_s, out.beta_s, out.gamma_s) == pytest.approx((0.4, 1.4, 0.2), abs=ABS_TOLERANCE)
    # p = 3/2 < 2 raises the lower end to 1 - p/2 = 1/4: theta = 5/8, r = 4,
    # sigma = 3/2, m0 = 3/2; kappa = 8/3, D = 2, pivot 4, den = 1/16
    sfrac = 1.0 / 1.5
    assert sfrac * 1.5 == 1.0  # exactly the critical case
    out = fractional_exponents(1, 1.5, sfrac, s=1.0)
    assert out.case == "fractional:sp=d"
    assert out.star.alpha_star == pytest.approx(0.5, abs=ABS_TOLERANCE)
    assert out.star.gamma_star == pytest.approx(1.25, abs=ABS_TOLERANCE)
    assert out.star.beta_star == pytest.approx(41.0 / 18.0, abs=ABS_TOLERANCE)
    assert (out.alpha_s, out.beta_s, out.gamma_s) == pytest.approx((8.0, 209.0 / 9.0, 5.0), rel=REL_TOLERANCE)
    for p, sf, theta in ((1.5, sfrac, 0.25), (1.5, sfrac, 0.1), (4.0, 0.25, 0.0), (4.0, 0.25, 1.0)):
        with pytest.raises(ConditionError) as err:
            fractional_exponents(1, p, sf, s=1.0, theta=theta)
        assert err.value.condition == "theta_in_range"
        assert err.value.conditions == {"theta_in_range": False}


@pytest.mark.parametrize(
    "p", [1.1, 1.3, 1.5, 1.7, 2.0, 2.2, 2.5, 2.7, 3.0, 3.3, 3.5, 4.0, 4.4, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.7, 8.0, 9.0, 10.0]
)
def test_fractional_sfrac_d_over_p_is_critical_despite_roundoff(p):
    # sfrac = d/p rounds, so sfrac*p can miss d by an ulp (p = 7.7 at d = 1, 2, 4);
    # the critical branch depends on p alone, so every d must give one outcome
    def outcome(d, sfrac):
        try:
            out = fractional_exponents(d, p, sfrac)
        except ConditionError as err:
            return err.condition
        assert out.case == "fractional:sp=d"
        return out.alpha_s, out.beta_s, out.gamma_s

    sfracs = [(d, d / p) for d in range(1, 7) if d <= p]
    if p == 7.7:
        sfracs.append((1, 0.12987012987012989))  # sfrac*p one ulp above 1
    assert len({outcome(d, sfrac) for d, sfrac in sfracs}) == 1
    # a relative miss well above roundoff keeps its regime
    assert fractional_exponents(1, 3.0, (1.0 + 1e-9) / 3.0).case == "fractional:sp>d"
    assert fractional_exponents(1, 3.0, (1.0 - 1e-9) / 3.0).case == "fractional:sp<d"


def test_fractional_reduces_to_local_at_order_one():
    for d, p, m0 in [(3, 2.0, 2.0), (4, 3.0, 3.0), (5, 2.5, None)]:
        local = plaplace_exponents(d, p, s=1.0, m0=m0)
        frac = fractional_exponents(d, p, 1.0, s=1.0, m0=m0)
        assert frac.alpha_s == pytest.approx(local.alpha_s, abs=1e-14)
        assert frac.beta_s == pytest.approx(local.beta_s, abs=1e-14)
        assert frac.gamma_s == pytest.approx(local.gamma_s, abs=1e-14)


def test_fractional_supercritical_pin():
    # d=1, p=3, sfrac=1/2: sfrac*p > d, direct estimate
    out = fractional_exponents(1, 3.0, 0.5, s=1.0)
    assert out.alpha_s == pytest.approx(0.5, abs=ABS_TOLERANCE)
    assert out.beta_s == pytest.approx(1.75, abs=ABS_TOLERANCE)
    assert out.gamma_s == pytest.approx(0.5, abs=ABS_TOLERANCE)
    with pytest.raises(ValueError):
        fractional_exponents(3, 2.0, 1.5)
    with pytest.raises(ValueError):
        fractional_exponents(3, 2.0, 0.0)


def test_doubly_nonlinear_pins():
    # heat: d=1, p=2, m=1 -> alpha_1 = 1/2; porous medium m=2 -> 1/3
    assert doubly_nonlinear_exponents(1, 2.0, 1.0, s=1.0).alpha_s == pytest.approx(
        0.5, abs=ABS_TOLERANCE)
    assert doubly_nonlinear_exponents(1, 2.0, 2.0, s=1.0).alpha_s == pytest.approx(
        1.0 / 3.0, abs=ABS_TOLERANCE)
    for m in (1.5, 2.0, 3.0):
        out = doubly_nonlinear_exponents(3, 2.0, m, s=1.0, q0=2.0)
        assert out.alpha_s == pytest.approx(3.0 / (3.0 * (m - 1.0) + 2.0), abs=1e-12)


def test_doubly_nonlinear_linear_phi_reduction():
    # m = 1, p < d: the Moser route reproduces the p-Laplace alpha and gamma
    moser = doubly_nonlinear_exponents(3, 2.0, 1.0, s=1.0, q0=2.0)
    local = plaplace_exponents(3, 2.0, s=1.0, m0=2.0)
    assert moser.alpha_s == pytest.approx(local.alpha_s, abs=1e-12)
    assert moser.gamma_s == pytest.approx(local.gamma_s, abs=1e-12)
    # m = 1, p > d: the direct stars coincide, so all three exponents match
    for s in (1.0, 1.5):
        a = doubly_nonlinear_exponents(1, 3.0, 1.0, s=s)
        b = plaplace_exponents(1, 3.0, s=s)
        assert a.alpha_s == pytest.approx(b.alpha_s, abs=1e-12)
        assert a.beta_s == pytest.approx(b.beta_s, abs=1e-12)
        assert a.gamma_s == pytest.approx(b.gamma_s, abs=1e-12)


def test_doubly_nonlinear_validation():
    with pytest.raises(ValueError):
        doubly_nonlinear_exponents(1, 2.0, -1.0)
    with pytest.raises(ValueError):
        doubly_nonlinear_exponents(1, 3.0, 2.0, q0=3.0)  # no q0 when p > d
    with pytest.raises(ConditionError) as err:
        doubly_nonlinear_exponents(3, 2.0, 1.0, q0=1.0)  # q0 < p
    assert err.value.condition == "q0_ge_p"
    assert doubly_nonlinear_exponents(2, 2.0, 2.0).conditions["theta_in_range"] is True
    assert doubly_nonlinear_exponents(2, 2.0, 2.0, theta=2.0**-52).conditions["theta_in_range"] is True
    # at the last two, 1 - theta rounds to 1: a kappa = 1/(1 - theta) of 1 is refused as theta, not as kappa
    for theta in (0.0, 1.0, 1e-300, 2.0**-54):
        with pytest.raises(ConditionError) as err:
            doubly_nonlinear_exponents(2, 2.0, 2.0, theta=theta)
        assert err.value.condition == "theta_in_range"


@pytest.mark.parametrize("rel", [1e-14, -1e-14])
def test_doubly_nonlinear_regime_is_not_decided_by_roundoff(rel):
    # p within roundoff of d = 2 takes the borderline p = d route, as the GN families do
    exact = doubly_nonlinear_exponents(2, 2.0, 2.0, s=1.0)
    near = doubly_nonlinear_exponents(2, 2.0 * (1.0 + rel), 2.0, s=1.0)
    assert near.case == exact.case == "doubly-nonlinear:p=d"
    for name in ("alpha_s", "beta_s", "gamma_s", "theta_s"):
        assert getattr(near, name) == pytest.approx(getattr(exact, name), rel=1e-12)


@pytest.mark.parametrize("fn, args, s", [
    (plaplace_exponents, (2, 1.2), 3.0),
    (doubly_nonlinear_exponents, (2, 1.25, 0.6), 2.0),
    (doubly_nonlinear_exponents, (3, 1.2, 2.0), 4.0),
    (doubly_nonlinear_exponents, (4, 2.5, 0.3), 2.0),
])
def test_s_equal_to_the_pivot_is_admitted_when_the_pivot_rounds_low(fn, args, s):
    # the pivot is s in real arithmetic, but its float lands one ulp below s
    out = fn(*args, s=s)
    assert out.star.pivot < s and out.conditions["s_in_range"] is True
    assert out.alpha_s == pytest.approx(out.star.alpha_star, rel=1e-12)
    assert out.gamma_s == pytest.approx(out.star.gamma_star, rel=1e-12)
    with pytest.raises(ConditionError) as err:
        fn(*args, s=out.star.pivot * (1.0 + 1e-9))
    assert err.value.condition == "s_in_range"


@pytest.mark.parametrize("call, refused", [
    (lambda: plaplace_exponents(3, 2.5, m0=2.5 * (1.0 - 1e-15)), None),  # m0 = p
    (lambda: doubly_nonlinear_exponents(3, 2.0, 1.0, q0=2.0 * (1.0 - 1e-15)), None),  # q0 = p
    (lambda: moser_exponents(7.0, 0.9, 3.0, 1.0 / 6.3), None),  # kappa*m*q0 = 1
    (lambda: dtn_exponents(3, 3.0, theta=(2.0 / 3.0) * (1.0 + 1e-15)), "theta_in_range"),  # theta at its lower end
    (lambda: dtn_exponents(3, 3.0, theta=1.0 - 2.0**-53), "theta_in_range"),  # theta at 1
    (lambda: doubly_nonlinear_exponents(2, 2.0, 2.0, theta=1.0 - 2.0**-53), "theta_in_range"),
    (lambda: plaplace_exponents(3, 1.2 * (1.0 + 1e-15)), "m0_required"),  # p at the default-seed threshold 2d/(d+2)
    (lambda: doubly_nonlinear_exponents(3, 1.2 * (1.0 + 1e-15), 1.0), "m0_required"),
])
def test_a_boundary_within_roundoff_is_decided_by_its_own_condition(call, refused):
    # a closed end within roundoff is met, an open end is not, and the refusal
    # names the borderline condition rather than a later one
    if refused is None:
        assert all(call().conditions.values())
    else:
        with pytest.raises(ConditionError) as err:
            call()
        assert err.value.condition == refused


@pytest.mark.parametrize("theta", [1e-300, 2.0**-54, 1e-13])
@pytest.mark.parametrize("family", [lambda theta: plaplace_exponents(2, 2.0, theta=theta),
                                    lambda theta: fractional_exponents(2, 4.0, 0.5, theta=theta)],
                         ids=["plaplace", "fractional"])
def test_a_gn_theta_within_roundoff_of_zero_is_out_of_range(family, theta):
    # gamma*r - q = 2 theta / (1 - theta) in both, over terms of about 2: a theta this close to the open end 0
    # fails gamma_r_gt_q by _sign's rule, and is refused before it as theta_in_range
    with pytest.raises(ConditionError) as err:
        family(theta)
    assert err.value.condition == "theta_in_range"
    assert err.value.conditions == {"theta_in_range": False}
    assert all(family(1e-10).conditions.values())


def test_an_orbit_constant_up_to_roundoff_is_not_increasing():
    # (kappa - 1) q0 + p - 1 - 1/m = 0.1 * 3 - 0.3 vanishes in real arithmetic
    assert moser_q_sequence(1.1, 1.0, 1.7, 3.0, 3).increasing is False


@seed(24)
@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(["plaplace", "plaplace:p=d", "fractional", "doubly-nonlinear"]),
       d=st.integers(min_value=1, max_value=6),
       p=st.floats(min_value=1.05, max_value=8.0),
       m=st.floats(min_value=0.2, max_value=4.0))
def test_dilation_and_time_scaling_laws(family, d, p, m):
    # L^1 -> L^inf exponents of a flow with homogeneity k = m(p-1): the
    # dilation law alpha_1 = d/(d(k-1)+p) and gamma_1 = 1 - alpha_1(k-1)
    if family == "doubly-nonlinear":
        assume(p != d)  # the p = d dilation law is an open question
        call = lambda: doubly_nonlinear_exponents(d, p, m, s=1.0)  # noqa: E731
    else:
        m = 1.0
        if family == "plaplace:p=d":
            assume(d >= 2)
            p = float(d)
        if family == "fractional":
            assume(p < d)
            call = lambda: fractional_exponents(d, p, 1.0, s=1.0)  # noqa: E731
        else:
            call = lambda: plaplace_exponents(d, p, s=1.0)  # noqa: E731
    k = m * (p - 1.0)
    lam = d * (k - 1.0) + p
    # within roundoff of lam = 0 the refusal is the critical-exponent test's
    assume(abs(lam) > 1e-9 * (d * abs(k - 1.0) + p))
    if lam <= 0.0:
        with pytest.raises(ConditionError):
            call()
        return
    out = call()
    alpha1 = d / lam
    assert out.alpha_s == pytest.approx(alpha1, rel=1e-10)
    assert out.gamma_s == pytest.approx(1.0 - alpha1 * (k - 1.0), rel=1e-10)


def test_barenblatt_exponent_pins():
    assert barenblatt_exponent(2, 3.0) == pytest.approx(0.4, abs=1e-15)
    assert barenblatt_exponent(3, 2.0) == pytest.approx(1.5, abs=1e-15)
    assert barenblatt_exponent(1, 3.0) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ConditionError) as err:
        barenblatt_exponent(3, 1.4)
    assert err.value.condition == "lambda_positive"


@pytest.mark.parametrize("d", range(2, 9))
def test_critical_exponent_p_is_refused_in_every_dimension(d):
    # lambda = d(p-2)+p vanishes at p = 2d/(d+1); in real arithmetic the
    # gamma* condition is an equality there, and roundoff must not decide it
    p = 2.0 * d / (d + 1.0)
    with pytest.raises(ConditionError) as err:
        plaplace_exponents(d, p, s=1.0)
    assert err.value.condition == "gamma_star_condition"
    with pytest.raises(ConditionError) as err:
        doubly_nonlinear_exponents(d, p, 1.0, s=1.0)
    assert err.value.condition == "gamma_star_condition"
    with pytest.raises(ConditionError) as err:
        barenblatt_exponent(d, p)
    assert err.value.condition == "lambda_positive"


def test_exponent_functions_are_pure():
    a = plaplace_exponents(3, 2.5, s=1.0)
    b = plaplace_exponents(3, 2.5, s=1.0)
    assert a == b  # dataclass equality is bitwise on every float field
    c = doubly_nonlinear_exponents(2, 2.0, 2.0, s=1.0)
    d = doubly_nonlinear_exponents(2, 2.0, 2.0, s=1.0)
    assert c == d


def test_conditions_are_reported_by_name():
    out = plaplace_exponents(3, 2.0, s=1.0)
    for name in ("m0_ge_p", "gamma_r_gt_q", "m0_ge_q_over_gamma",
                 "denominator_positive", "s_in_range", "gamma_star_condition"):
        assert out.conditions[name] is True
