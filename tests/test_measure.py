"""Norms, brackets and mass on weighted discrete spaces."""

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nlsmooth.measure import (
    INF,
    DiscreteSpace,
    GridFunction,
    lq_norm,
    mass,
    parse_index,
    q_bracket,
)

N_NODES = 7
ABS_TOLERANCE = 1e-9
REL_TOLERANCE = 1e-9
Q_MENU = (1.0, 1.5, 2.0, 3.0, 4.0)

values_st = arrays(
    np.float64, (N_NODES,), elements=st.floats(min_value=-10.0, max_value=10.0)
)
weights_st = arrays(
    np.float64, (N_NODES,), elements=st.floats(min_value=0.1, max_value=3.0)
)


def _pair(weights, u_vals, v_vals):
    space = DiscreteSpace(weights)
    return GridFunction(space, u_vals), GridFunction(space, v_vals)


def test_parse_index_accepts_inf_spellings():
    for spelling in ("inf", "Inf", "INF", " infinity ", "+inf"):
        assert parse_index(spelling) == INF
    assert parse_index("2") == 2.0
    assert parse_index(3) == 3.0


def test_parse_index_rejects_bad_values():
    for bad in (0.5, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            parse_index(bad)
    with pytest.raises(ValueError):
        parse_index("junk")


def test_space_validation():
    with pytest.raises(ValueError):
        DiscreteSpace([])
    with pytest.raises(ValueError):
        DiscreteSpace([1.0, 0.0])
    with pytest.raises(ValueError):
        DiscreteSpace([1.0, -2.0])
    with pytest.raises(ValueError):
        DiscreteSpace([[1.0, 2.0]])
    space = DiscreteSpace(np.full(3, 0.5))
    assert space.n == 3
    assert space.total_mass == 1.5
    with pytest.raises(ValueError):
        space.weights[0] = 2.0  # weights are read-only


def test_grid_function_validation_and_sugar():
    space = DiscreteSpace(np.full(3, 1.0))
    with pytest.raises(ValueError):
        GridFunction(space, [1.0, 2.0])
    with pytest.raises(ValueError):
        GridFunction(space, [1.0, np.inf, 0.0])
    u = GridFunction(space, [1.0, -2.0, 3.0])
    v = GridFunction(space, [0.5, 0.5, 0.5])
    assert np.array_equal((u + v).values, [1.5, -1.5, 3.5])
    assert np.array_equal((u - v).values, [0.5, -2.5, 2.5])
    assert np.array_equal((2 * u).values, [2.0, -4.0, 6.0])
    assert np.array_equal((-u).values, [-1.0, 2.0, -3.0])
    assert np.array_equal(u.with_values([0.0, 0.0, 1.0]).values, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        u.values[0] = 9.0


def test_lq_norm_pins():
    space = DiscreteSpace(np.full(4, 0.5))
    u = GridFunction(space, [1.0, -2.0, 3.0, 0.0])
    assert lq_norm(u, 1) == pytest.approx(3.0, abs=1e-15)
    assert lq_norm(u, 2) == pytest.approx(np.sqrt(7.0), rel=1e-15)
    assert lq_norm(u, "inf") == 3.0
    assert lq_norm(u, INF) == 3.0


def test_q_bracket_pins():
    # q = 1 splits on the bitwise zero set of u
    space = DiscreteSpace(np.full(4, 0.5))
    u = GridFunction(space, [0.0, 1.0, -2.0, 0.0])
    v = GridFunction(space, [3.0, -1.0, 1.0, -5.0])
    assert q_bracket(u, v, 1) == pytest.approx(0.5 * (3.0 - 1.0 - 1.0 + 5.0), abs=1e-15)
    # tiny but nonzero entries use the sign branch, not the modulus branch
    u2 = u.with_values([1e-300, 1.0, -2.0, 0.0])
    assert q_bracket(u2, v, 1) == pytest.approx(0.5 * (3.0 - 1.0 - 1.0 + 5.0), abs=1e-15)
    assert q_bracket(u, u, 2) == pytest.approx(lq_norm(u, 2) ** 2, rel=1e-15)
    with pytest.raises(ValueError):
        q_bracket(u, v, INF)
    vv = GridFunction(DiscreteSpace(np.full(4, 0.7)), v.values)
    with pytest.raises(ValueError, match="different spaces"):
        q_bracket(u, vv, 2)
    with pytest.raises(ValueError, match="different spaces"):
        q_bracket(u, GridFunction(DiscreteSpace(np.full(3, 0.5)), v.values[:3]), 2)


def test_bracket_of_zero_function_is_l1_norm():
    space = DiscreteSpace(np.full(5, 0.3))
    z = GridFunction(space, np.zeros(5))
    v = GridFunction(space, [1.0, -2.0, 0.0, 4.0, -0.5])
    assert q_bracket(z, v, 1) == pytest.approx(lq_norm(v, 1), rel=1e-15)
    assert q_bracket(z, v, 2) == 0.0


@seed(10)
@given(weights=weights_st, u_vals=values_st, v_vals=values_st,
       q=st.sampled_from(Q_MENU),
       a=st.floats(min_value=0.0, max_value=5.0),
       w=st.floats(min_value=0.0, max_value=5.0))
def test_bracket_affine_identity(weights, u_vals, v_vals, q, a, w):
    # [u, a u + w v]_q = a ||u||_q^q + w [u, v]_q for a, w >= 0
    u, v = _pair(weights, u_vals, v_vals)
    lhs = q_bracket(u, a * u + w * v, q)
    rhs = a * lq_norm(u, q) ** q + w * q_bracket(u, v, q)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= REL_TOLERANCE * scale


@seed(11)
@given(weights=weights_st, u_vals=values_st, v_vals=values_st,
       q=st.sampled_from(Q_MENU),
       h=st.floats(min_value=1e-3, max_value=10.0))
def test_bracket_below_difference_quotient(weights, u_vals, v_vals, q, h):
    # convexity of h -> ||u + h v||_q^q / q puts the bracket under every quotient
    u, v = _pair(weights, u_vals, v_vals)
    quotient = (lq_norm(u + h * v, q) ** q - lq_norm(u, q) ** q) / (q * h)
    scale = max(1.0, abs(quotient))
    assert q_bracket(u, v, q) <= quotient + ABS_TOLERANCE * scale


@seed(12)
@given(weights=weights_st, u_vals=values_st, v_vals=values_st)
def test_l1_bracket_is_exact_small_step_quotient(weights, u_vals, v_vals):
    # snap small u entries to exact zeros, then for h below min |u_i|/|v_i|
    # the difference quotient of the l1 norm equals the bracket identically
    u_vals = np.where(np.abs(u_vals) < 0.01, 0.0, u_vals)
    u, v = _pair(weights, u_vals, v_vals)
    active = (u.values != 0.0) & (v.values != 0.0)
    h_max = 1.0
    if active.any():
        with np.errstate(over="ignore"):  # huge |u|/|v| ratios never bind the min
            h_max = min(1.0, float(np.min(np.abs(u.values[active]) / np.abs(v.values[active]))))
    h = 0.5 * h_max
    quotient = (lq_norm(u + h * v, 1) - lq_norm(u, 1)) / h
    assert abs(q_bracket(u, v, 1) - quotient) <= 1e-8 * max(1.0, abs(quotient))


@seed(13)
@given(weights=weights_st, u_vals=values_st, v_vals=values_st,
       q=st.sampled_from(Q_MENU))
def test_bracket_holder_bound(weights, u_vals, v_vals, q):
    u, v = _pair(weights, u_vals, v_vals)
    bound = lq_norm(u, q) ** (q - 1.0) * lq_norm(v, q)
    assert abs(q_bracket(u, v, q)) <= bound * (1.0 + REL_TOLERANCE) + ABS_TOLERANCE


@seed(14)
@given(weights=weights_st, u_vals=values_st,
       triple=st.sampled_from([(1.0, 2.0, 4.0), (1.0, 2.0, INF), (2.0, 3.0, 6.0),
                               (1.5, 2.5, INF), (2.0, 4.0, 8.0)]))
def test_norm_interpolation(weights, u_vals, triple):
    # ||u||_r <= ||u||_q^theta ||u||_s^{1-theta} with 1/r = theta/q + (1-theta)/s
    q, r, s = triple
    theta = q / r if s == INF else (1.0 / r - 1.0 / s) / (1.0 / q - 1.0 / s)
    u = GridFunction(DiscreteSpace(weights), u_vals)
    lhs = lq_norm(u, r)
    rhs = lq_norm(u, q) ** theta * lq_norm(u, s) ** (1.0 - theta)
    assert lhs <= rhs * (1.0 + REL_TOLERANCE) + ABS_TOLERANCE


def test_mass_is_weighted_sum():
    space = DiscreteSpace([0.5, 1.5, 2.0])
    u = GridFunction(space, [2.0, -1.0, 3.0])
    assert mass(u) == pytest.approx(0.5 * 2.0 - 1.5 + 2.0 * 3.0, rel=1e-15)
