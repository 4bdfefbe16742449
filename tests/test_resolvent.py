"""Implicit Euler step: contraction, order preservation, resolvent identity."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nlsmooth.measure import GridFunction, lq_norm, positive_part
from nlsmooth.operators import (
    BoundaryCondition,
    OperatorSpec,
    PhiSpec,
    interval,
    rectangle,
    tanh_perturbation,
)
from nlsmooth.resolvent import (
    NonConvergenceError,
    PreconditionError,
    ResolventQuery,
    _solve_tridiagonal_stack,
    resolvent_power,
    solve_query,
    solve_resolvent,
    solve_resolvent_batch,
)

N_NODES = 8
CONTRACTION_SLACK = 1e-6
ORDER_SLACK = 1e-8
SOLVER_TOL = 1e-12

values_st = arrays(
    np.float64, (N_NODES,), elements=st.floats(min_value=-5.0, max_value=5.0)
)


def _spec(p, bc_kind="dirichlet", phi=None, perturbation=None):
    bc = BoundaryCondition(bc_kind, b=0.7 if bc_kind == "robin" else 0.0)
    return OperatorSpec(grid=interval(-1.0, 1.0, N_NODES), p=p, bc=bc,
                        phi=phi or PhiSpec.identity(), perturbation=perturbation)


def test_linear_resolvent_pin():
    # p=2, n=3 on (0,1): lambda = h^2 makes (I + lambda A) the matrix
    # [[3,-1,0],[-1,3,-1],[0,-1,3]]; solving against e_2 gives (1/7, 3/7, 1/7)
    spec = OperatorSpec(grid=interval(0.0, 1.0, 3), p=2.0)
    h = spec.grid.h[0]
    g = GridFunction(spec.space(), [0.0, 1.0, 0.0])
    out = solve_resolvent(spec, h * h, g, tol=1e-14)
    assert np.allclose(out.u.values, [1.0 / 7.0, 3.0 / 7.0, 1.0 / 7.0], atol=1e-12)
    assert out.converged
    assert out.residual <= 1e-14


@seed(30)
@settings(deadline=None)
@given(u_vals=values_st, v_vals=values_st,
       p=st.sampled_from([1.5, 2.0, 3.0]),
       lam=st.sampled_from([0.01, 0.1, 1.0]),
       q=st.sampled_from([1.0, 1.5, 2.0, 4.0, float("inf")]),
       bc_kind=st.sampled_from(["dirichlet", "neumann", "robin"]))
def test_resolvent_is_complete_contraction(u_vals, v_vals, p, lam, q, bc_kind):
    spec = _spec(p, bc_kind)
    space = spec.space()
    g1 = GridFunction(space, u_vals)
    g2 = GridFunction(space, v_vals)
    u1 = solve_resolvent(spec, lam, g1, tol=SOLVER_TOL).u
    u2 = solve_resolvent(spec, lam, g2, tol=SOLVER_TOL).u
    lhs = lq_norm(u1 - u2, q)
    rhs = lq_norm(g1 - g2, q)
    assert lhs <= rhs * (1.0 + CONTRACTION_SLACK) + 1e-12


@seed(31)
@settings(deadline=None)
@given(u_vals=values_st, v_vals=values_st,
       p=st.sampled_from([1.5, 2.0, 3.0]),
       lam=st.sampled_from([0.1, 1.0]))
def test_resolvent_t_contraction_and_order(u_vals, v_vals, p, lam):
    # ||(Ju - Jv)^+||_1 <= ||(u - v)^+||_1, hence g <= h implies Jg <= Jh
    spec = _spec(p, "dirichlet")
    space = spec.space()
    g1 = GridFunction(space, u_vals)
    g2 = GridFunction(space, v_vals)
    u1 = solve_resolvent(spec, lam, g1, tol=SOLVER_TOL).u
    u2 = solve_resolvent(spec, lam, g2, tol=SOLVER_TOL).u
    assert lq_norm(positive_part(u1 - u2), 1) <= (
        lq_norm(positive_part(g1 - g2), 1) + ORDER_SLACK)
    ordered = GridFunction(space, u_vals + np.abs(v_vals))
    above = solve_resolvent(spec, lam, ordered, tol=SOLVER_TOL).u
    assert np.all(above.values >= u1.values - ORDER_SLACK)


def test_resolvent_identity():
    # J_lam g = J_mu( (mu/lam) g + (1 - mu/lam) J_lam g )
    rng = np.random.default_rng(7)
    for spec in (_spec(3.0, "dirichlet"),
                 _spec(2.0, "neumann", phi=PhiSpec.power(2.0))):
        space = spec.space()
        g = GridFunction(space, rng.standard_normal(N_NODES))
        lam, mu = 0.5, 0.2
        u_lam = solve_resolvent(spec, lam, g, tol=SOLVER_TOL).u
        blended = (mu / lam) * g + (1.0 - mu / lam) * u_lam
        u_mu = solve_resolvent(spec, mu, blended, tol=SOLVER_TOL).u
        assert lq_norm(u_mu - u_lam, "inf") <= 1e-9


def test_perturbed_contraction_bound():
    # with a Lipschitz perturbation the bound degrades to 1/(1 - lam L)
    rng = np.random.default_rng(8)
    spec = _spec(3.0, "dirichlet", perturbation=tanh_perturbation(-0.4))
    space = spec.space()
    lam = 1.0
    factor = 1.0 / (1.0 - lam * 0.4)
    for _ in range(20):
        g1 = GridFunction(space, rng.standard_normal(N_NODES))
        g2 = GridFunction(space, rng.standard_normal(N_NODES))
        u1 = solve_resolvent(spec, lam, g1, tol=SOLVER_TOL).u
        u2 = solve_resolvent(spec, lam, g2, tol=SOLVER_TOL).u
        for q in (1.0, 2.0, float("inf")):
            assert lq_norm(u1 - u2, q) <= factor * lq_norm(g1 - g2, q) * (1.0 + 1e-6)


def test_step_size_precondition():
    spec = _spec(3.0, "dirichlet", perturbation=tanh_perturbation(0.4))
    g = GridFunction(spec.space(), np.ones(N_NODES))
    with pytest.raises(PreconditionError):
        solve_resolvent(spec, 2.5, g)  # lam * L = 1
    with pytest.raises(ValueError):
        solve_resolvent(spec, 0.0, g)
    with pytest.raises(ValueError):
        solve_resolvent(spec, float("inf"), g)


def test_solver_is_deterministic():
    rng = np.random.default_rng(9)
    spec = _spec(3.0, "neumann")
    g = GridFunction(spec.space(), rng.standard_normal(N_NODES))
    a = solve_resolvent(spec, 0.3, g)
    b = solve_resolvent(spec, 0.3, g)
    assert np.array_equal(a.u.values, b.u.values)
    assert a.iterations == b.iterations
    assert a.residual == b.residual


def test_resolvent_power():
    rng = np.random.default_rng(10)
    spec = _spec(3.0, "dirichlet")
    g = GridFunction(spec.space(), rng.standard_normal(N_NODES))
    assert resolvent_power(spec, 0.1, g, 0).u is g
    chained = resolvent_power(spec, 0.1, g, 3, tol=SOLVER_TOL)
    manual = g
    for _ in range(3):
        manual = solve_resolvent(spec, 0.1, manual, tol=SOLVER_TOL).u
    assert lq_norm(chained.u - manual, "inf") <= 1e-12
    assert chained.converged
    with pytest.raises(ValueError):
        resolvent_power(spec, 0.1, g, -1)


def test_non_convergence_is_reported():
    spec = _spec(3.0, "dirichlet")
    g = GridFunction(spec.space(), np.ones(N_NODES))
    with pytest.raises(NonConvergenceError) as err:
        solve_resolvent(spec, 1.0, g, max_iter=0)
    assert err.value.iterations == 0
    assert err.value.residual > 0.0


def test_query_wrapper_and_2d_solve():
    rng = np.random.default_rng(11)
    spec = OperatorSpec(grid=rectangle((-1.0, 1.0), (-1.0, 1.0), 5, 4), p=3.0,
                        bc=BoundaryCondition.neumann())
    space = spec.space()
    g = GridFunction(space, rng.standard_normal(space.n))
    out = solve_query(ResolventQuery(spec=spec, lam=0.2, g=g, tol=1e-11))
    assert out.converged and out.residual <= 1e-11
    g2 = GridFunction(space, rng.standard_normal(space.n))
    out2 = solve_resolvent(spec, 0.2, g2, tol=1e-11)
    for q in (1.0, 2.0, float("inf")):
        assert lq_norm(out.u - out2.u, q) <= lq_norm(g - g2, q) * (1.0 + 1e-6)


BATCH_CASES = {
    "dirichlet": (_spec(3.0, "dirichlet"), 0.3),
    "neumann": (_spec(1.5, "neumann"), 0.3),
    "robin": (OperatorSpec(grid=interval(-1.0, 1.0, N_NODES), p=3.0,
                           bc=BoundaryCondition.robin(0.5)), 0.3),
    "phi-power": (_spec(2.0, "neumann", phi=PhiSpec.power(2)), 0.3),
    "tanh": (_spec(3.0, "dirichlet", perturbation=tanh_perturbation(0.5)), 0.3),
    "2d": (OperatorSpec(grid=rectangle((-1.0, 1.0), (-1.0, 1.0), 5, 4), p=3.0,
                        bc=BoundaryCondition.robin(0.5)), 0.2),
}


def _assert_matches_solo(spec, lam, G, out, rows, tol=SOLVER_TOL):
    space = spec.space()
    for k in rows:
        solo = solve_resolvent(spec, lam, GridFunction(space, G[k]), tol=tol)
        diff = GridFunction(space, out.u[k]) - solo.u
        assert lq_norm(diff, 2) <= 1e-12
        assert out.iterations[k] == solo.iterations
        assert out.converged[k] and out.failures[k] is None
        assert out.residual[k] <= tol


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_members_equal_their_own_solves(case, batch):
    spec, lam = BATCH_CASES[case]
    rng = np.random.default_rng(12)
    G = 2.0 * rng.standard_normal((batch, spec.grid.n_total))
    out = solve_resolvent_batch(spec, lam, G, tol=SOLVER_TOL)
    assert out.u.shape == G.shape
    _assert_matches_solo(spec, lam, G, out, range(batch))


def test_batch_isolates_a_failing_member():
    # member a of pair 8 in contraction_suite(seed=2) at p = 1.5, lambda = 0.01
    # stalls (see test_harness); it must not disturb the members around it
    spec = OperatorSpec(grid=interval(-1.0, 1.0, 64), p=1.5, bc=BoundaryCondition.dirichlet())
    pairs = np.random.default_rng(2).standard_normal((100, 2, 64))
    G = np.stack([pairs[7, 0], pairs[8, 0], pairs[8, 1], pairs[10, 0]])
    out = solve_resolvent_batch(spec, 0.01, G)
    assert out.converged.tolist() == [True, False, True, True]
    assert out.iterations[1] == 200
    assert out.failures[1].startswith("resolvent did not converge: residual ")
    _assert_matches_solo(spec, 0.01, G, out, (0, 2, 3), tol=1e-10)
    with pytest.raises(NonConvergenceError) as err:
        solve_resolvent(spec, 0.01, GridFunction(spec.space(), G[1]))
    assert str(err.value) == out.failures[1]
    assert err.value.iterations == 200 and err.value.residual == out.residual[1]


def test_stacked_tridiagonal_solve_isolates_bad_blocks():
    rng = np.random.default_rng(13)
    k, n = 4, 6
    system = np.zeros((4, k, n))
    system[0, :, 1:] = rng.uniform(-1.0, 0.0, (k, n - 1))
    system[1] = 3.0
    system[2, :, :-1] = rng.uniform(-1.0, 0.0, (k, n - 1))
    system[3] = rng.standard_normal((k, n))
    alone = [_solve_tridiagonal_stack(system[:, j : j + 1].copy())[0] for j in range(k)]
    assert np.array_equal(_solve_tridiagonal_stack(system.copy()), np.array(alone))
    system[:3, 3] = 0.0  # a singular block makes LAPACK refuse the whole stack
    steps = _solve_tridiagonal_stack(system.copy())
    assert np.array_equal(steps[:3], np.array(alone)[:3])
    assert np.isnan(steps[3]).all()
    system[3, 1, 2] = np.nan  # would leak into every block through the elimination
    steps = _solve_tridiagonal_stack(system)
    assert np.array_equal(steps[[0, 2]], np.array(alone)[[0, 2]])
    assert np.isnan(steps[[1, 3]]).all()


def test_batch_input_validation():
    spec = _spec(3.0, "dirichlet")
    with pytest.raises(ValueError, match="shape"):
        solve_resolvent_batch(spec, 0.1, np.zeros(N_NODES))
    with pytest.raises(ValueError, match="finite"):
        solve_resolvent_batch(spec, 0.1, np.full((2, N_NODES), np.nan))
    with pytest.raises(ValueError):
        solve_resolvent_batch(spec, -1.0, np.zeros((2, N_NODES)))
    out = solve_resolvent_batch(spec, 0.1, np.zeros((0, N_NODES)))
    assert out.u.shape == (0, N_NODES) and out.failures == []
