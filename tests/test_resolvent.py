"""Implicit Euler step: contraction, order preservation, resolvent identity."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded

import nlsmooth.resolvent as resolvent
from nlsmooth.harness import random_smooth_field, smooth_bump
from nlsmooth.measure import GridFunction, lq_norm, lq_norm_rows
from nlsmooth.operators import (
    BoundaryCondition,
    DiscreteOperator,
    Grid,
    OperatorSpec,
    PhiSpec,
    linear_perturbation,
    tanh_perturbation,
)
from nlsmooth.resolvent import (
    CG_RTOL,
    NonConvergenceError,
    PreconditionError,
    _solve_tridiagonal_stack,
    solve_resolvent,
    solve_resolvent_batch,
)
from nlsmooth.semigroup import TimeGrid, evolve

N_NODES = 8
CONTRACTION_SLACK = 1e-6
ORDER_SLACK = 1e-8
SOLVER_TOL = 1e-12

values_st = arrays(
    np.float64, (N_NODES,), elements=st.floats(min_value=-5.0, max_value=5.0)
)


def _spec(p, bc_kind="dirichlet", phi=None, perturbation=None):
    bc = BoundaryCondition(bc_kind, b=0.7 if bc_kind == "robin" else 0.0)
    return OperatorSpec(grid=Grid(bounds=((-1.0, 1.0),), shape=(N_NODES,)), p=p, bc=bc,
                        phi=phi or PhiSpec.identity(), perturbation=perturbation)


def test_linear_resolvent_pin():
    # p=2, n=3 on (0,1): lambda = h^2 makes (I + lambda A) the matrix
    # [[3,-1,0],[-1,3,-1],[0,-1,3]]; solving against e_2 gives (1/7, 3/7, 1/7)
    spec = OperatorSpec(grid=Grid(bounds=((0.0, 1.0),), shape=(3,)), p=2.0)
    h = spec.grid.h[0]
    g = GridFunction(spec.space(), [0.0, 1.0, 0.0])
    out = solve_resolvent(spec, h * h, g, tol=1e-14)
    assert np.allclose(out.u.values, [1.0 / 7.0, 3.0 / 7.0, 1.0 / 7.0], atol=1e-12)
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
    assert lq_norm_rows(space.weights, np.maximum(u1.values - u2.values, 0.0), 1) <= (
        lq_norm_rows(space.weights, np.maximum(g1.values - g2.values, 0.0), 1) + ORDER_SLACK)
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


def test_non_convergence_is_reported(monkeypatch):
    spec = _spec(3.0, "dirichlet")
    g = GridFunction(spec.space(), np.ones(N_NODES))
    monkeypatch.setattr(resolvent, "MAX_ITER", 0)
    with pytest.raises(NonConvergenceError) as err:
        solve_resolvent(spec, 1.0, g)
    assert err.value.iterations == 0
    assert err.value.residual > 0.0


def test_2d_neumann_solve_contracts():
    rng = np.random.default_rng(11)
    spec = OperatorSpec(grid=Grid(bounds=((-1.0, 1.0), (-1.0, 1.0)), shape=(5, 4)), p=3.0,
                        bc=BoundaryCondition.neumann())
    space = spec.space()
    g = GridFunction(space, rng.standard_normal(space.n))
    out = solve_resolvent(spec, 0.2, g, tol=1e-11)
    assert out.residual <= 1e-11
    g2 = GridFunction(space, rng.standard_normal(space.n))
    out2 = solve_resolvent(spec, 0.2, g2, tol=1e-11)
    for q in (1.0, 2.0, float("inf")):
        assert lq_norm(out.u - out2.u, q) <= lq_norm(g - g2, q) * (1.0 + 1e-6)


BATCH_CASES = {
    "dirichlet": (_spec(3.0, "dirichlet"), 0.3),
    "neumann": (_spec(1.5, "neumann"), 0.3),
    "robin": (OperatorSpec(grid=Grid(bounds=((-1.0, 1.0),), shape=(N_NODES,)), p=3.0,
                           bc=BoundaryCondition.robin(0.5)), 0.3),
    "phi-power": (_spec(2.0, "neumann", phi=PhiSpec.power(2)), 0.3),
    "tanh": (_spec(3.0, "dirichlet", perturbation=tanh_perturbation(0.5)), 0.3),
    "2d": (OperatorSpec(grid=Grid(bounds=((-1.0, 1.0), (-1.0, 1.0)), shape=(5, 4)), p=3.0,
                        bc=BoundaryCondition.robin(0.5)), 0.2),
    "3d-phi-power": (OperatorSpec(grid=Grid(bounds=((-1.0, 1.0),) * 3, shape=(3, 4, 5)), p=2.0,
                                  bc=BoundaryCondition.neumann(), phi=PhiSpec.power(2)), 0.2),
}


@pytest.mark.parametrize("d, max_iterations", [(1, 8), (2, 10)])
def test_degenerate_porous_medium_resolvent_converges_fast(d, max_iterations):
    # phi'(u) = 2|u| vanishes outside the compact bump when eps_reg = 0; the
    # Newton step must not divide by it
    grid = Grid(bounds=((-5.0, 5.0),) * d, shape=(31,) * d)
    spec = OperatorSpec(grid=grid, p=2.0, phi=PhiSpec.power(2), eps_reg=0.0)
    g = smooth_bump(grid, width=2.0)
    assert np.count_nonzero(g.values == 0.0) > grid.n_total // 4
    out = solve_resolvent(spec, 0.05, g)
    assert out.residual <= resolvent.DEFAULT_TOL and out.iterations <= max_iterations


@pytest.mark.xfail(strict=True, raises=NonConvergenceError, reason=(
    "open defect: the damped Newton iteration from the cold start u = g stalls on fine "
    "1-D grids; this solve needs 7 iterations at n = 31, 112 at n = 961 and at n = 2001 "
    "ends at residual 0.136 after 200 iterations"))
def test_degenerate_porous_medium_resolvent_converges_on_a_fine_1d_grid():
    grid = Grid(bounds=((-5.0, 5.0),), shape=(2001,))
    spec = OperatorSpec(grid=grid, p=2.0, phi=PhiSpec.power(2), eps_reg=0.0)
    out = solve_resolvent(spec, 0.5, smooth_bump(grid, width=2.0))
    assert out.residual <= resolvent.DEFAULT_TOL


def test_scaled_porous_medium_resolvent_keeps_converging_on_64x64():
    # the sqrt(phi')-scaled system keeps CG_RTOL; a forced CG tolerance there
    # stalls this solve, which needs 11 iterations with exact CG solves
    grid = Grid(bounds=((-5.0, 5.0),) * 2, shape=(64, 64))
    spec = OperatorSpec(grid=grid, p=2.0, phi=PhiSpec.power(2), eps_reg=0.0)
    out = solve_resolvent(spec, 0.5, smooth_bump(grid, width=2.0), tol=1e-12)
    assert out.residual <= 1e-12 and out.iterations <= 11


@pytest.mark.parametrize("perturbation", [None, linear_perturbation(-0.5)], ids=["plain", "linear"])
@pytest.mark.parametrize("eps_reg", [0.0, 1e-8])
@pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann", "robin"])
def test_1d_power_phi_newton_step_is_the_sqrt_phi_prime_scaled_step(bc_kind, eps_reg, perturbation):
    # in 1-D gtsv solves (diag(a) + lambda L diag(phi')) delta = -R itself; the step of the SPD system
    # (diag(a) + lambda S L S) y = -S R with S = sqrt(phi'), delta = (-R - lambda L (S y)) / a, is the same
    bc = BoundaryCondition(bc_kind, b=0.7 if bc_kind == "robin" else 0.0)
    grid = Grid(bounds=((-5.0, 5.0),), shape=(201,))
    op = DiscreteOperator(OperatorSpec(grid=grid, p=2.0, bc=bc, phi=PhiSpec.power(2), eps_reg=eps_reg,
                                       perturbation=perturbation))
    lam, G = 0.3, smooth_bump(grid, width=2.0).values
    # the cold start u = g, and an iterate that is negative in places, nonzero at the left face, where the
    # boundary condition acts, and zero from x = 3 to the right face
    x = grid.coordinates()[0]
    U = np.stack([G, G - 0.2 * smooth_bump(grid, center=1.0, width=1.5).values + 0.05 * (x < -1.0)])
    assert U[1, 0] != 0.0 and np.count_nonzero(U == 0.0) > grid.n_total // 2
    _, R, _, *state = resolvent._residual(op, lam, U, np.stack([G, G]))
    step = resolvent._newton_steps(op, lam, U, R, state, np.full(2, CG_RTOL))

    bands = op.diffusion_jacobian(state[0], state[1:])
    a = 1.0 + lam * op.perturbation_derivative(U)
    S = np.sqrt(op.phi_derivative(U))
    # diag(S) L diag(S) in the (sub, diag, super) layout: band k holds L[j - offset_k, j] at column j
    system = lam * bands * S
    system[0, :, :-1] *= S[:, 1:]
    system[1] *= S
    system[2, :, 1:] *= S[:, :-1]
    system[1] += a
    y = _solve_tridiagonal_stack(system, -S * R)
    scaled = (-R - lam * op.jacobian_apply(bands, S * y)) / a
    assert np.isfinite(step).all()
    assert np.abs(step - scaled).max() <= 1e-12 * np.abs(scaled).max()


def _newton_iterates(shape, bc_kind, phi, perturbation, lam, box=None):
    """An operator at eps_reg = 0 on a grid of shape over [-5, 5]^d, or on its window box after the whole grid's
    red-black plan is built, and the rows U, residuals R and state of two iterates: the cold start u = g and an
    iterate that is negative in places and nonzero at the left face, both zero on most nodes."""
    bc = BoundaryCondition(bc_kind, b=0.7 if bc_kind == "robin" else 0.0)
    grid = Grid(bounds=((-5.0, 5.0),) * len(shape), shape=shape)
    op = DiscreteOperator(OperatorSpec(grid=grid, p=3.0, bc=bc, phi=phi, eps_reg=0.0, perturbation=perturbation))
    G = smooth_bump(grid, width=2.0).values
    x = grid.coordinates()[0]
    U = np.stack([G, G - 0.2 * smooth_bump(grid, center=1.0, width=1.5).values + 0.05 * (x < -1.0)])
    if box is not None:
        op.red_black()
        op, inside = op.window(box), lambda X: X.reshape((len(X),) + shape)[(slice(None),) + box].reshape(len(X), -1)
        U, G = inside(U), inside(np.stack([G, G]))[0]
    assert U[1, 0] != 0.0 and np.count_nonzero(U == 0.0) > U.size // 2
    _, R, _, *state = resolvent._residual(op, lam, U, np.stack([G, G]))
    return op, U, R, state


# the even last axis of 24^2, the all-odd strides of 25^2 and 24 x 25, a 3-D grid with both, and a 25^2 window of
# a 40^2 grid, whose plan is not its parent's
NEWTON_CASES = {"24x24": ((24, 24), None), "25x25": ((25, 25), None), "24x25": ((24, 25), None),
                "5x4x3": ((5, 4, 3), None), "window": ((40, 40), (slice(9, 34), slice(4, 29)))}


@pytest.mark.parametrize("case", sorted(NEWTON_CASES))
@pytest.mark.parametrize("perturbation", [None, linear_perturbation(-0.5)], ids=["plain", "linear"])
@pytest.mark.parametrize("phi", [PhiSpec.identity(), PhiSpec.power(2)], ids=["identity", "power"])
@pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann", "robin"])
def test_2d_newton_step_is_the_dense_solve_of_the_unscaled_system(bc_kind, phi, perturbation, case):
    # CG at CG_RTOL on the red-black Schur complement of the Jacobi-scaled unit-diagonal system gives the step
    # of (diag(a) + lambda L diag(phi')) delta = -R, also where phi' = 0 (wherever u = 0 at eps_reg = 0)
    lam = 0.3
    shape, box = NEWTON_CASES[case]
    op, U, R, state = _newton_iterates(shape, bc_kind, phi, perturbation, lam, box)
    if case == "window":
        assert op.shape == (25, 25) and op.red_black().red.size == 313
    step = resolvent._newton_steps(op, lam, U, R, state, np.full(2, CG_RTOL))
    for j in range(2):
        a = 1.0 + lam * op.perturbation_derivative(U[j])
        L = op.diffusion_jacobian_matrix(state[0][j]).toarray()
        dense = np.linalg.solve(np.diag(a) + lam * L * op.phi_derivative(U[j]), -R[j])
        assert np.abs(step[j] - dense).max() <= 1e-10 * np.abs(dense).max()


@pytest.mark.parametrize("phi", [PhiSpec.identity(), PhiSpec.power(2)], ids=["identity", "power"])
@pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann", "robin"])
def test_2d_newton_scaling_is_finite_and_nonnegative_on_every_row(monkeypatch, bc_kind, phi):
    # W = S / sqrt(a + lambda S^2 diag(L)) has a + lambda S^2 diag(L) >= a > 0 on every row; where
    # S = sqrt(phi') = 0, at the zeros of the degenerate porous medium, W = 0
    lam = 0.3
    op, U, R, state = _newton_iterates((24, 24), bc_kind, phi, linear_perturbation(-0.5), lam)
    scalings, solve = [], resolvent._solve_cg_stack
    monkeypatch.setattr(resolvent, "_solve_cg_stack",
                        lambda op, lam, bands, W, *rest: scalings.append(W) or solve(op, lam, bands, W, *rest))
    resolvent._newton_steps(op, lam, U, R, state, np.full(2, CG_RTOL))
    [W] = scalings
    assert W.shape == U.shape and np.isfinite(W).all() and (W >= 0.0).all()
    if phi.kind == "power":
        assert np.array_equal(W == 0.0, U == 0.0)
    else:
        assert (W > 0.0).all()


def test_forcing_saves_cg_iterations(monkeypatch):
    grid = Grid(bounds=((-5.0, 5.0),) * 2, shape=(64, 64))
    spec = OperatorSpec(grid=grid, p=3.0, bc=BoundaryCondition.dirichlet())
    g = random_smooth_field(grid, 3)
    # count CG iterations as perfbench's tracer does: wrap the module-level cg
    count = [0]
    plain_cg = resolvent.cg

    def counting_cg(*args, **kwargs):
        kwargs["callback"] = lambda xk: count.__setitem__(0, count[0] + 1)
        return plain_cg(*args, **kwargs)

    monkeypatch.setattr(resolvent, "cg", counting_cg)
    out = solve_resolvent(spec, 0.5, g, tol=1e-12)
    assert out.residual <= 1e-12 and out.iterations <= 10
    forced = count[0]
    assert forced <= 199  # under half of the 398 with every CG solve at CG_RTOL
    monkeypatch.setattr(resolvent, "_forcing", lambda rn, *_: np.full_like(rn, CG_RTOL))
    exact = solve_resolvent(spec, 0.5, g, tol=1e-12)
    assert count[0] - forced >= 2 * forced
    assert lq_norm(out.u - exact.u, 2) <= 1e-10


def _newton_system_64x64():
    """The first Newton system of a 64^2 p = 3 resolvent as _newton_steps hands it to _solve_cg_stack: the
    operator, the Jacobian bands, the scaling W = 1 / sqrt(1 + 0.5 diag(L)) and the right-hand side -W R of the
    scaled system I + 0.5 W L' W."""
    grid = Grid(bounds=((-5.0, 5.0),) * 2, shape=(64, 64))
    op = DiscreteOperator(OperatorSpec(grid=grid, p=3.0))
    G = random_smooth_field(grid, 3).values[None, :]
    _, R, _, *state = resolvent._residual(op, 0.5, G.copy(), G)
    bands = op.diffusion_jacobian(state[0][0])
    W = 1.0 / np.sqrt(1.0 + 0.5 * bands[op.d])
    return op, bands, W, -W * R[0]


def _schur_system_64x64():
    """The product x -> S x that _solve_cg_stack gives CG for the system of _newton_system_64x64 and its reduced
    right-hand side b_S = b_r - N_rb b_b, with the operator, the bands, W and b."""
    op, bands, W, b = _newton_system_64x64()
    lower, upper = resolvent._schur_complement(op, 0.5, bands, W)
    plan = op.red_black()
    return (lambda x: upper(x, lower(x))), upper(b[plan.red], b[plan.black]).copy(), (op, bands, W, b)


def _scipy_schur_product(op, lam, bands, W):
    """x -> S x for the same system by scipy's own sparse products in the kernel's row order: the DIA matrix of
    N_br, then the CSR matrix [I, -N_rb] with each row's columns ascending, applied to x stacked on N_br x."""
    from scipy import sparse

    plan = op.red_black()
    n_br = sparse.dia_array((lam * op.red_black_couplings(bands, W), plan.offsets),
                            shape=(plan.black.size, plan.red.size))
    upper = sparse.hstack([sparse.eye_array(plan.red.size), -n_br.T], format="csr")
    upper.sort_indices()
    return lambda x: upper @ np.concatenate([x, n_br @ x])


def _counted(solver, *args, **kwargs):
    """solver's (x, info) and how many times it called its callback."""
    calls = []
    x, info = solver(*args, callback=calls.append, **kwargs)
    return x, info, len(calls)


@pytest.mark.parametrize("rtol, maxiter", [(CG_RTOL, 20 * 2048), (0.1, 20 * 2048), (CG_RTOL, 7)],
                         ids=["cg-rtol", "forcing-max", "maxiter"])
def test_cg_iterates_are_scipy_cg_bit_for_bit(rtol, maxiter):
    # ours multiplies by the Schur complement through two calls of scipy's DIA kernel on the half-length
    # bands; scipy's cg, without a preconditioner, multiplies by scipy's own sparse matrices of the two halves
    from scipy.sparse.linalg import LinearOperator, cg

    product, b, system = _schur_system_64x64()
    ours = _counted(resolvent.cg, product, b, rtol, maxiter)
    A = LinearOperator((b.size, b.size), matvec=_scipy_schur_product(system[0], 0.5, *system[1:3]), dtype=float)
    theirs = _counted(cg, A, b, rtol=rtol, atol=0.0, maxiter=maxiter)
    assert np.array_equal(ours[0], theirs[0]) and ours[1:] == theirs[1:]
    assert ours[1] == (7 if maxiter == 7 else 0) and ours[2] > 1


def test_cg_edge_cases_return_at_once():
    A, b, _ = _schur_system_64x64()
    x, info, calls = _counted(resolvent.cg, A, np.zeros_like(b), CG_RTOL, 100)
    assert info == 0 and calls == 0 and np.array_equal(x, np.zeros_like(b))
    # a matrix that is not positive definite, here -A, breaks down at the first step instead of using all
    # maxiter iterations
    x, info, calls = _counted(resolvent.cg, lambda v: -A(v), b, CG_RTOL, 100)
    assert info != 0 and calls == 0
    # so does a NaN right-hand side
    b[17] = np.nan
    x, info, calls = _counted(resolvent.cg, A, b, CG_RTOL, 100)
    assert info != 0 and calls == 0


def test_a_reduced_solve_meets_its_forcing_term_on_the_whole_scaled_system(monkeypatch):
    # CG on the Schur complement stops at rtol |b| / |b_S| of its own residual |S y_r - b_S|, which is the
    # residual of the whole scaled system M y = b, since the back-substitution zeroes its black rows. This b,
    # smooth, has |b_S| well above |b|; at the first rtol where CG stopped at rtol |b_S| leaves more than
    # rtol |b| on M, the solve must not
    from scipy import sparse

    _, reduced, (op, bands, W, b) = _schur_system_64x64()
    assert np.linalg.norm(reduced) > 1.2 * np.linalg.norm(b)
    L = sparse.dia_array((bands, op.offsets), shape=(b.size, b.size))
    M = sparse.eye_array(b.size) + 0.5 * (sparse.diags_array(W) @ (L - sparse.diags_array(L.diagonal()))
                                          @ sparse.diags_array(W))
    residual = lambda: np.linalg.norm(M @ resolvent._solve_cg_stack(op, 0.5, bands[:, None], W[None], b[None],
                                                                     np.array([rtol]))[0] - b)
    plain_cg = resolvent.cg
    for rtol in 0.1 * 0.8 ** np.arange(40):
        with monkeypatch.context() as m:
            m.setattr(resolvent, "cg", lambda matvec, b_s, _, maxiter: plain_cg(matvec, b_s, rtol, maxiter))
            if residual() > rtol * np.linalg.norm(b):
                break
    else:
        pytest.fail("CG at rtol |b_S| met rtol |b| at every rtol tried")
    assert residual() <= rtol * np.linalg.norm(b)


def _in_a_fresh_interpreter(script):
    """The stdout of script run by a new python that imports nlsmooth from this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(resolvent.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env).stdout


_SOLVE = """
from nlsmooth.harness import smooth_bump
from nlsmooth.operators import DiscreteOperator, Grid, OperatorSpec
from nlsmooth.resolvent import solve_resolvent
solutions = []
for shape in SHAPES:
    grid = Grid(bounds=((-4.0, 4.0),) * len(shape), shape=shape)
    solutions.append(solve_resolvent(OperatorSpec(grid=grid, p=3.0), 0.1, smooth_bump(grid)).u.values)
"""
_SOLVE_1D_AND_2D = "SHAPES = ((201,), (24, 24))\n" + _SOLVE
_PRINT_SOLUTIONS = "\nfor u in solutions:\n    print(u.tobytes().hex())\n"

# what a process has loaded of scipy: the modules scipy and _hashlib (OpenSSL), every module under
# scipy.linalg or scipy.sparse, and which of the solvers' two compiled kernel modules it has mapped
_LOADED = """
import os
mapped = {os.path.basename(line.split()[-1]).split(".")[0] for line in open("/proc/self/maps")}
print(" ".join(sorted({m for m in ("scipy", "_hashlib") if m in sys.modules}
                      | {m for m in sys.modules if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "sparse"])}
                      | {m for m in ("_flapack", "_sparsetools") if m in mapped})))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads the mapped files from /proc/self/maps")
@pytest.mark.parametrize("shapes, expected", [
    ((), set()),
    (((201,),), {"scipy", "_flapack"}),
    (((24, 24),), {"scipy", "_sparsetools"}),
    (((201,), (24, 24)), {"scipy", "_flapack", "_sparsetools"}),
], ids=["import", "1d", "2d", "1d-and-2d"])
def test_importing_and_solving_loads_only_two_scipy_extensions(shapes, expected):
    # importing nlsmooth loads neither scipy nor OpenSSL (no random numbers are drawn here: numpy.random
    # loads _hashlib itself); the first solve in 1-D loads LAPACK's _flapack, the first in more dimensions
    # _sparsetools; nothing else under scipy.linalg or scipy.sparse, neither the packages themselves, whose
    # set-up loads numpy.testing among others, nor a sys.modules entry for either extension
    script = f"import sys\nimport nlsmooth\nSHAPES = {shapes!r}\n" + _SOLVE + _LOADED
    assert set(_in_a_fresh_interpreter(script).split()) == expected


def test_solves_after_importing_scipy_use_its_extensions_and_agree_bit_for_bit():
    # the extensions of packages imported before the first solve are taken from sys.modules: no file is
    # loaded a second time, and the solutions are bitwise those of a process that never imported them
    script = """import importlib.machinery
import scipy.linalg, scipy.sparse


class LoadedAgain(importlib.machinery.ExtensionFileLoader):
    def create_module(self, spec):
        raise ImportError(f"{spec.name} is loaded a second time")


importlib.machinery.ExtensionFileLoader = LoadedAgain
import nlsmooth
from nlsmooth import resolvent
""" + _SOLVE_1D_AND_2D + _PRINT_SOLUTIONS + """
assert resolvent._scipy_extension("linalg._flapack") is scipy.linalg._flapack
assert resolvent._scipy_extension("sparse._sparsetools") is scipy.sparse._sparsetools
"""
    solutions = _in_a_fresh_interpreter(script).split()
    assert len(solutions) == 2
    assert solutions == _in_a_fresh_interpreter("import nlsmooth\n" + _SOLVE_1D_AND_2D + _PRINT_SOLUTIONS).split()


def test_scipy_imports_and_agrees_bit_for_bit_after_nlsmooth():
    # the extensions that nlsmooth loads from their files leave no entry in sys.modules that would
    # keep a later import of their packages from binding them as attributes
    script = "import numpy as np\nimport nlsmooth\nfrom nlsmooth import resolvent\n" + _SOLVE_1D_AND_2D + """
import scipy.linalg, scipy.sparse.linalg
assert scipy.linalg._flapack.dgtsv is scipy.linalg.lapack.dgtsv
assert callable(scipy.sparse._sparsetools.dia_matvec)
rng = np.random.default_rng(0)
# a diagonally dominant tridiagonal system in the (sub, diag, super) layout of solve_banded
n = 257
bands = rng.uniform(-1.0, 1.0, (3, n))
bands[1] += 3.0
bands[0, -1] = bands[2, 0] = 0.0
rhs = rng.standard_normal(n)
dl, d, du, x, info = scipy.linalg.lapack.dgtsv(bands[0, :-1], bands[1], bands[2, 1:], rhs)
assert info == 0 and np.array_equal(x, resolvent.solve_banded(bands, rhs))
# the red-black Schur complement of a scaled SPD 2-D Newton system, as _solve_cg_stack builds it: its lower
# half product is bitwise scipy's DIA product, and scipy's cg on the whole product takes our cg's iterates
grid = Grid(bounds=((-4.0, 4.0),) * 2, shape=(24, 24))
op = DiscreteOperator(OperatorSpec(grid=grid, p=3.0))
bands = op.diffusion_jacobian(rng.standard_normal(grid.n_total))
W = 1.0 / np.sqrt(1.0 + 0.1 * bands[op.d])
plan = op.red_black()
lower, upper = resolvent._schur_complement(op, 0.1, bands, W)
b = rng.standard_normal(plan.red.size)
n_br = scipy.sparse.dia_array((0.1 * op.red_black_couplings(bands, W), plan.offsets),
                              shape=(plan.black.size, plan.red.size))
assert np.array_equal(lower(b), n_br @ b)
product = lambda x: upper(x, lower(x))
ours, info = resolvent.cg(product, b, 1e-12, 1000)
A = scipy.sparse.linalg.LinearOperator((b.size, b.size), matvec=product, dtype=float)
theirs, their_info = scipy.sparse.linalg.cg(A, b, rtol=1e-12, atol=0.0, maxiter=1000)
assert info == their_info == 0 and np.array_equal(ours, theirs)
print("ok")
"""
    assert _in_a_fresh_interpreter(script).split() == ["ok"]


def test_a_missing_scipy_extension_is_named():
    with pytest.raises(ImportError, match=re.escape(os.path.join("linalg", "_nothing") + "{")):
        resolvent._scipy_extension("linalg._nothing")


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
    spec = OperatorSpec(grid=Grid(bounds=((-1.0, 1.0),), shape=(64,)), p=1.5, bc=BoundaryCondition.dirichlet())
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


def test_a_member_whose_residual_is_not_finite_fails_alone():
    # the residual of the middle row overflows to NaN, so it must fail, not leave as converged with u = g
    spec = _spec(3.0, "dirichlet")
    rng = np.random.default_rng(14)
    G = np.stack([rng.standard_normal(N_NODES), [0.0, 1e155, -1e155, 0.0, 1e155, 0.0, 0.0, 0.0],
                  rng.standard_normal(N_NODES)])
    with np.errstate(over="ignore", invalid="ignore"):
        out = solve_resolvent_batch(spec, 0.1, G, tol=SOLVER_TOL)
        with pytest.raises(NonConvergenceError) as err:
            solve_resolvent(spec, 0.1, GridFunction(spec.space(), G[1]), tol=SOLVER_TOL)
    assert out.converged.tolist() == [True, False, True]
    assert out.failures[1] == str(err.value) == "residual is not finite: residual nan after 0 iterations"
    for k in (0, 2):
        solo = solve_resolvent(spec, 0.1, GridFunction(spec.space(), G[k]), tol=SOLVER_TOL)
        assert np.array_equal(out.u[k], solo.u.values)
        assert out.iterations[k] == solo.iterations and out.residual[k] == solo.residual


def test_the_damped_picard_sweep_is_the_line_search_along_minus_r(monkeypatch):
    # a draw of test_resolvent_is_complete_contraction whose Newton step finds no
    # descent at iteration 2 (residual 0.094), the one tier-1 solve that reaches the sweep
    spec = _spec(1.5, "robin")
    g = GridFunction(spec.space(), [0.25202664996904467, 5.358591060774065e-263, -1.6038249096607244,
                                    2.225073858507e-311, -4.999999999999999, -0.0, 4.8010693124660015,
                                    4.549408132320763e-225])
    searches = []
    line_search = resolvent._line_search

    def recording(op, lam, G, U, rn, direction):
        minus_r = np.array_equal(direction, -(U + lam * op.apply_values(U) - G))
        new, missed = line_search(op, lam, G, U, rn, direction)
        new_u, new_rn, found = new[0], new[2], ~np.isin(np.arange(len(U)), missed)
        # an accepted row passed the Armijo test at some t = 2^-j
        lengths = [0.5**j for j in range(resolvent.MAX_BACKTRACKS)]
        armijo = [any(np.array_equal(new_u[i], U[i] + t * direction[i])
                      and new_rn[i] <= (1.0 - resolvent.ARMIJO_SLOPE * t) * rn[i] for t in lengths)
                  for i in np.flatnonzero(found)]
        searches.append((len(U), minus_r, found.tolist(), all(armijo)))
        return new, missed

    monkeypatch.setattr(resolvent, "_line_search", recording)
    out = solve_resolvent(spec, 0.01, g, tol=SOLVER_TOL)
    assert out.iterations == 6 and out.residual <= SOLVER_TOL
    # the Newton searches of iterations 0-5, and after the failed one of
    # iteration 2 the sweep along -R, which found a step
    newton = (1, False, [True], True)
    assert searches == [newton] * 2 + [(1, False, [False], True), (1, True, [True], True)] + [newton] * 3


def test_batch_bookkeeping_matches_solo_solves(monkeypatch):
    # members that converge, find no descent or run out of iterations, side by
    # side; each must come out as it does alone
    spec = OperatorSpec(grid=Grid(bounds=((-1.0, 1.0),), shape=(64,)), p=1.5, bc=BoundaryCondition.neumann())
    G = np.random.default_rng(7).standard_normal((40, 64))
    monkeypatch.setattr(resolvent, "MAX_ITER", 15)
    out = solve_resolvent_batch(spec, 1.0, G, tol=1e-12)
    kinds = [f if f is None else f.split(":")[0] for f in out.failures]
    assert [kinds.count(kind) for kind in (None, "no descent found", "resolvent did not converge")] == [13, 3, 24]
    for k in range(len(G)):
        solo = solve_resolvent_batch(spec, 1.0, G[k : k + 1], tol=1e-12)
        assert np.array_equal(out.u[k], solo.u[0])
        assert out.residual[k] == solo.residual[0] and out.iterations[k] == solo.iterations[0]
        assert out.converged[k] == solo.converged[0] and out.failures[k] == solo.failures[0]


@pytest.mark.parametrize("perturbed", ["op", "spec"])
@pytest.mark.parametrize("entry", ["solve_resolvent", "solve_resolvent_batch", "evolve"])
def test_an_operator_of_another_spec_is_refused(entry, perturbed):
    # lambda L = 2.5: checked against the plain spec and solved with the perturbed
    # operator, this step grew max u from 0.985 to 1.46
    plain = _spec(3.0, "dirichlet")
    strong = _spec(3.0, "dirichlet", perturbation=linear_perturbation(-5.0))
    spec, op_spec = (plain, strong) if perturbed == "op" else (strong, plain)
    op, g = DiscreteOperator(op_spec), smooth_bump(spec.grid, width=0.9)
    calls = {
        "solve_resolvent": lambda: solve_resolvent(spec, 0.5, g, op=op),
        "solve_resolvent_batch": lambda: solve_resolvent_batch(spec, 0.5, g.values[None, :], op=op),
        "evolve": lambda: evolve(spec, g, TimeGrid(t_end=0.5, n_steps=1), op=op),
    }
    with pytest.raises(ValueError, match=re.escape(f"op is the operator of {op_spec}, not of spec = {spec}")):
        calls[entry]()


def _split(system):
    """The bands and right-hand sides of a (4, k, n) stack."""
    return system[:3], system[3]


def test_stacked_tridiagonal_solve_isolates_bad_blocks():
    rng = np.random.default_rng(13)
    k, n = 4, 6
    system = np.zeros((4, k, n))  # sub-, main and superdiagonal bands, then the right-hand sides
    system[0, :, :-1] = rng.uniform(-1.0, 0.0, (k, n - 1))
    system[1] = 3.0
    system[2, :, 1:] = rng.uniform(-1.0, 0.0, (k, n - 1))
    system[3] = rng.standard_normal((k, n))
    alone = [_solve_tridiagonal_stack(*_split(system[:, j : j + 1].copy()))[0] for j in range(k)]
    assert np.array_equal(_solve_tridiagonal_stack(*_split(system.copy())), np.array(alone))
    system[:3, 3] = 0.0  # a singular block makes LAPACK refuse the whole stack
    steps = _solve_tridiagonal_stack(*_split(system.copy()))
    assert np.array_equal(steps[:3], np.array(alone)[:3])
    assert np.isnan(steps[3]).all()
    system[3, 1, 2] = np.nan  # would leak into every block through the elimination
    steps = _solve_tridiagonal_stack(*_split(system))
    assert np.array_equal(steps[[0, 2]], np.array(alone)[[0, 2]])
    assert np.isnan(steps[[1, 3]]).all()


@pytest.mark.parametrize("n", [64, 2001])
@pytest.mark.parametrize("k", [1, 3])
def test_stacked_tridiagonal_solve_equals_scipy_solve_banded(k, n):
    rng = np.random.default_rng(k * n)
    system = np.zeros((4, k, n))  # sub-, main and superdiagonal bands, then the right-hand sides
    system[0, :, :-1] = -rng.uniform(0.0, 1.0, (k, n - 1))
    system[1] = rng.uniform(0.5, 2.5, (k, n))  # not dominant, so gtsv pivots within blocks
    system[2, :, 1:] = -rng.uniform(0.0, 1.0, (k, n - 1))
    system[3] = rng.standard_normal((k, n))
    steps = _solve_tridiagonal_stack(*_split(system.copy()))
    for j in range(k):
        # scipy's banded layout puts the superdiagonal first
        assert np.array_equal(steps[j], solve_banded((1, 1), system[2::-1, j], system[3, j]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_right_hand_side_that_is_not_finite_gives_a_row_that_is_not(bad):
    # only the bands are checked before the stacked solve: a right-hand side
    # that is not finite spoils the solution, which sends the stack to the
    # one-by-one solves; a lone block comes back as LAPACK solved it
    rng = np.random.default_rng(16)
    k, n = 3, 9
    system = np.zeros((4, k, n))  # sub-, main and superdiagonal bands, then the right-hand sides
    system[0, :, :-1] = -rng.uniform(0.0, 1.0, (k, n - 1))
    system[1] = 3.0
    system[2, :, 1:] = -rng.uniform(0.0, 1.0, (k, n - 1))
    system[3] = rng.standard_normal((k, n))
    alone = np.array([_solve_tridiagonal_stack(*_split(system[:, j : j + 1].copy()))[0] for j in range(k)])
    system[3, 1, 4] = bad
    steps = _solve_tridiagonal_stack(*_split(system.copy()))
    assert np.isnan(steps[1]).all() and np.array_equal(steps[[0, 2]], alone[[0, 2]])
    assert not np.isfinite(_solve_tridiagonal_stack(*_split(system[:, 1:2].copy()))).all()


def test_a_lone_zero_pivot_block_comes_back_nan():
    system = np.zeros((4, 1, 5))
    system[1] = 1.0
    system[1, 0, 2] = 0.0  # a zero row: gtsv reports info > 0
    system[3] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded((1, 1), system[2::-1, 0], system[3, 0])
    assert np.isnan(_solve_tridiagonal_stack(*_split(system))).all()


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


@pytest.mark.parametrize("n", [40, 30])
def test_solve_resolvent_refuses_a_grid_function_from_another_grid(n):
    spec = OperatorSpec(grid=Grid(bounds=((-1.0, 1.0),), shape=(40,)), p=3.0)
    bump = smooth_bump(Grid(bounds=((-5.0, 5.0),), shape=(n,)))
    message = re.escape(f"g lives on {bump.space}, but the operator acts on {spec.space()}")
    with pytest.raises(ValueError, match=message):
        solve_resolvent(spec, 0.1, bump)


@pytest.mark.parametrize("scale", [1.0, 8.0], ids=["full-step", "backtracking"])
def test_a_row_whose_direction_is_not_finite_tries_t_1_only(monkeypatch, scale):
    # a failed gtsv or CG hands the line search a NaN direction; such a row has
    # no finite trial at any t, so it must cost no residual after the t = 1 trial
    spec = _spec(3.0, "dirichlet")
    op, lam = DiscreteOperator(spec), 0.1
    G = np.random.default_rng(15).standard_normal((2, N_NODES))
    U, R, rn, *state = resolvent._residual(op, lam, G.copy(), G)
    direction = scale * resolvent._newton_steps(op, lam, U, R, state, np.full(2, CG_RTOL))
    direction[1] = np.nan
    calls = []
    residual = resolvent._residual

    def counting(op, lam, U, G):
        calls.append(len(U))
        return residual(op, lam, U, G)

    monkeypatch.setattr(resolvent, "_residual", counting)
    new, missed = resolvent._line_search(op, lam, G, U, rn, direction)
    both = list(calls)
    calls.clear()
    alone, alone_missed = resolvent._line_search(op, lam, G[:1], U[:1], rn[:1], direction[:1])
    assert missed.tolist() == [1] and alone_missed.tolist() == []
    # the NaN row rides along in the t = 1 trial only
    assert both == [2] + [1] * (len(calls) - 1)
    assert (len(calls) > 1) == (scale > 1.0)
    for a, b in zip(new, alone):
        assert np.array_equal(a[:1], b)


@pytest.mark.parametrize("flow", ["p3", "porous-medium"])
def test_face_gradients_are_computed_once_per_residual_and_never_for_a_jacobian(monkeypatch, flow):
    # the Newton step builds its Jacobian from the state that the residual
    # evaluation of its iterate returned, instead of differencing phi(u) again;
    # outside the solves, the time-error estimator differences each state once, for its energy
    grid = Grid(bounds=((-20.0, 20.0),), shape=(801,))
    spec = (OperatorSpec(grid=grid, p=3.0) if flow == "p3"
            else OperatorSpec(grid=grid, p=2.0, phi=PhiSpec.power(2.0)))
    counts = dict(gradients=0, residuals=0, jacobians=0, gradients_in_jacobians=0, energies=0)
    in_jacobian = []
    gradients, jacobian, residual, energy = (DiscreteOperator._gradients, DiscreteOperator.diffusion_jacobian,
                                             resolvent._residual, DiscreteOperator.energy)

    def counting_gradients(self, W):
        counts["gradients"] += 1
        counts["gradients_in_jacobians"] += bool(in_jacobian)
        return gradients(self, W)

    def counting_jacobian(self, *args):
        counts["jacobians"] += 1
        in_jacobian.append(True)
        try:
            return jacobian(self, *args)
        finally:
            in_jacobian.pop()

    def counting_residual(*args):
        counts["residuals"] += 1
        return residual(*args)

    def counting_energy(self, v):
        counts["energies"] += 1
        return energy(self, v)

    monkeypatch.setattr(DiscreteOperator, "_gradients", counting_gradients)
    monkeypatch.setattr(DiscreteOperator, "diffusion_jacobian", counting_jacobian)
    monkeypatch.setattr(resolvent, "_residual", counting_residual)
    monkeypatch.setattr(DiscreteOperator, "energy", counting_energy)
    evolve(spec, smooth_bump(grid, width=0.5), TimeGrid(t_end=1.0, n_steps=20))
    assert counts["jacobians"] >= 20 and counts["gradients_in_jacobians"] == 0
    assert counts["energies"] == (21 if flow == "p3" else 0)  # u0 and the state of each step
    assert counts["gradients"] == counts["residuals"] + counts["energies"] > counts["jacobians"]
