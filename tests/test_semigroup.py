"""Implicit Euler evolution: contraction in time, conservation, the chained resolvent."""

import csv
import math
import re

import numpy as np
import pytest

import nlsmooth.resolvent as resolvent
from nlsmooth.harness import random_smooth_field, smooth_bump
from nlsmooth.measure import GridFunction, lq_norm, mass
from nlsmooth.operators import (
    BoundaryCondition,
    DiscreteOperator,
    Grid,
    OperatorSpec,
    PhiSpec,
    barenblatt_on_grid,
    barenblatt_support_radius,
    tanh_perturbation,
)
from nlsmooth.resolvent import NonConvergenceError, solve_resolvent
import nlsmooth.semigroup as semigroup
from nlsmooth.semigroup import (
    COLUMNS,
    EVOLVE_TOL,
    TimeGrid,
    evolve,
    gradient_flow,
    trajectory_to_csv,
)

N_NODES = 32
NORM_SLACK = 1e-9
ORDER_SLACK = 1e-8
SOLVER_TOL = 1e-12


def _spec(p=3.0, bc_kind="dirichlet", phi=None, perturbation=None):
    bc = BoundaryCondition(bc_kind)
    return OperatorSpec(grid=Grid(bounds=((-1.0, 1.0),), shape=(N_NODES,)), p=p, bc=bc,
                        phi=phi or PhiSpec.identity(), perturbation=perturbation)


def _bump(spec, scale=1.0):
    (x,) = spec.grid.coordinates()
    return GridFunction(spec.space(), scale * np.exp(-4.0 * x * x))


def test_time_grid_basics():
    tg = TimeGrid(t_end=2.0, n_steps=8)
    assert tg.dt == 0.25
    assert np.allclose(tg.times(), np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("t_end, n_steps", [(2.0, 8), (0.3, 3), (1.0, 7), (50.0, 4000)])
def test_uniform_steps_are_bitwise_the_one_step(t_end, n_steps):
    tg = TimeGrid(t_end, n_steps)
    assert tg.dt == t_end / n_steps
    assert math.fsum([tg.dt] * n_steps) == pytest.approx(t_end, rel=1e-14)


@pytest.mark.parametrize("phi, p", [(PhiSpec.identity(), 3.0), (PhiSpec.power(2.0), 2.0)], ids=["l2", "h-1"])
@pytest.mark.parametrize("t_end", [0.3, 1.0 / 3.0, 7.3])
def test_the_last_controlled_step_ends_exactly_at_t_end(phi, p, t_end):
    spec = _spec(p=p, phi=phi)
    tg = TimeGrid(t_end, t_first=1e-3, tol=1e-3)
    traj = evolve(spec, _bump(spec), tg)
    t = traj.times
    assert t[0] == 0.0 and t[1] <= 1e-3 and t[-1] == t_end
    assert np.all(np.diff(t) > 0.0)
    assert traj.eta.shape == (t.size - 1,) and traj.table.shape == (t.size, len(COLUMNS))
    with pytest.raises(ValueError, match="the controller picks the steps"):
        tg.times()


_BAD_T_FIRST = "t_first must be a finite number with 0 < t_first < t_end = 1, got "
_BAD_TOL = "tol must be a number with 0 < tol < 1, got "


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(t_end=0.0, n_steps=4), "t_end must be a positive finite number, got 0.0"),
        (dict(t_end=math.inf, n_steps=4), "t_end must be a positive finite number, got inf"),
        (dict(t_end="50", n_steps=4), "t_end must be a positive finite number, got '50'"),
        (dict(t_end=True, n_steps=4), "t_end must be a positive finite number, got True"),
        (dict(t_end=1.0, n_steps=0), "n_steps must be an integer >= 1, got 0"),
        (dict(t_end=1.0, n_steps=400.7), "n_steps must be an integer >= 1, got 400.7"),
        (dict(t_end=1.0, n_steps=True), "n_steps must be an integer >= 1, got True"),
        (dict(t_end=1.0), "n_steps must be an integer >= 1, got None"),
        (dict(t_end=1.0, n_steps=4, t_first=0.1), "t_first is read only with tol, the step controller's tolerance"),
        (dict(t_end=1.0, t_first=1.0, tol=1e-3), _BAD_T_FIRST + "1.0"),
        (dict(t_end=1.0, t_first=0.0, tol=1e-3), _BAD_T_FIRST + "0.0"),
        (dict(t_end=1.0, t_first=math.nan, tol=1e-3), _BAD_T_FIRST + "nan"),
        (dict(t_end=1.0, t_first="0.1", tol=1e-3), _BAD_T_FIRST + "'0.1'"),
        (dict(t_end=1.0, tol=1e-3), "tol needs t_first, the end of the controller's first step"),
        (dict(t_end=1.0, n_steps=4, t_first=0.1, tol=1e-3),
         "n_steps is not read with tol, whose controller picks the steps, got 4"),
        (dict(t_end=1.0, t_first=0.1, tol=0.0), _BAD_TOL + "0.0"),
        (dict(t_end=1.0, t_first=0.1, tol=1.0), _BAD_TOL + "1.0"),
        (dict(t_end=1.0, t_first=0.1, tol=math.nan), _BAD_TOL + "nan"),
        (dict(t_end=1.0, t_first=0.1, tol="0.1"), _BAD_TOL + "'0.1'"),
        (dict(t_end=1.0, t_first=0.1, tol=True), _BAD_TOL + "True"),
    ],
)
def test_time_grid_names_a_bad_field(kwargs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        TimeGrid(**kwargs)


def test_zero_initial_state_stays_zero():
    for kind in ("dirichlet", "neumann"):
        spec = _spec(bc_kind=kind, perturbation=tanh_perturbation(0.3))
        z = GridFunction(spec.space(), np.zeros(N_NODES))
        traj = evolve(spec, z, TimeGrid(0.5, 10))
        assert np.all(traj.norm_linf == 0.0)
        assert np.all(traj.mass == 0.0)


def test_composition_property():
    # same dt run as one leg or two legs lands on the same state
    spec = _spec(p=3.0)
    u0 = _bump(spec)
    whole = evolve(spec, u0, TimeGrid(1.0, 40)).final
    half = evolve(spec, u0, TimeGrid(0.5, 20)).final
    two_leg = evolve(spec, half, TimeGrid(0.5, 20)).final
    assert lq_norm(whole - two_leg, "inf") <= 1e-9


def test_flow_is_non_expansive():
    rng = np.random.default_rng(3)
    spec = _spec(p=1.5, bc_kind="neumann")
    space = spec.space()
    u0 = GridFunction(space, rng.standard_normal(N_NODES))
    v0 = GridFunction(space, rng.standard_normal(N_NODES))
    tg = TimeGrid(0.5, 25)
    u = evolve(spec, u0, tg).final
    v = evolve(spec, v0, tg).final
    for q in (1.0, 2.0, float("inf")):
        assert lq_norm(u - v, q) <= lq_norm(u0 - v0, q) * (1.0 + 1e-6)


def test_flow_preserves_order():
    rng = np.random.default_rng(4)
    spec = _spec(p=3.0)
    space = spec.space()
    lower = GridFunction(space, rng.standard_normal(N_NODES))
    upper = lower + GridFunction(space, np.abs(rng.standard_normal(N_NODES)))
    tg = TimeGrid(0.4, 20)
    u = evolve(spec, lower, tg).final
    v = evolve(spec, upper, tg).final
    assert np.all(v.values >= u.values - ORDER_SLACK)


def test_norms_decrease_without_forcing():
    cases = (
        _spec(p=3.0, bc_kind="dirichlet"),
        _spec(p=2.0, bc_kind="neumann", phi=PhiSpec.power(2.0)),
    )
    for spec in cases:
        traj = evolve(spec, _bump(spec), TimeGrid(1.0, 50))
        for series in (traj.norm_l1, traj.norm_l2, traj.norm_linf):
            rises = np.diff(series)
            assert rises.max(initial=-np.inf) <= NORM_SLACK * max(1.0, series[0])


def test_neumann_flow_conserves_mass():
    for phi in (PhiSpec.identity(), PhiSpec.power(2.0)):
        spec = _spec(p=2.0, bc_kind="neumann", phi=phi)
        traj = evolve(spec, _bump(spec), TimeGrid(2.0, 80))
        drift = np.abs(traj.mass - traj.mass[0]).max()
        assert drift / 2.0 <= 1e-8 * max(1.0, abs(traj.mass[0]))


def test_3d_neumann_flow_conserves_mass():
    grid = Grid(bounds=((-1.0, 1.0), (-1.0, 1.0), (0.0, 1.5)), shape=(6, 7, 8))
    spec = OperatorSpec(grid=grid, p=3.0, bc=BoundaryCondition.neumann())
    t_end = 0.5
    traj = evolve(spec, random_smooth_field(grid, seed=5), TimeGrid(t_end, 12))
    assert np.ptp(traj.norm_linf) > 0.1 * traj.norm_linf[0]  # the flow does move
    assert np.abs(traj.mass - traj.mass[0]).max() / t_end <= 1e-8  # the conservation_suite bound


def test_2d_flow_is_bitwise_the_same_with_a_csr_newton_matrix(monkeypatch):
    grid = Grid(bounds=((-4.0, 4.0), (-4.0, 4.0)), shape=(32, 32))
    spec = OperatorSpec(grid=grid, p=3.0)
    u0, tg = random_smooth_field(grid, seed=0), TimeGrid(0.1, 2)
    dia = evolve(spec, u0, tg)
    calls = []

    def csr_halves(offsets, br, rb):
        # the two half products of the Schur complement, as CSR matrices instead of the DIA kernel: N_br, and
        # [I, -N_rb] applied to x stacked on t; each row holds its terms in ascending column order, unit
        # diagonal first, the order in which the kernel adds them
        from scipy import sparse

        calls.append(1)
        (n_bands, n_red), n_black = br.shape, rb.shape[1]
        n_br = sparse.dia_array((br, offsets), shape=(n_black, n_red)).tocsr()
        n_rb = sparse.dia_array((rb, -offsets[::-1]), shape=(n_red, n_black))
        upper = sparse.hstack([sparse.eye_array(n_red), n_rb], format="csr")
        for matrix in (n_br, upper):
            matrix.sort_indices()
        return n_br.__matmul__, lambda x, t: upper @ np.concatenate([x, t])

    monkeypatch.setattr(resolvent, "_half_products", csr_halves)
    csr = evolve(spec, u0, tg)
    assert calls  # the 2-D Newton steps went through the CSR matrices
    assert np.ptp(dia.norm_linf) > 0.0
    for series in ("norm_l1", "norm_l2", "norm_linf"):
        assert np.array_equal(getattr(dia, series), getattr(csr, series))
    # the norms alone can agree where the iterates do not: a CSR product that adds x after the terms off
    # the diagonal gives other CG iterates and another final state, but these same norms
    assert np.array_equal(dia.final.values, csr.final.values)


def test_the_2d_operator_is_orthotropic():
    # sum_a d_a(|d_a u|^(p-2) d_a u) spreads faster along the axes than along
    # the diagonals, so from the isotropic source solution the support turns
    # square: at t = 5 it reaches 5.06 along the axis row and 4.39 along the
    # diagonal, around the exact radius 4.91 of div(|grad u|^(p-2) grad u)
    n = 48
    grid = Grid(bounds=((-8.0, 8.0), (-8.0, 8.0)), shape=(n, n))
    spec = OperatorSpec(grid=grid, p=3.0)
    u = evolve(spec, barenblatt_on_grid(grid, 3.0, 1.0), TimeGrid(4.0, 40)).final.values.reshape(n, n)
    radius = np.hypot(*(x.reshape(n, n) for x in grid.coordinates()))
    live = u > 1e-6 * u.max()
    axis_reach = radius[n // 2][live[n // 2]].max()
    diagonal = np.arange(n)
    diagonal_reach = radius[diagonal, diagonal][live[diagonal, diagonal]].max()
    assert axis_reach > barenblatt_support_radius(2, 3.0, 5.0) > diagonal_reach
    assert axis_reach - diagonal_reach > math.sqrt(2.0) * grid.h[0]


@pytest.mark.parametrize("n", [40, 30])
def test_evolve_refuses_a_grid_function_from_another_grid(n):
    spec = OperatorSpec(grid=Grid(bounds=((-1.0, 1.0),), shape=(40,)), p=3.0)
    bump = smooth_bump(Grid(bounds=((-5.0, 5.0),), shape=(n,)))
    message = re.escape(f"g lives on {bump.space}, but the operator acts on {spec.space()}")
    with pytest.raises(ValueError, match=message):
        evolve(spec, bump, TimeGrid(0.1, 2))


def test_trajectory_series_access():
    spec = _spec()
    traj = evolve(spec, _bump(spec), TimeGrid(0.2, 10))
    for q, name in ((1, "norm_l1"), (2, "norm_l2"), (float("inf"), "norm_linf")):
        series = traj.norm_series(q)
        assert np.array_equal(series, getattr(traj, name))
        assert np.array_equal(series, traj.table[:, list(COLUMNS).index(name)])
        assert np.shares_memory(series, traj.table)
    with pytest.raises(ValueError):
        traj.norm_series(3)
    # final is the state of the last step
    tg, u = TimeGrid(0.2, 10), _bump(spec)
    for _ in range(tg.n_steps):
        u = solve_resolvent(spec, tg.dt, u, tol=EVOLVE_TOL).u
    assert np.array_equal(traj.final.values, u.values)


@pytest.mark.parametrize("tg", [TimeGrid(0.3, 3), TimeGrid(0.5, t_first=1e-3, tol=1e-3)], ids=["uniform", "controlled"])
def test_evolve_is_the_chained_resolvent(tg):
    # uniform: (I + (t/n) A)^{-n} g of the exponential formula, t = 0.3, n = 3; the
    # grid's step 0.3 / 3 is one ulp below 0.1, so the chain takes the grid's steps;
    # controlled: each accepted step is the difference of its times
    spec = _spec(p=3.0)
    g = GridFunction(spec.space(), np.random.default_rng(10).standard_normal(N_NODES))
    traj = evolve(spec, g, tg, tol=SOLVER_TOL)
    manual, linf = g, [lq_norm(g, "inf")]
    for lam in [tg.dt] * tg.n_steps if tg.tol is None else np.diff(traj.times):
        manual = solve_resolvent(spec, float(lam), manual, tol=SOLVER_TOL).u
        linf.append(lq_norm(manual, "inf"))
    assert np.array_equal(traj.final.values, manual.values)
    assert np.array_equal(traj.norm_linf, linf)
    if tg.tol is None:
        assert np.array_equal(traj.times, tg.times())


def test_trajectory_csv_roundtrip(tmp_path):
    spec = _spec()
    traj = evolve(spec, _bump(spec), TimeGrid(0.3, 6))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", *COLUMNS] == ["t", "norm_l1", "norm_l2", "norm_linf", "mass"]
    assert len(rows) == traj.times.size + 1
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(0.3)
    # every cell reads back bitwise to its time or its table entry
    cells = np.array([[float(cell) for cell in row] for row in rows[1:]])
    assert np.array_equal(cells[:, 0], traj.times)
    for j, name in enumerate(COLUMNS, start=1):
        assert np.array_equal(cells[:, j], getattr(traj, name))


def test_evolve_reports_failing_step(monkeypatch):
    spec = _spec(p=3.0)
    monkeypatch.setattr(resolvent, "MAX_ITER", 0)
    with pytest.raises(NonConvergenceError) as err:
        evolve(spec, _bump(spec), TimeGrid(1.0, 4))
    assert "step 1/4" in str(err.value)


# ---------------------------------------------------------------------------
# the time-error estimator and the step controller
# ---------------------------------------------------------------------------


def _legs(spec, u0, n_steps, legs=4, t_end=1.0):
    """The states at the ends of `legs` equal legs of [0, t_end], n_steps uniform steps in
    all, and every eta of the chain."""
    states, etas, u = [], [], u0
    for _ in range(legs):
        traj = evolve(spec, u, TimeGrid(t_end / legs, n_steps // legs), tol=SOLVER_TOL)
        u = traj.final
        states.append(u.values)
        etas.extend(traj.eta)
    return states, np.array(etas)


@pytest.mark.parametrize("p, phi", [(3.0, PhiSpec.identity()), (2.0, PhiSpec.power(2.0))], ids=["l2", "h-1"])
def test_the_estimator_bounds_the_time_error_against_a_fine_reference(p, phi):
    # (sum eta_n)^(1/2) >= max_n ||u(t_n) - U^n||, in l^2 for phi identity and in H^-1 for
    # phi = u^2; the reference takes 32 times as many steps on the same grid
    grid = Grid(bounds=((-3.0, 3.0),), shape=(101,))
    spec = OperatorSpec(grid=grid, p=p, phi=phi)
    u0 = smooth_bump(grid, width=1.0)
    _, sq = gradient_flow(spec, DiscreteOperator(spec))
    reference, _ = _legs(spec, u0, 1600)
    ratios = []
    for n_steps in (24, 48):
        states, etas = _legs(spec, u0, n_steps)
        assert etas.shape == (n_steps,) and np.all(etas >= 0.0)
        error = max(math.sqrt(sq(a - b)) for a, b in zip(states, reference))
        ratios.append(math.sqrt(math.fsum(etas)) / error)
    # the bound holds, and stays within a fixed factor of the error: 9.4-11.2 in l^2, 4.3-4.4 in H^-1
    assert min(ratios) >= 1.0 and max(ratios) <= 20.0, ratios


def test_the_h_minus_1_norm_is_that_of_the_dirichlet_laplacian():
    spec = _spec(p=2.0, phi=PhiSpec.power(2.0))
    op = DiscreteOperator(spec)
    L = op.diffusion_jacobian_matrix(np.zeros(N_NODES)).toarray()  # the p = 2 Laplacian
    _, sq = gradient_flow(spec, op)
    for v in np.random.default_rng(7).standard_normal((3, N_NODES)):
        assert sq(v) == pytest.approx(spec.grid.cell_volume * v @ np.linalg.solve(L, v), rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        _spec(p=3.0, perturbation=tanh_perturbation(0.3)),
        _spec(p=3.0, phi=PhiSpec.power(2.0)),
        _spec(p=2.0, bc_kind="neumann", phi=PhiSpec.power(2.0)),
        OperatorSpec(grid=Grid(bounds=((-1.0, 1.0), (-1.0, 1.0)), shape=(8, 8)), p=2.0, phi=PhiSpec.power(2.0)),
    ],
    ids=["perturbed", "power-p3", "power-neumann", "power-2d"],
)
def test_the_controller_refuses_a_flow_it_cannot_certify(spec):
    u0 = smooth_bump(spec.grid, width=0.5)
    with pytest.raises(ValueError, match="^the step controller of tol 0.001 needs "):
        evolve(spec, u0, TimeGrid(0.1, t_first=1e-3, tol=1e-3))
    assert evolve(spec, u0, TimeGrid(0.1, 2)).eta is None  # a uniform grid runs, with no bound


def test_a_rejection_below_the_step_floor_raises(monkeypatch):
    monkeypatch.setattr(semigroup, "STEP_FLOOR", 0.3)
    spec = _spec(p=3.0)
    with pytest.raises(NonConvergenceError, match=r"^step 1 at t = 0\.5: the time-error indicator .* exceeds 2 tol"):
        evolve(spec, _bump(spec), TimeGrid(1.0, t_first=0.5, tol=1e-9))
