"""Resolvent solves on the window of compactly supported data.

Each case runs with the window on, and with it off by a margin so wide that
every box touches a face of the grid; in 1-D both must agree bitwise.
"""

import numpy as np
import pytest

import nlsmooth.resolvent as resolvent
from nlsmooth.harness import smooth_bump
from nlsmooth.operators import (
    BoundaryCondition,
    DiscreteOperator,
    Grid,
    OperatorSpec,
    PhiSpec,
    tanh_perturbation,
)
from nlsmooth.resolvent import solve_resolvent, solve_resolvent_batch
from nlsmooth.semigroup import TimeGrid, evolve

NO_WINDOW = 10**6  # a margin that makes every box touch a face


@pytest.fixture
def newton_shapes(monkeypatch):
    """The node shape of every Newton loop run, in order."""
    shapes, newton = [], resolvent._newton

    def spy(op, *args):
        shapes.append(op.shape)
        return newton(op, *args)

    monkeypatch.setattr(resolvent, "_newton", spy)
    return shapes


def _spec_1d(p=3.0, bc=None, phi=None, perturbation=None):
    return OperatorSpec(grid=Grid(bounds=((-20.0, 20.0),), shape=(801,)), p=p,
                        bc=bc or BoundaryCondition.dirichlet(), phi=phi or PhiSpec.identity(),
                        perturbation=perturbation)


FLOWS = {
    "p3-dirichlet": dict(spec=_spec_1d(), center=0.0),
    "pme-neumann": dict(spec=_spec_1d(p=2.0, bc=BoundaryCondition.neumann(), phi=PhiSpec.power(2.0)),
                        center=3.0),
    "tanh-perturbed": dict(spec=_spec_1d(perturbation=tanh_perturbation(0.5)), center=-2.0),
}


def _evolve(spec, center):
    u0 = smooth_bump(spec.grid, center=center, width=0.5)
    return evolve(spec, u0, TimeGrid(t_end=1.0, n_steps=20, t_first=1e-3))


@pytest.mark.parametrize("case", sorted(FLOWS))
def test_a_windowed_1d_flow_is_bitwise_the_full_grid_flow(case, monkeypatch, newton_shapes):
    spec, center = FLOWS[case]["spec"], FLOWS[case]["center"]
    on = _evolve(spec, center)
    assert len(newton_shapes) == 20 and spec.grid.shape not in newton_shapes
    monkeypatch.setattr(resolvent, "_WINDOW_MARGIN", NO_WINDOW)
    off = _evolve(spec, center)
    assert newton_shapes[20:] == [spec.grid.shape] * 20
    assert np.array_equal(on.table, off.table)
    assert np.array_equal(on.final.values, off.final.values)


def _batch(spec):
    G = np.zeros((4, spec.grid.n_total))
    G[0] = smooth_bump(spec.grid, center=-4.0, width=0.5).values
    G[1] = 2.0 * smooth_bump(spec.grid, center=5.0, width=1.0).values
    G[2, 700] = 1e-310  # a lone subnormal far from the bumps: the box comes from exact zeros
    G[3] = -smooth_bump(spec.grid, center=0.5, width=0.3).values
    return solve_resolvent_batch(spec, 0.05, G, tol=1e-12)


@pytest.mark.parametrize("max_iter", [resolvent.MAX_ITER, 3])
def test_batch_members_of_different_supports_share_one_window(max_iter, monkeypatch, newton_shapes):
    spec = _spec_1d()
    monkeypatch.setattr(resolvent, "MAX_ITER", max_iter)
    on = _batch(spec)
    converged = max_iter > 3
    # the union of the supports, grown and rounded; members that fail there are
    # solved again on the whole grid, which reports their failures
    assert newton_shapes == [(544,)] + [spec.grid.shape] * (not converged)
    monkeypatch.setattr(resolvent, "_WINDOW_MARGIN", NO_WINDOW)
    off = _batch(spec)
    assert newton_shapes[-1:] == [spec.grid.shape]
    for field in ("u", "residual", "iterations", "converged", "failures"):
        assert np.array_equal(getattr(on, field), getattr(off, field)), field
    assert list(on.converged) == [converged, converged, True, converged]


def test_a_one_cell_margin_falls_back_to_the_full_grid(monkeypatch, newton_shapes):
    spec, center = FLOWS["p3-dirichlet"]["spec"], 0.0
    monkeypatch.setattr(resolvent, "_WINDOW_MARGIN", 1)
    tight = _evolve(spec, center)
    # the first window is too tight for the eps_reg tail that the step grows
    assert newton_shapes[:2] == [(32,), spec.grid.shape]
    monkeypatch.setattr(resolvent, "_WINDOW_MARGIN", NO_WINDOW)
    off = _evolve(spec, center)
    assert np.array_equal(tight.table, off.table)
    assert np.array_equal(tight.final.values, off.final.values)


@pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), BoundaryCondition.neumann(),
                                BoundaryCondition.robin(0.5)])
def test_data_that_reach_a_face_take_the_full_path(bc, newton_shapes):
    spec = _spec_1d(bc=bc)
    g = smooth_bump(spec.grid, center=-17.5, width=0.5)  # zero on the 40 nodes next to the face
    assert g.values[0] == 0.0
    solve_resolvent(spec, 0.05, g, tol=1e-12)
    assert newton_shapes == [spec.grid.shape]


def test_two_evolves_on_one_operator_agree(newton_shapes):
    spec = FLOWS["p3-dirichlet"]["spec"]
    op = DiscreteOperator(spec)
    u0 = smooth_bump(spec.grid, width=0.5)
    tg = TimeGrid(t_end=1.0, n_steps=20, t_first=1e-3)
    first, second, fresh = (evolve(spec, u0, tg, op=o) for o in (op, op, None))
    assert spec.grid.shape not in newton_shapes
    for other in (second, fresh):
        assert np.array_equal(first.table, other.table)
        assert np.array_equal(first.final.values, other.final.values)


def test_a_windowed_2d_solve_is_a_full_grid_solution(monkeypatch, newton_shapes):
    # a 64-cell margin, rounded to 32-cell multiples, fits off the faces only
    # on axes of at least 193 nodes, so this grid is 256^2, not 128^2
    grid = Grid(bounds=((-8.0, 8.0), (-8.0, 8.0)), shape=(256, 256))
    spec = OperatorSpec(grid=grid, p=3.0)
    op = DiscreteOperator(spec)
    g = smooth_bump(grid, width=0.5)
    lam, tol = 0.05, 1e-12
    on = solve_resolvent(spec, lam, g, tol=tol, op=op).u.values
    assert newton_shapes == [(192, 192)]
    monkeypatch.setattr(resolvent, "_WINDOW_MARGIN", NO_WINDOW)
    off = solve_resolvent(spec, lam, g, tol=tol, op=op).u.values
    assert newton_shapes[1:] == [grid.shape]
    # CG's dot products over the shorter window vectors may round differently
    assert np.max(np.abs(on - off)) <= 1e-12 * np.max(np.abs(off))
    R = on + lam * op.apply_values(on) - g.values
    assert np.sqrt(np.sum(R * R * op.space.weights)) <= tol


@pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), BoundaryCondition.neumann(),
                                BoundaryCondition.robin(0.5)])
@pytest.mark.parametrize("phi", [PhiSpec.identity(), PhiSpec.power(2.0)])
def test_a_window_evaluates_and_linearizes_as_its_parent(bc, phi):
    grid = Grid(bounds=((-3.0, 3.0), (-2.0, 2.0)), shape=(40, 30))
    spec = OperatorSpec(grid=grid, p=3.0, bc=bc, phi=phi, perturbation=tanh_perturbation(0.3))
    op = DiscreteOperator(spec)
    box = (slice(8, 32), slice(5, 27))
    u = np.zeros(grid.shape)
    u[10:30, 7:25] = np.random.default_rng(0).standard_normal((20, 18))
    win = op.window(box)
    assert op.window(box) is win and win.shape == (24, 22)
    inside = lambda w: w.reshape(grid.shape)[box].ravel()
    v = inside(u)
    assert np.array_equal(win.apply_values(v), inside(op.apply_values(u.ravel())))
    bands, win_bands = op.diffusion_jacobian(u.ravel()), win.diffusion_jacobian(v)
    for k in range(2 * grid.d + 1):
        full, mine = bands[k].reshape(grid.shape)[box], win_bands[k].reshape(win.shape)
        # off the diagonal, the outermost layer couples to nodes off the window
        edge = slice(None) if k == grid.d else slice(1, -1)
        assert np.array_equal(mine[edge, edge], full[edge, edge]), k
    assert np.array_equal(win.perturbation_derivative(v), inside(op.perturbation_derivative(u.ravel())))
    assert np.all(win.space.weights == grid.cell_volume)
