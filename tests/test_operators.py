"""Discrete operator assembly: stencils, monotonicity, boundary couplings.

The monotonicity tests check the discrete structure exactly (up to float
roundoff), not an approximation to the continuum: the diffusion is the
gradient of a separable convex edge energy by construction.
"""

import math

import numpy as np
import pytest
from scipy import sparse

from nlsmooth.exponents import GNParams
from nlsmooth.measure import GridFunction, lq_norm, mass, q_bracket
from nlsmooth.operators import (
    DEFAULT_EPS_REG,
    BoundaryCondition,
    DiscreteOperator,
    Grid,
    LipschitzF,
    OperatorSpec,
    PhiSpec,
    barenblatt_constants,
    barenblatt_on_grid,
    barenblatt_profile,
    barenblatt_support_radius,
    energy,
    gn_check,
    linear_perturbation,
    tanh_perturbation,
)

RNG_SEED = 42
ABS_TOLERANCE = 1e-10
ALL_BCS = (BoundaryCondition.dirichlet(), BoundaryCondition.neumann(), BoundaryCondition.robin(0.7))


def _spec_1d(p, bc, n=8, phi=None, eps=DEFAULT_EPS_REG, perturbation=None):
    return OperatorSpec(grid=Grid(bounds=((-1.0, 1.0),), shape=(n,)), p=p, bc=bc,
                        phi=phi or PhiSpec.identity(), eps_reg=eps,
                        perturbation=perturbation)


def _spec_2d(p, bc, nx=3, ny=4, eps=DEFAULT_EPS_REG):
    return OperatorSpec(grid=Grid(bounds=((-1.0, 1.0), (0.0, 2.0)), shape=(nx, ny)), p=p, bc=bc,
                        eps_reg=eps)


def _spec_3d(p, bc, phi=None):
    grid = Grid(bounds=((-1.0, 1.0), (0.0, 2.0), (0.0, 1.5)), shape=(3, 4, 5))
    return OperatorSpec(grid=grid, p=p, bc=bc, phi=phi or PhiSpec.identity())


def test_grid_geometry():
    g = Grid(bounds=((0.0, 1.0),), shape=(3,))
    assert g.h == (0.25,)
    assert np.allclose(g.coordinates()[0], [0.25, 0.5, 0.75])
    assert np.all(g.space().weights == 0.25)
    r = Grid(bounds=((-1.0, 1.0), (0.0, 2.0)), shape=(3, 4))
    assert r.h == (0.5, 0.4)
    assert r.n_total == 12
    x, y = r.coordinates()
    # row-major: the y index varies fastest
    assert (x[0], y[0]) == (-0.5, 0.4)
    assert (x[1], y[1]) == (-0.5, pytest.approx(0.8))
    assert (x[4], y[4]) == (0.0, 0.4)
    assert r.cell_volume == pytest.approx(0.2)
    with pytest.raises(ValueError):
        Grid(bounds=((0.0, 1.0),), shape=(2,))
    with pytest.raises(ValueError):
        Grid(bounds=((1.0, 0.0),), shape=(5,))
    with pytest.raises(ValueError):
        Grid(bounds=((0.0, 1.0),), shape=(3, 3))
    with pytest.raises(ValueError):
        Grid(bounds=(), shape=())
    box = Grid(bounds=((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)), shape=(3, 4, 5))
    assert box.n_total == 60 and box.cell_volume == pytest.approx(0.25 * 0.4 * (1.0 / 3.0))
    x, y, z = box.coordinates()
    # row-major: the last axis varies fastest
    assert (x[1], y[1], z[1]) == (0.25, 0.4, pytest.approx(-1.0 / 3.0))
    assert (x[5], y[5]) == (0.25, pytest.approx(0.8))


def test_grid_geometry_is_cached_and_equality_stays_field_based():
    g = Grid(bounds=((0.0, 1.0),), shape=(3,))
    assert g.h is g.h and g.cell_volume == 0.25 and g.n_total == 3
    twin = Grid(bounds=((0.0, 1.0),), shape=(3,))  # geometry not yet computed
    assert g == twin and hash(g) == hash(twin)
    assert g != Grid(bounds=((0.0, 1.0),), shape=(4,))


def test_evaluation_is_row_wise_on_a_stack():
    rng = np.random.default_rng(RNG_SEED + 9)
    specs = [_spec_1d(p, bc, phi=phi, perturbation=pert)
             for p in (1.5, 3.0) for bc in ALL_BCS
             for phi, pert in ((None, None), (PhiSpec.power(2.0), tanh_perturbation(0.3)))]
    specs += [_spec_2d(3.0, bc) for bc in ALL_BCS]
    specs += [_spec_3d(3.0, bc, phi=phi) for bc in ALL_BCS for phi in (None, PhiSpec.power(2.0))]
    for spec in specs:
        op = DiscreteOperator(spec)
        W = rng.standard_normal((3, spec.grid.n_total))
        # per-axis arrays keep the grid shape; flatten them behind the batch axis
        flat = lambda parts: [x.reshape(x.shape[: x.ndim - spec.grid.d] + (-1,)) for x in parts]
        methods = [op.apply_values, op.diffusion_values, op.phi_derivative, op.perturbation_derivative,
                   lambda w: np.concatenate(flat(op.edge_conductivities(w)), axis=-1),
                   # the bands lead, so put the batch axis first
                   lambda w: np.moveaxis(op.diffusion_jacobian(w), 0, -2)]
        for method in methods:
            stacked = method(W)
            for k in range(len(W)):
                np.testing.assert_allclose(stacked[k], method(W[k]), rtol=1e-14, atol=1e-14)


def test_laplacian_stencil_1d():
    # p = 2 makes the flux linear for every eps, so A is the exact
    # (-1, 2, -1)/h^2 Dirichlet stencil
    spec = OperatorSpec(grid=Grid(bounds=((0.0, 1.0),), shape=(3,)), p=2.0)
    u = GridFunction(spec.space(), [1.0, 0.0, 0.0])
    au = DiscreteOperator(spec).apply(u)
    assert np.allclose(au.values, [32.0, -16.0, 0.0], atol=1e-12)


def test_laplacian_stencil_2d():
    spec = OperatorSpec(grid=Grid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(3, 3)), p=2.0)
    e_center = np.zeros(9)
    e_center[4] = 1.0
    au = DiscreteOperator(spec).apply(GridFunction(spec.space(), e_center))
    expected = np.zeros(9)
    expected[4] = 64.0
    for j in (1, 3, 5, 7):
        expected[j] = -16.0
    assert np.allclose(au.values, expected, atol=1e-12)


def test_p2_operator_is_linear_symmetric_nonnegative():
    rng = np.random.default_rng(RNG_SEED)
    for spec in (_spec_1d(2.0, BoundaryCondition.dirichlet()),
                 _spec_2d(2.0, BoundaryCondition.dirichlet())):
        space = spec.space()
        u = GridFunction(space, rng.standard_normal(space.n))
        v = GridFunction(space, rng.standard_normal(space.n))
        op = DiscreteOperator(spec)
        au, av = op.apply(u), op.apply(v)
        auv = op.apply(u + v)
        assert np.allclose(auv.values, au.values + av.values, atol=1e-9)
        assert mass(u.with_values(au.values * v.values)) == pytest.approx(
            mass(u.with_values(av.values * u.values)), rel=1e-9, abs=1e-9)
        assert mass(u.with_values(au.values * u.values)) >= -1e-12


def test_zero_maps_to_zero():
    for bc in ALL_BCS:
        for phi in (PhiSpec.identity(), PhiSpec.power(2.0)):
            for pert in (None, tanh_perturbation(0.4)):
                spec = _spec_1d(3.0, bc, phi=phi, perturbation=pert)
                z = GridFunction(spec.space(), np.zeros(spec.grid.n_total))
                assert np.all(DiscreteOperator(spec).apply(z).values == 0.0)


def test_constant_is_neumann_equilibrium():
    for p in (1.5, 2.0, 3.0):
        spec = _spec_1d(p, BoundaryCondition.neumann())
        c = GridFunction(spec.space(), np.full(spec.grid.n_total, 2.3))
        assert np.all(DiscreteOperator(spec).apply(c).values == 0.0)


def test_neumann_diffusion_conserves_mass():
    rng = np.random.default_rng(RNG_SEED)
    for p in (1.5, 3.0):
        for phi in (PhiSpec.identity(), PhiSpec.power(2.0)):
            for make in (lambda: _spec_1d(p, BoundaryCondition.neumann(), phi=phi),
                         lambda: _spec_2d(p, BoundaryCondition.neumann())):
                spec = make()
                space = spec.space()
                u = GridFunction(space, rng.standard_normal(space.n))
                au = DiscreteOperator(spec).apply(u)
                drift = mass(au)
                scale = max(1.0, lq_norm(au, 1))
                assert abs(drift) <= 1e-12 * scale


def test_monotonicity_in_l2():
    rng = np.random.default_rng(RNG_SEED)
    for bc in ALL_BCS:
        for p in (1.5, 2.0, 3.0):
            spec = _spec_1d(p, bc)
            op = DiscreteOperator(spec)
            space = spec.space()
            for _ in range(20):
                u = GridFunction(space, rng.standard_normal(space.n))
                v = GridFunction(space, rng.standard_normal(space.n))
                du = u - v
                da = op.apply(u) - op.apply(v)
                inner = mass(du.with_values(du.values * da.values))
                assert inner >= -1e-11 * max(1.0, abs(inner))


def test_complete_accretivity_tanh_surrogate():
    # every monotone nodewise T with T(0) = 0 certifies accretivity in the
    # whole Lebesgue scale; a fixed two-parameter tanh family probes this
    rng = np.random.default_rng(RNG_SEED + 1)
    for bc in ALL_BCS:
        for p in (1.5, 3.0):
            spec = _spec_1d(p, bc)
            op = DiscreteOperator(spec)
            space = spec.space()
            for _ in range(10):
                u = GridFunction(space, rng.standard_normal(space.n))
                v = GridFunction(space, rng.standard_normal(space.n))
                w = (u - v).values
                da = (op.apply(u) - op.apply(v)).values
                for a in (0.5, 2.0):
                    for c in (-1.0, 0.0, 1.0):
                        t_w = np.tanh(a * (w - c)) + np.tanh(a * c)
                        pairing = float(np.dot(space.weights, t_w * da))
                        assert pairing >= -ABS_TOLERANCE


def test_accretivity_in_l1_and_l2_brackets():
    rng = np.random.default_rng(RNG_SEED + 2)
    for bc in ALL_BCS:
        spec = _spec_1d(3.0, bc)
        op = DiscreteOperator(spec)
        space = spec.space()
        for _ in range(10):
            u = GridFunction(space, rng.standard_normal(space.n))
            v = GridFunction(space, rng.standard_normal(space.n))
            da = op.apply(u) - op.apply(v)
            for q in (1.0, 2.0, 4.0):
                assert q_bracket(u - v, da, q) >= -ABS_TOLERANCE


def test_strong_monotonicity_factor():
    # at eps = 0 and p >= 2: <Au - Av, u - v> >= 2^{2-p} ||grad(u-v)||_p^p
    rng = np.random.default_rng(RNG_SEED + 3)
    for p in (2.0, 3.0, 4.0):
        spec = _spec_1d(p, BoundaryCondition.dirichlet(), eps=0.0)
        op = DiscreteOperator(spec)
        space = spec.space()
        for _ in range(10):
            u = GridFunction(space, rng.standard_normal(space.n))
            v = GridFunction(space, rng.standard_normal(space.n))
            du = u - v
            da = op.apply(u) - op.apply(v)
            inner = mass(du.with_values(du.values * da.values))
            lower = 2.0 ** (2.0 - p) * op.gradient_pnorm(du.values, p, eps=0.0)
            assert inner >= lower * (1.0 - 1e-10)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(RNG_SEED + 4)
    delta = 1e-6
    for make in (lambda bc: _spec_1d(3.0, bc), lambda bc: _spec_1d(1.5, bc),
                 lambda bc: _spec_2d(3.0, bc), lambda bc: _spec_3d(3.0, bc)):
        for bc in ALL_BCS:
            spec = make(bc)
            op = DiscreteOperator(spec)
            n = spec.grid.n_total
            w = rng.standard_normal(n)
            jac = op.diffusion_jacobian_matrix(w).toarray()
            fd = np.empty((n, n))
            for k in range(n):
                e = np.zeros(n)
                e[k] = delta
                fd[:, k] = (op.diffusion_values(w + e) - op.diffusion_values(w - e)) / (2 * delta)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(jac - fd).max() <= 1e-4 * scale


def test_jacobian_bands_match_matrix():
    rng = np.random.default_rng(RNG_SEED + 5)
    spec = _spec_1d(3.0, BoundaryCondition.robin(0.7))
    op = DiscreteOperator(spec)
    w = rng.standard_normal(spec.grid.n_total)
    sub, diag, sup = op.diffusion_jacobian(w)
    dense = op.diffusion_jacobian_matrix(w).toarray()
    assert np.allclose(np.diag(dense), diag, atol=1e-14)
    assert np.allclose(np.diag(dense, -1), sub[:-1], atol=1e-14)
    assert np.allclose(np.diag(dense, 1), sup[1:], atol=1e-14)
    assert sub[-1] == sup[0] == 0.0


def test_jacobian_bands_apply_and_scale_like_the_matrix():
    rng = np.random.default_rng(RNG_SEED + 10)
    for spec in (_spec_1d(3.0, BoundaryCondition.neumann()), _spec_2d(3.0, BoundaryCondition.dirichlet()),
                 _spec_3d(3.0, BoundaryCondition.robin(0.7))):
        op = DiscreteOperator(spec)
        n = spec.grid.n_total
        w, v, s = rng.standard_normal(n), rng.standard_normal(n), rng.uniform(0.0, 2.0, n)
        bands = op.diffusion_jacobian(w)
        dense = op.jacobian_matrix(bands).toarray()
        assert np.allclose(dense, dense.T, atol=0.0)
        np.testing.assert_allclose(op.jacobian_apply(bands, v), dense @ v, rtol=1e-12, atol=1e-12)
        scaled = op.jacobian_matrix(op.jacobian_scaled(bands, s)).toarray()
        np.testing.assert_allclose(scaled, s[:, None] * dense * s[None, :], rtol=1e-14, atol=1e-12)


@pytest.mark.parametrize("bc", ALL_BCS, ids=lambda bc: bc.kind)
@pytest.mark.parametrize("make", [_spec_1d, _spec_2d, _spec_3d], ids=["1d", "2d", "3d"])
def test_jacobian_band_layout(make, bc):
    # band k holds M[j - offset_k, j] at column j, and exactly 0 where that row
    # is off the grid: the stacked 1-D solve relies on those zeros to keep its
    # blocks apart
    rng = np.random.default_rng(RNG_SEED + 12)
    spec = make(3.0, bc)
    op = DiscreteOperator(spec)
    shape, d, n = spec.grid.shape, spec.grid.d, spec.grid.n_total
    strides = [math.prod(shape[a + 1:]) for a in range(d)]
    offsets = [-st for st in strides] + [0] + strides[::-1]
    index = np.unravel_index(np.arange(n), shape)
    # the row j - offset_k is a grid neighbour of node j along the band's axis
    on_grid = [index[a] < shape[a] - 1 for a in range(d)] + [np.ones(n, dtype=bool)]
    on_grid += [index[a] > 0 for a in reversed(range(d))]
    W = rng.standard_normal((3, n))
    stacked = op.diffusion_jacobian(W)
    assert stacked.shape == (2 * d + 1, 3, n)
    for i, w in enumerate(W):
        bands = op.diffusion_jacobian(w)
        assert bands.shape == (2 * d + 1, n)
        assert np.array_equal(stacked[:, i], bands)
        matrix = op.diffusion_jacobian_matrix(w)
        assert list(matrix.offsets) == offsets
        dense = matrix.toarray()
        for k, offset in enumerate(offsets):
            j = np.flatnonzero(on_grid[k])
            assert np.array_equal(bands[k, j], dense[j - offset, j])
            assert np.all(bands[k, ~on_grid[k]] == 0.0)
        assert np.count_nonzero(dense) == sum(np.count_nonzero(bands[k][on_grid[k]]) for k in range(2 * d + 1))


@pytest.mark.parametrize("bc", ALL_BCS, ids=lambda bc: bc.kind)
@pytest.mark.parametrize("make", [_spec_1d, _spec_2d, _spec_3d], ids=["1d", "2d", "3d"])
def test_jacobian_matrix_is_dia_and_multiplies_bitwise_as_csr(make, bc):
    # ascending offsets make the DIA matvec add each row's terms in ascending
    # column order, the order of a CSR matvec, so the products agree bitwise
    rng = np.random.default_rng(RNG_SEED + 11)
    spec = make(3.0, bc)
    op = DiscreteOperator(spec)
    n = spec.grid.n_total
    w, v = rng.standard_normal(n), rng.standard_normal(n)
    matrix = op.diffusion_jacobian_matrix(w)
    assert matrix.format == "dia"
    assert np.all(np.diff(matrix.offsets) > 0)
    assert np.array_equal(matrix @ v, sparse.csr_array(matrix.toarray()) @ v)


def test_energy_gradient_consistency():
    rng = np.random.default_rng(RNG_SEED + 6)
    step = 1e-6
    for spec in (_spec_1d(3.0, BoundaryCondition.dirichlet()), _spec_1d(3.0, BoundaryCondition.robin(0.7)),
                 _spec_3d(3.0, BoundaryCondition.robin(0.7))):
        space = spec.space()
        u = GridFunction(space, rng.standard_normal(space.n))
        v = GridFunction(space, rng.standard_normal(space.n))
        au = DiscreteOperator(spec).apply(u)
        inner = mass(u.with_values(au.values * v.values))
        quotient = (energy(spec, u + step * v) - energy(spec, u - step * v)) / (2 * step)
        assert inner == pytest.approx(quotient, rel=1e-6, abs=1e-8)


def test_gn_check_matches_dirichlet_eigenvalue():
    # p = 2, q = r = 2, sigma = 2: the ratio is the Rayleigh quotient inverse,
    # maximized by the discrete ground state sin(pi x)
    n = 15
    spec = OperatorSpec(grid=Grid(bounds=((0.0, 1.0),), shape=(n,)), p=2.0)
    h = spec.grid.h[0]
    lam1 = (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
    gn = GNParams(q=2.0, r=2.0, sigma=2.0)
    ground = GridFunction(spec.space(), np.sin(np.pi * spec.grid.coordinates()[0]))
    res = gn_check(spec, ground, gn)
    assert res.ratio == pytest.approx(1.0 / lam1, rel=1e-10)
    rng = np.random.default_rng(RNG_SEED + 7)
    for _ in range(20):
        u = GridFunction(spec.space(), rng.standard_normal(n))
        res = gn_check(spec, u, gn)
        assert res.denominator > 0.0
        assert res.ratio <= (1.0 / lam1) * (1.0 + 1e-9)


def test_gn_check_rejects_zero_input():
    spec = _spec_1d(3.0, BoundaryCondition.dirichlet())
    z = GridFunction(spec.space(), np.zeros(spec.grid.n_total))
    with pytest.raises(ValueError):
        gn_check(spec, z, GNParams(q=2.0, r=6.0, sigma=3.0))


def test_perturbation_enters_additively():
    rng = np.random.default_rng(RNG_SEED + 8)
    base = _spec_1d(3.0, BoundaryCondition.dirichlet())
    shifted = _spec_1d(3.0, BoundaryCondition.dirichlet(), perturbation=linear_perturbation(0.3))
    u = GridFunction(base.space(), rng.standard_normal(base.grid.n_total))
    a0 = DiscreteOperator(base).apply(u)
    a1 = DiscreteOperator(shifted).apply(u)
    assert np.allclose(a1.values, a0.values + 0.3 * u.values, atol=1e-12)
    assert shifted.perturbation.lipschitz == pytest.approx(0.3)
    assert tanh_perturbation(-0.5).lipschitz == pytest.approx(0.5)


def test_phi_spec_power():
    phi = PhiSpec.power(2.0)
    assert phi.value(np.array([-3.0, 0.0, 2.0])).tolist() == [-9.0, 0.0, 4.0]
    assert phi.derivative(np.array([-3.0]), eps=0.0)[0] == pytest.approx(6.0)
    # regularized derivative stays positive at the origin
    assert phi.derivative(np.array([0.0]), eps=1e-8)[0] == pytest.approx(2e-8, rel=1e-9)
    ident = PhiSpec.identity()
    assert np.all(ident.derivative(np.array([1.0, -5.0]), eps=0.0) == 1.0)
    s = np.array([1.0, -5.0])
    assert ident.value(s) is s  # read-only callers: no copy per operator application
    with pytest.raises(ValueError):
        PhiSpec("power", m=0.0)
    with pytest.raises(ValueError, match="power exponent must be positive and finite, got inf"):
        PhiSpec.power(float("inf"))
    with pytest.raises(ValueError):
        PhiSpec("cubic")
    with pytest.raises(ValueError):
        PhiSpec("custom")


def test_boundary_condition_validation():
    with pytest.raises(ValueError):
        BoundaryCondition("robin", b=0.0)
    with pytest.raises(ValueError):
        BoundaryCondition("dirichlet", b=1.0)
    with pytest.raises(ValueError):
        BoundaryCondition("periodic")
    with pytest.raises(ValueError, match="robin coupling needs b > 0 and finite, got inf"):
        BoundaryCondition.robin(float("inf"))
    assert BoundaryCondition.robin(2.0).b == 2.0


def test_operator_spec_validation():
    grid = Grid(bounds=((0.0, 1.0),), shape=(4,))
    with pytest.raises(ValueError):
        OperatorSpec(grid=grid, p=1.0)
    with pytest.raises(ValueError):
        OperatorSpec(grid=grid, p=2.0, eps_reg=-1e-3)
    with pytest.raises(ValueError, match="eps_reg must be >= 0 and finite, got inf"):
        OperatorSpec(grid=grid, p=2.0, eps_reg=float("inf"))
    assert OperatorSpec(grid=grid, p=2.0).eps_reg == DEFAULT_EPS_REG
    with pytest.raises(ValueError):
        LipschitzF(func=lambda x, u: u, lipschitz=-1.0, deriv=lambda x, u: np.ones_like(u))


def test_a_perturbation_must_vanish_at_zero():
    grid = Grid(bounds=((0.0, 1.0), (0.0, 2.0)), shape=(4, 5))
    shifted = LipschitzF(func=lambda x, u: u + 1.0, lipschitz=1.0, deriv=lambda x, u: np.ones_like(u))
    with pytest.raises(ValueError, match=r"f\(x, 0\) = 1\.0 at node 0, x = \(0\.2, 0\.333333\)"):
        DiscreteOperator(OperatorSpec(grid=grid, p=2.0, perturbation=shifted))
    # only where x_1 > 0.5: the first such node is the 11th, the first of row 2
    bump = LipschitzF(func=lambda x, u: u + (x[0] > 0.5), lipschitz=1.0, deriv=lambda x, u: np.ones_like(u))
    with pytest.raises(ValueError, match=r"= 1\.0 at node 10, x = \(0\.6, 0\.333333\)"):
        DiscreteOperator(OperatorSpec(grid=grid, p=2.0, perturbation=bump))
    for shipped in (linear_perturbation(-0.7), tanh_perturbation(2.0)):
        DiscreteOperator(OperatorSpec(grid=grid, p=2.0, perturbation=shipped))


# -- source solution --------------------------------------------------------


def test_barenblatt_pins_d1_p3():
    lam, cp = barenblatt_constants(1, 3.0)
    assert lam == pytest.approx(4.0)
    assert cp == pytest.approx((1.0 / 4.0) ** 0.5 * (-1.0 / 3.0))
    assert barenblatt_profile(1, 3.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert barenblatt_support_radius(1, 3.0, 1.0) == pytest.approx(6.0 ** (2.0 / 3.0), rel=1e-12)
    assert barenblatt_support_radius(1, 3.0, 16.0) == pytest.approx(
        2.0 * 6.0 ** (2.0 / 3.0), rel=1e-12)
    # beyond the support the profile vanishes identically
    assert barenblatt_profile(1, 3.0, 4.0, 1.0) == 0.0


def test_barenblatt_mass_and_scaling():
    grid = Grid(bounds=((-8.0, 8.0),), shape=(4001,))
    u = barenblatt_on_grid(grid, 3.0, 1.0)
    assert mass(u) == pytest.approx(0.9 * 6.0 ** (2.0 / 3.0), rel=1e-4)
    x = np.linspace(-3.0, 3.0, 41)
    for t in (0.5, 2.0, 7.0):
        direct = barenblatt_profile(1, 3.0, x, t)
        scaled = t ** (-0.25) * barenblatt_profile(1, 3.0, x * t ** (-0.25), 1.0)
        assert np.allclose(direct, scaled, rtol=1e-12, atol=1e-15)


def test_barenblatt_on_grid_samples_the_profile_in_any_dimension():
    grids = (Grid(bounds=((-3.0, 3.0),), shape=(11,)), Grid(bounds=((-3.0, 3.0), (-2.0, 4.0)), shape=(7, 9)),
             Grid(bounds=((-2.0, 2.0),) * 3, shape=(5, 4, 3)))
    for grid in grids:
        points = np.stack(grid.coordinates(), axis=-1)
        expected = barenblatt_profile(grid.d, 3.0, points if grid.d > 1 else points[:, 0], 1.5)
        assert np.ptp(expected) > 0.0
        np.testing.assert_allclose(barenblatt_on_grid(grid, 3.0, 1.5).values, expected, rtol=1e-14, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_grid_distance_is_the_1d_distance_bit_for_bit_and_does_not_overflow():
    # in 1-d the shipped initial states keep their bits; near the float range no square overflows
    for grid, center in ((Grid(bounds=((-20.0, 20.0),), shape=(2001,)), 0.0),
                         (Grid(bounds=((-6.0, 6.0),), shape=(1001,)), 0.3)):
        x = grid.coordinates()[0]
        assert np.array_equal(grid.distance(center), np.sqrt((x - center) ** 2))
    far = Grid(bounds=((-1e300, 1e300), (-1.0, 1.0)), shape=(5, 5))  # a finite cell volume
    x, y = far.coordinates()
    np.testing.assert_allclose(far.distance([1e300, 0.0]), np.hypot(x - 1e300, y), rtol=0.0, atol=0.0)
    wide = Grid(bounds=((-1e300, 1e300),), shape=(5,))
    # at t = 1 the profile is 1 at the origin, and every other node lies far outside its support
    assert np.array_equal(barenblatt_on_grid(wide, 3.0, 1.0).values, [0.0, 0.0, 1.0, 0.0, 0.0])


def test_barenblatt_validation():
    with pytest.raises(ValueError):
        barenblatt_profile(1, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        barenblatt_profile(1, 3.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        barenblatt_support_radius(1, 1.5, 1.0)
    # radial evaluation in two dimensions accepts a single point or a batch
    single = barenblatt_profile(2, 3.0, np.array([0.6, 0.8]), 1.0)
    batch = barenblatt_profile(2, 3.0, np.array([[0.6, 0.8]]), 1.0)
    assert single == pytest.approx(float(batch[0]), rel=1e-14)


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("eps", [0.0, 1e-8], ids=["eps0", "eps1e-8"])
@pytest.mark.parametrize("phi", [PhiSpec.identity(), PhiSpec.power(2.0)], ids=["identity", "power"])
@pytest.mark.parametrize("bc", ALL_BCS, ids=lambda bc: bc.kind)
@pytest.mark.parametrize("shape", [(40,), (14, 12)], ids=["1d", "2d"])
def test_jacobian_from_an_iterates_face_data_is_bitwise_the_fresh_one(shape, bc, phi, eps, p, batch):
    # the Newton step builds its bands from the state the residual evaluation
    # returned; they must be the bands of diffusion_jacobian(phi(u)) computed
    # from scratch, for every row, also after the line search wrote rows of
    # backtracked trials, and on a window as on the whole grid
    import nlsmooth.resolvent as resolvent

    grid = Grid(bounds=((-1.0, 1.0),) * len(shape), shape=shape)
    op = DiscreteOperator(OperatorSpec(grid=grid, p=p, bc=bc, phi=phi, eps_reg=eps))
    box = tuple(slice(3, n - 3) for n in shape)
    rng = np.random.default_rng(len(shape) * 100 + batch)
    for o in (op, op.window(box)):
        n = o.space.n
        G = rng.standard_normal((batch, n))
        G[:, ::3] = 0.0  # zero gradients take the nodewise branches at eps = 0
        lam = 0.05
        first = resolvent._residual(o, lam, G.copy(), G)
        # a direction too long for t = 1 on some rows makes the line search write backtracked rows
        direction = 6.0 * rng.standard_normal((batch, n))
        new, _ = resolvent._line_search(o, lam, G, first[0], first[2], direction)
        for U, _, _, *state in (first, new):
            assert _bits(state[0]).tolist() == _bits(o.spec.phi.value(U)).tolist()
            bands = o.diffusion_jacobian(state[0], state[1:])
            assert np.array_equal(_bits(bands), _bits(o.diffusion_jacobian(o.spec.phi.value(U))))
            for j in range(batch):
                assert np.array_equal(_bits(bands[:, j]), _bits(o.diffusion_jacobian(o.spec.phi.value(U[j]))))
