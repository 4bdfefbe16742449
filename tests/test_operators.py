"""Discrete operator assembly: stencils, monotonicity, boundary couplings.

The monotonicity tests check the discrete structure exactly (up to float
roundoff), not an approximation to the continuum: the diffusion is the
gradient of a separable convex edge energy by construction.
"""

import numpy as np
import pytest

from nlsmooth.exponents import GNParams
from nlsmooth.measure import GridFunction, lq_norm, mass, q_bracket
from nlsmooth.operators import (
    DEFAULT_EPS_REG,
    BarenblattQuery,
    BoundaryCondition,
    DiscreteOperator,
    Grid,
    LipschitzF,
    OperatorSpec,
    PhiSpec,
    apply_operator,
    barenblatt_constants,
    barenblatt_on_grid,
    barenblatt_profile,
    barenblatt_support_radius,
    energy,
    gn_check,
    interval,
    linear_perturbation,
    rectangle,
    tanh_perturbation,
)

RNG_SEED = 42
ABS_TOLERANCE = 1e-10
ALL_BCS = (BoundaryCondition.dirichlet(), BoundaryCondition.neumann(), BoundaryCondition.robin(0.7))


def _spec_1d(p, bc, n=8, phi=None, eps=DEFAULT_EPS_REG, perturbation=None):
    return OperatorSpec(grid=interval(-1.0, 1.0, n), p=p, bc=bc,
                        phi=phi or PhiSpec.identity(), eps_reg=eps,
                        perturbation=perturbation)


def _spec_2d(p, bc, nx=3, ny=4, eps=DEFAULT_EPS_REG):
    return OperatorSpec(grid=rectangle((-1.0, 1.0), (0.0, 2.0), nx, ny), p=p, bc=bc,
                        eps_reg=eps)


def test_grid_geometry():
    g = interval(0.0, 1.0, 3)
    assert g.h == (0.25,)
    assert np.allclose(g.nodes(), [0.25, 0.5, 0.75])
    assert np.all(g.space().weights == 0.25)
    r = rectangle((-1.0, 1.0), (0.0, 2.0), 3, 4)
    assert r.h == (0.5, 0.4)
    assert r.n_total == 12
    x, y = r.nodes()
    # row-major: the y index varies fastest
    assert (x[0], y[0]) == (-0.5, 0.4)
    assert (x[1], y[1]) == (-0.5, pytest.approx(0.8))
    assert (x[4], y[4]) == (0.0, 0.4)
    assert r.cell_volume == pytest.approx(0.2)
    with pytest.raises(ValueError):
        interval(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        interval(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        Grid(bounds=((0.0, 1.0),), shape=(3, 3))


def test_grid_geometry_is_cached_and_equality_stays_field_based():
    g = interval(0.0, 1.0, 3)
    assert g.h is g.h and g.cell_volume == 0.25 and g.n_total == 3
    twin = interval(0.0, 1.0, 3)  # geometry not yet computed
    assert g == twin and hash(g) == hash(twin)
    assert g != interval(0.0, 1.0, 4)


def test_evaluation_is_row_wise_on_a_stack():
    rng = np.random.default_rng(RNG_SEED + 9)
    specs = [_spec_1d(p, bc, phi=phi, perturbation=pert)
             for p in (1.5, 3.0) for bc in ALL_BCS
             for phi, pert in ((None, None), (PhiSpec.power(2.0), tanh_perturbation(0.3)))]
    specs += [_spec_2d(3.0, bc) for bc in ALL_BCS]
    for spec in specs:
        op = DiscreteOperator(spec)
        W = rng.standard_normal((3, spec.grid.n_total))
        methods = [op.apply_values, op.diffusion_values, op.phi_derivative,
                   op.perturbation_values, op.perturbation_derivative]
        if spec.grid.d == 1:
            methods += [op.edge_conductivities, lambda w: np.concatenate(op.diffusion_jacobian_bands_1d(w), axis=-1)]
        for method in methods:
            stacked = method(W)
            for k in range(len(W)):
                np.testing.assert_allclose(stacked[k], method(W[k]), rtol=1e-14, atol=1e-14)


def test_laplacian_stencil_1d():
    # p = 2 makes the flux linear for every eps, so A is the exact
    # (-1, 2, -1)/h^2 Dirichlet stencil
    spec = OperatorSpec(grid=interval(0.0, 1.0, 3), p=2.0)
    u = GridFunction(spec.space(), [1.0, 0.0, 0.0])
    au = apply_operator(spec, u)
    assert np.allclose(au.values, [32.0, -16.0, 0.0], atol=1e-12)


def test_laplacian_stencil_2d():
    spec = OperatorSpec(grid=rectangle((0.0, 1.0), (0.0, 1.0), 3, 3), p=2.0)
    e_center = np.zeros(9)
    e_center[4] = 1.0
    au = apply_operator(spec, GridFunction(spec.space(), e_center))
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
        au, av = apply_operator(spec, u), apply_operator(spec, v)
        auv = apply_operator(spec, u + v)
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
                assert np.all(apply_operator(spec, z).values == 0.0)


def test_constant_is_neumann_equilibrium():
    for p in (1.5, 2.0, 3.0):
        spec = _spec_1d(p, BoundaryCondition.neumann())
        c = GridFunction(spec.space(), np.full(spec.grid.n_total, 2.3))
        assert np.all(apply_operator(spec, c).values == 0.0)


def test_neumann_diffusion_conserves_mass():
    rng = np.random.default_rng(RNG_SEED)
    for p in (1.5, 3.0):
        for phi in (PhiSpec.identity(), PhiSpec.power(2.0)):
            for make in (lambda: _spec_1d(p, BoundaryCondition.neumann(), phi=phi),
                         lambda: _spec_2d(p, BoundaryCondition.neumann())):
                spec = make()
                space = spec.space()
                u = GridFunction(space, rng.standard_normal(space.n))
                drift = mass(apply_operator(spec, u))
                scale = max(1.0, lq_norm(apply_operator(spec, u), 1))
                assert abs(drift) <= 1e-12 * scale


def test_monotonicity_in_l2():
    rng = np.random.default_rng(RNG_SEED)
    for bc in ALL_BCS:
        for p in (1.5, 2.0, 3.0):
            spec = _spec_1d(p, bc)
            space = spec.space()
            for _ in range(20):
                u = GridFunction(space, rng.standard_normal(space.n))
                v = GridFunction(space, rng.standard_normal(space.n))
                du = u - v
                da = apply_operator(spec, u) - apply_operator(spec, v)
                inner = mass(du.with_values(du.values * da.values))
                assert inner >= -1e-11 * max(1.0, abs(inner))


def test_complete_accretivity_tanh_surrogate():
    # every monotone nodewise T with T(0) = 0 certifies accretivity in the
    # whole Lebesgue scale; a fixed two-parameter tanh family probes this
    rng = np.random.default_rng(RNG_SEED + 1)
    for bc in ALL_BCS:
        for p in (1.5, 3.0):
            spec = _spec_1d(p, bc)
            space = spec.space()
            for _ in range(10):
                u = GridFunction(space, rng.standard_normal(space.n))
                v = GridFunction(space, rng.standard_normal(space.n))
                w = (u - v).values
                da = (apply_operator(spec, u) - apply_operator(spec, v)).values
                for a in (0.5, 2.0):
                    for c in (-1.0, 0.0, 1.0):
                        t_w = np.tanh(a * (w - c)) + np.tanh(a * c)
                        pairing = float(np.dot(space.weights, t_w * da))
                        assert pairing >= -ABS_TOLERANCE


def test_accretivity_in_l1_and_l2_brackets():
    rng = np.random.default_rng(RNG_SEED + 2)
    for bc in ALL_BCS:
        spec = _spec_1d(3.0, bc)
        space = spec.space()
        for _ in range(10):
            u = GridFunction(space, rng.standard_normal(space.n))
            v = GridFunction(space, rng.standard_normal(space.n))
            da = apply_operator(spec, u) - apply_operator(spec, v)
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
                 lambda bc: _spec_2d(3.0, bc)):
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
    lower, diag, upper = op.diffusion_jacobian_bands_1d(w)
    dense = op.diffusion_jacobian_matrix(w).toarray()
    assert np.allclose(np.diag(dense), diag, atol=1e-14)
    assert np.allclose(np.diag(dense, -1), lower, atol=1e-14)
    assert np.allclose(np.diag(dense, 1), upper, atol=1e-14)


def test_energy_gradient_consistency():
    rng = np.random.default_rng(RNG_SEED + 6)
    step = 1e-6
    for bc in (BoundaryCondition.dirichlet(), BoundaryCondition.robin(0.7)):
        spec = _spec_1d(3.0, bc)
        space = spec.space()
        u = GridFunction(space, rng.standard_normal(space.n))
        v = GridFunction(space, rng.standard_normal(space.n))
        au = apply_operator(spec, u)
        inner = mass(u.with_values(au.values * v.values))
        quotient = (energy(spec, u + step * v) - energy(spec, u - step * v)) / (2 * step)
        assert inner == pytest.approx(quotient, rel=1e-6, abs=1e-8)


def test_gn_check_matches_dirichlet_eigenvalue():
    # p = 2, q = r = 2, sigma = 2: the ratio is the Rayleigh quotient inverse,
    # maximized by the discrete ground state sin(pi x)
    n = 15
    spec = OperatorSpec(grid=interval(0.0, 1.0, n), p=2.0)
    h = spec.grid.h[0]
    lam1 = (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
    gn = GNParams(q=2.0, r=2.0, sigma=2.0)
    ground = GridFunction(spec.space(), np.sin(np.pi * spec.grid.nodes()))
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
    a0 = apply_operator(base, u)
    a1 = apply_operator(shifted, u)
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
    with pytest.raises(ValueError):
        PhiSpec("power", m=0.0)
    with pytest.raises(ValueError):
        PhiSpec("cubic")
    with pytest.raises(ValueError):
        PhiSpec("custom")


def test_phi_spec_custom_numeric_derivative():
    phi = PhiSpec.custom(func=lambda s: np.sinh(s))
    s = np.array([0.0, 0.7, -1.2])
    assert np.allclose(phi.derivative(s, eps=0.0), np.cosh(s), rtol=1e-8)


def test_boundary_condition_validation():
    with pytest.raises(ValueError):
        BoundaryCondition("robin", b=0.0)
    with pytest.raises(ValueError):
        BoundaryCondition("dirichlet", b=1.0)
    with pytest.raises(ValueError):
        BoundaryCondition("periodic")
    assert BoundaryCondition.robin(2.0).b == 2.0


def test_operator_spec_validation():
    grid = interval(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        OperatorSpec(grid=grid, p=1.0)
    with pytest.raises(ValueError):
        OperatorSpec(grid=grid, p=2.0, eps_reg=-1e-3)
    assert OperatorSpec(grid=grid, p=2.0).eps_reg == DEFAULT_EPS_REG
    with pytest.raises(ValueError):
        LipschitzF(func=lambda x, u: u, lipschitz=-1.0)


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
    grid = interval(-8.0, 8.0, 4001)
    u = barenblatt_on_grid(grid, 3.0, 1.0)
    assert mass(u) == pytest.approx(0.9 * 6.0 ** (2.0 / 3.0), rel=1e-4)
    x = np.linspace(-3.0, 3.0, 41)
    for t in (0.5, 2.0, 7.0):
        direct = barenblatt_profile(1, 3.0, x, t)
        scaled = t ** (-0.25) * barenblatt_profile(1, 3.0, x * t ** (-0.25), 1.0)
        assert np.allclose(direct, scaled, rtol=1e-12, atol=1e-15)


def test_barenblatt_validation_and_query():
    with pytest.raises(ValueError):
        barenblatt_profile(1, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        barenblatt_profile(1, 3.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        barenblatt_support_radius(1, 1.5, 1.0)
    q = BarenblattQuery(d=1, p=3.0, x=np.array([0.0, 1.0]), t=2.0)
    assert np.allclose(q.evaluate(), barenblatt_profile(1, 3.0, np.array([0.0, 1.0]), 2.0))
    # radial evaluation in two dimensions accepts a single point or a batch
    single = barenblatt_profile(2, 3.0, np.array([0.6, 0.8]), 1.0)
    batch = barenblatt_profile(2, 3.0, np.array([[0.6, 0.8]]), 1.0)
    assert single == pytest.approx(float(batch[0]), rel=1e-14)
