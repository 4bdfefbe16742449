"""Discretized accretive operators of p-Laplace type, plus the source solution.

The operator is A(u) = -div(a(grad phi(u))) + f(x, u) on a uniform grid of
interior nodes in one or two dimensions, with Dirichlet (zero ghost values),
Neumann (zero boundary flux) or Robin (b |w|^{p-2} w boundary flux) coupling.
The flux a(g) = (g^2 + eps^2)^{(p-2)/2} g acts on scalar edge gradients
obtained by forward differences; the divergence is its exact adjoint, so the
diffusion part is the gradient of a convex separable energy and monotonicity
holds at the discrete level, not just in the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from .measure import DiscreteSpace, GridFunction

DEFAULT_EPS_REG = 1e-8


@dataclass(frozen=True)
class Grid:
    """Uniform grid of interior nodes on a box; d = 1 or 2 axes.

    shape counts interior nodes per axis (>= 3); spacing is
    (hi - lo)/(n + 1), so that both box faces are one spacing away from the
    outermost nodes. Node weights are the cell volume prod(h).
    """

    bounds: tuple
    shape: tuple

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        shape = tuple(int(n) for n in self.shape)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "shape", shape)
        if len(shape) not in (1, 2) or len(bounds) != len(shape):
            raise ValueError("grid must have 1 or 2 axes with matching bounds")
        for (lo, hi), n in zip(bounds, shape):
            if not (lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"invalid axis bounds ({lo}, {hi})")
            if n < 3:
                raise ValueError(f"need at least 3 nodes per axis, got {n}")

    @property
    def d(self):
        return len(self.shape)

    # Geometry is computed once per grid; equality and hashing still use the
    # fields alone.
    @cached_property
    def h(self):
        return tuple((hi - lo) / (n + 1) for (lo, hi), n in zip(self.bounds, self.shape))

    @cached_property
    def n_total(self):
        out = 1
        for n in self.shape:
            out *= n
        return out

    @cached_property
    def cell_volume(self):
        v = 1.0
        for h in self.h:
            v *= h
        return v

    def axis_nodes(self, axis):
        (lo, _), n, h = self.bounds[axis], self.shape[axis], self.h[axis]
        return lo + h * np.arange(1, n + 1)

    def nodes(self):
        """Node coordinates: (n,) in 1d, tuple (x, y) of flat arrays in 2d."""
        if self.d == 1:
            return self.axis_nodes(0)
        x = self.axis_nodes(0)
        y = self.axis_nodes(1)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        return xx.ravel(), yy.ravel()

    def space(self):
        return DiscreteSpace(np.full(self.n_total, self.cell_volume))


def interval(lo, hi, n):
    return Grid(bounds=((lo, hi),), shape=(n,))


def rectangle(bounds_x, bounds_y, nx, ny):
    return Grid(bounds=(tuple(bounds_x), tuple(bounds_y)), shape=(nx, ny))


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str
    b: float = 0.0

    def __post_init__(self):
        kind = str(self.kind).lower()
        object.__setattr__(self, "kind", kind)
        if kind not in ("dirichlet", "neumann", "robin"):
            raise ValueError(f"unknown boundary condition {self.kind!r}")
        if kind == "robin" and not (self.b > 0.0):
            raise ValueError(f"robin coupling needs b > 0, got {self.b}")
        if kind != "robin" and self.b != 0.0:
            raise ValueError(f"b only applies to robin, got b={self.b} for {kind}")

    @classmethod
    def dirichlet(cls):
        return cls("dirichlet")

    @classmethod
    def neumann(cls):
        return cls("neumann")

    @classmethod
    def robin(cls, b):
        return cls("robin", float(b))


@dataclass(frozen=True)
class PhiSpec:
    """Nodewise nonlinearity phi applied before the diffusion.

    identity: phi(s) = s. power(m): phi(s) = |s|^{m-1} s with the exact
    derivative m |s|^{m-1}, regularized to m (s^2 + eps^2)^{(m-1)/2} so it
    stays positive at s = 0. custom: user-supplied value and derivative.
    """

    kind: str = "identity"
    m: float = 1.0
    func: Optional[Callable] = None
    deriv: Optional[Callable] = None

    def __post_init__(self):
        kind = str(self.kind).lower()
        object.__setattr__(self, "kind", kind)
        if kind not in ("identity", "power", "custom"):
            raise ValueError(f"unknown phi kind {self.kind!r}")
        if kind == "power" and not (self.m > 0.0 and math.isfinite(self.m)):
            raise ValueError(f"power exponent must be positive, got {self.m}")
        if kind == "custom" and self.func is None:
            raise ValueError("custom phi needs func")

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def power(cls, m):
        return cls("power", m=float(m))

    @classmethod
    def custom(cls, func, deriv=None):
        return cls("custom", func=func, deriv=deriv)

    def value(self, s, eps=0.0):
        s = np.asarray(s, dtype=float)
        if self.kind == "identity":
            return s.copy()
        if self.kind == "power":
            return np.sign(s) * np.abs(s) ** self.m
        return np.asarray(self.func(s), dtype=float)

    def derivative(self, s, eps):
        s = np.asarray(s, dtype=float)
        if self.kind == "identity":
            return np.ones_like(s)
        if self.kind == "power":
            return self.m * (s * s + eps * eps) ** ((self.m - 1.0) / 2.0)
        if self.deriv is not None:
            return np.asarray(self.deriv(s), dtype=float)
        step = 1e-6 * np.maximum(1.0, np.abs(s))
        return (self.func(s + step) - self.func(s - step)) / (2.0 * step)


@dataclass(frozen=True)
class LipschitzF:
    """Nodewise perturbation f(x, u), Lipschitz in u with f(x, 0) = 0."""

    func: Callable
    lipschitz: float
    deriv: Optional[Callable] = None

    def __post_init__(self):
        if not (self.lipschitz >= 0.0 and math.isfinite(self.lipschitz)):
            raise ValueError(f"lipschitz bound must be finite and >= 0, got {self.lipschitz}")

    def value(self, x, u):
        return np.asarray(self.func(x, u), dtype=float)

    def derivative(self, x, u):
        if self.deriv is not None:
            return np.asarray(self.deriv(x, u), dtype=float)
        step = 1e-6 * np.maximum(1.0, np.abs(u))
        return (self.func(x, u + step) - self.func(x, u - step)) / (2.0 * step)


def linear_perturbation(coeff):
    c = float(coeff)
    return LipschitzF(func=lambda x, u: c * u, lipschitz=abs(c), deriv=lambda x, u: np.full_like(u, c))


def tanh_perturbation(coeff):
    c = float(coeff)
    return LipschitzF(
        func=lambda x, u: c * np.tanh(u),
        lipschitz=abs(c),
        deriv=lambda x, u: c / np.cosh(u) ** 2,
    )


@dataclass(frozen=True)
class OperatorSpec:
    grid: Grid
    p: float
    bc: BoundaryCondition = field(default_factory=BoundaryCondition.dirichlet)
    phi: PhiSpec = field(default_factory=PhiSpec.identity)
    perturbation: Optional[LipschitzF] = None
    eps_reg: float = DEFAULT_EPS_REG

    def __post_init__(self):
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise ValueError(f"p must satisfy 1 < p < inf, got {self.p}")
        if not (self.eps_reg >= 0.0):
            raise ValueError(f"eps_reg must be >= 0, got {self.eps_reg}")

    def space(self):
        return self.grid.space()


def _flux(g, p, eps):
    """a(g) = (g^2 + eps^2)^{(p-2)/2} g, with the eps = 0 limit taken nodewise."""
    if eps == 0.0:
        out = np.zeros_like(g)
        nz = g != 0.0
        out[nz] = np.abs(g[nz]) ** (p - 2.0) * g[nz]
        return out
    return (g * g + eps * eps) ** ((p - 2.0) / 2.0) * g


def _flux_deriv(g, p, eps):
    """a'(g) = (g^2 + eps^2)^{(p-4)/2} ((p-1) g^2 + eps^2) > 0 for eps > 0."""
    if eps == 0.0:
        out = np.zeros_like(g)
        nz = g != 0.0
        out[nz] = (p - 1.0) * np.abs(g[nz]) ** (p - 2.0)
        if p == 2.0:
            out[~nz] = 1.0
        return out
    g2 = g * g
    return (g2 + eps * eps) ** ((p - 4.0) / 2.0) * ((p - 1.0) * g2 + eps * eps)


def _power_flux(w, p):
    """|w|^{p-2} w for the robin boundary term (never regularized)."""
    out = np.zeros_like(w)
    nz = w != 0.0
    out[nz] = np.abs(w[nz]) ** (p - 2.0) * w[nz]
    return out


class DiscreteOperator:
    """Evaluation and linearization of A(u) = -div(a(grad phi(u))) + f(x, u)."""

    def __init__(self, spec):
        self.spec = spec
        self.grid = spec.grid
        self._space = spec.grid.space()
        self._nodes = spec.grid.nodes()

    @property
    def space(self):
        return self._space

    # -- edge gradients ----------------------------------------------------
    # Evaluation works along the last axis of its argument, so a (B, n) stack
    # of grid functions is evaluated member by member in one call.

    def _gradients_1d(self, w):
        n, = self.grid.shape
        h, = self.grid.h
        g = np.empty(w.shape[:-1] + (n + 1,))
        np.subtract(w[..., 1:], w[..., :-1], out=g[..., 1:n])
        g[..., 1:n] /= h
        if self.spec.bc.kind == "dirichlet":
            g[..., 0] = w[..., 0] / h
            g[..., n] = -w[..., n - 1] / h
        else:
            g[..., 0] = 0.0
            g[..., n] = 0.0
        return g

    def _gradients_2d(self, w):
        nx, ny = self.grid.shape
        hx, hy = self.grid.h
        W = w.reshape(w.shape[:-1] + (nx, ny))
        gx = np.zeros(W.shape[:-2] + (nx + 1, ny))
        gy = np.zeros(W.shape[:-2] + (nx, ny + 1))
        gx[..., 1:nx, :] = (W[..., 1:, :] - W[..., :-1, :]) / hx
        gy[..., :, 1:ny] = (W[..., :, 1:] - W[..., :, :-1]) / hy
        if self.spec.bc.kind == "dirichlet":
            gx[..., 0, :] = W[..., 0, :] / hx
            gx[..., nx, :] = -W[..., nx - 1, :] / hx
            gy[..., :, 0] = W[..., :, 0] / hy
            gy[..., :, ny] = -W[..., :, ny - 1] / hy
        return gx, gy

    def gradient_pnorm(self, v, p, eps=0.0):
        """sum over active edges of vol * |g_e|^p, the discrete ||grad v||_p^p."""
        vol = self.grid.cell_volume
        if eps == 0.0:
            mag = lambda g: np.abs(g) ** p
        else:
            mag = lambda g: (g * g + eps * eps) ** (p / 2.0)
        if self.grid.d == 1:
            g = self._gradients_1d(v)
            if self.spec.bc.kind != "dirichlet":
                g = g[1:-1]
            return float(vol * np.sum(mag(g)))
        gx, gy = self._gradients_2d(v)
        if self.spec.bc.kind != "dirichlet":
            gx = gx[1:-1, :]
            gy = gy[:, 1:-1]
        return float(vol * (np.sum(mag(gx)) + np.sum(mag(gy))))

    # -- operator evaluation -------------------------------------------------

    def diffusion_values(self, w):
        """-div(a(grad w)) plus the robin boundary term, on raw values w."""
        p, eps = self.spec.p, self.spec.eps_reg
        robin = self.spec.bc.kind == "robin"
        if self.grid.d == 1:
            h, = self.grid.h
            F = _flux(self._gradients_1d(w), p, eps)
            out = (F[..., :-1] - F[..., 1:]) / h
            if robin:
                ends = [0, -1]
                out[..., ends] += self.spec.bc.b * _power_flux(w[..., ends], p) / h
            return out
        nx, ny = self.grid.shape
        hx, hy = self.grid.h
        gx, gy = self._gradients_2d(w)
        Fx = _flux(gx, p, eps)
        Fy = _flux(gy, p, eps)
        out = (Fx[..., :-1, :] - Fx[..., 1:, :]) / hx + (Fy[..., :, :-1] - Fy[..., :, 1:]) / hy
        if robin:
            b = self.spec.bc.b
            W = w.reshape(out.shape)
            # face contribution: b |w|^{p-2} w * (tangential spacing) / cell volume
            out[..., 0, :] += b * _power_flux(W[..., 0, :], p) / hx
            out[..., -1, :] += b * _power_flux(W[..., -1, :], p) / hx
            out[..., :, 0] += b * _power_flux(W[..., :, 0], p) / hy
            out[..., :, -1] += b * _power_flux(W[..., :, -1], p) / hy
        return out.reshape(w.shape)

    def apply_values(self, u):
        w = self.spec.phi.value(u)
        out = self.diffusion_values(w)
        if self.spec.perturbation is not None:
            out = out + self.spec.perturbation.value(self._nodes, u)
        return out

    def apply(self, u):
        return GridFunction(self._space, self.apply_values(u.values))

    # -- linearization (for the implicit solver) ----------------------------

    def edge_conductivities(self, w):
        p, eps = self.spec.p, self.spec.eps_reg
        dirichlet = self.spec.bc.kind == "dirichlet"
        if self.grid.d == 1:
            c = _flux_deriv(self._gradients_1d(w), p, eps)
            if not dirichlet:
                c[..., 0] = 0.0  # boundary edges carry no flux for any w
                c[..., -1] = 0.0
            return c
        gx, gy = self._gradients_2d(w)
        cx = _flux_deriv(gx, p, eps)
        cy = _flux_deriv(gy, p, eps)
        if not dirichlet:
            cx[..., 0, :] = 0.0
            cx[..., -1, :] = 0.0
            cy[..., :, 0] = 0.0
            cy[..., :, -1] = 0.0
        return cx, cy

    def _robin_diag(self, w):
        """Diagonal of the derivative of the robin boundary term wrt w."""
        p = self.spec.p
        b = self.spec.bc.b

        def dpow(v):
            # derivative of |w|^{p-2} w; zeroed at w = 0 for p < 2 to keep it finite
            out = np.zeros_like(v)
            nz = (v != 0.0) | (p >= 2.0)
            out[nz] = (p - 1.0) * np.abs(v[nz]) ** (p - 2.0)
            return out

        if self.grid.d == 1:
            h, = self.grid.h
            ends = [0, -1]
            diag = np.zeros_like(w)
            diag[..., ends] += b * dpow(w[..., ends]) / h
            return diag
        nx, ny = self.grid.shape
        hx, hy = self.grid.h
        W = w.reshape(w.shape[:-1] + (nx, ny))
        D = np.zeros_like(W)
        D[..., 0, :] += b * dpow(W[..., 0, :]) / hx
        D[..., -1, :] += b * dpow(W[..., -1, :]) / hx
        D[..., :, 0] += b * dpow(W[..., :, 0]) / hy
        D[..., :, -1] += b * dpow(W[..., :, -1]) / hy
        return D.reshape(w.shape)

    def diffusion_jacobian_bands_1d(self, w):
        """Tridiagonal bands of d/dw [-div(a(grad w))], for scipy solve_banded.

        For a (B, n) stack the bands carry the same leading batch axis.
        """
        n, = self.grid.shape
        h, = self.grid.h
        c = self.edge_conductivities(w) / (h * h)  # c[..., e], e = 0..n
        lower = -c[..., 1:n]  # coupling to the left neighbor
        upper = -c[..., 1:n]
        diag = c[..., :n] + c[..., 1 : n + 1]
        if self.spec.bc.kind == "robin":
            diag = diag + self._robin_diag(w)
        return lower, diag, upper

    def diffusion_jacobian_matrix(self, w):
        """Sparse SPD matrix of d/dw [-div(a(grad w))] (any dimension)."""
        if self.grid.d == 1:
            lower, diag, upper = self.diffusion_jacobian_bands_1d(w)
            n = diag.size
            return sparse.diags_array(
                (lower, diag, upper), offsets=(-1, 0, 1), shape=(n, n), format="csr"
            )
        nx, ny = self.grid.shape
        hx, hy = self.grid.h
        cx, cy = self.edge_conductivities(w)
        cx = cx / (hx * hx)
        cy = cy / (hy * hy)
        diag = (cx[:-1, :] + cx[1:, :] + cy[:, :-1] + cy[:, 1:]).ravel()
        if self.spec.bc.kind == "robin":
            diag = diag + self._robin_diag(w)
        rows, cols, vals = [np.arange(diag.size)], [np.arange(diag.size)], [diag]
        idx = np.arange(nx * ny).reshape(nx, ny)
        # x-neighbors: interior x-edges couple (i-1, j) and (i, j)
        cin = cx[1:nx, :]
        rows.append(idx[1:, :].ravel())
        cols.append(idx[:-1, :].ravel())
        vals.append(-cin.ravel())
        rows.append(idx[:-1, :].ravel())
        cols.append(idx[1:, :].ravel())
        vals.append(-cin.ravel())
        cin = cy[:, 1:ny]
        rows.append(idx[:, 1:].ravel())
        cols.append(idx[:, :-1].ravel())
        vals.append(-cin.ravel())
        rows.append(idx[:, :-1].ravel())
        cols.append(idx[:, 1:].ravel())
        vals.append(-cin.ravel())
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        n = nx * ny
        return sparse.csr_array((vals, (rows, cols)), shape=(n, n))

    def phi_derivative(self, u):
        return self.spec.phi.derivative(u, self.spec.eps_reg)

    def perturbation_values(self, u):
        if self.spec.perturbation is None:
            return np.zeros_like(u)
        return self.spec.perturbation.value(self._nodes, u)

    def perturbation_derivative(self, u):
        if self.spec.perturbation is None:
            return np.zeros_like(u)
        return self.spec.perturbation.derivative(self._nodes, u)


def apply_operator(spec, u):
    """A(u) as a GridFunction; zero stays zero when f(x, 0) = 0."""
    return DiscreteOperator(spec).apply(u)


def energy(spec, u):
    """Convex energy of the diffusion part at the raw argument u.

    (1/p) sum_e vol (g_e^2 + eps^2)^{p/2} over active edges, plus the robin
    term (b/p) sum over boundary nodes of |u|^{p-2} u * u weighted by the
    boundary measure. phi is not applied: for doubly nonlinear operators
    this is the energy of the diffusion in its own variable.
    """
    op = DiscreteOperator(spec)
    v = u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)
    p, eps = spec.p, spec.eps_reg
    total = op.gradient_pnorm(v, p, eps) / p
    if spec.bc.kind == "robin":
        b = spec.bc.b
        if spec.grid.d == 1:
            total += b / p * (abs(v[0]) ** p + abs(v[-1]) ** p)
        else:
            nx, ny = spec.grid.shape
            hx, hy = spec.grid.h
            V = v.reshape(nx, ny)
            total += b / p * hy * float(np.sum(np.abs(V[0, :]) ** p + np.abs(V[-1, :]) ** p))
            total += b / p * hx * float(np.sum(np.abs(V[:, 0]) ** p + np.abs(V[:, -1]) ** p))
    return float(total)


@dataclass(frozen=True)
class GNCheckResult:
    ratio: float
    numerator: float
    denominator: float


def gn_check(spec, u, gn):
    """Ratio ||u||_r^sigma / (||u||_q^rho ([u, Au]_q + omega ||u||_q^q)).

    The inequality the smoothing machinery consumes says this ratio is
    bounded by the constant c. Raises if the denominator is not positive.
    """
    from .measure import lq_norm, q_bracket

    op = DiscreteOperator(spec)
    au = op.apply(u)
    nq = lq_norm(u, gn.q)
    if nq == 0.0:
        raise ValueError("gn_check needs u != 0")
    numerator = lq_norm(u, gn.r) ** gn.sigma
    denominator = nq**gn.rho * (q_bracket(u, au, gn.q) + gn.omega * nq**gn.q)
    if not denominator > 0.0:
        raise ValueError(f"nonpositive denominator {denominator}; the inequality does not apply")
    return GNCheckResult(ratio=numerator / denominator, numerator=numerator, denominator=denominator)


# -- source solution -------------------------------------------------------


@dataclass(frozen=True)
class BarenblattQuery:
    d: int
    p: float
    x: object
    t: float

    def evaluate(self):
        return barenblatt_profile(self.d, self.p, self.x, self.t)


def barenblatt_constants(d, p):
    lam = d * (p - 2.0) + p
    if lam <= 0.0:
        raise ValueError(f"need d(p-2)+p > 0, got {lam}")
    cp = (1.0 / lam) ** (1.0 / (p - 1.0)) * (2.0 - p) / p
    return lam, cp


def barenblatt_profile(d, p, x, t):
    """Self-similar source solution of the p-Laplace flow, p != 2.

    t^{-d/lam} [1 + c_p (|x| t^{-1/lam})^{p/(p-1)}]_+^{(p-1)/(p-2)} with
    lam = d(p-2)+p. For p > 2 it has compact support; scaling sends
    (x, t) -> (s^{1/lam} x, s t) with amplitude s^{d/lam}.
    """
    d = int(d)
    if p == 2.0:
        raise ValueError("the profile is defined for p != 2")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    lam, cp = barenblatt_constants(d, p)
    x = np.asarray(x, dtype=float)
    if d == 1:
        radius = np.abs(x)
    else:
        if x.ndim == 1 and x.shape[0] == d:
            radius = float(np.sqrt(np.sum(x * x)))
        else:
            radius = np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))
    xi = radius * t ** (-1.0 / lam)
    base = 1.0 + cp * xi ** (p / (p - 1.0))
    core = np.maximum(base, 0.0) ** ((p - 1.0) / (p - 2.0))
    return t ** (-d / lam) * core


def barenblatt_support_radius(d, p, t):
    """Radius of the support at time t (p > 2 only)."""
    if p <= 2.0:
        raise ValueError("compact support needs p > 2")
    lam, cp = barenblatt_constants(d, p)
    return (-1.0 / cp) ** ((p - 1.0) / p) * t ** (1.0 / lam)


def barenblatt_on_grid(grid, p, t):
    """Profile sampled at the grid nodes as a GridFunction."""
    nodes = grid.nodes()
    if grid.d == 1:
        vals = barenblatt_profile(1, p, nodes, t)
    else:
        x, y = nodes
        r = np.sqrt(x * x + y * y)
        vals = barenblatt_profile(2, p, r, t)
    return GridFunction(grid.space(), vals)
