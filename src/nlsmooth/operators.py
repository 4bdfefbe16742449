"""Discretized accretive operators of p-Laplace type, plus the source solution.

The operator is A(u) = -div(a(grad phi(u))) + f(x, u) on a uniform grid of
interior nodes in any dimension d, with Dirichlet (zero ghost values),
Neumann (zero boundary flux) or Robin (b |w|^{p-2} w boundary flux) coupling.
The flux a(g) = (g^2 + eps^2)^{(p-2)/2} g acts on scalar edge gradients
obtained by forward differences; the divergence is its exact adjoint, so the
diffusion part is the gradient of a convex separable energy,
DiscreteOperator.energy, and monotonicity holds at the discrete level, not
just in the limit. The same energy is the E of the time-error certificate of
a gradient flow (semigroup.gradient_flow).

Because the flux acts on each axis's edge gradient alone, in d >= 2 the
diffusion is the orthotropic p-Laplacian sum_a d_a(|d_a u|^{p-2} d_a u),
not the isotropic div(|grad u|^{p-2} grad u): for p != 2 its fronts spread
faster along the axes than along the diagonals, and the radial source
solution of the isotropic operator is not its solution.

A grid function is a flat array over the nodes in row-major order (the last
axis varies fastest). Every stencil operation is one loop over the axes of the
grid-shaped array (..., n_1, ..., n_d): the boundary condition decides what
the two boundary faces of each axis carry.

The Jacobian L of the diffusion has one form, 2d + 1 bands in the layout of a
scipy DIA matrix, from which both linear solvers of the resolvent build their
systems.
The offsets, DiscreteOperator.offsets, ascend, -stride_1, ..., -stride_d, 0,
stride_d, ..., stride_1, where stride_a is the distance of neighbouring nodes
along axis a in the flat array. Band k holds L[j - offset_k, j] at column j,
and 0 where that row is off the grid; in one dimension the bands are (sub,
diag, super), and these zeros keep the blocks of a stack of tridiagonal
systems apart.

Node i is red where the sum of its indices is even and black where it is odd,
so every edge joins a red and a black node. DiscreteOperator.red_black is the
plan of that colouring (RedBlack): each colour's nodes in ascending flat order,
and the couplings of the black rows with the red columns, L_br, as the DIA
bands of a (black, red) matrix. An edge from a black node at position i of
its colour to a red one at position j lies on the band of offset j - i; the
offsets differ only by the row's parity along the axes, so there are a few of
them (4 or 5 in 2-D, at most 9 in 3-D for 3 to 8 nodes per axis). The plan is
built at its first call and dropped when the operator moves to other nodes.

DiscreteOperator.state(u) is what evaluating A at u computes on the way and
what linearizing A at u needs again: phi(u), and on each axis the face
gradients g of phi(u) and their flux factors f = a(g)/g, the one power of a
face. The flux f g, the conductivity a'(g), the energy and the Robin term
read f, so a Newton step takes no power. apply_values and
diffusion_jacobian take the state, so that a Newton loop evaluates each
iterate once.

DiscreteOperator.window gives the operator on a box of the grid's nodes with
zero (Dirichlet) ghosts at the box's faces, keeping the grid's spacing, cell
volume and node coordinates. For a state that vanishes outside the box, and
a perturbation with f(x, 0) = 0, which the operator checks on its nodes, the
window's values, gradients, fluxes and Jacobian entries on the box are
exactly the whole grid's; the resolvent solves compactly supported data on it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, NamedTuple, Optional

import numpy as np

from .measure import DiscreteSpace, GridFunction

DEFAULT_EPS_REG = 1e-8


@dataclass(frozen=True)
class Grid:
    """Uniform grid of interior nodes on a box with d >= 1 axes.

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
        if not shape or len(bounds) != len(shape):
            raise ValueError("grid needs at least one axis, with matching bounds")
        for (lo, hi), n in zip(bounds, shape):
            if not (lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"invalid axis bounds ({lo}, {hi})")
            if n < 3:
                raise ValueError(f"need at least 3 nodes per axis, got {n}")
        if not 0.0 < self.cell_volume < math.inf:  # a product of spacings can overflow or underflow
            raise ValueError(f"invalid axis bounds {list(map(list, bounds))}: the cell volume is {self.cell_volume!r}")

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

    def coordinates(self):
        """Node coordinates as a tuple of d flat arrays, one per axis."""
        mesh = np.meshgrid(*(self.axis_nodes(a) for a in range(self.d)), indexing="ij")
        return tuple(x.ravel() for x in mesh)

    def distance(self, center=0.0):
        """|x - center| at every node, center a number or a point; hypot cannot overflow, and is exact in 1-d."""
        center = np.broadcast_to(np.asarray(center, dtype=float), (self.d,))
        return reduce(np.hypot, (x - c for x, c in zip(self.coordinates(), center)), 0.0)

    def space(self):
        return DiscreteSpace(np.full(self.n_total, self.cell_volume))


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str
    b: float = 0.0

    def __post_init__(self):
        kind = str(self.kind).lower()
        object.__setattr__(self, "kind", kind)
        if kind not in ("dirichlet", "neumann", "robin"):
            raise ValueError(f"unknown boundary condition {self.kind!r}")
        if kind == "robin" and not (0.0 < self.b < math.inf):
            raise ValueError(f"robin coupling needs b > 0 and finite, got {self.b}")
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
    stays positive at s = 0.
    """

    kind: str = "identity"
    m: float = 1.0

    def __post_init__(self):
        kind = str(self.kind).lower()
        object.__setattr__(self, "kind", kind)
        if kind not in ("identity", "power"):
            raise ValueError(f"unknown phi kind {self.kind!r}")
        if kind == "power" and not (self.m > 0.0 and math.isfinite(self.m)):
            raise ValueError(f"power exponent must be positive and finite, got {self.m}")

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def power(cls, m):
        return cls("power", m=float(m))

    def value(self, s):
        """phi(s); the identity returns the float array s itself, not a copy."""
        s = np.asarray(s, dtype=float)
        if self.kind == "identity":
            return s
        return np.sign(s) * np.abs(s) ** self.m

    def derivative(self, s, eps):
        s = np.asarray(s, dtype=float)
        if self.kind == "identity":
            return np.ones_like(s)
        return self.m * (s * s + eps * eps) ** ((self.m - 1.0) / 2.0)


@dataclass(frozen=True)
class LipschitzF:
    """Nodewise perturbation f(x, u), Lipschitz in u with f(x, 0) = 0.

    x is the tuple of the d flat coordinate arrays of the nodes (a 1-tuple in
    one dimension), as Grid.coordinates returns it; deriv(x, u) is the
    derivative of f in u.
    """

    func: Callable
    lipschitz: float
    deriv: Callable

    def __post_init__(self):
        if not (self.lipschitz >= 0.0 and math.isfinite(self.lipschitz)):
            raise ValueError(f"lipschitz bound must be finite and >= 0, got {self.lipschitz}")

    def value(self, x, u):
        return np.asarray(self.func(x, u), dtype=float)

    def derivative(self, x, u):
        return np.asarray(self.deriv(x, u), dtype=float)


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
        if not (0.0 <= self.eps_reg < math.inf):
            raise ValueError(f"eps_reg must be >= 0 and finite, got {self.eps_reg}")
        # at g = 0 the flux factor (g^2 + eps^2)^{(p-2)/2} and a'(g), which divides by g^2 + eps^2, need eps^2 > 0
        if self.eps_reg and not 0.0 < self.eps_reg * self.eps_reg < math.inf:
            raise ValueError(f"eps_reg must be 0 or have a positive finite square, got {self.eps_reg}")
        if self.eps_reg == 0.0 and self.phi.kind == "power" and self.phi.m < 1.0:  # phi'(0) = m 0^{m-1} = inf
            raise ValueError(f"eps_reg must be positive for a power phi with m < 1, whose derivative is infinite "
                             f"at u = 0; got 0 with m = {self.phi.m}")

    def space(self):
        return self.grid.space()


def _flux_factor(g, p, eps):
    """f = a(g) / g = (g^2 + eps^2)^{(p-2)/2}, so that the flux is f g. At
    eps = 0 it is |g|^{p-2}, and at g = 0 the limit that keeps a'(0) = (p-1) f
    finite: 1 for p = 2, else 0. At p = 2 it is 1 for every g and eps."""
    if p == 2.0:
        return np.ones_like(g)
    if eps == 0.0:
        with np.errstate(divide="ignore"):  # 0^(p-2) is inf for p < 2, and replaced by the limit 0
            f = np.abs(g) ** (p - 2.0)
        if p < 2.0:
            f[g == 0.0] = 0.0
        return f
    f = g * g
    f += eps * eps
    f **= (p - 2.0) / 2.0
    return f


class RedBlack(NamedTuple):
    """The red-black plan of a box of nodes (see the module docstring), with
    the arrays that each Newton system's Schur complement writes. The plan
    owns them, so the next system of the same operator overwrites them."""

    red: np.ndarray  # the flat indices of the red nodes, ascending
    black: np.ndarray  # and of the black nodes
    offsets: np.ndarray  # the ascending int32 DIA offsets of L_br, black rows by red columns
    source: np.ndarray  # (len(offsets), len(red)): where the bands of one grid function hold L_br's entries
    br: np.ndarray  # (len(offsets), len(red)): red_black_couplings' bands, which the Schur complement scales to N_br
    rb: np.ndarray  # (len(offsets), len(black)): the bands of -N_rb; no system writes their padding, zeroed once
    lower: np.ndarray  # len(black): the buffer of the product x -> N_br x
    upper: np.ndarray  # len(red): and of (x, t) -> x - N_rb t


def _red_black(shape):
    """The RedBlack plan of the nodes of shape. Each edge is read once, at its
    lower node in the band below the diagonal of its axis; an entry off every
    edge reads band 0 at the last node, which is off the grid and so 0."""
    n, d = math.prod(shape), len(shape)
    index = np.indices(shape).reshape(d, n)
    black = index.sum(axis=0) % 2 == 1
    red_nodes, black_nodes = np.flatnonzero(~black), np.flatnonzero(black)
    position = np.where(black, np.cumsum(black), np.cumsum(~black)) - 1  # each node's place in its colour's list
    rows, columns, source = [], [], []
    for a in range(d):
        lo = np.flatnonzero(index[a] < shape[a] - 1)  # the edges of axis a, by their lower node
        hi = lo + math.prod(shape[a + 1:])
        rows.append(position[np.where(black[lo], lo, hi)])
        columns.append(position[np.where(black[lo], hi, lo)])
        source.append(a * n + lo)  # band a holds L[lo + stride_a, lo] at column lo
    rows, columns, source = map(np.concatenate, (rows, columns, source))
    offsets, band = np.unique(columns - rows, return_inverse=True)
    gather = np.full((offsets.size, red_nodes.size), n - 1)
    gather[band, columns] = source
    # the four work arrays are views of one zeroed block, which zeroes -N_rb's padding. Allocated alone, the two
    # buffers would live in the malloc heap as long as the plan and keep it from returning the pages above them
    # (step-2d's peak resident set was 1.1 MB higher)
    k, n_red, n_black = offsets.size, red_nodes.size, black_nodes.size
    sizes = [k * n_red, k * n_black, n_black, n_red]
    br, rb, lower, upper = np.split(np.zeros(sum(sizes)), np.cumsum(sizes[:-1]))
    return RedBlack(red_nodes, black_nodes, offsets.astype(np.int32), gather, br.reshape(k, n_red),
                    rb.reshape(k, n_black), lower, upper)


class _Axis(NamedTuple):
    """Index tuples of one grid axis for arrays shaped (..., n_1, ..., n_d).

    Node arrays have n entries along the axis and face arrays n + 1; face i
    lies between nodes i - 1 and i.
    """

    h: float
    faces: tuple  # the shape of a face array of one grid function
    stride: int  # distance of neighbouring nodes along the axis in the flat array
    lo: tuple  # nodes 0..n-2, or faces 0..n-1
    hi: tuple  # nodes 1..n-1, or faces 1..n
    inner: tuple  # interior faces 1..n-1
    node_ends: tuple  # nodes 0 and n-1
    face_ends: tuple  # faces 0 and n
    ghost_h: np.ndarray  # h and -h, along the axis: a Dirichlet end face's gradient is the end node over it


def _axes(shape, spacing):
    d = len(shape)
    out = []
    for a, (n, h) in enumerate(zip(shape, spacing)):
        at = lambda index: (Ellipsis, index) + (slice(None),) * (d - 1 - a)
        out.append(_Axis(
            h=h, faces=shape[:a] + (n + 1,) + shape[a + 1:], stride=math.prod(shape[a + 1:]),
            lo=at(slice(None, -1)), hi=at(slice(1, None)), inner=at(slice(1, -1)),
            node_ends=at(slice(None, None, n - 1)), face_ends=at(slice(None, None, n)),
            ghost_h=np.array([h, -h]).reshape((2,) + (1,) * (d - 1 - a)),
        ))
    return tuple(out)


class DiscreteOperator:
    """Evaluation and linearization of A(u) = -div(a(grad phi(u))) + f(x, u).

    Evaluation works along the last axis of its argument, so a (B, n) stack of
    grid functions is evaluated member by member in one call. shape and d are
    those of the nodes it acts on: the grid's, or a box's for a window.
    Refuses a perturbation that does not vanish at u = 0 on every node.
    """

    def __init__(self, spec):
        self.spec = spec
        self._cell_volume = spec.grid.cell_volume
        self._place(spec.grid.shape, spec.grid.h, spec.grid.coordinates(), spec.bc.kind)
        self._window = None  # the last window built, as (box, operator)
        if spec.perturbation is not None:
            n = self._space.n
            f0 = np.broadcast_to(spec.perturbation.value(self._nodes, np.zeros(n)), (n,))
            for j in np.flatnonzero(f0 != 0.0)[:1]:
                x = ", ".join(f"{c[j]:g}" for c in self._nodes)
                raise ValueError(f"the perturbation must vanish at u = 0, but f(x, 0) = {float(f0[j])!r} "
                                 f"at node {j}, x = ({x})")

    def _place(self, shape, spacing, nodes, bc_kind):
        """Act on the nodes of shape, with their spacing and flat coordinates,
        and bc_kind at the faces of their box."""
        self.shape, self.d = shape, len(shape)
        self._space = DiscreteSpace(np.full(math.prod(shape), self._cell_volume))
        self._nodes = nodes
        self._axes = _axes(shape, spacing)
        # band offsets of the Jacobian, ascending (see the module docstring), as int32 for scipy's DIA kernel
        self.offsets = np.array([-ax.stride for ax in self._axes] + [0] + [ax.stride for ax in reversed(self._axes)],
                                dtype=np.int32)
        self._dirichlet = bc_kind == "dirichlet"
        self._robin = bc_kind == "robin"
        self._red_black = None  # a window, a copy of its parent, must not keep the parent's plan

    def window(self, box):
        """This operator on the nodes of box, one slice per axis, with zero
        (Dirichlet) ghosts at its faces (see the module docstring). box must
        touch no face of the grid, whose own boundary condition the window
        does not apply. The last window built is kept for the next call."""
        if self._window is None or self._window[0] != box:
            win = copy.copy(self)
            sub = [x.reshape(self.shape)[box] for x in self._nodes]
            win._place(sub[0].shape, [ax.h for ax in self._axes], tuple(x.ravel() for x in sub), "dirichlet")
            win._window = None
            self._window = (box, win)
        return self._window[1]

    @property
    def space(self):
        return self._space

    def red_black(self):
        """The RedBlack plan of the nodes (see the module docstring), built at
        the first call."""
        if self._red_black is None:
            self._red_black = _red_black(self.shape)
        return self._red_black

    def _grid_shaped(self, w):
        return w.reshape(w.shape[:-1] + self.shape)

    # -- edge gradients ----------------------------------------------------

    def _gradients(self, W):
        """Forward differences of the grid-shaped W on the faces of each axis.

        The two boundary faces of an axis see the ghost value 0 under
        Dirichlet and carry no gradient under Neumann or Robin.
        """
        lead, out = W.shape[: W.ndim - self.d], []
        for ax in self._axes:
            g = np.empty(lead + ax.faces)
            inner = g[ax.inner]
            np.subtract(W[ax.hi], W[ax.lo], out=inner)
            inner /= ax.h
            if self._dirichlet:
                np.divide(W[ax.node_ends], ax.ghost_h, out=g[ax.face_ends])  # W_0 / h and -W_n-1 / h, bit for bit
            else:
                g[ax.face_ends] = 0.0
            out.append(g)
        return out

    def _faces(self, w):
        """The face data of w: per axis its gradients g (see _gradients), then
        per axis the flux factor f = a(g) / g (see _flux_factor)."""
        grads = self._gradients(self._grid_shaped(w))
        return (*grads, *(_flux_factor(g, self.spec.p, self.spec.eps_reg) for g in grads))

    def state(self, u):
        """The tuple (w, *faces) of w = phi(u) and the face data of w (see
        _faces): what evaluating A at u computes on the way and what its
        linearization at u needs again. Every array keeps the leading axes of
        u, so row j of a stack's state is the state of row j."""
        w = self.spec.phi.value(u)
        return (w, *self._faces(w))

    def energy(self, v):
        """The convex energy of the diffusion at the values v, whose gradient in
        the node weights is diffusion_values: (1/p) sum_e vol (g_e^2 + eps^2)^{p/2}
        over the faces that carry a gradient (see _gradients; the interior ones
        unless Dirichlet), plus, under Robin, (b/p) |v|^p at each boundary node
        on the face measure vol / h_a. phi is not applied: for doubly nonlinear
        operators this is the energy of the diffusion in its own variable."""
        p, eps, vol = self.spec.p, self.spec.eps_reg, self._cell_volume
        faces, V, total = self._faces(v), self._grid_shaped(v), 0.0
        for ax, g, f in zip(self._axes, faces, faces[self.d:]):
            e = g * g
            e += eps * eps
            e *= f  # (g^2 + eps^2)^{p/2}
            total += np.sum(e if self._dirichlet else e[ax.inner])
        total = float(vol * total) / p
        if self._robin:
            for ax in self._axes:
                ends = V[ax.node_ends]
                total += self.spec.bc.b / p * (vol / ax.h) * float(np.sum(_flux_factor(ends, p, 0.0) * ends * ends))
        return total

    # -- operator evaluation -------------------------------------------------

    def diffusion_values(self, w, faces=None):
        """-div(a(grad w)) plus the robin boundary term, on raw values w; faces,
        if given, is self._faces(w)."""
        if faces is None:
            faces = self._faces(w)
        terms = []
        for ax, g, f in zip(self._axes, faces, faces[self.d:]):
            F = f * g
            terms.append((F[ax.lo] - F[ax.hi]) / ax.h)
        out = sum(terms[1:], start=terms[0])
        if self._robin:
            b, W = self.spec.bc.b, self._grid_shaped(w)
            # b |w|^{p-2} w acts on the face measure cell_volume / h_a; per unit node weight that is 1 / h_a
            for ax in self._axes:
                ends = W[ax.node_ends]
                out[ax.node_ends] += b * (_flux_factor(ends, self.spec.p, 0.0) * ends) / ax.h
        return out.reshape(w.shape)

    def apply_values(self, u, state=None):
        """A(u); state, if given, is self.state(u), and its values are not
        computed again."""
        w, *faces = self.state(u) if state is None else state
        out = self.diffusion_values(w, faces)
        if self.spec.perturbation is not None:
            out = out + self.spec.perturbation.value(self._nodes, u)
        return out

    def apply(self, u):
        return GridFunction(self._space, self.apply_values(u.values))

    # -- linearization (for the implicit solver) ----------------------------

    def diffusion_jacobian(self, w, faces=None):
        """d/dw [-div(a(grad w))] plus the robin boundary term, as bands of shape
        (2d + 1,) + w.shape; faces, if given, is self._faces(w).

        Band k holds L[j - offset_k, j] at column j and 0 where that row is
        off the grid. Band d is the diagonal; bands a and 2d - a carry
        -c_e / h_a^2 for each interior edge e of axis a, at its lower and at
        its upper node, with the conductivity c_e = a'(g_e); boundary faces
        carry none unless Dirichlet. A (B, n) stack gives (2d + 1, B, n).
        """
        p, eps, d = self.spec.p, self.spec.eps_reg, self.d
        if faces is None:
            faces = self._faces(w)
        bands = np.zeros((2 * d + 1,) + w.shape)
        B = self._grid_shaped(bands)
        diag = B[d]
        for a, (ax, g, f) in enumerate(zip(self._axes, faces, faces[d:])):
            if eps == 0.0 or p == 2.0:
                c = f * (p - 1.0)  # a'(g) = (p - 1) |g|^{p-2} at eps = 0, and 1 = f at p = 2
            else:  # a'(g) = f ((p - 1) g^2 + eps^2) / (g^2 + eps^2), with no power
                c = g * g  # then in place: an out-of-place expression was slower on a 128^2 grid's faces
                s = c + eps * eps
                c *= p - 1.0
                c += eps * eps
                c /= s
                c *= f
            if not self._dirichlet:
                c[ax.face_ends] = 0.0  # boundary edges carry no flux for any w
            c /= -(ax.h * ax.h)  # the off-diagonal entries -c_e / h_a^2
            diag -= c[ax.lo]
            diag -= c[ax.hi]
            B[a][ax.lo] = B[2 * d - a][ax.hi] = c[ax.inner]
        if self._robin:
            # b (|w|^{p-2} w)' / h_a, zeroed at w = 0 for p < 2 to keep it finite, joins the diagonal once
            W, robin = self._grid_shaped(w), np.zeros_like(diag)
            for ax in self._axes:
                robin[ax.node_ends] += self.spec.bc.b * (_flux_factor(W[ax.node_ends], p, 0.0) * (p - 1.0)) / ax.h
            diag += robin
        return bands

    def jacobian_apply(self, bands, v):
        """L v for the bands of diffusion_jacobian."""
        d, V, B = self.d, self._grid_shaped(v), self._grid_shaped(bands)
        out = self._grid_shaped(bands[d] * v)
        for a, ax in enumerate(self._axes):
            out[ax.lo] += B[a][ax.lo] * V[ax.hi]
            out[ax.hi] += B[2 * d - a][ax.hi] * V[ax.lo]
        return out.reshape(v.shape)

    def red_black_couplings(self, bands, s):
        """The DIA bands of diag(s) L diag(s) in the black rows and red columns,
        at the offsets of red_black(), for the bands of one grid function and
        the scaling s; band k holds the entry of row j - offset_k at column j,
        and 0 where that entry couples no edge or lies off the matrix. They are
        written into the plan's br, which the next call overwrites; the take
        is unbuffered (mode "wrap", whose indices are all in range), where the
        default mode would gather into a temporary of the same size first."""
        plan = self.red_black()
        out = np.take(bands[:self.d], plan.source, out=plan.br, mode="wrap")
        out *= s[plan.red]
        s_black, n_red = s[plan.black], plan.red.size
        for row, offset in zip(out, plan.offsets.tolist()):
            lo, hi = max(0, offset), min(s_black.size + offset, n_red)
            row[lo:hi] *= s_black[lo - offset:hi - offset]
        return out

    def diffusion_jacobian_matrix(self, w):
        """d/dw [-div(a(grad w))] as a scipy DIA matrix (any dimension):
        symmetric positive semi-definite, singular under Neumann (the constants
        are in its kernel) and zero at w = 0 for eps_reg = 0 and p > 2. The
        Newton matrix diag(a) + lambda S L S of the resolvent, a > 0, is SPD.
        scipy.sparse is imported here, which no solve calls."""
        from scipy import sparse
        n = w.shape[-1]
        return sparse.dia_array((self.diffusion_jacobian(w), self.offsets), shape=(n, n))

    def phi_derivative(self, u):
        return self.spec.phi.derivative(u, self.spec.eps_reg)

    def perturbation_derivative(self, u):
        if self.spec.perturbation is None:
            return np.zeros_like(u)
        return self.spec.perturbation.derivative(self._nodes, u)


@dataclass(frozen=True)
class GNCheckResult:
    ratio: float
    numerator: float
    denominator: float


def gn_check(spec, u, gn):
    """Ratio ||u||_r^sigma / (||u||_q^rho [u, Au]_q).

    The inequality the smoothing machinery consumes says this ratio is
    bounded. Raises if the denominator is not positive.
    """
    from .measure import lq_norm, q_bracket

    op = DiscreteOperator(spec)
    au = op.apply(u)
    nq = lq_norm(u, gn.q)
    if nq == 0.0:
        raise ValueError("gn_check needs u != 0")
    numerator = lq_norm(u, gn.r) ** gn.sigma
    denominator = nq**gn.rho * q_bracket(u, au, gn.q)
    if not denominator > 0.0:
        raise ValueError(f"nonpositive denominator {denominator}; the inequality does not apply")
    return GNCheckResult(ratio=numerator / denominator, numerator=numerator, denominator=denominator)


# -- source solution -------------------------------------------------------


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
    x = np.asarray(x, dtype=float)
    radius = np.abs(x) if d == 1 else np.sqrt(np.sum(x * x, axis=-1))
    return _barenblatt_radial(d, p, radius, t)


def _barenblatt_radial(d, p, radius, t):
    if p == 2.0:
        raise ValueError("the profile is defined for p != 2")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    lam, cp = barenblatt_constants(d, p)
    xi = radius * t ** (-1.0 / lam)
    with np.errstate(over="ignore"):  # the power is inf only far out, where the profile is 0 or underflows
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
    return GridFunction(grid.space(), _barenblatt_radial(grid.d, p, grid.distance(), t))
