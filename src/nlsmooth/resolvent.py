"""Resolvent of the discretized operator: solve u + lambda A(u) = g.

This is the implicit Euler step that generates the semigroup. The nonlinear
system is solved by a damped Newton method on the weighted-l2 residual with
Armijo backtracking, falling back to damped Picard sweeps whenever the
linearized step is unusable.

solve_resolvent_batch runs one Newton loop over a (B, n) stack of right-hand
sides that share the operator and lambda. Each member keeps its own residual,
iteration count, step length and failure reason, and leaves the loop when it
converges or fails; solve_resolvent is the B = 1 case. In one dimension the
B tridiagonal Newton systems of an iteration are stacked into a single
tridiagonal system of size B*n with zero coupling between blocks and solved by
one LAPACK gtsv call: without a nonzero coupling gtsv never pivots across a
block boundary, so each block gets the solution it would get alone. In two
dimensions each member's system is symmetrized to an SPD system and solved by
Jacobi-preconditioned conjugate gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import diags_array
from scipy.sparse.linalg import LinearOperator, cg

from .measure import GridFunction
from .operators import DiscreteOperator

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 40
CG_RTOL = 1e-12


class PreconditionError(ValueError):
    """lambda * L >= 1: the perturbed resolvent is not a contraction."""


class NonConvergenceError(RuntimeError):
    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class ResolventQuery:
    spec: object
    lam: float
    g: GridFunction
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER


@dataclass(frozen=True)
class ResolventResult:
    u: GridFunction
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ResolventBatchResult:
    """Per-member outcome of solve_resolvent_batch; row k belongs to g_k.

    A member that failed keeps its last iterate in u and the reason in
    failures (None for converged members).
    """

    u: np.ndarray  # (B, n)
    residual: np.ndarray  # (B,) weighted-l2 residual norms
    iterations: np.ndarray  # (B,) accepted Newton or Picard steps
    converged: np.ndarray  # (B,) bool
    failures: list  # (B,) None or a message


def _weighted_norms(weights, R):
    # one dot product per row, so a member's norm does not depend on the batch
    return np.sqrt(np.vecdot(R * R, weights))


def _solve_tridiagonal_stack(system):
    """Solve k tridiagonal systems as one, returning the (k, n) solutions.

    system is (4, k, n): the superdiagonal, diagonal and subdiagonal of each
    block in the band layout of solve_banded((1, 1), ...), with
    system[0, :, 0] = system[2, :, -1] = 0, then the right-hand sides. A NaN
    or inf in one block would leak into its neighbours through the
    elimination, so when the stack is not finite, LAPACK rejects it, or its
    solution is not finite, the blocks are solved one by one instead. Rows
    whose system is unusable come back as NaN.
    """
    _, k, n = system.shape
    if np.isfinite(system).all():
        lone = k == 1  # no block-by-block retry follows, so LAPACK may work in place
        try:
            steps = solve_banded(
                (1, 1), system[:3].reshape(3, k * n), system[3].reshape(k * n),
                overwrite_ab=lone, overwrite_b=lone, check_finite=False,
            ).reshape(k, n)
            if lone or np.isfinite(steps).all():
                return steps
        except (np.linalg.LinAlgError, ValueError):
            pass
    steps = np.full((k, n), np.nan)
    for j in range(k) if k > 1 else ():
        block = system[:, j]
        if np.isfinite(block).all():
            try:
                steps[j] = solve_banded((1, 1), block[:3], block[3], check_finite=False)
            except (np.linalg.LinAlgError, ValueError):
                pass
    return steps


def _single(V):
    """A one-row stack as its 1-D row: the operators take either, and numpy's
    per-call overhead, which dominates at these sizes, is lower in 1-D."""
    return V[0] if len(V) == 1 else V


def _newton_steps_1d(op, lam, U, R):
    k, n = U.shape
    U, R = _single(U), _single(R)
    lower, diag, upper = op.diffusion_jacobian_bands_1d(op.spec.phi.value(U))
    upper, lower = lam * upper, lam * lower
    if op.spec.phi.kind != "identity":  # phi' = 1 would make these products no-ops
        D = op.phi_derivative(U)
        upper, diag, lower = upper * D[..., 1:], diag * D, lower * D[..., :-1]
    if op.spec.perturbation is not None:
        diag = diag + op.perturbation_derivative(U)
    system = np.zeros((4,) + U.shape)
    system[0, ..., 1:] = upper  # J[i, i+1]
    system[1] = 1.0 + lam * diag
    system[2, ..., :-1] = lower  # J[i+1, i]
    np.negative(R, out=system[3])
    return _solve_tridiagonal_stack(system.reshape(4, k, n))


def _newton_step_2d(op, lam, u, res):
    w = op.spec.phi.value(u)
    Lw = op.diffusion_jacobian_matrix(w)
    D = op.phi_derivative(u)
    fp = op.perturbation_derivative(u)
    # substitute z = D * delta: the system becomes SPD
    # (diag((1 + lam f') / D) + lam Lw) z = -res
    dd = (1.0 + lam * fp) / D
    M = diags_array(dd, format="csr") + lam * Lw
    n = u.size
    inv_diag = 1.0 / M.diagonal()
    precond = LinearOperator((n, n), matvec=lambda v: inv_diag * v)
    rhs = -res
    z, info = cg(M, rhs, rtol=CG_RTOL, atol=0.0, maxiter=20 * n, M=precond)
    if info != 0:
        raise np.linalg.LinAlgError(f"cg failed with info={info}")
    return z / D


def _newton_steps_2d(op, lam, U, R):
    steps = np.full(U.shape, np.nan)
    for j in range(len(U)):
        try:
            steps[j] = _newton_step_2d(op, lam, U[j], R[j])
        except (np.linalg.LinAlgError, ValueError):
            pass
    return steps


def _check_step(spec, lam):
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if spec.perturbation is not None and lam * spec.perturbation.lipschitz >= 1.0:
        raise PreconditionError(
            f"lambda*L = {lam * spec.perturbation.lipschitz} >= 1; "
            "shrink the step below 1/L"
        )


class _Members:
    """Iterates and residuals of the members still iterating.

    Row j of the arrays is member idx[j]; all of them have taken k steps. A
    member that converges or fails is written to `out` and its row removed,
    so a batch whose members all take the same number of iterations is never
    re-indexed.
    """

    def __init__(self, op, lam, G):
        self.op, self.lam, self.g = op, lam, G
        self.weights = op.space.weights
        self.idx = np.arange(len(G))
        self.u = G.copy()
        self.r = self.residual(self.u, slice(None))
        self.rn = _weighted_norms(self.weights, self.r)
        self.k = 0
        self.out = ResolventBatchResult(
            u=np.empty_like(G), residual=np.empty(len(G)), iterations=np.empty(len(G), dtype=int),
            converged=np.empty(len(G), dtype=bool), failures=[None] * len(G),
        )

    def residual(self, v, rows):
        return v + self.lam * self.op.apply_values(_single(v)) - self.g[rows]

    def leave(self, rows, reason=None):
        """Write out the members rows (indices, or None for all), failed with
        `reason` unless it is None, and drop them."""
        sel = slice(None) if rows is None else rows
        ids, out = self.idx[sel], self.out
        out.u[ids], out.residual[ids], out.iterations[ids] = self.u[sel], self.rn[sel], self.k
        out.converged[ids] = reason is None
        for j in ids if reason else ():
            out.failures[j] = f"{reason}: residual {float(out.residual[j])} after {self.k} iterations"
        if rows is None:
            keep = slice(0)
        else:
            keep = np.ones(len(self.idx), dtype=bool)
            keep[rows] = False
        self.idx, self.g, self.u, self.r, self.rn = (
            a[keep] for a in (self.idx, self.g, self.u, self.r, self.rn)
        )

    def line_search(self, direction, rows, armijo):
        """Damped update u += t * direction of the members rows (indices, or None for all).

        Each tries t = 1, 1/2, ... up to MAX_BACKTRACKS times and takes the
        first t whose residual norm passes the Armijo test, or with
        armijo=False simply decreases. Returns the indices of the members
        that found no such t.
        """
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            if rows is not None and not rows.size:
                return rows
            sel = slice(None) if rows is None else rows
            u_try = self.u[sel] + t * direction[sel]
            r_try = self.residual(u_try, sel)
            rn_try = _weighted_norms(self.weights, r_try)
            rn = self.rn[sel]
            passed = rn_try <= (1.0 - ARMIJO_SLOPE * t) * rn if armijo else rn_try < rn
            if rows is None:
                if passed.all():
                    self.u, self.r, self.rn = u_try, r_try, rn_try
                    return self.idx[:0]
                rows = np.arange(len(self.u))
            hit = rows[passed]
            self.u[hit], self.r[hit], self.rn[hit] = u_try[passed], r_try[passed], rn_try[passed]
            rows = rows[~passed]
            t *= 0.5
        return np.arange(len(self.u)) if rows is None else rows


def solve_resolvent_batch(spec, lam, G, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, op=None):
    """Solve u_k + lambda A(u_k) = g_k for every row g_k of the (B, n) array G.

    Every member follows the rules of solve_resolvent on its own: it stops
    when its weighted-l2 residual reaches tol, and fails when it has used
    max_iter iterations or when neither the Newton step nor a damped Picard
    sweep decreases its residual. Failures are reported per member in the
    returned ResolventBatchResult; nothing is raised for them.
    """
    _check_step(spec, lam)
    if op is None:
        op = DiscreteOperator(spec)
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[1] != op.space.n:
        raise ValueError(f"G must have shape (B, {op.space.n}), got {G.shape}")
    if not np.isfinite(G).all():
        raise ValueError("G must be finite")
    return _newton(spec, op, lam, G, tol, max_iter)


def _newton(spec, op, lam, G, tol, max_iter):
    """The damped Newton loop over the rows of G; returns a ResolventBatchResult."""
    newton_steps = _newton_steps_1d if spec.grid.d == 1 else _newton_steps_2d
    m = _Members(op, lam, G)
    while m.idx.size:
        active = m.rn > tol  # a NaN residual stops too, as in `while rn > tol`
        n_active = np.count_nonzero(active)
        if n_active < len(active):
            m.leave(np.flatnonzero(~active) if n_active else None)
            if not n_active:
                break
        if m.k >= max_iter:
            m.leave(None, "resolvent did not converge")
            break
        step = newton_steps(op, lam, m.u, m.r)
        if np.isfinite(step).all():
            stuck = m.line_search(step, None, armijo=True)
        else:
            usable = np.isfinite(step).all(axis=1)
            tried = m.line_search(step, np.flatnonzero(usable), armijo=True)
            stuck = np.union1d(np.flatnonzero(~usable), tried)
        if stuck.size:
            # damped Picard sweep on the fixed-point form u = g - lam A(u)
            direction = np.zeros_like(m.u)
            direction[stuck] = m.g[stuck] - lam * op.apply_values(m.u[stuck]) - m.u[stuck]
            stuck = m.line_search(direction, stuck, armijo=False)
            if stuck.size:
                m.leave(stuck, "no descent found")
        m.k += 1
    return m.out


def solve_resolvent(spec, lam, g, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, op=None):
    """Solve u + lambda A(u) = g for the given spec; returns ResolventResult.

    lam must be positive, and lambda * L < 1 when a Lipschitz perturbation
    is present. Raises NonConvergenceError if the weighted-l2 residual does
    not reach tol within max_iter outer iterations.
    """
    _check_step(spec, lam)
    if op is None:
        op = DiscreteOperator(spec)
    out = _newton(spec, op, lam, g.values[None, :], tol, max_iter)
    residual, iterations = float(out.residual[0]), int(out.iterations[0])
    if not out.converged[0]:
        raise NonConvergenceError(out.failures[0], residual=residual, iterations=iterations)
    return ResolventResult(
        u=GridFunction(g.space, out.u[0]),
        residual=residual,
        iterations=iterations,
        converged=True,
    )


def solve_query(query):
    return solve_resolvent(query.spec, query.lam, query.g, tol=query.tol, max_iter=query.max_iter)


def resolvent_power(spec, lam, g, n, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, op=None):
    """n-fold resolvent (I + lam A)^{-n} g; n = 0 returns g unchanged."""
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if op is None:
        op = DiscreteOperator(spec)
    u = g
    total_iter = 0
    residual = 0.0
    for _ in range(n):
        out = solve_resolvent(spec, lam, u, tol=tol, max_iter=max_iter, op=op)
        u, total_iter, residual = out.u, total_iter + out.iterations, out.residual
    return ResolventResult(u=u, residual=residual, iterations=total_iter, converged=True)
