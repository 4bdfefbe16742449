"""Resolvent of the discretized operator: solve u + lambda A(u) = g.

This is the implicit Euler step that generates the semigroup. The nonlinear
system is solved by a damped Newton method on the weighted-l2 residual with
Armijo backtracking. A member whose Newton step finds no descent, or whose
linear solve failed, takes a damped Picard sweep on u = g - lambda A(u): the
same Armijo line search along -R.

The Newton system is (diag(a) + lambda L diag(phi'(u))) delta = -R, with
a = 1 + lambda f'(u), L the Jacobian of the diffusion at phi(u) and R the
residual. In one dimension gtsv, which pivots, solves it as it stands: the
Jacobian bands times phi'(u), since band k is indexed by column. In more
dimensions CG solves it scaled once to an SPD system with unit diagonal: with
S = sqrt(phi'(u)), or 1 for phi = identity, W = S / sqrt(a + lambda S^2 diag(L))
and L' the bands of L off its diagonal, (I + lambda W L' W) y = -W R; then
z = W y is delta for the identity, and delta = (-R - lambda L z) / a for a
power phi. This is Jacobi-preconditioned CG on the SPD diag(a) + lambda S L S
in exact arithmetic, without the preconditioner's pass. W is finite and
nonnegative, since a + lambda S^2 diag(L) >= a > 0, and nothing divides by
phi'(u), which vanishes where u does for the porous-medium phi at eps_reg = 0.

CG runs on half of that system. Every edge joins a red and a black node
(DiscreteOperator.red_black), so in red-black order M = I + N has the blocks
[[I, N_rb], [N_br, I]], and the black unknowns drop out exactly (Saad,
Iterative Methods for Sparse Linear Systems, 2003, section 4.3): CG solves the
SPD Schur complement S y_r = b_S, S = I - N_rb N_br and b_S = b_r - N_rb b_b,
and y_b = b_b - N_br y_r. The plan of the colouring is built at an operator's
first solve and kept for its shape; a window, which copies its parent,
builds its own. The couplings N_br are gathered once per system into
the DIA bands of the plan, reading each edge once, and N_rb = N_br^T is the
same bands shifted by their offsets, so each product S x is two calls of the
DIA kernel on half-length bands (_half_products). The black rows of M y - b
are then zero and its red rows are S y_r - b_S, so CG stops at rtol |b| /
|b_S| of its own residual to meet rtol on the whole scaled system.

Each iterate is evaluated once. The residual evaluation of an iterate also
returns its state (DiscreteOperator.state): w = phi(u), the face gradients g
of w and g^2 + eps^2. An accepted iterate carries that state into the next
Newton step, which builds a'(g) and the Jacobian bands from it without
evaluating phi or differencing again; a rejected trial never pays for a'(g).
A line-search row whose direction is not finite, from a failed linear solve,
has no finite trial at any step length and tries t = 1 only.

solve_resolvent_batch runs one Newton loop over a (B, n) stack of right-hand
sides that share the operator and lambda. Each member keeps its own row of
iterate, residual, iteration count, step length and failure reason; a member
that converges or fails stops in place, and later Newton steps and line
searches take only the rows still iterating. solve_resolvent is the B = 1
case. The members' systems are built alike in every dimension, as lambda times
the Jacobian bands of the operator with a added to the diagonal band; only the
linear solver depends on d. In one dimension the bands of the B members are
one tridiagonal system of size B*n whose zero band ends decouple the blocks,
solved by one direct LAPACK gtsv call (the checks of scipy.linalg.solve_banded
take a third of each solve at n = 2001): gtsv never pivots across a zero
coupling, so each block gets the solution it would get alone. In more
dimensions each member's scaled system is solved by conjugate gradients (cg,
the library's own loop) on its Schur complement, whose two half products call
the kernel of scipy's DIA matvec on the bands directly.

Those two kernels are all that a solve uses of scipy. _scipy_extension loads
them from the files of the compiled modules scipy.linalg._flapack (dgtsv) and
scipy.sparse._sparsetools (dia_matvec) after importing the top-level scipy
package only: the package set-up of scipy.linalg and scipy.sparse, which no
solve needs, took about half of the time and a third of the memory of a
fresh interpreter's import of nlsmooth. Importing this module loads no scipy
at all: scipy comes with the first solve, _flapack with the first solve in
one dimension and _sparsetools with the first in more, each once per process.

Where the data vanish outside a box, the same Newton loop runs on the window
of that box (DiscreteOperator.window): the nodes where some member's data are
nonzero, exactly, grown by _WINDOW_MARGIN cells and rounded outward to
multiples of _WINDOW_ALIGN cells, so that a window keeps the grid's node
offsets modulo 32 and the steps of a flow share one window. A box that would
touch a face of the grid is not used. A converged member whose solution is
exactly zero on the outermost layer of the window is, extended by zeros, a
solution on the whole grid with the same residual, since f(x, 0) = 0; every
other member is solved again on the whole grid. The margin exceeds the tail, about 40 cells
long, that eps_reg > 0 lets a first step spread beyond compact data. In one
dimension the windowed solves equal the whole grid's bitwise; in more, CG's
dot products over the shorter vectors may round differently.

For phi = identity in d >= 2, CG stops at each member's Eisenstat-Walker
(1996) choice-2 forcing term: eta_0 = 0.1, eta_k = 0.9 (|R_k| / |R_k-1|)^2,
at least 0.9 eta_k-1^2 when that exceeds 0.1 and 0.5 tol / |R_k| (no
oversolving), within [CG_RTOL, 0.1], on the residual of the whole scaled
system, which the Schur complement's rescaled tolerance bounds.
A power phi keeps CG_RTOL: its CG residual does not bound the unscaled
Newton residual, and forcing it stalls degenerate porous-medium solves.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .measure import GridFunction
from .operators import DiscreteOperator

DEFAULT_TOL = 1e-10
MAX_ITER = 200
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 40
CG_RTOL = 1e-12
FORCING_GAMMA = 0.9
FORCING_MAX = 0.1
_WINDOW_MARGIN = 64  # cells around the data; a first step from compact data grows an eps_reg tail about 40 long
_WINDOW_ALIGN = 32


@functools.cache
def _scipy_extension(name):
    """The compiled module scipy.<name>, loaded at its first call from its file
    in the scipy package without running the __init__ of the subpackage that
    holds it; a module that an import of that subpackage has already put in
    sys.modules is returned as it is. A loaded module enters itself in
    sys.modules, though its parent package was never imported; that entry is
    removed, so that a later import of the parent binds the module as its
    attribute. A missing file raises ImportError naming it."""
    import scipy

    full = f"scipy.{name}"
    if full in sys.modules:
        return sys.modules[full]
    stem = os.path.join(scipy.__path__[0], *name.split("."))
    path = next((stem + suffix for suffix in EXTENSION_SUFFIXES if os.path.isfile(stem + suffix)), None)
    if path is None:
        raise ImportError(f"scipy has no compiled module {stem}{{{', '.join(EXTENSION_SUFFIXES)}}}", name=full)
    loader = ExtensionFileLoader(full, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(full, path, loader=loader))
    loader.exec_module(module)
    sys.modules.pop(full, None)
    return module


class PreconditionError(ValueError):
    """lambda * L >= 1: the perturbed resolvent is not a contraction."""


class NonConvergenceError(RuntimeError):
    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class ResolventResult:
    u: GridFunction
    residual: float
    iterations: int


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


def solve_banded(bands, rhs, overwrite=False):
    """LAPACK gtsv on one (3, m) system laid out as in _solve_tridiagonal_stack
    and its right-hand side, on copies unless overwrite; all NaN when gtsv
    meets a zero pivot. perfbench traces this name as the 1-D linear solve."""
    dgtsv = _scipy_extension("linalg._flapack").dgtsv
    x, info = dgtsv(bands[0, :-1], bands[1], bands[2, 1:], rhs, overwrite, overwrite, overwrite, overwrite)[3:]
    return x if info == 0 else np.full_like(x, np.nan)


def _solve_tridiagonal_stack(bands, rhs):
    """Solve k tridiagonal systems as one, returning the (k, n) solutions.

    bands is (3, k, n): the sub-, main and superdiagonal bands of each block,
    zero where a row is off the block; rhs is (k, n). A NaN or inf in one
    block would leak into its neighbours through the elimination, so when the
    bands are not finite, LAPACK meets a zero pivot, or the solution is not
    finite, as it is for any right-hand side that is not, the blocks of a
    stack are solved one by one instead. Rows whose system is unusable come
    back as NaN. A lone block has no neighbour to spoil: it is solved in
    place, overwriting bands and rhs, and comes back as LAPACK solved it.
    """
    _, k, n = bands.shape
    if np.isfinite(bands).all():
        steps = solve_banded(bands.reshape(3, k * n), rhs.reshape(k * n), overwrite=k == 1).reshape(k, n)
        if k == 1 or np.isfinite(steps).all():
            return steps
    steps = np.full((k, n), np.nan)
    for j in range(k) if k > 1 else ():
        if np.isfinite(bands[:, j]).all() and np.isfinite(rhs[j]).all():
            steps[j] = solve_banded(bands[:, j], rhs[j])
    return steps


def _forcing(rn, rn_prev, eta_prev, tol):
    """CG tolerances for residual norms rn, rn_prev a step ago (NaN at first)."""
    eta = FORCING_GAMMA * (rn / rn_prev) ** 2
    safeguard = FORCING_GAMMA * eta_prev**2
    eta = np.where(safeguard > FORCING_MAX, np.maximum(eta, safeguard), eta)
    eta = np.clip(np.maximum(eta, 0.5 * tol / rn), CG_RTOL, FORCING_MAX)
    return np.where(np.isnan(rn_prev), FORCING_MAX, eta)


def _newton_steps(op, lam, U, R, state, rtol):
    """Newton directions for the (k, n) rows of U, whose residuals are R and
    whose state is state (DiscreteOperator.state), with CG tolerances rtol (see
    the module docstring); failed rows come back not finite."""
    d = op.d
    bands = op.diffusion_jacobian(state[0], state[1:])
    a = 1.0 if op.spec.perturbation is None else 1.0 + lam * op.perturbation_derivative(U)
    power = op.spec.phi.kind != "identity"
    if d == 1:  # L diag(phi'(U)): band k is indexed by column; the bands are not needed again
        if power:
            bands *= op.phi_derivative(U)
        bands *= lam
        bands[1] += a
        return _solve_tridiagonal_stack(bands, -R)
    # W = S / sqrt(a + lambda S^2 diag(L)), S^2 = phi'(U) or 1, and -W R built in place: a fresh
    # 128^2 row, glibc's 128 KiB mmap threshold, faults in all of its pages
    phi1 = op.phi_derivative(U) if power else 1.0
    W = lam * phi1 * bands[d]
    W += a
    np.sqrt(np.divide(phi1, W, out=W), out=W)
    rhs = W * R
    rhs *= -1.0
    step = _solve_cg_stack(op, lam, bands, W, rhs, rtol)
    step *= W
    if not power:
        return step
    step = op.jacobian_apply(bands, step)
    step *= -lam
    step -= R
    if op.spec.perturbation is not None:  # else a = 1, and x / 1 = x
        step /= a
    return step


def cg(matvec, b, rtol, maxiter, callback=None):
    """CG for A x = b from x = 0, where matvec(p) is A p (read before the next
    call, so it may reuse one buffer), in the step order of
    scipy.sparse.linalg.cg without a preconditioner, so the iterates are
    scipy's bit for bit: |r| is sqrt(r.r), as numpy's norm takes it, and r.r is
    the step's rho. Returns (x, 0) once |r| < rtol |b| (at once for b = 0), and
    (x, maxiter) after maxiter iterations or at a breakdown, where r.r or p.Ap
    is not positive and finite. callback(x) follows each iteration; perfbench
    counts CG iterations through it."""
    x, bnorm = np.zeros_like(b), np.linalg.norm(b)
    if bnorm == 0.0:
        return x, 0
    r, p, scratch = b.copy(), np.empty_like(b), np.empty_like(b)
    for k in range(maxiter):
        rho = np.dot(r, r)
        if math.sqrt(rho) < rtol * bnorm:
            return x, 0
        if k:
            p *= rho / rho_prev
            p += r
        else:
            p[:] = r
        q = matvec(p)
        pq = np.dot(p, q)
        if not (0.0 < rho < math.inf and 0.0 < pq < math.inf):
            break
        x += np.multiply(rho / pq, p, out=scratch)
        r -= np.multiply(rho / pq, q, out=scratch)
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def _half_products(offsets, br, rb):
    """The two halves of the Schur complement's product, for the bands br of
    N_br at offsets and the bands rb of -N_rb at -offsets, ascending: x ->
    N_br x, and (x, t) -> x - N_rb t, by dia_matvec, the kernel of a scipy DIA
    matrix's product, which adds each row's terms in ascending column order.
    Each writes into its own one buffer and returns it."""
    (n_bands, n_red), n_black = br.shape, rb.shape[1]
    transposed, dia_matvec = -offsets[::-1], _scipy_extension("sparse._sparsetools").dia_matvec
    t, out = np.empty(n_black), np.empty(n_red)

    def lower(x):
        t.fill(0.0)
        dia_matvec(n_black, n_red, n_bands, n_red, offsets, br, x, t)
        return t

    def upper(x, t):
        np.copyto(out, x)
        dia_matvec(n_red, n_black, n_bands, n_black, transposed, rb, t, out)
        return out

    return lower, upper


def _schur_complement(op, lam, bands, w):
    """The half products (_half_products) of the red-black Schur complement of
    one row's system I + N, N = lambda diag(w) L' diag(w), for its Jacobian
    bands and scaling w: N_br from the operator's red-black couplings, and
    -N_rb = -N_br^T, each band of N_br negated and shifted by its offset."""
    plan = op.red_black()
    br = op.red_black_couplings(bands, w)
    br *= lam
    rb = np.zeros((len(br), plan.black.size))
    for row, band, offset in zip(rb[::-1], br, plan.offsets.tolist()):
        lo, hi = max(0, -offset), min(plan.black.size, plan.red.size - offset)
        np.negative(band[lo + offset:hi + offset], out=row[lo:hi])
    return _half_products(plan.offsets, br, rb)


def _solve_cg_stack(op, lam, bands, W, rhs, rtol):
    """Solve each row's system of _newton_steps, I + lambda W L' W for the
    Jacobian bands and scaling W of the row, with its right-hand side, by CG
    on the red-black Schur complement to its rtol on the whole system (see the
    module docstring); rows whose CG did not converge come back as NaN."""
    plan, (_, k, n) = op.red_black(), bands.shape
    steps = np.full((k, n), np.nan)
    for j in range(k):
        lower, upper = _schur_complement(op, lam, bands[:, j], W[j])
        b, b_black = rhs[j], rhs[j, plan.black]
        reduced = upper(b[plan.red], b_black).copy()
        # |S y - b_S| < rtol |b| bounds the residual of the whole system; b_S = 0 or NaN needs no scale
        scale = float(np.linalg.norm(reduced))
        scale = float(np.linalg.norm(b)) / scale if scale > 0.0 else 1.0
        y, info = cg(lambda x: upper(x, lower(x)), reduced, rtol[j] * scale, 20 * plan.red.size)
        if info == 0:
            steps[j, plan.red] = y
            steps[j, plan.black] = b_black - lower(y)
    return steps


def _operator(spec, lam, op):
    """op, or the operator of spec if op is None, once op acts by spec and lam is admissible."""
    if op is not None and op.spec != spec:
        raise ValueError(f"op is the operator of {op.spec}, not of spec = {spec}")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if spec.perturbation is not None and lam * spec.perturbation.lipschitz >= 1.0:
        raise PreconditionError(
            f"lambda*L = {lam * spec.perturbation.lipschitz} >= 1; "
            "shrink the step below 1/L"
        )
    return DiscreteOperator(spec) if op is None else op


def _residual(op, lam, U, G):
    """The iterate of the rows U, whose data are G: the tuple (U, R, rn, *state)
    of U, its residuals R = U + lambda A(U) - G, their weighted-l2 norms and
    the state of U that evaluating A computed (DiscreteOperator.state)."""
    state = op.state(U)
    R = op.apply_values(U, state)
    R *= lam
    R += U
    R -= G
    # one dot product per row, so a member's norm does not depend on the batch
    return (U, R, np.sqrt(np.vecdot(R * R, op.space.weights)), *state)


def _rows(it, index):
    """The rows index of every array of the iterate it (see _residual)."""
    return tuple(x[index] for x in it)


def _put(it, index, new, rows):
    """it[j][index] = new[j][rows] for every array of the iterate it."""
    for a, b in zip(it, new):
        a[index] = b[rows]


def _line_search(op, lam, G, U, rn, direction):
    """Damped updates U + t * direction of the rows of U, whose data are G and
    residual norms rn: each row tries t = 1, 1/2, ... up to MAX_BACKTRACKS
    times and takes the first t whose residual norm passes the Armijo test,
    which a NaN never passes. A row whose direction is not finite has no
    finite trial, and tries t = 1 only. Returns the new rows as an iterate
    (see _residual) and the positions of the rows that found no such t, which
    hold a trial."""
    new = _residual(op, lam, U + direction, G)  # t = 1: U + 1.0 * direction, bit for bit
    missed = (~(new[2] <= (1.0 - ARMIJO_SLOPE) * rn)).nonzero()[0]
    rows = missed[np.isfinite(direction[missed]).all(axis=1)] if missed.size else missed
    if not rows.size:
        return new, missed
    found, t = np.ones(len(U), dtype=bool), 1.0
    found[missed] = False
    for _ in range(MAX_BACKTRACKS - 1):
        t *= 0.5
        trial = _residual(op, lam, U[rows] + t * direction[rows], G[rows])
        passed = trial[2] <= (1.0 - ARMIJO_SLOPE * t) * rn[rows]
        _put(new, rows[passed], trial, passed)
        found[rows[passed]], rows = True, rows[~passed]
        if not rows.size:
            break
    return new, (~found).nonzero()[0]


def solve_resolvent_batch(spec, lam, G, tol=DEFAULT_TOL, op=None):
    """Solve u_k + lambda A(u_k) = g_k for every row g_k of the (B, n) array G.

    Every member follows the rules of solve_resolvent on its own: it stops
    when its weighted-l2 residual reaches tol, and fails when that residual is
    not finite, when it has used MAX_ITER iterations, or when neither the
    Newton step nor a damped Picard sweep decreases it. Failures are reported
    per member in the returned ResolventBatchResult; nothing is raised. Data
    that vanish outside a box are solved on its window (see the module
    docstring).
    """
    op = _operator(spec, lam, op)
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[1] != op.space.n:
        raise ValueError(f"G must have shape (B, {op.space.n}), got {G.shape}")
    if not np.isfinite(G).all():
        raise ValueError("G must be finite")
    return _solve(op, lam, G, tol)


def _support_box(shape, G):
    """The box of a window for the (B, n) data G, as one slice per axis: the
    nodes where some row of G is nonzero, grown by _WINDOW_MARGIN cells and
    rounded outward to multiples of _WINDOW_ALIGN. None when G is zero or the
    box would touch a face of the grid."""
    G = G.reshape((len(G),) + shape)
    box = []
    for a, n in enumerate(shape):
        hit = np.logical_or.reduce(G, axis=tuple(b for b in range(G.ndim) if b != a + 1)).nonzero()[0]
        if not hit.size:
            return None
        lo = int(hit[0]) - _WINDOW_MARGIN
        hi = int(hit[-1]) + 1 + _WINDOW_MARGIN
        lo, hi = lo - lo % _WINDOW_ALIGN, hi + -hi % _WINDOW_ALIGN
        if lo < 1 or hi > n - 1:
            return None
        box.append(slice(lo, hi))
    return tuple(box)


def _solve(op, lam, G, tol):
    """_newton on the window of G's support box, where there is one (see the
    module docstring), and on the whole grid for the members it cannot serve."""
    box = _support_box(op.shape, G)
    if box is None:
        return _newton(op, lam, G, tol)
    B, win, at = len(G), op.window(box), (slice(None),) + box
    grid_shaped = lambda X: X.reshape((B,) + op.shape)
    out = _newton(win, lam, grid_shaped(G)[at].reshape(B, -1), tol)
    U = out.u.reshape((B,) + win.shape)
    redo = ~out.converged
    for a in range(1, U.ndim):  # rows nonzero on the first or last layer of the window along an axis
        redo |= np.logical_or.reduce(U[(slice(None),) * a + (slice(None, None, U.shape[a] - 1),)],
                                     axis=tuple(range(1, U.ndim)))
    u = np.zeros_like(G)
    grid_shaped(u)[at] = U
    out = ResolventBatchResult(u, out.residual, out.iterations, out.converged, out.failures)
    redo = redo.nonzero()[0]
    if redo.size:
        full = _newton(op, lam, G[redo], tol)
        out.u[redo], out.residual[redo], out.iterations[redo], out.converged[redo] = (
            full.u, full.residual, full.iterations, full.converged)
        for j, failure in zip(redo, full.failures):
            out.failures[j] = failure
    return out


def _newton(op, lam, G, tol):
    """The damped Newton loop over the rows of G; returns a ResolventBatchResult.

    Row j of every array belongs to G[j]. The iterate it holds the values,
    residuals, residual norms and state of every row (see _residual); the
    next Newton step builds its Jacobian from that state. eta holds the CG
    tolerances, which _forcing sets from rn_prev and rn. running marks the
    rows still iterating and live indexes them; live is a plain slice while
    all of them are. A row records its iteration count and failure when it
    stops and is not touched again.
    """
    B, index, live, k = len(G), np.arange(len(G)), slice(None), 0
    it = _residual(op, lam, G.copy(), G)
    running, rn_prev, eta = np.ones(B, dtype=bool), np.full(B, np.nan), np.full(B, CG_RTOL)
    iterations, failures = np.zeros(B, dtype=int), [None] * B
    forced = op.d > 1 and op.spec.phi.kind == "identity"

    def stop(rows, reason=None):
        nonlocal live
        iterations[rows] = k
        for j in rows if reason else ():
            failures[j] = f"{reason}: residual {float(it[2][j])} after {k} iterations"
        running[rows] = False
        live = running.nonzero()[0]

    def take(rows, new, missed):  # writes the rows that found a step, returns the others
        found = np.ones(len(rows), dtype=bool)
        found[missed] = False
        _put(it, rows[found], new, found)
        return rows[missed]

    if not np.isfinite(it[2]).all():  # only first residuals can be: no such trial passes the line search
        stop(np.flatnonzero(~np.isfinite(it[2])), "residual is not finite")
    while True:
        done = (it[2][live] <= tol).nonzero()[0]
        if done.size:
            stop(index[live][done])
        if not index[live].size:
            break
        if k >= MAX_ITER:
            stop(index[live], "resolvent did not converge")
            break
        u, r, rn, *state = it if isinstance(live, slice) else _rows(it, live)
        if forced:
            eta[live] = _forcing(rn, rn_prev[live], eta[live], tol)
            rn_prev[live] = rn
        # step stays referenced until the next one replaces it: freed before
        # that one is built, it lets glibc trim the heap on every iteration
        step = _newton_steps(op, lam, u, r, state, eta[live])
        new, missed = _line_search(op, lam, G[live], u, rn, step)
        if isinstance(live, slice) and not missed.size:
            it = new
        else:
            stuck = take(index[live], new, missed)
            if stuck.size:  # the damped Picard sweep
                new, missed = _line_search(op, lam, G[stuck], it[0][stuck], it[2][stuck], -it[1][stuck])
                stuck = take(stuck, new, missed)
                if stuck.size:
                    stop(stuck, "no descent found")
        k += 1
    converged = np.array([failure is None for failure in failures], dtype=bool)
    return ResolventBatchResult(u=it[0], residual=it[2], iterations=iterations, converged=converged,
                                failures=failures)


def solve_resolvent(spec, lam, g, tol=DEFAULT_TOL, op=None):
    """Solve u + lambda A(u) = g for the given spec; returns ResolventResult.

    lam must be positive, and lambda * L < 1 when a Lipschitz perturbation
    is present, and g must live on the operator's grid (op, if given, must be
    the operator of spec). Raises NonConvergenceError if the weighted-l2
    residual is not finite or does not reach tol within MAX_ITER iterations.
    """
    op = _operator(spec, lam, op)
    if g.space != op.space:
        raise ValueError(f"g lives on {g.space}, but the operator acts on {op.space}")
    out = _solve(op, lam, g.values[None, :], tol)
    residual, iterations = float(out.residual[0]), int(out.iterations[0])
    if not out.converged[0]:
        raise NonConvergenceError(out.failures[0], residual=residual, iterations=iterations)
    return ResolventResult(
        u=GridFunction(op.space, out.u[0]),
        residual=residual,
        iterations=iterations,
    )
