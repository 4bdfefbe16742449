"""Semigroup evolution by iterated implicit Euler steps.

evolve() advances u' + A(u) = 0 over [0, t_end], on a uniform grid or on
steps that a controller picks. It records one table, a row per time and a
column per entry of COLUMNS (L^1, L^2, L^inf norms and mass), and keeps the
final state; a new per-step quantity is one more entry of COLUMNS. It is the
only place that chains resolvent solves. On a uniform grid its n steps of
size t/n are the n-fold resolvent (I + (t/n) A)^{-n} u0 of the
Crandall-Liggett exponential formula; on other steps they are the product of
resolvents with those steps, which converges to the same semigroup as the
largest step shrinks (Crandall & Liggett 1971).

Where the flow is the gradient flow of a convex energy E in a Hilbert norm
(gradient_flow), each step n of size k_n from U^{n-1} to U^n has the
a-posteriori estimator

    eta_n = k_n (E(U^{n-1}) - E(U^n)) - ||U^n - U^{n-1}||^2 >= 0,

and (sum_n eta_n)^(1/2) bounds the time error max_n ||u(t_n) - U^n|| of the
whole chain (Nochetto, Savare & Verdi, CPAM 53, 2000). The controller of a
TimeGrid with tol holds the relative indicator r_n = eta_n / (||U^n||^2 k_n / t_n)
near tol: its first step ends at t_first; a step with r_n > 2 tol is rejected
and halved, and after an accepted one the next is k_n clip(0.9 tol / r_n, 0.5, 2),
cut so that the last step ends exactly at t_end.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .measure import GridFunction, lq_norm, mass
from .operators import DiscreteOperator, energy
from .resolvent import NonConvergenceError, solve_resolvent

EVOLVE_TOL = 1e-12  # per-step residual; keeps cumulative mass drift far below budget
STEP_FLOOR = 1e-14  # share of t_end below which the controller does not halve a step
# column name -> its value at a state. lq_norm and mass are looked up by name at
# each call, so a wrapper put over those module names sees every call.
COLUMNS = {
    "norm_l1": lambda u: lq_norm(u, 1),
    "norm_l2": lambda u: lq_norm(u, 2),
    "norm_linf": lambda u: lq_norm(u, math.inf),
    "mass": lambda u: mass(u),
}
RECORDED_NORMS = {1.0: "norm_l1", 2.0: "norm_l2", math.inf: "norm_linf"}  # q -> the column of the L^q norm


@dataclass(frozen=True)
class TimeGrid:
    """Implicit Euler steps over [0, t_end]: n_steps uniform steps, or, with
    tol, the steps of the controller of evolve (see the module docstring),
    the first of which ends at t_first. A ValueError names the bad field.
    """

    t_end: float
    n_steps: int | None = None
    t_first: float | None = None
    tol: float | None = None

    def __post_init__(self):
        if not (_is_real(self.t_end) and 0.0 < self.t_end < math.inf):
            raise ValueError(f"t_end must be a positive finite number, got {self.t_end!r}")
        object.__setattr__(self, "t_end", float(self.t_end))
        if self.tol is None:
            if self.t_first is not None:
                raise ValueError("t_first is read only with tol, the step controller's tolerance")
            if not (isinstance(self.n_steps, numbers.Integral) and not isinstance(self.n_steps, bool)
                    and self.n_steps >= 1):
                raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")
            object.__setattr__(self, "n_steps", int(self.n_steps))
            return
        if not (_is_real(self.tol) and 0.0 < self.tol < 1.0):
            raise ValueError(f"tol must be a number with 0 < tol < 1, got {self.tol!r}")
        if self.n_steps is not None:
            raise ValueError(f"n_steps is not read with tol, whose controller picks the steps, got {self.n_steps!r}")
        if self.t_first is None:
            raise ValueError("tol needs t_first, the end of the controller's first step")
        if not (_is_real(self.t_first) and 0.0 < self.t_first < self.t_end):
            raise ValueError(f"t_first must be a finite number with 0 < t_first < t_end = {self.t_end:g}, "
                             f"got {self.t_first!r}")
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "t_first", float(self.t_first))

    @property
    def dt(self):
        """The one step size of a uniform grid."""
        if self.tol is not None:
            raise ValueError("the controller picks the steps of a grid with tol; read the trajectory's times")
        return self.t_end / self.n_steps

    def times(self):
        """The n_steps + 1 times of a uniform grid."""
        self.dt  # refuses a grid with tol
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    def steps(self):
        """The n_steps step sizes of a uniform grid; each is exactly t_end / n_steps."""
        return np.full(self.n_steps, self.dt)


def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _h_minus_1(v, h):
    """||v||^2 = <v, L^-1 v>_w in H^-1 on one axis, L = (-1, 2, -1) / h^2 the Dirichlet
    Laplacian and h the node weight, with no system solved: it is h sum_f s_f^2 over the
    face fluxes s of sum 0 with (s_f - s_f+1) / h = v_f, which are h (mean(S) - S_f) for
    the cumulative sums S_f = v_0 + ... + v_f-1, S_0 = 0."""
    s = np.concatenate(([0.0], np.cumsum(v)))
    s -= s.mean()
    return h * h * h * float(s @ s)


def gradient_flow(spec, op):
    """(E, sq): the energy and the squared norm, as functions of the values of
    a state, of the flow of spec as a gradient flow, in which eta_n bounds the
    time error (see the module docstring). For phi identity they are the
    p-Dirichlet energy of op, the operator of spec, and the weighted l^2 norm;
    for phi = |u|^{m-1} u with p = 2 they are sum_i w_i |u_i|^{m+1} / (m + 1)
    and the H^-1 norm of the Dirichlet Laplacian, which is solved in one
    dimension only. A ValueError says why the flow is none of these."""
    vol = spec.grid.cell_volume
    if spec.perturbation is not None:
        raise ValueError("needs perturbation.kind 'none': a perturbation f makes the flow no gradient flow")
    if spec.phi.kind == "identity":
        return (lambda v: energy(spec, v, op)), (lambda v: vol * float(v @ v))
    if spec.p != 2.0 or spec.bc.kind != "dirichlet" or spec.grid.d != 1:
        raise ValueError(f"needs operator.p = 2, operator.bc 'dirichlet' and one grid axis with a power phi, "
                         f"which is a gradient flow in H^-1 only then; got p = {spec.p:g}, bc {spec.bc.kind!r}, "
                         f"d = {spec.grid.d}")
    m = spec.phi.m
    return (lambda v: vol * float(np.sum(np.abs(v) ** (m + 1.0))) / (m + 1.0)), (lambda v: _h_minus_1(v, vol))


@dataclass(frozen=True)
class Trajectory:
    """times (n + 1,) for n accepted steps, table (n + 1, len(COLUMNS)) with
    one row per time, and the final state; eta (n,), the estimator of each
    step, where the flow is a gradient_flow, else None; and the number of
    steps the controller rejected. A column reads as the attribute of its
    name, traj.mass, a view of the table."""

    times: np.ndarray
    table: np.ndarray
    final: GridFunction
    eta: np.ndarray | None = None
    rejected: int = 0

    def __getattr__(self, name):
        if name not in COLUMNS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.table[:, list(COLUMNS).index(name)]

    @property
    def time_error_bound(self):
        """(sum_n eta_n)^(1/2), the certified bound on the time error, or None
        without an estimator; a negative sum is the roundoff of a flow at rest."""
        return None if self.eta is None else math.sqrt(max(math.fsum(self.eta), 0.0))

    def norm_series(self, q):
        """The recorded L^q norm series; q must be one of RECORDED_NORMS."""
        q = float(q)
        if q not in RECORDED_NORMS:
            raise ValueError(f"recorded norms are q in {{1, 2, inf}}, got {q}")
        return getattr(self, RECORDED_NORMS[q])


def evolve(spec, u0, time_grid, tol=EVOLVE_TOL, op=None):
    """Advance the implicit Euler scheme across the whole time grid.

    Records eta_n for every step of a gradient flow; a grid with tol is
    refused unless the flow is one (see gradient_flow). Solver failures, and a
    rejection that would halve a step below STEP_FLOOR t_end, are raised as a
    NonConvergenceError naming the failing step and time; a u0 on another
    grid than the operator's is refused, as by solve_resolvent.
    """
    if op is None:
        op = DiscreteOperator(spec)
    ctrl, t_end = time_grid.tol, time_grid.t_end
    try:
        E, sq = gradient_flow(spec, op)
    except ValueError as exc:
        if ctrl is not None:
            raise ValueError(f"the step controller of tol {ctrl:g} {exc}") from None
        E = None
    grid = None if ctrl is not None else time_grid.times()
    of = "" if grid is None else f"/{time_grid.n_steps}"
    times, rows, etas, rejected = [0.0], [[column(u0) for column in COLUMNS.values()]], [], 0
    u, e_u, k = u0, None, time_grid.t_first  # E(u0) waits for the first solve, which refuses a u0 off the grid
    while times[-1] < t_end:
        n, t = len(times), times[-1]
        if grid is None:  # the step is the difference of the times, so the times say every step taken
            t_next = t + k if t + k < t_end else t_end
            lam = t_next - t
        else:
            lam, t_next = time_grid.dt, float(grid[n])
        try:
            out = solve_resolvent(spec, lam, u, tol=tol, op=op)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"step {n}{of} at t = {t_next:g}: {exc}",
                residual=exc.residual,
                iterations=exc.iterations,
            ) from exc
        if E is not None:
            e_u, e_new = E(u.values) if e_u is None else e_u, E(out.u.values)
            eta = lam * (e_u - e_new) - sq(out.u.values - u.values)
        if ctrl is not None:
            scale = sq(out.u.values) * lam / t_next
            r = 0.0 if eta <= 0.0 else eta / scale if scale > 0.0 else math.inf
            if r > 2.0 * ctrl:
                if lam / 2.0 < STEP_FLOOR * t_end:
                    raise NonConvergenceError(
                        f"step {n} at t = {t_next:g}: the time-error indicator {r:.3g} exceeds 2 tol = {2.0 * ctrl:g} "
                        f"at step size {lam:g}, and half of it is below {STEP_FLOOR:g} t_end",
                        residual=out.residual,
                        iterations=out.iterations,
                    )
                k, rejected = lam / 2.0, rejected + 1
                continue
            k = lam * (min(2.0, max(0.5, 0.9 * ctrl / r)) if r > 0.0 else 2.0)
        u = out.u
        if E is not None:
            e_u = e_new
            etas.append(eta)
        times.append(t_next)
        rows.append([column(u) for column in COLUMNS.values()])
    return Trajectory(times=np.array(times) if grid is None else grid, table=np.array(rows), final=u,
                      eta=None if E is None else np.array(etas), rejected=rejected)


def trajectory_to_csv(traj, path):
    """Columns t and then COLUMNS; one row per time, each value written as
    its repr, which reads back to the same float."""
    with open(str(path), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t", *COLUMNS])
        writer.writerows(np.column_stack((traj.times, traj.table)).tolist())
