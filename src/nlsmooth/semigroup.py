"""Semigroup evolution by iterated implicit Euler steps.

evolve() advances u' + A(u) = 0 over a partition of [0, t_end], uniform or
graded geometrically from a first step t_first. It records one table, a row
per time and a column per entry of COLUMNS (L^1, L^2, L^inf norms and mass),
and keeps the final state; a new per-step quantity is one more entry of
COLUMNS. It is the only place that chains resolvent solves. On a uniform
grid its n steps of size t/n are the n-fold resolvent (I + (t/n) A)^{-n} u0
of the Crandall-Liggett exponential formula; on a graded grid they are the
product of resolvents with the grid's own steps, which converges to the same
semigroup as the largest step shrinks (Crandall & Liggett 1971).
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .measure import GridFunction, lq_norm, mass
from .operators import DiscreteOperator
from .resolvent import NonConvergenceError, solve_resolvent

EVOLVE_TOL = 1e-12  # per-step residual; keeps cumulative mass drift far below budget
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
    """Partition of [0, t_end] into n_steps implicit Euler steps.

    Uniform by default. With t_first the grid is graded geometrically, with
    times [0] + geomspace(t_first, t_end, n_steps), so every step after the
    first is the same multiple of its predecessor: a power law t^(-alpha) is
    resolved alike on every time scale. A ValueError names the bad field.
    """

    t_end: float
    n_steps: int
    t_first: float | None = None

    def __post_init__(self):
        if not (_is_real(self.t_end) and 0.0 < self.t_end < math.inf):
            raise ValueError(f"t_end must be a positive finite number, got {self.t_end!r}")
        if not (isinstance(self.n_steps, numbers.Integral) and not isinstance(self.n_steps, bool)
                and self.n_steps >= 1):
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "n_steps", int(self.n_steps))
        if self.t_first is None:
            return
        if not (_is_real(self.t_first) and 0.0 < self.t_first < self.t_end):
            raise ValueError(f"t_first must be a finite number with 0 < t_first < t_end = {self.t_end:g}, "
                             f"got {self.t_first!r}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2 on a grid graded from t_first, got {self.n_steps}")
        object.__setattr__(self, "t_first", float(self.t_first))

    @property
    def dt(self):
        """The one step size of a uniform grid."""
        if self.t_first is not None:
            raise ValueError("a graded time grid has no single step size; read steps()")
        return self.t_end / self.n_steps

    def times(self):
        if self.t_first is None:
            return np.linspace(0.0, self.t_end, self.n_steps + 1)
        return np.concatenate(([0.0], np.geomspace(self.t_first, self.t_end, self.n_steps)))

    def steps(self):
        """The n_steps step sizes; on a uniform grid each is exactly t_end / n_steps."""
        if self.t_first is None:
            return np.full(self.n_steps, self.dt)
        return np.diff(self.times())


def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class Trajectory:
    """times (n_steps + 1,), table (n_steps + 1, len(COLUMNS)) with one row per
    time, and the final state. A column reads as the attribute of its name,
    traj.mass, a view of the table."""

    times: np.ndarray
    table: np.ndarray
    final: GridFunction

    def __getattr__(self, name):
        if name not in COLUMNS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.table[:, list(COLUMNS).index(name)]

    def norm_series(self, q):
        """The recorded L^q norm series; q must be one of RECORDED_NORMS."""
        q = float(q)
        if q not in RECORDED_NORMS:
            raise ValueError(f"recorded norms are q in {{1, 2, inf}}, got {q}")
        return getattr(self, RECORDED_NORMS[q])


def evolve(spec, u0, time_grid, tol=EVOLVE_TOL, op=None):
    """Advance the implicit Euler scheme across the whole time grid.

    Solver failures are re-raised with the failing step and time attached; a
    u0 on another grid than the operator's is refused, as by solve_resolvent.
    """
    if op is None:
        op = DiscreteOperator(spec)
    n_steps = time_grid.n_steps
    times = time_grid.times()
    table = np.empty((n_steps + 1, len(COLUMNS)))

    u = u0
    table[0] = [column(u) for column in COLUMNS.values()]
    for k, lam in enumerate(time_grid.steps().tolist(), start=1):
        try:
            u = solve_resolvent(spec, lam, u, tol=tol, op=op).u
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"step {k}/{n_steps} at t = {times[k]:g}: {exc}",
                residual=exc.residual,
                iterations=exc.iterations,
            ) from exc
        table[k] = [column(u) for column in COLUMNS.values()]
    return Trajectory(times=times, table=table, final=u)


def trajectory_to_csv(traj, path):
    """Columns t and then COLUMNS; one row per time, each value written as
    its repr, which reads back to the same float."""
    with open(str(path), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t", *COLUMNS])
        writer.writerows(np.column_stack((traj.times, traj.table)).tolist())
