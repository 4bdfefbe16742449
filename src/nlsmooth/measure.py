"""Weighted discrete measure spaces, L^q norms, mass and q-brackets.

A DiscreteSpace is a finite measure space: n nodes with strictly positive
weights (cell volumes). GridFunction pairs a space with per-node values and
is the universal state object of the package. The q-bracket is the right
directional derivative of (1/q)||.||_q^q and expresses accretivity in L^q.
"""

from __future__ import annotations

import numpy as np

INF = float("inf")


def parse_index(x):
    """Normalize a Lebesgue index: accepts numbers or the string "inf"."""
    if isinstance(x, str):
        if x.strip().lower() in ("inf", "infinity", "+inf"):
            return INF
        x = float(x)
    x = float(x)
    if np.isnan(x) or x < 1.0:
        raise ValueError(f"Lebesgue index must be >= 1 or 'inf', got {x!r}")
    return x


class DiscreteSpace:
    """Finite weighted measure space: n nodes with weights mu_i > 0."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        self.weights = w
        self.weights.setflags(write=False)

    @property
    def n(self):
        return self.weights.size

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def __eq__(self, other):
        return other is self or isinstance(other, DiscreteSpace) and np.array_equal(
            self.weights, other.weights
        )

    def __repr__(self):
        return f"DiscreteSpace(n={self.n}, total_mass={self.total_mass:g})"


class GridFunction:
    """Real-valued function on a DiscreteSpace."""

    def __init__(self, space, values):
        v = np.asarray(values, dtype=float)
        if v.shape != (space.n,):
            raise ValueError(f"values shape {v.shape} != ({space.n},)")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        self.space = space
        self.values = v
        self.values.setflags(write=False)

    def with_values(self, values):
        return GridFunction(self.space, values)

    # minimal vector-space sugar used by the solvers and the harness
    def __add__(self, other):
        return self.with_values(self.values + _vals(other))

    def __sub__(self, other):
        return self.with_values(self.values - _vals(other))

    def __mul__(self, scalar):
        return self.with_values(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self.with_values(-self.values)

    def __repr__(self):
        return f"GridFunction(n={self.space.n})"


def _vals(u):
    return u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)


def lq_norm(u, q):
    """(sum_i mu_i |u_i|^q)^(1/q), or max_i |u_i| for q = inf."""
    return float(lq_norm_rows(u.space.weights, u.values, q))


def lq_norm_rows(weights, X, q):
    """lq_norm of every row of a (..., n) array of values on the node weights."""
    q = parse_index(q)
    a = np.abs(X)
    if q == INF:
        return a.max(axis=-1, initial=0.0)
    if q == 1.0:
        return np.vecdot(a, weights)
    return np.vecdot(a**q, weights) ** (1.0 / q)


def q_bracket(u, v, q):
    """Right directional derivative pairing [u, v]_q, 1 <= q < inf.

    For q > 1 this is sum_i mu_i |u_i|^{q-2} u_i v_i. For q = 1 it is
    sum over u_i != 0 of mu_i sign(u_i) v_i plus sum over u_i == 0 of
    mu_i |v_i|. The zero set is tested bitwise; callers that need a
    tolerance must snap small values first.
    """
    q = parse_index(q)
    if q == INF:
        raise ValueError("q_bracket requires q < inf")
    if u.space != v.space:
        raise ValueError("grid functions live on different spaces")
    w = u.space.weights
    uu, vv = u.values, v.values
    if q == 1.0:
        zero = uu == 0.0
        return float(
            np.dot(w[~zero], np.sign(uu[~zero]) * vv[~zero])
            + np.dot(w[zero], np.abs(vv[zero]))
        )
    # |u|^{q-2} u = sign(u)|u|^{q-1}; vanishes at u = 0 for every q > 1
    return float(np.dot(w, np.sign(uu) * np.abs(uu) ** (q - 1.0) * vv))


def mass(u):
    return float(np.dot(u.space.weights, u.values))
