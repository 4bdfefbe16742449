"""Verification harness: decay-rate fits, source-solution tracking and
property suites over the discretized semigroups.

Every experiment is described by a plain-data config, hashed for
reproducibility, and produces a Report {name, pass, metrics, config_hash}.
Fitted decay exponents use ordinary least squares on log-log samples taken
geometrically inside an observation window; windows are trimmed when the
support approaches the boundary or the solution extinguishes, and a warning
is recorded whenever less than half of the requested window survives.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from . import exponents as expo
from .measure import GridFunction, lq_norm, lq_norm_rows
from .operators import (
    BoundaryCondition,
    DiscreteOperator,
    Grid,
    LipschitzF,
    OperatorSpec,
    PhiSpec,
    barenblatt_on_grid,
    barenblatt_support_radius,
    gn_check,
    linear_perturbation,
    tanh_perturbation,
)
from .resolvent import resolvent_power, solve_resolvent_batch
from .semigroup import TimeGrid, evolve, exponential_formula_probe

SUPPORT_RELATIVE_FLOOR = 1e-12
BOUNDARY_GUARD_CELLS = 5
DEFAULT_TOLERANCE = 0.15
DEFAULT_R2_MIN = 0.98
FIT_SAMPLES = 33
MIN_FIT_POINTS = 8


# ---------------------------------------------------------------------------
# reports and configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    name: str
    passed: bool
    metrics: dict
    config_hash: str

    def to_jsonable(self):
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "metrics": _jsonable(self.metrics),
            "config_hash": self.config_hash,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def config_hash(config):
    """sha256 of the canonical JSON form of a config dict."""
    blob = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _grid_from_config(cfg):
    bounds = tuple(tuple(b) for b in cfg["bounds"])
    shape = tuple(cfg["shape"])
    return Grid(bounds=bounds, shape=shape)


def _phi_from_config(cfg):
    if cfg is None:
        return PhiSpec.identity()
    kind = cfg.get("kind", "identity")
    if kind == "identity":
        return PhiSpec.identity()
    if kind == "power":
        return PhiSpec.power(cfg["m"])
    raise ValueError(f"config cannot describe phi kind {kind!r}")


def _perturbation_from_config(cfg):
    if cfg is None or cfg.get("kind", "none") == "none":
        return None
    if cfg["kind"] == "linear":
        return linear_perturbation(cfg["coeff"])
    if cfg["kind"] == "tanh":
        return tanh_perturbation(cfg["coeff"])
    raise ValueError(f"unknown perturbation kind {cfg['kind']!r}")


def spec_from_config(config):
    """Build an OperatorSpec from the flat config sections."""
    grid = _grid_from_config(config["grid"])
    op = config["operator"]
    kind = op.get("bc", "dirichlet")
    bc = BoundaryCondition.robin(op["robin_b"]) if kind == "robin" else BoundaryCondition(kind)
    return OperatorSpec(
        grid=grid,
        p=float(op["p"]),
        bc=bc,
        phi=_phi_from_config(config.get("phi")),
        perturbation=_perturbation_from_config(config.get("perturbation")),
        eps_reg=float(op.get("eps_reg", 1e-8)),
    )


def time_grid_from_config(config):
    t = config["time"]
    return TimeGrid(t_end=float(t["t_end"]), n_steps=int(t["n_steps"]))


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def _radius(grid):
    nodes = grid.nodes()
    if grid.d == 1:
        centers = [0.5 * (lo + hi) for lo, hi in grid.bounds]
        return np.abs(nodes - centers[0])
    x, y = nodes
    cx = 0.5 * sum(grid.bounds[0])
    cy = 0.5 * sum(grid.bounds[1])
    return np.sqrt((x - cx) ** 2 + (y - cy) ** 2)


def smooth_bump(grid, center=None, width=None, amplitude=1.0):
    """C^inf bump with exact compact support of the given radius."""
    nodes = grid.nodes()
    if grid.d == 1:
        c = 0.5 * sum(grid.bounds[0]) if center is None else float(center)
        w = 0.25 * (grid.bounds[0][1] - grid.bounds[0][0]) if width is None else float(width)
        r = np.abs(nodes - c) / w
    else:
        x, y = nodes
        cx, cy = (0.5 * sum(b) for b in grid.bounds) if center is None else center
        w = 0.25 * min(hi - lo for lo, hi in grid.bounds) if width is None else float(width)
        r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2) / w
    vals = np.zeros(grid.n_total)
    inside = r < 1.0
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return GridFunction(grid.space(), vals)


def random_smooth_field(grid, seed, n_modes=3, nonneg=True):
    """Seeded sum of Gaussians with centers in the middle half of the box."""
    rng = np.random.default_rng(seed)
    nodes = grid.nodes()
    vals = np.zeros(grid.n_total)
    for _ in range(n_modes):
        amp = rng.uniform(0.5, 1.5) * (1.0 if nonneg else rng.choice([-1.0, 1.0]))
        parts = []
        for axis in range(grid.d):
            lo, hi = grid.bounds[axis]
            span = hi - lo
            c = rng.uniform(lo + 0.25 * span, hi - 0.25 * span)
            w = rng.uniform(0.05, 0.15) * span
            coord = nodes if grid.d == 1 else nodes[axis]
            parts.append(((coord - c) / w) ** 2)
        vals += amp * np.exp(-sum(parts))
    return GridFunction(grid.space(), vals)


def initial_condition(recipe, grid, seed=0):
    """Build the initial state from a recipe dict.

    kinds: bump {center, width, amplitude}, barenblatt {p, t0},
    random {n_modes}. normalize: "l1" rescales to unit L^1 norm.
    """
    kind = recipe.get("kind", "bump")
    if kind == "bump":
        u = smooth_bump(
            grid,
            center=recipe.get("center"),
            width=recipe.get("width"),
            amplitude=recipe.get("amplitude", 1.0),
        )
    elif kind == "barenblatt":
        u = barenblatt_on_grid(grid, float(recipe["p"]), float(recipe.get("t0", 1.0)))
    elif kind == "random":
        u = random_smooth_field(grid, seed=recipe.get("seed", seed), n_modes=recipe.get("n_modes", 3))
    else:
        raise ValueError(f"unknown initial kind {kind!r}")
    if recipe.get("normalize") == "l1":
        n1 = lq_norm(u, 1)
        if n1 == 0.0:
            raise ValueError("cannot normalize the zero function")
        u = u * (1.0 / n1)
    return u


# ---------------------------------------------------------------------------
# power-law fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    alpha_hat: float
    r2: float
    window: tuple
    n_points: int
    predicted: Optional[float] = None
    rel_err: Optional[float] = None


def fit_power_law(times, values, window, n_samples=FIT_SAMPLES, min_points=MIN_FIT_POINTS):
    """OLS fit of values ~ c * t^{-alpha} on log-log, geometric samples.

    Picks up to n_samples geometrically spaced targets inside the window,
    snaps each to the nearest recorded time with a positive value, and
    dedupes. Raises if fewer than min_points usable samples remain.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"window must satisfy 0 < lo < hi, got ({lo}, {hi})")
    usable = (times >= lo) & (times <= hi) & (values > 0.0) & (times > 0.0)
    if not np.any(usable):
        raise ValueError("no usable samples in the window")
    t_ok = times[usable]
    y_ok = values[usable]
    targets = np.geomspace(max(lo, t_ok.min()), min(hi, t_ok.max()), n_samples)
    idx = np.unique(np.searchsorted(t_ok, targets).clip(0, t_ok.size - 1))
    if idx.size < min_points:
        raise ValueError(f"need at least {min_points} fit points, got {idx.size}")
    lt = np.log(t_ok[idx])
    ly = np.log(y_ok[idx])
    slope, intercept = np.polyfit(lt, ly, 1)
    fitted = slope * lt + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return DecayFit(alpha_hat=-float(slope), r2=r2, window=(lo, hi), n_points=int(idx.size))


def predicted_alpha(predicted):
    """Resolve a predicted-decay source: {"value": x} or an exponent query."""
    if "value" in predicted:
        return float(predicted["value"])
    out = exponents_from_query(predicted)
    if isinstance(out, float):
        return out
    return out.alpha_s


def exponents_from_query(query):
    """Dispatch a theorem-name query dict to the closed-form exponents."""
    q = {k: v for k, v in query.items() if v is not None}
    theorem = q.pop("theorem")
    dispatch = {
        "plaplace": expo.plaplace_exponents,
        "doubly-nonlinear": expo.doubly_nonlinear_exponents,
        "doubly": expo.doubly_nonlinear_exponents,
        "dtn": expo.dtn_exponents,
        "fractional": expo.fractional_exponents,
        "moser": expo.moser_exponents,
        "barenblatt": expo.barenblatt_exponent,
    }
    if theorem not in dispatch:
        raise ValueError(f"unknown theorem {theorem!r}; choose from {sorted(dispatch)}")
    return dispatch[theorem](**q)


# ---------------------------------------------------------------------------
# window trimming: boundary guard and extinction
# ---------------------------------------------------------------------------


def _boundary_margin_cells(u, grid):
    """Distance in cells from the support of u to the nearest face."""
    v = np.abs(u.values)
    top = v.max(initial=0.0)
    if top == 0.0:
        return min(grid.shape)  # empty support: maximal margin
    live = v > SUPPORT_RELATIVE_FLOOR * top
    if grid.d == 1:
        idx = np.nonzero(live)[0]
        return int(min(idx.min(), grid.shape[0] - 1 - idx.max()))
    nx, ny = grid.shape
    L = live.reshape(nx, ny)
    ix, iy = np.nonzero(L)
    return int(min(ix.min(), nx - 1 - ix.max(), iy.min(), ny - 1 - iy.max()))


def usable_window(traj, grid, window, bc_kind="dirichlet"):
    """Trim the requested window for extinction and boundary proximity.

    Returns (lo, hi, info) where info records extinction_time and
    boundary_guard_time (None when not triggered). For Dirichlet runs the
    window is capped at the first snapshot whose support comes within
    BOUNDARY_GUARD_CELLS cells of a face; extinction caps every run.
    """
    lo, hi = float(window[0]), float(window[1])
    info = {"extinction_time": None, "boundary_guard_time": None, "window_warning": False}
    floor = 1e-14 * max(traj.norm_linf[0], 1.0)
    dead = np.nonzero(traj.norm_linf <= floor)[0]
    dead = dead[dead > 0]
    if dead.size:
        t_ext = traj.times[dead[0]]
        info["extinction_time"] = float(t_ext)
        hi = min(hi, 0.999 * t_ext)
    if bc_kind == "dirichlet":
        for t, snap in zip(traj.snapshot_times, traj.snapshots):
            if t <= 0.0:
                continue
            if _boundary_margin_cells(snap, grid) <= BOUNDARY_GUARD_CELLS:
                info["boundary_guard_time"] = float(t)
                hi = min(hi, t)
                break
    if hi <= lo:
        raise ValueError(
            f"window collapsed: requested ({window[0]}, {window[1]}), usable hi = {hi}"
        )
    requested_span = float(window[1]) - float(window[0])
    if (hi - lo) < 0.5 * requested_span:
        info["window_warning"] = True
    return lo, hi, info


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def default_decay_config(p=3.0, name=None):
    """Unit-mass bump released on [-20, 20], fitted on the window [0.5, 50]."""
    return {
        "grid": {"bounds": [[-20.0, 20.0]], "shape": [2001]},
        "operator": {"p": p, "bc": "dirichlet", "eps_reg": 1e-8},
        "phi": {"kind": "identity"},
        "perturbation": {"kind": "none"},
        "time": {"t_end": 50.0, "n_steps": 4000},
        "experiment": {
            "name": name or f"decay-p{p:g}",
            # narrow release so the flow is close to self-similar by t = 0.5
            "initial": {"kind": "bump", "center": 0.0, "width": 0.5, "normalize": "l1"},
            "window": [0.5, 50.0],
            "predicted": {"theorem": "plaplace", "d": 1, "p": p, "s": 1.0},
            "tolerance": DEFAULT_TOLERANCE,
            "r2_min": DEFAULT_R2_MIN,
            "norm": "inf",
            "seed": 0,
        },
    }


def default_pme_config():
    """Porous-medium decay (phi = power 2) against the doubly nonlinear rate."""
    cfg = {
        "grid": {"bounds": [[-20.0, 20.0]], "shape": [1501]},
        "operator": {"p": 2.0, "bc": "dirichlet", "eps_reg": 1e-8},
        "phi": {"kind": "power", "m": 2.0},
        "perturbation": {"kind": "none"},
        "time": {"t_end": 50.0, "n_steps": 4000},
        "experiment": {
            "name": "decay-pme-m2",
            "initial": {"kind": "bump", "center": 0.0, "width": 0.5, "normalize": "l1"},
            "window": [0.5, 50.0],
            "predicted": {"theorem": "doubly-nonlinear", "d": 1, "p": 2.0, "m": 2.0, "s": 1.0},
            "tolerance": 0.20,
            "r2_min": DEFAULT_R2_MIN,
            "norm": "inf",
            "seed": 0,
        },
    }
    return cfg


def run_decay_experiment(config, tol=None):
    """Evolve the configured flow and fit the sup-norm decay exponent.

    Passes when the fitted exponent is within the configured relative
    tolerance of the prediction and the log-log fit is tight (r2 >= r2_min).
    """
    spec = spec_from_config(config)
    tg = time_grid_from_config(config)
    exp = config["experiment"]
    u0 = initial_condition(exp["initial"], spec.grid, seed=exp.get("seed", 0))
    traj = evolve(spec, u0, tg)
    lo, hi, info = usable_window(traj, spec.grid, exp["window"], bc_kind=spec.bc.kind)
    norm_q = float(expo.INF) if exp.get("norm", "inf") in ("inf", float("inf")) else float(exp["norm"])
    series = traj.norm_series(norm_q)
    fit = fit_power_law(traj.times, series, (lo, hi))
    alpha_pred = predicted_alpha(exp["predicted"])
    rel_err = abs(fit.alpha_hat - alpha_pred) / abs(alpha_pred) if alpha_pred != 0.0 else abs(fit.alpha_hat)
    tolerance = float(tol if tol is not None else exp.get("tolerance", DEFAULT_TOLERANCE))
    r2_min = float(exp.get("r2_min", DEFAULT_R2_MIN))
    passed = (rel_err <= tolerance) and (fit.r2 >= r2_min)
    metrics = {
        "alpha_hat": fit.alpha_hat,
        "alpha_predicted": alpha_pred,
        "rel_err": rel_err,
        "r2": fit.r2,
        "n_points": fit.n_points,
        "window_requested": list(exp["window"]),
        "window_used": [lo, hi],
        "tolerance": tolerance,
        "mass_initial": float(traj.mass[0]),
        "mass_final": float(traj.mass[-1]),
        **info,
    }
    return Report(
        name=exp.get("name", "decay"),
        passed=passed,
        metrics=metrics,
        config_hash=config_hash(config),
    )


def default_barenblatt_config():
    return {
        "grid": {"bounds": [[-6.0, 6.0]], "shape": [1001]},
        "operator": {"p": 3.0, "bc": "dirichlet", "eps_reg": 1e-8},
        "phi": {"kind": "identity"},
        "perturbation": {"kind": "none"},
        "time": {"t_end": 1.0, "n_steps": 400},
        "experiment": {
            "name": "barenblatt-tracking",
            "t0": 1.0,
            "t1": 2.0,
            "rel_l1_max": 0.05,
            "refinement_min_ratio": 1.3,
        },
    }


def _barenblatt_error(config, shape, n_steps):
    cfg = json.loads(json.dumps(_jsonable(config)))
    cfg["grid"]["shape"] = [int(s) for s in shape]
    cfg["time"]["n_steps"] = int(n_steps)
    spec = spec_from_config(cfg)
    exp = cfg["experiment"]
    t0, t1 = float(exp["t0"]), float(exp["t1"])
    p = spec.p
    half_width = 0.5 * min(hi - lo for lo, hi in spec.grid.bounds)
    radius = barenblatt_support_radius(1 if spec.grid.d == 1 else 2, p, t1)
    h_max = max(spec.grid.h)
    if radius >= half_width - BOUNDARY_GUARD_CELLS * h_max:
        raise ValueError(
            f"support radius {radius:g} at t1 = {t1} does not fit the domain "
            f"(half width {half_width:g})"
        )
    u0 = barenblatt_on_grid(spec.grid, p, t0)
    if t1 == t0:
        return 0.0
    tg = TimeGrid(t_end=t1 - t0, n_steps=int(cfg["time"]["n_steps"]))
    traj = evolve(spec, u0, tg)
    exact = barenblatt_on_grid(spec.grid, p, t1)
    return lq_norm(traj.final - exact, 1) / lq_norm(exact, 1)


def barenblatt_comparison(config=None, refinement=True):
    """Track the source solution from t0 to t1 and compare in relative L^1.

    Passes when the error at the configured resolution is below rel_l1_max
    and, if refinement is on, when halving both resolutions inflates the
    error by at least refinement_min_ratio.
    """
    config = config or default_barenblatt_config()
    exp = config["experiment"]
    shape = config["grid"]["shape"]
    n_steps = config["time"]["n_steps"]
    err_fine = _barenblatt_error(config, shape, n_steps)
    metrics = {
        "rel_l1_error": err_fine,
        "rel_l1_max": exp["rel_l1_max"],
        "t0": exp["t0"],
        "t1": exp["t1"],
        "shape": list(shape),
        "n_steps": n_steps,
    }
    passed = err_fine <= float(exp["rel_l1_max"])
    if refinement and float(exp["t1"]) > float(exp["t0"]):
        coarse_shape = [max(3, (int(s) + 1) // 2) for s in shape]
        err_coarse = _barenblatt_error(config, coarse_shape, max(1, int(n_steps) // 2))
        ratio = err_coarse / err_fine if err_fine > 0 else float("inf")
        metrics["rel_l1_error_coarse"] = err_coarse
        metrics["refinement_ratio"] = ratio
        metrics["refinement_min_ratio"] = exp["refinement_min_ratio"]
        passed = passed and ratio >= float(exp["refinement_min_ratio"])
    return Report(
        name=exp.get("name", "barenblatt-tracking"),
        passed=passed,
        metrics=metrics,
        config_hash=config_hash(config),
    )


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------


def _solve_pairs(spec, op, lam, A, B):
    """Resolvents of the rows of A and B in one batch.

    Returns (JA, JB, ok), where ok marks the pairs whose two members both
    converged; a lambda the solver refuses fails every pair.
    """
    try:
        out = solve_resolvent_batch(spec, lam, np.concatenate([A, B]), op=op)
    except ValueError:
        return A, B, np.zeros(len(A), dtype=bool)
    n = len(A)
    return out.u[:n], out.u[n:], out.converged[:n] & out.converged[n:]


def contraction_suite(
    p_values=(1.5, 2.0, 3.0),
    lambdas=(0.01, 0.1, 1.0),
    q_values=(1.0, 1.5, 2.0, 4.0, float("inf")),
    n_pairs=100,
    n_nodes=64,
    seed=0,
    slack=1e-6,
    threads=1,
):
    """Resolvent contraction in every L^q and order preservation, in bulk.

    Zero violations required to pass; solver failures count separately as
    suite errors (they also fail the suite, but are not 'violations'). The
    pairs of each (p, lambda) are solved as one batch; a pair is a solver
    error when either of its members fails. threads is accepted for
    compatibility and ignored.
    """
    grid = Grid(bounds=((-1.0, 1.0),), shape=(n_nodes,))
    weights = grid.space().weights
    rng = np.random.default_rng(seed)
    labels = [f"contraction q={q}" for q in q_values] + ["order"]
    violations = []
    errors = 0
    worst_margin = -float("inf")
    for p in p_values:
        spec = OperatorSpec(grid=grid, p=p, bc=BoundaryCondition.dirichlet())
        op = DiscreteOperator(spec)
        for lam in lambdas:
            pairs = rng.standard_normal((n_pairs, 2, n_nodes))  # a_1, b_1, a_2, b_2, ...
            A, B = pairs[:, 0], pairs[:, 1]
            JA, JB, ok = _solve_pairs(spec, op, lam, A, B)
            errors += int(np.count_nonzero(~ok))
            dj, dg = JA[ok] - JB[ok], A[ok] - B[ok]
            margins = [lq_norm_rows(weights, dj, q) - lq_norm_rows(weights, dg, q) * (1.0 + slack) for q in q_values]
            order = lq_norm_rows(weights, np.maximum(dj, 0.0), 1) - lq_norm_rows(weights, np.maximum(dg, 0.0), 1)
            margins = np.stack(margins + [order - 1e-8], axis=1)  # (pairs, checks)
            if margins.size:
                worst_margin = max(worst_margin, float(margins.max()))
            for i, c in zip(*np.nonzero(margins > 0.0)):
                violations.append({"check": labels[c], "margin": float(margins[i, c]), "p": spec.p, "lam": lam})

    passed = (not violations) and errors == 0
    return Report(
        name="contraction-suite",
        passed=passed,
        metrics={
            "pairs": len(p_values) * len(lambdas) * n_pairs,
            "violations": len(violations),
            "solver_errors": errors,
            "worst_margin": worst_margin,
            "examples": violations[:5],
        },
        config_hash=config_hash(
            {
                "p_values": list(p_values),
                "lambdas": list(lambdas),
                "q_values": [_jsonable(float(q)) for q in q_values],
                "n_pairs": n_pairs,
                "n_nodes": n_nodes,
                "seed": seed,
            }
        ),
    )


def order_suite(p_values=(1.5, 2.0, 3.0), n_pairs=50, n_nodes=48, lam=0.1, seed=1, threads=1):
    """Pointwise order preservation of the resolvent on ordered pairs.

    The pairs of each p are solved as one batch; threads is accepted for
    compatibility and ignored.
    """
    grid = Grid(bounds=((-1.0, 1.0),), shape=(n_nodes,))
    rng = np.random.default_rng(seed)
    violations = 0
    errors = 0
    worst = -float("inf")
    for p in p_values:
        spec = OperatorSpec(grid=grid, p=p, bc=BoundaryCondition.neumann())
        op = DiscreteOperator(spec)
        draws = rng.standard_normal((n_pairs, 2, n_nodes))  # a_1, e_1, a_2, e_2, ...
        A = draws[:, 0]
        JA, JB, ok = _solve_pairs(spec, op, lam, A, A + np.abs(draws[:, 1]))
        errors += int(np.count_nonzero(~ok))
        gaps = np.max(JA[ok] - JB[ok], axis=1)
        if gaps.size:
            worst = max(worst, float(gaps.max()))
        violations += int(np.count_nonzero(gaps > 1e-8))
    passed = violations == 0 and errors == 0
    return Report(
        name="order-suite",
        passed=passed,
        metrics={
            "pairs": len(p_values) * n_pairs,
            "violations": violations,
            "solver_errors": errors,
            "worst_gap": worst,
        },
        config_hash=config_hash(
            {"p_values": list(p_values), "n_pairs": n_pairs, "n_nodes": n_nodes, "lam": lam, "seed": seed}
        ),
    )


def gn_suite(d=1, p=3.0, n_nodes=64, n_draws=100, seed=2):
    """Sampled functional ratios of the generator inequality stay bounded.

    Uses the direct regime (p > d in one dimension): ratio of
    ||u||_inf^sigma to ||u||_2^rho <u, Au>_2 with theta0 = pd/(pd + 2(p-d)).
    Passes when every denominator is positive, every ratio is finite, and
    the sampled sup is stable (within a factor 2) under grid doubling.
    """
    theta0 = p * d / (p * d + 2.0 * (p - d))
    gn = expo.GNParams(q=2.0, r=expo.INF, sigma=p / theta0, rho=p * (1.0 - theta0) / theta0)

    def sampled_sup(n):
        grid = Grid(bounds=((-1.0, 1.0),), shape=(n,))
        spec = OperatorSpec(grid=grid, p=p, bc=BoundaryCondition.dirichlet(), eps_reg=0.0)
        rng = np.random.default_rng(seed)
        sup_ratio = 0.0
        bad_denominator = 0
        nonfinite = 0
        for _ in range(n_draws):
            u = random_smooth_field(grid, seed=rng.integers(2**63), nonneg=False)
            try:
                res = gn_check(spec, u, gn)
            except ValueError:
                bad_denominator += 1
                continue
            if not math.isfinite(res.ratio):
                nonfinite += 1
                continue
            sup_ratio = max(sup_ratio, res.ratio)
        return sup_ratio, bad_denominator, nonfinite

    sup_n, bad_n, nf_n = sampled_sup(n_nodes)
    sup_2n, bad_2n, nf_2n = sampled_sup(2 * n_nodes)
    stable = sup_n > 0 and sup_2n > 0 and max(sup_n, sup_2n) / min(sup_n, sup_2n) <= 2.0
    passed = bad_n == bad_2n == nf_n == nf_2n == 0 and stable
    return Report(
        name="gn-suite",
        passed=passed,
        metrics={
            "theta0": theta0,
            "sigma": gn.sigma,
            "rho": gn.rho,
            "sup_ratio": sup_n,
            "sup_ratio_refined": sup_2n,
            "stability_factor": (max(sup_n, sup_2n) / min(sup_n, sup_2n)) if min(sup_n, sup_2n) > 0 else float("inf"),
            "bad_denominators": bad_n + bad_2n,
            "nonfinite_ratios": nf_n + nf_2n,
        },
        config_hash=config_hash({"d": d, "p": p, "n_nodes": n_nodes, "n_draws": n_draws, "seed": seed}),
    )


def conservation_suite(n_nodes=201, n_steps=400, t_end=2.0, seed=3):
    """Neumann mass conservation and Lyapunov monotonicity of the norms.

    Runs one linear and one porous-medium Neumann flow plus one Dirichlet
    flow; mass drift per unit time must stay below 1e-8 on Neumann runs and
    every recorded norm must be non-increasing (slack 1e-9) since f = 0.
    """
    grid = Grid(bounds=((-5.0, 5.0),), shape=(n_nodes,))
    runs = [
        ("neumann-p2", OperatorSpec(grid=grid, p=2.0, bc=BoundaryCondition.neumann())),
        (
            "neumann-pme",
            OperatorSpec(grid=grid, p=2.0, bc=BoundaryCondition.neumann(), phi=PhiSpec.power(2.0)),
        ),
        ("dirichlet-p3", OperatorSpec(grid=grid, p=3.0, bc=BoundaryCondition.dirichlet())),
    ]
    tg = TimeGrid(t_end=t_end, n_steps=n_steps)
    worst_drift = 0.0
    worst_rise = -float("inf")
    details = {}
    passed = True
    for label, spec in runs:
        u0 = random_smooth_field(grid, seed=seed)
        traj = evolve(spec, u0, tg)
        drift = float(np.max(np.abs(traj.mass - traj.mass[0]))) / t_end
        rises = []
        for series in (traj.norm_l1, traj.norm_l2, traj.norm_linf):
            rises.append(float(np.max(np.diff(series))))
        rise = max(rises)
        details[label] = {"mass_drift_per_time": drift, "max_norm_rise": rise}
        worst_rise = max(worst_rise, rise)
        if spec.bc.kind == "neumann":
            worst_drift = max(worst_drift, drift)
            if drift > 1e-8:
                passed = False
        if rise > 1e-9:
            passed = False
    return Report(
        name="conservation-suite",
        passed=passed,
        metrics={
            "worst_neumann_drift_per_time": worst_drift,
            "worst_norm_rise": worst_rise,
            "runs": details,
        },
        config_hash=config_hash({"n_nodes": n_nodes, "n_steps": n_steps, "t_end": t_end, "seed": seed}),
    )


def convergence_study(n_nodes=64, t=0.05, n_list=(8, 16, 32, 64), seed=4):
    """First-order convergence evidence for the exponential formula.

    Part 1: Cauchy gap ratios of the n-fold resolvent under doubling stay
    in [1.5, 3]. Part 2 (p = 2): implicit Euler error against the dense
    matrix exponential halves when the step count doubles, ratios in the
    same bracket.
    """
    grid = Grid(bounds=((0.0, 1.0),), shape=(n_nodes,))
    spec = OperatorSpec(grid=grid, p=2.0, bc=BoundaryCondition.dirichlet(), eps_reg=0.0)
    u0 = random_smooth_field(grid, seed=seed)

    records = exponential_formula_probe(spec, u0, t, n_list=n_list)
    gaps = [r.gap_l1 for r in records if r.gap_l1 is not None]
    gap_ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]

    op = DiscreteOperator(spec)
    L = op.diffusion_jacobian_matrix(np.zeros(grid.n_total)).toarray()
    exact = expm(-t * L) @ u0.values
    euler_errors = []
    for n in n_list:
        u_n = resolvent_power(spec, t / n, u0, n, tol=1e-13, op=op).u
        euler_errors.append(float(np.max(np.abs(u_n.values - exact))))
    euler_ratios = [euler_errors[i] / euler_errors[i + 1] for i in range(len(euler_errors) - 1)]

    in_bracket = lambda r: 1.5 <= r <= 3.0
    passed = all(in_bracket(r) for r in gap_ratios) and all(in_bracket(r) for r in euler_ratios)
    return Report(
        name="convergence-study",
        passed=passed,
        metrics={
            "gaps_l1": gaps,
            "gap_ratios": gap_ratios,
            "euler_errors_linf": euler_errors,
            "euler_ratios": euler_ratios,
            "n_list": list(n_list),
            "t": t,
        },
        config_hash=config_hash({"n_nodes": n_nodes, "t": t, "n_list": list(n_list), "seed": seed}),
    )


# ---------------------------------------------------------------------------
# suite registry (used by the CLI)
# ---------------------------------------------------------------------------


def run_suite(name, config=None, seed=None, tol=None, threads=1):
    """Run one named verification suite and return its Report.

    threads is accepted for compatibility and ignored.
    """
    if name == "decay":
        cfg = config or default_decay_config()
        return run_decay_experiment(cfg, tol=tol)
    if name == "pme":
        cfg = config or default_pme_config()
        return run_decay_experiment(cfg, tol=tol)
    if name == "barenblatt":
        return barenblatt_comparison(config)
    if name == "contraction":
        kwargs = {}
        if seed is not None:
            kwargs["seed"] = seed
        if tol is not None:
            kwargs["slack"] = tol
        return contraction_suite(**kwargs)
    if name == "order":
        return order_suite(**({"seed": seed} if seed is not None else {}))
    if name == "gn":
        return gn_suite(**({"seed": seed} if seed is not None else {}))
    if name == "conservation":
        return conservation_suite(**({"seed": seed} if seed is not None else {}))
    if name == "convergence":
        return convergence_study(**({"seed": seed} if seed is not None else {}))
    raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")


SUITES = ("decay", "pme", "barenblatt", "contraction", "order", "gn", "conservation", "convergence")
