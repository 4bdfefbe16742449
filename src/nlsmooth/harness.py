"""Verification harness: decay-rate fits, source-solution tracking and
property suites over the discretized semigroups.

Every experiment is described by a plain-data config, hashed for
reproducibility, and produces a Report {name, pass, metrics, config_hash}.
Fitted decay exponents use ordinary least squares on log-log samples taken
geometrically inside an observation window; windows are trimmed when mass
leaves through the boundary or the solution extinguishes, and a warning is
recorded whenever less than half of the requested window survives.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import exponents as expo
from .measure import GridFunction, lq_norm, lq_norm_rows
from .operators import (
    BoundaryCondition,
    DiscreteOperator,
    Grid,
    OperatorSpec,
    DEFAULT_EPS_REG,
    PhiSpec,
    barenblatt_on_grid,
    barenblatt_support_radius,
    gn_check,
    linear_perturbation,
    tanh_perturbation,
)
from .resolvent import solve_resolvent_batch
from .semigroup import RECORDED_NORMS, TimeGrid, _is_real, evolve, gradient_flow

BOUNDARY_GUARD_CELLS = 5
MASS_GUARD = 1e-6  # share of ||u0||_1 that may leave through the boundary inside a fit window
DEFAULT_TOLERANCE = 0.15
DEFAULT_R2_MIN = 0.98
FIT_SAMPLES = 33
MIN_FIT_POINTS = 8
CONTRACTION_SLACK = 1e-6  # relative slack of the contraction checks, for roundoff in the solves
CONFIGS = Path(__file__).with_name("configs")  # the shipped configs, one file per claim


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


def decode(obj):
    """obj with the strings "inf" and "-inf" read back as floats, at any depth."""
    if isinstance(obj, dict):
        return {k: decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [decode(v) for v in obj]
    if obj == "inf":
        return float("inf")
    if obj == "-inf":
        return float("-inf")
    return obj


def load_config(path):
    """The config dict of a JSON file, decoded; a ValueError names a file that is not JSON."""
    with open(path) as f:
        try:
            return decode(json.load(f))
        except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"config {path} is not JSON: {exc}") from None


def config_hash(config):
    """sha256 of the canonical JSON form of a config dict. hashlib, which
    loads OpenSSL, is imported at the first call."""
    import hashlib

    blob = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _of_type(value, kind):
    """value has config type kind: "number", "integer", "string", or "numbers" or "integers",
    a number or a list of them, nested for boxes."""
    if isinstance(value, list):
        return kind.endswith("s") and all(_of_type(v, kind) for v in value)
    return isinstance(value, str) if kind == "string" else _is_real(value) and (
        kind.startswith("number") or isinstance(value, numbers.Integral))


_ONE_PER_AXIS = "a list of [lo, hi] pairs, one per axis"

# key path -> (type or None, then, where the harness checks a range, the rule its value must pass
# and what the rule asks): every value rule of a config key that the harness owns. The constructors
# (Grid, OperatorSpec, TimeGrid, ...) check their own ranges, and the rules that read more than one
# key, or the grid's d, sit where they are applied.
_SCHEMA = {
    **dict.fromkeys(("operator.p", "operator.eps_reg", "operator.robin_b", "phi.m", "perturbation.coeff",
                     "experiment.initial.p", "experiment.predicted.value"), ("number",)),
    **dict.fromkeys(("experiment.initial.width", "experiment.initial.t0", "experiment.tolerance", "experiment.t0",
                     "experiment.t1", "experiment.rel_l1_max", "experiment.refinement_min_ratio"),
                    ("number", lambda v: 0.0 < v < math.inf, "positive and finite")),
    **dict.fromkeys(("phi.kind", "perturbation.kind", "experiment.initial.kind", "experiment.predicted.theorem",
                     "experiment.name"), ("string",)),
    "grid.bounds": ("numbers", lambda b: isinstance(b, list) and all(
        isinstance(a, list) and len(a) == 2 and all(map(_is_real, a)) for a in b), _ONE_PER_AXIS),
    "grid.shape": ("integers", lambda s: isinstance(s, list) and s and all(map(_is_real, s)),
                   "a list of integers, one per axis"),
    "experiment.initial.center": ("numbers",),
    "experiment.initial.amplitude": ("number", lambda a: a != 0.0 and math.isfinite(a), "nonzero and finite"),
    "experiment.initial.n_modes": ("integer", lambda n: n >= 1, "at least 1"),
    "experiment.initial.normalize": (None, lambda v: v == "l1", "'l1'"),
    "experiment.seed": ("integer", lambda n: n >= 0, "at least 0"),
    "experiment.r2_min": ("number", lambda r: r <= 1.0, "at most 1"),  # and so not NaN, which no fit passes
    "experiment.window": (None, lambda w: isinstance(w, list) and len(w) == 2 and all(map(_is_real, w))
                          and 0.0 < w[0] < w[1] < math.inf, "two numbers 0 < lo < hi"),
}
_ARTICLED = {"number": "a number", "integer": "an integer", "string": "a string"}


def _check(path, value, label=None):
    """A ValueError says what label (default: config path) must be if value lacks the
    type or fails the rule that _SCHEMA gives path."""
    kind, *rule = _SCHEMA.get(path, (None,))
    if kind and not _of_type(value, kind):  # a list of the wrong leaves is "numbers", any other value "a number"
        what = kind if isinstance(value, list) and kind.endswith("s") else _ARTICLED[kind.rstrip("s")]
    elif rule and not rule[0](value):
        what = rule[1]
    else:
        return
    raise ValueError(f"{label or 'config ' + path} must be {what}, got {value!r}")


def _section(config, name, required, optional=(), walk=True):
    """config[name]; a ValueError names the key path if it is missing, and names
    every unknown key (first: it may be a misspelt one) and every missing required key.
    Then, if walk is set, each value must pass _check under its key path."""
    sec = config.get(name) if isinstance(config, dict) else None
    if not isinstance(sec, dict):
        raise ValueError(f"config lacks section {name}")
    problems = [f"config {problem} {', '.join(f'{name}.{k}' for k in keys)}"
                for problem, keys in (("has unknown key", [k for k in sec if k not in required + optional]),
                                      ("lacks", [k for k in required if k not in sec])) if keys]
    if problems:
        raise ValueError("; ".join(problems))
    for key in sec if walk else ():
        _check(f"{name}.{key}", sec[key])
    return sec


def _kind_section(config, name, kinds):
    """(kind, config[name]) for a section that may be absent; kinds maps each
    kind to its (required, optional) keys, and the first kind is the default."""
    kind = next(iter(kinds))
    if config.get(name) is None:
        return kind, {}
    if isinstance(config[name], dict):
        kind = config[name].get("kind", kind)
        _check(f"{name}.kind", kind)
    if kind not in kinds:
        raise ValueError(f"config {name}.kind must be one of {list(kinds)}, got {kind!r}")
    required, optional = kinds[kind]
    return kind, _section(config, name, required, ("kind",) + optional)


def _phi_from_config(config):
    kind, cfg = _kind_section(config, "phi", {"identity": ((), ()), "power": (("m",), ())})
    return PhiSpec.power(cfg["m"]) if kind == "power" else PhiSpec.identity()


def _perturbation_from_config(config):
    kinds = {"none": ((), ()), "linear": (("coeff",), ()), "tanh": (("coeff",), ())}
    kind, cfg = _kind_section(config, "perturbation", kinds)
    if kind == "none":
        return None
    return (linear_perturbation if kind == "linear" else tanh_perturbation)(cfg["coeff"])


# the config key of each value the constructors refuse, by the start of their message
_REFUSED_KEYS = {
    "need at least 3 nodes": "grid.shape",
    "invalid axis bounds": "grid.bounds",
    "p must satisfy": "operator.p",
    "eps_reg must be": "operator.eps_reg",
    "unknown boundary condition": "operator.bc",
    "robin coupling": "operator.robin_b",
    "power exponent": "phi.m",
    "lipschitz bound": "perturbation.coeff",
}


def spec_from_config(config):
    """Build an OperatorSpec from the flat config sections. A ValueError
    names the key of a value the constructors refuse (_REFUSED_KEYS)."""
    try:
        g = _section(config, "grid", ("bounds", "shape"))
        if len(g["bounds"]) != len(g["shape"]):
            raise ValueError(f"config grid.bounds must be {_ONE_PER_AXIS}, got {g['bounds']!r}")
        grid = Grid(bounds=tuple(map(tuple, g["bounds"])), shape=tuple(g["shape"]))
        op = _section(config, "operator", ("p",), ("bc", "eps_reg", "robin_b"))
        kind = op.get("bc", "dirichlet")
        if kind == "robin" and "robin_b" not in op:
            raise ValueError("config lacks operator.robin_b, which bc 'robin' needs")
        if kind != "robin" and "robin_b" in op:
            raise ValueError(f"config operator.robin_b is read only with bc 'robin', not with bc {kind!r}")
        bc = BoundaryCondition.robin(op["robin_b"]) if kind == "robin" else BoundaryCondition(kind)
        return OperatorSpec(
            grid=grid,
            p=float(op["p"]),
            bc=bc,
            phi=_phi_from_config(config),
            perturbation=_perturbation_from_config(config),
            eps_reg=float(op.get("eps_reg", DEFAULT_EPS_REG)),
        )
    except ValueError as exc:
        key = next((key for start, key in _REFUSED_KEYS.items() if str(exc).startswith(start)), None)
        if key is None:
            raise
        raise ValueError(f"config {key}: {exc}") from None


def time_grid_from_config(config):
    """The TimeGrid of the time section: t_end and either n_steps uniform
    steps or the step controller's tol and first step t_first. A ValueError
    names the bad key."""
    t = _section(config, "time", ("t_end",), ("n_steps", "t_first", "tol"))
    try:
        return TimeGrid(**t)
    except ValueError as exc:  # TimeGrid names the field
        raise ValueError(f"config time.{exc}") from None


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def smooth_bump(grid, center=None, width=None, amplitude=1.0):
    """C^inf bump with exact compact support of the given radius.

    center is a point (a number in 1d) and defaults to the box centre; width
    defaults to a quarter of the shortest side.
    """
    if center is None:
        center = [0.5 * (lo + hi) for lo, hi in grid.bounds]
    w = 0.25 * min(hi - lo for lo, hi in grid.bounds) if width is None else float(width)
    r = grid.distance(center) / w
    vals = np.zeros(grid.n_total)
    inside = r < 1.0
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return GridFunction(grid.space(), vals)


def random_smooth_field(grid, seed, n_modes=3, nonneg=True):
    """Seeded sum of Gaussians with centers in the middle half of the box."""
    rng = np.random.default_rng(seed)
    coords = grid.coordinates()
    vals = np.zeros(grid.n_total)
    for _ in range(n_modes):
        amp = rng.uniform(0.5, 1.5) * (1.0 if nonneg else rng.choice([-1.0, 1.0]))
        parts = []
        for (lo, hi), coord in zip(grid.bounds, coords):
            span = hi - lo
            c = rng.uniform(lo + 0.25 * span, hi - 0.25 * span)
            w = rng.uniform(0.05, 0.15) * span
            parts.append(((coord - c) / w) ** 2)
        vals += amp * np.exp(-sum(parts))
    return GridFunction(grid.space(), vals)


# kind -> (required, optional) keys of an experiment.initial recipe; the first kind is the default
_INITIAL_KINDS = {
    "bump": ((), ("center", "width", "amplitude", "normalize")),
    "barenblatt": (("p",), ("t0", "normalize")),
    "random": ((), ("n_modes", "normalize")),
}


def initial_condition(recipe, grid, seed=0):
    """Build the initial state from an experiment.initial recipe dict.

    kinds: bump {center, width, amplitude}, barenblatt {p, t0},
    random {n_modes}, drawn from seed. normalize: "l1" rescales to unit L^1
    norm. A ValueError names an unknown or missing key, a value that is not an
    admissible number, a normalize other than "l1", or the keys of a recipe
    that is 0 at every node.
    """
    # wrapped under its key path, so that an error names experiment.initial.<key>
    kind, recipe = _kind_section({"experiment.initial": recipe}, "experiment.initial", _INITIAL_KINDS)
    d, center = grid.d, recipe.get("center")  # the rules that depend on d
    if isinstance(center, list) and not (len(center) == d and all(map(_is_real, center))):
        raise ValueError(f"config experiment.initial.center must be a number or a list of d = {d} numbers, "
                         f"got {center!r}")
    p_min = 2.0 * d / (d + 1.0)  # the source profile needs lambda = d(p-2)+p > 0, and p = 2 has none
    if "p" in recipe and not (recipe["p"] > p_min and recipe["p"] != 2.0):
        raise ValueError(f"config experiment.initial.p must be > {p_min:g} and not 2, got {recipe['p']!r}")
    if kind == "bump":
        u = smooth_bump(
            grid,
            center=center,
            width=recipe.get("width"),
            amplitude=recipe.get("amplitude", 1.0),
        )
    elif kind == "barenblatt":
        u = barenblatt_on_grid(grid, float(recipe["p"]), float(recipe.get("t0", 1.0)))
    else:
        u = random_smooth_field(grid, seed=seed, n_modes=recipe.get("n_modes", 3))
    if not u.values.any():
        keys = "t0" if kind == "barenblatt" else "width / experiment.initial.center"
        raise ValueError(f"config experiment.initial.{keys}: the {kind} is 0 at every node of the grid")
    if "normalize" in recipe:
        u = u * (1.0 / lq_norm(u, 1))
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


def fit_power_law(times, values, window):
    """OLS fit of values ~ c * t^{-alpha} on log-log, geometric samples.

    Picks up to FIT_SAMPLES geometrically spaced targets inside the window,
    takes for each the first usable sample (inside the window, with a
    positive value) at or after it, and dedupes. Raises if fewer than
    MIN_FIT_POINTS usable samples remain.
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
    targets = np.geomspace(max(lo, t_ok.min()), min(hi, t_ok.max()), FIT_SAMPLES)
    idx = np.unique(np.searchsorted(t_ok, targets).clip(0, t_ok.size - 1))
    if idx.size < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} fit points, got {idx.size}")
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
    if not isinstance(predicted, dict):
        raise ValueError(f"config experiment.predicted must be {{'value': x}} or an exponent query, got {predicted!r}")
    name = "experiment.predicted"
    if "value" in predicted:  # {"value": x} takes no other key
        return float(_section({name: predicted}, name, ("value",))["value"])
    # a query takes the keys of its theorem, which exponents_from_query checks
    out = exponents_from_query(_section({name: predicted}, name, (), tuple(predicted)), path=name)
    if isinstance(out, float):
        return out
    return out.alpha_s


_THEOREMS = {
    "plaplace": expo.plaplace_exponents,
    "doubly-nonlinear": expo.doubly_nonlinear_exponents,
    "dtn": expo.dtn_exponents,
    "fractional": expo.fractional_exponents,
    "moser": expo.moser_exponents,
    "barenblatt": expo.barenblatt_exponent,
}


def exponents_from_query(query, path=None):
    """Dispatch a theorem-name query dict to the closed-form exponents.

    A ValueError names every key the theorem does not take, or every argument
    it needs that the query lacks, or the first value that is not a number, as
    path.key when the query sits at path; there the theorem's own refusal starts with path.
    """
    where = lambda k: k if path is None else f"{path}.{k}"
    q = {k: v for k, v in query.items() if v is not None}
    theorem = q.pop("theorem", None)
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown {where('theorem')} {theorem!r}; choose from {sorted(_THEOREMS)}")
    params = inspect.signature(_THEOREMS[theorem]).parameters
    for problem, keys in (("does not take", [k for k in q if k not in params]),
                          ("needs", [k for k, v in params.items() if v.default is v.empty and k not in q])):
        if keys:
            raise ValueError(f"theorem {theorem!r} {problem} argument {', '.join(repr(where(k)) for k in keys)}")
    for k, v in q.items():
        if not _is_real(v):
            raise ValueError(f"{where(k)} must be a number, got {v!r}")
    try:
        return _THEOREMS[theorem](**q)
    except ValueError as exc:  # a ConditionError too, whose conditions the exponents command reads
        raise exc if path is None else ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# window trimming: mass guard and extinction
# ---------------------------------------------------------------------------


def usable_window(traj, window):
    """Trim the requested window for extinction and mass loss.

    Returns (lo, hi, info) where info records extinction_time and
    boundary_guard_time (None when not triggered). With f = 0 the mass
    changes only through the boundary, so the window is capped at the first
    step whose mass differs from the initial mass by more than MASS_GUARD
    times the initial L^1 norm; extinction caps every run.
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
    lost = np.nonzero(np.abs(traj.mass - traj.mass[0]) > MASS_GUARD * traj.norm_l1[0])[0]
    if lost.size:
        info["boundary_guard_time"] = float(traj.times[lost[0]])
        hi = min(hi, info["boundary_guard_time"])
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

# the (required, optional) experiment keys of each experiment config
_DECAY_KEYS = (("initial", "window", "predicted"), ("name", "tolerance", "r2_min", "seed"))
_BARENBLATT_KEYS = (("t0", "t1", "rel_l1_max", "refinement_min_ratio"), ("name",))


def decay_setup(config, seed=None):
    """Check every value of a decay config and build the state its flow starts from.

    Returns (spec, time grid, u0, experiment section, predicted alpha). A
    ValueError names the bad key before any step runs, time.tol too where the
    flow is none whose time error the controller bounds.
    seed overrides experiment.seed; either is refused unless the
    experiment.initial recipe is random, the only one that reads a seed.
    """
    spec = spec_from_config(config)
    tg = time_grid_from_config(config)
    if tg.tol is not None:
        try:
            gradient_flow(spec, None)
        except ValueError as exc:
            raise ValueError(f"config time.tol: the step controller {exc}") from None
    exp = _section(config, "experiment", *_DECAY_KEYS)
    alpha_pred = predicted_alpha(exp["predicted"])
    u0 = initial_condition(exp["initial"], spec.grid, seed=exp.get("seed", 0) if seed is None else seed)
    kind = (exp["initial"] or {}).get("kind", "bump")  # a null recipe is the default bump
    if kind != "random" and ("seed" in exp or seed is not None):
        what = "config experiment.seed is read only by" if "seed" in exp else "--seed needs"
        raise ValueError(f"{what} a random experiment.initial; this one is {kind!r}")
    return spec, tg, u0, exp, alpha_pred


def _decay_check(config):
    """decay_setup, and f = 0: the predicted exponents assume it, and the window
    guard reads a change of mass as mass leaving through the boundary."""
    setup = decay_setup(config)
    if setup[0].perturbation is not None:
        raise ValueError("config perturbation.kind must be 'none' in a decay experiment")
    return setup


def run_decay_experiment(config, tol=None):
    """Evolve the configured flow and fit the sup-norm decay exponent.

    Passes when the fitted exponent is within the configured relative
    tolerance of the prediction and the log-log fit is tight (r2 >= r2_min).
    The config must pass _decay_check, so the flow has f = 0. The report
    carries the certified time-error bound of the Euler chain, None where the
    flow has no estimator (see semigroup.gradient_flow).
    """
    spec, tg, u0, exp, alpha_pred = _decay_check(config)
    traj = evolve(spec, u0, tg)
    lo, hi, info = usable_window(traj, exp["window"])
    fit = fit_power_law(traj.times, traj.norm_linf, (lo, hi))
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
        "n_steps": len(traj.times) - 1,
        "steps_rejected": traj.rejected,
        "time_error_bound": traj.time_error_bound,
        **info,
    }
    return Report(exp.get("name", "decay"), passed, metrics, config_hash(config))


def _barenblatt_setup(config):
    """(experiment section, (spec, time grid) of the configured run, the same
    at half both resolutions); a ValueError names the key of a value that the
    source solution, the compactly supported 1-D p-Laplace profile, refuses."""
    exp = _section(config, "experiment", *_BARENBLATT_KEYS)
    spec = spec_from_config(config)
    tg = time_grid_from_config(config)
    t0, t1 = float(exp["t0"]), float(exp["t1"])
    if not abs(tg.t_end - (t1 - t0)) <= 1e-12 * abs(t1 - t0):
        raise ValueError(f"config time.t_end = {tg.t_end:g} must equal experiment.t1 - experiment.t0 = {t1 - t0:g}")
    refusals = (
        ("operator.p", spec.p, spec.p <= 2.0, "compact support needs p > 2"),
        ("phi.kind", spec.phi.kind, spec.phi.kind != "identity", "it solves the p-Laplace flow, phi identity"),
        ("perturbation.kind", (config.get("perturbation") or {}).get("kind"), spec.perturbation is not None,
         "it solves the unperturbed flow, perturbation none"),
        ("grid.shape", list(spec.grid.shape), spec.grid.d > 1,
         "in d >= 2 the operator is orthotropic and the error does not converge; use one axis"),
        ("time.tol", tg.tol, tg.tol is not None, "its refinement run halves time.n_steps, which tol leaves unread"),
    )
    for key, value, refused, why in refusals:
        if refused:
            raise ValueError(f"config {key} = {value!r} cannot be compared with the source solution: {why}")
    # halving both resolutions must give a run the config could describe
    coarse_shape = tuple(max(3, (s + 1) // 2) for s in spec.grid.shape)
    coarse = replace(spec, grid=Grid(bounds=spec.grid.bounds, shape=coarse_shape))
    coarse_tg = replace(tg, n_steps=max(1, tg.n_steps // 2))
    # the relative errors divide by the profile at t1, whose support holds that at t0
    if not all(barenblatt_on_grid(run.grid, run.p, t0).values.any() for run in (spec, coarse)):
        raise ValueError(f"config grid.bounds / grid.shape: the source solution at t0 = {t0:g} is 0 at every node "
                         "of the grid or of the grid at half its resolution")
    # the support about the origin must stay BOUNDARY_GUARD_CELLS coarse cells inside the box at t1
    room = min(min(-lo, hi) for lo, hi in spec.grid.bounds)  # from the origin to the nearest face
    radius = barenblatt_support_radius(spec.grid.d, spec.p, t1)
    if radius >= room - BOUNDARY_GUARD_CELLS * max(coarse.grid.h):
        raise ValueError(f"config experiment.t1 / grid.bounds: the support at t1, radius {radius:g} about the origin, "
                         f"does not fit the domain {list(map(list, spec.grid.bounds))}")
    return exp, (spec, tg), (coarse, coarse_tg)


def barenblatt_comparison(config):
    """Track the source solution from t0 to t1 and compare in relative L^1.

    Passes when the error at the configured resolution is below rel_l1_max
    and halving both resolutions inflates the error by at least
    refinement_min_ratio. The config must pass _barenblatt_setup. The report
    carries the certified time-error bound of the configured run, a
    p-Laplace gradient flow on uniform steps.
    """
    exp, (spec, tg), coarse = _barenblatt_setup(config)
    t0, t1 = float(exp["t0"]), float(exp["t1"])
    runs = []  # (relative L^1 error at t1, trajectory) of each run started from the source solution at t0
    for run, run_tg in ((spec, tg), coarse):
        exact = barenblatt_on_grid(run.grid, run.p, t1)
        traj = evolve(run, barenblatt_on_grid(run.grid, run.p, t0), run_tg)
        runs.append((lq_norm(traj.final - exact, 1) / lq_norm(exact, 1), traj))
    (err_fine, fine), (err_coarse, _) = runs
    ratio = err_coarse / err_fine if err_fine > 0 else float("inf")
    metrics = {
        "rel_l1_error": err_fine,
        "rel_l1_max": exp["rel_l1_max"],
        "t0": exp["t0"],
        "t1": exp["t1"],
        "shape": list(spec.grid.shape),
        "n_steps": tg.n_steps,
        "rel_l1_error_coarse": err_coarse,
        "refinement_ratio": ratio,
        "refinement_min_ratio": exp["refinement_min_ratio"],
        "time_error_bound": fine.time_error_bound,
    }
    passed = err_fine <= float(exp["rel_l1_max"]) and ratio >= float(exp["refinement_min_ratio"])
    return Report(exp.get("name", "barenblatt-tracking"), passed, metrics, config_hash(config))


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


def contraction_suite(p_values=(1.5, 2.0, 3.0), n_pairs=100, seed=0, threads=1):
    """Resolvent contraction in every L^q and order preservation, in bulk.

    Zero violations required to pass; solver failures count separately as
    suite errors (they also fail the suite, but are not 'violations'). The
    pairs of each (p, lambda) are solved as one batch; a pair is a solver
    error when either of its members fails. threads is accepted for
    compatibility and ignored.
    """
    lambdas, q_values, n_nodes = (0.01, 0.1, 1.0), (1.0, 1.5, 2.0, 4.0, float("inf")), 64
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
            margins = [lq_norm_rows(weights, dj, q) - lq_norm_rows(weights, dg, q) * (1.0 + CONTRACTION_SLACK) for q in q_values]
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


def order_suite(p_values=(1.5, 2.0, 3.0), n_pairs=50, seed=1):
    """Pointwise order preservation of the resolvent on ordered pairs.

    Neumann, 48 nodes on [-1, 1], lambda = 0.1. The pairs of each p are
    solved as one batch.
    """
    n_nodes, lam = 48, 0.1
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


def gn_suite(seed=2):
    """Sampled functional ratios of the generator inequality stay bounded.

    Uses the direct regime p > d = 1 on a 1-D grid: ratio of
    ||u||_inf^sigma to ||u||_2^rho <u, Au>_2 with theta0 = p/(p + 2(p-1)).
    Passes when every denominator is positive, every ratio is finite, and
    the sampled sup is stable (within a factor 2) under grid doubling.
    """
    p, n_nodes, n_draws = 3.0, 64, 100
    theta0 = p / (p + 2.0 * (p - 1.0))
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
        config_hash=config_hash({"d": 1, "p": p, "n_nodes": n_nodes, "n_draws": n_draws, "seed": seed}),
    )


def conservation_suite(seed=3):
    """Neumann mass conservation and Lyapunov monotonicity of the norms.

    Runs one linear and one porous-medium Neumann flow plus one Dirichlet
    flow; mass drift per unit time must stay below 1e-8 on Neumann runs and
    every recorded norm must be non-increasing (slack 1e-9) since f = 0.
    """
    n_nodes, n_steps, t_end = 201, 400, 2.0
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
        rise = max(float(np.max(np.diff(traj.norm_series(q)))) for q in RECORDED_NORMS)
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


def convergence_study(seed=4):
    """First-order convergence evidence for the exponential formula.

    Each u_n = (I + (t/n) A)^{-n} u0, n = 8, 16, 32, 64, is an n-step evolve
    to t = 0.05 on 64 nodes (p = 2, so the flow is linear). Part 1: Cauchy gap ratios of u_n under doubling stay
    in [1.5, 3]. Part 2: implicit Euler error against the exact flow
    exp(-tL) u0 halves when the step count doubles, ratios in the same
    bracket. L is the symmetric 64 x 64 Laplacian, made dense from the
    operator's Jacobian bands, and exp(-tL) u0 = V exp(-t Lambda) V^T u0 from
    its eigendecomposition L = V Lambda V^T (numpy.linalg.eigh), so the suite
    imports nothing from scipy.
    """
    n_nodes, t, n_list = 64, 0.05, (8, 16, 32, 64)
    grid = Grid(bounds=((0.0, 1.0),), shape=(n_nodes,))
    spec = OperatorSpec(grid=grid, p=2.0, bc=BoundaryCondition.dirichlet(), eps_reg=0.0)
    u0 = random_smooth_field(grid, seed=seed)
    op = DiscreteOperator(spec)
    u_n = [evolve(spec, u0, TimeGrid(t, n), tol=1e-13, op=op).final for n in n_list]

    gaps = [lq_norm(v - u, 1) for u, v in zip(u_n, u_n[1:])]
    gap_ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]

    # column j of L is L e_j; L is symmetric, so the rows L e_j make L itself
    L = op.jacobian_apply(op.diffusion_jacobian(np.zeros(grid.n_total)), np.eye(grid.n_total))
    eigenvalues, V = np.linalg.eigh(L)
    exact = V @ (np.exp(-t * eigenvalues) * (V.T @ u0.values))
    euler_errors = [float(np.max(np.abs(u.values - exact))) for u in u_n]
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


# name -> (suite, the (required, optional) experiment keys of a config for it, the
# check of such a config's values); a suite reads config, seed or tol only if its signature names it
_SUITE_REGISTRY = {
    "decay": (run_decay_experiment, _DECAY_KEYS, _decay_check),
    "barenblatt": (barenblatt_comparison, _BARENBLATT_KEYS, _barenblatt_setup),
    "contraction": (contraction_suite, (), None),
    "order": (order_suite, (), None),
    "gn": (gn_suite, (), None),
    "conservation": (conservation_suite, (), None),
    "convergence": (convergence_study, (), None),
}
SUITES = tuple(_SUITE_REGISTRY)
CONFIG_SUITES = tuple(name for name, (_, keys, _) in _SUITE_REGISTRY.items() if keys)  # the suites that read a config


def suite_inputs(name, config=None, seed=None, tol=None):
    """(inputs, refusals): the given inputs suite `name` reads, and for each
    other given input why the suite refuses it.

    None means not given. A config is refused unless its experiment section
    has every required key of the suite and no key the suite does not read.
    A config the suite reads must pass its check: a ValueError names a bad value.
    """
    suite, keys, check = _SUITE_REGISTRY[name]
    named = inspect.signature(suite).parameters
    inputs, refusals = {}, {}
    for key, value in (("config", config), ("seed", seed), ("tol", tol)):
        if value is None:
            continue
        if key not in named:
            refusals[key] = f"suite {name!r} takes no {key}"
            continue
        if key == "config":
            try:
                _section(value, "experiment", *keys, walk=False)
            except ValueError as exc:
                refusals[key] = f"suite {name!r}: {exc}"
                continue
            check(value)
        inputs[key] = value
    return inputs, refusals


def run_suite(name, config=None, seed=None, tol=None):
    """Run one named verification suite and return its Report. A ValueError
    refuses, before any work starts, every given input the suite does not
    read and a config value its check refuses (see suite_inputs)."""
    if name not in _SUITE_REGISTRY:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    inputs, refusals = suite_inputs(name, config=config, seed=seed, tol=tol)
    if refusals:
        raise ValueError("; ".join(refusals.values()))
    return _SUITE_REGISTRY[name][0](**inputs)
