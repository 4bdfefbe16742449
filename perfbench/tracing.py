"""Outside-in tracer for the nlsmooth layers.

The tracer replaces public module-level functions and class methods of
nlsmooth with timing wrappers for the duration of one traced run, then puts
the originals back. Nothing inside the library changes. A module-level target
is replaced under every nlsmooth module name that binds the same object, so
``from .resolvent import solve_resolvent`` in another module is traced too.
A target that no longer exists is noted in ``absent`` and the metrics that
depend only on it are left out; the traced run itself goes on.

Spans nest on a stack (one thread). A span's self time is its duration minus
the time of the spans opened inside it. Calls and total time count only the
outermost span of each name, so a nested call of the same name is not
counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, qualified name, span)
TARGETS = (
    ("nlsmooth.semigroup", "evolve", "semigroup.evolve"),
    ("nlsmooth.resolvent", "solve_resolvent", "resolvent.solve"),
    ("nlsmooth.resolvent", "solve_banded", "resolvent.linsolve"),
    ("nlsmooth.resolvent", "cg", "resolvent.linsolve"),
    ("nlsmooth.operators", "DiscreteOperator.apply_values", "operators.apply"),
    ("nlsmooth.operators", "DiscreteOperator.diffusion_jacobian_bands_1d", "operators.jacobian"),
    ("nlsmooth.operators", "DiscreteOperator.diffusion_jacobian_matrix", "operators.jacobian"),
    ("nlsmooth.measure", "lq_norm", "measure.norm"),
    ("nlsmooth.measure", "mass", "measure.norm"),
)
EXPONENTS_MODULE = "nlsmooth.exponents"  # every public function is traced as span "exponents"
ROOT = "harness"
SOLVE, STEP_PARENT = "resolvent.solve", "semigroup.evolve"
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


class _Frame:
    __slots__ = ("name", "start", "child", "step_start")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0
        self.step_start = None


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.samples_ms = defaultdict(list)  # "resolvent.solve", "semigroup.step"
        self.newton_iters = 0
        self.cg_iters = 0
        self.solve_errors = 0
        self.residual_max = 0.0
        self.steps = 0
        self.absent = []
        self.traced_spans = {ROOT}
        self._stack = []
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        now = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        if name == SOLVE and parent is not None and parent.name == STEP_PARENT:
            # one semigroup step runs from one step solve to the next
            if parent.step_start is not None:
                self.samples_ms["semigroup.step"].append(1e3 * (now - parent.step_start))
            parent.step_start = now
            self.steps += 1
        frame = _Frame(name, now)
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        now = time.perf_counter()
        self._stack.pop()
        dur = now - frame.start
        self.self_s[frame.name] += dur - frame.child
        if frame.step_start is not None:
            self.samples_ms["semigroup.step"].append(1e3 * (now - frame.step_start))
        if not any(f.name == frame.name for f in self._stack):
            self.calls[frame.name] += 1
            self.total_s[frame.name] += dur
            if frame.name == SOLVE:
                self.samples_ms[SOLVE].append(1e3 * dur)
        if self._stack:
            self._stack[-1].child += dur

    @contextlib.contextmanager
    def span(self, name):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrapping -----------------------------------------------------------

    def _on_solve(self, result):
        self.newton_iters += result.iterations
        self.residual_max = max(self.residual_max, float(result.residual))

    def _with_cg_counter(self, kwargs):
        user_callback = kwargs.get("callback")

        def callback(xk):
            self.cg_iters += 1
            if user_callback is not None:
                user_callback(xk)

        return {**kwargs, "callback": callback}

    def _wrap(self, fn, name, attr):
        tracer = self
        on_result = self._on_solve if name == SOLVE else None
        count_cg = attr == "cg"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_cg:
                kwargs = tracer._with_cg_counter(kwargs)
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if name == SOLVE:
                    tracer.solve_errors += 1
                raise
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _targets(self):
        yield from TARGETS
        module = sys.modules.get(EXPONENTS_MODULE)
        if module is None:
            self.absent.append(EXPONENTS_MODULE)
            return
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == EXPONENTS_MODULE and not attr.startswith("_"):
                yield EXPONENTS_MODULE, attr, "exponents"

    def _install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "nlsmooth" or n.startswith("nlsmooth.")]
        for module_name, qualname, span in list(self._targets()):
            *owner_path, attr = qualname.split(".")
            owner = sys.modules.get(module_name)
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(original, span, attr)
            self.traced_spans.add(span)
            if owner_path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def traced(self):
        """Install the wrappers, open the root span, and restore on exit."""
        self._install()
        try:
            with self.span(ROOT):
                yield self
        finally:
            self._restore()


# -- metrics ---------------------------------------------------------------


def tail_percentile(n):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it;
    the median when there are too few samples for any."""
    ok = [q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND]
    return ok[-1] if ok else TAIL_LADDER[0]


def _timing(prefix, samples):
    pct = tail_percentile(len(samples))
    at = lambda q: float(np.percentile(samples, q)) if samples else 0.0
    return {
        f"{prefix}_ms_p50": (at(50.0), "ms"),
        f"{prefix}_ms_p99": (at(99.0), "ms"),
        f"{prefix}_ms_tail": (at(pct), "ms"),
        f"{prefix}_tail_pct": (pct, "%"),
        f"{prefix}_samples": (len(samples), "count"),
    }


# metric group -> spans it needs; the group is left out when any of them was not traced
_NEEDS = {
    "resolvent.linsolve": ("resolvent.linsolve",),
    "resolvent.cg": ("resolvent.linsolve", "resolvent.solve"),
    "resolvent.solve": ("resolvent.solve",),
    "resolvent.linesearch": ("resolvent.solve", "operators.apply"),
    "resolvent.self": ("resolvent.solve", "operators.apply", "operators.jacobian", "resolvent.linsolve"),
    "operators.apply": ("operators.apply",),
    "operators.jacobian": ("operators.jacobian",),
    "semigroup": ("semigroup.evolve", "resolvent.solve"),
    "measure": ("measure.norm",),
    "exponents": ("exponents",),
}


def _counts(t):
    """Deterministic counts of one traced run, grouped by what they need."""
    solves, newton, applies = t.calls[SOLVE], t.newton_iters, t.calls["operators.apply"]
    return {
        "resolvent.linsolve": {"resolvent.linsolve_calls": (t.calls["resolvent.linsolve"], "count")},
        "resolvent.cg": {
            "resolvent.cg_iters": (t.cg_iters, "count"),
            "resolvent.cg_per_newton": (t.cg_iters / newton if newton else 0.0, "ratio"),
        },
        "resolvent.solve": {
            "resolvent.solves": (solves, "count"),
            "resolvent.newton_iters": (newton, "count"),
            "resolvent.newton_per_solve": (newton / solves if solves else 0.0, "ratio"),
            "resolvent.errors": (t.solve_errors, "count"),
            "resolvent.residual_max": (t.residual_max, "l2"),
        },
        "resolvent.linesearch": {
            "resolvent.linesearch_useful_ratio": (
                newton / (applies - solves) if applies > solves else 0.0,
                "ratio",
            ),
        },
        "operators.apply": {"operators.apply_calls": (applies, "count")},
        "operators.jacobian": {"operators.jacobian_calls": (t.calls["operators.jacobian"], "count")},
        "semigroup": {"semigroup.steps": (t.steps, "count")},
        "measure": {"measure.norm_calls": (t.calls["measure.norm"], "count")},
        "exponents": {"exponents.calls": (t.calls["exponents"], "count")},
    }


def _times(t):
    """Busy and self times of one traced run, in seconds."""
    return {
        "resolvent.linsolve": {"resolvent.linsolve_s": t.total_s["resolvent.linsolve"]},
        "resolvent.self": {"resolvent.self_s": t.self_s[SOLVE]},
        "operators.apply": {"operators.apply_s": t.total_s["operators.apply"]},
        "operators.jacobian": {"operators.jacobian_s": t.total_s["operators.jacobian"]},
        "semigroup": {"semigroup.self_s": t.self_s[STEP_PARENT]},
        "measure": {"measure.norm_s": t.total_s["measure.norm"]},
        "exponents": {"exponents.s": t.total_s["exponents"]},
        None: {"harness.self_s": t.self_s[ROOT]},
    }


def layer_metrics(tracers):
    """Per-layer metrics over repeated traced runs of the same inputs.

    Counts come from the first run, times are medians over runs, and
    per-call timings pool the samples of every run. Returns
    (metrics {name: (value, unit)}, absent metric groups, counts_repeat).
    """
    first = tracers[0]
    traced = first.traced_spans
    present = lambda group: group is None or all(s in traced for s in _NEEDS[group])
    counts = [_counts(t) for t in tracers]
    metrics = {}
    for group, values in counts[0].items():
        if present(group):
            metrics.update(values)
    times = [_times(t) for t in tracers]
    for group, values in times[0].items():
        if present(group):
            for name in values:
                metrics[name] = (statistics.median(tt[group][name] for tt in times), "s")
    if present("resolvent.solve"):
        metrics.update(_timing("resolvent.solve", [x for t in tracers for x in t.samples_ms[SOLVE]]))
    if present("semigroup"):
        metrics.update(_timing("semigroup.step", [x for t in tracers for x in t.samples_ms["semigroup.step"]]))
    absent = sorted(g for g in _NEEDS if not present(g))
    return metrics, absent, all(c == counts[0] for c in counts)
