"""Benchmark for nlsmooth: time from inputs to a verdict, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload decay-1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads are described in workloads.py. A run repeats its workload on the
same seeded inputs until ``--seconds`` have passed, set-up included, and checks every
repetition: verdicts must pass and outputs must repeat exactly.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of one
repetition), ``setup_s`` (median wall time of fresh interpreters that import
nlsmooth and build the workload's inputs) and ``peak_rss_mb``.

``--trace 1`` spends half the time untraced and half traced (tracing.py) and
reports the per-layer metrics and ``trace_overhead_frac``. It also runs a
self-check: on a short 1-D flow the traced Newton and step counts must equal
those summed from direct resolvent calls, and the traced outputs of the
workload must equal the untraced ones.

The last line of standard output is the result object; the line before it
is a report with the run environment and the workload's accuracy metrics.
Everything runs in one process on one Python thread and one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
SELF_CHECK_STEPS = 20


def _pin_blas_threads():
    # One BLAS thread: on two cores OpenBLAS threading of the 2-D path's
    # vector operations made step-2d slower and far noisier.
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed):
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "seed": seed,
    }


def _child(args, *extra):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def _setup_seconds(args):
    """Median wall time of fresh interpreters that only import and set up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(_child(args, "--setup-only"), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _repeat(workload, state, deadline, tracers=None):
    """Repeat the workload while another repetition is expected to end
    before `deadline` (a perf_counter time); at least once."""
    from tracing import Tracer

    walls, outcomes = [], []
    while not walls or time.perf_counter() + statistics.fmean(walls) <= deadline:
        if tracers is None:
            t0 = time.perf_counter()
            outcomes.append(workload.run(state))
        else:
            tracer = Tracer()
            t0 = time.perf_counter()
            with tracer.traced():
                outcomes.append(workload.run(state))
            tracers.append(tracer)
        walls.append(time.perf_counter() - t0)
    return walls, outcomes


def _self_check():
    """Traced counts on a short 1-D flow against direct resolvent calls."""
    from nlsmooth import harness, operators, resolvent, semigroup
    from tracing import Tracer

    grid = operators.Grid(bounds=((-5.0, 5.0),), shape=(201,))
    spec = operators.OperatorSpec(grid=grid, p=3.0)
    u0 = harness.smooth_bump(grid, width=1.0)
    tg = semigroup.TimeGrid(t_end=0.5, n_steps=SELF_CHECK_STEPS)
    u, newton = u0, 0
    for _ in range(tg.n_steps):
        out = resolvent.solve_resolvent(spec, tg.dt, u, tol=1e-12)
        u, newton = out.u, newton + out.iterations
    plain = semigroup.evolve(spec, u0, tg, tol=1e-12)
    tracer = Tracer()
    with tracer.traced():
        traced = semigroup.evolve(spec, u0, tg, tol=1e-12)
    series = lambda t: (t.norm_l1, t.norm_l2, t.norm_linf, t.final.values)
    return {
        "self_check.newton_iters": tracer.newton_iters == newton,
        "self_check.solves": tracer.calls["resolvent.solve"] == tracer.steps == tg.n_steps,
        "self_check.linsolves": tracer.calls["resolvent.linsolve"] == newton,
        "self_check.outputs": bool(
            all((a == b).all() for a, b in zip(series(traced), series(plain)))
            and (plain.final.values == u.values).all()
        ),
    }


def _as_metrics(pairs):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def _untraced(args, workload, state, deadline):
    setup_s = _setup_seconds(args)
    walls, outcomes = _repeat(workload, state, deadline)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return walls, outcomes, metrics, {}, {}


def _traced(args, workload, state, deadline):
    from tracing import layer_metrics

    try:
        checks = _self_check()
    except Exception as exc:  # a renamed library name must not abort the run
        print(f"perfbench: self-check failed: {exc!r}", file=sys.stderr)
        checks = {"self_check": False}
    halfway = (time.perf_counter() + deadline) / 2.0
    walls, outcomes = _repeat(workload, state, halfway)
    tracers = []
    traced_walls, traced = _repeat(workload, state, deadline, tracers)
    checks["traced_outputs_match"] = all(o.fingerprint == outcomes[0].fingerprint for o in traced)
    layers, missing, checks["counts_repeat"] = layer_metrics(tracers)
    plain, slow = statistics.median(walls), statistics.median(traced_walls)
    metrics = {**layers, "trace_overhead_frac": ((slow - plain) / plain, "ratio")}
    absent = {"targets": tracers[0].absent, "metric_groups": missing}
    return walls, outcomes + traced, metrics, checks, absent


def run_workload(args, workload):
    deadline = time.perf_counter() + args.seconds
    state = workload.setup(ROOT, args.seed)
    measure = _traced if args.trace else _untraced
    walls, outcomes, metrics, checks, absent = measure(args, workload, state, deadline)
    checks["outputs_repeat"] = all(o.fingerprint == outcomes[0].fingerprint for o in outcomes)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    quality = {"fail_frac": (failed / attempted, "ratio"), **outcomes[0].quality}
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "repetitions": len(walls),
        "wall_s_samples": walls,
        "quality": _as_metrics(quality),
        "checks": checks,
        "absent": absent,
    }
    print(json.dumps({"report": report}))
    if absent.get("targets"):
        print(f"perfbench: trace targets missing: {absent}", file=sys.stderr)
    correct = failed == 0 and all(checks.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": _as_metrics(metrics)}
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        args.workload = name
        print(f"== {name}", flush=True)
        code = max(code, subprocess.run(_child(args), cwd=ROOT).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("decay-1d", "suites-batch", "step-2d", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nlsmooth" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no nlsmooth sources under {ROOT}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(ROOT, args.seed)
        return 0
    run_workload(args, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
