"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and runs the
library once in ``run``, returning an ``Outcome``. ``run`` never raises for a
solver failure: a failed operation is counted, so one bad case cannot abort a
timed run.

- decay-1d: the paper's main claim, the fitted sup-norm decay rate, on the
  shipped p = 3 and porous-medium configs. Long chains of warm-started
  large-n banded solves, dominated by per-call Python overhead.
- suites-batch: the contraction and order suites at p = 2 and 3. 2100 cold,
  independent small-n resolvents with line-search backtracking and no
  semigroup; this is where a batched resolvent should show.
- step-2d: implicit Euler steps of the 2-D p-Laplacian at 128x128 from
  several seeded fields, the only path through the sparse Jacobian and
  Jacobi-preconditioned CG.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nlsmooth import harness, operators, semigroup

STEP2D_SHAPE = (128, 128)
STEP2D_DT = 0.05
STEP2D_STEPS = 2
STEP2D_FIELDS = 16
NORM_RISE_MAX = 1e-9
DECAY_CONFIGS = ("p3_d1.json", "pme_m2.json")
# The suites' default p = 1.5 is left out because a timed workload must have
# no failing operation: on about one seed in three, solve_resolvent fails to
# converge at p = 1.5 for one or two of the random pairs (an open defect).
SUITE_P_VALUES = (2.0, 3.0)
CONTRACTION_PAIRS = 150  # per (p, lambda): 900 pairs, as in the default suite
ORDER_PAIRS = 75  # per p: 150 pairs, as in the default suite


@dataclass
class Outcome:
    attempted: int
    failed: int
    quality: dict  # name -> (value, unit)
    fingerprint: object  # outputs that must repeat exactly for the same inputs


class Decay1D:
    """run_decay_experiment on the p = 3 and phi = u^2 configs. Seed 0 runs
    the shipped configs; any other seed shifts the bump centre within [-1, 1]."""

    name = "decay-1d"

    def setup(self, root, seed):
        center = float(np.random.default_rng(seed).uniform(-1.0, 1.0)) if seed else 0.0
        configs = []
        for fname in DECAY_CONFIGS:
            cfg = json.loads((Path(root) / "configs" / fname).read_text())
            cfg["experiment"]["initial"]["center"] = center
            spec = harness.spec_from_config(cfg)
            operators.DiscreteOperator(spec)
            harness.initial_condition(cfg["experiment"]["initial"], spec.grid)
            configs.append(cfg)
        return configs

    def run(self, configs):
        failed = 0
        rel_errs, r2s, metrics = [], [], []
        for cfg in configs:
            try:
                report = harness.run_decay_experiment(cfg)
            except Exception as exc:  # a solver failure is a failed verdict, not a crash
                failed += 1
                metrics.append(repr(exc))
                continue
            m = report.metrics
            rel_errs.append(m["rel_err"])
            r2s.append(m["r2"])
            metrics.append(m)
            if not (report.passed and m["rel_err"] <= cfg["experiment"]["tolerance"]):
                failed += 1
        quality = {
            "alpha_rel_err": (max(rel_errs, default=float("nan")), "ratio"),
            "fit_r2_min": (min(r2s, default=float("nan")), "r2"),
        }
        return Outcome(len(configs), failed, quality, metrics)


class SuitesBatch:
    """contraction_suite(seed) then order_suite(seed + 1) at SUITE_P_VALUES,
    with as many pairs as the default suites and otherwise their defaults."""

    name = "suites-batch"

    def setup(self, root, seed):
        return seed

    def run(self, seed):
        failed = attempted = 0
        worst = -float("inf")
        metrics = []
        for suite, suite_seed, n_pairs, pairs, key in (
            (harness.contraction_suite, seed, CONTRACTION_PAIRS, 900, "worst_margin"),
            (harness.order_suite, seed + 1, ORDER_PAIRS, 150, "worst_gap"),
        ):
            try:
                report = suite(p_values=SUITE_P_VALUES, n_pairs=n_pairs, seed=suite_seed)
            except Exception as exc:
                attempted += pairs
                failed += pairs
                metrics.append(repr(exc))
                continue
            m = report.metrics
            attempted += m["pairs"]
            # violations are counted per check, so cap at the number of pairs
            failed += min(m["pairs"], m["violations"] + m["solver_errors"])
            worst = max(worst, m[key])
            metrics.append(m)
        return Outcome(attempted, failed, {"worst_margin": (worst, "margin")}, metrics)


class Step2D:
    """semigroup.evolve for p = 3, Dirichlet, on [-4, 4]^2 from seeded smooth
    random fields. The CG work per field varies by about 15% (standard
    deviation) between seeds, so each repetition evolves STEP2D_FIELDS fields
    for a few steps each, rather than one field for many, to keep the seed from
    dominating the timing."""

    name = "step-2d"

    def setup(self, root, seed):
        grid = operators.Grid(bounds=((-4.0, 4.0), (-4.0, 4.0)), shape=STEP2D_SHAPE)
        spec = operators.OperatorSpec(grid=grid, p=3.0, bc=operators.BoundaryCondition.dirichlet())
        op = operators.DiscreteOperator(spec)
        fields = [harness.random_smooth_field(grid, STEP2D_FIELDS * seed + j) for j in range(STEP2D_FIELDS)]
        tg = semigroup.TimeGrid(t_end=STEP2D_DT * STEP2D_STEPS, n_steps=STEP2D_STEPS)
        return spec, op, fields, tg

    def run(self, state):
        spec, op, fields, tg = state
        failed, worst, norms = 0, -float("inf"), []
        for u0 in fields:
            try:
                traj = semigroup.evolve(spec, u0, tg, op=op)
            except Exception as exc:
                failed += tg.n_steps
                norms.append(repr(exc))
                continue
            series = (traj.norm_l1, traj.norm_l2, traj.norm_linf)
            rise = np.max([np.diff(s) for s in series], axis=0)  # per step, worst of the three norms
            failed += int(np.count_nonzero(rise > NORM_RISE_MAX))
            worst = max(worst, float(rise.max()))
            norms.append([s.tolist() for s in series])
        quality = {"max_norm_rise": (worst, "norm")}
        return Outcome(len(fields) * tg.n_steps, failed, quality, norms)


WORKLOADS = {w.name: w for w in (Decay1D(), SuitesBatch(), Step2D())}
