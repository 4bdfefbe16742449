"""End-to-end acceptance checks.

Each test prints exactly one [PASS]/[FAIL] line with the measured numbers
and its runtime, then asserts. Tolerances are stated inline; the checks mix
closed-form identities, bulk property sampling, and simulated decay fits.
"""

import time

import numpy as np
import pytest

from nlsmooth import harness
from nlsmooth.exponents import (
    barenblatt_exponent,
    doubly_nonlinear_exponents,
    iteration_sequence,
    plaplace_exponents,
)

IDENTITY_TOL = 1e-12
SEQUENCE_REL_TOL = 1e-10
LIMIT_TOL = 1e-6


def _report(name, ok, detail, elapsed, limit=None):
    status = "PASS" if ok else "FAIL"
    budget = f", limit {limit:g}s" if limit is not None else ""
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s{budget})", flush=True)
    assert ok, f"{name}: {detail}"


def test_acceptance_01_profile_exponent_identity():
    """L^1 -> L^inf decay rate equals the self-similar profile rate d/lambda."""
    t0 = time.perf_counter()
    worst = 0.0
    for d, p in [(2, 1.9), (3, 2.0), (3, 2.5), (4, 3.0), (5, 4.0)]:
        alpha = plaplace_exponents(d, p, s=1.0, m0=float(p)).alpha_s
        target = barenblatt_exponent(d, p)
        worst = max(worst, abs(alpha - target))
    elapsed = time.perf_counter() - t0
    ok = worst <= IDENTITY_TOL and elapsed < 1.0
    _report(
        "01 profile-exponent identity",
        ok,
        f"max |alpha_1 - d/lambda| = {worst:.2e} over 5 (d, p) pairs, tol {IDENTITY_TOL:g}",
        elapsed,
        limit=1.0,
    )


def test_acceptance_02_heat_kernel_reduction():
    """p = 2 falls back to the heat rates d/(2s); m = 1 collapses the doubly
    nonlinear family onto the p-Laplace one where the routes coincide."""
    t0 = time.perf_counter()
    worst_heat = 0.0
    for d in (1, 2, 3):
        for s in (1.0, 2.0):
            alpha = plaplace_exponents(d, 2.0, s=s).alpha_s
            worst_heat = max(worst_heat, abs(alpha - d / (2.0 * s)))
    worst_red = 0.0
    for d, check_beta in ((1, True), (3, False)):
        # d = 1 is the direct regime (all three exponents agree); d = 3 runs
        # the iteration route, which shares alpha and gamma but not beta
        for s in (1.0, 2.0):
            pl = plaplace_exponents(d, 2.0, s=s)
            dn = doubly_nonlinear_exponents(d, 2.0, 1.0, s=s)
            worst_red = max(worst_red, abs(pl.alpha_s - dn.alpha_s), abs(pl.gamma_s - dn.gamma_s))
            if check_beta:
                worst_red = max(worst_red, abs(pl.beta_s - dn.beta_s))
    elapsed = time.perf_counter() - t0
    worst = max(worst_heat, worst_red)
    ok = worst <= IDENTITY_TOL and elapsed < 1.0
    _report(
        "02 heat-kernel reduction",
        ok,
        f"max |alpha_s - d/(2s)| = {worst_heat:.2e}, max m=1 reduction gap = {worst_red:.2e}, tol {IDENTITY_TOL:g}",
        elapsed,
        limit=1.0,
    )


def test_acceptance_03_lebesgue_index_sequences():
    """Closed form == recursion, monotone iff the seed coefficient is
    positive, and m_k / kappa^k reaches its limit by k = 60."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_closed = 0.0
    worst_limit = 0.0
    iff_failures = 0
    for trial in range(50):
        kappa = rng.uniform(1.5, 3.0)
        r = rng.uniform(1.0, 5.0)
        if trial % 5 == 4:
            # seed exactly at the floor with gamma > kappa: decreasing orbit
            gamma = kappa + rng.uniform(0.5, 1.0)
            m0 = r / kappa
        else:
            gamma = rng.uniform(0.5, 3.0)
            m0 = r / kappa + rng.uniform(0.1, 2.0)
        n = int(rng.integers(5, 31))
        it = iteration_sequence(kappa, r, gamma, m0, n)
        v = np.array(it.values)
        c = np.array(it.closed_form)
        worst_closed = max(worst_closed, float(np.max(np.abs(v - c) / np.maximum(1.0, np.abs(c)))))
        coeff = (kappa - 1.0) * m0 + (r / kappa) * (1.0 - gamma)
        if it.increasing != (coeff > 0.0):
            iff_failures += 1
        if it.increasing != bool(np.all(np.diff(v) > 0.0)):
            iff_failures += 1
        tail = iteration_sequence(kappa, r, gamma, m0, 60).values[-1] / kappa**60
        worst_limit = max(
            worst_limit, abs(tail - it.growth_limit) / max(1.0, abs(it.growth_limit))
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_closed <= SEQUENCE_REL_TOL
        and iff_failures == 0
        and worst_limit <= LIMIT_TOL
        and elapsed < 1.0
    )
    _report(
        "03 index-sequence laws",
        ok,
        f"50 draws: closed-form gap {worst_closed:.2e} (tol {SEQUENCE_REL_TOL:g}), "
        f"monotonicity-iff failures {iff_failures}, limit gap at k=60 {worst_limit:.2e} (tol {LIMIT_TOL:g})",
        elapsed,
        limit=1.0,
    )


def test_acceptance_04_resolvent_contraction_and_order():
    """Implicit Euler steps contract every sampled L^q norm and preserve
    order: zero violations over 900 random pairs."""
    t0 = time.perf_counter()
    rep = harness.contraction_suite(threads=2)
    elapsed = time.perf_counter() - t0
    m = rep.metrics
    ok = (
        rep.passed
        and m["pairs"] == 900
        and m["violations"] == 0
        and m["solver_errors"] == 0
        and elapsed < 60.0
    )
    _report(
        "04 resolvent contraction + order",
        ok,
        f"{m['pairs']} pairs, q in {{1, 1.5, 2, 4, inf}} + positive-part order, "
        f"violations {m['violations']}, worst margin {m['worst_margin']:.2e}",
        elapsed,
        limit=60.0,
    )


def test_acceptance_05_exponential_formula_convergence():
    """n-fold resolvent Cauchy gaps and implicit-Euler-vs-expm errors halve
    when n doubles (ratios in [1.5, 3])."""
    t0 = time.perf_counter()
    rep = harness.convergence_study()
    elapsed = time.perf_counter() - t0
    m = rep.metrics
    in_bracket = all(1.5 <= r <= 3.0 for r in m["gap_ratios"] + m["euler_ratios"])
    ok = rep.passed and in_bracket and elapsed < 30.0
    _report(
        "05 exponential-formula convergence",
        ok,
        f"gap ratios {[round(r, 2) for r in m['gap_ratios']]}, "
        f"euler ratios {[round(r, 2) for r in m['euler_ratios']]}, bracket [1.5, 3]",
        elapsed,
        limit=30.0,
    )


def test_acceptance_06_plaplace_sup_decay():
    """d=1, p=3 release: fitted sup-norm decay exponent within 15% of 1/4
    with a tight log-log fit."""
    t0 = time.perf_counter()
    rep = harness.run_decay_experiment(harness.load_config(harness.CONFIGS / "p3_d1.json"))
    elapsed = time.perf_counter() - t0
    m = rep.metrics
    ok = rep.passed and m["rel_err"] <= 0.15 and m["r2"] >= 0.98 and elapsed < 600.0
    _report(
        "06 p-Laplace sup-norm decay",
        ok,
        f"alpha_hat {m['alpha_hat']:.4f} vs 0.25, rel err {m['rel_err']:.2%} (tol 15%), "
        f"r2 {m['r2']:.6f} (min 0.98)",
        elapsed,
        limit=600.0,
    )


def test_acceptance_07_source_solution_tracking():
    """Evolving the explicit self-similar profile from t=1 to t=2 stays
    within 5% relative L^1, improving under refinement (ratio >= 1.3)."""
    t0 = time.perf_counter()
    rep = harness.barenblatt_comparison(harness.load_config(harness.CONFIGS / "barenblatt.json"))
    elapsed = time.perf_counter() - t0
    m = rep.metrics
    ok = (
        rep.passed
        and m["rel_l1_error"] <= 0.05
        and m["refinement_ratio"] >= 1.3
        and elapsed < 300.0
    )
    _report(
        "07 source-solution tracking",
        ok,
        f"rel L1 error {m['rel_l1_error']:.2e} (max 5%), refinement ratio "
        f"{m['refinement_ratio']:.2f} (min 1.3)",
        elapsed,
        limit=300.0,
    )


def test_acceptance_08_conservation_and_monotone_norms():
    """Neumann flows conserve mass to 1e-8 per unit time and every recorded
    norm is non-increasing (slack 1e-9) without forcing."""
    t0 = time.perf_counter()
    rep = harness.conservation_suite()
    elapsed = time.perf_counter() - t0
    m = rep.metrics
    ok = (
        rep.passed
        and m["worst_neumann_drift_per_time"] <= 1e-8
        and m["worst_norm_rise"] <= 1e-9
    )
    _report(
        "08 conservation + monotone norms",
        ok,
        f"worst Neumann mass drift {m['worst_neumann_drift_per_time']:.2e}/time (max 1e-8), "
        f"worst norm rise {m['worst_norm_rise']:.2e} (max 1e-9)",
        elapsed,
    )


def test_acceptance_09_functional_inequality_sampling():
    """Sampled sup of the interpolation-functional ratio is finite, has
    positive denominators, and is grid-stable within a factor 2."""
    t0 = time.perf_counter()
    rep = harness.gn_suite()
    elapsed = time.perf_counter() - t0
    m = rep.metrics
    ok = (
        rep.passed
        and m["theta0"] == pytest.approx(3.0 / 7.0, rel=1e-12)
        and m["bad_denominators"] == 0
        and m["nonfinite_ratios"] == 0
        and m["stability_factor"] <= 2.0
    )
    _report(
        "09 functional-inequality sampling",
        ok,
        f"theta0 {m['theta0']:.4f}, sup ratio {m['sup_ratio']:.3f} -> {m['sup_ratio_refined']:.3f} "
        f"on 64 -> 128 nodes, stability factor {m['stability_factor']:.3f} (max 2)",
        elapsed,
    )


def test_acceptance_10_porous_medium_decay():
    """Porous-medium-type flow (power nonlinearity m=2 inside the
    divergence): fitted decay within 20% of the predicted 1/3."""
    t0 = time.perf_counter()
    rep = harness.run_decay_experiment(harness.load_config(harness.CONFIGS / "pme_m2.json"))
    elapsed = time.perf_counter() - t0
    m = rep.metrics
    ok = (
        rep.passed
        and m["alpha_predicted"] == pytest.approx(1.0 / 3.0, rel=1e-12)
        and m["rel_err"] <= 0.20
        and elapsed < 600.0
    )
    _report(
        "10 porous-medium decay",
        ok,
        f"alpha_hat {m['alpha_hat']:.4f} vs {m['alpha_predicted']:.4f}, "
        f"rel err {m['rel_err']:.2%} (tol 20%), r2 {m['r2']:.6f}",
        elapsed,
        limit=600.0,
    )
