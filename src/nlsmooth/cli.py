"""Command line interface.

Subcommands: exponents (closed-form smoothing exponents), sequence (the
Lebesgue-scale iterations), simulate (evolve a configured flow, write the
trajectory CSV), verify <suite> (run one verification suite or 'all').

All results go to stdout as JSON with sorted keys, so identical invocations
produce byte-identical output; diagnostics go to stderr. Exit codes:
0 success, 1 verification failure, 2 usage or invalid parameters. Infinite
values are encoded as the strings "inf" / "-inf" in both configs and output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import harness
from .exponents import ConditionError, iteration_sequence, moser_q_sequence
from .harness import exponents_from_query
from .measure import lq_norm
from .semigroup import trajectory_to_csv


def _encode(obj):
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def _decode(obj):
    if isinstance(obj, dict):
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    if obj == "inf":
        return float("inf")
    if obj == "-inf":
        return float("-inf")
    return obj


def _emit(obj):
    sys.stdout.write(json.dumps(_encode(obj), sort_keys=True) + "\n")


def _load_config(path):
    with open(path) as f:
        return _decode(json.load(f))


def _star_jsonable(star):
    if star is None:
        return None
    return {
        "alpha_star": star.alpha_star,
        "beta_star": star.beta_star,
        "gamma_star": star.gamma_star,
        "m0": star.m0,
        "pivot": star.pivot,
        "valid": star.valid,
    }


def _cmd_exponents(args):
    query = {
        "theorem": args.theorem,
        "d": args.d,
        "p": args.p,
        "s": args.s,
        "m0": args.m0,
        "m": args.m,
        "q0": args.q0,
        "theta": args.theta,
        "sfrac": args.sfrac,
        "bc": args.bc,
        "kappa": args.kappa,
    }
    query = {k: v for k, v in query.items() if v is not None}
    if args.theorem == "barenblatt":
        query.pop("s", None)
    if args.theorem != "plaplace":
        query.pop("bc", None)
    if args.theorem != "moser":
        query.pop("kappa", None)
    inputs = dict(query)
    try:
        out = exponents_from_query(query)
    except ConditionError as exc:
        _emit(
            {
                "inputs": inputs,
                "case": None,
                "valid": False,
                "conditions": exc.conditions,
                "error": str(exc),
            }
        )
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(out, float):
        _emit(
            {
                "inputs": inputs,
                "case": "barenblatt",
                "valid": True,
                "alpha": out,
                "beta": None,
                "gamma": None,
                "conditions": {},
            }
        )
        return 0
    _emit(
        {
            "inputs": inputs,
            "case": out.case,
            "valid": True,
            "alpha": out.alpha_s,
            "beta": out.beta_s,
            "gamma": out.gamma_s,
            "alpha_s": out.alpha_s,
            "beta_s": out.beta_s,
            "gamma_s": out.gamma_s,
            "s": out.s,
            "theta_s": out.theta_s,
            "star": _star_jsonable(out.star),
            "conditions": dict(out.conditions),
        }
    )
    return 0


def _cmd_sequence(args):
    try:
        if args.kind == "iteration":
            missing = [k for k in ("kappa", "r", "gamma", "m0") if getattr(args, k) is None]
            if missing:
                print(f"error: sequence --kind iteration needs --{' --'.join(missing)}", file=sys.stderr)
                return 2
            out = iteration_sequence(args.kappa, args.r, args.gamma, args.m0, args.n)
        else:
            missing = [k for k in ("kappa", "m", "p", "q0") if getattr(args, k) is None]
            if missing:
                print(f"error: sequence --kind moser needs --{' --'.join(missing)}", file=sys.stderr)
                return 2
            out = moser_q_sequence(args.kappa, args.m, args.p, args.q0, args.n)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(
        {
            "inputs": {"kind": args.kind, "kappa": args.kappa, "r": args.r, "gamma": args.gamma,
                       "m0": args.m0, "m": args.m, "p": args.p, "q0": args.q0, "n": args.n},
            "values": list(out.values),
            "closed_form": list(out.closed_form),
            "increasing": out.increasing,
            "growth_limit": out.growth_limit,
        }
    )
    return 0


def _cmd_simulate(args):
    if args.config is None or args.out is None:
        print("error: simulate needs --config and --out", file=sys.stderr)
        return 2
    config = _load_config(args.config)
    spec = harness.spec_from_config(config)
    tg = harness.time_grid_from_config(config)
    exp = config.get("experiment", {})
    recipe = exp.get("initial", {"kind": "bump"})
    seed = args.seed if args.seed is not None else exp.get("seed", 0)
    u0 = harness.initial_condition(recipe, spec.grid, seed=seed)
    from .semigroup import evolve

    traj = evolve(spec, u0, tg)
    trajectory_to_csv(traj, args.out)
    _emit(
        {
            "config_hash": harness.config_hash(config),
            "t_end": tg.t_end,
            "n_steps": tg.n_steps,
            "out": str(args.out),
            "final_norms": {
                "l1": lq_norm(traj.final, 1),
                "l2": lq_norm(traj.final, 2),
                "linf": lq_norm(traj.final, float("inf")),
            },
        }
    )
    return 0


def _cmd_verify(args):
    suite = args.suite
    config = _load_config(args.config) if args.config else None
    names = list(harness.SUITES) if suite == "all" else [suite]
    if suite != "all" and suite not in harness.SUITES:
        print(f"error: unknown suite {suite!r}; choose from {list(harness.SUITES) + ['all']}", file=sys.stderr)
        return 2
    reports = []
    for name in names:
        print(f"running suite: {name}", file=sys.stderr)
        report = harness.run_suite(name, config=config, seed=args.seed, tol=args.tol)
        reports.append(report)
    all_pass = all(r.passed for r in reports)
    if len(reports) == 1:
        _emit(reports[0].to_jsonable())
    else:
        _emit({"pass": all_pass, "suites": [r.to_jsonable() for r in reports]})
    if args.out:
        with open(args.out, "w") as f:
            payload = reports[0].to_jsonable() if len(reports) == 1 else {
                "pass": all_pass,
                "suites": [r.to_jsonable() for r in reports],
            }
            json.dump(_encode(payload), f, sort_keys=True)
            f.write("\n")
    return 0 if all_pass else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlsmooth",
        description="Smoothing exponents and verified decay for nonlinear semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output file path")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; ignored")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")

    pe = sub.add_parser("exponents", help="closed-form smoothing exponents")
    pe.add_argument("--theorem", required=True,
                    choices=["plaplace", "doubly-nonlinear", "dtn", "fractional", "moser", "barenblatt"])
    pe.add_argument("--d", type=int)
    pe.add_argument("--p", type=float)
    pe.add_argument("--s", type=float)
    pe.add_argument("--m0", type=float)
    pe.add_argument("--m", type=float)
    pe.add_argument("--q0", type=float)
    pe.add_argument("--theta", type=float)
    pe.add_argument("--sfrac", type=float)
    pe.add_argument("--bc", type=str, choices=["dirichlet", "neumann", "robin"])
    pe.add_argument("--kappa", type=float)
    add_common(pe)
    pe.set_defaults(func=_cmd_exponents)

    ps = sub.add_parser("sequence", help="Lebesgue-scale iteration orbits")
    ps.add_argument("--kind", required=True, choices=["iteration", "moser"])
    ps.add_argument("--kappa", type=float)
    ps.add_argument("--r", type=float)
    ps.add_argument("--gamma", type=float)
    ps.add_argument("--m0", type=float)
    ps.add_argument("--m", type=float)
    ps.add_argument("--p", type=float)
    ps.add_argument("--q0", type=float)
    ps.add_argument("--n", type=int, required=True)
    add_common(ps)
    ps.set_defaults(func=_cmd_sequence)

    pm = sub.add_parser("simulate", help="evolve a configured flow, write trajectory CSV")
    add_common(pm)
    pm.set_defaults(func=_cmd_simulate)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", type=str, help=f"one of {list(harness.SUITES) + ['all']}")
    add_common(pv)
    pv.set_defaults(func=_cmd_verify)

    pa = sub.add_parser("all", help="run every verification suite")
    add_common(pa)
    pa.set_defaults(func=_cmd_verify, suite="all")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
