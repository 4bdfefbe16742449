"""Command line interface.

Subcommands: exponents (closed-form smoothing exponents), sequence (the
Lebesgue-scale iterations), simulate (evolve a configured flow, write the
trajectory CSV) and verify <suite> (run one verification suite or 'all').
Each registers only the flags it reads, and a theorem, sequence kind or
suite refuses the inputs it does not read, naming them, before any work
starts; 'verify all' gives each suite the inputs it reads. A config suite
given no --config runs every file of harness.CONFIGS whose experiment
section it reads, so a new claim is one more JSON file there. Every
planned config passes its suite's complete check (harness.suite_inputs)
before the first flow runs, and a refusal names the file.

All results go to stdout as JSON with sorted keys, so identical invocations
produce byte-identical output; diagnostics go to stderr. Exit codes:
0 success, 1 verification failure or a solver that did not converge (an
error line on stderr), 2 usage or invalid parameters. Infinite values are
encoded as the strings "inf" / "-inf" in both configs and output.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from . import harness
from .exponents import ConditionError, iteration_sequence, moser_q_sequence
from .harness import exponents_from_query
from .resolvent import NonConvergenceError
from .semigroup import RECORDED_NORMS, evolve, trajectory_to_csv


def _arguments(func):
    """The parameter names of func, in order: the flags it reads."""
    return tuple(inspect.signature(func).parameters)


_THEOREM_FLAGS = tuple(dict.fromkeys(flag for theorem in harness._THEOREMS.values() for flag in _arguments(theorem)))
# kind -> (orbit, the flags it reads before n)
_SEQUENCES = {
    kind: (orbit, tuple(flag for flag in _arguments(orbit) if flag != "n"))
    for kind, orbit in (("iteration", iteration_sequence), ("moser", moser_q_sequence))
}
_SEQUENCE_FLAGS = tuple(dict.fromkeys(flag for _, flags in _SEQUENCES.values() for flag in flags))
# argparse keywords of the exponents and sequence flags; the rest are floats
_FLAG_KWARGS = {"d": {"type": int}, "n": {"type": int, "required": True}}


def _emit(obj):
    line = json.dumps(harness._jsonable(obj), sort_keys=True) + "\n"
    sys.stdout.write(line)
    return line


def _check_out(path):
    """Refuse an --out that is a directory or lies in no directory, before any work starts."""
    out = Path(path)
    if out.is_dir():
        raise ValueError(f"--out {path!r} is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"--out {path!r}: directory {str(out.parent)!r} does not exist")


def _check_seed(seed):
    """Refuse a --seed that no random draw takes, before any work starts."""
    if seed is not None:  # it stands for experiment.seed, so it passes the same rule
        harness._check("experiment.seed", seed, "--seed")


def _star_jsonable(star):
    return None if star is None else {k: v for k, v in dataclasses.asdict(star).items() if k != "conditions"}


def _cmd_exponents(args):
    query = {k: getattr(args, k) for k in ("theorem",) + _THEOREM_FLAGS if getattr(args, k) is not None}
    try:
        out = exponents_from_query(query)
    except ConditionError as exc:
        _emit(
            {
                "inputs": query,
                "case": None,
                "valid": False,
                "conditions": exc.conditions,
                "error": str(exc),
            }
        )
        return 2
    if isinstance(out, float):
        payload = {"case": "barenblatt", "alpha": out, "beta": None, "gamma": None, "conditions": {}}
    else:
        payload = {
            "case": out.case,
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
    _emit({"inputs": query, "valid": True, **payload})
    return 0


def _cmd_sequence(args):
    orbit, reads = _SEQUENCES[args.kind]
    given = {k: getattr(args, k) for k in _SEQUENCE_FLAGS}
    for problem, flags in (("does not take", [k for k in _SEQUENCE_FLAGS if k not in reads and given[k] is not None]),
                           ("needs", [k for k in reads if given[k] is None])):
        if flags:
            print(f"error: sequence --kind {args.kind} {problem} --{' --'.join(flags)}", file=sys.stderr)
            return 2
    out = orbit(*(given[k] for k in reads), args.n)
    _emit(
        {
            "inputs": {"kind": args.kind, **given, "n": args.n},
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
    _check_out(args.out)
    _check_seed(args.seed)
    config = harness.load_config(args.config)
    spec, tg, u0, _, _ = harness.decay_setup(config, seed=args.seed)
    traj = evolve(spec, u0, tg)
    trajectory_to_csv(traj, args.out)
    _emit(
        {
            "config_hash": harness.config_hash(config),
            "t_end": tg.t_end,
            "n_steps": len(traj.times) - 1,
            "out": str(args.out),
            "final_norms": {name.removeprefix("norm_"): getattr(traj, name)[-1] for name in RECORDED_NORMS.values()},
        }
    )
    return 0


def _routes(names, path, **given):
    """{suite: harness.suite_inputs(suite, **given)} for each suite in names; a
    config value that a suite refuses is refused naming the file at path."""
    try:
        return {name: harness.suite_inputs(name, **given) for name in names}
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_verify(args):
    if args.suite != "all" and args.suite not in harness.SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {list(harness.SUITES) + ['all']}")
    if args.out:
        _check_out(args.out)
    if args.tol is not None:  # it stands for experiment.tolerance, so it passes the same rule
        harness._check("experiment.tolerance", args.tol, "--tol")
    _check_seed(args.seed)
    given = {"config": harness.load_config(args.config) if args.config else None, "seed": args.seed, "tol": args.tol}
    routed = _routes([name for name in harness.SUITES if args.suite in ("all", name)], args.config, **given)
    for key in (k for k, v in given.items() if v is not None):  # an input that no suite reads is refused
        if not any(key in inputs for inputs, _ in routed.values()):
            reasons = "; ".join(refusals[key] for _, refusals in routed.values())
            raise ValueError(f"no suite reads the {key}: {reasons}")
    # a config suite handed no config runs each shipped file that it reads, in file-name order
    unset = [name for name in routed if name in harness.CONFIG_SUITES and "config" not in routed[name][0]]
    runs = {name: [] if name in unset else [inputs] for name, (inputs, _) in routed.items()}  # the inputs of each run
    for path in sorted(harness.CONFIGS.glob("*.json")) if unset else ():
        config = harness.load_config(path)
        routes = _routes(harness.SUITES, path, config=config)
        name = next((name for name, (inputs, _) in routes.items() if inputs), None)
        if name is None:
            reasons = "; ".join(refusals["config"] for _, refusals in routes.values())
            raise ValueError(f"no suite reads {path}: {reasons}")
        if name in unset:
            runs[name].append(dict(routed[name][0], config=config))
    for name in (name for name in unset if not runs[name]):
        raise ValueError(f"{harness.CONFIGS} holds no config for suite {name!r}")
    reports = []
    for name, run in ((name, run) for name, each in runs.items() for run in each):  # every config is checked
        print(f"running suite: {name}", file=sys.stderr)
        reports.append(harness.run_suite(name, **run))
    all_pass = all(r.passed for r in reports)
    suites = [r.to_jsonable() for r in reports]
    payload = suites[0] if len(suites) == 1 else {"pass": all_pass, "suites": suites}
    line = _emit(payload)
    if args.out:
        Path(args.out).write_text(line)
    return 0 if all_pass else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlsmooth",
        description="Smoothing exponents and verified decay for nonlinear semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("exponents", help="closed-form smoothing exponents")
    pe.add_argument("--theorem", required=True, choices=list(harness._THEOREMS))
    for flag in _THEOREM_FLAGS:
        pe.add_argument(f"--{flag}", **_FLAG_KWARGS.get(flag, {"type": float}))
    pe.set_defaults(func=_cmd_exponents)

    ps = sub.add_parser("sequence", help="Lebesgue-scale iteration orbits")
    ps.add_argument("--kind", required=True, choices=list(_SEQUENCES))
    for flag in _SEQUENCE_FLAGS + ("n",):
        ps.add_argument(f"--{flag}", **_FLAG_KWARGS.get(flag, {"type": float}))
    ps.set_defaults(func=_cmd_sequence)

    pm = sub.add_parser("simulate", help="evolve a configured flow, write trajectory CSV")
    pm.add_argument("--config", help="JSON config file")
    pm.add_argument("--out", help="trajectory CSV path")
    pm.add_argument("--seed", type=int, help="seed of a random initial state; default experiment.seed")
    pm.set_defaults(func=_cmd_simulate)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", type=str, help=f"one of {list(harness.SUITES) + ['all']}")
    pv.add_argument("--config", help="JSON config file for decay or barenblatt (default: every shipped one it reads)")
    pv.add_argument("--out", help="also write the report to this path")
    pv.add_argument("--seed", type=int, help="seed of the property suites")
    pv.add_argument("--tol", type=float, help="decay tolerance of the decay suite")
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
