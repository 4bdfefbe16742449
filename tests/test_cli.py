"""Command line interface: JSON schemas, exit codes, determinism."""

import functools
import json
import math
import os
import re
import subprocess
import sys

import pytest

from pathlib import Path

from nlsmooth import harness
from nlsmooth.cli import main
from nlsmooth.harness import _jsonable, decode, load_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exponents_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, ["exponents", "--theorem", "plaplace", "--d", "3", "--p", "2", "--s", "1", "--m0", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["alpha"] == pytest.approx(1.5, rel=1e-12)
    assert payload["alpha_s"] == payload["alpha"]
    assert payload["beta_s"] == pytest.approx(5.5, rel=1e-12)
    assert payload["gamma_s"] == pytest.approx(1.0, rel=1e-12)
    assert payload["s"] == 1.0
    assert payload["star"]["pivot"] == pytest.approx(6.0, rel=1e-12)
    assert all(payload["conditions"].values())
    assert payload["inputs"]["theorem"] == "plaplace"


def test_exponents_admits_s_at_a_pivot_that_rounds_low(capsys):
    # the pivot 3 of p = 1.2 in d = 2 evaluates to 2.9999999999999996
    code, out, _ = run_cli(capsys, ["exponents", "--theorem", "plaplace", "--d", "2", "--p", "1.2", "--s", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True and payload["conditions"]["s_in_range"] is True
    assert "valid" not in payload["star"]


def test_exponents_barenblatt(capsys):
    code, out, _ = run_cli(capsys, ["exponents", "--theorem", "barenblatt", "--d", "1", "--p", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "barenblatt"
    assert payload["alpha"] == pytest.approx(0.25, rel=1e-12)
    assert payload["beta"] is None
    assert payload["valid"] is True


def test_exponents_invalid_regime_reports_conditions(capsys):
    # p below the critical threshold 2d/(d+2): no smoothing, the formulas refuse
    code, out, _ = run_cli(
        capsys, ["exponents", "--theorem", "plaplace", "--d", "3", "--p", "1.15", "--s", "1", "--m0", "4"]
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["error"]
    assert payload["conditions"]
    assert not all(payload["conditions"].values())

    # without an explicit starting norm the same regime fails earlier
    code2, out2, _ = run_cli(
        capsys, ["exponents", "--theorem", "plaplace", "--d", "3", "--p", "1.15", "--s", "1"]
    )
    assert code2 == 2
    assert json.loads(out2)["valid"] is False


def test_exponents_refuses_a_theta_whose_kappa_rounds_to_one(capsys):
    code, out, err = run_cli(capsys, ["exponents", "--theorem", "doubly-nonlinear", "--d", "2", "--p", "2",
                                      "--m", "2", "--theta", "1e-300"])
    assert code == 2 and err == ""
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["conditions"] == {"theta_in_range": False}
    assert "theta" in payload["error"] and "kappa" not in payload["error"]


def test_exponents_argparse_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["exponents"])  # --theorem is required
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "theorem, extra, refused",
    [
        ("dtn", ["--sfrac", "0.5"], "sfrac"),
        ("fractional", ["--sfrac", "0.5", "--kappa", "2"], "kappa"),
        ("plaplace", ["--kappa", "2"], "kappa"),
        ("doubly-nonlinear", ["--m", "2", "--kappa", "2"], "kappa"),
        ("barenblatt", ["--s", "1"], "s"),
        ("plaplace", ["--m", "2"], "m"),
    ],
)
def test_exponents_refuses_a_flag_the_theorem_does_not_take(capsys, theorem, extra, refused):
    code, out, err = run_cli(capsys, ["exponents", "--theorem", theorem, "--d", "3", "--p", "2.5", *extra])
    assert code == 2 and out == ""
    assert f"argument '{refused}'" in err and "Traceback" not in err


def test_sequence_iteration_worked_example(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sequence", "--kind", "iteration", "--kappa", "2", "--r", "1", "--gamma", "1", "--m0", "1", "--n", "5"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    assert payload["closed_form"] == payload["values"]
    assert payload["increasing"] is True
    assert payload["growth_limit"] == pytest.approx(1.0, rel=1e-12)


def test_sequence_moser(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sequence", "--kind", "moser", "--kappa", "2", "--m", "1", "--p", "2", "--q0", "1", "--n", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [1.0, 2.0, 4.0, 8.0]


def test_sequence_missing_args(capsys):
    code, _, err = run_cli(capsys, ["sequence", "--kind", "iteration", "--n", "5"])
    assert code == 2
    assert "needs" in err


def test_sequence_invalid_kappa(capsys):
    code, _, err = run_cli(
        capsys,
        ["sequence", "--kind", "iteration", "--kappa", "1", "--r", "1", "--gamma", "1", "--m0", "1", "--n", "3"],
    )
    assert code == 2
    assert "error" in err


def test_encode_decode_round_trip():
    obj = {"a": float("inf"), "b": [float("-inf"), 1.0], "c": "text", "d": {"e": 2}}
    enc = _jsonable(obj)
    assert enc["a"] == "inf"
    assert enc["b"][0] == "-inf"
    json.dumps(enc)
    assert decode(enc) == obj


def _smoke_config():
    return {
        "grid": {"bounds": [[-8.0, 8.0]], "shape": [201]},
        "operator": {"p": 3.0, "bc": "dirichlet", "eps_reg": 1e-8},
        "phi": {"kind": "identity"},
        "perturbation": {"kind": "none"},
        "time": {"t_end": 4.0, "n_steps": 160},
        "experiment": {
            "name": "decay-smoke",
            "initial": {"kind": "bump", "center": 0.0, "width": 0.5, "normalize": "l1"},
            "window": [0.25, 4.0],
            "predicted": {"theorem": "plaplace", "d": 1, "p": 3.0, "s": 1.0},
            "tolerance": 0.5,
            "r2_min": 0.5,
        },
    }


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    cfg = _smoke_config()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_jsonable(cfg)))
    csv_path = tmp_path / "trajectory.csv"
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(cfg_path), "--out", str(csv_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["config_hash"] == harness.config_hash(cfg)
    assert payload["t_end"] == 4.0
    assert payload["n_steps"] == 160
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,norm_l1,norm_l2,norm_linf,mass"
    assert len(lines) == 162  # header + initial state + one row per step
    for key in ("l1", "l2", "linf"):
        assert payload["final_norms"][key] > 0.0
    assert payload["final_norms"]["l1"] <= 1.0 + 1e-9  # contraction from unit mass


def _controlled(cfg, **time):
    """cfg on the step controller from t_first = 1e-3 at tol = 1e-3, over its t_end; time overrides."""
    cfg["time"] = {"t_end": cfg["time"]["t_end"], "t_first": 1e-3, "tol": 1e-3, **time}


def _misspell(section, old, new):
    section[new] = section.pop(old)


@pytest.mark.parametrize(
    "edit, extra, message",
    [
        (lambda cfg: load_config(CONFIG_DIR / "barenblatt.json"), [], "config lacks experiment.initial"),
        (lambda cfg: load_config(CONFIG_DIR / "p3_d1.json"), ["--seed", "5"], "--seed needs a random experiment.initial"),
        (lambda cfg: _misspell(cfg["experiment"], "initial", "intial"), [], "config has unknown key experiment.intial"),
        (lambda cfg: _misspell(cfg["experiment"]["initial"], "width", "widht"), [],
         "config has unknown key experiment.initial.widht"),
        (lambda cfg: cfg["experiment"].update(norm=3), [], "config has unknown key experiment.norm"),
        (lambda cfg: cfg["experiment"].update(window=["a"]), [],
         "config experiment.window must be two numbers 0 < lo < hi, got ['a']"),
        (lambda cfg: cfg["experiment"].update(predicted="plaplace"), [],
         "config experiment.predicted must be {'value': x} or an exponent query, got 'plaplace'"),
        (lambda cfg: cfg["experiment"].update(seed=5), [],
         "config experiment.seed is read only by a random experiment.initial; this one is 'bump'"),
    ],
)
def test_simulate_checks_the_experiment_section(tmp_path, monkeypatch, capsys, edit, extra, message):
    monkeypatch.setattr("nlsmooth.cli.evolve", lambda *args, **kwargs: pytest.fail("the flow ran"))
    cfg = _smoke_config()
    cfg = edit(cfg) or cfg
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_jsonable(cfg)))
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv")] + extra)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


def test_simulate_seed_draws_a_random_initial_state(tmp_path, capsys):
    cfg = _smoke_config()
    cfg["experiment"]["initial"] = {"kind": "random", "n_modes": 2}
    cfg["time"] = {"t_end": 0.1, "n_steps": 4}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_jsonable(cfg)))
    norms = []
    for seed in ("5", "5", "6"):
        code, out, _ = run_cli(capsys, ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv"),
                                        "--seed", seed])
        assert code == 0
        norms.append(json.loads(out)["final_norms"]["l1"])
    assert norms[0] == norms[1] != norms[2]


def test_simulate_evolves_a_perturbed_flow_that_verify_decay_refuses(tmp_path, capsys):
    # simulate reads a perturbation f; the decay claim assumes f = 0
    cfg = _smoke_config()
    cfg["perturbation"] = {"kind": "tanh", "coeff": 0.3}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_jsonable(cfg)))
    csv_path = tmp_path / "trajectory.csv"
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(cfg_path), "--out", str(csv_path)])
    assert code == 0 and json.loads(out)["config_hash"] == harness.config_hash(cfg)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,norm_l1,norm_l2,norm_linf,mass"
    assert len(lines) == 1 + 1 + cfg["time"]["n_steps"]  # header + initial state + one row per step
    code, out, err = run_cli(capsys, ["verify", "decay", "--config", str(cfg_path)])
    assert code == 2 and out == ""
    assert "perturbation.kind" in err and "running suite:" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cfg: cfg.update(perturbation={"kind": "tanh", "coeff": 0.3}), "perturbation.kind"),
        (lambda cfg: cfg["experiment"].update(norm=3), "config has unknown key experiment.norm"),
        (lambda cfg: cfg["experiment"].update(norm="L2"), "config has unknown key experiment.norm"),
        (lambda cfg: cfg["experiment"]["initial"].update(normalize="L1"),
         "config experiment.initial.normalize must be 'l1', got 'L1'"),
        (lambda cfg: cfg["experiment"].update(window=[4.0, 0.25]),
         "config experiment.window must be two numbers 0 < lo < hi, got [4.0, 0.25]"),
        (lambda cfg: cfg["experiment"].update(tolerance="0.1"),
         "config experiment.tolerance must be a number, got '0.1'"),
        (lambda cfg: cfg["experiment"].update(seed=0),
         "config experiment.seed is read only by a random experiment.initial; this one is 'bump'"),
    ],
)
@pytest.mark.parametrize("shipped", ["p3_d1.json", "pme_m2.json"])
def test_verify_decay_refuses_a_bad_value_before_any_step(tmp_path, monkeypatch, capsys, shipped, edit, message):
    # values, unlike keys, are read by the suite itself, so the flow is what must not run;
    # both shipped decay claims (identity and power phi) are checked the same way
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: pytest.fail("the flow ran"))
    cfg = load_config(CONFIG_DIR / shipped)
    edit(cfg)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_jsonable(cfg)))
    code, out, err = run_cli(capsys, ["verify", "decay", "--config", str(cfg_path)])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["simulate", "--out", "unused.csv"], ["verify", "decay"]])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cfg: cfg["grid"].update(shape=[201.5]), "config grid.shape must be integers, got [201.5]"),
        (lambda cfg: cfg["grid"].update(shape=["201"]), "config grid.shape must be integers, got ['201']"),
        (lambda cfg: cfg["operator"].update(p="3"), "config operator.p must be a number, got '3'"),
        (lambda cfg: cfg.update(phi={"kind": "power", "m": "2"}), "config phi.m must be a number, got '2'"),
        (lambda cfg: cfg["experiment"]["initial"].update(width="0.5"),
         "config experiment.initial.width must be a number, got '0.5'"),
        (lambda cfg: cfg["experiment"]["predicted"].update(pp=3),
         "theorem 'plaplace' does not take argument 'experiment.predicted.pp'"),
        (lambda cfg: cfg["experiment"]["predicted"].pop("p"), "theorem 'plaplace' needs argument 'experiment.predicted.p'"),
        (lambda cfg: cfg["experiment"]["predicted"].pop("theorem"), "unknown experiment.predicted.theorem None"),
        (lambda cfg: cfg["experiment"]["predicted"].update(p="3"), "experiment.predicted.p must be a number, got '3'"),
        (lambda cfg: cfg["experiment"].update(predicted={"value": "0.25"}),
         "config experiment.predicted.value must be a number, got '0.25'"),
        (lambda cfg: cfg["experiment"].update(predicted={"value": True}),
         "config experiment.predicted.value must be a number, got True"),
        (lambda cfg: cfg["experiment"].update(predicted={"value": 0.25, "junk": 1}),
         "config has unknown key experiment.predicted.junk"),
        (lambda cfg: cfg["grid"].update(shape=201), "config grid.shape must be a list of integers, one per axis, got 201"),
        (lambda cfg: cfg["grid"].update(shape=[[201]]),
         "config grid.shape must be a list of integers, one per axis, got [[201]]"),
        (lambda cfg: cfg["grid"].update(bounds=[-8.0, 8.0]),
         "config grid.bounds must be a list of [lo, hi] pairs, one per axis, got [-8.0, 8.0]"),
        (lambda cfg: cfg["grid"].update(bounds=[[-8.0, 8.0], [0.0, 1.0]]),
         "config grid.bounds must be a list of [lo, hi] pairs, one per axis, got [[-8.0, 8.0], [0.0, 1.0]]"),
    ],
)
def test_a_config_value_of_the_wrong_type_exits_2_naming_the_key(tmp_path, monkeypatch, capsys, argv, edit, message):
    monkeypatch.chdir(tmp_path)
    for module in ("nlsmooth.cli", "nlsmooth.harness"):
        monkeypatch.setattr(f"{module}.evolve", lambda *args, **kwargs: pytest.fail("the flow ran"))
    cfg = _smoke_config()
    edit(cfg)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_jsonable(cfg)))
    code, out, err = run_cli(capsys, argv + ["--config", str(cfg_path)])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "unused.csv").exists()


def test_simulate_missing_args(capsys):
    code, _, err = run_cli(capsys, ["simulate"])
    assert code == 2
    assert "needs" in err


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--config", "/nonexistent.json", "--out", "/tmp/x.csv"])
    assert code == 2
    assert "error" in err


def test_verify_unknown_suite(capsys):
    for suite in ("spectral", "pme"):  # pme_m2.json is a decay config, run by verify decay
        code, _, err = run_cli(capsys, ["verify", suite])
        assert code == 2
        assert f"unknown suite {suite!r}" in err


def _record_runs(monkeypatch):
    """The (suite, inputs) of each run_suite call, in order; every run passes."""
    received = []

    def fake_run_suite(name, **inputs):
        received.append((name, inputs))
        return harness.Report(name=name, passed=True, metrics={}, config_hash="")

    monkeypatch.setattr(harness, "run_suite", fake_run_suite)
    return received


def test_verify_all_routes_a_config_to_the_suite_it_describes(monkeypatch, capsys):
    received = _record_runs(monkeypatch)
    code, out, _ = run_cli(capsys, ["verify", "all", "--config", str(CONFIG_DIR / "p3_d1.json")])
    assert code == 0 and json.loads(out)["pass"] is True
    # the config runs once, in place of the shipped decay files; the other suites run as without it
    assert received == [
        ("decay", {"config": load_config(CONFIG_DIR / "p3_d1.json")}),
        ("barenblatt", {"config": load_config(CONFIG_DIR / "barenblatt.json")}),
    ] + [(name, {}) for name in ("contraction", "order", "gn", "conservation", "convergence")]


@pytest.mark.parametrize("suite", ["contraction", "order", "gn", "conservation", "convergence"])
def test_verify_refuses_a_config_for_a_suite_that_takes_none(monkeypatch, capsys, suite):
    def no_work(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(harness._SUITE_REGISTRY, suite, (no_work, (), None))
    code, out, err = run_cli(capsys, ["verify", suite, "--config", str(CONFIG_DIR / "barenblatt.json")])
    assert code == 2 and out == ""
    assert f"suite {suite!r} takes no config" in err and "Traceback" not in err


def test_verify_single_suite_names_the_missing_config_key(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(harness, "barenblatt_comparison", no_work)
    code, out, err = run_cli(capsys, ["verify", "barenblatt", "--config", str(CONFIG_DIR / "p3_d1.json")])
    assert code == 2 and out == ""
    assert "experiment.t0" in err and "Traceback" not in err


def run_cli_or_usage_error(capsys, argv):
    """run_cli that also returns the exit code of an argparse usage error."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _suites_must_not_run(monkeypatch):
    # each suite keeps its signature, which decides what it reads, and its config check, but fails if it runs
    for name, (suite, keys, check) in list(harness._SUITE_REGISTRY.items()):
        @functools.wraps(suite)
        def no_work(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(harness._SUITE_REGISTRY, name, (no_work, keys, check))


_ITERATION = ["sequence", "--kind", "iteration", "--kappa", "2", "--r", "1", "--gamma", "1", "--m0", "1", "--n", "5"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["exponents", "--theorem", "barenblatt", "--d", "1", "--p", "3", "--seed", "1"], "--seed"),
        (_ITERATION + ["--m", "7"], "--m"),
        (["simulate", "--config", str(CONFIG_DIR / "p3_d1.json"), "--out", "unused.csv", "--tol", "5"], "--tol"),
        (["verify", "order", "--tol", "0.5"], "tol"),
        (["verify", "decay", "--seed", "5"], "seed"),
        (["verify", "barenblatt", "--tol", "0.1"], "tol"),
        (["verify", "contraction", "--threads", "2"], "--threads"),
        (["all"], "'all'"),
        (["exponents", "--theorem", "plaplace", "--d", "1", "--p", "3", "--bc", "neumann"], "--bc"),
        # a path that cannot be read or written is refused before any step
        (["simulate", "--config", str(CONFIG_DIR), "--out", "unused.csv"], "configs"),
        (["verify", "decay", "--config", str(CONFIG_DIR)], "configs"),
        (["simulate", "--config", str(CONFIG_DIR / "p3_d1.json"), "--out", str(CONFIG_DIR)], "configs"),
        (["simulate", "--config", str(CONFIG_DIR / "p3_d1.json"), "--out", "missing/unused.csv"], "missing/unused.csv"),
        (["verify", "decay", "--config", str(CONFIG_DIR / "p3_d1.json"), "--out", str(CONFIG_DIR)], "configs"),
        (["verify", "all", "--out", "missing/report.json"], "missing/report.json"),
    ],
)
def test_a_flag_the_subcommand_does_not_read_exits_2_naming_it(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    _suites_must_not_run(monkeypatch)
    monkeypatch.setattr("nlsmooth.cli.evolve", lambda *args, **kwargs: pytest.fail("the flow ran"))
    code, out, err = run_cli_or_usage_error(capsys, argv)
    assert code == 2 and out == ""
    assert re.search(re.escape(named) + r"(?![\w-])", err) and "Traceback" not in err
    assert not (tmp_path / "unused.csv").exists()


def test_verify_all_gives_each_flag_only_to_the_suites_that_read_it(monkeypatch, capsys):
    received = _record_runs(monkeypatch)
    code, _, _ = run_cli(capsys, ["verify", "all", "--tol", "0.5", "--seed", "3"])
    assert code == 0
    shipped = {name: load_config(CONFIG_DIR / name) for name in ("p3_d1.json", "pme_m2.json", "barenblatt.json")}
    assert received == [
        ("decay", {"config": shipped["p3_d1.json"], "tol": 0.5}),  # --tol is the decay tolerance only
        ("decay", {"config": shipped["pme_m2.json"], "tol": 0.5}),
        ("barenblatt", {"config": shipped["barenblatt.json"]}),
    ] + [(name, {"seed": 3}) for name in ("contraction", "order", "gn", "conservation", "convergence")]


@pytest.mark.parametrize(
    "suite, edit, message",
    [
        ("decay", lambda exp: exp.update(tolerence=1e-6), "config has unknown key experiment.tolerence"),
        ("barenblatt", lambda exp: exp.pop("rel_l1_max"), "config lacks experiment.rel_l1_max"),
    ],
)
def test_a_bad_experiment_key_exits_2_naming_it(tmp_path, monkeypatch, capsys, suite, edit, message):
    cfg = _smoke_config() if suite == "decay" else load_config(CONFIG_DIR / "barenblatt.json")
    edit(cfg["experiment"])
    with pytest.raises(ValueError, match=message):
        (harness.run_decay_experiment if suite == "decay" else harness.barenblatt_comparison)(cfg)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_jsonable(cfg)))
    _suites_must_not_run(monkeypatch)
    for argv in (["verify", suite], ["verify", "all"]):  # with all, no suite reads the config
        code, out, err = run_cli(capsys, argv + ["--config", str(cfg_path)])
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["simulate", "--out", "unused.csv"], ["verify", "decay"]])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cfg: cfg["operator"].pop("p"), "config lacks operator.p"),
        (lambda cfg: cfg["operator"].update(bc="robin"), "config lacks operator.robin_b"),
        (lambda cfg: cfg["operator"].update(robin_b=0.5),
         "config operator.robin_b is read only with bc 'robin', not with bc 'dirichlet'"),
        (lambda cfg: cfg.pop("time"), "config lacks section time"),
        (lambda cfg: cfg["operator"].update(pp=cfg["operator"].pop("p")), "config has unknown key operator.pp"),
        (lambda cfg: cfg["grid"].update(spacing=0.08), "config has unknown key grid.spacing"),
        (lambda cfg: cfg["time"].update(dt=0.025), "config has unknown key time.dt"),
        (lambda cfg: cfg["time"].update(n_steps=400.7), "config time.n_steps must be an integer >= 1, got 400.7"),
        (lambda cfg: cfg["time"].update(n_steps=True), "config time.n_steps must be an integer >= 1, got True"),
        (lambda cfg: cfg["time"].update(t_end="50"), "config time.t_end must be a positive finite number, got '50'"),
        (lambda cfg: cfg["time"].update(t_end=True), "config time.t_end must be a positive finite number, got True"),
        (lambda cfg: _controlled(cfg, t_first=60),
         "config time.t_first must be a finite number with 0 < t_first < t_end = 4, got 60"),
        (lambda cfg: _controlled(cfg, t_first=0),
         "config time.t_first must be a finite number with 0 < t_first < t_end = 4, got 0"),
        (lambda cfg: _controlled(cfg, t_first="inf"),
         "config time.t_first must be a finite number with 0 < t_first < t_end = 4, got inf"),
        (lambda cfg: _controlled(cfg, t_first="1e-3"),
         "config time.t_first must be a finite number with 0 < t_first < t_end = 4, got '1e-3'"),
        (lambda cfg: cfg["time"].update(t_first=1e-3),
         "config time.t_first is read only with tol, the step controller's tolerance"),
        (lambda cfg: cfg["time"].update(t_first=1e-3, tol=1e-3),
         "config time.n_steps is not read with tol, whose controller picks the steps, got 160"),
        # a controller tolerance out of range, without its first step, or whose estimator would bound nothing
        (lambda cfg: _controlled(cfg, tol=0), "config time.tol must be a number with 0 < tol < 1, got 0"),
        (lambda cfg: _controlled(cfg, tol=1), "config time.tol must be a number with 0 < tol < 1, got 1"),
        (lambda cfg: _controlled(cfg, tol="1e-3"), "config time.tol must be a number with 0 < tol < 1, got '1e-3'"),
        (lambda cfg: cfg.update(time={"t_end": 4.0, "tol": 1e-3}),
         "config time.tol needs t_first, the end of the controller's first step"),
        (lambda cfg: (_controlled(cfg), cfg.update(perturbation={"kind": "tanh", "coeff": 0.3})),
         "config time.tol: the step controller needs perturbation.kind 'none'"),
        (lambda cfg: (_controlled(cfg), cfg.update(phi={"kind": "power", "m": 2.0})),
         "config time.tol: the step controller needs operator.p = 2, operator.bc 'dirichlet' and one grid axis "
         "with a power phi, which is a gradient flow in H^-1 only then; got p = 3, bc 'dirichlet', d = 1"),
        (lambda cfg: (_controlled(cfg), cfg.update(phi={"kind": "power", "m": 2.0}),
                      cfg["operator"].update(p=2.0, bc="neumann")),
         "config time.tol: the step controller needs operator.p = 2, operator.bc 'dirichlet' and one grid axis "
         "with a power phi, which is a gradient flow in H^-1 only then; got p = 2, bc 'neumann', d = 1"),
        (lambda cfg: (_controlled(cfg), cfg.update(phi={"kind": "power", "m": 2.0}), cfg["operator"].update(p=2.0),
                      cfg["grid"].update(bounds=[[-8.0, 8.0], [-8.0, 8.0]], shape=[9, 9]),
                      cfg["experiment"]["predicted"].update(d=2)),
         "config time.tol: the step controller needs operator.p = 2, operator.bc 'dirichlet' and one grid axis "
         "with a power phi, which is a gradient flow in H^-1 only then; got p = 2, bc 'dirichlet', d = 2"),
        (lambda cfg: cfg.update(phi={"kind": "power"}), "config lacks phi.m"),
        (lambda cfg: cfg.update(phi={"kind": "identity", "m": 2.0}), "config has unknown key phi.m"),
        (lambda cfg: cfg.update(perturbation={"kind": "linear"}), "config lacks perturbation.coeff"),
        (lambda cfg: cfg.update(perturbation={"kind": "tanh"}), "config lacks perturbation.coeff"),
        (lambda cfg: cfg["perturbation"].update(coef=0.3), "config has unknown key perturbation.coef"),
        # a value the constructors refuse is named by its key
        (lambda cfg: cfg["grid"].update(shape=[2]), "config grid.shape: need at least 3 nodes per axis, got 2"),
        (lambda cfg: cfg["grid"].update(bounds=[[8.0, -8.0]]), "config grid.bounds: invalid axis bounds (8.0, -8.0)"),
        # finite bounds whose cell volume overflows
        (lambda cfg: cfg["grid"].update(bounds=[[-1e200, 1e200], [-1e200, 1e200]], shape=[5, 5]),
         "config grid.bounds: invalid axis bounds [[-1e+200, 1e+200], [-1e+200, 1e+200]]: the cell volume is inf"),
        (lambda cfg: cfg["operator"].update(p=1.0), "config operator.p: p must satisfy 1 < p < inf, got 1.0"),
        (lambda cfg: cfg["operator"].update(eps_reg="inf"),
         "config operator.eps_reg: eps_reg must be >= 0 and finite, got inf"),
        # finite, but g^2 + eps^2 would overflow in the first residual
        (lambda cfg: cfg["operator"].update(eps_reg=1e300),
         "config operator.eps_reg: eps_reg must be 0 or have a positive finite square, got 1e+300"),
        # positive, but eps^2 underflows to 0 and the flux derivative at g = 0 is inf * 0 = NaN
        (lambda cfg: cfg["operator"].update(eps_reg=1e-162),
         "config operator.eps_reg: eps_reg must be 0 or have a positive finite square, got 1e-162"),
        (lambda cfg: cfg["operator"].update(eps_reg=1e-200),
         "config operator.eps_reg: eps_reg must be 0 or have a positive finite square, got 1e-200"),
        # fast diffusion at eps 0: phi'(0) is infinite and the Newton bands would be NaN
        (lambda cfg: (cfg.update(phi={"kind": "power", "m": 0.5}), cfg["operator"].update(p=2.0, eps_reg=0.0)),
         "config operator.eps_reg: eps_reg must be positive for a power phi with m < 1, whose derivative is "
         "infinite at u = 0; got 0 with m = 0.5"),
        (lambda cfg: cfg["operator"].update(bc="periodic"), "config operator.bc: unknown boundary condition 'periodic'"),
        (lambda cfg: cfg["operator"].update(bc="robin", robin_b="inf"),
         "config operator.robin_b: robin coupling needs b > 0 and finite, got inf"),
        (lambda cfg: cfg.update(phi={"kind": "power", "m": "inf"}),
         "config phi.m: power exponent must be positive and finite, got inf"),
        (lambda cfg: cfg.update(perturbation={"kind": "linear", "coeff": "inf"}),
         "config perturbation.coeff: lipschitz bound must be finite and >= 0, got inf"),
    ],
)
def test_a_bad_config_section_exits_2_naming_the_key(tmp_path, monkeypatch, capsys, argv, edit, message):
    for module in ("nlsmooth.cli", "nlsmooth.harness"):
        monkeypatch.setattr(f"{module}.evolve", lambda *args, **kwargs: pytest.fail("the flow ran"))
    monkeypatch.chdir(tmp_path)
    cfg = _smoke_config()
    edit(cfg)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_jsonable(cfg)))
    code, out, err = run_cli(capsys, argv + ["--config", str(cfg_path)])
    assert code == 2 and out == ""
    assert message in err and "running suite:" not in err and "Traceback" not in err
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize("argv", [["simulate", "--out", "unused.csv"], ["verify", "decay"]])
@pytest.mark.parametrize(
    "initial, message",
    [
        ({"width": -0.5}, "config experiment.initial.width must be positive and finite, got -0.5"),
        ({"width": 0}, "config experiment.initial.width must be positive and finite, got 0"),
        ({"width": "inf"}, "config experiment.initial.width must be positive and finite, got inf"),
        ({"center": [0.0, 0.0]},
         "config experiment.initial.center must be a number or a list of d = 1 numbers, got [0.0, 0.0]"),
        ({"amplitude": 0.0}, "config experiment.initial.amplitude must be nonzero and finite, got 0.0"),
        ({"amplitude": "inf"}, "config experiment.initial.amplitude must be nonzero and finite, got inf"),
        ({"amplitude": "-inf"}, "config experiment.initial.amplitude must be nonzero and finite, got -inf"),
        ({"kind": "barenblatt", "p": 3.0, "t0": 0.0}, "config experiment.initial.t0 must be positive and finite, got 0.0"),
        ({"kind": "barenblatt", "p": 3.0, "t0": -1.0}, "config experiment.initial.t0 must be positive and finite, got -1.0"),
        ({"kind": "barenblatt", "p": 2.0}, "config experiment.initial.p must be > 1 and not 2, got 2.0"),
        ({"kind": "random", "n_modes": 0}, "config experiment.initial.n_modes must be at least 1, got 0"),
        # the 0.08 node spacing puts no node inside these bumps
        ({"width": 0.01, "center": 0.04}, "config experiment.initial.width / experiment.initial.center: the bump is 0"),
        ({"center": 100}, "config experiment.initial.width / experiment.initial.center: the bump is 0"),
        ({"kind": "bump", "center": 100}, "config experiment.initial.width / experiment.initial.center: the bump is 0"),
    ],
    ids=["width-negative", "width-zero", "width-inf", "center-2d", "amplitude-zero", "amplitude-inf",
         "amplitude-minus-inf", "t0-zero", "t0-negative", "p2",
         "no-modes", "between-nodes", "off-grid", "off-grid-unnormalized"],
)
def test_a_bad_initial_value_exits_2_naming_the_key(tmp_path, monkeypatch, capsys, argv, initial, message):
    monkeypatch.chdir(tmp_path)
    for module in ("nlsmooth.cli", "nlsmooth.harness"):
        monkeypatch.setattr(f"{module}.evolve", lambda *args, **kwargs: pytest.fail("the flow ran"))
    cfg = _smoke_config()
    recipe = cfg["experiment"]["initial"]
    if "kind" in initial:
        recipe.clear()
    recipe.update(initial)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_jsonable(cfg)))
    code, out, err = run_cli(capsys, argv + ["--config", str(cfg_path)])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "unused.csv").exists()


def test_a_solver_that_does_not_converge_exits_1_without_a_traceback(tmp_path, capsys):
    # admitted, but Newton stalls in the one step of the degenerate porous-medium flow on 2001 nodes
    # (the strict xfail test_degenerate_porous_medium_resolvent_converges_on_a_fine_1d_grid)
    cfg = _smoke_config()
    cfg.update(grid={"bounds": [[-5.0, 5.0]], "shape": [2001]}, phi={"kind": "power", "m": 2.0})
    cfg["operator"].update(p=2.0, eps_reg=0.0)
    cfg["time"].update(t_end=0.5, n_steps=1)
    cfg["experiment"]["initial"] = {"kind": "bump", "center": 0.0, "width": 2.0}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_jsonable(cfg)))
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv")])
    assert code == 1 and out == ""
    assert err.startswith("error: step 1/") and "Traceback" not in err


def test_verify_convergence_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, ["verify", "convergence", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["name"] == "convergence-study"
    assert "gap_ratios" in payload["metrics"]
    assert json.loads(out_path.read_text()) == payload
    assert "running suite: convergence" in err


def test_verify_decay_exit_codes_and_tol_override(tmp_path, capsys):
    cfg = _smoke_config()
    cfg["experiment"]["tolerance"] = 1e-6  # unachievably tight
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_jsonable(cfg)))
    code, out, _ = run_cli(capsys, ["verify", "decay", "--config", str(cfg_path)])
    assert code == 1
    assert json.loads(out)["pass"] is False

    code2, out2, _ = run_cli(capsys, ["verify", "decay", "--config", str(cfg_path), "--tol", "0.9"])
    assert code2 == 0
    assert json.loads(out2)["pass"] is True


def test_the_package_configs_are_the_shipped_files():
    # harness.CONFIGS is what verify runs with no --config; it must be the repo's configs/, file for file
    package = sorted(path.name for path in harness.CONFIGS.glob("*.json"))
    assert package == sorted(path.name for path in CONFIG_DIR.glob("*.json"))
    assert {"p3_d1.json", "pme_m2.json", "barenblatt.json"} <= set(package)
    for name in package:
        assert os.path.samefile(harness.CONFIGS / name, CONFIG_DIR / name)


@pytest.mark.parametrize("suite", ["decay", "barenblatt"])
def test_a_suite_given_no_config_runs_its_shipped_files(monkeypatch, capsys, suite):
    received = _record_runs(monkeypatch)
    code, _, _ = run_cli(capsys, ["verify", suite])
    assert code == 0
    files = ["p3_d1.json", "pme_m2.json"] if suite == "decay" else ["barenblatt.json"]
    assert received == [(suite, {"config": load_config(CONFIG_DIR / name)}) for name in files]


def test_a_decay_config_dropped_into_the_configs_runs_with_no_code_edit(tmp_path, monkeypatch, capsys):
    # one file is one claim: a copy of pme_m2.json under a new name runs under all and decay
    for path in CONFIG_DIR.glob("*.json"):
        (tmp_path / path.name).write_text(path.read_text())
    copy = load_config(CONFIG_DIR / "pme_m2.json")
    copy["experiment"]["name"] = "decay-pme-copy"
    (tmp_path / "a_pme_copy.json").write_text(json.dumps(_jsonable(copy)))
    monkeypatch.setattr(harness, "CONFIGS", tmp_path)
    decay = [load_config(tmp_path / name) for name in ("a_pme_copy.json", "p3_d1.json", "pme_m2.json")]
    for argv in (["verify", "all"], ["verify", "decay"]):
        received = _record_runs(monkeypatch)
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        assert [inputs["config"] for name, inputs in received if name == "decay"] == decay
    assert decay[0] == copy


@pytest.mark.parametrize(
    "name, text, message",
    [
        (None, None, "holds no config for suite 'decay'"),
        ("broken.json", '{"grid": ', "is not JSON"),
        ("stray.json", json.dumps({"experiment": {"t0": 1.0}}), "no suite reads"),
    ],
    ids=["no-json", "not-json", "no-suite"],
)
def test_verify_all_refuses_a_configs_directory_it_cannot_run_whole(tmp_path, monkeypatch, capsys, name, text, message):
    # no vacuous pass: verify all exits 2 naming the directory or the file, before any suite runs
    for path in CONFIG_DIR.glob("*.json") if name else ():
        (tmp_path / path.name).write_text(path.read_text())
    if name:
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(harness, "CONFIGS", tmp_path)
    _suites_must_not_run(monkeypatch)
    code, out, err = run_cli(capsys, ["verify", "all"])
    assert code == 2 and out == ""
    assert str(tmp_path / (name or "")) in err and message in err and "Traceback" not in err


def _put(path, value):
    """An edit of a config that sets the key at the dotted path to value."""
    *sections, key = path.split(".")
    return lambda cfg: functools.reduce(dict.__getitem__, sections, cfg).__setitem__(key, value)


# (shipped file, an edit that makes it a bad config of the same suite, the key it names)
_BAD_SHIPPED = [
    ("pme_m2.json", lambda cfg: cfg["grid"].update(shape=[2]), "grid.shape"),
    ("barenblatt.json", lambda cfg: cfg["operator"].update(p=2.0), "operator.p"),
    ("barenblatt.json", lambda cfg: cfg["time"].update(t_end=2.0), "time.t_end"),
    ("pme_m2.json", lambda cfg: cfg.update(perturbation={"kind": "tanh", "coeff": 0.3}), "perturbation.kind"),
    # values that ended in a TypeError, an OverflowError or a numpy overflow warning
    ("p3_d1.json", _put("phi.kind", ["identity"]), "config phi.kind must be a string"),
    ("pme_m2.json", _put("perturbation.kind", {}), "config perturbation.kind must be a string"),
    ("p3_d1.json", _put("experiment.initial.kind", ["bump"]), "config experiment.initial.kind must be a string"),
    ("pme_m2.json", _put("experiment.predicted.theorem", ["doubly-nonlinear"]),
     "config experiment.predicted.theorem must be a string"),
    ("p3_d1.json", _put("experiment.predicted.d", math.inf), "experiment.predicted: d must be a positive integer"),
    ("p3_d1.json", _put("experiment.predicted.d", 0), "experiment.predicted: d must be a positive integer"),
    ("p3_d1.json", _put("experiment.initial.center", 1e300), "experiment.initial.center: the bump is 0"),
    ("pme_m2.json", _put("grid.bounds", [[-20.0, 1e300]]), "experiment.initial.center: the bump is 0"),
    # thresholds that a claim can never meet, or always meets
    ("p3_d1.json", _put("experiment.tolerance", math.nan), "config experiment.tolerance must be positive and finite"),
    ("pme_m2.json", _put("experiment.tolerance", math.inf), "config experiment.tolerance must be positive and finite"),
    ("p3_d1.json", _put("experiment.r2_min", math.nan), "config experiment.r2_min must be at most 1"),
    ("pme_m2.json", _put("experiment.r2_min", math.inf), "config experiment.r2_min must be at most 1"),
    ("barenblatt.json", _put("experiment.rel_l1_max", math.nan), "config experiment.rel_l1_max must be positive"),
    ("barenblatt.json", _put("experiment.rel_l1_max", math.inf), "config experiment.rel_l1_max must be positive"),
    ("barenblatt.json", _put("experiment.refinement_min_ratio", math.nan),
     "config experiment.refinement_min_ratio must be positive"),
    ("barenblatt.json", _put("experiment.refinement_min_ratio", math.inf),
     "config experiment.refinement_min_ratio must be positive"),
    ("barenblatt.json", _put("experiment.t0", math.inf), "config experiment.t0 must be positive and finite"),
    # values a report or a random draw cannot take
    ("p3_d1.json", _put("experiment.name", 3), "config experiment.name must be a string"),
    ("p3_d1.json", lambda cfg: cfg["experiment"].update(initial={"kind": "random"}, seed=-1),
     "config experiment.seed must be at least 0"),
    # a source solution that is 0 at every node, or whose support leaves the box
    ("barenblatt.json", _put("grid.bounds", [[-6.0, 1e8]]), "config grid.bounds / grid.shape: the source solution"),
    ("barenblatt.json", _put("grid.bounds", [[-6.0, 3.0]]), "config experiment.t1 / grid.bounds: the support"),
    # a bump of no finite height, and a controller tolerance that no indicator can be held to
    ("p3_d1.json", _put("experiment.initial.amplitude", math.nan),
     "config experiment.initial.amplitude must be nonzero and finite, got nan"),
    ("pme_m2.json", _put("experiment.initial.amplitude", math.inf),
     "config experiment.initial.amplitude must be nonzero and finite, got inf"),
    ("p3_d1.json", _put("time.tol", math.nan), "config time.tol must be a number with 0 < tol < 1, got nan"),
    ("pme_m2.json", _put("time.tol", 1.0), "config time.tol must be a number with 0 < tol < 1, got 1.0"),
]
_BAD_SHIPPED_IDS = ["decay-grid-shape", "barenblatt-p2", "barenblatt-t-end", "decay-perturbed", "phi-kind-list",
                    "perturbation-kind-dict", "initial-kind-list", "theorem-list", "predicted-d-inf", "predicted-d-0",
                    "center-far", "bounds-far", "tolerance-nan", "tolerance-inf", "r2-min-nan", "r2-min-inf",
                    "rel-l1-max-nan", "rel-l1-max-inf", "refinement-nan", "refinement-inf", "t0-inf", "name-number",
                    "seed-negative", "barenblatt-no-node", "barenblatt-off-centre", "amplitude-nan", "amplitude-inf",
                    "tol-nan", "tol-one"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shipped, edit, key", _BAD_SHIPPED, ids=_BAD_SHIPPED_IDS)
def test_verify_all_checks_every_shipped_config_before_the_first_run(tmp_path, monkeypatch, capsys, shipped, edit, key):
    # a bad value in the last file is refused, naming the file and the key, before any suite runs
    for path in CONFIG_DIR.glob("*.json"):
        (tmp_path / path.name).write_text(path.read_text())
    bad = load_config(CONFIG_DIR / shipped)
    edit(bad)
    (tmp_path / "zz_bad.json").write_text(json.dumps(bad))  # NaN and Infinity as JSON reads them
    monkeypatch.setattr(harness, "CONFIGS", tmp_path)
    _suites_must_not_run(monkeypatch)
    code, out, err = run_cli(capsys, ["verify", "all"])
    assert code == 2 and out == ""
    assert "zz_bad.json" in err and key in err
    assert "running suite:" not in err and "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shipped, edit, key", _BAD_SHIPPED, ids=_BAD_SHIPPED_IDS)
def test_verify_one_suite_checks_its_config_before_the_first_run(tmp_path, monkeypatch, capsys, shipped, edit, key):
    bad = load_config(CONFIG_DIR / shipped)
    edit(bad)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    _suites_must_not_run(monkeypatch)
    suite = "barenblatt" if shipped == "barenblatt.json" else "decay"
    code, out, err = run_cli(capsys, ["verify", suite, "--config", str(bad_path)])
    assert code == 2 and out == ""
    assert str(bad_path) in err and key in err
    assert "running suite:" not in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("suite", ["decay", "all"])
def test_a_tolerance_that_no_fit_can_meet_or_miss_exits_2_naming_the_flag(monkeypatch, capsys, suite, tol):
    # --tol stands for experiment.tolerance, and passes its rule before any suite runs
    _suites_must_not_run(monkeypatch)
    code, out, err = run_cli(capsys, ["verify", suite, "--tol", tol])
    assert code == 2 and out == ""
    assert "--tol must be positive and finite" in err
    assert "running suite:" not in err and "Traceback" not in err


@pytest.mark.parametrize("fname, max_steps, rel_err_max", [("p3_d1.json", 130, 8.3e-4), ("pme_m2.json", 100, 3.3e-3)])
def test_shipped_decay_configs_fit_from_few_controlled_steps(fname, max_steps, rel_err_max):
    cfg = load_config(CONFIG_DIR / fname)
    assert "n_steps" not in cfg["time"] and {"t_first", "tol"} <= set(cfg["time"])
    rep = harness.run_decay_experiment(cfg)
    m = rep.metrics
    assert rep.passed and m["n_steps"] <= max_steps and m["rel_err"] <= rel_err_max and m["r2"] >= 0.99999
    assert m["window_used"] == m["window_requested"] == [0.5, 50.0]
    assert 0.0 < m["time_error_bound"] < math.inf


@pytest.mark.parametrize("argv", [["verify", "order"], ["verify", "all"], ["simulate", "--out", "unused.csv"]])
def test_a_negative_seed_exits_2_naming_the_flag_before_any_run(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    _suites_must_not_run(monkeypatch)
    monkeypatch.setattr("nlsmooth.cli.evolve", lambda *args, **kwargs: pytest.fail("the flow ran"))
    if argv[0] == "simulate":  # a random recipe, the only one that reads a seed
        cfg = _smoke_config()
        cfg["experiment"]["initial"] = {"kind": "random", "n_modes": 2}
        (tmp_path / "random.json").write_text(json.dumps(_jsonable(cfg)))
        argv = argv + ["--config", "random.json"]
    code, out, err = run_cli(capsys, argv + ["--seed", "-1"])
    assert code == 2 and out == ""
    assert "--seed must be at least 0, got -1" in err
    assert "running suite:" not in err and "Traceback" not in err
    assert not (tmp_path / "unused.csv").exists()


def test_cli_stdout_is_byte_identical_across_runs():
    argv = [
        sys.executable, "-m", "nlsmooth.cli",
        "exponents", "--theorem", "plaplace", "--d", "3", "--p", "2", "--s", "1", "--m0", "2",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
    json.loads(first.stdout)
