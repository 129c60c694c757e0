"""Config validation, scenario runs, determinism, and CLI exit codes."""

import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emt_lab
from emt_lab import (ConfigError, DomainError, EmtLabError, InputError, ScenarioConfig,
                     load_config, module_schema, validate_config)
from emt_lab.cli import bundled_scenarios, main
from emt_lab.config import MODULES, scenario_module
from emt_lab import cli, config, runner
from emt_lab._params import read_block
from emt_lab.policy import Occupation
from emt_lab.runner import _write_artifact, run_scenario
from test_golden import ARTIFACTS, LARGE_POOL, LONG_FLYWHEEL, LONG_POOL, NOISY_FEEDBACK

SCENARIO_DIR = Path(emt_lab.__file__).parent / "scenarios"


def minimal(module="epistemic", **extra):
    cfg = {"name": "t", "module": module}
    cfg.update(extra)
    return cfg


def test_minimal_config_fills_defaults():
    cfg = validate_config(minimal())
    assert cfg.params["theta0"] == 1.0
    assert cfg.seed == 0
    assert cfg.output_format == "csv"


def test_negative_theta0_names_field():
    with pytest.raises(ConfigError) as err:
        validate_config(minimal(params={"theta0": -1.0}))
    assert any("theta0" in p for p in err.value.problems)


def test_unknown_key_suggests_closest():
    with pytest.raises(ConfigError) as err:
        validate_config(minimal(params={"thetaO": 1.0}))
    joined = " ".join(err.value.problems)
    assert "thetaO" in joined and "theta0" in joined


def test_all_errors_collected():
    with pytest.raises(ConfigError) as err:
        validate_config(
            minimal(params={"theta0": -1.0, "dt": 0.0, "bogus": 1}, seed=-1)
        )
    assert len(err.value.problems) >= 4


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "line" in err.value.problems[0]


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json")


def test_unknown_module_rejected():
    with pytest.raises(ConfigError):
        validate_config(minimal(module="nonsense"))
    with pytest.raises(ConfigError):
        module_schema("nonsense")


def test_every_module_has_schema():
    for module in MODULES:
        schema = module_schema(module)
        assert schema
        for spec in schema.values():
            assert "type" in spec and "default" in spec


def test_digest_stable_and_sensitive():
    a = validate_config(minimal())
    b = validate_config(minimal())
    c = validate_config(minimal(seed=1))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


@pytest.mark.parametrize("module", sorted(MODULES))
def test_one_scenario_has_one_digest_however_it_is_built(module, tmp_path):
    """A file, a direct build and a replace of the file's config hold the same
    `params`, defaults filled, and so give one digest."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "t", "module": module}))
    loaded = load_config(str(path))
    for cfg in (ScenarioConfig(name="t", module=module, params={}), dataclasses.replace(loaded)):
        assert cfg.params == loaded.params and cfg.digest() == loaded.digest()


def test_a_file_s_params_are_read_once(monkeypatch, tmp_path):
    """One load_config reads `params` with read_block once, in ScenarioConfig."""
    calls = []

    def counted(fields_by_key, block, prefix=""):
        calls.append(prefix)
        return read_block(fields_by_key, block, prefix)

    monkeypatch.setattr(config, "read_block", counted)
    for module in MODULES:
        calls.clear()
        path = tmp_path / f"{module}.json"
        path.write_text(json.dumps({"name": "t", "module": module, "output": {"path": "x"}}))
        load_config(str(path))
        assert calls.count("params.") == 1, module


OCCUPATION_FIELDS = {"w": 1.0, "l_bar": 1.0, "eta": 0.5, "lambda_align": 1.0}


@pytest.mark.parametrize("module, direct, in_a_file", [
    pytest.param("mdp", {"rewards": np.array([[0.0, 1.0]])}, {"rewards": [[0.0, 1.0]]}, id="ndarray"),
    pytest.param("mdp", {"max_iter": np.int64(50)}, {"max_iter": 50}, id="numpy_int"),
    pytest.param("mdp", {"beta": np.float32(0.5)}, {"beta": 0.5}, id="numpy_float32"),
    pytest.param("policy", {"occupations": [Occupation(**OCCUPATION_FIELDS)]},
                 {"occupations": [OCCUPATION_FIELDS]}, id="occupation"),
])
def test_a_direct_config_of_values_json_cannot_encode_has_the_file_s_digest(
        module, direct, in_a_file, tmp_path):
    """A numpy value or an Occupation in a directly built config is digested
    as the JSON a file holds for it, so its run reports that file's digest."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "t", "module": module, "params": in_a_file}))
    report = run_scenario(ScenarioConfig(name="t", module=module, params=direct), str(tmp_path))
    assert report.config_digest == load_config(str(path)).digest()


def test_a_direct_config_holding_a_callable_is_a_config_error():
    """No file holds a callable, so a config that does has no digest: its
    build fails, before anything runs or is written."""
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(name="t", module="feedback", params={"e_target": lambda t: 1.0})
    assert err.value.problems == ["params.e_target: expected a JSON value, got a callable"]


@pytest.mark.parametrize("fname", [f for f, _ in bundled_scenarios()])
def test_bundled_scenarios_run_and_pass(fname, tmp_path):
    cfg = dict(bundled_scenarios())[fname]
    report = run_scenario(cfg, out_dir=str(tmp_path))
    assert report.passed, f"{fname}: failing checks {report.checks}"
    assert report.config_digest == cfg.digest()


@pytest.mark.parametrize("fname", [f for f, _ in bundled_scenarios()])
def test_bundled_scenarios_byte_identical_reruns(fname, tmp_path):
    cfg = dict(bundled_scenarios())[fname]
    r1 = run_scenario(cfg, out_dir=str(tmp_path / "a"))
    r2 = run_scenario(cfg, out_dir=str(tmp_path / "b"))
    assert r1.config_digest == r2.config_digest
    with open(r1.artifact_path, "rb") as f1, open(r2.artifact_path, "rb") as f2:
        assert f1.read() == f2.read()


def test_json_artifacts_round_trip(tmp_path):
    cfg = dict(bundled_scenarios())["mdp_default.json"]
    report = run_scenario(cfg, out_dir=str(tmp_path))
    with open(report.artifact_path) as fh:
        doc = json.load(fh)
    assert "values" in doc and "policy" in doc


def test_csv_is_crlf_terminated(tmp_path):
    cfg = dict(bundled_scenarios())["feedback_default.json"]
    report = run_scenario(cfg, out_dir=str(tmp_path))
    with open(report.artifact_path, "rb") as fh:
        data = fh.read()
    assert b"\r\n" in data


def test_cli_run_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal(module="mdp")))
    assert main(["run", str(good), "--out", str(tmp_path)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(minimal(params={"theta0": -2.0})))
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "evt.json"
    cfg_path.write_text(json.dumps(minimal(
        module="evt", params={"k_draws": 50, "replicates": 50, "ks_threshold": 0.9})))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "s1"), "--seed", "1"]) == 0
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "s2"), "--seed", "2"]) == 0
    j1 = json.loads((tmp_path / "s1" / "t.json").read_text())
    j2 = json.loads((tmp_path / "s2" / "t.json").read_text())
    assert j1["mean"] != j2["mean"]


def test_cli_check_failure_exit_code(tmp_path):
    # a feedback scenario expected to be unstable that actually settles
    cfg = minimal(module="feedback", params={
        "e_target": 0.0, "o0": 0.0, "a0": 0.0, "horizon": 10,
        "check_settled": True, "expect_unstable": True,
    })
    path = tmp_path / "check.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1


def test_cli_schema_command(capsys):
    assert main(["schema", "mdp"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["beta"]["default"] == 0.9
    assert main(["schema", "nope"]) == 2


def test_cli_runs_several_configs(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(json.dumps({"name": "a", "module": "mdp"}))
    p2.write_text(json.dumps({"name": "b", "module": "policy",
                              "params": {"budget": 1.0}}))
    out = tmp_path / "out"
    assert main(["run", str(p1), str(p2), "--out", str(out)]) == 0
    assert (out / "a.json").exists() and (out / "b.json").exists()


def test_cli_prints_each_report_line_when_its_run_ends(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    bad = tmp_path / "bad.json"
    ok.write_text(json.dumps({"name": "okrun", "module": "mdp"}))
    bad.write_text(json.dumps(minimal(params={"a0": 1e200, "phi_elast": 2.0})))
    out = tmp_path / "o"
    assert main(["run", str(ok), str(bad), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith(f"okrun: wrote {out / 'okrun.json'} in ")
    assert "digest=" in captured.out and captured.out.count("\n") == 1
    assert captured.err == "runtime error: knowledge stock p became non-finite: inf\n"
    assert list(out.iterdir()) == [out / "okrun.json"]


OCCUPATION = {"w": 1.0, "l_bar": 1.0, "eta": 1.0, "lambda_align": 1.0}


# Every row names its own id, so adding a row or rewording a message renames
# no other row. The first 48 keep the ids pytest once made of their position
# and message, the names the test record knows them by.
@pytest.mark.parametrize("module, extra, message", [
    pytest.param("epistemic", {"params": {"eps_resid": 2.0}}, "eps_resid",
                 id="epistemic-extra0-eps_resid"),
    pytest.param("evt", {"params": {"family_params": {"bogus": 1}}}, "bogus",
                 id="evt-extra1-bogus"),
    pytest.param("gravity", {"params": {"p_vec": [1.0]}}, "distance matrix shape",
                 id="gravity-extra2-distance matrix shape"),
    pytest.param("mdp", {"params": {"shock_probs": [0.5, 0.5]}}, "transition shape",
                 id="mdp-extra3-transition shape"),
    pytest.param("mdp", {"output": {"format": "json"}}, "output.unknown key 'format'",
                 id="mdp-extra4-output.unknown key 'format'"),
    pytest.param("growth", {"params": {"psi": 2.0}}, "no equilibrium",
                 id="growth-extra5-no equilibrium"),
    pytest.param("gravity", {"params": {"production": {"alpha": 2}}},
                 "params: production.alpha: must be < 1, got 2",
                 id="gravity-extra6-params: production.alpha: must be < 1, got 2"),
    pytest.param("gravity", {"params": {"production": {"alpha": 0.5, "beta": 1}}},
                 "params: production.unknown key 'beta'",
                 id="gravity-extra7-params: production.unknown key 'beta'"),
    pytest.param("feedback", {"params": {"e_target": float("nan")}}, "params.e_target",
                 id="feedback-extra8-params.e_target"),
    pytest.param("feedback", {"params": {"e_target": float("inf")}}, "params.e_target",
                 id="feedback-extra9-params.e_target"),
    pytest.param("gravity", {"params": {"kappa": 10**400}}, "params.kappa",
                 id="gravity-extra10-params.kappa"),
    pytest.param("gravity", {"params": {"n_vec": [float("nan"), 4, 3, 2, 1]}},
                 "n_vec: every element must be finite",
                 id="gravity-extra11-n_vec: every element must be finite"),
    pytest.param("gravity", {"params": {"p_vec": [1.0, 10**400]}},
                 "config error: params: p_vec: every element must be finite\n",
                 id="gravity-extra12-config error: params: p_vec: every element must be finite\n"),
    pytest.param("mdp", {"params": {"rewards": [[float("inf"), 1.0]]}},
                 "rewards: every element must be finite",
                 id="mdp-extra13-rewards: every element must be finite"),
    pytest.param("mdp", {"params": {"shock_probs": [float("nan")]}},
                 "shock_probs: every element must be finite",
                 id="mdp-extra14-shock_probs: every element must be finite"),
    pytest.param("mdp", {"params": {"transition": [[[float("nan")], [0]]]}},
                 "transition: every element must be a whole number",
                 id="mdp-extra15-transition: every element must be a whole number"),
    pytest.param("mdp", {"params": {"legacy_policy": [0.5]}},
                 "legacy_policy: every element must be a whole number",
                 id="mdp-extra16-legacy_policy: every element must be a whole number"),
    pytest.param("policy", {"params": {"occupations": [{**OCCUPATION, "eta": float("inf")}]}},
                 "eta: must be finite",
                 id="policy-extra17-eta: must be finite"),
    pytest.param("mdp", {"params": {"legacy_policy": [5]}}, "legacy_policy contains invalid action indices",
                 id="mdp-extra18-legacy_policy contains invalid action indices"),
    pytest.param("mdp", {"params": {"legacy_policy": [0, 0]}}, "legacy_policy must have shape (1,)",
                 id="mdp-extra19-legacy_policy must have shape (1,)"),
    pytest.param("game", {"params": {"n_players": 30}},
                 "n_players: 30 players have more than 200000 strategy profiles",
                 id="game-extra20-n_players: 30 players have more than 200000 strategy profiles"),
    pytest.param("game", {"params": {"n_players": 3, "strategy_class": "memory1"}},
                 "in strategy_class 'memory1'",
                 id="game-extra21-in strategy_class 'memory1'"),
    pytest.param("game", {"params": {"horizon": 100000000}},
                 "horizon: 100000000 rounds x 4 profiles of 2 players in strategy_class 'constant' x 4 joint "
                 "actions are above the search bound of 10000000",
                 id="game-extra22-horizon: 100000000 rounds x 4 profiles of 2 players in strategy_class "
                    "'constant' x 4 joint actions are above the search bound of 10000000"),
    pytest.param("gravity", {"params": {"alpha_g": 1.0}}, "params.unknown key 'alpha_g'",
                 id="gravity-extra23-params.unknown key 'alpha_g'"),
    pytest.param("gravity", {"params": {"beta_g": 1.0}}, "params.unknown key 'beta_g'",
                 id="gravity-extra24-params.unknown key 'beta_g'"),
    pytest.param("policy", {"params": {"tol": 1e-10}}, "params.unknown key 'tol'",
                 id="policy-extra25-params.unknown key 'tol'"),
    pytest.param("evt", {"params": {"family_params": {"rate": float("nan")}}},
                 "params: family_params.rate: must be finite, got nan",
                 id="evt-extra26-params: family_params.rate: must be finite, got nan"),
    pytest.param("evt", {"params": {"family_params": {"rate": float("inf")}}},
                 "params: family_params.rate: must be finite, got inf",
                 id="evt-extra27-params: family_params.rate: must be finite, got inf"),
    pytest.param("evt", {"params": {"family": "lognormal", "family_params": {"mu": float("nan")}}},
                 "params: family_params.mu: must be finite, got nan",
                 id="evt-extra28-params: family_params.mu: must be finite, got nan"),
    pytest.param("evt", {"params": {"family_params": {"rate": True}}},
                 "params: family_params.rate: expected number, got True",
                 id="evt-extra29-params: family_params.rate: expected number, got True"),
    pytest.param("evt", {"params": {"family_params": {"rate": "x"}}},
                 "params: family_params.rate: expected number, got 'x'",
                 id="evt-extra30-params: family_params.rate: expected number, got 'x'"),
    pytest.param("gravity", {"params": {"production": {"a": True}}},
                 "production.a: expected number, got True",
                 id="gravity-extra31-production.a: expected number, got True"),
    pytest.param("policy", {"params": {"occupations": [{**OCCUPATION, "w": True}]}},
                 "w: expected number, got True",
                 id="policy-extra32-w: expected number, got True"),
    pytest.param("feedback", {"params": {"horizon": 10**6 + 1}},
                 "params.horizon: must be <= 1000000, got 1000001",
                 id="feedback-extra33-params.horizon: must be <= 1000000, got 1000001"),
    pytest.param("gravity", {"params": {"horizon": 5 * 10**5 + 1}},
                 "params.horizon: must be <= 500000, got 500001",
                 id="gravity-extra34-params.horizon: must be <= 500000, got 500001"),
    pytest.param("mdp", {"params": {"max_iter": 10**5 + 1}}, "params.max_iter: must be <= 100000, got 100001",
                 id="mdp-extra35-params.max_iter: must be <= 100000, got 100001"),
    pytest.param("growth", {"params": {"n_lines": 100000000}},
                 "params.n_lines: must be <= 10000000, got 100000000",
                 id="growth-extra36-params.n_lines: must be <= 10000000, got 100000000"),
    pytest.param("growth", {"params": {"horizon": 10**6 + 1}},
                 "params.horizon: must be <= 1000000, got 1000001",
                 id="growth-extra37-params.horizon: must be <= 1000000, got 1000001"),
    pytest.param("growth", {"params": {"n_lines": 10000, "horizon": 500001}},
                 "params: n_lines x horizon: 10000 x 500001 line steps are above the budget of 5000000000",
                 id="growth-extra38-params: n_lines x horizon: 10000 x 500001 line steps are above the "
                    "budget of 5000000000"),
    pytest.param("epistemic", {"params": {"horizon": 10**6 + 1}},
                 "params.horizon: must be <= 1000000, got 1000001",
                 id="epistemic-extra39-params.horizon: must be <= 1000000, got 1000001"),
    pytest.param("epistemic", {"params": {"n_problems": 5 * 10**6 + 1}},
                 "params.n_problems: must be <= 5000000, got 5000001",
                 id="epistemic-extra40-params.n_problems: must be <= 5000000, got 5000001"),
    pytest.param("epistemic", {"params": {"eta_rate": 1e12}},
                 "params: n_problems + eta_rate x dt x horizon: 10 + 1000000000000.0 x 0.1 x 200 problems "
                 "are above the pool bound of 5000000",
                 id="epistemic-extra41-params: n_problems + eta_rate x dt x horizon: 10 + 1000000000000.0 x "
                    "0.1 x 200 problems are above the pool bound of 5000000"),
    pytest.param("epistemic", {"params": {"dt": 1e300}},
                 "params: n_problems + eta_rate x dt x horizon: 10 + 1.0 x 1e+300 x 200 problems are "
                 "above the pool bound of 5000000",
                 id="epistemic-extra42-params: n_problems + eta_rate x dt x horizon: 10 + 1.0 x 1e+300 x 200 "
                    "problems are above the pool bound of 5000000"),
    pytest.param("epistemic", {"params": {"horizon": 100000}},
                 "params: horizon x (n_problems + eta_rate x dt x horizon): 100000 steps x (10 + 1.0 x 0.1 x "
                 "100000 problems) are above the budget of 500000000",
                 id="epistemic-extra43-params: horizon x (n_problems + eta_rate x dt x horizon): 100000 "
                    "steps x (10 + 1.0 x 0.1 x 100000 problems) are above the budget of 500000000"),
    pytest.param("policy",
                 {"params": {"occupations": [{"w": 1.0, "l_bars": 1.0, "eta": 1.0, "lambda_align": 1.0}]}},
                 "config error: params: occupations.0.unknown key 'l_bars'; did you mean 'l_bar'?; "
                 "occupations.0.l_bar: required\n",
                 id="policy-extra44-config error: params: occupations.0.unknown key 'l_bars'; did you mean "
                    "'l_bar'?; occupations.0.l_bar: required\n"),
    pytest.param("policy", {"params": {"occupations": [OCCUPATION, {"w": 1.0}]}},
                 "config error: params: occupations.1.l_bar: required; occupations.1.eta: required; "
                 "occupations.1.lambda_align: required\n",
                 id="policy-extra45-config error: params: occupations.1.l_bar: required; occupations.1.eta: "
                    "required; occupations.1.lambda_align: required\n"),
    pytest.param("policy", {"params": {"occupations": [OCCUPATION, 3]}},
                 "config error: params: occupations.1: expected object, got 3\n",
                 id="policy-extra46-config error: params: occupations.1: expected object, got 3\n"),
    pytest.param("policy", {"params": {"occupations": [{**OCCUPATION, "w": "1", "l_bar": -1.0}]}},
                 "config error: params: occupations.0.w: expected number, got '1'; "
                 "occupations.0.l_bar: must be > 0, got -1.0\n",
                 id="policy-extra47-config error: params: occupations.0.w: expected number, got '1'; "
                    "occupations.0.l_bar: must be > 0, got -1.0\n"),
    pytest.param("growth", {"name": "..", "params": {"bogus": 1}},
                 "config error: params.unknown key 'bogus'\n"
                 "config error: name: its last '/' part must not be empty, '.' or '..', got '..'\n",
                 id="name_and_params"),
    pytest.param("growth", {"params": {"bogus": 1}, "output": {"path": "/abs.csv"}},
                 "config error: params.unknown key 'bogus'\n"
                 "config error: output.path: must give a relative file path inside --out, "
                 "got '/abs.csv'\n",
                 id="output_path_and_params"),
    pytest.param("gravity", {"params": {"n_vec": [1.0] * 201, "d_mat": [[1.0] * 200] * 201,
                                        "p_vec": [1.0] * 200, "horizon": 5 * 10**5}},
                 "config error: params: horizon x needs x sectors: 500000 x 201 x 200 need-sector "
                 "steps are above the budget of 20000000000\n",
                 id="gravity_work"),
    pytest.param("mdp", {"params": {"rewards": [0.0, 1.0]}},
                 "config error: params: rewards: must be 2-D, got 1-D\n", id="mdp-rewards_1d"),
    pytest.param("mdp", {"params": {"rewards": [[[0.0, 1.0]]]}},
                 "config error: params: rewards: must be 2-D, got 3-D\n", id="mdp-rewards_3d"),
    pytest.param("mdp", {"params": {"shock_probs": [[1.0]]}},
                 "config error: params: shock_probs: must be 1-D, got 2-D\n", id="mdp-shock_probs_2d"),
    pytest.param("gravity", {"params": {"n_vec": [[5.0, 4.0, 3.0, 2.0, 1.0]]}},
                 "config error: params: n_vec: must be 1-D, got 2-D\n", id="gravity-n_vec_2d"),
    pytest.param("gravity", {"params": {"d_mat": [1.0, 2.0]}},
                 "config error: params: d_mat: must be 2-D, got 1-D\n", id="gravity-d_mat_1d"),
    pytest.param("gravity", {"params": {"p_vec": [[1.0, 1.0]]}},
                 "config error: params: p_vec: must be 1-D, got 2-D\n", id="gravity-p_vec_2d"),
    pytest.param("mdp", {"params": {"rewards": [[]]}},
                 "config error: params: need at least one state and one action\n", id="mdp-no_action"),
    pytest.param("policy", {"params": {"occupations": []}},
                 "config error: params: need at least one occupation\n", id="policy-no_occupation"),
    pytest.param("mdp", {"params": {"transition": [[[0], [1e308]]]}},
                 "config error: params: transition: every element must be a whole number of magnitude "
                 "below 2**63\n", id="mdp-transition_past_int64"),
    pytest.param("gravity", {"params": {"production": {"a": 1e308, "k": 1e308}}},
                 "config error: params: output overflows: a=1e+308, k=1e+308, l=1.0\n",
                 id="gravity-output_overflows"),
])
def test_cli_scenario_errors_are_config_errors(module, extra, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal(module=module, **extra)))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("module, extra, problem", [
    ("mdp", {"seeds": 1}, "unknown key 'seeds'; did you mean 'seed'?"),
    ("mdp", {"output": {"paths": "a.json"}}, "output.unknown key 'paths'; did you mean 'path'?"),
    ("growth", {"params": {"horizn": 5}}, "params.unknown key 'horizn'; did you mean 'horizon'?"),
    ("policy", {"params": {"occupations": [{**OCCUPATION, "etas": 1.0}]}},
     "params: occupations.0.unknown key 'etas'; did you mean 'eta'?"),
    ("evt", {"params": {"family": "pareto", "family_params": {"shapes": 2.0}}},
     "params: family_params.unknown key 'shapes'; did you mean 'shape'?"),
    ("gravity", {"params": {"production": {"alphas": 0.5}}},
     "params: production.unknown key 'alphas'; did you mean 'alpha'?"),
], ids=["top", "output", "params", "occupation", "family_params", "production"])
def test_every_object_reports_an_unknown_key_alike(module, extra, problem, tmp_path, capsys):
    """Each JSON object of a scenario is read by `_params.read_block`: an
    unknown key gets one message, under the object's dotted path."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal(module=module, **extra)))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {problem}\n"


@pytest.mark.parametrize("params, message", [
    ({"k_draws": 100000000, "replicates": 100},
     "params.k_draws: must be <= 10000000, got 100000000"),
    ({"k_draws": 10000000, "replicates": 1001},
     "params: k_draws x replicates: 10000000 x 1001 draws are above the budget of 10000000000"),
    ({"k_draws": 1, "replicates": 1000001},
     "params.replicates: must be <= 1000000, got 1000001"),
], ids=["k_draws", "draw_budget", "replicates"])
def test_cli_evt_size_above_its_bounds_is_a_config_error(params, message, tmp_path, capsys):
    path = tmp_path / "evt.json"
    path.write_text(json.dumps(minimal(module="evt", params=params)))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert "Traceback" not in err
    assert not out.exists()


def test_evt_sizes_at_their_bounds_are_valid():
    from emt_lab.recombinant import MAX_DRAWS, MAX_K_DRAWS, MAX_REPLICATES

    for k_draws, replicates in ((MAX_K_DRAWS, MAX_DRAWS // MAX_K_DRAWS), (1, MAX_REPLICATES)):
        validate_config(minimal(module="evt", params={"k_draws": k_draws, "replicates": replicates}))


@pytest.mark.parametrize("module, bound", [("feedback", 10**6), ("gravity", 5 * 10**5)])
def test_horizon_at_its_bound_is_valid(module, bound):
    assert module_schema(module)["horizon"]["max"] == bound
    assert validate_config(minimal(module=module, params={"horizon": bound})).scenario.horizon == bound


@pytest.mark.parametrize("module, params", [
    ("growth", {"n_lines": 10**7, "horizon": 500}),
    ("growth", {"n_lines": 5000, "horizon": 10**6}),
    ("epistemic", {"n_problems": 5 * 10**6, "eta_rate": 0.0, "horizon": 100}),
    ("epistemic", {"n_problems": 0, "eta_rate": 400000.0, "dt": 0.125, "horizon": 100}),
    ("epistemic", {"n_problems": 7500, "eta_rate": 4.0, "dt": 0.125, "horizon": 25000}),
    ("epistemic", {"n_problems": 500, "eta_rate": 0.0, "horizon": 10**6}),
], ids=["growth_lines", "growth_horizon", "pool_start", "pool_arrivals", "pool_work",
        "epistemic_horizon"])
def test_growth_and_epistemic_sizes_at_their_bounds_are_valid(module, params):
    # every input sits exactly on its module's budget, most also on a maximum or the pool bound
    scenario = validate_config(minimal(module=module, params=params)).scenario
    assert {key: getattr(scenario, key) for key in params} == params


def test_gravity_work_at_its_budget_is_valid():
    from emt_lab.gravity import MAX_FLYWHEEL_WORK

    params = {"n_vec": [1.0] * 200, "d_mat": [[1.0] * 200] * 200, "p_vec": [1.0] * 200,
              "horizon": 5 * 10**5}
    scenario = validate_config(minimal(module="gravity", params=params)).scenario
    assert scenario.horizon * scenario.n_vec.size * scenario.p_vec.size == MAX_FLYWHEEL_WORK


def test_a_value_at_an_exclusive_upper_bound_is_rejected():
    with pytest.raises(ConfigError) as err:
        validate_config(minimal(module="mdp", params={"beta": 1.0}))
    assert err.value.problems == ["params.beta: must be < 1, got 1.0"]


def test_the_largest_double_is_a_finite_value():
    for kappa in (sys.float_info.max, int(sys.float_info.max)):  # an int is compared exactly
        assert validate_config(minimal(module="gravity", params={"kappa": kappa})).scenario.kappa == kappa


def test_mdp_max_iter_at_its_bound_is_valid():
    assert module_schema("mdp")["max_iter"]["max"] == 10**5
    assert validate_config(minimal(module="mdp", params={"max_iter": 10**5})).scenario.max_iter == 10**5


def test_cli_parser_is_reused_across_calls(tmp_path, capsys):
    # a cached parser must not carry one call's --seed into the next
    assert cli._build_parser() is cli._build_parser()
    path = tmp_path / "evt.json"
    path.write_text(json.dumps(minimal(module="evt", seed=11, params={"k_draws": 20, "replicates": 30})))
    assert main(["run", str(path), "--out", str(tmp_path / "a"), "--seed", "5"]) in (0, 1)
    assert main(["run", str(path), "--out", str(tmp_path / "b")]) in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    seeded = dataclasses.replace(load_config(str(path)), seed=5)
    assert f"digest={seeded.digest()[:12]}" in lines[0]
    assert f"digest={load_config(str(path)).digest()[:12]}" in lines[1]
    run_scenario(load_config(str(path)), out_dir=tmp_path / "c")
    runs = {d: (tmp_path / d / "t.json").read_bytes() for d in "abc"}
    assert runs["b"] == runs["c"] != runs["a"]
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == f"emt-lab {emt_lab.__version__}\n"
    assert main(["schema", "evt"]) == 0
    assert capsys.readouterr().out == json.dumps(module_schema("evt"), indent=2, sort_keys=True) + "\n"


def test_array_literal_too_large_for_a_float_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "t", "module": "gravity", "params": {"p_vec": [1e400, 1.0]}}')
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "p_vec: every element must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("module, key, value", [
    ("mdp", "rewards", [[True, 1.0]]),
    ("mdp", "shock_probs", [True]),
    ("mdp", "transition", [[[0], [False]]]),
    ("mdp", "legacy_policy", [True]),
    ("gravity", "n_vec", [True, 4, 3, 2, 1]),
    ("gravity", "d_mat", [[1.0, 2.0], [2.0, 1.0], [1.0, 1.5], [2.5, 2.0], [1.5, True]]),
    ("gravity", "p_vec", [1.0, False]),
])
def test_cli_bool_inside_a_number_array_is_a_config_error(module, key, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module=module, params={key: value})))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{key}: every element must be a number, not a bool" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_config_rejects_non_finite_array_elements():
    with pytest.raises(ConfigError) as err:
        validate_config(minimal(module="gravity", params={"d_mat": [[1.0, float("nan")]] * 5}))
    assert any("d_mat" in p for p in err.value.problems)


def test_cli_unwritable_artifact_is_a_runtime_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module="mdp", output={"path": "d"})))
    out = tmp_path / "out"
    (out / "d").mkdir(parents=True)
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert "runtime error: " in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"a0": 1e200, "phi_elast": 2.0}, {"a0": 1e200, "alpha_prod": 1e200}],
                         ids=["power_overflows", "product_overflows"])
def test_cli_knowledge_stock_overflow_is_a_runtime_error(params, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(params=params)))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "runtime error: knowledge stock p became non-finite: inf\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("module, params, message", [
    pytest.param("mdp", {"rewards": [[1e308, 1.0]]}, "value iteration: the values leave the float range",
                 id="mdp-values"),
    pytest.param("mdp", {"rewards": [[1.0, -1e308]], "legacy_policy": [1]},
                 "policy evaluation: the values leave the float range", id="mdp-legacy_values"),
    pytest.param("mdp", {"rewards": [[8e307, -8e307]], "beta": 0.5, "legacy_policy": [1]},
                 "the realtime surplus leaves the float range", id="mdp-surplus"),
    pytest.param("gravity", {"d_mat": [[1e-320, 2.0], [2.0, 1.0], [1.0, 1.5], [2.5, 2.0], [1.5, 1.0]]},
                 "flywheel: the flows or the potential energy U leave the float range",
                 id="gravity-distance_squared_is_zero"),
    pytest.param("gravity", {"p_vec": [1e308, 1.0]},
                 "flywheel: the flows or the potential energy U leave the float range",
                 id="gravity-flows"),
    pytest.param("gravity", {"n_vec": [1e308, 4.0, 3.0, 2.0, 1.0]},
                 "flywheel: the flows or the potential energy U leave the float range",
                 id="gravity-potential_energy"),
    pytest.param("growth", {"lambda_step": 1e308}, "inputs must be finite and >= 0, got a=inf",
                 id="growth-quality"),
    pytest.param("feedback", {"noise_sd": 1e308, "dt": 0.999999, "horizon": 3}, "loop diverged at step 1",
                 id="feedback-noise_kicks"),
    pytest.param("policy", {"occupations": [{**OCCUPATION, "w": 1e-320, "l_bar": 1e-320}]},
                 "could not bracket the budget multiplier", id="policy-multiplier_bound"),
    pytest.param("policy", {"occupations": [{**OCCUPATION, "l_bar": 1e308}] * 2},
                 "the objective leaves the float range", id="policy-objective"),
    pytest.param("growth", {"pi_flow": 1e308},
                 "incumbent value pi / (r + mu) overflows: 1e+308 / 0.05", id="growth-incumbent_value"),
])
def test_cli_values_past_the_float_range_are_runtime_errors(module, params, message, tmp_path, capsys):
    """Numpy's overflow warnings stay silent; the run says which result left the range."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module=module, params=params)))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"runtime error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_mdp_legacy_solve_out_of_sweeps_is_a_runtime_error(tmp_path, capsys):
    # With a legacy policy the one solve runs to 1e-12, which 200 sweeps at
    # beta 0.9 do not reach, though the scenario's own tol 1e-6 would be: two
    # absorbing states with rewards 0 and 1 narrow the bounds by exactly beta
    # per sweep, to 1e-6 in 153 sweeps and to 1e-12 in 285.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module="mdp", params={
        "rewards": [[0.0], [1.0]], "shock_probs": [1.0], "transition": [[[0]], [[1]]],
        "beta": 0.9, "tol": 1e-6, "legacy_policy": [0, 0], "max_iter": 200})))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "runtime error: value iteration did not converge in 200 iterations\n"
    assert not (tmp_path / "out").exists()


def test_cli_other_exceptions_are_internal_errors(monkeypatch, tmp_path, capsys):
    # numpy's Poisson draw rejecting its rate was the known case; the pool
    # bound now keeps eta_rate * dt far below where it does so
    def fail(scenario, seed):
        raise ValueError("lam value too large")

    monkeypatch.setattr(scenario_module("epistemic"), "run", fail)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal()))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "internal error: ValueError: lam value too large\n"


def test_cli_verify_other_exceptions_are_internal_errors(monkeypatch, capsys):
    def fail(artifact, path):
        raise KeyError("boom")

    monkeypatch.setattr(runner, "_write_artifact", fail)
    assert main(["verify"]) == 3
    assert capsys.readouterr().err == "internal error: KeyError: 'boom'\n"


def test_cli_verify_prints_a_run_report_line_per_bundled_scenario(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": wrote ")[0] for line in lines] == [cfg.name for _, cfg in bundled_scenarios()]
    assert all(" digest=" in line and "FAIL" not in line for line in lines)


def test_cli_knowledge_stock_power_overflow_without_growth_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(params={"a0": 1e200, "phi_elast": 2.0, "alpha_prod": 0})))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = list(csv.DictReader((tmp_path / "out" / "t.csv").open(newline="")))
    assert len(rows) == 201 and {row["P"] for row in rows} == {"0.0"}


def test_cli_verify_unwritable_artifact_is_a_runtime_error(monkeypatch, capsys):
    def refuse(artifact, path):
        raise PermissionError(f"cannot write {path}")

    monkeypatch.setattr(runner, "_write_artifact", refuse)
    assert main(["verify"]) == 3
    assert "runtime error: cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("at", [0, 1])
@pytest.mark.parametrize("odd_row", [None, [1.0, 2.0]], ids=["plain", "ragged"])
def test_csv_rows_of_floats_and_ints_are_written_as_fmt_writes_them(odd_row, at, tmp_path):
    """Each cell of a float or an int is its repr; a row with a cell missing
    leaves its column short, which raises before the file is made."""
    header = ["a", "b", "c"]
    rows = [[-0.0, float("inf"), float("nan")], [10**300, -(2**100), 0], [0.1, 1e-300, -7]]
    path = tmp_path / "a.csv"
    if odd_row is None:
        _write_artifact((header, [list(col) for col in zip(*rows)]), path)
        expected = [header] + [list(map(repr, row)) for row in rows]
        assert path.read_bytes() == "".join(",".join(row) + "\r\n" for row in expected).encode()
        return
    rows.insert(at, odd_row)
    columns = [[row[i] for row in rows if i < len(row)] for i in range(len(header))]
    with pytest.raises(TypeError):
        _write_artifact((header, columns), path)
    assert not path.exists()


def _contract_configs():
    configs = [(fname, cfg) for fname, cfg in bundled_scenarios() if cfg.output_format == "csv"]
    golden = [LARGE_POOL, LONG_POOL, NOISY_FEEDBACK, LONG_FLYWHEEL]
    return configs + [(cfg["name"], validate_config(cfg)) for cfg in golden]


def test_every_csv_artifact_keeps_the_cell_contract(tmp_path):
    """Every cell a module hands the writer is a Python int, float or str; in
    the written file each line splits on "," into one cell per column,
    csv.reader reads back the same cells, no cell holds a '"', and no cell is
    the str of a bool."""
    configs = _contract_configs()
    assert {cfg.module for _, cfg in configs} == {"epistemic", "feedback", "gravity", "growth"}
    for name, cfg in configs:
        artifact, _ = scenario_module(cfg.module).run(cfg.scenario, cfg.seed)
        assert {type(cell) for row in artifact[1] for cell in row} <= {int, float, str}, name
        path = tmp_path / f"{cfg.module}.csv"
        _write_artifact(artifact, path)
        text = path.read_bytes().decode("utf-8")
        assert text.endswith("\r\n"), name
        split = [line.split(",") for line in text[:-2].split("\r\n")]
        assert list(csv.reader(io.StringIO(text, newline=""))) == split, name
        assert {len(row) for row in split} == {len(artifact[0])}, name
        cells = {cell for row in split for cell in row}
        assert not {"True", "False"} & cells and not any('"' in cell for cell in cells), name


@pytest.mark.parametrize("path", ["../escape.json", "a/../../escape.json", "absolute", ".",
                                  "a\u0000.json"])
def test_cli_output_path_must_stay_inside_out(path, tmp_path, capsys):
    if path == "absolute":
        path = str(tmp_path / "out" / "escape.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module="mdp", output={"path": path})))
    out = tmp_path / "out" / "sub"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "output.path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_replaces_a_link_at_the_artifact_path_and_keeps_its_target(tmp_path):
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"not an artifact\n")
    artifact = tmp_path / "out" / "mdp_default.json"
    artifact.parent.mkdir()
    artifact.symlink_to("../outside.txt")
    assert main(["run", str(SCENARIO_DIR / "mdp_default.json"), "--out", str(tmp_path / "out")]) == 0
    assert outside.read_bytes() == b"not an artifact\n"
    assert artifact.is_file() and not artifact.is_symlink()
    assert hashlib.sha256(artifact.read_bytes()).hexdigest() == ARTIFACTS["mdp_default.json"]


def test_cli_directory_at_the_artifact_path_is_a_runtime_error(tmp_path, capsys):
    (tmp_path / "out" / "mdp_default.json").mkdir(parents=True)
    assert main(["run", str(SCENARIO_DIR / "mdp_default.json"), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "Traceback" not in err
    assert (tmp_path / "out" / "mdp_default.json").is_dir()


def test_cli_link_in_a_parent_part_is_a_runtime_error_and_writes_nothing(tmp_path, capsys):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "a").symlink_to("../elsewhere")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module="game", name="a/b")))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and repr(str(tmp_path / "out" / "a")) in err
    assert list(elsewhere.iterdir()) == []


def test_cli_file_in_a_parent_part_is_a_runtime_error_naming_its_path(tmp_path, capsys):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "a").write_bytes(b"a file\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module="game", name="a/b")))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and repr(str(tmp_path / "out" / "a")) in err
    assert (tmp_path / "out" / "a").read_bytes() == b"a file\n"


def test_cli_link_to_a_directory_inside_out_is_refused_too(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "real").mkdir(parents=True)
    (out / "x").mkdir()
    (out / "x" / "a").symlink_to("../real")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module="game", name="x/a/b")))
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert repr(str(out / "x" / "a")) in capsys.readouterr().err
    assert list((out / "real").iterdir()) == []


def test_cli_link_at_out_itself_is_followed_and_parts_are_made(tmp_path):
    (tmp_path / "real").mkdir()
    (tmp_path / "out").symlink_to("real")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module="game", name="a/b/c")))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "real" / "a" / "b" / "c.json").is_file()


@pytest.mark.parametrize("module, params, row0", [
    ("feedback", {"gamma0": 1, "o0": 0, "a0": 0, "horizon": 2}, "0.0,0.0,0.0,1.0,1.0"),
    ("growth", {"k0": 100, "l0": 2, "horizon": 2}, None),
], ids=["feedback", "growth"])
def test_cli_an_int_given_for_a_float_parameter_is_written_as_its_float(module, params, row0,
                                                                         tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module=module, params=params)))
    floats = {key: float(value) for key, value in params.items() if key != "horizon"}
    cfg_f = tmp_path / "cfg_f.json"
    cfg_f.write_text(json.dumps(minimal(module=module, name="f", params={**params, **floats})))
    assert main(["run", str(cfg), str(cfg_f), "--out", str(tmp_path / "out")]) == 0
    written = (tmp_path / "out" / "t.csv").read_bytes()
    assert written == (tmp_path / "out" / "f.csv").read_bytes()
    if row0 is not None:
        assert written.split(b"\r\n")[1] == row0.encode()
    scenario = validate_config(minimal(module=module, params=params)).scenario
    assert all(type(getattr(scenario, key)) is float for key in floats)


@pytest.mark.parametrize("content", [None, b"\xff\xfe{", b"[" * 100_000],
                         ids=["directory", "not_utf8", "nested_too_deeply"])
def test_cli_unreadable_config_is_a_config_error(content, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err


def _run_leaves_nothing(cfg, tmp_path, capsys, *args):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out" / "sub"), *args]) == 2
    assert list(tmp_path.rglob("*")) == [path]
    return capsys.readouterr().err


@pytest.mark.parametrize("text, keys", [
    ('{"name": "t", "module": "game", "seed": 1, "seed": 2, '
     '"params": {"horizon": 2, "horizon": 3}}', ["seed", "params.horizon"]),
    ('{"name": "t", "module": "policy", "params": {"occupations": '
     '[{"w": 1, "l_bar": 1, "eta": 1, "lambda_align": 1, "w": 2}]}}', ["params.occupations.0.w"]),
    ('{"name": "t", "module": "game", "params": {"horizon": 2, "horizon": 3}, "params": {}}',
     ["params", "params.horizon"]),
    pytest.param('{"a": ' * 899 + '{"k": 1, "k": 2}' + "}" * 899, ["a." * 899 + "k"],
                 id="nested_900_deep"),
    pytest.param('{"seed": 1, "seed": 2, "params": {"rewards": [["a", 1], ["a", 2]]}}', ["seed"],
                 id="not_in_an_array_of_pairs"),
], ids=["top_and_params", "in_a_list", "in_a_replaced_block", None, None])
def test_cli_duplicate_keys_are_config_errors(text, keys, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: {path}: duplicate key {key!r}" for key in keys]
    assert list(tmp_path.rglob("*")) == [path]


def test_cli_configs_writing_one_artifact_path_are_a_config_error(tmp_path, capsys):
    game, policy = tmp_path / "game.json", tmp_path / "policy.json"
    game.write_text(json.dumps({"name": "g", "module": "game", "output": {"path": "o/x.json"}}))
    policy.write_text(json.dumps({"name": "p", "module": "policy",
                                  "output": {"path": "o/./x.json"}}))
    assert main(["run", str(game), str(policy), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == (
        "", f"config error: {policy}: writes the artifact 'o/./x.json', as {game} does\n")
    assert not (tmp_path / "out").exists()


def test_cli_gravity_with_every_need_zero_is_a_config_error(tmp_path, capsys):
    err = _run_leaves_nothing(minimal(module="gravity", params={"n_vec": [0, 0.0, 0, 0, 0]}),
                              tmp_path, capsys)
    assert err == "config error: params: n_vec: need intensities must not all be zero\n"


@pytest.mark.parametrize("name", ["../../esc", "", "a\u0000b", "a/", "a//", ".", "a/.", "a/.."])
def test_cli_name_must_give_a_path_inside_out(name, tmp_path, capsys):
    err = _run_leaves_nothing({"name": name, "module": "growth"}, tmp_path, capsys)
    assert "config error: name: " in err


@pytest.mark.parametrize("raw, problem", [
    ({"module": "growth"}, "name: required"),
    ({"name": "t"}, "module: required"),
    ([{"name": "t", "module": "growth"}], "scenario must be a JSON object, got list"),
], ids=["no_name", "no_module", "array"])
def test_cli_malformed_scenario_is_a_config_error(raw, problem, tmp_path, capsys):
    err = _run_leaves_nothing(raw, tmp_path, capsys)
    assert f"config error: {problem}" in err.splitlines()


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
def test_cli_seed_override_is_validated(seed, tmp_path, capsys):
    err = _run_leaves_nothing(minimal(module="growth"), tmp_path, capsys, "--seed", seed)
    assert "config error: seed: must be " in err and seed in err


def test_name_with_a_directory_writes_inside_out(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "a/b", "module": "growth"}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "a" / "b.csv").is_file()


def test_replace_checks_the_config():
    cfg = validate_config(minimal(module="growth"))
    assert dataclasses.replace(cfg, seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ConfigError, match="seed: must be >= 0, got -1"):
        dataclasses.replace(cfg, seed=-1)


# A value of each schema type. A field is fed each that is not of its own
# type ("integer" rejects 2.5 too), so a bool meets every number, a string
# every object and array, and so on; and every field is fed the numbers that
# are not finite as a float.
TYPE_VALUES = {"number": 2.5, "string": "x", "boolean": True, "object": {"a": 1.0},
               "array": [1.0]}
NOT_FINITE = (float("nan"), float("inf"), float("-inf"), 10**400, np.float32("inf"))


@pytest.mark.parametrize("module", sorted(MODULES))
def test_a_file_and_direct_construction_reject_the_same_values(module):
    scenario, fed = scenario_module(module).Scenario, 0
    for name, spec in module_schema(module).items():
        wrong = [v for kind, v in TYPE_VALUES.items() if kind != spec["type"]] + list(NOT_FINITE)
        for value in wrong:
            with pytest.raises(EmtLabError) as direct:
                scenario(**{name: value})
            assert type(direct.value) in (InputError, DomainError), (name, value)
            with pytest.raises(ConfigError) as config:
                validate_config(minimal(module=module, params={name: value}))
            assert config.value.problems == [f"params.{direct.value}"], (name, value)
            fed += 1
    assert fed >= 8 * len(module_schema(module))


# A growth `params` value and the one problem a file holding it gives.
PARAMS_PROBLEMS = {
    "unknown_key": ({"bogus": 1}, "params.unknown key 'bogus'"),
    "wrong_type": ({"horizon": "5"}, "params.horizon: expected integer, got '5'"),
    "out_of_bounds": ({"psi": -1.0, "horizon": 0},
                      "params.psi: must be > 0, got -1.0; params.horizon: must be >= 1, got 0"),
}


@pytest.mark.parametrize("field, value, key, block", [
    ("name", 5, "name", {"name": 5}),
    ("output_path", 5, "output.path", {"output": {"path": 5}}),
    ("params", [], "params", {"params": []}),
    *(("params", value, name, {"params": value}) for name, (value, _) in PARAMS_PROBLEMS.items()),
])
def test_a_file_and_a_direct_scenario_config_reject_the_same_values(field, value, key, block):
    """A ScenarioConfig built directly or by dataclasses.replace gives the
    problems a file holding the same value gives, the file's `output.path`
    being the field `output_path`. `key` names a PARAMS_PROBLEMS row or the
    file's key."""
    if key in PARAMS_PROBLEMS:
        problems = PARAMS_PROBLEMS[key][1].split("; ")
    else:
        problems = [f"{key}: expected {'object' if field == 'params' else 'string'}, got {value!r}"]
    with pytest.raises(ConfigError) as config:
        validate_config({**minimal(module="growth"), **block})
    assert config.value.problems == problems
    in_python = [problem.replace("output.path", "output_path") for problem in problems]
    with pytest.raises(ConfigError) as direct:
        ScenarioConfig(**{"name": "t", "module": "growth", field: value})
    assert direct.value.problems == in_python
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(validate_config(minimal(module="growth")), **{field: value})
    assert replaced.value.problems == in_python


def test_no_scenario_imports_scipy(tmp_path):
    """scipy is a test dependency only: the nine bundled scenarios and a
    lognormal evt run leave it out of sys.modules."""
    lognormal = tmp_path / "lognormal.json"
    lognormal.write_text(json.dumps({"name": "lognormal", "module": "evt", "params": {
        "family": "lognormal", "k_draws": 100}}))
    paths = sorted(str(p) for p in SCENARIO_DIR.glob("*.json")) + [str(lognormal)]
    assert len(paths) == 10
    code = (
        "import sys\n"
        "from emt_lab import cli\n"
        f"assert cli.main(['run', *{paths!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = str(Path(emt_lab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _bench_module(name):
    """`bench/<name>.py`, loaded by path: bench/ is not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_wraps_attributes_that_exist():
    """Every (module, attribute) the benchmark's tracer wraps is on its
    emt_lab module, so a rename fails here and not only in the benchmark."""
    tracing = _bench_module("tracing")
    assert tracing.PATCHES
    for module, attr, _, _ in tracing.PATCHES:
        assert hasattr(importlib.import_module(f"emt_lab.{module}"), attr), (module, attr)


def test_bench_tiny_inputs_pass_the_bench_checks(tmp_path, capsys):
    """What the benchmark asks of every op, on each workload's --tiny inputs
    at seed 3: exit 0, the report line, a well-formed artifact (checks.py)
    and the same bytes on a second run."""
    workloads, checks = _bench_module("workloads"), _bench_module("checks")
    for workload in workloads.WORKLOADS:
        in_dir, out = tmp_path / workload / "inputs", tmp_path / workload / "out"
        in_dir.mkdir(parents=True)
        for scenario, data in workloads.generate(workload, 3, True, SCENARIO_DIR):
            path = in_dir / f"{scenario['name']}.json"
            path.write_bytes(data)
            artifact = out / checks.artifact_name(scenario)
            runs = []
            for _ in range(2):
                assert main(["run", str(path), "--out", str(out)]) == 0, (workload, path.name)
                assert capsys.readouterr().out.startswith(f"{scenario['name']}: wrote "), path.name
                runs.append(artifact.read_bytes())
            assert checks.check_artifact(scenario, runs[0]) is None, (workload, path.name)
            assert runs[1] == runs[0], (workload, path.name)
