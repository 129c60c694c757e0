"""Every setting a scenario file accepts changes what a run gives.

For each key of each module's schema, the table names a base config and one
valid value for the key. Run through `emt-lab run`, the variant must change the
artifact bytes, the embedded checks or the exit code. A setting that changes
nothing misleads whoever sets it: delete it, or give it a row that shows it
acts. The table must cover exactly the schema keys, so a new setting needs a
row here.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from emt_lab import InputError
from emt_lab.cli import main
from emt_lab.config import MODULES, module_schema, scenario_module

OCCUPATIONS = [
    {"w": 1.0, "l_bar": 1.0, "eta": 0.5, "lambda_align": 1.0},
    {"w": 2.0, "l_bar": 1.0, "eta": 2.0, "lambda_align": 3.0},
]

# Small runs of each module. "mdp_slow" has two absorbing states with rewards
# 0 and 1, so value iteration's bounds shrink by exactly beta per sweep and
# it needs some 280 sweeps, "feedback_checked" checks that its loop settles
# (it does not), "game_finite" searches with a finite penalty, and in
# "game_discounted" the discounted future decides whether all-D is an SPNE.
BASES = {
    "epistemic": ("epistemic", {"horizon": 120}),
    "growth": ("growth", {"n_lines": 50, "horizon": 20, "k0": 2.0}),
    "evt": ("evt", {"k_draws": 50, "replicates": 200}),
    "gravity": ("gravity", {}),
    "mdp": ("mdp", {"rewards": [[0.0, 1.0], [0.5, 0.2]], "shock_probs": [0.5, 0.5],
                    "transition": [[[0, 1], [1, 0]], [[0, 1], [1, 1]]]}),
    "mdp_slow": ("mdp", {"rewards": [[0.0], [1.0]], "shock_probs": [1.0],
                         "transition": [[[0]], [[1]]]}),
    "feedback": ("feedback", {"dt": 0.01, "horizon": 300}),
    "feedback_checked": ("feedback", {"dt": 0.01, "horizon": 3000, "check_settled": True,
                                      "theta_meta": 0.2, "gamma0": 2.0}),
    "game": ("game", {}),
    "game_finite": ("game", {"penalty_mode": "finite", "p_disc": 0.1}),
    "game_discounted": ("game", {"penalty_mode": "finite", "p_disc": 0.5, "payoff_victim": 0.9}),
    "policy": ("policy", {"occupations": OCCUPATIONS}),
}

# (module, key) -> (base, the key's value in the variant)
VARIANTS = {
    ("epistemic", "theta0"): ("epistemic", 2.0),
    ("epistemic", "p_bar"): ("epistemic", 4.0),
    ("epistemic", "eps_resid"): ("epistemic", 0.2),
    ("epistemic", "alpha_prod"): ("epistemic", 0.5),
    ("epistemic", "phi_elast"): ("epistemic", 2.0),
    ("epistemic", "c0"): ("epistemic", 3.0),
    ("epistemic", "alpha_cost"): ("epistemic", 0.5),
    ("epistemic", "theta_star"): ("epistemic", 0.9),
    ("epistemic", "lp"): ("epistemic", 2.0),
    ("epistemic", "a0"): ("epistemic", 2.0),
    ("epistemic", "a_growth"): ("epistemic", 0.1),
    ("epistemic", "p0"): ("epistemic", 1.0),
    ("epistemic", "dt"): ("epistemic", 0.05),
    ("epistemic", "horizon"): ("epistemic", 100),
    ("epistemic", "n_problems"): ("epistemic", 3),
    ("epistemic", "complexity_mean"): ("epistemic", 5.0),
    ("epistemic", "eta_rate"): ("epistemic", 4.0),
    ("epistemic", "lambda_align"): ("epistemic", 0.5),
    ("epistemic", "eps_floor"): ("epistemic", 0.5),
    ("growth", "alpha"): ("growth", 0.3),
    ("growth", "delta_r"): ("growth", 0.2),
    ("growth", "phi_r"): ("growth", 0.5),
    ("growth", "l_a"): ("growth", 2.0),
    ("growth", "a0"): ("growth", 2.0),
    ("growth", "k0"): ("growth", 3.0),
    ("growth", "l0"): ("growth", 2.0),
    ("growth", "n_lines"): ("growth", 60),
    ("growth", "lambda_step"): ("growth", 2.0),
    ("growth", "pi_flow"): ("growth", 2.0),
    ("growth", "psi"): ("growth", 0.25),
    ("growth", "r_rate"): ("growth", 0.1),
    ("growth", "delta_obs"): ("growth", 0.01),
    ("growth", "dt"): ("growth", 0.2),
    ("growth", "horizon"): ("growth", 10),
    ("evt", "k_draws"): ("evt", 60),
    ("evt", "replicates"): ("evt", 100),
    ("evt", "ks_threshold"): ("evt", 0.5),
    ("evt", "family"): ("evt", "uniform"),
    # K * survival(Z_K) is free of the family's parameters, so they move only
    # the rounding of the m-values
    ("evt", "family_params"): ("evt", {"rate": 3.7}),
    ("evt", "write_m_values"): ("evt", True),
    ("gravity", "n_vec"): ("gravity", [1.0, 2.0, 3.0, 4.0, 5.0]),
    ("gravity", "d_mat"): ("gravity", [[1.0, 3.0], [2.0, 1.0], [1.0, 1.5], [2.5, 2.0], [1.5, 1.0]]),
    ("gravity", "p_vec"): ("gravity", [2.0, 1.0]),
    ("gravity", "g_resp"): ("gravity", 0.0),
    ("gravity", "production"): ("gravity", {"a": 2.0}),
    ("gravity", "kappa"): ("gravity", 0.1),
    ("gravity", "horizon"): ("gravity", 40),
    ("gravity", "coverage_eps"): ("gravity", 2.5),
    ("gravity", "check_dominance"): ("gravity", True),
    ("mdp", "rewards"): ("mdp", [[0.0, 1.5], [0.5, 0.2]]),
    ("mdp", "shock_probs"): ("mdp", [0.25, 0.75]),
    ("mdp", "transition"): ("mdp", [[[0, 1], [1, 1]], [[0, 1], [1, 1]]]),
    ("mdp", "beta"): ("mdp", 0.5),
    ("mdp", "tol"): ("mdp_slow", 1e-3),
    ("mdp", "max_iter"): ("mdp_slow", 5),
    ("mdp", "legacy_policy"): ("mdp", [0, 0]),
    ("feedback", "gamma0"): ("feedback", 2.0),
    ("feedback", "theta_meta"): ("feedback", 0.2),
    ("feedback", "phi_gain"): ("feedback", 2.0),
    ("feedback", "noise_sd"): ("feedback", 0.01),
    ("feedback", "e_target"): ("feedback", 2.0),
    ("feedback", "dt"): ("feedback", 0.02),
    ("feedback", "horizon"): ("feedback", 200),
    ("feedback", "o0"): ("feedback", 0.5),
    ("feedback", "a0"): ("feedback", 0.5),
    ("feedback", "settle_threshold"): ("feedback_checked", 10.0),
    ("feedback", "check_settled"): ("feedback", True),
    ("feedback", "expect_unstable"): ("feedback_checked", True),
    ("game", "n_players"): ("game", 3),
    ("game", "payoff_cc"): ("game_finite", 5.0),
    ("game", "payoff_defector"): ("game_finite", 1.5),
    ("game", "payoff_victim"): ("game_finite", 1.5),
    ("game", "payoff_dd"): ("game_finite", -1.0),
    ("game", "p_disc"): ("game", 0.0),
    ("game", "delta_disc"): ("game_discounted", 0.3),
    ("game", "horizon"): ("game_discounted", 1),
    ("game", "penalty_mode"): ("game", "finite"),
    ("game", "omega"): ("game_finite", -50.0),
    ("game", "strategy_class"): ("game", "memory1"),
    ("policy", "occupations"): ("policy", OCCUPATIONS[:1]),
    ("policy", "budget"): ("policy", 1.0),
}


def _outcome(module: str, params: dict, tmp_path, capsys) -> tuple:
    """(exit code, embedded checks, artifact bytes) of one `emt-lab run`."""
    run_dir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    run_dir.mkdir()
    cfg = run_dir / "cfg.json"
    cfg.write_text(json.dumps({"name": "probe", "module": module, "params": params}))
    code = main(["run", str(cfg), "--out", str(run_dir / "out")])
    checks = re.findall(r"s \[(.*)\] digest=", capsys.readouterr().out)
    files = {p.name: p.read_bytes() for p in (run_dir / "out").glob("*")}
    return code, checks, files


def test_the_table_covers_every_setting():
    assert set(VARIANTS) == {(module, key) for module in MODULES for key in module_schema(module)}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_scenario_redeclares_no_field_of_its_parameter_type(module):
    # a Scenario adds run settings and checks; each parameter is declared once
    scenario = scenario_module(module).Scenario
    own = set(vars(scenario).get("__annotations__", {}))
    inherited = {f.name for base in scenario.__mro__[1:] if dataclasses.is_dataclass(base)
                 for f in dataclasses.fields(base)}
    assert not own & inherited


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_scenario_field_is_a_setting(module):
    # a field that no scenario file can set would be carried by every run
    # unread, or overwritten by it
    init = {f.name for f in dataclasses.fields(scenario_module(module).Scenario) if f.init}
    assert init == set(module_schema(module))


@pytest.mark.parametrize("module, key", sorted(VARIANTS))
def test_every_setting_acts(module, key, tmp_path, capsys):
    base, value = VARIANTS[module, key]
    base_module, params = BASES[base]
    assert base_module == module
    assert value != params.get(key, module_schema(module)[key]["default"])
    before = _outcome(module, params, tmp_path, capsys)
    after = _outcome(module, {**params, key: value}, tmp_path, capsys)
    assert before[0] in (0, 1) and after[0] != 2  # the variant is a valid config
    assert after != before


INT_AND_BOOL_FIELDS = sorted(
    (module, f.name, f.type) for module in MODULES
    for f in dataclasses.fields(scenario_module(module).Scenario)
    if f.init and f.type in ("int", "bool"))


@pytest.mark.parametrize("module, name, kind", INT_AND_BOOL_FIELDS)
def test_int_and_bool_fields_hold_their_type(module, name, kind):
    # an integer-valued float or a truthy string would otherwise build and
    # fail, or act, only in the run
    scenario = scenario_module(module).Scenario
    default = module_schema(module)[name]["default"]
    if kind == "int":
        wrong, right, expected = (2.5, float(default), True, "2"), np.int64(default), "integer"
    else:
        wrong, right, expected = ("no", 1, 0.0, None), np.bool_(not default), "boolean"
    for value in wrong:
        with pytest.raises(InputError, match=f"^{name}: expected {expected}, got "):
            scenario(**{name: value})
    assert getattr(scenario(**{name: right}), name) == right
