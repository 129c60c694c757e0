"""Golden digests: the bytes of every bundled artifact, of two large-pool
epistemic artifacts, of one noisy feedback artifact, of four evt artifacts
with their m-values (every family but the bundled exponential), of feedback
trajectories under a callable target, of random mdp
artifacts with a legacy policy, of game searches past the bundled size, of a
long gravity flywheel, of every schema printout and every bundled config
digest, pinned across versions.

Criterion 13 only compares two reruns of one version; these digests hold the
bytes fixed from one change to the next. A digest that moves on purpose is
updated here, with the reason recorded in CHANGES.md.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from emt_lab.cli import bundled_scenarios, main
from emt_lab.config import validate_config
from emt_lab.feedback import FeedbackParams, simulate_loop
from emt_lab.runner import run_scenario

ARTIFACTS = {
    "epistemic_default.csv": "4d07c2fe0ed51bb263eddfca97e6b95c2d07300ba24e6831e018e1aceb9b4b80",
    "evt_exponential.json": "7e61e6c61170911b3f537a3391dad99df88cdf00d3146e7c0abd44f5386683b0",
    "feedback_default.csv": "69844de7fc5d2dee005a24afd4a25a2ca5eec58bcd1339ca200505fb0f0d15a5",
    "feedback_unstable.csv": "55ae974cd3dacab0667d3a86da5c8fb0b8912a29855912293496de5b33971643",
    "flywheel_default.csv": "e403eb646ded2fa4387c344d34ce8173d976452504803eedd24ccd4ed727a626",
    "game_default.json": "b39d7c295d460e5effe2d65372b0e0b6175c14794ec3d6003f1193128b14b6a5",
    "growth_default.csv": "5ae8f8de10b439b457c2cedaf6f3e8ad66be12200dd3707dedcbe26eedf0973f",
    "mdp_default.json": "465fda5843ec238d4bde923c4f11b92bb66fbecdaa0b5b02f0a04d3df4afdaa2",
    "policy_default.json": "9bbaebbc7ae3048b327ab3dd9d7f4f77c6e24a3531c8ec78a124bf89305c0bae",
}

# The bundled epistemic scenario keeps a pool of about ten problems; this one
# creates some 2,400 and resolves most of them, so resolutions, arrivals and
# the mean complexity of the whole pool all shape its bytes.
LARGE_POOL = {
    "name": "large_pool",
    "module": "epistemic",
    "seed": 7,
    "params": {"horizon": 1200, "eta_rate": 20, "dt": 0.1, "n_problems": 10,
               "complexity_mean": 2.0, "lambda_align": 0.9},
}
LARGE_POOL_DIGEST = "751714f0632bb2c5fe9659e963446c2124b0a430ac63da5d0b33b6f3db36572f"

# Some 16,000 problems over 8,000 steps: the mean complexity of arrivals
# divides a running sum over up to 16,000 values, added in creation order, so
# its rounding error has the most steps to build up.
LONG_POOL = {
    "name": "long_pool",
    "module": "epistemic",
    "seed": 7,
    "params": {"horizon": 8000, "eta_rate": 20, "dt": 0.1, "n_problems": 10,
               "complexity_mean": 2.0, "lambda_align": 0.9},
}
LONG_POOL_DIGEST = "e1288b1bafda2b4cf56e24e2cfe1bad88144cba1fdbbeff5c5d02776fa22470e"

# Neither bundled feedback scenario has noise or meta-learning; this one has
# both, so the order and values of the normal draws shape its bytes.
NOISY_FEEDBACK = {
    "name": "noisy_feedback",
    "module": "feedback",
    "seed": 5,
    "params": {"noise_sd": 0.02, "theta_meta": 0.4, "dt": 0.01, "horizon": 3000},
}
NOISY_FEEDBACK_DIGEST = "ec4e28a70a8006309526204b8e724ba71b808e184296162f8ceb3360e24d5cce"

# No bundled evt scenario writes its m-values; this one does, so the report
# and the m-value list must both come from the same draws.
EVT_M_VALUES = {
    "name": "evt_m_values",
    "module": "evt",
    "seed": 9,
    "params": {"family": "pareto", "k_draws": 200, "replicates": 300, "write_m_values": True},
}
EVT_M_VALUES_DIGEST = "de00f181b02b65450e58b81bac491b0e0658671d93ecff92a462d5af4817e58b"

# The m-values of the other three families, drawn as EVT_M_VALUES draws.
# Their survival functions go through numpy's clip, exp and power and, for
# lognormal, numpy's log and libm's `erfc`, so a change to either (ROADMAP
# item 2) shows here family by family.
EVT_FAMILY_DIGESTS = {
    "lognormal": "18dac0474a13189d8cb279b57235c3ea1b8f872938bec0ea48b33474e0d81d64",
    "uniform": "baa3119c9ffdc4378ad9215618a52d0bab5e2c203419d6b72b1c5362d113e7d8",
    "weibull": "1cbdcf5dfe82a62d0c5356e54d81a90ac06ea1ac125eda53c0e0174135e3c6bd",
}

# A callable e_target cannot come from a JSON config; the repr of every state
# pins the trajectory it drives, with and without noise. Each state is hashed
# in the format these digests were first taken in, a NamedTuple's repr.
CALLABLE_TARGET_DIGESTS = {
    0.0: "ab24b2edff2437117ed53003f07f32bdbd3371f83dc2a4caefd741e8734cc970",
    0.02: "1d77bb58cbb6789b52f7e7e591ff2128b3fe4f8141c19f58f7fde90a6d76f6b2",
}

# Random MDPs with a legacy policy. Such a run solves value iteration once, to
# the tighter of `tol` and the surplus tolerance 1e-12, and both the report
# and the real-time surplus come from that solve: `tol` 1e-10 and 1e-12 give
# the same solve, and 1e-14 a tighter one, which runs until the rounded sweep
# stops moving. The first is the size of a benchmark input.
RANDOM_MDP_DIGESTS = {
    (600, 0.95, 1e-10): "e88b69d35290dd91d6849cdc412458b072c7a21a8fa6900a500beb7818e0fc9a",
    (50, 0.9, 1e-12): "648edc3c036b884165d4a5a90f254bf143d3cbcde50b8403e4a87ff5a9ad92c3",
    (50, 0.9, 1e-14): "d8f4c361385730825ecd02bdfb0e6895e437f273d1fd14bb961037e069915fd5",
}
# The sha256 of json.dumps of the first one's `realtime_surplus` list.
RANDOM_MDP_SURPLUS_DIGEST = "9f5be00222ca2aa5ae05370ef25d203d03385a979f1f6fc7aef3aecc43123074"

# The bundled game is memory1 at horizon 2; these search the constant class
# with 3 players over 6 rounds (snowdrift payoffs, so some equilibria are
# asymmetric) and memory1 over 3 rounds, in both penalty modes. The digests
# were computed by the full walk over every history.
SNOWDRIFT = {"payoff_cc": 2.0, "payoff_defector": 3.0, "payoff_victim": 1.0, "payoff_dd": 0.0}
GAME_SEARCHES = {
    ("constant", "finite"): (
        {**SNOWDRIFT, "n_players": 3, "horizon": 6, "strategy_class": "constant",
         "penalty_mode": "finite", "p_disc": 0.05, "omega": -5.0},
        "f96b26af1895a6a5406a35bce6845872286fd7f3b18decd089f5b40829223e3c"),
    ("constant", "lexicographic"): (
        {**SNOWDRIFT, "n_players": 3, "horizon": 6, "strategy_class": "constant",
         "penalty_mode": "lexicographic", "p_disc": 1.0},
        "d22b6901dd456485c82ee81175bc737b1245349b5b01fa9b3785157416c303c0"),
    ("memory1", "finite"): (
        {"horizon": 3, "strategy_class": "memory1", "penalty_mode": "finite",
         "p_disc": 0.2, "delta_disc": 0.5, "omega": -5.0},
        "3ad9e3f83f3ba0222e872793e5cf19436cd1023fe9c3ff06d79bd2cd40053d38"),
    ("memory1", "lexicographic"): (
        {"horizon": 3, "strategy_class": "memory1", "penalty_mode": "lexicographic",
         "p_disc": 1.0},
        "24064159900f8062c17dd4d162d479366d26763552bd95f1faa95cacca5d4255"),
}

# The bundled flywheel runs 5 needs x 2 sectors for 50 steps at g_resp 1; this
# one runs 9 needs x 3 sectors (so the sum over needs takes numpy's unrolled
# pairwise path) for 5,000 steps at g_resp 0.7. The aligned economy drains
# every need, so the clamp at zero and the uniform fallback shape its bytes.
LONG_FLYWHEEL = {
    "name": "long_flywheel",
    "module": "gravity",
    "params": {
        "n_vec": [9.0, 7.5, 6.0, 5.5, 4.0, 3.25, 2.5, 1.75, 0.5],
        "d_mat": [[1.0, 2.0, 3.0], [2.0, 1.0, 1.5], [1.0, 1.5, 2.5], [2.5, 2.0, 0.5],
                  [1.5, 1.0, 2.0], [3.0, 0.75, 1.25], [0.8, 2.2, 1.7], [1.9, 2.4, 0.6],
                  [2.7, 1.1, 3.3]],
        "p_vec": [1.0, 0.6, 1.4],
        "g_resp": 0.7,
        "production": {"a": 1.2, "k": 2.0, "l": 0.5, "alpha": 0.3},
        "kappa": 0.012,
        "horizon": 5000,
        "coverage_eps": 0.01,
    },
}
LONG_FLYWHEEL_DIGEST = "f7d41459501c90653f921f0805fd0de067c47c300c7cb9fab0e96008cebcafa1"

SCHEMAS = {
    "epistemic": "fceeacc27be2a6acd35b0b8ff3ba865a835039d9bff013645d6b9514d8dae635",
    "growth": "6bf4ace17150cc6fe3651c3334d252ca2c700c3d5f4868557d1bf0baa38dbf19",
    "evt": "ba325405b39f9e54b397ed1f2a3a76d21fe3d858d4413c497b930c07b5d8f07e",
    "gravity": "d622c38043bab79d9479b55aa01a3904364eb5e9fa06084f0c1963b76d0002ca",
    "mdp": "b44aa11a4d98919c2b7b9e2b83c3f08a0d00bb23e21a3e30f5f0343ed0269b3e",
    "feedback": "7a51a0dc0255f12a716ce0b7d0f41da9e6af89a17131a42eb488bddf403780bc",
    "game": "3fd3b2225da445e4a9b4703541efdd97eec4ec898e64807013ed71ff63a26d9f",
    "policy": "abaa5ae6200cb7bf11cb0eaf58038afc4286a8b2ca7e7918a143976f0758d3fb",
}

CONFIG_DIGESTS = {
    "epistemic_default.json": "ef016b6d3ad8ae409a40291447a2e1b6a1ca962cf5e23b3047a28267fbd19714",
    "evt_exponential.json": "a66bce28d7f68a0b2f09655900e6be26405c2c799be5311ba7c6c3a7022106f9",
    "feedback_default.json": "1d89de453d4ede38bbcd7f7bad748399b729568474b51206fc9177af63820199",
    "feedback_unstable.json": "c5397c7b0b90e68e17061c6183bebf39a10e71dfc5a672af3b6d4c95529897de",
    "flywheel_default.json": "f2d2649d39479e12f3b3b92f5c67c7a688e4a6f99cc9c3281de12cefd265b14f",
    "game_default.json": "9982289c4bb2eecfd27b882f3e37e64c4974560857c3aa5023d4e7ce5525c8d8",
    "growth_default.json": "d9e60bd98313b6a83f2156f923632aac0ce8174a06156245bf2f59e6a32be37e",
    "mdp_default.json": "0c010c0ddfa96061ab9b4ea466f0227d0f9e9a4c3950f0edbc2c52f5e5e2a747",
    "policy_default.json": "fdf7e6dcdf27bd899064167aa9b5a4ae46e482928a2bcc67f90667e999f1bcbe",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_bundled_artifact_bytes(tmp_path):
    digests = {}
    for _, cfg in bundled_scenarios():
        report = run_scenario(cfg, out_dir=str(tmp_path))
        path = Path(report.artifact_path)
        digests[path.name] = _sha256(path.read_bytes())
    assert digests == ARTIFACTS


def test_large_pool_epistemic_artifact_bytes(tmp_path):
    report = run_scenario(validate_config(LARGE_POOL), out_dir=str(tmp_path))
    assert _sha256(Path(report.artifact_path).read_bytes()) == LARGE_POOL_DIGEST


def test_long_pool_epistemic_artifact_bytes(tmp_path):
    report = run_scenario(validate_config(LONG_POOL), out_dir=str(tmp_path))
    assert _sha256(Path(report.artifact_path).read_bytes()) == LONG_POOL_DIGEST


def test_noisy_feedback_artifact_bytes(tmp_path):
    report = run_scenario(validate_config(NOISY_FEEDBACK), out_dir=str(tmp_path))
    assert _sha256(Path(report.artifact_path).read_bytes()) == NOISY_FEEDBACK_DIGEST


def test_evt_m_values_artifact_bytes(tmp_path):
    report = run_scenario(validate_config(EVT_M_VALUES), out_dir=str(tmp_path))
    assert _sha256(Path(report.artifact_path).read_bytes()) == EVT_M_VALUES_DIGEST


@pytest.mark.parametrize("family", sorted(EVT_FAMILY_DIGESTS))
def test_evt_family_m_values_artifact_bytes(family, tmp_path):
    cfg = {**EVT_M_VALUES, "params": {**EVT_M_VALUES["params"], "family": family}}
    report = run_scenario(validate_config(cfg), out_dir=str(tmp_path))
    assert _sha256(Path(report.artifact_path).read_bytes()) == EVT_FAMILY_DIGESTS[family]


@pytest.mark.parametrize("noise_sd", sorted(CALLABLE_TARGET_DIGESTS))
def test_callable_target_trajectory(noise_sd):
    params = FeedbackParams(e_target=lambda t: 1 + 0.1 * math.sin(3 * t), noise_sd=noise_sd,
                            theta_meta=0.4, dt=0.01, horizon=3000)
    traj = simulate_loop(params, 5)
    fmt = "FeedbackState(t=%r, o_val=%r, a_sig=%r, gamma=%r, eps_err=%r)"
    text = "\n".join(fmt % state for state in traj)
    assert _sha256(text.encode()) == CALLABLE_TARGET_DIGESTS[noise_sd]


def _random_mdp_config(n_states, beta, tol, n_actions=3, n_shocks=3, seed=2025):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_shocks))
    probs[-1] = 1.0 - probs[:-1].sum()
    return {
        "name": "random_mdp",
        "module": "mdp",
        "seed": seed,
        "params": {
            "rewards": rng.uniform(0.0, 1.0, (n_states, n_actions)).tolist(),
            "shock_probs": probs.tolist(),
            "transition": rng.integers(0, n_states, (n_states, n_actions, n_shocks)).tolist(),
            "beta": beta,
            "tol": tol,
            "legacy_policy": rng.integers(0, n_actions, n_states).tolist(),
        },
    }


@pytest.mark.parametrize("n_states, beta, tol", sorted(RANDOM_MDP_DIGESTS))
def test_random_mdp_artifact_bytes(n_states, beta, tol, tmp_path):
    cfg = validate_config(_random_mdp_config(n_states, beta, tol))
    report = run_scenario(cfg, out_dir=str(tmp_path))
    digest = _sha256(Path(report.artifact_path).read_bytes())
    assert digest == RANDOM_MDP_DIGESTS[n_states, beta, tol]


def test_random_mdp_surplus_bytes(tmp_path):
    cfg = validate_config(_random_mdp_config(600, 0.95, 1e-10))
    report = run_scenario(cfg, out_dir=str(tmp_path))
    surplus = json.loads(Path(report.artifact_path).read_bytes())["realtime_surplus"]
    assert _sha256(json.dumps(surplus).encode()) == RANDOM_MDP_SURPLUS_DIGEST


def _subprocess_env(**settings) -> dict:
    """This process's environment with `settings` added and src on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **settings, "PYTHONPATH": src if not path else src + os.pathsep + path}


def _mdp_goldens() -> list:
    """(config, golden digest) of every mdp golden."""
    return [({**_random_mdp_config(*key), "name": f"random_mdp{i}"}, RANDOM_MDP_DIGESTS[key])
            for i, key in enumerate(sorted(RANDOM_MDP_DIGESTS))
            ] + [("mdp_default.json", ARTIFACTS["mdp_default.json"])]


EPISTEMIC_GOLDENS = [(LARGE_POOL, LARGE_POOL_DIGEST), (LONG_POOL, LONG_POOL_DIGEST),
                     ("epistemic_default.json", ARTIFACTS["epistemic_default.csv"])]

FEEDBACK_GOLDENS = [(NOISY_FEEDBACK, NOISY_FEEDBACK_DIGEST),
                    ("feedback_default.json", ARTIFACTS["feedback_default.csv"]),
                    ("feedback_unstable.json", ARTIFACTS["feedback_unstable.csv"])]

OTHER_GOLDENS = [
    ("flywheel_default.json", ARTIFACTS["flywheel_default.csv"]),
    ("growth_default.json", ARTIFACTS["growth_default.csv"]),
    ("game_default.json", ARTIFACTS["game_default.json"]),
    ("policy_default.json", ARTIFACTS["policy_default.json"]),
    (LONG_FLYWHEEL, LONG_FLYWHEEL_DIGEST),
] + [({"name": f"game_{strategy_class}_{mode}", "module": "game", "params": params}, digest)
     for (strategy_class, mode), (params, digest) in sorted(GAME_SEARCHES.items())]


def _golden_digests_in_a_subprocess(tmp_path, env: dict, goldens: list) -> tuple[dict, dict]:
    """`goldens`, (config, golden digest) pairs, run by `python -m emt_lab.cli
    run` under `env`: the digests written and the golden digests, each by
    config name. A config given as a file name is a bundled scenario."""
    paths, expected = [], {}
    for cfg, digest in goldens:
        if isinstance(cfg, str):
            paths.append(resources.files("emt_lab") / "scenarios" / cfg)
            cfg = json.loads(paths[-1].read_text())
        else:
            paths.append(tmp_path / f"{cfg['name']}.json")
            paths[-1].write_text(json.dumps(cfg))
        expected[cfg["name"]] = digest
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "emt_lab.cli", "run", *map(str, paths),
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    written = {path.stem: _sha256(path.read_bytes()) for path in out.iterdir()}
    return written, expected


def test_mdp_artifact_bytes_on_one_blas_thread(tmp_path):
    # OPENBLAS_NUM_THREADS is read when numpy loads, so the one-thread run
    # needs its own process. The bytes must not depend on the thread count.
    env = _subprocess_env(OPENBLAS_NUM_THREADS="1")
    written, expected = _golden_digests_in_a_subprocess(tmp_path, env, _mdp_goldens())
    assert written == expected


def _env_without_simd_dispatch() -> dict:
    """An environment in which numpy dispatches to none of the SIMD targets it
    would use on this host, so it runs its baseline loops, as on a host
    without those targets."""
    probe = ("from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__;"
             "print(' '.join(t for t in __cpu_dispatch__ if __cpu_features__[t]))")
    dispatched = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                check=True, timeout=60).stdout.strip()
    env = _subprocess_env(NPY_DISABLE_CPU_FEATURES=dispatched)
    left = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True, timeout=60).stdout.strip()
    assert left == ""
    return env


# The evt goldens are not in any slice: numpy's dispatched exp, power and log
# move their m-values by a few ULP.
SLICES = {
    "mdp": _mdp_goldens(),
    "epistemic": EPISTEMIC_GOLDENS,
    "feedback": FEEDBACK_GOLDENS,
    "gravity_growth_game_policy": OTHER_GOLDENS,
}


@pytest.mark.parametrize("slice_name", sorted(SLICES))
def test_artifact_bytes_without_simd_dispatch(slice_name, tmp_path):
    env = _env_without_simd_dispatch()
    written, expected = _golden_digests_in_a_subprocess(tmp_path, env, SLICES[slice_name])
    assert written == expected


@pytest.mark.parametrize("slice_name", ["epistemic", "gravity_growth_game_policy", "mdp"])
def test_artifact_bytes_under_generic_libm(slice_name, tmp_path):
    """The goldens with glibc's libm chosen as on a host without AVX2 or FMA
    (glibc 2.36's spelling of the tunable; other glibc versions ignore it).

    The feedback slice is left out because two of its goldens change there:
    noisy_feedback and feedback_unstable. The gamma update squares eps as
    `eps**2`, a C `pow` whose last bit depends on the libm variant. Writing
    the squares as products is an announced digest change (ROADMAP item 2).
    """
    env = _subprocess_env(GLIBC_TUNABLES="glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX512F")
    written, expected = _golden_digests_in_a_subprocess(tmp_path, env, SLICES[slice_name])
    assert written == expected


@pytest.mark.parametrize("strategy_class, mode", sorted(GAME_SEARCHES))
def test_game_search_artifact_bytes(strategy_class, mode, tmp_path):
    params, digest = GAME_SEARCHES[strategy_class, mode]
    cfg = validate_config({"name": "game", "module": "game", "params": params})
    report = run_scenario(cfg, out_dir=str(tmp_path))
    assert _sha256(Path(report.artifact_path).read_bytes()) == digest


def test_long_flywheel_artifact_bytes(tmp_path):
    report = run_scenario(validate_config(LONG_FLYWHEEL), out_dir=str(tmp_path))
    assert _sha256(Path(report.artifact_path).read_bytes()) == LONG_FLYWHEEL_DIGEST


@pytest.mark.parametrize("module", sorted(SCHEMAS))
def test_schema_output_bytes(module, capsys):
    assert main(["schema", module]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == SCHEMAS[module]


def test_bundled_config_digests():
    assert {fname: cfg.digest() for fname, cfg in bundled_scenarios()} == CONFIG_DIGESTS
