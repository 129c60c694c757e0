"""Scenario inputs for the benchmark workloads, generated from a seed.

Every generated workload has 15 inputs laid out on a fixed grid of its cost
drivers (sizes evenly spaced over the stated range, the other drivers
assigned in a fixed rotation). The seed picks a small jitter on each size,
the MDPs' rewards and transitions and, except in epistemic_pool, the
per-input master seed. The other parameters of epistemic_pool and
feedback_trace come from a generator with a fixed seed (`fixed`), because
they shape the trajectories and with them the work of an op: drawn from the
run's seed, they changed a feedback artifact's size by about 1%. A fixed
grid keeps the cost mix the same from seed to seed, and an odd count of 15
puts the median and the 90th percentile of a whole number of passes in the
middle of one input's samples rather than on the edge between two.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

N_INPUTS = 15


def _grid(rng, lo: int, hi: int, jitter: float) -> list[int]:
    """N_INPUTS sizes evenly spaced over [lo, hi], each moved by up to jitter*(hi-lo)."""
    span = hi - lo
    out = []
    for x in np.linspace(lo, hi, N_INPUTS):
        x += rng.uniform(-jitter, jitter) * span
        out.append(int(round(min(hi, max(lo, x)))))
    return out


def _scenario(name: str, module: str, seed: int, params: dict) -> dict:
    return {"name": name, "module": module, "seed": seed, "params": params}


def epistemic_pool(rng, fixed, tiny: bool) -> list[dict]:
    """Horizon x emergence rate; the pool step rescans every problem ever created.

    An input's master seed is its grid position, not drawn: the pool's random
    arrivals moved one input's work, and with it the median op, by up to 8%
    from one draw to the next.
    """
    horizons = _grid(rng, *((20, 60) if tiny else (400, 1200)), jitter=0.01)
    out = []
    for i, horizon in enumerate(horizons):
        eta = (5.0, 10.0, 20.0)[i % 3]
        out.append(_scenario(
            f"epi{i:02d}_h{horizon}_eta{int(eta)}", "epistemic", i,
            {
                "horizon": horizon,
                "eta_rate": eta,
                "dt": 0.1,
                "n_problems": 10,
                "complexity_mean": round(float(fixed.uniform(1.5, 2.5)), 6),
                "lambda_align": round(float(fixed.uniform(0.8, 1.0)), 6),
                "a0": 1.0,
                "a_growth": 0.5,
            },
        ))
    return out


def mdp_solve(rng, fixed, tiny: bool) -> list[dict]:
    """Random finite MDPs; every other pair of inputs carries a legacy policy."""
    sizes = _grid(rng, *((5, 20) if tiny else (300, 1000)), jitter=0.01)
    out = []
    for i, n_s in enumerate(sizes):
        n_a, n_k = 2 + i % 3, 2 + i % 4
        beta = (0.9, 0.95)[i % 2]
        probs = rng.dirichlet(np.ones(n_k))
        params = {
            "rewards": np.round(rng.uniform(0.0, 1.0, (n_s, n_a)), 6).tolist(),
            "shock_probs": (probs / probs.sum()).tolist(),
            "transition": rng.integers(0, n_s, (n_s, n_a, n_k)).tolist(),
            "beta": beta,
            "tol": 1e-10,
        }
        if (i // 2) % 2 == 0:
            params["legacy_policy"] = rng.integers(0, n_a, n_s).tolist()
        out.append(_scenario(f"mdp{i:02d}_s{n_s}_a{n_a}_k{n_k}", "mdp",
                             int(rng.integers(2**32)), params))
    return out


def feedback_trace(rng, fixed, tiny: bool) -> list[dict]:
    """Undamped loops (theta_meta = 0) never settle, so expect_unstable holds."""
    horizons = _grid(rng, *((100, 300) if tiny else (6000, 18000)), jitter=0.01)
    out = []
    for i, horizon in enumerate(horizons):
        out.append(_scenario(
            f"fb{i:02d}_h{horizon}", "feedback", int(rng.integers(2**32)),
            {
                "gamma0": round(float(fixed.uniform(0.5, 2.0)), 6),
                "theta_meta": 0.0,
                "phi_gain": round(float(fixed.uniform(0.5, 2.0)), 6),
                "noise_sd": 0.01 if i % 2 else 0.0,
                "e_target": round(float(fixed.uniform(0.5, 1.5)), 6),
                "dt": 0.001,
                "horizon": horizon,
                "check_settled": True,
                "expect_unstable": True,
            },
        ))
    return out


GENERATED = {
    "epistemic_pool": epistemic_pool,
    "mdp_solve": mdp_solve,
    "feedback_trace": feedback_trace,
}
WORKLOADS = (*GENERATED, "bundled_mix")


def generate(workload: str, seed: int, tiny: bool, scenario_dir: Path) -> list[tuple[dict, bytes]]:
    """(scenario, file bytes) in visiting order; the same seed gives the same list.

    Generated inputs are visited in grid order, so that the allocator sees the
    same sequence of sizes whatever the seed. bundled_mix copies the bundled
    scenario files byte for byte and visits them in an order the seed fixes.
    """
    rng = np.random.default_rng(seed)
    if workload in GENERATED:
        scenarios = GENERATED[workload](rng, np.random.default_rng(0), tiny)
        return [(s, (json.dumps(s) + "\n").encode()) for s in scenarios]
    files = [p.read_bytes() for p in sorted(scenario_dir.glob("*.json"))]
    return [(json.loads(files[i]), files[i]) for i in rng.permutation(len(files))]
