"""Independent checks of one artifact against the scenario that produced it.

The benchmark runs these on the first (warm-up) run of every input; later
runs of the same input must then reproduce those bytes exactly.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

CSV_HEADERS = {
    "epistemic": ["t", "P", "theta", "C", "pi", "inverted", "R", "pool_size", "surplus"],
    "growth": ["t", "A", "Q", "K", "L", "Y", "g", "mu", "V"],
    "gravity": ["t", "mode", "U", "coverage", "Y"],
    "feedback": ["t", "O", "A", "gamma", "eps"],
}
JSON_KEYS = {
    "evt": {"family", "K", "replicates", "mean", "ks", "pass"},
    "mdp": {"values", "policy", "iterations", "residual"},
    "game": {"all_c_is_spne", "all_d_is_spne", "n_equilibria", "equilibria",
             "all_c_continuity_prob"},
    "policy": {"s_star", "objective", "spend", "multiplier"},
}
# Rows of data per (horizon + 1): gravity writes a blind and an aligned row.
ROWS_PER_STEP = {"epistemic": 1, "growth": 1, "gravity": 2, "feedback": 1}


def artifact_name(scenario: dict) -> str:
    fmt = "csv" if scenario["module"] in CSV_HEADERS else "json"
    return f"{scenario['name']}.{fmt}"


def check_artifact(scenario: dict, data: bytes) -> str | None:
    """None when the artifact is well formed, else what is wrong with it."""
    module, params = scenario["module"], scenario["params"]
    if module in CSV_HEADERS:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        if not rows or rows[0] != CSV_HEADERS[module]:
            return f"CSV header {rows[0] if rows else None}"
        expected = ROWS_PER_STEP[module] * (params["horizon"] + 1)
        if len(rows) - 1 != expected:
            return f"{len(rows) - 1} CSV rows, expected {expected}"
        if any(len(row) != len(rows[0]) for row in rows):
            return "ragged CSV rows"
        return None
    doc = json.loads(data)
    missing = JSON_KEYS[module] - doc.keys()
    if missing:
        return f"missing JSON keys {sorted(missing)}"
    if module == "mdp":
        return _check_mdp(params, doc)
    return None


def _check_mdp(params: dict, doc: dict) -> str | None:
    """Bellman residual of the written values <= tol, and the policy is greedy."""
    rewards = np.asarray(params["rewards"], dtype=float)
    probs = np.asarray(params["shock_probs"], dtype=float)
    trans = np.asarray(params["transition"], dtype=int)
    v = np.asarray(doc["values"], dtype=float)
    policy = np.asarray(doc["policy"], dtype=int)
    n_s = rewards.shape[0]
    if v.shape != (n_s,) or policy.shape != (n_s,):
        return f"values/policy length {v.size}/{policy.size}, expected {n_s}"
    if params.get("legacy_policy") is not None and len(doc.get("realtime_surplus", ())) != n_s:
        return "realtime_surplus missing or of the wrong length"
    tol = params["tol"]
    q = rewards + params["beta"] * (v[trans] * probs).sum(axis=2)
    residual = float(np.max(np.abs(q.max(axis=1) - v)))
    if residual > tol:
        return f"Bellman residual {residual:.3g} > tol {tol:.3g}"
    gap = float(np.max(q.max(axis=1) - q[np.arange(n_s), policy]))
    if gap > tol:
        return f"policy not greedy: gap {gap:.3g} > tol {tol:.3g}"
    return None
