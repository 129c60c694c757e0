"""Smoke test of the benchmark itself, at the smallest input sizes.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "src" / "emt_lab" / "scenarios"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_has_no_failures(workload, trace, section):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    def inputs(seed):
        return [data for _, data in workloads.generate(workload, seed, True, SCENARIOS)]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "bundled_mix", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_catch_a_wrong_artifact(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from emt_lab import cli

    mdp = next(s for s, _ in workloads.generate("mdp_solve", 1, True, SCENARIOS)
               if "legacy_policy" in s["params"])
    feedback = workloads.generate("feedback_trace", 1, True, SCENARIOS)[0][0]
    artifacts = {}
    for scenario in (mdp, feedback):
        path = tmp_path / f"{scenario['name']}.json"
        path.write_text(json.dumps(scenario))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        data = (tmp_path / "out" / checks.artifact_name(scenario)).read_bytes()
        assert checks.check_artifact(scenario, data) is None
        artifacts[scenario["module"]] = data

    doc = json.loads(artifacts["mdp"])
    doc["values"][0] += 1e-6
    assert "Bellman" in checks.check_artifact(mdp, json.dumps(doc).encode())
    doc = json.loads(artifacts["mdp"])
    doc["policy"] = [(a + 1) % 2 for a in doc["policy"]]
    assert "greedy" in checks.check_artifact(mdp, json.dumps(doc).encode())
    truncated = artifacts["feedback"].rsplit(b"\n", 2)[0] + b"\n"
    assert "CSV rows" in checks.check_artifact(feedback, truncated)
