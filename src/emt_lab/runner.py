"""Scenario dispatch and deterministic artifact writing.

A validated ScenarioConfig carries its module's Scenario; that module's
`run(scenario, seed)` returns the artifact (a JSON document as a dict, or a
CSV header and rows) plus a dict of named pass/fail checks. Artifacts are
written with stable formatting (shortest round-trip float repr, sorted JSON
keys, RFC-4180 CSV), so identical config + seed reproduces identical bytes.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, scenario_module


@dataclass(frozen=True)
class RunReport:
    """What happened when a scenario ran."""

    name: str
    wall_time: float
    artifact_paths: tuple
    checks: dict
    version: str
    config_digest: str

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _fmt(value) -> str:
    if type(value) is float:  # the common case, kept fast
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_artifact(artifact, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(artifact, dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        header, rows = artifact
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])


def run_scenario(cfg: ScenarioConfig, out_dir: str = ".") -> RunReport:
    """Dispatch a validated scenario, write its artifact, return the report."""
    start = time.perf_counter()
    artifact, checks = scenario_module(cfg.module).run(cfg.scenario, cfg.seed)
    path = Path(out_dir) / (cfg.output_path or f"{cfg.name}.{cfg.output_format}")
    _write_artifact(artifact, path)
    return RunReport(
        name=cfg.name,
        wall_time=time.perf_counter() - start,
        artifact_paths=(str(path),),
        checks=checks,
        version=__version__,
        config_digest=cfg.digest(),
    )
