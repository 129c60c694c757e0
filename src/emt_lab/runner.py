"""Scenario dispatch and deterministic artifact writing.

A validated ScenarioConfig carries its module's Scenario; that module's
`run(scenario, seed)` returns the artifact (a JSON document as a dict, or a
CSV header and rows) plus a dict of named pass/fail checks. Artifacts are
written with stable formatting (shortest round-trip float repr, sorted JSON
keys, RFC-4180 CSV), so identical config + seed reproduces identical bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import chain
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


# Characters that make the excel CSV dialect quote a cell.
_QUOTED = frozenset(',"\r\n')
# Cell types whose %r is their CSV cell.
_PLAIN = frozenset((float, int))


def _fmt(value) -> str:
    """One CSV cell: shortest round-trip floats, lowercase booleans, and
    strings quoted as the excel dialect of `csv` quotes them."""
    if type(value) is float:  # the common case, kept fast
        return repr(value)
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is int:
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if _QUOTED.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _plain_rows(rows, k: int) -> bool:
    """Whether every row has k cells, each exactly a float or an int. The
    first row settles most other artifacts before every cell is scanned."""
    if rows and not set(map(type, rows[0])) <= _PLAIN:
        return False
    return set(map(type, chain.from_iterable(rows))) <= _PLAIN and all(len(row) == k for row in rows)


def _write_artifact(artifact, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(artifact, dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        header, rows = artifact
        k = len(header)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(map(_fmt, header)) + "\r\n")
            if _plain_rows(rows, k):  # %r of a float or an int is its _fmt cell
                line = ",".join(["%r"] * k) + "\r\n"
                fh.writelines(line % tuple(row) for row in rows)
            else:
                fh.writelines(",".join(map(_fmt, row)) + "\r\n" for row in rows)


def run_scenario(cfg: ScenarioConfig, out_dir: str = ".") -> RunReport:
    """Dispatch a validated scenario, write its artifact, return the report."""
    start = time.perf_counter()
    artifact, checks = scenario_module(cfg.module).run(cfg.scenario, cfg.seed)
    path = Path(out_dir) / cfg.artifact_path
    _write_artifact(artifact, path)
    return RunReport(
        name=cfg.name,
        wall_time=time.perf_counter() - start,
        artifact_paths=(str(path),),
        checks=checks,
        version=__version__,
        config_digest=cfg.digest(),
    )
