"""Scenario dispatch and deterministic artifact writing.

A validated ScenarioConfig carries its module's Scenario; that module's
`run(scenario, seed)` returns the artifact (a JSON document as a dict, or a
CSV header and rows) plus a dict of named pass/fail checks. Artifacts are
written with stable formatting (sorted JSON keys; CRLF-terminated CSV lines),
so identical config + seed reproduces identical bytes.

A CSV cell, header included, is a Python `int`, a `float` or a `str` with no
`,`, `"`, CR or LF. Its `str` is then its cell as the `csv` module would write
it: the shortest round-trip repr of a float, the digits of an int, a string
as it stands. A bool or a numpy scalar is not a cell; a module spells a flag
as "true"/"false" and turns arrays into lists with `.tolist()`.

A JSON artifact is what `json.dumps(artifact, sort_keys=True, indent=2)`
would write, plus a final newline: nested dicts with `str` keys, lists and
tuples, and scalars that `json` encodes. A non-`str` key raises TypeError,
where `json` would have turned it into a string.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from .config import ScenarioConfig, scenario_module


@dataclass(frozen=True)
class RunReport:
    """What happened when a scenario ran."""

    name: str
    wall_time: float
    artifact_path: str
    checks: dict
    config_digest: str

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _json_text(obj, pad: str = "\n") -> str:
    """`obj` as `json.dumps(obj, sort_keys=True, indent=2)` writes it, `pad`
    being the newline and indent of the line `obj` starts on. json uses its C
    encoder only when `indent` is None, so each flat list of scalars goes to
    it in one call, its item separator carrying the newline and indent."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"artifact keys must be str, got {key!r}")
        return ("{" + inner + ("," + inner).join(
            f"{json.dumps(key)}: {_json_text(obj[key], inner)}" for key in sorted(obj))
            + pad + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, obj))):
            body = ("," + inner).join(_json_text(item, inner) for item in obj)
        else:
            body = json.dumps(obj, separators=("," + inner, ": "))[1:-1]
        return "[" + inner + body + pad + "]"
    return json.dumps(obj)


def _write_artifact(artifact, path: Path):
    """Write `artifact` to `path` as a new file. An old file there is unlinked
    first, not truncated: a link at `path` is replaced, not followed, and
    closing a truncated and rewritten file can cost a flush on ext4. A
    directory at `path` raises OSError."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    if isinstance(artifact, dict):
        with open(path, "x", encoding="utf-8") as fh:
            fh.write(_json_text(artifact) + "\n")
    else:
        header, rows = artifact
        # a row with more or fewer cells than the header raises TypeError
        line = ",".join(["%s"] * len(header)) + "\r\n"
        with open(path, "x", newline="", encoding="utf-8") as fh:
            fh.write(line % tuple(header))
            fh.writelines(line % tuple(row) for row in rows)


def run_scenario(cfg: ScenarioConfig, out_dir: str = ".") -> RunReport:
    """Dispatch a validated scenario, write its artifact, return the report."""
    start = time.perf_counter()
    artifact, checks = scenario_module(cfg.module).run(cfg.scenario, cfg.seed)
    path = Path(out_dir) / cfg.artifact_path
    _write_artifact(artifact, path)
    return RunReport(
        name=cfg.name,
        wall_time=time.perf_counter() - start,
        artifact_path=str(path),
        checks=checks,
        config_digest=cfg.digest(),
    )
