"""Scenario configuration: loading and validation.

A scenario is a single JSON document naming a module, a module-specific
parameter block, a master seed, and an output sink. A module's parameters
are the fields of its `Scenario` dataclass (see `_params`), so validation,
defaults and `emt-lab schema` are all derived from them. Validation is strict
(unknown keys are rejected, with a closest-known-key suggestion; numbers must
be finite; an output path must stay inside the output directory) and collects
every problem before failing, so a bad config reports all of its errors in
one pass. It ends by building the Scenario, so cross-field checks fail here
too, before anything runs.
"""

from __future__ import annotations

import difflib
import hashlib
import importlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import PurePath

from ._params import bound_problems, schema as param_schema
from .errors import ConfigError, EmtLabError

# Scenario module name -> the emt_lab module defining its `Scenario` dataclass,
# its artifact `FORMAT` and `run(scenario, seed) -> (artifact, checks)`. It is
# imported on first use, so a run loads only what its scenario needs.
MODULES = {
    "epistemic": "epistemic",
    "growth": "growth",
    "evt": "recombinant",
    "gravity": "gravity",
    "mdp": "dynprog",
    "feedback": "feedback",
    "game": "game",
    "policy": "policy",
}

_TOP_LEVEL = {
    "name": {"type": "string", "default": None},
    "module": {"type": "string", "default": None, "choices": MODULES},
    "params": {"type": "object", "default": {}},
    "seed": {"type": "integer", "default": 0, "min": 0, "max": 2**64 - 1},
    "output": {"type": "object", "default": {}},
}

_OUTPUT_KEYS = {
    "format": {"type": "string", "default": None, "choices": ("csv", "json")},
    "path": {"type": "string", "default": None},
}

_TYPE_CHECKS = {
    # finite as a float: no NaN, no Infinity, no integer too large to convert
    "number": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                         and abs(v) <= sys.float_info.max),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
}


def scenario_module(module: str):
    """The emt_lab module behind a scenario module name."""
    return importlib.import_module(f"{__package__}.{MODULES[module]}")


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario ready to run; `scenario` is built from `params`."""

    name: str
    module: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output_format: str = "csv"
    output_path: str | None = None
    scenario: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scenario = scenario_module(self.module).Scenario(**self.params)
        object.__setattr__(self, "scenario", scenario)

    def canonical(self) -> dict:
        return {
            "name": self.name,
            "module": self.module,
            "params": self.params,
            "seed": self.seed,
            "output": {"format": self.output_format, "path": self.output_path},
        }

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _check_value(prefix: str, key: str, spec: dict, value, problems: list):
    if value is None and spec["default"] is None:
        return
    if not _TYPE_CHECKS[spec["type"]](value):
        problems.append(f"{prefix}{key}: expected {spec['type']}, got {value!r}")
        return
    problems.extend(prefix + p for p in bound_problems(key, spec, value))


def _check_block(prefix: str, schema: dict, block: dict, problems: list) -> dict:
    resolved = {}
    for key, value in block.items():
        if key not in schema:
            hint = difflib.get_close_matches(key, schema, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            problems.append(f"{prefix}unknown key {key!r}{suggestion}")
            continue
        _check_value(prefix, key, schema[key], value, problems)
        resolved[key] = value
    for key, spec in schema.items():
        resolved.setdefault(key, spec["default"])
    return resolved


def validate_config(raw: dict) -> ScenarioConfig:
    """Validate a raw scenario dict, collecting every problem."""
    problems: list = []
    if not isinstance(raw, dict):
        raise ConfigError([f"scenario must be a JSON object, got {type(raw).__name__}"])
    top = _check_block("", _TOP_LEVEL, raw, problems)
    if top.get("name") is None:
        problems.append("name: required")
    if top.get("module") is None:
        problems.append("module: required")
    module = top.get("module")
    known = isinstance(module, str) and module in MODULES
    params = top.get("params") or {}
    if known and isinstance(params, dict):
        params = _check_block("params.", module_schema(module), params, problems)
    output = top.get("output") or {}
    if isinstance(output, dict):
        output = _check_block("output.", _OUTPUT_KEYS, output, problems)
    else:
        output = {"format": None, "path": None}
    path = output["path"]
    if isinstance(path, str):
        pure = PurePath(path)
        if pure.is_absolute() or ".." in pure.parts or not pure.name:
            problems.append(f"output.path: must be a relative file path inside --out, got {path!r}")
    fmt = output["format"]
    native = scenario_module(module).FORMAT if known else None
    if native and fmt in ("csv", "json") and fmt != native:
        problems.append(f"output.format: module {module!r} produces {native} output, got {fmt!r}")
    if problems:
        raise ConfigError(problems)
    try:
        return ScenarioConfig(
            name=top["name"],
            module=module,
            params=params,
            seed=top["seed"],
            output_format=fmt or native,
            output_path=output["path"],
        )
    except (EmtLabError, ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError([f"params: {exc}"]) from exc


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        )
    return validate_config(raw)


def module_schema(module: str) -> dict:
    """Parameter schema (types, defaults, bounds) for one module."""
    if module not in MODULES:
        raise ConfigError(
            [f"unknown module {module!r}; choose from {', '.join(MODULES)}"]
        )
    return param_schema(scenario_module(module).Scenario)
