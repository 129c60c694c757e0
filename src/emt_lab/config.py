"""Scenario configuration: loading and validation.

A scenario is a single JSON document naming a module, a module-specific
parameter block, a master seed, and an output sink. Its top-level keys are
the fields of `ScenarioConfig`, a module's parameters those of its `Scenario`
dataclass (see `_params`), so validation, defaults and `emt-lab schema` are
all derived from them. Validation is strict (unknown keys are rejected, with a
closest-known-key suggestion; numbers must be finite) and collects every
problem with the keys before failing, so a bad config reports all of them in
one pass. It ends by building the ScenarioConfig, whose checks (the artifact
path stays inside the output directory) and Scenario's cross-field checks
fail here too, before anything runs.
"""

from __future__ import annotations

import difflib
import hashlib
import importlib
import json
from collections import Counter
from dataclasses import MISSING, dataclass, field
from pathlib import PurePath

from ._params import bound_problems, check, is_number, param, schema as param_schema
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

_TYPE_CHECKS = {
    "number": is_number,
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
    """A fully validated scenario ready to run; `scenario` is built from `params`.

    Its fields are a scenario file's top-level keys (`output_path` the one key
    of its `output` block). It is checked whenever built, by
    `dataclasses.replace` too. The artifact format is the module's `FORMAT`.
    """

    name: str = param()
    module: str = param(choices=MODULES)
    params: dict = param({})
    seed: int = param(0, min=0, max=2**64 - 1)
    output_path: str | None = param(None)
    scenario: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            check(self)
        except EmtLabError as exc:
            raise ConfigError(str(exc)) from exc
        if self.name.rsplit("/", 1)[-1] in ("", ".", ".."):
            raise ConfigError(f"name: its last '/' part must not be empty, '.' or '..', "
                              f"got {self.name!r}")
        path = self.artifact_path
        pure = PurePath(path)
        if pure.is_absolute() or ".." in pure.parts or not pure.name or "\0" in path:
            key = "name" if self.output_path is None else "output.path"
            raise ConfigError(f"{key}: must give a relative file path inside --out, got {path!r}")
        try:
            scenario = scenario_module(self.module).Scenario(**self.params)
        except (EmtLabError, ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigError(f"params: {exc}") from exc
        object.__setattr__(self, "scenario", scenario)

    @property
    def output_format(self) -> str:
        """The artifact format, "csv" or "json": the module's `FORMAT`."""
        return scenario_module(self.module).FORMAT

    @property
    def artifact_path(self) -> str:
        """The artifact's path relative to the output directory."""
        return f"{self.name}.{self.output_format}" if self.output_path is None else self.output_path

    def canonical(self) -> dict:
        return {
            "name": self.name,
            "module": self.module,
            "params": self.params,
            "seed": self.seed,
            "output": {"format": self.output_format, "path": self.output_path},
        }

    def digest(self) -> str:
        # A built config holds only values its Scenario accepted, and no
        # Scenario accepts a cycle, so the encoder's cycle scan is skipped.
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"),
                          check_circular=False)
        return hashlib.sha256(blob.encode()).hexdigest()


# The keys of a scenario file and of its `output` block, from ScenarioConfig.
_TOP = param_schema(ScenarioConfig)
_OUTPUT = {"path": _TOP.pop("output_path")}
_TOP["output"] = {"type": "object", "default": {}}


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
        if key not in resolved and spec["default"] is MISSING:
            problems.append(f"{prefix}{key}: required")
        resolved.setdefault(key, spec["default"])
    return resolved


def validate_config(raw: dict) -> ScenarioConfig:
    """Validate a raw scenario dict, collecting every problem."""
    problems: list = []
    if not isinstance(raw, dict):
        raise ConfigError([f"scenario must be a JSON object, got {type(raw).__name__}"])
    top = _check_block("", _TOP, raw, problems)
    module, params, output = top["module"], top["params"], top["output"]
    if isinstance(module, str) and module in MODULES and isinstance(params, dict):
        params = _check_block("params.", module_schema(module), params, problems)
    output = _check_block("output.", _OUTPUT, output if isinstance(output, dict) else {}, problems)
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(name=top["name"], module=module, params=params, seed=top["seed"],
                          output_path=output["path"])


def _repeated_under(value, repeated: dict) -> list:
    """The dotted paths, relative to `value`, of the keys repeated in the
    objects `repeated` holds by id: `value` itself or objects in its lists,
    which are looked through only once some object has repeated a key."""
    if isinstance(value, dict):
        return repeated.get(id(value), (None, []))[1]
    if isinstance(value, list) and repeated:
        return [f"{i}.{path}" for i, item in enumerate(value)
                for path in _repeated_under(item, repeated)]
    return []


def _pairs_hook(repeated: dict):
    """A json `object_pairs_hook` that decodes an object to a dict and, when
    the object or one nested in it repeats a key, keeps that dict and the
    keys' dotted paths in `repeated`, by the dict's id. Nested objects are
    decoded first."""
    def hook(pairs: list) -> dict:
        obj = dict(pairs)
        paths = []
        if len(obj) < len(pairs):
            paths = [key for key, n in Counter(key for key, _ in pairs).items() if n > 1]
        paths += [f"{key}.{path}" for key, value in pairs
                  for path in _repeated_under(value, repeated)]
        if paths:
            repeated[id(obj)] = (obj, paths)
        return obj

    return hook


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario JSON file; a key repeated in any of its
    objects is an error."""
    repeated: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_pairs_hook(repeated))
        duplicates = dict.fromkeys(_repeated_under(raw, repeated))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        )
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError([f"{path}: cannot read config: {exc}"])
    if duplicates:
        raise ConfigError([f"{path}: duplicate key {key!r}" for key in duplicates])
    return validate_config(raw)


def module_schema(module: str) -> dict:
    """Parameter schema (types, defaults, bounds) for one module."""
    if module not in MODULES:
        raise ConfigError(
            [f"unknown module {module!r}; choose from {', '.join(MODULES)}"]
        )
    return param_schema(scenario_module(module).Scenario)
