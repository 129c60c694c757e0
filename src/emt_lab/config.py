"""Scenario configuration: loading and validation.

A scenario is a single JSON document naming a module, a module-specific
parameter block, a master seed, and an output sink. Its top-level keys are
the fields of `ScenarioConfig`, a module's parameters those of its `Scenario`
dataclass, so the defaults, `emt-lab schema` and the rule each value must meet
(`_params.field_error`, the one a directly built dataclass meets too) all come
from them. A file adds its keys: unknown ones are rejected with a closest-key
suggestion, and every problem is collected before failing (`_params.read_block`),
those of the artifact path (it stays inside the output directory) too.
Validation ends by building the ScenarioConfig, whose checks and Scenario's
cross-field checks fail here too, before anything runs.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import PurePath

from ._params import check, param, param_fields, read_block, schema as param_schema
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


def scenario_module(module: str):
    """The emt_lab module behind a scenario module name."""
    return importlib.import_module(f"{__package__}.{MODULES[module]}")


def _path_problems(name: str, module: str, output_path: str | None) -> list:
    """The problems of a config's artifact path: the last '/' part of `name`,
    then the path, `output_path` or else `<name>.<format>`, which must stay
    inside the output directory."""
    problems = []
    if name.rsplit("/", 1)[-1] in ("", ".", ".."):
        problems.append(f"name: its last '/' part must not be empty, '.' or '..', got {name!r}")
    path = f"{name}.{scenario_module(module).FORMAT}" if output_path is None else output_path
    pure = PurePath(path)
    if pure.is_absolute() or ".." in pure.parts or not pure.name or "\0" in path:
        key = "name" if output_path is None else "output.path"
        problems.append(f"{key}: must give a relative file path inside --out, got {path!r}")
    return problems


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario ready to run; `scenario` is built from `params`.

    Its fields are a scenario file's top-level keys (`output_path` the one key
    of its `output` block). It is checked whenever built, by
    `dataclasses.replace` too, and reads `params` as a file's block is read.
    The artifact format is the module's `FORMAT`.
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
        if problems := _path_problems(self.name, self.module, self.output_path):
            raise ConfigError(problems)
        scenario = scenario_module(self.module).Scenario
        params, problems = read_block(param_fields(scenario), self.params, "params.")
        if problems:
            raise ConfigError(list(map(str, problems)))
        try:
            object.__setattr__(self, "scenario", scenario(**params))
        except (EmtLabError, ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigError(f"params: {exc}") from exc

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


# The keys of a scenario file and of its `output` block, an object like `params`.
_TOP = param_fields(ScenarioConfig)
_OUTPUT = {"path": _TOP.pop("output_path")}
_TOP["output"] = _TOP["params"]


def validate_config(raw: dict) -> ScenarioConfig:
    """Validate a raw scenario dict, collecting every problem."""
    if not isinstance(raw, dict):
        raise ConfigError([f"scenario must be a JSON object, got {type(raw).__name__}"])
    top, problems = read_block(_TOP, raw)
    name, module, params, output = top["name"], top["module"], top["params"], top["output"]
    known = isinstance(module, str) and module in MODULES
    if known and isinstance(params, dict):
        params, more = read_block(param_fields(scenario_module(module).Scenario), params, "params.")
        problems += more
    if isinstance(output, dict):
        output, more = read_block(_OUTPUT, output, "output.")
        problems += more
        path = output["path"]
        # a path named by `name` needs the module's format
        if isinstance(name, str) and (isinstance(path, str) or path is None and known):
            problems += _path_problems(name, module, path)
    if problems:
        raise ConfigError(list(map(str, problems)))
    return ScenarioConfig(name=name, module=module, params=params, seed=top["seed"],
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
