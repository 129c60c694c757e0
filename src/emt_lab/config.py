"""Scenario configuration: loading and validation.

A scenario is a single JSON document naming a module, a module-specific
parameter block, a master seed, and an output sink. Its top-level keys are
the fields of `ScenarioConfig`, a module's parameters those of its `Scenario`
dataclass, so the defaults, `emt-lab schema` and the rule each value must meet
(`_params.field_error`) all come from them. `ScenarioConfig` is the one reader
of `params` (`_params.read_block`) and of the artifact path, which stays in the
output directory, and keeps what it read, so one scenario has one digest however
it is built. A file's problems, and the dotted paths of its repeated keys, are
all reported at once, before anything runs.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import PurePath

import numpy as np

from ._params import Params, check, param, param_fields, read_block, schema as param_schema
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


def _read(name, module, params, output_path, between=()) -> tuple:
    """(values, problems): `params`, once `module` is known, read with defaults
    filled (a callable, which no file holds, is a problem), then `between`, then
    the last '/' part of `name` and the path, `output_path` or else `<name>.<format>`
    (so `module` too must be known), which must stay inside --out, once typed."""
    known = isinstance(module, str) and module in MODULES
    values, problems = {}, []
    if known and isinstance(params, dict):
        values, problems = read_block(param_fields(scenario_module(module).Scenario), params, "params.")
        problems += [f"params.{key}: expected a JSON value, got a callable"
                     for key, value in values.items() if callable(value)]
    problems += between
    if isinstance(name, str) and (isinstance(output_path, str) or output_path is None and known):
        if name.rsplit("/", 1)[-1] in ("", ".", ".."):
            problems.append(f"name: its last '/' part must not be empty, '.' or '..', got {name!r}")
        path = f"{name}.{scenario_module(module).FORMAT}" if output_path is None else output_path
        pure = PurePath(path)
        if pure.is_absolute() or ".." in pure.parts or not pure.name or "\0" in path:
            key = "name" if output_path is None else "output.path"
            problems.append(f"{key}: must give a relative file path inside --out, got {path!r}")
    return values, list(map(str, problems))


def _as_json(value):
    """A numpy array or number, or a policy `Occupation`, in `params` as a file holds it."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, Params):
        return {key: getattr(value, key) for key in param_fields(value)}
    raise TypeError(f"{type(value).__name__} is not a JSON value")


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario ready to run; `scenario` is built from `params`.

    Its fields are a scenario file's top-level keys (`output_path` the one key
    of its `output` block). It is checked whenever built, by `dataclasses.replace`
    too, and keeps as `params` what it read there, defaults filled, so one scenario
    has one digest however it is built. The artifact format is the module's `FORMAT`.
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
        params, problems = _read(self.name, self.module, self.params, self.output_path)
        if problems:
            raise ConfigError(problems)
        object.__setattr__(self, "params", params)
        try:
            object.__setattr__(self, "scenario", scenario_module(self.module).Scenario(**params))
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
                          check_circular=False, default=_as_json)
        return hashlib.sha256(blob.encode()).hexdigest()


# The keys of a scenario file and of its `output` block, an object like `params`.
_TOP = param_fields(ScenarioConfig)
_OUTPUT = {"path": _TOP.pop("output_path")}
_TOP["output"] = _TOP["params"]


def validate_config(raw: dict) -> ScenarioConfig:
    """Validate a raw scenario dict, collecting every problem: its own keys here,
    `params` and the path by `ScenarioConfig`, or by `_read` if the keys have some."""
    if not isinstance(raw, dict):
        raise ConfigError([f"scenario must be a JSON object, got {type(raw).__name__}"])
    top, problems = read_block(_TOP, raw)
    output, seed = top.pop("output"), top.pop("seed")
    top["output_path"], more = False, []  # no path rule while `output` is no object
    if isinstance(output, dict):
        output, more = read_block(_OUTPUT, output, "output.")
        top["output_path"] = output["path"]
    if problems or more:
        raise ConfigError(list(map(str, problems)) + _read(**top, between=more)[1])
    return ScenarioConfig(**top, seed=seed)


def _dict(pairs: list) -> dict:
    """A json `object_pairs_hook`: the object as a dict; a ConfigError if it repeats a key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ConfigError("duplicate key")
    return obj


def _repeated_keys(text: str) -> dict:
    """The dotted paths of the keys repeated in the JSON `text`, in document order:
    each object decoded as a tuple of its pairs, walked with a stack to any depth."""
    stack, paths = [("", json.loads(text, object_pairs_hook=tuple))], []
    while stack:
        prefix, value = stack.pop()
        if isinstance(value, list):  # an array is walked as an object keyed by index
            value = tuple(enumerate(value))
        if isinstance(value, tuple):
            paths += [f"{prefix}{key}" for key, n in Counter(key for key, _ in value).items() if n > 1]
            stack += reversed([(f"{prefix}{key}.", item) for key, item in value])
    return dict.fromkeys(paths)


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario JSON file; a key repeated in any of its
    objects is an error, and only then is the text decoded again to name it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            raw = json.loads(text, object_pairs_hook=_dict)
        except ConfigError:
            raise ConfigError([f"{path}: duplicate key {key!r}" for key in _repeated_keys(text)]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        )
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError([f"{path}: cannot read config: {exc}"])
    return validate_config(raw)


def module_schema(module: str) -> dict:
    """Parameter schema (types, defaults, bounds) for one module."""
    if module not in MODULES:
        raise ConfigError(
            [f"unknown module {module!r}; choose from {', '.join(MODULES)}"]
        )
    return param_schema(scenario_module(module).Scenario)
