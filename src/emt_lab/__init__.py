"""emt-lab: simulation and numerical-optimization toolkit for epistemic
mode-transition dynamics, innovation growth engines, recombinant
extreme-value laws, experiential gravity, a research MDP, a cybernetic
alignment loop, a cooperation game, and a subsidy-allocation planner —
behind a scenario-driven CLI with deterministic, seedable runs.
"""

__version__ = "0.1.0"

from ._rng import derive_stream, make_generator
from .config import ScenarioConfig, load_config, module_schema, validate_config
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EmtLabError,
    InputError,
    NumericError,
)
from .runner import run_scenario

__all__ = [
    "__version__",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "EmtLabError",
    "InputError",
    "NumericError",
    "ScenarioConfig",
    "derive_stream",
    "load_config",
    "make_generator",
    "module_schema",
    "run_scenario",
    "validate_config",
]
