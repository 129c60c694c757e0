"""Command-line interface.

  emt-lab run <config.json> [...] [--out DIR] [--seed N]
  emt-lab verify            run every bundled scenario and its checks
  emt-lab schema <module>   print the parameter schema for a module

`--seed` replaces each config's seed and, like it, must lie in [0, 2**64 - 1].

Exit codes: 0 success, 1 embedded check failure, 2 configuration error,
3 runtime error (a model failure, an unwritable artifact, an internal error).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from importlib import resources
from pathlib import PurePath

from . import __version__, runner
from .config import MODULES, load_config, module_schema
from .errors import ConfigError, EmtLabError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(prog="emt-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"emt-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one or more scenario configs")
    run_p.add_argument("configs", nargs="+", metavar="config.json")
    run_p.add_argument("--out", default=".", help="output directory (default: .)")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")

    sub.add_parser("verify", help="run all bundled scenarios and their checks")

    schema_p = sub.add_parser("schema", help="print a module's parameter schema")
    schema_p.add_argument("module", help=f"one of: {', '.join(MODULES)}")
    return parser


def _report_line(report) -> str:
    checks = (
        ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in report.checks.items())
        or "no embedded checks"
    )
    return (
        f"{report.name}: wrote {report.artifact_path} "
        f"in {report.wall_time:.3f}s [{checks}] digest={report.config_digest[:12]}"
    )


def _cmd_run(args) -> int:
    configs, writers = [], {}  # artifact path -> the config file that writes it
    try:
        for path in args.configs:
            cfg = load_config(path)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
            artifact = PurePath(cfg.artifact_path)
            if artifact in writers:  # the later run would overwrite the earlier one's artifact
                raise ConfigError(f"{path}: writes the artifact {cfg.artifact_path!r}, "
                                  f"as {writers[artifact]} does")
            writers[artifact] = path
            configs.append(cfg)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return _run_all(configs, args.out)


def _run_all(configs, out_dir: str) -> int:
    """Run each config into `out_dir`. Its report line prints when its run
    ends, before a later run can fail."""
    passed = True
    for cfg in configs:
        try:
            report = runner.run_scenario(cfg, out_dir=out_dir)
        except (EmtLabError, OSError) as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME_ERROR
        print(_report_line(report), flush=True)
        passed = passed and report.passed
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def bundled_scenarios():
    """(name, validated config) for every bundled scenario, sorted by name."""
    root = resources.files("emt_lab") / "scenarios"
    return [(entry.name, load_config(str(entry)))
            for entry in sorted(root.iterdir(), key=lambda e: e.name)
            if entry.name.endswith(".json")]


def _cmd_verify() -> int:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="emt-lab-verify-") as tmp:
        return _run_all([cfg for _, cfg in bundled_scenarios()], tmp)


def _cmd_schema(module: str) -> int:
    try:
        schema = module_schema(module)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(json.dumps(schema, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify()
        return _cmd_schema(args.module)
    except Exception as exc:  # the last resort: no input ends in a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
