"""Mutation testing of one src module: which comparisons does no test pin?

Each comparison operator of the module is flipped in turn (`<` and `<=`,
`>` and `>=`, `==` and `!=`, `in` and `not in`, `is` and `is not`), one
mutant at a time, and the module's tests, with the golden, metamorphic,
acceptance and harness files, run against it in a copy of the repository.
A mutant the tests fail on, crash on or time out on is killed; one they
pass survives, and marks a line no test pins, unless the flip cannot change
what the module does (an equivalent mutant).

    python tests/mutate.py src/emt_lab/config.py mutants.json

writes each site (line, byte offset, the flip) with its outcome, "killed",
"survived" or "timeout", to the JSON file, and prints the totals. A run
stopped by SIGTERM kills its pytest run and removes its copy. Stdlib only;
pytest does not collect this file.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.In: ("in", "not in"),
         ast.NotIn: ("not in", "in"), ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is")}
# The operator's text between two operands; `in` and `is` only as words.
_TEXT = {"<": r"<(?!=)", "<=": r"<=", ">": r">(?!=)", ">=": r">=", "==": r"==", "!=": r"!=",
         "in": r"(?<!not )\bin\b", "not in": r"\bnot\s+in\b",
         "is": r"\bis\b(?!\s+not\b)", "is not": r"\bis\s+not\b"}
# Test files run against every mutant, besides the module's own.
SHARED_TESTS = ["test_golden.py", "test_metamorphic.py", "test_acceptance.py", "test_harness.py"]
# Modules whose tests are not in tests/test_<module>.py.
OWN_TESTS = {"config": ["test_settings.py", "test_serialization.py"],
             "_params": ["test_settings.py", "test_serialization.py"],
             "runner": ["test_serialization.py"]}
TIMEOUT = 600  # seconds per mutant; a full tier-1 run takes about 50 s


def sites(source: str) -> list:
    """(start, end, old, new) of each comparison operator in `source`, by
    its byte offsets: the span between its two operands holds the operator."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
            start = starts[left.end_lineno - 1] + left.end_col_offset
            end = starts[right.lineno - 1] + right.col_offset
            found.append((start, end, *FLIPS[type(op)]))
    return sorted(found)


def mutant(source: str, site: tuple) -> str:
    """`source` with the operator at `site` flipped."""
    start, end, old, new = site
    data = source.encode()
    span = data[start:end].decode()
    flipped, n = re.subn(_TEXT[old], new, span, count=1)
    if n != 1:
        raise ValueError(f"no {old!r} between the operands at byte {start}: {span!r}")
    return (data[:start] + flipped.encode() + data[end:]).decode()


def line_of(source: str, offset: int) -> int:
    return source.encode()[:offset].count(b"\n") + 1


def run_tests(root: Path, tests: list, timeout: float) -> str:
    """"survived" if pytest passes `tests` in `root`, "timeout" if it runs
    past `timeout` seconds, else "killed"."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(command, cwd=root, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def tests_for(module: Path) -> list:
    """The module's test files, then the shared ones, as paths from the root."""
    name = module.stem
    own = OWN_TESTS.get(name, [f"test_{name.lstrip('_')}.py"])
    files = dict.fromkeys(own + SHARED_TESTS)
    return [f"tests/{f}" for f in files if (ROOT / "tests" / f).is_file()]


def mutate(module: Path, tests: list, root: Path = ROOT, timeout: float = TIMEOUT) -> list:
    """Each comparison site of `module` (a path from `root`) with its outcome
    against `tests`, run in a copy of `root`."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        target = copy / module
        source = target.read_text(encoding="utf-8")
        if run_tests(copy, tests, timeout) != "survived":
            raise RuntimeError(f"the tests fail on the unmutated {module}")
        results = []
        for site in sites(source):
            target.write_text(mutant(source, site), encoding="utf-8")
            outcome = run_tests(copy, tests, timeout)
            start, _, old, new = site
            results.append({"line": line_of(source, start), "byte": start, "flip": f"{old} -> {new}",
                            "outcome": outcome})
            print(f"{module}:{results[-1]['line']} {old} -> {new}: {outcome}", flush=True)
    return results


def _exit(signum, frame):
    """Leave as an exception does, so `with` blocks and subprocess.run clean up."""
    raise SystemExit(128 + signum)


def main(argv: list) -> int:
    signal.signal(signal.SIGTERM, _exit)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    module = Path(argv[0]).resolve().relative_to(ROOT)
    tests = tests_for(module)
    results = mutate(module, tests)
    totals = {k: sum(r["outcome"] == k for r in results) for k in ("killed", "survived", "timeout")}
    Path(argv[1]).write_text(json.dumps({"module": str(module), "tests": tests, "totals": totals,
                                         "sites": results}, indent=2) + "\n")
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
