"""The mutation tool, tests/mutate.py, on small modules of its own."""

import ast
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import mutate

SMALL = '''def is_adult(age):
    """Whether `age` >= 18."""
    return age >= 18
'''
SMALL_TEST = '''from small import is_adult


def test_the_boundary():
    assert is_adult(18) and not is_adult(17)
'''


def test_a_flipped_comparison_is_killed_in_under_5_s(tmp_path):
    (tmp_path / "small.py").write_text(SMALL)
    (tmp_path / "test_small.py").write_text(SMALL_TEST)
    start = time.perf_counter()
    results = mutate.mutate(Path("small.py"), ["test_small.py"], root=tmp_path, timeout=30)
    assert time.perf_counter() - start < 5
    assert results == [{"line": 3, "byte": SMALL.rindex(" >="), "flip": ">= -> >",
                        "outcome": "killed"}]


def test_every_comparison_operator_is_flipped_alone():
    """Each site flips its own operator, in chains, across lines and past a
    docstring or string holding the same text."""
    source = ('def f(a, b, c, x, y):\n    "a < b, x in y"\n'
              '    return (a < b <= c, a > b >= c, a == b != c, x in y, x not in y,\n'
              '            x is None, x is not (\n                y))\n')
    sites = mutate.sites(source)
    assert [(old, new) for _, _, old, new in sites] == [
        ("<", "<="), ("<=", "<"), (">", ">="), (">=", ">"), ("==", "!="), ("!=", "=="),
        ("in", "not in"), ("not in", "in"), ("is", "is not"), ("is not", "is")]
    compare_ops = [type(op) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Compare) for op in node.ops]
    for i, site in enumerate(sites):
        flipped = [type(op) for node in ast.walk(ast.parse(mutate.mutant(source, site)))
                   if isinstance(node, ast.Compare) for op in node.ops]
        want = [*compare_ops]
        want[i] = next(k for k, (old, _) in mutate.FLIPS.items() if old == site[3])
        assert flipped == want
        assert '"a < b, x in y"' in mutate.mutant(source, site)


def test_sigterm_removes_the_copy_of_the_repository(tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    start = time.perf_counter()
    run = subprocess.Popen([sys.executable, mutate.__file__, str(mutate.ROOT / "src/emt_lab/errors.py"),
                            str(tmp_path / "mutants.json")],
                           env={**os.environ, "TMPDIR": str(tmp)}, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    try:
        while not list(tmp.glob("*/repo")):
            assert run.poll() is None and time.perf_counter() - start < 10
            time.sleep(0.01)
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=10) == 128 + signal.SIGTERM
    finally:
        run.kill()
    assert list(tmp.iterdir()) == []
    assert time.perf_counter() - start < 10
