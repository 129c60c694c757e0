"""Scenario dispatch and deterministic artifact writing.

A validated ScenarioConfig carries its module's Scenario; that module's
`run(scenario, seed)` returns the artifact (a JSON document as a dict, or a
CSV header and columns) plus a dict of named pass/fail checks. Artifacts are
written with stable formatting (sorted JSON keys; CRLF-terminated CSV lines),
so identical config + seed reproduces identical bytes.

A CSV artifact is `(header, columns)`: one column per header cell, all of
one length, each an `array('d')` of floats or a list or tuple of cells. A CSV
cell, header included, is a Python `int`, a `float` or a `str` with no `,`,
`"`, CR or LF. Its `str` is then its cell as the `csv` module would write it:
the shortest round-trip repr of a float, the digits of an int, a string as it
stands. A bool or a numpy scalar is not a cell; a module spells a flag as
"true"/"false" and turns arrays into lists with `.tolist()`. The lines come
from `%s` format strings, so the file is what `line % row` writes for each
row of `zip(*columns)`, `line` being one `%s` per column. An `array('d')`
column's constant tail, from the first row on which its doubles all have its
last double's bits, is formatted once, into the format string of the rows
from there on, unless it is one row long: the rows are written in segments
between the columns' tail starts, so a column of one double is formatted
once for the file. Epistemic's theta and pi, one double each from the mode
transition on, are such columns. The lines are joined and written in blocks
of up to `_BLOCK_ROWS`, a block within one segment.

A JSON artifact is what `json.dumps(artifact, sort_keys=True, indent=2)`
would write, plus a final newline: nested dicts with `str` keys, lists and
tuples, and scalars that `json` encodes. A non-`str` key raises TypeError,
where `json` would have turned it into a string, and a NaN or infinite
float, which JSON has no token for, raises NumericError.

The artifact goes to a new file below the output directory, reached by
directory descriptors (POSIX `dir_fd`): a link at the output directory itself
is followed, a link anywhere below it is refused.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path, PurePath

from .config import ScenarioConfig, scenario_module
from .errors import NumericError

# CSV lines per joined write. A block's text is held while it is joined and
# written: writing a 10^5-step feedback run peaked at 0.96 MB in blocks of
# 4,096 lines (1.3 MB while the block before was held as the next was made),
# and at 23 MB as one joined text. Blocks of 1,024 to 16,384 lines wrote a
# 12k-step run at the same speed.
_BLOCK_ROWS = 4096


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


@dataclass(frozen=True)
class ArtifactPath:
    """The path `rel` below the output directory `out`: `rel` is relative and
    has no `..` part. As a path it is out/rel."""

    out: str
    rel: str

    def __fspath__(self) -> str:
        return str(Path(self.out) / self.rel)


def _json_text(obj, pad: str = "\n") -> str:
    """`obj` as `json.dumps(obj, sort_keys=True, indent=2)` writes it, `pad`
    being the newline and indent of the line `obj` starts on. json uses its C
    encoder only when `indent` is None, so each flat list of scalars goes to
    it in one call, its item separator carrying the newline and indent. A
    NaN or infinite float raises ValueError (`allow_nan=False`)."""
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
            body = json.dumps(obj, allow_nan=False, separators=("," + inner, ": "))[1:-1]
        return "[" + inner + body + pad + "]"
    return json.dumps(obj, allow_nan=False)


def _tail_start(col: array, n: int) -> int:
    """The first row from which the n > 0 doubles of `col` all have its last
    double's bits, or n when its last two doubles differ: a tail of one row
    is not folded. The doubles are compared as 64-bit words, in place, so
    0.0 and -0.0 stay apart, as do two NaN payloads. Two words settle a
    column whose last two doubles differ and one full compare a column of
    one double; otherwise a bisection finds the start, each probe comparing
    the rest of the column with itself shifted by one row."""
    bits = memoryview(col).cast("B").cast("Q")
    if bits[n - 2] != bits[n - 1]:  # for n = 1, bits[-1] is the last double itself
        return n
    if bits[:n - 1] == bits[1:]:
        return 0
    return bisect_left(range(n - 2), True, key=lambda i: bits[i:n - 1] == bits[i + 1:])


def _csv_blocks(header, columns):
    """The CSV text of `header` and `columns`, the header line first, then
    blocks of up to _BLOCK_ROWS lines. Raises TypeError at once, before any
    text is made, unless there is one column per header cell, all of one
    length.

    An `array('d')` column (a float column; of epistemic's, theta and pi) is
    folded into the line template from the start of its constant tail
    (_tail_start) on, found by bits, not `==`, so 0.0 and -0.0 stay apart.
    The rows are written in segments between the columns' tail starts, each
    with its own template (_row_blocks), so a column of one double is folded
    in every row."""
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(col) != n for col in columns):
        raise TypeError(f"CSV columns of lengths {[len(col) for col in columns]} "
                        f"under a header of {len(header)} cells")
    tails = [_tail_start(col, n) if type(col) is array and n else n for col in columns]
    head = (",".join(["%s"] * len(header)) + "\r\n") % tuple(header)
    return chain([head], _row_blocks(columns, tails, n))


def _row_blocks(columns, tails, n: int):
    """The blocks of the n rows of `columns`, segment by segment: the rows
    from one tail start in `tails` to the next come from one `%s` line
    template, in which a column whose tail has begun is folded as the repr
    of its last double, and each other column gives its next cells from its
    one iterator: no segment copies a column."""
    cells = [iter(col) for col in columns]
    edges = sorted({0, n, *tails})
    for start, stop in zip(edges, edges[1:]):
        line = ",".join(repr(col[-1]) if tail <= start else "%s"
                        for col, tail in zip(columns, tails)) + "\r\n"
        varying = [it for it, tail in zip(cells, tails) if tail > start]
        rows = islice(zip(*varying), stop - start) if varying else repeat((), stop - start)
        for _ in range(start, stop, _BLOCK_ROWS):
            yield "".join(map(line.__mod__, islice(rows, _BLOCK_ROWS)))


def _is_link(name: str, dir_fd: int) -> bool:
    try:
        return stat.S_ISLNK(os.stat(name, dir_fd=dir_fd, follow_symlinks=False).st_mode)
    except OSError:
        return False


def _create_beneath(out: str, rel: str):
    """A new file at out/rel, open for writing text. `out` is made if missing
    and followed if it is a link. Each part of `rel` is opened by descriptor,
    relative to its parent, and never followed: a link there, or any other
    part that cannot be opened as a directory, raises OSError naming its
    path from `out`. A missing directory is made. An old file at the leaf is
    unlinked, not truncated, so a link there is replaced, and closing a
    rewritten file costs no flush on ext4; a directory there raises OSError."""
    os.makedirs(out, exist_ok=True)
    *parents, leaf = PurePath(rel).parts
    fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC)
    try:
        for depth, part in enumerate(parents, 1):
            try:
                os.mkdir(part, dir_fd=fd)
            except FileExistsError:
                pass
            try:
                child = os.open(part, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW | os.O_CLOEXEC,
                                dir_fd=fd)
            except OSError as exc:
                path = os.path.join(out, *parents[:depth])
                if _is_link(part, fd):
                    raise OSError(errno.ELOOP, "a link below the output directory is not followed",
                                  path) from None
                raise OSError(exc.errno, exc.strerror, path) from None
            os.close(fd)
            fd = child
        try:
            os.unlink(leaf, dir_fd=fd)
        except FileNotFoundError:
            pass
        leaf_fd = os.open(leaf, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC,
                          0o666, dir_fd=fd)
    finally:
        os.close(fd)
    return open(leaf_fd, "w", encoding="utf-8", newline="")


def _write_artifact(artifact, path):
    """Write `artifact` to `path`, an ArtifactPath or a plain path whose
    parent is taken as the output directory, as a new file (_create_beneath).
    The whole artifact is checked before the file is touched: a JSON
    artifact with a NaN or infinite float raises NumericError."""
    if isinstance(artifact, dict):
        try:
            chunks = [_json_text(artifact) + "\n"]
        except ValueError as exc:
            raise NumericError(f"the artifact is not JSON: {exc}") from None
    else:
        chunks = _csv_blocks(*artifact)
    if not isinstance(path, ArtifactPath):
        path = Path(path)
        path = ArtifactPath(str(path.parent), path.name)
    with _create_beneath(path.out, path.rel) as fh:
        fh.writelines(chunks)  # drops each block before the next is made


def run_scenario(cfg: ScenarioConfig, out_dir: str = ".") -> RunReport:
    """Dispatch a validated scenario, write its artifact, return the report."""
    start = time.perf_counter()
    artifact, checks = scenario_module(cfg.module).run(cfg.scenario, cfg.seed)
    path = ArtifactPath(os.fspath(out_dir), cfg.artifact_path)
    _write_artifact(artifact, path)
    return RunReport(
        name=cfg.name,
        wall_time=time.perf_counter() - start,
        artifact_path=os.fspath(path),
        checks=checks,
        config_digest=cfg.digest(),
    )
