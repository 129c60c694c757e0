"""The artifact writer against what it replaces: its JSON text against the
json module, its CSV columns against one `%` format per row; and the mdp op's
array conversion against numpy, with its config errors."""

import json
import math
import struct
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emt_lab._params import float_array
from emt_lab.cli import main
from emt_lab.runner import _json_text, _tail_start, _write_artifact
from test_harness import minimal

SCALARS = (st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats() | st.text()
           | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 2**64, "é☃\U0001f600\n\"\\"]))
TREES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_json_text_is_what_json_dumps_writes(tree):
    assert _json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_write_artifact_writes_json_dumps_text_and_a_newline(tmp_path):
    artifact = {"values": [1.5, -0.0, math.inf], "policy": [0, 1], "nested": {"b": [], "a": {}},
                "rows": [[1, 2], {"k": (3, "x")}], "residual": 2.5e-13}
    _write_artifact(artifact, tmp_path / "a.json")
    expected = json.dumps(artifact, sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "a.json").read_bytes() == expected.encode()


@pytest.mark.parametrize("artifact", [{1: 2}, {"a": {None: 1}}, {"a": [{"b": 1, 2.5: 0}]}])
def test_json_text_rejects_a_key_that_is_not_a_str(artifact):
    with pytest.raises(TypeError, match="artifact keys must be str"):
        _json_text(artifact)


# Doubles whose reprs and bits are edge cases: signed zeros, NaNs of both
# signs, infinities, the smallest subnormal and normal, and their neighbours.
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, math.nan, -math.nan, struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0],
    math.inf, -math.inf, 5e-324, -5e-324, 1e-323, 2.2250738585072014e-308,
    2.225073858507201e-308, 1.0, math.nextafter(1.0, 2.0), 0.1, 1e16, 1e22, -1e300,
])
CELL_TEXT = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
                    max_size=6)


def _twin(x: float) -> float:
    """-x for a zero or a NaN, whose bits differ from x's while `==` cannot
    tell them apart; otherwise the next double up."""
    return -x if x == 0 or x != x else math.nextafter(x, math.inf)


def _csv_column(n: int):
    """A column of n cells: an array('d') (free, constant, constant but for
    one double, often its twin, or a free head and then one double to the end,
    the head's last cell often its twin), or a list of ints or strs."""
    floats = EDGE_FLOATS | st.floats()

    def almost(base, at, odd):
        cells = [base] * n
        if n:
            cells[at] = _twin(base) if odd is None else odd
        return array("d", cells)

    def tailed(head, x, twin):
        if head and twin:
            head[-1] = _twin(x)
        return array("d", head + [x] * (n - len(head)))

    free = st.lists(floats, min_size=n, max_size=n).map(lambda xs: array("d", xs))
    constant = floats.map(lambda x: array("d", [x]) * n)
    almost_constant = st.builds(almost, floats, st.integers(0, max(n - 1, 0)),
                                st.none() | EDGE_FLOATS)
    constant_tail = st.builds(tailed, st.lists(floats, max_size=n), floats, st.booleans())
    ints = st.lists(st.integers(-2**80, 2**80), min_size=n, max_size=n)
    strs = st.lists(CELL_TEXT, min_size=n, max_size=n)
    return free | constant | almost_constant | constant_tail | ints | strs


def _tail_by_rows(col: array) -> int:
    """_tail_start by its definition: the first row from which every double
    has the last one's bits, or the length when that tail is one row long."""
    n, last = len(col), col[-1:].tobytes()
    start = next(i for i in range(n) if all(col[j:j + 1].tobytes() == last for j in range(i, n)))
    return n if start == n - 1 and n > 1 else start


def _csv_by_rows(header, columns) -> bytes:
    """The CSV as one `%s` format per row of zip(*columns) writes it."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    return "".join(line % tuple(row) for row in [header, *zip(*columns)]).encode()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.lists(_csv_column(n), min_size=1, max_size=6)))
@example([array("d", [0.0, -0.0, 0.0])])
@example([array("d", [-0.0, -0.0]), [1, 2], array("d", [math.nan, math.nan])])
@example([array("d", [2.5] * 3), array("d", [-0.0] * 3)])
@example([array("d", [1.5, -0.0, 0.0]), [1, 2, 3]])  # a tail of one row
@example([array("d", [math.nan]), ["x"]])
@example([array("d", [1.0, 0.0, -0.0, -0.0, -0.0]), [1, 2, 3, 4, 5],
          array("d", [2.0, 2.5, 2.5, 2.5, 2.5]), array("d", [math.nan] * 5)])
def test_csv_columns_are_written_as_one_format_per_row_writes_them(tmp_path_factory, columns):
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "a.csv"
    _write_artifact((header, columns), path)
    assert path.read_bytes() == _csv_by_rows(header, columns)
    for col in columns:
        if type(col) is array and col:
            assert _tail_start(col, len(col)) == _tail_by_rows(col)


def test_csv_columns_are_written_across_blocks(tmp_path):
    # more rows than one block, with a constant, a varying, an int column and
    # one whose constant tail starts inside the second block
    n = 3 * 4096 + 5
    tailed = array("d", map(float, range(4096 + 7))) + array("d", [-1.5]) * (n - 4096 - 7)
    columns = [array("d", [0.5]) * n, array("d", map(float, range(n))), list(range(n)), tailed]
    assert _tail_start(tailed, n) == 4096 + 7
    _write_artifact((["a", "b", "c", "d"], columns), tmp_path / "a.csv")
    assert (tmp_path / "a.csv").read_bytes() == _csv_by_rows(["a", "b", "c", "d"], columns)


@pytest.mark.parametrize("columns", [
    [array("d", [1.0, 2.0]), [1]],
    [[1, 2], array("d", [1.0, 2.0, 3.0])],
    [array("d", [1.0])],
], ids=["short", "long", "too_few_columns"])
def test_ragged_csv_columns_raise_and_leave_the_old_file(columns, tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes(b"old\r\n")
    with pytest.raises(TypeError):
        _write_artifact((["a", "b"], columns), path)
    assert path.read_bytes() == b"old\r\n"


NUMBERS = st.integers(-2**70, 2**70) | st.floats()


def _nest(flat, shape):
    if len(shape) == 1:
        return list(flat)
    step = math.prod(shape[1:])
    return [_nest(flat[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=3).flatmap(
    lambda shape: st.lists(NUMBERS, min_size=math.prod(shape), max_size=math.prod(shape))
    .map(lambda flat: _nest(flat, shape))))
def test_float_array_is_np_asarray_bit_for_bit(values):
    got, want = float_array("x", values), np.asarray(values, dtype=float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_float_array_rejects_a_ragged_list_as_np_asarray_does():
    values = [[0.5, 1.0], [1.0]]
    with pytest.raises(ValueError) as want:
        np.asarray(values, dtype=float)
    with pytest.raises(ValueError) as got:
        float_array("x", values)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("module, key, value", [
    ("mdp", "rewards", [[0.0, 1.0], [1.0]]),
    ("mdp", "rewards", [[0.0, 1.0], 1.0]),
    ("mdp", "transition", [[[0], [0, 0]]]),
    ("mdp", "legacy_policy", [[0], 0]),
    ("gravity", "d_mat", [[1.0, 2.0], [2.0, 1.0], [1.0, 1.5], [2.5, 2.0], [1.5]]),
])
def test_cli_ragged_number_array_is_a_config_error(module, key, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module=module, params={key: value})))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("module, key, value, leaf", [
    ("mdp", "rewards", [["0.5", "1e0"]], "'0.5'"),
    ("mdp", "shock_probs", ["1"], "'1'"),
    ("mdp", "transition", [[["0"], [0]]], "'0'"),
    ("mdp", "legacy_policy", ["0"], "'0'"),
    ("mdp", "rewards", [[None, 1.0]], "None"),
    ("mdp", "rewards", [[0.5, 1.0], ["1"]], "'1'"),
    ("gravity", "n_vec", [5.0, None, 3.0, 2.0, 1.0], "None"),
    ("gravity", "p_vec", [1.0, "1.0"], "'1.0'"),
])
def test_cli_string_or_null_inside_a_number_array_is_a_config_error(module, key, value, leaf,
                                                                     tmp_path, capsys):
    """np.asarray would parse the strings and read None as NaN."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(minimal(module=module, params={key: value})))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{key}: every element must be a number, got {leaf}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_float_array_keeps_an_ndarray_and_numpy_scalars():
    arr = np.arange(6.0).reshape(2, 3)
    assert float_array("x", arr).tobytes() == arr.tobytes()
    assert float_array("x", [np.float64(0.5), np.int64(2)]).tolist() == [0.5, 2.0]
