"""The mdp op's JSON paths against the json module and numpy they replace:
the artifact writer, the array conversion, and its config errors."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emt_lab._params import float_array
from emt_lab.cli import main
from emt_lab.runner import _json_text, _write_artifact
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
