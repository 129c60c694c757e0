"""The exit-code contract under mutated scenarios: `emt-lab run` on a bundled
scenario with one or two mutations exits 0, 1, 2 or 3, never with an
internal error or a traceback, says why on exits 2 and 3, and writes only
below --out."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import emt_lab
from emt_lab.cli import main

SCENARIO_DIR = Path(emt_lab.__file__).parent / "scenarios"
# The bundled scenarios, with the sizes that take longest made small, so an
# example runs in milliseconds.
SMALLER = {"evt_exponential": {"k_draws": 200, "replicates": 300},
           "feedback_default": {"horizon": 300}}
SCENARIOS = {}
for _path in sorted(SCENARIO_DIR.glob("*.json")):
    _doc = json.loads(_path.read_text())
    _doc["params"].update(SMALLER.get(_doc["name"], {}))
    SCENARIOS[_doc["name"]] = _doc

ODD_VALUES = [None, True, 0, -1, 0.5, 1e308, -1e308, float("nan"), float("inf"), float("-inf"),
              10**400, 2**64, "x", [], {}, [[1.0]], 1e-320]
ODD_SEEDS = [0, 2**64 - 1, 2**64, -1]


def _places(doc):
    """(container, key) of each value the mutations may replace: every
    top-level value and every value nested inside `params`."""
    places, todo = [(doc, key) for key in doc], [doc.get("params")]
    while todo:
        node = todo.pop()
        keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            places.append((node, key))
            todo.append(node[key])
    return places


@st.composite
def mutated_runs(draw):
    """(scenario document, extra CLI arguments) with one or two mutations."""
    doc = copy.deepcopy(SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))])
    args = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["reshape", "value", "swap", "seed"]))
        places = _places(doc)
        arrays = [(node, key) for node, key in places if isinstance(node[key], list)]
        if kind == "reshape" and arrays:
            node, key = draw(st.sampled_from(arrays))
            wrap = not node[key] or draw(st.booleans())
            node[key] = [node[key]] if wrap else node[key][0]
        elif kind in ("reshape", "value"):  # a scenario with no array takes a value
            node, key = draw(st.sampled_from(places))
            node[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif kind == "swap":
            other = draw(st.sampled_from(sorted(SCENARIOS)))
            doc["params"] = copy.deepcopy(SCENARIOS[other]["params"])
        else:
            args = ["--seed", str(draw(st.sampled_from(ODD_SEEDS)))]
    return doc, args


def _with(name, **params):
    doc = copy.deepcopy(SCENARIOS[name])
    doc["params"].update(params)
    return doc, []


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_runs())
@example(_with("mdp_default", shock_probs=[[1.0]]))
@example(_with("flywheel_default", n_vec=[[5.0, 4.0, 3.0, 2.0, 1.0]]))
@example(_with("flywheel_default", p_vec=[[1.0, 1.0]]))
@example(_with("mdp_default", rewards=[0.0, 1.0]))
@example(_with("flywheel_default", d_mat=[1.0, 2.0]))
@example(_with("mdp_default", rewards=[[[0.0, 1.0]]]))
def test_a_mutated_scenario_exits_with_a_contract_code(run):
    doc, args = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg, out = tmp / "cfg.json", tmp / "run" / "out"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(cfg), "--out", str(out), *args])
        err = err.getvalue()
        assert code in (0, 1, 2, 3)
        assert "internal error" not in err and "Traceback" not in err
        assert code < 2 or err
        written = [p for p in tmp.rglob("*") if p.is_file() or p.is_symlink()]
        assert all(p == cfg or p.resolve().is_relative_to(out.resolve()) for p in written)
