"""Subsidy planner against a grid-search oracle; selection operators."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emt_lab
from emt_lab import ConvergenceError, DomainError, InputError, NumericError
from emt_lab.cli import main
from emt_lab.policy import (
    _brentq,
    IdeaRecord,
    NeedsKnowledgeLink,
    Occupation,
    SubsidyProblem,
    demanduct_select,
    exduct,
    governance_filter,
    labor_supply,
    optimize_subsidies,
    recursive_utility,
)

THREE_OCC = (
    Occupation(w=1.0, l_bar=1.0, eta=0.5, lambda_align=1.0),
    Occupation(w=1.0, l_bar=2.0, eta=1.0, lambda_align=1.0),
    Occupation(w=2.0, l_bar=1.0, eta=2.0, lambda_align=3.0),
)


def grid_oracle(occs, budget, spend_step=1e-3):
    """Best objective over an exhaustive grid on the budget simplex.

    Each occupation's objective is precomputed as a function of its own
    spend b = s*L(s) (monotone in s, so invertible on a grid), then the
    budget is split across occupations on a uniform spend grid.
    """
    n_pts = int(round(budget / spend_step)) + 1
    spend_grid = np.linspace(0.0, budget, n_pts)
    per_occ = []
    for occ in occs:
        # invert b(s) = s*L(s) on a dense s-grid
        s_hi = budget / occ.l_bar + budget  # generous upper bound
        s_dense = np.linspace(0.0, s_hi, 200_001)
        labor = occ.l_bar * (1.0 + occ.eta * np.log1p(s_dense / occ.w))
        b_dense = s_dense * labor
        s_of_b = np.interp(spend_grid, b_dense, s_dense)
        obj = occ.lambda_align * occ.l_bar * (1.0 + occ.eta * np.log1p(s_of_b / occ.w))
        per_occ.append(obj)
    assert len(occs) == 3
    f0, f1, f2 = per_occ
    best = -np.inf
    for i0 in range(n_pts):
        rem = n_pts - i0
        # vectorize over i1; i2 takes the remainder of the spend budget
        i1 = np.arange(rem)
        i2 = (rem - 1) - i1
        vals = f0[i0] + f1[i1] + f2[i2]
        best = max(best, float(vals.max()))
    return best


def test_labor_supply_values():
    occ = Occupation(w=1.0, l_bar=1.0, eta=1.0, lambda_align=1.0)
    assert labor_supply(occ, 0.0) == 1.0
    assert labor_supply(occ, math.e - 1.0) == pytest.approx(2.0)
    flat = Occupation(w=1.0, l_bar=3.0, eta=0.0, lambda_align=1.0)
    assert labor_supply(flat, 100.0) == 3.0
    with pytest.raises(DomainError):
        labor_supply(occ, -1.0)


def test_labor_supply_concave_increasing():
    occ = Occupation(w=2.0, l_bar=1.5, eta=0.8, lambda_align=1.0)
    grid = np.linspace(0.0, 10.0, 101)
    vals = np.array([labor_supply(occ, s) for s in grid])
    diffs = np.diff(vals)
    assert np.all(diffs > 0)
    assert np.all(np.diff(diffs) < 0)


def test_planner_matches_grid_oracle():
    problem = SubsidyProblem(occupations=THREE_OCC, budget=2.0)
    sol = optimize_subsidies(problem)
    oracle = grid_oracle(THREE_OCC, 2.0)
    assert sol.objective >= oracle - 1e-3
    assert abs(sol.spend - 2.0) <= 1e-3 * 2.0
    assert sol.multiplier > 0


def test_planner_kkt_stationarity():
    problem = SubsidyProblem(occupations=THREE_OCC, budget=2.0)
    sol = optimize_subsidies(problem)
    for occ, s in zip(THREE_OCC, sol.s_star):
        if s > 0:
            marg_obj = occ.lambda_align * occ.eta * occ.l_bar / (occ.w + s)
            marg_spend = labor_supply(occ, s) + s * occ.l_bar * occ.eta / (occ.w + s)
            assert marg_obj == pytest.approx(sol.multiplier * marg_spend, rel=1e-6)


def test_planner_symmetry():
    twins = (
        Occupation(w=1.0, l_bar=1.0, eta=1.0, lambda_align=1.0),
        Occupation(w=1.0, l_bar=1.0, eta=1.0, lambda_align=1.0),
    )
    sol = optimize_subsidies(SubsidyProblem(occupations=twins, budget=3.0))
    assert abs(sol.s_star[0] - sol.s_star[1]) < 1e-6


def test_planner_flat_objective():
    rigid = (Occupation(w=1.0, l_bar=1.0, eta=0.0, lambda_align=1.0),)
    sol = optimize_subsidies(SubsidyProblem(occupations=rigid, budget=1.0))
    assert np.all(sol.s_star == 0.0)
    assert sol.spend == 0.0
    assert sol.note
    # the objective is exactly rounded: with lambda_align * l_bar of 1.0,
    # 2**-53 and 2**-53 it is the float 1 + 2**-52, while adding left to right
    # rounds each 2**-53 away
    rigid = tuple(Occupation(w=1.0, l_bar=l_bar, eta=0.0, lambda_align=1.0)
                  for l_bar in (1.0, 2.0**-53, 2.0**-53))
    sol = optimize_subsidies(SubsidyProblem(occupations=rigid, budget=1.0))
    assert sol.objective == 1.0000000000000002


RIGID = {"w": 1.0, "l_bar": 1.0, "eta": 0.0, "lambda_align": 1.0}


def _cli_run(occupations, budget, tmp_path, capsys):
    """`emt-lab run` on one policy scenario: exit code, report line, artifact."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"name": "p", "module": "policy",
                                "params": {"occupations": occupations, "budget": budget}}))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().out, json.loads((tmp_path / "out" / "p.json").read_text())


@pytest.mark.parametrize("budget", [0.5, 2.0, 8.0])
def test_run_checks_the_budget_wherever_its_multiplier_is_positive(budget, tmp_path, capsys):
    # the rigid occupation has lambda_align * eta = 0, yet the budget binds
    occs = [RIGID, {"w": 1.0, "l_bar": 2.0, "eta": 1.0, "lambda_align": 1.0}]
    code, line, doc = _cli_run(occs, budget, tmp_path, capsys)
    assert code == 0 and "[budget_binds=pass]" in line
    assert doc["multiplier"] > 0 and doc["spend"] == pytest.approx(budget, rel=1e-12)


def test_run_of_a_flat_objective_has_a_note_and_no_checks(tmp_path, capsys):
    code, line, doc = _cli_run([RIGID], 1.0, tmp_path, capsys)
    assert code == 0 and "[no embedded checks]" in line
    assert doc["note"] and doc["multiplier"] == 0.0


def test_planner_budget_monotonicity():
    objs = [
        optimize_subsidies(SubsidyProblem(occupations=THREE_OCC, budget=b)).objective
        for b in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(objs, objs[1:]))


def test_planner_zero_alignment_gets_nothing():
    occs = (
        Occupation(w=1.0, l_bar=1.0, eta=1.0, lambda_align=1.0),
        Occupation(w=1.0, l_bar=1.0, eta=1.0, lambda_align=0.0),
    )
    sol = optimize_subsidies(SubsidyProblem(occupations=occs, budget=1.0))
    assert sol.s_star[1] == 0.0
    assert sol.s_star[0] > 0.0


def test_governance_filter():
    ideas = [IdeaRecord(0, 0.2), IdeaRecord(1, 0.7), IdeaRecord(2, 0.9),
             IdeaRecord(3, 0.95, feasible=False)]
    kept = governance_filter(ideas, 0.5)
    assert [i.id for i in kept] == [1, 2]
    assert governance_filter(ideas, 1.0) == []
    all_feasible = governance_filter(ideas, -1e9)
    assert [i.id for i in all_feasible] == [0, 1, 2]
    # idempotence
    assert governance_filter(kept, 0.5) == kept


def test_demanduct_select():
    assert demanduct_select([IdeaRecord(0, 1.0), IdeaRecord(1, 3.0), IdeaRecord(2, 2.0)]) == 1
    assert demanduct_select([IdeaRecord(0, 2.0), IdeaRecord(1, 2.0)]) == 0
    with pytest.raises(InputError):
        demanduct_select([])
    with pytest.raises(InputError):
        demanduct_select([IdeaRecord(0, 1.0, feasible=False)])


def test_demanduct_invariant_under_monotone_transform():
    scores = [0.1, 2.3, -1.0, 2.2]
    ideas = [IdeaRecord(i, s) for i, s in enumerate(scores)]
    transformed = [IdeaRecord(i, math.exp(3 * s) + 1) for i, s in enumerate(scores)]
    assert demanduct_select(ideas) == demanduct_select(transformed)


def test_exduct():
    link = NeedsKnowledgeLink(
        needs=np.array([1.0, 0.0]),
        knowledge_items=(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                         np.array([0.6, 0.6])),
        threshold=0.5,
    )
    assert exduct(link) == [0, 2]
    with pytest.raises(InputError):
        NeedsKnowledgeLink(needs=np.array([1.0, 0.0]),
                           knowledge_items=(np.array([1.0]),), threshold=0.0)


def test_exduct_scaling_bilinearity():
    rng = np.random.default_rng(4)
    needs = rng.uniform(-1, 1, 5)
    items = tuple(rng.uniform(-1, 1, 5) for _ in range(10))
    tau, c = 0.2, 3.7
    base = exduct(NeedsKnowledgeLink(needs, items, tau))
    scaled = exduct(NeedsKnowledgeLink(c * needs, items, c * tau))
    assert base == scaled


def test_recursive_utility():
    assert recursive_utility([1.0], 0.5, u_tail=1.0) == pytest.approx(2.0)
    assert recursive_utility([1.0, 1.0], 0.5, u_tail=0.0) == pytest.approx(1.5)
    # backward recursion agrees with the closed form
    rng = np.random.default_rng(8)
    u = rng.uniform(-1, 1, 30)
    beta, tail = 0.9, 0.4
    forward = recursive_utility(u, beta, u_tail=tail)
    value = tail / (1 - beta)
    for ut in reversed(u):
        value = ut + beta * value
    assert forward == pytest.approx(value, abs=1e-12)
    with pytest.raises(DomainError):
        recursive_utility([1.0], 1.0)


# Root-find test functions with a root at c and a scale k: smooth, steep,
# convex, a sign step that forces bisection, one whose products of two values
# underflow (the sign tests read sign bits, not products), and one that turns
# NaN past c + k. Each is plain float arithmetic, as policy's are.
SHAPES = {
    "cubic": lambda c, k: lambda x: (x - c) * ((x - c) * (x - c) + k),
    "tanh": lambda c, k: lambda x: math.tanh(k * (x - c)),
    "exp": lambda c, k: lambda x: math.exp(k * x) - math.exp(k * c),
    "step": lambda c, k: lambda x: k if x > c else -k,
    "tiny": lambda c, k: lambda x: 1e-200 * (x - c) * (x - c - k),
    "nan_past": lambda c, k: lambda x: x - c if x < c + k else math.nan,
}
# policy's inner and outer (xtol, rtol, maxiter), and scipy's default rtol
SCIPY_RTOL = 4 * sys.float_info.epsilon
POLICY_TOLERANCES = [(1e-14, SCIPY_RTOL, 100), (1e-15, 8.9e-16, 500)]
random_tolerances = st.tuples(
    st.floats(-16, -1).map(lambda e: 10.0**e),
    st.floats(0, 8).map(lambda e: SCIPY_RTOL * 10.0**e),
    st.integers(1, 600),
)


@settings(max_examples=400, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), c=st.floats(-5, 5), k=st.floats(0.1, 3),
       a=st.floats(-20, 20), b=st.floats(-20, 20),
       tols=st.sampled_from(POLICY_TOLERANCES) | random_tolerances)
def test_brentq_returns_the_bits_of_scipys_brentq(shape, c, k, a, b, tols):
    """The port takes scipy's steps: on every converged case the same float,
    bit for bit, and on every failure the port's error type for scipy's."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    f, (xtol, rtol, maxiter) = SHAPES[shape](c, k), tols
    try:
        expected = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except RuntimeError:  # scipy: out of iterations
        with pytest.raises(ConvergenceError, match=f"did not converge in {maxiter} iterations"):
            _brentq(f, a, b, xtol, rtol, maxiter)
    except ValueError as exc:  # scipy: no sign change, or a NaN value
        error = NumericError if "NaN" in str(exc) else ConvergenceError
        with pytest.raises(error):
            _brentq(f, a, b, xtol, rtol, maxiter)
    else:
        assert _brentq(f, a, b, xtol, rtol, maxiter).hex() == expected.hex()


def test_brentq_errors():
    with pytest.raises(ConvergenceError, match="have the same sign"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(NumericError, match=r"NaN at x=1\.0"):
        _brentq(lambda x: -1.0 if x < 1.0 else math.nan, 0.0, 1.0)
    with pytest.raises(ConvergenceError, match="did not converge in 2 iterations") as info:
        _brentq(lambda x: x**3 - 0.3, 0.0, 1.0, maxiter=2)
    assert info.value.residual == pytest.approx(-0.025375)
    assert _brentq(lambda x: x, 0.0, 1.0) == 0.0 and _brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0


OVERFLOWING_PLANS = {
    "tiny_wage": [{**RIGID, "eta": 0.5, "w": 1e-300}],
    "every_field_huge": [{"w": 1e300, "l_bar": 1e300, "eta": 1e300, "lambda_align": 1e300}],
    "eta_and_alignment_huge": [{**RIGID, "eta": 1e300, "lambda_align": 1e300}],
}


@pytest.mark.parametrize("occupations", OVERFLOWING_PLANS.values(), ids=OVERFLOWING_PLANS)
def test_cli_root_find_failure_is_a_runtime_error(occupations, tmp_path, capsys):
    """A root-find that runs out of iterations or meets a NaN ends as a model
    failure, exit 3, not as the CLI's last resort."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"name": "p", "module": "policy",
                                "params": {"occupations": occupations}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: root-find") and "internal error" not in err


@pytest.mark.parametrize("i, change, message", [
    (0, {"w": 1e-300},
     "root-find of the budget multiplier: did not converge in 500 iterations"),
    (0, {"eta": 1e300, "lambda_align": 1e300},
     "root-find of the subsidy of occupation 0: the function is NaN at x=0.0"),
    (1, {"eta": 1e300, "lambda_align": 1e300},
     "root-find of the subsidy of occupation 1: the function is NaN at x=0.0"),
])
def test_cli_root_find_failure_names_the_search(i, change, message, tmp_path, capsys):
    """policy_default with one occupation pushed out of range: the runtime
    error says which root-find failed."""
    cfg = json.loads((Path(emt_lab.__file__).parent / "scenarios" / "policy_default.json").read_text())
    cfg["params"]["occupations"][i].update(change)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"runtime error: {message}\n"
