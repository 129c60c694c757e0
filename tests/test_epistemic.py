"""Epistemic mode-transition dynamics and problem-pool behavior."""

import math
import sys
from array import array
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from emt_lab import DomainError, InputError, epistemic, make_generator, runner
from emt_lab.cli import bundled_scenarios
from emt_lab.epistemic import (
    EpistemicParams,
    EpistemicState,
    ProblemPool,
    Scenario,
    discovery_probability,
    hamiltonian_value,
    initial_state,
    inversion_crossing,
    marginal_ideation_cost,
    pool_streams,
    research_output,
    run,
    step_knowledge,
    step_problem_pool,
)


def test_discovery_probability_values():
    assert discovery_probability(0.0) == 1.0
    assert discovery_probability(1.0) == 0.5
    with pytest.raises(DomainError):
        discovery_probability(-0.1)


@given(st.floats(min_value=0, max_value=1e6))
def test_discovery_probability_in_unit_interval(theta):
    assert 0 < discovery_probability(theta) <= 1


def test_marginal_cost_decreasing_in_capability():
    costs = [marginal_ideation_cost(1.0, 1.0, a) for a in (0.0, 1.0, 10.0, 100.0)]
    assert costs[0] == 1.0
    assert all(b < a for a, b in zip(costs, costs[1:]))


def test_uncertainty_boundary_inclusive():
    params = EpistemicParams(p_bar=10.0, eps_resid=0.01)
    at_bar = initial_state(params, p0=10.0)
    assert at_bar.theta == params.eps_resid
    below = initial_state(params, p0=10.0 - 1e-9)
    assert below.theta == params.theta0 / (1.0 + below.p)


def test_knowledge_step_euler_linear_case():
    # phi=0 is not allowed by a_cap**0=1 only when a_cap>0; use a_cap=1
    params = EpistemicParams(alpha_prod=2.0, phi_elast=1.0, lp=3.0)
    state = initial_state(params, a_cap=1.0, p0=0.0)
    nxt = step_knowledge(state, params, dt=0.5)
    assert nxt.p == pytest.approx(0.0 + 2.0 * 1.0 * 3.0 * 0.5)
    assert nxt.t == pytest.approx(0.5)


def test_mode_transition_trajectory():
    params = EpistemicParams(p_bar=5.0, eps_resid=0.01, alpha_prod=1.0, lp=1.0)
    state = initial_state(params, a_cap=1.0)
    pis = [state.pi]
    crossed = False
    for _ in range(100):
        state = step_knowledge(state, params, dt=0.2)
        pis.append(state.pi)
        if state.p >= params.p_bar:
            crossed = True
            assert state.theta == params.eps_resid
    assert crossed
    assert all(b >= a for a, b in zip(pis, pis[1:]))


def test_theta_and_pi_are_folded_from_the_first_row_past_p_bar():
    """run hands theta and pi as array('d'), so the writer folds each into its
    line template from its constant tail on, which starts at the first row
    with P >= p_bar (criterion 12's row) on the bundled default."""
    cfg = dict(bundled_scenarios())["epistemic_default.json"]
    (header, columns), _ = run(cfg.scenario, cfg.seed)
    P = columns[header.index("P")]
    first = next(i for i, p in enumerate(P) if p >= cfg.scenario.p_bar)
    assert 0 < first < len(P) - 1
    for name in ("theta", "pi"):
        col = columns[header.index(name)]
        assert type(col) is array and col.typecode == "d"
        assert runner._tail_start(col, len(col)) == first


def test_inversion_flag():
    params = EpistemicParams(c0=1.0, alpha_cost=1.0, theta_star=0.1)
    low = initial_state(params, a_cap=0.0)
    assert not low.inverted
    high = initial_state(params, a_cap=100.0)  # cost ~ 0.0099 < 0.1
    assert high.inverted


def test_research_output_clamping_and_rate():
    params = EpistemicParams(lambda_align=0.5)
    out = research_output(ProblemPool(problems=[1.0, 0.0]), params, a_cap=0.5)
    # second problem's raw ratio 0.5/eps_floor >> 1 gets clamped
    assert out.clamped == 1
    assert out.solve_probs[1] == 1.0
    assert out.solve_probs[0] == pytest.approx(0.5 / (1.0 + params.eps_floor))
    assert out.r == pytest.approx(0.5 * sum(out.solve_probs))


def test_research_sums_left_to_right():
    # probabilities 1.0, 2**-53, 2**-53: each small one rounds away when added
    # to 1.0 alone, and a compensated sum would give 1 + 2**-52
    _, probs, r = epistemic._research([0.5, 2.0**53, 2.0**53], 1.0, 1.0, 0.0)
    assert probs == [1.0, 2.0**-53, 2.0**-53]
    assert r == 1.0
    assert math.fsum(probs) == 1.0 + 2.0**-52


def test_research_output_skips_resolved_problems():
    pool = ProblemPool(problems=[1.0, 0.0, 3.0], open=[True, False, True])
    eps = EpistemicParams().eps_floor
    out = research_output(pool, EpistemicParams(), a_cap=0.5)
    assert out.clamped == 0
    assert out.solve_probs.tolist() == [0.5 / (1.0 + eps), 0.5 / (3.0 + eps)]


def test_pool_rejects_bad_arrays():
    with pytest.raises(DomainError):
        ProblemPool(problems=[1.0, -0.5])
    with pytest.raises(InputError):
        ProblemPool(problems=[1.0, 2.0], open=[True])
    with pytest.raises(InputError):
        ProblemPool(problems=[[1.0, 2.0]])


def test_the_pool_is_only_its_state_and_its_rates_are_checked_once():
    """The rates live on EpistemicParams alone, so the values that once
    broke a pool's step (inside numpy, with ZeroDivisionError, or silently)
    fail where the params are built."""
    assert [f.name for f in fields(ProblemPool)] == ["problems", "open"]
    for key, value in (("eta_rate", -1.0), ("eps_floor", -1.0), ("lambda_align", 5.0)):
        with pytest.raises(DomainError, match=f"^{key}: must be "):
            EpistemicParams(**{key: value})


def test_pool_step_resolves_everything_at_probability_one():
    params = EpistemicParams(eta_rate=0.0, lambda_align=1.0)
    pool = ProblemPool(problems=np.full(20, 0.5))
    out = research_output(pool, params, a_cap=10.0)  # all probs clamp to 1
    new_pool, surplus = step_problem_pool(pool, out, params, 1.0, pool_streams(0))
    assert not new_pool.open.any()
    assert new_pool.problems.tolist() == [0.5] * 20  # resolved problems are kept
    assert pool.open.all()  # the step returns a new pool
    assert surplus  # R = 20 > eta = 0


def _states(streams) -> list:
    return [g.bit_generator.state for g in streams]


def test_pool_step_draw_order_matches_scalar_draws():
    # Scalar calls on streams 1, 2 and 3 of the seed: one uniform per open
    # problem in creation order from stream 1, the arrival count from
    # stream 2, one exponential per arrival from stream 3, and no other draw.
    complexities = [0.5, 2.0, 1.0, 4.0, 0.1]
    pool = ProblemPool(problems=complexities, open=[True, False, True, True, True])
    params = EpistemicParams(eta_rate=30.0, lambda_align=0.8)
    out = research_output(pool, params, a_cap=0.7)
    dt = 0.5
    streams = pool_streams(7)
    new_pool, _ = step_problem_pool(pool, out, params, dt, streams)

    uniforms, counts, exps = (make_generator(7, i) for i in (1, 2, 3))
    still_open = [uniforms.random() >= min(1.0, 0.8 * p * dt) for p in out.solve_probs.tolist()]
    n_new = counts.poisson(30.0 * dt)
    arrivals = [float(exps.exponential(np.mean(complexities))) for _ in range(n_new)]
    assert n_new > 0 and True in still_open and False in still_open
    assert new_pool.problems.tolist() == complexities + arrivals
    assert new_pool.open.tolist() == [still_open[0], False, *still_open[1:]] + [True] * n_new
    assert _states(streams) == _states((uniforms, counts, exps))


def test_empty_pool_has_no_output_and_draws_nothing():
    pool, params = ProblemPool(), EpistemicParams(eta_rate=0.0)
    out = research_output(pool, params, a_cap=1.0)
    assert out.r == 0.0
    assert len(out.solve_probs) == 0
    assert out.clamped == 0
    streams = pool_streams(3)
    before = _states(streams)
    new_pool, surplus = step_problem_pool(pool, out, params, 1.0, streams)
    assert _states(streams) == before  # poisson(0.0) draws nothing
    assert len(new_pool.problems) == 0
    assert not surplus


def test_a_never_filled_pool_draws_arrivals_with_complexity_mean():
    pool, params = ProblemPool(), EpistemicParams(eta_rate=4.0, complexity_mean=5.0)
    out = research_output(pool, params, a_cap=1.0)
    new_pool, _ = step_problem_pool(pool, out, params, 1.0, pool_streams(9))
    n_new = make_generator(9, 2).poisson(4.0)
    assert n_new > 0
    assert new_pool.problems.tolist() == make_generator(9, 3).exponential(5.0, n_new).tolist()


def test_arrivals_draw_from_mean_of_resolved_problems():
    # The mean sums the complexities one at a time, in creation order, from
    # 0.0. The second pool tells that sum apart from a pairwise one: 1.0 and
    # eight 2**-53 sum to 1.0 left to right but to 1.0000000000000009 pairwise.
    for complexities in ([1.0, 3.0], [1.0] + [2.0**-53] * 8):
        closed = [False] * len(complexities)
        pool, params = ProblemPool(problems=complexities, open=closed), EpistemicParams(eta_rate=4.0)
        out = research_output(pool, params, a_cap=1.0)
        assert len(out.solve_probs) == 0 and out.r == 0.0
        new_pool, _ = step_problem_pool(pool, out, params, 1.0, pool_streams(9))

        total = 0.0
        for x in complexities:
            total += x
        n_new = make_generator(9, 2).poisson(4.0)
        assert n_new > 0
        arrivals = make_generator(9, 3).exponential(total / len(complexities), n_new).tolist()
        assert new_pool.problems.tolist() == complexities + arrivals
        assert new_pool.open.tolist() == closed + [True] * n_new


def test_pool_step_arrival_rate_matches_poisson_mean():
    streams = pool_streams(123)
    pool, params = ProblemPool(), EpistemicParams(eta_rate=3.0, lambda_align=1.0)
    out = research_output(pool, params, a_cap=1.0)
    totals = []
    for _ in range(2000):
        new_pool, _ = step_problem_pool(pool, out, params, 1.0, streams)
        totals.append(len(new_pool.problems))
    mean = np.mean(totals)
    # Poisson(3): 3 sigma of the sample mean
    assert abs(mean - 3.0) < 3 * math.sqrt(3.0 / 2000)


def test_pool_step_rejects_stale_output():
    params = EpistemicParams()
    out = research_output(ProblemPool(problems=[1.0, 1.0]), params, a_cap=1.0)
    smaller = ProblemPool(problems=[1.0])
    with pytest.raises(InputError):
        step_problem_pool(smaller, out, params, 0.1, pool_streams(0))
    one_resolved = ProblemPool(problems=[1.0, 1.0], open=[True, False])
    with pytest.raises(InputError):
        step_problem_pool(one_resolved, out, params, 0.1, pool_streams(0))


def test_hamiltonian_value():
    assert hamiltonian_value(1.0, 2.0, 3.0, 4.0, 0.5, 2.0, 1.5) == pytest.approx(
        1.0 + 2.0 * (4.0 - 0.5 * 2.0) + 3.0 * 1.5
    )
    with pytest.raises(DomainError):
        hamiltonian_value(float("nan"), 0, 0, 0, 0, 0, 0)


def test_inversion_crossing():
    series = [(0.0, 1.0), (1.0, 0.5), (2.0, 0.05), (3.0, 0.01)]
    assert inversion_crossing(series, theta_star=0.1) == 2.0
    assert inversion_crossing(series, theta_star=0.001) is None
    with pytest.raises(InputError):
        inversion_crossing([(1.0, 1.0), (1.0, 0.5)], 0.1)
    with pytest.raises(InputError):
        inversion_crossing([], 0.1)


def test_params_validation():
    with pytest.raises(DomainError):
        EpistemicParams(theta0=-1.0)
    with pytest.raises(DomainError):
        EpistemicParams(eps_resid=2.0, theta0=1.0)
    with pytest.raises(DomainError):
        EpistemicParams(c0=0.0)


def _reference_run(s: Scenario, seed: int):
    """run()'s rows and checks, stepped through the public one-step API, and
    the pool of each row."""
    flag = ("false", "true")  # the CSV cells of a bool
    streams = pool_streams(seed)
    pool = ProblemPool(problems=make_generator(seed, 0).exponential(s.complexity_mean, s.n_problems))
    state = initial_state(s, a_cap=s.a0, p0=s.p0)
    out = research_output(pool, s, state.a_cap)
    rows = [[state.t, state.p, state.theta, state.c, state.pi, flag[state.inverted],
             out.r, len(out.solve_probs), flag[out.r > s.eta_rate]]]
    states, pools = [state], [pool]
    for _ in range(s.horizon):
        pool, surplus = step_problem_pool(pool, out, s, s.dt, streams)
        state = step_knowledge(state, s, s.dt)
        a_cap = state.a_cap + s.a_growth * s.dt
        c = marginal_ideation_cost(s.c0, s.alpha_cost, a_cap)
        state = EpistemicState(t=state.t, p=state.p, theta=state.theta, c=c, a_cap=a_cap,
                               pi=state.pi, inverted=c < s.theta_star)
        out = research_output(pool, s, state.a_cap)
        rows.append([state.t, state.p, state.theta, state.c, state.pi, flag[state.inverted],
                     out.r, int(np.count_nonzero(pool.open)), flag[surplus]])
        states.append(state)
        pools.append(pool)
    checks = {
        "mode_transition": all(x.theta == s.eps_resid for x in states[1:] if x.p >= s.p_bar),
        "pi_monotone": all(b.pi >= a.pi - 1e-15 for a, b in zip(states, states[1:])),
    }
    return rows, checks, pools


def _random_scenario(rng) -> Scenario:
    theta0 = float(rng.uniform(0.1, 3.0))
    return Scenario(
        theta0=theta0, eps_resid=float(rng.uniform(0.0, 0.99 * theta0)),
        p_bar=float(rng.uniform(0.5, 30.0)), alpha_prod=float(rng.uniform(0.0, 3.0)),
        phi_elast=float(rng.uniform(0.0, 3.0)), c0=float(rng.uniform(0.1, 3.0)),
        alpha_cost=float(rng.uniform(0.0, 3.0)), theta_star=float(rng.uniform(0.01, 1.0)),
        lp=float(rng.uniform(0.0, 3.0)), a0=float(rng.uniform(0.0, 5.0)),
        a_growth=float(rng.uniform(0.0, 2.0)), p0=float(rng.choice([0.0, rng.uniform(0.0, 20.0)])),
        dt=float(rng.choice([1.0, 0.1, rng.uniform(0.001, 2.0)])),
        horizon=int(rng.integers(1, 150)), n_problems=int(rng.integers(0, 40)),
        complexity_mean=float(rng.uniform(0.05, 5.0)), eta_rate=float(rng.uniform(0.0, 40.0)),
        lambda_align=float(rng.uniform(0.0, 1.0)),
        eps_floor=float(rng.choice([1e-6, rng.uniform(1e-9, 1.0)])),
    )


EDGE_CASES = {
    "no_arrivals": Scenario(eta_rate=0.0, horizon=50),
    "no_initial_problems": Scenario(n_problems=0, eta_rate=3.0, horizon=50),
    "never_any_problem": Scenario(n_problems=0, eta_rate=0.0, horizon=20),
    "no_alignment": Scenario(lambda_align=0.0, eta_rate=5.0, horizon=50),
    "unit_step": Scenario(dt=1.0, eta_rate=4.0, horizon=30),
    "one_step": Scenario(horizon=1),
    "integer_inputs": Scenario(a0=2, p0=3, dt=1, lambda_align=1, eta_rate=2, horizon=20),
    # capability above every complexity, so every step takes the capped closed form
    "capped_from_start": Scenario(a0=1e6, eta_rate=3.0, horizon=50),
    "never_capped": Scenario(a0=0, a_growth=0, eta_rate=3.0, horizon=50),
    # capped at first; with capability held, only an arrival can uncap the pool
    "uncapped_by_arrival": Scenario(a0=3.5, a_growth=0.0, complexity_mean=1.0, n_problems=5,
                                    eta_rate=5.0, horizon=60),
    # capped at t = 0, yet arrivals uncap the growing pool on 84 later rows, the last 364
    "uncapped_late": Scenario(a0=4.0, a_growth=0.02, complexity_mean=1.0, eta_rate=5.0,
                              horizon=400, n_problems=5),
    # capped from row 146 on: the tail reads about 59 blocks of uniforms
    "long_capped_tail": Scenario(horizon=3000, eta_rate=20.0),
}


def _assert_run_matches_reference(scenario, seed):
    (_, columns), checks = run(scenario, seed)
    ref_rows, ref_checks, _ = _reference_run(scenario, seed)
    assert repr([list(row) for row in zip(*columns)]) == repr(ref_rows)
    assert checks == ref_checks


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_run_matches_the_one_step_api_on_edge_cases(name):
    _assert_run_matches_reference(EDGE_CASES[name], seed=11)


def test_capped_edge_cases_take_the_path_they_name(monkeypatch):
    """`_research` runs only on the steps whose pool is not capped."""
    research, calls = epistemic._research, []
    monkeypatch.setattr(epistemic, "_research", lambda *a: calls.append(a) or research(*a))
    steps = {}
    for name in ("capped_from_start", "never_capped", "uncapped_by_arrival"):
        calls.clear()
        (_, columns), _ = run(EDGE_CASES[name], seed=11)
        steps[name] = len(calls)
    assert steps["capped_from_start"] == 0 and steps["never_capped"] == 51
    assert 0 < steps["uncapped_by_arrival"] < 61
    # that last run is capped at t = 0, where R is lambda * n_problems
    assert columns[6][0] == EDGE_CASES["uncapped_by_arrival"].lambda_align * 5


def test_the_capped_tail_starts_at_the_first_row_it_may(monkeypatch):
    """`run` carries only the pool's size from the first capped row on which
    no later arrival can uncap the pool: on the edge cases, the row after the
    last uncapped one (364 and 145), or none if the last row is uncapped."""
    capped_sizes, starts = epistemic._capped_sizes, []

    def tail(*args):
        sizes = list(capped_sizes(*args))
        starts.append(len(sizes))
        return sizes

    monkeypatch.setattr(epistemic, "_capped_sizes", tail)
    expected = {"capped_from_start": [0], "never_capped": [], "uncapped_by_arrival": [],
                "uncapped_late": [365], "long_capped_tail": [146]}
    for name, first in expected.items():
        starts.clear()
        run(EDGE_CASES[name], seed=11)
        assert [EDGE_CASES[name].horizon + 1 - n for n in starts] == first


class _FirstExponentialZero:
    """Stream 3 with its first standard exponential replaced by 0.0. Under an
    infinite mean complexity that arrival's complexity is inf * 0.0 = NaN, and
    every later one is NaN too. numpy draws 0.0 with probability about 2**-53,
    so no scenario file reaches it."""

    def __init__(self, gen):
        self.gen, self.zeroed = gen, False

    def standard_exponential(self, n):
        draws = self.gen.standard_exponential(n)
        if n and not self.zeroed:
            draws[0], self.zeroed = 0.0, True
        return draws


def _row_by_row_pool(s: Scenario, seed: int):
    """R and the pool size of each row as `run` takes them without a capped
    tail: the capped test on the max of the open complexities at every row,
    the draws a step at a time from `epistemic.pool_streams`."""
    uniforms, counts, exps = epistemic.pool_streams(seed)
    open_c = make_generator(seed, 0).exponential(s.complexity_mean, s.n_problems).tolist()
    created, a_cap, R, sizes = list(open_c), s.a0, [], []
    for k in range(s.horizon + 1):
        if k:
            open_c = epistemic._kept(open_c, uniforms.random(len(open_c)).tolist(), thresholds)
            mean_c = epistemic._left_sum(created) / len(created) if created else s.complexity_mean
            new = epistemic._arrivals(
                exps.standard_exponential(counts.poisson(s.eta_rate * s.dt)).tolist(), mean_c)
            created += new
            open_c += new
            a_cap += s.a_growth * s.dt
        if not open_c or a_cap / (max(open_c) + s.eps_floor) > 1.0:
            probs = [1.0] * len(open_c)
            R.append(s.lambda_align * len(open_c))
        else:
            probs, r = epistemic._research(open_c, a_cap, s.lambda_align, s.eps_floor)[1:]
            R.append(r)
        thresholds = [s.lambda_align * p * s.dt for p in probs]
        sizes.append(len(open_c))
    return R, sizes


def test_an_open_nan_complexity_keeps_the_run_row_by_row(monkeypatch):
    """max over a list holding a NaN depends on where the NaN sits, so a row
    may pass the capped test with a NaN open behind a finite complexity; a
    later row with the NaN first fails it, and its R is NaN. The tail must
    not start while a NaN is open. Here the three starting complexities sum
    past the largest float, so the first arrival is NaN and, with the pool
    capped behind the finite ones, outlives them (rows 15 to 17)."""
    streams = epistemic.pool_streams

    def nan_streams(seed):
        uniforms, counts, exps = streams(seed)
        return uniforms, counts, _FirstExponentialZero(exps)

    monkeypatch.setattr(epistemic, "pool_streams", nan_streams)
    s = Scenario(a0=sys.float_info.max, a_growth=0.0, complexity_mean=1e308, n_problems=3,
                 eta_rate=0.5, dt=0.5, lambda_align=0.5, horizon=30, alpha_prod=0.0)
    (_, columns), _ = run(s, 218)
    R, sizes = _row_by_row_pool(s, 218)
    assert repr(columns[6]) == repr(R) and columns[7] == sizes
    assert [i for i, r in enumerate(R) if math.isnan(r)] == [17]


def test_run_matches_the_one_step_api_on_random_scenarios():
    rng = np.random.default_rng(20261018)
    for _ in range(120):
        _assert_run_matches_reference(_random_scenario(rng), seed=int(rng.integers(2**32)))


@pytest.mark.parametrize("switch_at", [0.5, math.inf], ids=["half_threshold", "never"])
def test_mode_transition_check_fails_when_theta_leaves_the_law(switch_at, monkeypatch):
    # the default run crosses p_bar = 10, with rows on both sides of p_bar / 2
    def mutant(p, params):
        if p >= switch_at * params.p_bar:
            return params.eps_resid
        return params.theta0 / (1.0 + p)

    assert run(Scenario(), 0)[1]["mode_transition"]
    monkeypatch.setattr(epistemic, "_uncertainty", mutant)
    assert not run(Scenario(), 0)[1]["mode_transition"]


def _csv_and_checks(s: Scenario, seed: int):
    (header, columns), checks = run(s, seed)
    return "".join(runner._csv_blocks(header, columns)), checks


def test_run_bytes_do_not_depend_on_the_draw_block(monkeypatch):
    """A block of 1 draws every value in its own call; a block above the sum
    of the pool sizes draws each stream in one call. A step draws one uniform
    per problem open in the row before it, and each arrival is open in the
    row after its step, so neither stream needs more values than that sum."""
    rng = np.random.default_rng(20261020)
    for s in [*EDGE_CASES.values(), *(_random_scenario(rng) for _ in range(20))]:
        expected = _csv_and_checks(s, 11)
        beyond = sum(run(s, 11)[0][1][7]) + 1
        for block in (1, beyond):
            monkeypatch.setattr(epistemic, "_DRAW_BLOCK", block)
            assert _csv_and_checks(s, 11) == expected
        monkeypatch.undo()


def test_arrivals_do_not_depend_on_capability():
    """Common random numbers: two scenarios that differ only in a0 and
    a_growth resolve different problems, yet get bit-identical arrival
    counts and complexities, step by step."""
    low = Scenario(a0=0.5, a_growth=0.05, eta_rate=4.0, horizon=80)
    high = replace(low, a0=4.0, a_growth=1.0)
    (low_rows, _, low_pools), (high_rows, _, high_pools) = (
        _reference_run(s, seed=21) for s in (low, high))
    assert [row[7] for row in low_rows] != [row[7] for row in high_rows]
    assert [p.problems.size for p in low_pools] == [p.problems.size for p in high_pools]
    assert low_pools[-1].problems.tobytes() == high_pools[-1].problems.tobytes()


def _single_stream_step(pool: ProblemPool, out, params: EpistemicParams, dt: float, rng):
    """`step_problem_pool` as it drew before the pool had a stream per
    purpose: all from one generator, one uniform per open problem, then the
    arrival count, then one exponential per arrival. The oracle of the law."""
    open_ids = np.flatnonzero(pool.open)
    resolved = open_ids[rng.random(open_ids.size) < params.lambda_align * out.solve_probs * dt]
    n_new = rng.poisson(params.eta_rate * dt)
    arrivals = rng.exponential(pool.problems.mean() if pool.problems.size else params.complexity_mean,
                               n_new)
    is_open = np.concatenate((pool.open, np.ones(n_new, dtype=bool)))
    is_open[resolved] = False
    return replace(pool, problems=np.concatenate((pool.problems, arrivals)), open=is_open), None


def _pool_outcomes(s: Scenario, seeds, step, draws):
    """Per seed: the final open count, the number of arrivals and their mean
    complexity, stepping the pool with `step(pool, output, s, dt, draws(seed))`."""
    outcomes = []
    for seed in seeds:
        pool = ProblemPool(make_generator(seed, 0).exponential(s.complexity_mean, s.n_problems))
        streams = draws(seed)
        for k in range(s.horizon):
            out = research_output(pool, s, s.a0 + k * s.a_growth * s.dt)
            pool, _ = step(pool, out, s, s.dt, streams)
        arrivals = pool.problems[s.n_problems:]
        outcomes.append((np.count_nonzero(pool.open), arrivals.size, arrivals.mean()))
    return np.array(outcomes, dtype=float).T


def test_pool_law_matches_the_single_stream_order():
    """Over 1,000 seeds, the final pool size and the mean arrival complexity
    of the pool's streams and of the single-stream oracle agree within 4
    standard errors, and so do the exact expectations where they exist.

    Each seed's run is independent of the others, so a mean over N seeds
    has standard error sigma / sqrt(N), and a difference of two such means
    sqrt(s1^2 / N + s2^2 / N), with each sigma estimated by its sample
    standard deviation (relative error about sqrt(2 / N), 4.5% at N = 1,000).
    Both sides draw the starting pool from stream 0 of the same seed, which
    correlates them positively, so the difference spreads less than that and
    the bound is conservative. By the central limit theorem a difference of
    equal laws exceeds 4 standard errors with probability about 6e-5; the
    seeds are fixed, so the test is deterministic.
    The exact expectations: the total arrivals are Poisson(eta * dt *
    horizon), with variance equal to their mean; and given the counts, each
    arrival's complexity has expectation `complexity_mean`, because the mean
    complexity of all problems created, which scales the arrival draws, is a
    martingale that starts at the mean of the starting pool, whose
    expectation is `complexity_mean`, and resolutions never move it. So the
    mean arrival complexity of a run with arrivals has that expectation too.
    A scenario with eta * dt * horizon = 30 has arrivals with probability
    1 - e^-30.
    """
    s = Scenario(a0=1.0, a_growth=0.05, n_problems=5, eta_rate=2.0, dt=0.5, horizon=30,
                 lambda_align=0.9, complexity_mean=2.0)
    seeds, n = range(1000), 1000
    streams = _pool_outcomes(s, seeds, step_problem_pool, pool_streams)
    oracle = _pool_outcomes(s, seeds, _single_stream_step, lambda seed: make_generator(seed, 1))

    def se(x):
        return np.std(x, ddof=1) / math.sqrt(n)

    for ours, theirs in zip(streams, oracle):
        assert abs(ours.mean() - theirs.mean()) < 4 * math.hypot(se(ours), se(theirs))
    arrivals = s.eta_rate * s.dt * s.horizon
    for _, count, mean_c in (streams, oracle):
        assert abs(count.mean() - arrivals) < 4 * math.sqrt(arrivals / n)
        assert abs(mean_c.mean() - s.complexity_mean) < 4 * se(mean_c)


# Boundaries that no other test reaches: a comparison flipped at each of
# them (< for <=, > for >=) passes the rest of the suite.
def test_eps_resid_equal_to_theta0_is_rejected():
    with pytest.raises(DomainError, match="eps_resid"):
        EpistemicParams(theta0=1.0, eps_resid=1.0)


def test_zero_baseline_cost_is_rejected():
    with pytest.raises(DomainError, match="baseline cost"):
        marginal_ideation_cost(0.0, 1.0, 1.0)


def test_zero_dt_is_rejected_by_both_steps():
    with pytest.raises(DomainError, match="dt"):
        step_knowledge(initial_state(EpistemicParams(), a_cap=1.0), EpistemicParams(), 0.0)
    pool, params = ProblemPool(problems=[1.0]), EpistemicParams()
    with pytest.raises(DomainError, match="dt"):
        step_problem_pool(pool, research_output(pool, params, a_cap=1.0), params, 0.0,
                          pool_streams(0))


def test_a_cost_at_theta_star_is_not_inverted():
    assert inversion_crossing([(0.0, 0.1), (1.0, 0.05)], theta_star=0.1) == 1.0
    params = EpistemicParams(c0=0.1, alpha_cost=0.0, theta_star=0.1)
    assert not initial_state(params, a_cap=1.0).inverted
    (_, columns), _ = run(Scenario(c0=0.1, alpha_cost=0.0, theta_star=0.1, horizon=3), 0)
    assert list(columns[3]) == [0.1] * 4 and columns[5] == ["false"] * 4


def test_a_ratio_of_exactly_one_is_not_clamped():
    out = research_output(ProblemPool(problems=[1.0]), EpistemicParams(eps_floor=1.0), a_cap=2.0)
    assert out.solve_probs.tolist() == [1.0] and out.clamped == 0


def test_a_uniform_equal_to_its_threshold_keeps_its_problem_open():
    """A problem resolves when its uniform is below lambda * pi * dt, so with
    probability exactly that on the uniforms' grid of multiples of 2**-53: a
    uniform equal to the threshold keeps it open, in a step of the row loop
    and in the capped tail's flags."""
    assert epistemic._kept([1.0, 2.0, 3.0], [0.5, 0.25, 0.75], [0.5] * 3) == [1.0, 3.0]
    assert epistemic._kept_flags([0.5, 0.25, 0.75], 0.5) == b"\x01\x00\x01"


_AT_SLACK = 0.5 - 1e-15


@pytest.mark.parametrize("second, monotone",
                         [(_AT_SLACK, True), (math.nextafter(_AT_SLACK, 0.0), False)],
                         ids=["at_slack", "one_ulp_beyond"])
def test_pi_monotone_forgives_a_drop_of_1e_15_and_no_more(second, monotone, monkeypatch):
    """pi may fall by the slack 1e-15 between rows, as 0.5 to 0.5 - 1e-15,
    and not by one ULP more."""
    pis = iter([0.5, second])
    monkeypatch.setattr(epistemic, "discovery_probability", lambda theta: next(pis))
    assert run(Scenario(horizon=1), 0)[1]["pi_monotone"] is monotone
