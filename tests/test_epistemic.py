"""Epistemic mode-transition dynamics and problem-pool behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from emt_lab import DomainError, InputError, make_generator
from emt_lab.epistemic import (
    EpistemicParams,
    ProblemPool,
    discovery_probability,
    hamiltonian_value,
    initial_state,
    inversion_crossing,
    marginal_ideation_cost,
    research_output,
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


def test_inversion_flag():
    params = EpistemicParams(c0=1.0, alpha_cost=1.0, theta_star=0.1)
    low = initial_state(params, a_cap=0.0)
    assert not low.inverted
    high = initial_state(params, a_cap=100.0)  # cost ~ 0.0099 < 0.1
    assert high.inverted


def test_research_output_clamping_and_rate():
    pool = ProblemPool(problems=[1.0, 0.0], lambda_align=0.5)
    out = research_output(pool, a_cap=0.5)
    # second problem's raw ratio 0.5/eps_floor >> 1 gets clamped
    assert out.clamped == 1
    assert out.solve_probs[1] == 1.0
    assert out.solve_probs[0] == pytest.approx(0.5 / (1.0 + pool.eps_floor))
    assert out.r == pytest.approx(0.5 * sum(out.solve_probs))


def test_research_output_skips_resolved_problems():
    pool = ProblemPool(problems=[1.0, 0.0, 3.0], open=[True, False, True])
    out = research_output(pool, a_cap=0.5)
    assert out.clamped == 0
    assert out.solve_probs.tolist() == [0.5 / (1.0 + pool.eps_floor), 0.5 / (3.0 + pool.eps_floor)]


def test_pool_rejects_bad_arrays():
    with pytest.raises(DomainError):
        ProblemPool(problems=[1.0, -0.5])
    with pytest.raises(InputError):
        ProblemPool(problems=[1.0, 2.0], open=[True])
    with pytest.raises(InputError):
        ProblemPool(problems=[[1.0, 2.0]])


def test_pool_step_resolves_everything_at_probability_one():
    pool = ProblemPool(problems=np.full(20, 0.5), eta_rate=0.0, lambda_align=1.0)
    out = research_output(pool, a_cap=10.0)  # all probs clamp to 1
    new_pool, surplus = step_problem_pool(pool, out, dt=1.0, rng=make_generator(0))
    assert not new_pool.open.any()
    assert new_pool.problems.tolist() == [0.5] * 20  # resolved problems are kept
    assert pool.open.all()  # the step returns a new pool
    assert surplus  # R = 20 > eta = 0


def test_pool_step_draw_order_matches_scalar_draws():
    # One uniform per open problem in creation order, then the arrival
    # count, then one exponential per arrival, each as a scalar call.
    complexities = [0.5, 2.0, 1.0, 4.0, 0.1]
    pool = ProblemPool(problems=complexities, open=[True, False, True, True, True],
                       eta_rate=30.0, lambda_align=0.8)
    out = research_output(pool, a_cap=0.7)
    dt = 0.5
    new_pool, _ = step_problem_pool(pool, out, dt, rng=make_generator(5))

    ref = make_generator(5)
    still_open = [ref.random() >= min(1.0, 0.8 * p * dt) for p in out.solve_probs.tolist()]
    n_new = ref.poisson(30.0 * dt)
    arrivals = [float(ref.exponential(np.mean(complexities))) for _ in range(n_new)]
    assert n_new > 0
    assert new_pool.problems.tolist() == complexities + arrivals
    assert new_pool.open.tolist() == [still_open[0], False, *still_open[1:]] + [True] * n_new


def test_empty_pool_has_no_output_and_draws_nothing():
    pool = ProblemPool(eta_rate=0.0)
    out = research_output(pool, a_cap=1.0)
    assert out.r == 0.0
    assert len(out.solve_probs) == 0
    assert out.clamped == 0
    rng = make_generator(3)
    before = rng.bit_generator.state
    new_pool, surplus = step_problem_pool(pool, out, dt=1.0, rng=rng)
    assert rng.bit_generator.state == before
    assert len(new_pool.problems) == 0
    assert not surplus


def test_arrivals_draw_from_mean_of_resolved_problems():
    pool = ProblemPool(problems=[1.0, 3.0], open=[False, False], eta_rate=4.0)
    out = research_output(pool, a_cap=1.0)
    assert len(out.solve_probs) == 0 and out.r == 0.0
    new_pool, _ = step_problem_pool(pool, out, dt=1.0, rng=make_generator(9))

    ref = make_generator(9)
    n_new = ref.poisson(4.0)
    assert n_new > 0
    assert new_pool.problems.tolist() == [1.0, 3.0] + ref.exponential(2.0, n_new).tolist()
    assert new_pool.open.tolist() == [False, False] + [True] * n_new


def test_pool_step_arrival_rate_matches_poisson_mean():
    rng = make_generator(123)
    pool = ProblemPool(eta_rate=3.0, lambda_align=1.0)
    out = research_output(pool, a_cap=1.0)
    totals = []
    for _ in range(2000):
        new_pool, _ = step_problem_pool(pool, out, dt=1.0, rng=rng)
        totals.append(len(new_pool.problems))
    mean = np.mean(totals)
    # Poisson(3): 3 sigma of the sample mean
    assert abs(mean - 3.0) < 3 * math.sqrt(3.0 / 2000)


def test_pool_step_rejects_stale_output():
    pool = ProblemPool(problems=[1.0, 1.0])
    out = research_output(pool, a_cap=1.0)
    smaller = ProblemPool(problems=[1.0])
    with pytest.raises(InputError):
        step_problem_pool(smaller, out, dt=0.1, rng=make_generator(0))
    one_resolved = ProblemPool(problems=[1.0, 1.0], open=[True, False])
    with pytest.raises(InputError):
        step_problem_pool(one_resolved, out, dt=0.1, rng=make_generator(0))


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
