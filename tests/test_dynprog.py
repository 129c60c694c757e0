"""Bellman solver against closed forms and the policy-enumeration oracle."""

import numpy as np
import pytest
from util_mdp import random_mdp

from emt_lab import ConvergenceError, DomainError, InputError, NumericError, make_generator
from emt_lab.dynprog import (
    MdpSpec,
    Scenario,
    enumerate_policies_value,
    evaluate_policy,
    ideation_surplus,
    path_sensitivity,
    realtime_surplus,
    run,
    value_iteration,
)


def single_state_mdp(beta):
    return MdpSpec(
        rewards=[[0.0, 1.0]],
        shock_probs=[1.0],
        transition=[[[0], [0]]],
        beta=beta,
    )


@pytest.mark.parametrize("beta,expected", [(0.5, 2.0), (0.9, 10.0)])
def test_single_state_closed_form(beta, expected):
    sol = value_iteration(single_state_mdp(beta))
    assert sol.values[0] == pytest.approx(expected, abs=1e-10)
    assert sol.policy[0] == 1


def test_tie_break_lowest_action():
    spec = MdpSpec(
        rewards=[[1.0, 1.0]],
        shock_probs=[1.0],
        transition=[[[0], [0]]],
        beta=0.5,
    )
    assert value_iteration(spec).policy[0] == 0


def test_spec_validation():
    with pytest.raises(InputError):
        MdpSpec([[1.0]], [0.5, 0.4], [[[0], [0]]], 0.9)
    with pytest.raises(InputError):
        MdpSpec([[1.0]], [1.0], [[[2]]], 0.9)
    with pytest.raises(DomainError):
        MdpSpec([[1.0]], [1.0], [[[0]]], 1.0)


def test_residual_decay_rate_bounded_by_beta():
    spec = random_mdp(0, beta=0.9)
    residuals = []
    v = np.zeros(spec.n_states)
    for _ in range(60):
        v_new = (spec.rewards + spec.beta * spec.expected_next_values(v)).max(axis=1)
        residuals.append(float(np.max(np.abs(v_new - v))))
        v = v_new
    tail = residuals[-10:]
    for a, b in zip(tail, tail[1:]):
        assert b <= spec.beta * a + 1e-14


def test_oracle_equivalence_small_batch():
    for seed in range(10):
        spec = random_mdp(seed)
        sol = value_iteration(spec, tol=1e-12)
        v_oracle, _ = enumerate_policies_value(spec)
        assert np.max(np.abs(sol.values - v_oracle)) < 1e-8


def test_greedy_policy_backup_consistency():
    spec = random_mdp(42)
    sol = value_iteration(spec, tol=1e-12)
    backup = (spec.rewards + spec.beta * spec.expected_next_values(sol.values)).max(axis=1)
    assert np.max(np.abs(backup - sol.values)) < 1e-10


def test_monotonicity_in_rewards():
    spec = random_mdp(3)
    base = value_iteration(spec).values
    bumped_rewards = spec.rewards.copy()
    bumped_rewards[2, 1] += 0.5
    bumped = value_iteration(
        MdpSpec(bumped_rewards, spec.shock_probs, spec.transition, spec.beta)
    ).values
    assert np.all(bumped >= base - 1e-10)


def test_ideation_surplus():
    assert ideation_surplus(2.0, 0.5) == pytest.approx(4.0)
    assert ideation_surplus(0.0, 1.0) == 0.0
    with pytest.raises(NumericError):
        ideation_surplus(1.0, 1e-10)
    with pytest.raises(DomainError):
        ideation_surplus(1.0, 1.0, eps_guard=0.0)


def test_realtime_surplus():
    spec = single_state_mdp(0.5)
    s = realtime_surplus(spec, np.array([0]))
    assert s[0] == pytest.approx(2.0, abs=1e-9)
    sol = value_iteration(spec)
    assert np.max(np.abs(realtime_surplus(spec, sol.policy))) < 1e-9


def test_realtime_surplus_nonnegative_random():
    rng_policies = np.random.default_rng(0)
    for seed in range(20):
        spec = random_mdp(seed + 100)
        legacy = rng_policies.integers(0, spec.n_actions, spec.n_states)
        assert float(np.min(realtime_surplus(spec, legacy))) >= -1e-8


def test_evaluate_policy_matches_long_simulation_free_check():
    # V_pi satisfies V = r_pi + beta * P_pi V by construction
    spec = random_mdp(7)
    pi = np.zeros(spec.n_states, dtype=int)
    v = evaluate_policy(spec, pi)
    r_pi = spec.rewards[np.arange(spec.n_states), pi]
    p_pi = spec.policy_transition_matrix(pi)
    assert np.allclose(v, r_pi + spec.beta * p_pi @ v, atol=1e-12)


def test_path_sensitivity_uniform_offset():
    spec = random_mdp(11, beta=0.9)
    deriv = path_sensitivity(spec, h=1e-3)
    assert np.max(np.abs(deriv - 1.0 / (1.0 - 0.9))) < 1e-4


def test_path_sensitivity_never_chosen_action():
    # bump only an action that is strictly dominated: derivative ~ 0
    spec = single_state_mdp(0.5)

    def perturb(base, p):
        rewards = base.rewards.copy()
        rewards[0, 0] += p  # action 0 loses by margin 1 >> h
        return MdpSpec(rewards, base.shock_probs, base.transition, base.beta)

    deriv = path_sensitivity(spec, h=1e-3, perturb=perturb)
    assert abs(deriv[0]) < 1e-10


def test_path_sensitivity_symmetric_in_h():
    spec = random_mdp(13)
    assert np.allclose(
        path_sensitivity(spec, h=1e-3), path_sensitivity(spec, h=1e-3), atol=0
    )


def reference_value_iteration(spec, tol, max_iter):
    """Value iteration with the axis reduction q.max(axis=1): (v, it, residual)."""
    threshold = tol * min(1.0, (1.0 - spec.beta) / spec.beta)
    v = np.zeros(spec.n_states)
    for it in range(1, max_iter + 1):
        v_new = (spec.rewards + spec.beta * spec.expected_next_values(v)).max(axis=1)
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        if residual <= threshold:
            return v, it, residual
    return None, max_iter, residual


def test_policy_transition_matrix_matches_loop():
    # 4 states and 6 shocks: most rows send several shocks to one next state
    spec = random_mdp(5, n_states=4, n_actions=3, n_shocks=6)
    policy = np.array([2, 0, 1, 2])
    expected = np.zeros((4, 4))
    for s in range(4):
        for k, prob in enumerate(spec.shock_probs):
            expected[s, spec.transition[s, policy[s], k]] += prob
    assert any(len(set(spec.transition[s, policy[s]])) < 6 for s in range(4))
    assert spec.policy_transition_matrix(policy).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed, n_states", [(0, 1), (1, 1), (2, 7), (3, 30), (4, 60)])
def test_evaluate_policy_matrix_and_solve_match_eye_minus_beta_p(seed, n_states, monkeypatch):
    spec = random_mdp(seed, n_states=n_states, n_actions=3, n_shocks=1 + seed % 3, beta=0.95)
    policy = make_generator(seed, 1).integers(0, 3, n_states)
    p_pi = spec.policy_transition_matrix(policy)
    expected = np.eye(n_states) - spec.beta * p_pi
    r_pi = spec.rewards[np.arange(n_states), policy]
    seen = []
    solve = np.linalg.solve

    def spy(a, b):
        seen.append(a.copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    values = evaluate_policy(spec, policy)
    assert seen[0].tobytes() == expected.tobytes()
    assert values.tobytes() == solve(expected, r_pi).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_value_iteration_matches_axis_max_reference(seed):
    spec = random_mdp(seed, n_states=30, n_actions=2 + seed % 3, n_shocks=1 + seed % 4)
    if seed % 2:  # tied action columns
        rewards = spec.rewards.copy()
        rewards[:, 1] = rewards[:, 0]
        spec = MdpSpec(rewards, spec.shock_probs, spec.transition, spec.beta)
    v, it, residual = reference_value_iteration(spec, 1e-12, 100_000)
    sol = value_iteration(spec)
    assert sol.values.tobytes() == v.tobytes()
    assert (sol.iterations, sol.residual) == (it, residual)
    q = spec.rewards + spec.beta * spec.expected_next_values(v)
    assert np.array_equal(sol.policy, q.argmax(axis=1))


@pytest.mark.parametrize("loose, tight", [(1e-6, 1e-12), (1e-10, 1e-14), (1e-12, 1e-12)])
def test_continued_solve_equals_solve_from_zero(loose, tight):
    spec = random_mdp(8, n_states=40, beta=0.95)
    start = value_iteration(spec, tol=loose)
    continued = value_iteration(spec, tol=tight, start=start)
    fresh = value_iteration(spec, tol=tight)
    assert continued.values.tobytes() == fresh.values.tobytes()
    assert np.array_equal(continued.policy, fresh.policy)
    assert (continued.iterations, continued.residual) == (fresh.iterations, fresh.residual)
    if loose == tight:
        assert continued is start


def test_tiny_max_iter_raises_the_same_error():
    spec = random_mdp(9, n_states=20)
    _, _, residual = reference_value_iteration(spec, 1e-12, 3)
    start = value_iteration(spec, tol=1e-2)
    assert start.iterations > 3
    for kwargs in ({}, {"start": start}):
        with pytest.raises(ConvergenceError, match="did not converge in 3 iterations") as err:
            value_iteration(spec, max_iter=3, **kwargs)
        assert err.value.residual == residual
    # a start at exactly max_iter sweeps that misses the tighter tolerance
    with pytest.raises(ConvergenceError) as err:
        value_iteration(spec, tol=1e-12, max_iter=start.iterations, start=start)
    assert err.value.residual == start.residual


def test_run_reports_the_scenario_solve_error_first():
    # The surplus solve (tol 1e-12, 100,000 sweeps) fails here as well; the
    # scenario solve's error comes first, as when the two solves ran apart.
    scenario = Scenario(rewards=[[0.0, 1.0]], beta=0.9999, tol=1e-13, max_iter=10, legacy_policy=[0])
    _, _, residual = reference_value_iteration(scenario, 1e-13, 10)
    with pytest.raises(ConvergenceError, match="did not converge in 10 iterations") as err:
        run(scenario, seed=0)
    assert err.value.residual == residual
