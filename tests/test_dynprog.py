"""Bellman solver against closed forms and the policy-enumeration oracle."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from util_mdp import random_mdp

from emt_lab import ConvergenceError, DomainError, InputError, NumericError, dynprog, make_generator
from emt_lab.dynprog import (
    MdpSpec,
    Scenario,
    SURPLUS_TOL,
    enumerate_policies_value,
    evaluate_policy,
    exact_policy_values,
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


@pytest.mark.parametrize("key, value", [("rewards", [0.0, 1.0]), ("rewards", [[[0.0, 1.0]]]),
                                        ("shock_probs", [[1.0]])],
                         ids=["rewards_1d", "rewards_3d", "shock_probs_2d"])
def test_a_spec_array_must_have_the_dimensions_of_its_default(key, value):
    """A 1-D `rewards` is no longer read as one state's row."""
    with pytest.raises(InputError, match=f"^{key}: must be "):
        MdpSpec(**{key: value})


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
    v = exact_policy_values(spec, pi)
    r_pi = spec.rewards[np.arange(spec.n_states), pi]
    p_pi = spec.policy_transition_matrix(pi)
    assert np.allclose(v, r_pi + spec.beta * p_pi @ v, atol=1e-12)


@pytest.mark.parametrize("beta", [0.5, 0.9, 0.99])
def test_evaluate_policy_within_tol_of_exact(beta):
    for seed in range(12):
        n_states = (5, 30, 100)[seed % 3]
        spec = random_mdp(seed, n_states=n_states, n_shocks=1 + seed % 4, beta=beta)
        policy = make_generator(seed, 1).integers(0, spec.n_actions, n_states)
        exact = exact_policy_values(spec, policy)
        assert np.max(np.abs(evaluate_policy(spec, policy) - exact)) <= SURPLUS_TOL


# Validation lets the shock probabilities sum to within 1e-12 of 1, and every
# row of P_pi then sums to that, not to 1.
SHORT_SUPPORT = [0.3333333333333] * 3
LONG_SUPPORT = [0.2, 0.3, 0.5 + 5e-13]


@pytest.mark.parametrize("probs", [SHORT_SUPPORT, LONG_SUPPORT])
def test_evaluate_policy_within_tol_when_shocks_do_not_sum_to_one(probs):
    for seed in range(6):
        n_states = (5, 30, 100)[seed % 3]
        rng = make_generator(seed, 2)
        spec = MdpSpec(rewards=rng.uniform(0.0, 1.0, (n_states, 3)), shock_probs=probs,
                       transition=rng.integers(0, n_states, (n_states, 3, 3)), beta=0.99)
        policy = rng.integers(0, 3, n_states)
        exact = exact_policy_values(spec, policy)
        assert np.max(np.abs(evaluate_policy(spec, policy) - exact)) <= SURPLUS_TOL


@pytest.mark.parametrize("beta", [0.9, 0.99, 0.999])
@pytest.mark.parametrize("probs", [SHORT_SUPPORT, LONG_SUPPORT])
def test_evaluate_policy_constant_reward_closed_form(probs, beta):
    # With one reward r everywhere, V_pi = r / (1 - beta * sum(probs)) in
    # every state, taken here in exact rational arithmetic; at beta 0.999 the
    # dense solve is itself further than SURPLUS_TOL from V_pi.
    rng = make_generator(5, 2)
    spec = MdpSpec(rewards=np.full((40, 1), 0.5), shock_probs=probs,
                   transition=rng.integers(0, 40, (40, 1, 3)), beta=beta)
    exact = Fraction(0.5) / (1 - Fraction(beta) * sum(map(Fraction, probs)))
    v = evaluate_policy(spec, np.zeros(40, dtype=int))
    assert max(abs(Fraction(x) - exact) for x in v) <= SURPLUS_TOL


def test_evaluate_policy_rejects_a_chain_that_does_not_contract():
    spec = MdpSpec(rewards=[[1.0]], shock_probs=LONG_SUPPORT, transition=[[[0, 0, 0]]],
                   beta=1.0 - 2**-50)
    with pytest.raises(DomainError, match="must be < 1"):
        evaluate_policy(spec, np.array([0]))


def two_cycle(beta):
    """One action, one shock: states 0 and 1 swap every step, rewards 1 and 0."""
    return MdpSpec(rewards=[[1.0], [0.0]], shock_probs=[1.0], transition=[[[1]], [[0]]],
                   beta=beta)


def test_evaluate_policy_on_a_periodic_chain():
    # The increments alternate between the states, so the span of d shrinks
    # by exactly beta per sweep and never faster.
    spec = two_cycle(0.9)
    v = evaluate_policy(spec, np.array([0, 0]))
    closed_form = np.array([1.0, 0.9]) / (1.0 - 0.9**2)
    assert np.max(np.abs(v - closed_form)) <= SURPLUS_TOL


def test_evaluate_policy_raises_when_out_of_sweeps(monkeypatch):
    spec = two_cycle(0.9)
    monkeypatch.setattr(dynprog, "MAX_SWEEPS", 100)
    with pytest.raises(ConvergenceError, match="did not converge in 100 sweeps") as err:
        evaluate_policy(spec, np.array([0, 0]))
    # after 100 sweeps the span of d is beta**99, so V_pi is known to within
    # half of c * beta**99
    assert err.value.residual == pytest.approx(9.0 * 0.9**99 / 2.0)


def test_evaluate_policy_memory_is_linear_in_states():
    # The dense (I - beta*P_pi) of this MDP alone would take 200 MB.
    spec = random_mdp(21, n_states=5000, n_actions=3, n_shocks=3)
    policy = make_generator(21, 1).integers(0, 3, 5000)
    tracemalloc.start()
    try:
        evaluate_policy(spec, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_run_surplus_is_realtime_surplus_without_linalg(monkeypatch):
    spec = random_mdp(17, n_states=40, beta=0.95)
    legacy = make_generator(17, 1).integers(0, 3, 40)
    scenario = Scenario(rewards=spec.rewards, shock_probs=spec.shock_probs,
                        transition=spec.transition, beta=0.95, tol=1e-10,
                        legacy_policy=legacy.tolist())
    expected = realtime_surplus(spec, legacy)

    def no_linalg(*args, **kwargs):
        raise AssertionError("np.linalg called")

    monkeypatch.setattr(np.linalg, "solve", no_linalg)
    report, checks = run(scenario, seed=0)
    assert np.array(report["realtime_surplus"]).tobytes() == expected.tobytes()
    assert checks == {"surplus_nonneg": True}


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
    """Value iteration with the axis reduction q.max(axis=1), stopped on the
    MacQueen-Porteus bounds: (midpoint, sweeps, its Bellman residual), or
    (None, max_iter, the half-width of the bounds) when out of sweeps."""
    gap = math.fsum([1.0, *(-spec.shock_probs)])
    c = spec.beta * (1.0 - gap) / ((1.0 - spec.beta) + spec.beta * gap)
    v = np.zeros(spec.n_states)
    for it in range(1, max_iter + 1):
        v_new = (spec.rewards + spec.beta * spec.expected_next_values(v)).max(axis=1)
        d = v_new - v
        v = v_new
        if c * (d.max() - d.min()) <= tol:
            v = v + c * (d.max() + d.min()) / 2.0
            q = spec.rewards + spec.beta * spec.expected_next_values(v)
            return v, it, float(np.max(np.abs(q.max(axis=1) - v)))
    return None, max_iter, c * (d.max() - d.min()) / 2.0


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
    values = exact_policy_values(spec, policy)
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


def refined_policy_values(spec, policy):
    """V_pi from the dense solve plus two steps of residual refinement, each
    residual r_pi + beta*P_pi v - v taken in exact rational arithmetic, so the
    result is within a few units in the last place of V_pi."""
    states = np.arange(spec.n_states)
    t_pi = spec.transition[states, policy]
    beta_p = [Fraction(spec.beta) * Fraction(p) for p in spec.shock_probs]
    r_pi = [Fraction(r) for r in spec.rewards[states, policy]]
    mat = np.eye(spec.n_states) - spec.beta * spec.policy_transition_matrix(policy)
    v = exact_policy_values(spec, policy)
    for _ in range(2):
        exact_v = [Fraction(x) for x in v]
        residual = [float(r_pi[s] + sum(bp * exact_v[t] for bp, t in zip(beta_p, t_pi[s]))
                          - exact_v[s]) for s in states]
        v = v + np.linalg.solve(mat, residual)
    return v


def rounding_floor(spec, values):
    """How far rounding may move the returned values from V*: one backup
    r + beta*sum_k p_k v_k, and the midpoint step after it, round by at most
    (n_shocks + 3) units of roundoff of max|r| + max|V|, and the bounds
    magnify that by 1 + c = 1 / (1 - beta*sum(shock_probs))."""
    c = spec.beta * sum(spec.shock_probs) / (1.0 - spec.beta * sum(spec.shock_probs))
    scale = np.max(np.abs(spec.rewards)) + np.max(np.abs(values))
    return (spec.shock_probs.size + 3) * 2.0**-53 * scale * (1.0 + c)


def threshold_policy(spec, tol):
    """The greedy policy of value iteration stopped on the sup-norm rule
    max|v_n - v_(n-1)| <= tol * min(1, (1 - beta) / beta)."""
    threshold = tol * min(1.0, (1.0 - spec.beta) / spec.beta)
    v = np.zeros(spec.n_states)
    while True:
        v_new = (spec.rewards + spec.beta * spec.expected_next_values(v)).max(axis=1)
        done = np.max(np.abs(v_new - v)) <= threshold
        v = v_new
        if done:
            return (spec.rewards + spec.beta * spec.expected_next_values(v)).argmax(axis=1)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("beta", [0.5, 0.9, 0.99])
def test_value_iteration_within_tol_of_refined_solve(beta, tol):
    # Half the width of the bounds, plus the rounding of the sweep that the
    # bounds magnify; the second term is below tol/10 except at beta 0.99
    # and tol 1e-12, where it is a few times tol.
    for seed in range(12):
        n_states = (5, 30, 100)[seed % 3]
        spec = random_mdp(seed, n_states=n_states, n_actions=2 + seed % 3,
                          n_shocks=1 + seed % 4, beta=beta)
        sol = value_iteration(spec, tol=tol)
        exact = refined_policy_values(spec, sol.policy)
        assert np.max(np.abs(sol.values - exact)) <= tol / 2.0 + rounding_floor(spec, exact)
        assert sol.residual <= tol
        assert np.array_equal(sol.policy, threshold_policy(spec, tol))


@pytest.mark.parametrize("probs", [SHORT_SUPPORT, LONG_SUPPORT])
def test_value_iteration_within_tol_when_shocks_do_not_sum_to_one(probs):
    for seed in range(6):
        n_states = (5, 30, 100)[seed % 3]
        rng = make_generator(seed, 2)
        spec = MdpSpec(rewards=rng.uniform(0.0, 1.0, (n_states, 3)), shock_probs=probs,
                       transition=rng.integers(0, n_states, (n_states, 3, 3)), beta=0.99)
        sol = value_iteration(spec, tol=SURPLUS_TOL)
        exact = refined_policy_values(spec, sol.policy)
        assert np.max(np.abs(sol.values - exact)) <= SURPLUS_TOL / 2.0 + rounding_floor(spec, exact)
        assert sol.residual <= SURPLUS_TOL


def test_value_iteration_cannot_beat_the_fixed_point_of_its_rounded_sweep():
    # Here the rounded sweep has a fixed point more than 1e-12 from V*, and
    # value iteration returns values next to it: no stopping rule can come
    # closer to V* with this sweep.
    spec = random_mdp(9, n_states=30, n_actions=2, n_shocks=2, beta=0.99)
    sol = value_iteration(spec, tol=1e-12)
    exact = refined_policy_values(spec, sol.policy)
    fixed = sol.values
    for _ in range(1000):
        fixed, before = (spec.rewards + spec.beta * spec.expected_next_values(fixed)).max(axis=1), fixed
        if fixed.tobytes() == before.tobytes():
            break
    assert fixed.tobytes() == before.tobytes()
    assert np.max(np.abs(fixed - exact)) > 1e-12
    assert np.max(np.abs(sol.values - fixed)) <= 1e-13
    assert np.max(np.abs(sol.values - exact)) <= rounding_floor(spec, exact)


def test_tiny_max_iter_raises_the_same_error():
    spec = random_mdp(9, n_states=20)
    _, _, residual = reference_value_iteration(spec, 1e-12, 3)
    with pytest.raises(ConvergenceError, match="did not converge in 3 iterations") as err:
        value_iteration(spec, max_iter=3)
    assert err.value.residual == residual


def test_run_with_a_legacy_policy_reports_its_one_solve_error():
    # The one solve runs to min(tol, SURPLUS_TOL) = 1e-13 and stops at
    # max_iter; no second solve runs after it. Two absorbing states with
    # rewards 0 and 1 narrow the bounds by exactly beta per sweep.
    scenario = Scenario(rewards=[[0.0], [1.0]], transition=[[[0]], [[1]]], beta=0.9999,
                        tol=1e-13, max_iter=10, legacy_policy=[0, 0])
    _, _, residual = reference_value_iteration(scenario, 1e-13, 10)
    with pytest.raises(ConvergenceError, match="did not converge in 10 iterations") as err:
        run(scenario, seed=0)
    assert err.value.residual == residual


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-14])
def test_run_with_a_legacy_policy_reports_the_surplus_solve(tol):
    spec = random_mdp(8, n_states=40, beta=0.95)
    legacy = make_generator(8, 1).integers(0, spec.n_actions, spec.n_states).tolist()
    scenario = Scenario(spec.rewards, spec.shock_probs, spec.transition, spec.beta,
                        tol=tol, max_iter=5_000, legacy_policy=legacy)
    report, checks = run(scenario, seed=0)
    sol = value_iteration(spec, min(tol, SURPLUS_TOL), 5_000)
    assert np.array(report["values"]).tobytes() == sol.values.tobytes()
    assert report["policy"] == sol.policy.tolist()
    assert (report["iterations"], report["residual"]) == (sol.iterations, sol.residual)
    if tol >= SURPLUS_TOL:
        surplus = realtime_surplus(spec, np.array(legacy))
        assert np.array(report["realtime_surplus"]).tobytes() == surplus.tobytes()
    assert checks == {"surplus_nonneg": True}
