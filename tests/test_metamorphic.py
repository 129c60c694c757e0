"""Exact metamorphic relations: a run on transformed inputs gives the
transformed outputs bit for bit, with no tolerance to argue about.

Such a relation holds where the floating-point map is exact. Multiplying by a
power of two is exact while the result stays a normal double, and relabelling
only moves values.
"""

import dataclasses
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emt_lab import epistemic, gravity, runner
from emt_lab.dynprog import MdpSpec, evaluate_policy, value_iteration
from emt_lab.game import StageGame, spne_search
from emt_lab.recombinant import EvtRunConfig, TailDistribution, draw_max_statistic
from test_gravity import flywheels
from util_mdp import random_mdp

# Each family's scale parameter. lognormal has none to move exactly: its
# scale is exp(mu).
SCALE_KEYS = {"exponential": "rate", "uniform": "b", "pareto": "xm", "weibull": "scale"}


@pytest.mark.parametrize("family", sorted(SCALE_KEYS))
@settings(max_examples=100, deadline=None)
@given(base=st.floats(0.125, 8) | st.integers(1, 8), shape=st.floats(0.5, 4),
       k=st.integers(-800, 800), k_draws=st.integers(1, 300), replicates=st.integers(1, 40),
       seed=st.integers(0, 2**64 - 1))
def test_evt_m_values_hold_when_the_scale_is_multiplied_by_a_power_of_two(
        family, base, shape, k, k_draws, replicates, seed):
    """The m-values K * survival(max) are bitwise the same when the scale
    parameter is multiplied by 2^k: each maximum moves by exactly 2^k (2^-k
    for a rate), and survival reads it only through the exact ratio of the
    maximum to the scale (its product with a rate).

    That holds while the scaled parameter and maxima are normal doubles. With
    a base scale in [1/8, 8] and a shape in [1/2, 4], a maximum is 0 or lies
    within [2^-123, 2^109], except with probability below 2^-60 per
    replicate: uniform draws are multiples of 2^-53; a pareto draw
    u^(-1/shape) lies in [1, 2^106] for the smallest positive u, 2^-53; a
    standard exponential is below 2^-60 with probability below 2^-60 and is
    at most 45; and a weibull draw E^(1/shape) is at least E^2 for E < 1. So
    for |k| <= 800 every scaled parameter and maximum lies within
    [2^-923, 2^909], inside the normal range [2^-1022, 2^1024).
    """
    key = SCALE_KEYS[family]
    params = {key: base} if family in ("exponential", "uniform") else {key: base, "shape": shape}
    cfg = EvtRunConfig(k_draws=k_draws, replicates=replicates)
    m = draw_max_statistic(TailDistribution(family, params), cfg, seed)
    scaled = TailDistribution(family, {**params, key: base * 2.0**k})
    assert draw_max_statistic(scaled, cfg, seed).tobytes() == m.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=flywheels(), k_in=st.floats(0.1, 10), l_in=st.floats(0.1, 10),
       kappa=st.just(0.0) | st.floats(2.0**-30, 2), k=st.integers(-20, 20))
def test_flywheel_holds_when_a_and_kappa_move_by_inverse_powers_of_two(case, k_in, l_in, kappa, k):
    """Production `a` times 2^k and `kappa` times 2^-k leave the U and
    coverage columns bitwise the same, and Y is exactly 2^k times its value.

    Y = a*k^alpha*l^(1-alpha) is computed with `a` as the first factor, so it
    moves by exactly 2^k, and the needs see the output only through kappa*Y,
    whose exact value, and so its rounding, does not move. With a, k and l in
    [0.1, 10] and kappa 0 or in [2^-30, 2], every scaled value stays a normal
    double for |k| <= 20.
    """
    state, production, horizon, _, eps = case
    base = gravity.Scenario(n_vec=state.n_vec, d_mat=state.d_mat, p_vec=state.p_vec,
                            g_resp=state.g_resp, production={**production, "k": k_in, "l": l_in},
                            kappa=kappa, horizon=horizon, coverage_eps=eps)
    a = production["a"] * 2.0**k
    scaled = dataclasses.replace(base, production={**base.production, "a": a}, kappa=kappa * 2.0**-k)
    (_, columns), _ = gravity.run(base, 0)
    (_, moved), _ = gravity.run(scaled, 0)
    assert [c.tobytes() for c in moved[2:4]] == [c.tobytes() for c in columns[2:4]]
    assert moved[4].tobytes() == array("d", [y * 2.0**k for y in columns[4]]).tobytes()


def _normal_flywheel(case) -> bool:
    """Each need, potential and G is 0 or at least 2^-30, as a subnormal one
    (which `flywheels` draws now and then) does not scale exactly."""
    state = case[0]
    values = np.concatenate((state.n_vec, state.p_vec, [state.g_resp]))
    return bool(np.all((values == 0) | (values >= 2.0**-30)))


def _flywheel_scenario(case, scale_needs=1.0, scale_g=1.0) -> gravity.Scenario:
    """The scenario of a `flywheels` case, with the need intensities, kappa
    and coverage_eps times `scale_needs` and G times `scale_g`."""
    state, production, horizon, kappa, eps = case
    return gravity.Scenario(n_vec=state.n_vec * scale_needs, d_mat=state.d_mat,
                            p_vec=state.p_vec, g_resp=state.g_resp * scale_g,
                            production=production, kappa=kappa * scale_needs, horizon=horizon,
                            coverage_eps=eps * scale_needs)


@settings(max_examples=100, deadline=None)
@given(case=flywheels().filter(_normal_flywheel), k=st.integers(-20, 20))
def test_flywheel_holds_when_needs_kappa_and_coverage_eps_move_by_a_power_of_two(case, k):
    """Need intensities, kappa and coverage_eps times 2^k multiply U by
    exactly 4^k and leave the t, mode, coverage and Y columns bitwise the same.

    A flow row is G * N_i * P_j / D_ij^2 with one factor N_i, so each row and
    their total move by 2^k and the shares not at all; the step kappa * Y *
    share and so each need then move by 2^k, and U = sum(N^2) by 4^k. A need
    is counted satisfied by comparing it with coverage_eps, both scaled, and
    the coverage weights are the scaled initial needs, whose ratios stand.
    Every value is exact in 2^k while it stays a normal double, as it does
    here for |k| <= 20: needs, potentials and G are 0 or in [2^-30, 10], and
    distances in [0.1, 5], so the least nonzero flow is above 2^-95, and the
    least positive need after a step was above 2^-76 in 3,000 drawn flywheels.
    """
    (_, columns), _ = gravity.run(_flywheel_scenario(case), 0)
    (_, moved), _ = gravity.run(_flywheel_scenario(case, scale_needs=2.0**k), 0)
    assert moved[:2] == columns[:2]
    assert moved[2].tobytes() == array("d", [u * 4.0**k for u in columns[2]]).tobytes()
    assert [c.tobytes() for c in moved[3:]] == [c.tobytes() for c in columns[3:]]


@settings(max_examples=100, deadline=None)
@given(case=flywheels().filter(_normal_flywheel), k=st.integers(-20, 20))
def test_flywheel_csv_holds_when_g_resp_moves_by_a_power_of_two(case, k):
    """G times 2^k gives the same CSV bytes: G is one factor of every flow,
    so it moves each row and their total by 2^k, and the allocation shares,
    the only values the run reads G through, not at all. Each flow stays a
    normal double, as in the relation above."""
    (header, columns), _ = gravity.run(_flywheel_scenario(case), 0)
    (moved_header, moved), _ = gravity.run(_flywheel_scenario(case, scale_g=2.0**k), 0)
    assert "".join(runner._csv_blocks(moved_header, moved)) == \
        "".join(runner._csv_blocks(header, columns))


@st.composite
def epistemic_scenarios(draw):
    """Scenario settings with phi_elast 1."""
    theta0 = draw(st.floats(0.1, 3))
    small = st.just(0.0) | st.floats(2.0**-30, 3)
    return dict(
        theta0=theta0, eps_resid=theta0 * draw(st.floats(0, 0.99)), p_bar=draw(st.floats(0.5, 30)),
        alpha_prod=draw(small), phi_elast=1.0, c0=draw(st.floats(0.1, 3)),
        alpha_cost=draw(small), theta_star=draw(st.floats(0.01, 1)), lp=draw(st.floats(0, 3)),
        a0=draw(small), a_growth=draw(small), p0=draw(st.just(0.0) | st.floats(0, 20)),
        dt=draw(st.sampled_from([0.1, 1.0]) | st.floats(0.01, 1)), horizon=draw(st.integers(1, 80)),
        n_problems=draw(st.integers(0, 30)), complexity_mean=draw(st.floats(0.05, 5)),
        eta_rate=draw(st.floats(0, 20)), lambda_align=draw(st.floats(0, 1)),
        eps_floor=draw(st.just(1e-6) | st.floats(1e-9, 1)))


def _epistemic_csv_and_checks(params: dict, seed: int):
    (header, columns), checks = epistemic.run(epistemic.Scenario(**params), seed)
    return "".join(runner._csv_blocks(header, columns)), checks


@settings(max_examples=100, deadline=None)
@given(params=epistemic_scenarios(), k=st.integers(-20, 20), seed=st.integers(0, 2**64 - 1))
def test_epistemic_run_holds_when_capability_and_complexity_move_by_a_power_of_two(params, k, seed):
    """a0, a_growth, complexity_mean and eps_floor times 2^k, with alpha_cost
    and alpha_prod divided by 2^k, give the same CSV bytes and checks.

    Capability and every complexity then move by exactly 2^k: an exponential
    draw is its scale times a standard draw, and the running sum, and so the
    mean that arrivals draw from, moves with them (`complexity_mean` while
    none was created, so an empty starting pool moves alike). Each solve ratio
    A / (c + eps_floor) is the same quotient, and with phi_elast 1 the
    knowledge growth alpha_prod * A and the cost's alpha_cost * A are the same
    products. With the settings drawn here, every scaled value stays a normal
    double for |k| <= 20.
    """
    scale = 2.0**k
    scaled = {**params, **{key: params[key] * scale
                           for key in ("a0", "a_growth", "complexity_mean", "eps_floor")},
              "alpha_cost": params["alpha_cost"] / scale, "alpha_prod": params["alpha_prod"] / scale}
    assert _epistemic_csv_and_checks(scaled, seed) == _epistemic_csv_and_checks(params, seed)


@st.composite
def mdps(draw):
    """A random MDP of up to 12 states, 4 actions and 4 shocks, beta at most
    0.9 so that value iteration stops well above its rounding floor."""
    return random_mdp(draw(st.integers(0, 2**32 - 1)), n_states=draw(st.integers(1, 12)),
                      n_actions=draw(st.integers(1, 4)), n_shocks=draw(st.integers(1, 4)),
                      beta=draw(st.floats(0.1, 0.9)))


def _bits(*values) -> list:
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def _solution_bits(solution) -> list:
    return _bits(solution.values, solution.policy, solution.iterations, solution.residual)


@settings(max_examples=100, deadline=None)
@given(spec=mdps(), data=st.data())
def test_mdp_solves_hold_when_the_states_are_relabelled(spec, data):
    """Old state s is new state perm[s]: rewards, transitions (rows and the
    states they land in) and the policy permute together. `value_iteration`
    returns the permuted `Solution` bitwise, and `evaluate_policy` the
    permuted values.

    Each state's backup adds its shocks in the same order under any labels,
    and the bounds, the residual and the argmax's lowest-index tie rule read
    only the multiset of states or the action index.
    """
    n = spec.n_states
    perm = np.array(data.draw(st.permutations(range(n))), dtype=int)
    policy = np.array(data.draw(st.lists(st.integers(0, spec.n_actions - 1), min_size=n,
                                         max_size=n)), dtype=int)
    rewards, transition, moved_policy = (np.empty_like(x) for x in
                                         (spec.rewards, spec.transition, policy))
    rewards[perm], transition[perm], moved_policy[perm] = spec.rewards, perm[spec.transition], policy
    moved = MdpSpec(rewards=rewards, shock_probs=spec.shock_probs, transition=transition,
                    beta=spec.beta)
    solution, relabelled = value_iteration(spec), value_iteration(moved)
    assert _solution_bits(dataclasses.replace(relabelled, values=relabelled.values[perm],
                                              policy=relabelled.policy[perm])) == \
        _solution_bits(solution)
    assert _bits(evaluate_policy(moved, moved_policy)[perm]) == _bits(evaluate_policy(spec, policy))


@settings(max_examples=100, deadline=None)
@given(spec=mdps(), tol_exp=st.integers(-40, -14), k=st.integers(-3, 10))
def test_value_iteration_holds_when_rewards_and_tol_move_by_a_power_of_two(spec, tol_exp, k):
    """Rewards and `tol` times 2^k scale `value_iteration`'s values and
    residual by exactly 2^k and leave its policy and iterations the same.

    The backup, the bounds' width and midpoint and the residual are sums and
    products with one scaled factor each, exact in 2^k while every value is
    a normal double, as it is here: rewards in [-1, 1] and |V*| at most 10
    before scaling. `evaluate_policy` is left out: it stops at the absolute
    `SURPLUS_TOL`, so its sweep count moves with the scale.
    """
    tol, scale = 2.0**tol_exp, 2.0**k
    solution = value_iteration(spec, tol=tol)
    scaled = value_iteration(dataclasses.replace(spec, rewards=spec.rewards * scale),
                             tol=tol * scale)
    assert _solution_bits(scaled) == _bits(solution.values * scale, solution.policy,
                                           solution.iterations, solution.residual * scale)


# A payoff or penalty that stays a normal double times 2^k for |k| <= 20,
# small whole numbers among them so that payoffs tie.
_PAYOFF = (st.integers(-4, 4).map(float)
           | st.builds(lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]), st.floats(2.0**-10, 10)))


@st.composite
def stage_games(draw):
    """A stage game and a strategy class small enough to search at once."""
    n_players = draw(st.integers(2, 3))
    strategy_class = "constant" if n_players == 3 else draw(st.sampled_from(["constant", "memory1"]))
    game = StageGame(
        n_players=n_players, payoff_cc=draw(_PAYOFF), payoff_defector=draw(_PAYOFF),
        payoff_victim=draw(_PAYOFF), payoff_dd=draw(_PAYOFF),
        p_disc=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.01, 0.99)),
        delta_disc=draw(st.floats(0.01, 0.99)), horizon=draw(st.integers(1, 3)),
        omega=draw(st.just(0.0) | st.floats(2.0**-10, 10).map(lambda x: -x)))
    return game, strategy_class


@pytest.mark.parametrize("penalty_mode", ["lexicographic", "finite"])
@settings(max_examples=100, deadline=None)
@given(case=stage_games(), k=st.integers(-20, 20))
def test_spne_search_holds_when_payoffs_and_omega_move_by_a_power_of_two(penalty_mode, case, k):
    """The four payoffs and `omega` times 2^k give an equal `SpneReport`.

    Every value a deviation test compares is a sum of products of one payoff
    or penalty with survival probabilities and discounts, which do not move,
    so it moves by exactly 2^k and each comparison keeps its outcome. With
    the probabilities and discounts in [0.01, 0.99] (or 0, 0.5 and 1) and
    the payoffs drawn here, every such value stays a normal double for
    |k| <= 20.
    """
    game, strategy_class = case
    game = dataclasses.replace(game, penalty_mode=penalty_mode)
    scale = 2.0**k
    scaled = dataclasses.replace(game, **{key: getattr(game, key) * scale for key in (
        "payoff_cc", "payoff_defector", "payoff_victim", "payoff_dd", "omega")})
    assert spne_search(scaled, strategy_class) == spne_search(game, strategy_class)
