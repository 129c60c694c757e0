"""Acceptance gate: one test (and one reported pass/fail line) per criterion.

Each criterion is verified against an independent oracle — closed forms,
exhaustive enumeration, grid search, or exact Monte Carlo scaling — at the
tolerances pinned below.
"""

import math
import time
from itertools import product

import numpy as np
from conftest import ACCEPTANCE_RESULTS
from util_mdp import random_mdp

from emt_lab import make_generator
from emt_lab.cli import bundled_scenarios
from emt_lab.dynprog import (
    MdpSpec,
    enumerate_policies_value,
    path_sensitivity,
    realtime_surplus,
    value_iteration,
)
from emt_lab.epistemic import EpistemicParams, initial_state, step_knowledge
from emt_lab.feedback import FeedbackParams, loop_diagnostics, simulate_loop
from emt_lab.game import C, StageGame, spne_search
from emt_lab.gravity import NeedsState, flywheel_compare
from emt_lab.growth import free_entry_mu, incumbent_value
from emt_lab.policy import Occupation, SubsidyProblem, optimize_subsidies
from emt_lab.recombinant import (
    EvtRunConfig,
    TailDistribution,
    draw_max_statistic,
    evt_diagnostics,
    log2_combinations,
)
from emt_lab.runner import run_scenario


def check(criterion: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    ACCEPTANCE_RESULTS.append(line)
    assert ok, line


def test_criterion_01_evt_distribution_agnostic_law():
    families = [
        TailDistribution("exponential", {"rate": 1.0}),
        TailDistribution("uniform", {"b": 2.0}),
        TailDistribution("pareto", {"xm": 1.0, "shape": 2.5}),
        TailDistribution("lognormal", {"mu": 0.0, "sigma": 0.8}),
        TailDistribution("weibull", {"scale": 1.0, "shape": 1.5}),
    ]
    start = time.perf_counter()
    ok = True
    worst = ""
    for dist, k in product(families, (10**3, 10**4)):
        cfg = EvtRunConfig(k_draws=k, replicates=2000)
        m = draw_max_statistic(dist, cfg, 2024)
        diag = evt_diagnostics(m, ks_threshold=0.05)
        sigma = float(np.std(m, ddof=1)) / math.sqrt(cfg.replicates)
        mean_ok = abs(diag["mean"] - k / (k + 1)) < 3 * sigma
        if not (mean_ok and diag["pass"]):
            ok = False
            worst = f"{dist.family} K={k} mean={diag['mean']:.4f} ks={diag['ks_distance']:.4f}"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    check(
        "1 EVT law",
        ok,
        f"5 families x K in {{1e3,1e4}}, 2000 reps: mean within 3-sigma of "
        f"K/(K+1), KS<0.05, runtime {elapsed:.2f}s < 10s"
        + (f" (worst: {worst})" if worst else ""),
    )


def test_criterion_02_bellman_closed_form():
    ok = True
    details = []
    for beta in (0.5, 0.9, 0.99):
        spec = MdpSpec([[0.0, 1.0]], [1.0], [[[0], [0]]], beta)
        sol = value_iteration(spec, tol=1e-12)
        err = abs(sol.values[0] - 1.0 / (1.0 - beta))
        details.append(f"beta={beta}: |V - 1/(1-beta)| = {err:.2e}")
        ok = ok and err < 1e-10
    # residual decay rate <= beta over the final 10 backups
    spec = random_mdp(555, beta=0.9)
    v = np.zeros(spec.n_states)
    residuals = []
    for _ in range(60):
        v_new = (spec.rewards + spec.beta * spec.expected_next_values(v)).max(axis=1)
        residuals.append(float(np.max(np.abs(v_new - v))))
        v = v_new
    tail = residuals[-10:]
    decay_ok = all(b <= 0.9 * a + 1e-14 for a, b in zip(tail, tail[1:]))
    ok = ok and decay_ok
    check(
        "2 Bellman closed form",
        ok,
        "; ".join(details) + f"; residual decay rate <= beta: {decay_ok}",
    )


def _random_mdp_batch():
    return [random_mdp(seed) for seed in range(100)]


def test_criterion_03_mdp_oracle_equivalence():
    worst = 0.0
    for spec in _random_mdp_batch():
        sol = value_iteration(spec, tol=1e-12)
        v_oracle, _ = enumerate_policies_value(spec)
        worst = max(worst, float(np.max(np.abs(sol.values - v_oracle))))
    check(
        "3 MDP oracle equivalence",
        worst < 1e-8,
        f"100 random 5s/3a/2shock MDPs vs policy enumeration: "
        f"max |V - V_oracle| = {worst:.2e} < 1e-8",
    )


def test_criterion_04_realtime_surplus_dominance():
    rng = make_generator(4242)
    worst = np.inf
    for spec in _random_mdp_batch():
        legacy = rng.integers(0, spec.n_actions, spec.n_states)
        worst = min(worst, float(np.min(realtime_surplus(spec, legacy))))
    check(
        "4 real-time surplus dominance",
        worst >= -1e-8,
        f"min over states/MDPs of S^RT = {worst:.2e} >= -1e-8",
    )


def test_criterion_05_path_sensitivity():
    spec = random_mdp(77, beta=0.9)
    deriv = path_sensitivity(spec, h=1e-3)
    err = float(np.max(np.abs(deriv - 10.0)))
    check(
        "5 path sensitivity",
        err < 1e-4,
        f"uniform reward offset at beta=0.9, h=1e-3: "
        f"max |dV/dp - 1/(1-beta)| = {err:.2e} < 1e-4",
    )


def test_criterion_06_subsidy_planner():
    from test_policy import THREE_OCC, grid_oracle

    budget = 2.0
    sol = optimize_subsidies(SubsidyProblem(occupations=THREE_OCC, budget=budget))
    oracle = grid_oracle(THREE_OCC, budget)
    obj_ok = sol.objective >= oracle - 1e-3
    bind_ok = abs(sol.spend - budget) <= 1e-3 * budget
    twins = (
        Occupation(w=1.0, l_bar=1.0, eta=1.0, lambda_align=1.0),
        Occupation(w=1.0, l_bar=1.0, eta=1.0, lambda_align=1.0),
    )
    sym = optimize_subsidies(SubsidyProblem(occupations=twins, budget=3.0))
    sym_ok = abs(sym.s_star[0] - sym.s_star[1]) < 1e-6
    check(
        "6 subsidy planner",
        obj_ok and bind_ok and sym_ok,
        f"objective {sol.objective:.6f} vs grid oracle {oracle:.6f} "
        f"(gap {sol.objective - oracle:+.2e} >= -1e-3); "
        f"spend {sol.spend:.6f} binds within 1e-3*B; "
        f"symmetric split |s1-s2| = {abs(sym.s_star[0]-sym.s_star[1]):.2e} < 1e-6",
    )


def test_criterion_07_cybernetic_conservation():
    horizon = int(round(2 * math.pi / 1e-3))
    params = FeedbackParams(gamma0=1.0, theta_meta=0.0, phi_gain=1.0,
                            noise_sd=0.0, e_target=1.0, dt=1e-3,
                            horizon=horizon, o0=0.0, a0=0.0)
    traj = simulate_loop(params)
    drift = loop_diagnostics(traj)["energy_drift"]
    _, o_pi, _, _, _ = traj[int(round(math.pi / 1e-3))]
    ok = drift < 1e-6 and abs(o_pi - 2.0) < 1e-6
    check(
        "7 cybernetic conservation",
        ok,
        f"RK4 dt=1e-3 on [0, 2pi]: max |eps^2+A^2-1| = {drift:.2e} < 1e-6; "
        f"|O(pi) - 2| = {abs(o_pi - 2.0):.2e} < 1e-6",
    )


def test_criterion_08_game_equilibria():
    pd = dict(payoff_cc=2.0, payoff_defector=3.0, payoff_victim=0.0, payoff_dd=1.0)
    lex_ok = True
    for t in (1, 2, 3):
        game = StageGame(**pd, p_disc=0.5, horizon=t, penalty_mode="lexicographic")
        lex_ok = lex_ok and spne_search(game, "constant").all_c_is_spne
    classic = StageGame(**pd, p_disc=0.0, horizon=3, penalty_mode="finite", omega=0.0)
    rep = spne_search(classic, "constant")
    classic_ok = rep.all_d_is_spne and not rep.all_c_is_spne
    check(
        "8 game equilibria",
        lex_ok and classic_ok,
        f"lexicographic p=0.5, n=2, T in {{1,2,3}}: all-C certified SPNE ({lex_ok}); "
        f"p=0 finite PD: all-D SPNE and all-C rejected ({classic_ok})",
    )


def test_criterion_09_flywheel_dominance():
    state = NeedsState(
        n_vec=np.array([5.0, 4.0, 3.0, 2.0, 1.0]),
        d_mat=np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.5], [2.5, 2.0], [1.5, 1.0]]),
        p_vec=np.array([1.0, 1.0]),
    )
    res = flywheel_compare(state, {"alpha": 0.5}, horizon=50, kappa=0.05)
    every_step = bool(np.all(res.u_aligned <= res.u_blind + 1e-12))
    strict_at_t = bool(res.u_aligned[-1] < res.u_blind[-1] - 1e-12)
    check(
        "9 flywheel dominance",
        every_step and strict_at_t,
        f"bundled 5-need scenario: U_aligned <= U_blind at all 51 steps "
        f"({every_step}); strict by T: {res.u_aligned[-1]:.4f} < "
        f"{res.u_blind[-1]:.4f} ({strict_at_t})",
    )


def test_criterion_10_combinatorics_exact():
    ok = True
    for n in range(0, 21):
        literal = float(sum(math.comb(n, a) for a in range(n + 1)))
        if 2.0 ** log2_combinations(float(n), 1.0) != literal:
            ok = False
    check(
        "10 combinatorics",
        ok,
        "2^log2_combinations equals the literal binomial sum exactly for "
        "all integer exponents 0..20",
    )


def test_criterion_11_schumpeter_consistency():
    rng = make_generator(1111)
    worst = 0.0
    for _ in range(1000):
        pi = rng.uniform(0.5, 5.0)
        psi = rng.uniform(0.01, 0.99) * pi
        r = rng.uniform(0.01, 0.5)
        mu = free_entry_mu(pi, psi, r)
        worst = max(worst, abs(mu * incumbent_value(pi, r, mu) - psi))
    check(
        "11 Schumpeter consistency",
        worst < 1e-10,
        f"1000 random draws: max |mu*V(mu) - psi| = {worst:.2e} < 1e-10",
    )


def test_criterion_12_mode_transition():
    params = EpistemicParams(theta0=1.0, p_bar=5.0, eps_resid=0.01,
                             alpha_prod=1.0, phi_elast=1.0, lp=1.0)
    state = initial_state(params, a_cap=1.0)
    pis = [state.pi]
    crossed = False
    exact = True
    for _ in range(200):
        state = step_knowledge(state, params, dt=0.1)
        pis.append(state.pi)
        if state.p >= params.p_bar:
            crossed = True
            exact = exact and (state.theta == params.eps_resid)
    monotone = all(b >= a for a, b in zip(pis, pis[1:]))
    check(
        "12 mode transition",
        crossed and exact and monotone,
        f"theta == eps_resid exactly from the first step with P >= P-bar "
        f"({exact}); pi non-decreasing over the trajectory ({monotone})",
    )


def test_criterion_13_determinism(tmp_path):
    scenarios = bundled_scenarios()
    ok = True
    for fname, cfg in scenarios:
        r1 = run_scenario(cfg, out_dir=str(tmp_path / "run1"))
        r2 = run_scenario(cfg, out_dir=str(tmp_path / "run2"))
        with open(r1.artifact_path, "rb") as f1, open(r2.artifact_path, "rb") as f2:
            if f1.read() != f2.read():
                ok = False
    check(
        "13 determinism",
        ok,
        f"all {len(scenarios)} bundled scenarios rerun byte-identical "
        "with identical config+seed",
    )
