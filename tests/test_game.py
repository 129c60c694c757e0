"""Cooperation game: exact evaluation and exhaustive equilibrium checks."""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from emt_lab import DomainError, InputError
from emt_lab.cli import main
from emt_lab.game import (
    C,
    D,
    SpneReport,
    StageGame,
    _StateTables,
    _strategy_tables,
    constant_strategy,
    evaluate_profile,
    is_spne,
    memory_one_strategy,
    profile_count,
    spne_search,
)

PD = dict(payoff_cc=2.0, payoff_defector=3.0, payoff_victim=0.0, payoff_dd=1.0)


def geometric(payoff, delta, t_max):
    return sum(payoff * delta**t for t in range(t_max))


def test_all_c_geometric_payoff_any_p():
    for p in (0.0, 0.3, 1.0):
        game = StageGame(**PD, p_disc=p, delta_disc=0.9, horizon=3,
                         penalty_mode="finite", omega=-1.0)
        ev = evaluate_profile(game, [constant_strategy(C)] * 2)
        assert ev.continuity_prob == 1.0
        expected = geometric(2.0, 0.9, 3)
        assert all(u == pytest.approx(expected) for u in ev.expected_payoffs)


def test_all_c_geometric_payoff_past_the_recursion_limit():
    game = StageGame(**PD, p_disc=0.5, delta_disc=0.9, horizon=3000,
                     penalty_mode="finite", omega=-1.0)
    ev = evaluate_profile(game, [constant_strategy(C)] * 2)
    assert ev.continuity_prob == 1.0
    expected = geometric(2.0, 0.9, 3000)
    assert all(u == pytest.approx(expected) for u in ev.expected_payoffs)


def test_single_defection_certain_discontinuity():
    game = StageGame(**PD, p_disc=1.0, horizon=2)
    profile = [constant_strategy(D), constant_strategy(C)]
    ev = evaluate_profile(game, profile)
    assert ev.continuity_prob == 0.0


def test_continuity_prob_multiplicative():
    p = 0.3
    game = StageGame(**PD, p_disc=p, horizon=3)
    ev = evaluate_profile(game, [constant_strategy(D)] * 2)
    # 2 defections per round x 3 rounds, conditional on reaching them:
    # total continuity = (1-p)^6
    assert ev.continuity_prob == pytest.approx((1 - p) ** 6)


def event_tree_oracle(game, profile):
    """Brute-force expectation over per-round discontinuity outcomes.

    Enumerates, round by round along the deterministic play path, whether
    discontinuity strikes after that round's payoffs; matches the model in
    evaluate_profile by construction of the event probabilities only (the
    payoff bookkeeping is recomputed independently).
    """
    # deterministic play path
    history = ()
    path = []
    for _ in range(game.horizon):
        actions = tuple(s(history) for s in profile)
        path.append(actions)
        history += (actions,)
    n = game.n_players
    totals = [0.0] * n
    survival = 1.0
    # stop_round = t means discontinuity struck after round t's payoffs
    for stop_round in range(game.horizon + 1):
        if stop_round < game.horizon:
            actions = path[stop_round]
            defections = sum(1 for a in actions if a == D)
            p_stop_here = survival * (1.0 - (1.0 - game.p_disc) ** defections)
            if p_stop_here > 0:
                for i in range(n):
                    acc = sum(
                        game.delta_disc**t * game.stage_payoffs(path[t])[i]
                        for t in range(stop_round + 1)
                    )
                    totals[i] += p_stop_here * (acc + game.omega)
            survival *= (1.0 - game.p_disc) ** defections
        else:
            for i in range(n):
                acc = sum(
                    game.delta_disc**t * game.stage_payoffs(path[t])[i]
                    for t in range(game.horizon)
                )
                totals[i] += survival * acc
    return totals, survival


@pytest.mark.parametrize("profile_actions", list(product([C, D], repeat=2)))
def test_finite_mode_matches_event_tree_oracle(profile_actions):
    game = StageGame(**PD, p_disc=0.5, delta_disc=0.9, horizon=2,
                     penalty_mode="finite", omega=-4.0)
    profile = [constant_strategy(a) for a in profile_actions]
    ev = evaluate_profile(game, profile)
    oracle_pay, oracle_survival = event_tree_oracle(game, profile)
    assert ev.continuity_prob == pytest.approx(oracle_survival)
    for got, want in zip(ev.expected_payoffs, oracle_pay):
        assert got == pytest.approx(want)


def test_memory_one_oracle_agreement():
    game = StageGame(**PD, p_disc=0.25, delta_disc=0.8, horizon=3,
                     penalty_mode="finite", omega=-2.0)
    joint = list(product((C, D), repeat=2))
    # tit-for-tat-ish: copy opponent's previous action
    tft0 = memory_one_strategy(C, {ja: ja[1] for ja in joint})
    tft1 = memory_one_strategy(C, {ja: ja[0] for ja in joint})
    defector = constant_strategy(D)
    for profile in ([tft0, tft1], [tft0, defector], [defector, tft1]):
        ev = evaluate_profile(game, profile)
        oracle_pay, oracle_survival = event_tree_oracle(game, profile)
        assert ev.continuity_prob == pytest.approx(oracle_survival)
        for got, want in zip(ev.expected_payoffs, oracle_pay):
            assert got == pytest.approx(want)


def test_penalty_inactive_reduces_to_standard_game():
    game = StageGame(**PD, p_disc=0.0, horizon=3, penalty_mode="finite", omega=0.0)
    ev = evaluate_profile(game, [constant_strategy(D)] * 2)
    assert ev.continuity_prob == 1.0
    assert all(
        u == pytest.approx(geometric(1.0, game.delta_disc, 3))
        for u in ev.expected_payoffs
    )


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_lexicographic_all_c_spne(horizon):
    game = StageGame(**PD, p_disc=0.5, horizon=horizon,
                     penalty_mode="lexicographic")
    report = spne_search(game, strategy_class="constant")
    assert report.all_c_is_spne
    assert not report.all_d_is_spne  # defecting less lowers discontinuity risk


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_p_zero_finite_mode_backward_induction(horizon):
    game = StageGame(**PD, p_disc=0.0, horizon=horizon,
                     penalty_mode="finite", omega=0.0)
    report = spne_search(game, strategy_class="constant")
    assert report.all_d_is_spne
    assert not report.all_c_is_spne


def test_lexicographic_dominance_exhaustive():
    game = StageGame(**PD, p_disc=0.5, horizon=2, penalty_mode="lexicographic")
    all_c = [constant_strategy(C)] * 2
    base = evaluate_profile(game, all_c)
    for a0, a1 in product((C, D), repeat=2):
        if (a0, a1) == (C, C):
            continue
        ev = evaluate_profile(game, [constant_strategy(a0), constant_strategy(a1)])
        for i in range(2):
            disc_base, _ = base.expected_payoffs[i]
            disc_other, _ = ev.expected_payoffs[i]
            # lower discontinuity probability strictly dominates
            assert disc_base < disc_other


def test_memory1_search_n2_and_n3_size_error():
    game = StageGame(**PD, p_disc=0.5, horizon=2)
    report = spne_search(game, strategy_class="memory1")
    assert report.all_c_is_spne
    big = StageGame(**PD, n_players=3, p_disc=0.5, horizon=2)
    with pytest.raises(InputError):
        spne_search(big, strategy_class="memory1")


def test_grim_trigger_is_spne_in_lexicographic_mode():
    game = StageGame(**PD, p_disc=0.5, horizon=2, penalty_mode="lexicographic")
    joint = list(product((C, D), repeat=2))
    grim = lambda: memory_one_strategy(C, {ja: D if D in ja else C for ja in joint})
    # grim is outcome-equivalent to all-C on path; off path it defects,
    # which raises its own discontinuity risk, so it need not be subgame
    # perfect -- just sanity-check the checker runs on it
    assert isinstance(is_spne(game, [grim(), grim()]), bool)


def test_validation():
    with pytest.raises(DomainError):
        StageGame(n_players=1)
    with pytest.raises(DomainError):
        StageGame(p_disc=1.5)
    with pytest.raises(InputError):
        StageGame(penalty_mode="nope")
    game = StageGame(**PD)
    with pytest.raises(InputError):
        evaluate_profile(game, [constant_strategy(C)])


def walk_search(game, strategy_class):
    """spne_search by the full walk: `is_spne` at every history, for every
    profile of the class built from callables."""
    n = game.n_players
    joint = list(product((C, D), repeat=n))
    if strategy_class == "constant":
        per_player = [(a, constant_strategy(a)) for a in (C, D)]
    else:
        per_player = [((first,) + response, memory_one_strategy(first, dict(zip(joint, response))))
                      for first in (C, D) for response in product((C, D), repeat=len(joint))]
    equilibria = tuple(
        tuple(label for label, _ in combo)
        for combo in product(per_player, repeat=n)
        if is_spne(game, [strategy for _, strategy in combo])
    )
    all_c = [constant_strategy(C)] * n
    return SpneReport(
        equilibria=equilibria,
        all_c_is_spne=is_spne(game, all_c),
        all_d_is_spne=is_spne(game, [constant_strategy(D)] * n),
        all_c_continuity_prob=evaluate_profile(game, all_c).continuity_prob,
    )


def random_game(rng, n_players, horizon, mode):
    """Payoffs from a few small integers, so that ties are common; a
    discontinuity probability of 0 or 1 now and then."""
    payoffs = {key: float(rng.choice((0, 1, 2, 3)))
               for key in ("payoff_cc", "payoff_defector", "payoff_victim", "payoff_dd")}
    return StageGame(**payoffs, n_players=n_players, horizon=horizon, penalty_mode=mode,
                     p_disc=rng.choice((0.0, 1.0, 0.5, rng.random())),
                     delta_disc=rng.choice((0.5, rng.uniform(0.01, 0.99))),
                     omega=rng.choice((0.0, -1.0, -5.0, -rng.uniform(0, 10))))


ORACLE_CASES = (
    [("constant", 2, h) for h in range(1, 7)]
    + [("constant", 3, h) for h in range(1, 5)]
    + [("memory1", 2, h) for h in range(1, 4)]
)


@pytest.mark.parametrize("mode", ["finite", "lexicographic"])
@pytest.mark.parametrize("strategy_class, n_players, horizon", ORACLE_CASES)
def test_table_search_matches_the_walk(strategy_class, n_players, horizon, mode):
    rng = random.Random(f"{strategy_class}-{n_players}-{horizon}-{mode}")
    for _ in range(3):
        game = random_game(rng, n_players, horizon, mode)
        assert spne_search(game, strategy_class) == walk_search(game, strategy_class), game


@pytest.mark.parametrize("mode", ["finite", "lexicographic"])
@pytest.mark.parametrize("strategy_class", ["constant", "memory1"])
def test_table_search_matches_the_walk_when_payoffs_overflow(strategy_class, mode):
    # sums past the largest float give inf, and inf times a survival of 0 gives nan
    game = StageGame(payoff_cc=1e308, payoff_defector=1.7e308, payoff_victim=-1.7e308,
                     payoff_dd=1e308, p_disc=1.0, delta_disc=0.99, horizon=3,
                     penalty_mode=mode, omega=-1e308)
    assert spne_search(game, strategy_class) == walk_search(game, strategy_class)


def per_profile_search(game, strategy_class):
    """spne_search's equilibria without its last-round prefilter: every
    profile of the class through `_StateTables.test`, in product order."""
    n = game.n_players
    labels, tables, after = _strategy_tables(n, strategy_class)
    state_tables = _StateTables(game, after)
    # player i's tables with each action moved to player i's bit
    shifted = [[[d << (n - 1 - i) for d in table] for table in tables] for i in range(n)]
    return tuple(profile for profile, player_tables
                 in zip(product(labels, repeat=n), product(*shifted))
                 if state_tables.test(list(map(sum, zip(*player_tables)))))


PAYOFFS = st.sampled_from([0.0, 1.0, 2.0, 3.0]) | st.floats(-10, 10)


@st.composite
def searches(draw):
    """A game and a strategy class. Now and then all four payoffs are equal;
    with p_disc 0 too, every profile is then an equilibrium."""
    strategy_class = draw(st.sampled_from(["constant", "memory1"]))
    n_players = 2 if strategy_class == "memory1" else draw(st.integers(2, 3))
    keys = ("payoff_cc", "payoff_defector", "payoff_victim", "payoff_dd")
    if draw(st.booleans()):
        payoffs = dict.fromkeys(keys, draw(PAYOFFS))
    else:
        payoffs = {key: draw(PAYOFFS) for key in keys}
    game = StageGame(**payoffs, n_players=n_players, horizon=draw(st.integers(1, 4)),
                     penalty_mode=draw(st.sampled_from(["finite", "lexicographic"])),
                     p_disc=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1)),
                     delta_disc=draw(st.floats(0.01, 0.99)),
                     omega=draw(st.sampled_from([0.0, -1.0]) | st.floats(-10, 0)))
    return game, strategy_class


@settings(max_examples=150, deadline=None)
@given(searches())
def test_prefiltered_search_finds_what_testing_every_profile_finds(search):
    game, strategy_class = search
    assert spne_search(game, strategy_class).equilibria == per_profile_search(game, strategy_class)


def test_constant_search_at_a_long_horizon_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"name": "long", "module": "game",
                                "params": {"strategy_class": "constant", "horizon": 3000}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "long.json").read_text())
    assert report["all_c_is_spne"] and report["all_c_continuity_prob"] == 1.0


def test_profile_count(monkeypatch):
    assert profile_count(2, "constant") == 4
    assert profile_count(17, "constant") == 2**17
    assert profile_count(18, "constant") is None
    assert profile_count(2, "memory1") == 32**2
    assert profile_count(3, "memory1") is None
    assert profile_count(10**18, "memory1") is None
    monkeypatch.setattr("emt_lab.game.MAX_PROFILES", 512**3)  # the bound is read at each call
    assert profile_count(3, "memory1") == 512**3
    assert profile_count(4, "memory1") is None
    with pytest.raises(InputError):
        profile_count(2, "memory2")
