"""Repeated cooperation game with consciousness-discontinuity penalties.

Each defection event independently triggers, with probability p, a
discontinuity that ends the game for all players. The catastrophic penalty
is modeled primarily lexicographically: players first minimize the
probability of discontinuity on their continuation path and only then
compare discounted payoffs. A finite-penalty mode (a scalar omega <= 0 paid
once on discontinuity) is kept for sensitivity analysis.

Equilibrium claims are verified exhaustively at small scale: strategy
profiles from a bounded class are checked for subgame perfection by
one-shot deviation tests. Play is deterministic given a profile, so
evaluation from any history follows a single path and the expectation over
discontinuity events is exact.

`is_spne` walks every history of a profile of arbitrary callables, which is
exponential in the horizon; with `evaluate_profile` it is the reference the
tests hold the search to. `spne_search` gets the same verdicts in time
linear in the horizon: the strategies of both bounded classes (constant and
memory-one) read only whether the history is empty and its last joint
action, so each one becomes an action table over those states, and a
profile is tested by backward induction over (round, state) at one history
per round and last joint action.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence, Tuple

import numpy as np

from ._params import Params, param
from .errors import DomainError, InputError

FORMAT = "json"

C, D = "C", "D"
_ACTIONS = (C, D)

History = Tuple[Tuple[str, ...], ...]
Strategy = Callable[[History], str]


@dataclass(frozen=True)
class StageGame(Params):
    """Stage payoffs, discontinuity model, and repetition structure.

    A player's stage payoff is payoff_cc under mutual cooperation,
    payoff_defector as the sole defector, payoff_dd when defecting alongside
    others, and payoff_victim when cooperating while someone defects.
    """

    n_players: int = param(2, min=2)
    payoff_cc: float = param(2.0)
    payoff_defector: float = param(3.0)
    payoff_victim: float = param(0.0)
    payoff_dd: float = param(1.0)
    p_disc: float = param(0.5, min=0, max=1)
    delta_disc: float = param(0.9, exmin=0, exmax=1)
    horizon: int = param(2, min=1)
    penalty_mode: str = param("lexicographic", choices=("lexicographic", "finite"))
    omega: float = param(0.0, max=0)  # a penalty

    def stage_payoffs(self, actions: Tuple[str, ...]) -> Tuple[float, ...]:
        defectors = sum(1 for a in actions if a == D)
        out = []
        for a in actions:
            if a == D:
                out.append(self.payoff_defector if defectors == 1 else self.payoff_dd)
            else:
                out.append(self.payoff_cc if defectors == 0 else self.payoff_victim)
        return tuple(out)


@dataclass(frozen=True)
class OutcomeEvaluation:
    """Per-player evaluation of a strategy profile.

    In finite mode expected_payoffs holds scalar expected utilities
    (penalty included); in lexicographic mode it holds
    (discontinuity probability, survival-weighted discounted payoff) pairs,
    ordered so that a lower first component strictly dominates.
    """

    expected_payoffs: tuple
    continuity_prob: float


def _action_at(strategy: Strategy, history: History) -> str:
    try:
        a = strategy(history)
    except Exception as exc:
        raise InputError(f"profile undefined at history {history}: {exc}") from exc
    if a not in _ACTIONS:
        raise InputError(f"invalid action {a!r} at history {history}")
    return a


def _path_values(
    game: StageGame,
    profile: Sequence[Strategy],
    history: History,
    override: tuple | None = None,
) -> tuple:
    """Continuation values (survival, payoff vector) from a history.

    Follows the deterministic play path forward, then sums it backward from
    its last round, so the walk is a loop at any horizon. Each round's
    payoffs accrue before that round's discontinuity draw; on discontinuity,
    play stops and (in finite mode) omega is added once, undiscounted.
    `override` = (player, action) replaces one player's first-round action,
    for deviation tests.
    Returns (continuation survival probability, per-player expected
    discounted payoffs excluding omega, per-player omega contribution).
    """
    rounds = []  # (stage payoffs, survival) of each round on the path
    while len(history) < game.horizon:
        actions = [_action_at(s, history) for s in profile]
        if override is not None:
            actions[override[0]] = override[1]
            override = None
        actions = tuple(actions)
        defections = sum(1 for a in actions if a == D)
        rounds.append((game.stage_payoffs(actions), (1.0 - game.p_disc) ** defections))
        history = history + (actions,)
    n = game.n_players
    survival, pay, omega = 1.0, (0.0,) * n, (0.0,) * n
    for u, s_round in reversed(rounds):
        survival = s_round * survival
        pay = tuple(u[i] + s_round * game.delta_disc * pay[i] for i in range(n))
        omega = tuple((1.0 - s_round) * game.omega + s_round * omega[i] for i in range(n))
    return survival, pay, omega


def evaluate_profile(game: StageGame, profile: Sequence[Strategy]) -> OutcomeEvaluation:
    """Exact expected evaluation of a full strategy profile."""
    if len(profile) != game.n_players:
        raise InputError(
            f"profile has {len(profile)} strategies for {game.n_players} players"
        )
    survival, pay, omega = _path_values(game, profile, ())
    if game.penalty_mode == "finite":
        payoffs = tuple(pay[i] + omega[i] for i in range(game.n_players))
    else:
        payoffs = tuple((1.0 - survival, pay[i]) for i in range(game.n_players))
    return OutcomeEvaluation(expected_payoffs=payoffs, continuity_prob=survival)


def _value_for(game: StageGame, profile, history, player, override=None):
    """Single player's comparable continuation value from a history."""
    survival, pay, omega = _path_values(game, profile, history, override)
    if game.penalty_mode == "finite":
        return pay[player] + omega[player]
    # lexicographic: minimize discontinuity probability, then maximize payoff
    return (-(1.0 - survival), pay[player])


def _all_histories(game: StageGame):
    joint = list(product(_ACTIONS, repeat=game.n_players))
    for t in range(game.horizon):
        for h in product(joint, repeat=t):
            yield h


def is_spne(game: StageGame, profile: Sequence[Strategy]) -> bool:
    """One-shot deviation test at every history of every length < horizon,
    for any callable strategies; `spne_search` is the fast path for its
    bounded classes.

    Valid for these preferences: survival composes multiplicatively and
    payoffs additively round by round, so continuation values are
    dynamically consistent (for p_disc < 1) and the one-shot deviation
    principle applies to the finite tree.
    """
    for history in _all_histories(game):
        for player in range(game.n_players):
            prescribed = _action_at(profile[player], history)
            alt = D if prescribed == C else C
            v_follow = _value_for(game, profile, history, player)
            v_dev = _value_for(game, profile, history, player, (player, alt))
            if v_dev > v_follow:
                return False
    return True


def constant_strategy(action: str) -> Strategy:
    if action not in _ACTIONS:
        raise InputError(f"invalid action {action!r}")
    return lambda history: action


def memory_one_strategy(initial: str, response: dict) -> Strategy:
    """Play `initial` first, then respond to the previous joint action."""
    if initial not in _ACTIONS:
        raise InputError(f"invalid action {initial!r}")

    def strat(history: History) -> str:
        if not history:
            return initial
        return response[history[-1]]

    return strat


MAX_PROFILES = 200_000
# Bound on profiles x horizon x 2**n_players, the joint actions the search may
# test. The slowest case per unit, 2 players with every profile an SPNE (all
# payoffs equal, p_disc 0), takes about 3 us per unit on a 2-core Xeon VM
# (2.7-3.3 us at horizons 50 and 500), so about 30 s at the bound; games with
# more players mostly stop earlier, and most profiles fail the last round.
MAX_SEARCH_WORK = 10**7
_CLASSES = ("constant", "memory1")


def profile_count(n_players: int, strategy_class: str) -> int | None:
    """The number of strategy profiles of `strategy_class` for `n_players`,
    or None when it is larger than `MAX_PROFILES`.

    A player has 2 constant strategies, or 2 * 2**(2**n) memory-one ones (an
    opening action and a response to each joint action). A count past the
    bound is not formed: for memory1 it can have millions of digits.
    """
    if strategy_class not in _CLASSES:
        raise InputError(f"unknown strategy class {strategy_class!r}")
    if n_players >= MAX_PROFILES.bit_length():  # at least 2**n_players > MAX_PROFILES profiles
        return None
    per_player = 2 if strategy_class == "constant" else 2 * 2 ** (2 ** n_players)
    count = per_player ** n_players
    return count if count <= MAX_PROFILES else None


def _strategy_tables(n_players: int, strategy_class: str):
    """The strategies of a class as action tables over history states.

    A state stands for all the histories after which every strategy of the
    class acts alike. A memory-one strategy reads only whether the history is
    empty (state 0) and its last joint action k (state 1 + k); a constant
    strategy has one state. Joint action k is the k-th tuple of
    product(_ACTIONS, repeat=n), so player i defects in it when bit
    n - 1 - i of k is set. Returns the strategies' labels, their tables of
    0 for C and 1 for D by state, and the state after each joint action.
    """
    n_joint = 2**n_players
    if strategy_class == "constant":
        return list(_ACTIONS), [(a == D,) for a in _ACTIONS], (0,) * n_joint
    labels = [(first,) + response for first in _ACTIONS
              for response in product(_ACTIONS, repeat=n_joint)]
    return labels, [tuple(a == D for a in label) for label in labels], range(1, n_joint + 1)


class _StateTables:
    """A game's tables for the one-shot deviation test over history states.

    Per joint action it holds the stage payoffs, the round's survival
    probability s, s * delta_disc and (1 - s) * omega, and the values of the
    last round, which no profile changes. A round's values are those of
    `_path_values`, with the same float operations in the same order.
    """

    def __init__(self, game: StageGame, after):
        n = game.n_players
        self.horizon = game.horizon
        self.finite = game.penalty_mode == "finite"
        self.after = after
        self.later = sorted(set(after))
        self.flips = [(i, 1 << (n - 1 - i)) for i in range(n)]
        self.stage = []
        for actions in product(_ACTIONS, repeat=n):
            s_round = (1.0 - game.p_disc) ** sum(1 for a in actions if a == D)
            self.stage.append((game.stage_payoffs(actions), s_round,
                               s_round * game.delta_disc, (1.0 - s_round) * game.omega))
        zeros = (0.0,) * n
        self.last = self._values(dict.fromkeys(self.later, (1.0, zeros, zeros)), range(2**n))
        self.last_ok = [not self._deviates(self.last, k) for k in range(2**n)]

    def _values(self, cont: dict, joint_actions) -> dict:
        """(survival, payoffs, omega) of playing each of `joint_actions`, or a
        one-player deviation from it, then the continuation `cont` of the
        state it leads to."""
        values = {}
        for k in joint_actions:
            for j in (k, *(k ^ bit for _, bit in self.flips)):
                if j not in values:
                    u, s_round, sd, om_round = self.stage[j]
                    s_cont, pay_cont, om_cont = cont[self.after[j]]
                    values[j] = (s_round * s_cont,
                                 tuple([x + sd * y for x, y in zip(u, pay_cont)]),
                                 tuple([om_round + s_round * y for y in om_cont]))
        return values

    def _deviates(self, values: dict, k: int) -> bool:
        """Whether some player gains by a one-shot deviation from playing k."""
        survival, pay, omega = values[k]
        for i, bit in self.flips:
            dev_survival, dev_pay, dev_omega = values[k ^ bit]
            if self.finite:
                if dev_pay[i] + dev_omega[i] > pay[i] + omega[i]:
                    return True
            elif (-(1.0 - dev_survival), dev_pay[i]) > (-(1.0 - survival), pay[i]):
                return True
        return False

    def _played(self, plays: list, t: int) -> set:
        """The joint actions played in the states of round t."""
        return {plays[s] for s in (self.later if t else (0,))}

    def test(self, plays: list) -> bool:
        """One-shot deviation test of the profile that plays joint action
        `plays[s]` in state s, by backward induction from the last round.

        Round 0 is tested at the empty history (state 0), every later round
        at each state an earlier joint action leads to. Stops at the first
        profitable deviation.
        """
        if not all(self.last_ok[k] for k in self._played(plays, self.horizon - 1)):
            return False
        values = self.last
        for t in reversed(range(self.horizon - 1)):
            cont = {s: values[plays[s]] for s in self.later}
            tested = self._played(plays, t)
            values = self._values(cont, tested)
            if any(self._deviates(values, k) for k in tested):
                return False
        return True


@dataclass(frozen=True)
class SpneReport:
    equilibria: tuple
    all_c_is_spne: bool
    all_d_is_spne: bool
    all_c_continuity_prob: float


def spne_search(game: StageGame, strategy_class: str = "constant") -> SpneReport:
    """Exhaustive SPNE search over a bounded strategy class.

    Every strategy of a class reads only whether the history is empty and
    its last joint action, so each profile is tested by `_StateTables.test`
    at one history per (round, last joint action) instead of at every
    history as `is_spne` does; every joint action ends some history of each
    length >= 1, so the verdicts are the same. The joint actions of every
    profile come from one numpy broadcast, and only the profiles whose
    last-round plays pass are tested. Always reports on the
    all-cooperate and all-defect profiles, the first and last labels of
    every supported class, and the all-cooperate continuity probability.
    Raises a size error when the profile space exceeds `MAX_PROFILES`.
    """
    n = game.n_players
    if profile_count(n, strategy_class) is None:
        raise InputError(
            f"strategy-profile space of {n} players in class {strategy_class!r} "
            f"exceeds the bound {MAX_PROFILES}"
        )
    labels, tables, after = _strategy_tables(n, strategy_class)
    state_tables = _StateTables(game, after)
    # plays[s_0, ..., s_{n-1}, state]: the joint action of the profile in which
    # player i plays strategy s_i, each player's action moved to its bit; the
    # player axes in C order are the order of product(labels, repeat=n)
    table = np.array(tables, dtype=np.intp)
    plays = sum(table.reshape((1,) * i + table.shape[:1] + (1,) * (n - 1 - i) + table.shape[1:])
                << (n - 1 - i) for i in range(n))
    last_states = list(state_tables.later if game.horizon > 1 else (0,))
    last_ok = np.array(state_tables.last_ok)[plays[..., last_states]].all(axis=-1)
    survivors = np.flatnonzero(last_ok)
    found = survivors[np.array([state_tables.test(p) for p in
                                plays.reshape(-1, table.shape[1])[survivors].tolist()], dtype=bool)]
    equilibria = tuple(zip(*[[labels[s] for s in strategy.tolist()]
                             for strategy in np.unravel_index(found, last_ok.shape)]))
    return SpneReport(
        equilibria=equilibria,
        all_c_is_spne=(labels[0],) * n in equilibria,
        all_d_is_spne=(labels[-1],) * n in equilibria,
        # a discontinuity is drawn only on a defection: (1 - p_disc) ** 0 == 1.0
        all_c_continuity_prob=1.0,
    )


@dataclass(frozen=True)
class Scenario(StageGame):
    """One exhaustive SPNE search over `strategy_class` profiles."""

    strategy_class: str = param("constant", choices=_CLASSES)

    def __post_init__(self):
        super().__post_init__()
        profiles = profile_count(self.n_players, self.strategy_class)
        if profiles is None:
            raise DomainError(
                f"n_players: {self.n_players} players have more than {MAX_PROFILES} "
                f"strategy profiles in strategy_class {self.strategy_class!r}"
            )
        if profiles * self.horizon * 2**self.n_players > MAX_SEARCH_WORK:
            raise DomainError(
                f"horizon: {self.horizon} rounds x {profiles} profiles of {self.n_players} "
                f"players in strategy_class {self.strategy_class!r} x "
                f"{2**self.n_players} joint actions are above the search bound of "
                f"{MAX_SEARCH_WORK}"
            )


def run(scenario: Scenario, seed: int):
    """The equilibria found and the all-cooperate outcome; no checks."""
    found = spne_search(scenario, strategy_class=scenario.strategy_class)
    report = {
        "all_c_is_spne": found.all_c_is_spne,
        "all_d_is_spne": found.all_d_is_spne,
        "n_equilibria": len(found.equilibria),
        "equilibria": found.equilibria,  # json writes tuples as arrays
        "all_c_continuity_prob": found.all_c_continuity_prob,
    }
    return report, {}
