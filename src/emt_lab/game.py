"""Repeated cooperation game with consciousness-discontinuity penalties.

Each defection event independently triggers, with probability p, a
discontinuity that ends the game for all players. The catastrophic penalty
is modeled primarily lexicographically: players first minimize the
probability of discontinuity on their continuation path and only then
compare discounted payoffs. A finite-penalty mode (a scalar omega <= 0 paid
once on discontinuity) is kept for sensitivity analysis.

Equilibrium claims are verified exhaustively at small scale: strategy
profiles from a bounded class are checked for subgame perfection by
one-shot deviation tests at every history. Play is deterministic given a
profile, so evaluation from any history follows a single path and the
expectation over discontinuity events is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence, Tuple

from ._params import Params, param
from .errors import InputError

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

    Follows the deterministic play path. Each round's payoffs accrue before
    that round's discontinuity draw; on discontinuity, play stops and (in
    finite mode) omega is added once, undiscounted. `override` = (player,
    action) replaces one player's first-round action, for deviation tests.
    Returns (continuation survival probability, per-player expected
    discounted payoffs excluding omega, per-player omega contribution).
    """
    t = len(history)
    if t >= game.horizon:
        n = game.n_players
        return 1.0, (0.0,) * n, (0.0,) * n
    actions = [_action_at(s, history) for s in profile]
    if override is not None:
        actions[override[0]] = override[1]
    actions = tuple(actions)
    u = game.stage_payoffs(actions)
    defections = sum(1 for a in actions if a == D)
    s_round = (1.0 - game.p_disc) ** defections
    s_cont, pay_cont, om_cont = _path_values(game, profile, history + (actions,))
    survival = s_round * s_cont
    pay = tuple(
        u[i] + s_round * game.delta_disc * pay_cont[i] for i in range(game.n_players)
    )
    omega = tuple(
        (1.0 - s_round) * game.omega + s_round * om_cont[i]
        for i in range(game.n_players)
    )
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
    """One-shot deviation test at every history of every length < horizon.

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


def _enumerate_class(game: StageGame, strategy_class: str):
    """All (label, Strategy) per player for the configured class."""
    if strategy_class == "constant":
        return [(a, constant_strategy(a)) for a in _ACTIONS]
    if strategy_class == "memory1":
        joint = list(product(_ACTIONS, repeat=game.n_players))
        out = []
        for initial in _ACTIONS:
            for resp_actions in product(_ACTIONS, repeat=len(joint)):
                response = dict(zip(joint, resp_actions))
                label = (initial,) + resp_actions
                out.append((label, memory_one_strategy(initial, response)))
        return out
    raise InputError(f"unknown strategy class {strategy_class!r}")


@dataclass(frozen=True)
class SpneReport:
    equilibria: tuple
    all_c_is_spne: bool
    all_d_is_spne: bool


def spne_search(
    game: StageGame,
    strategy_class: str = "constant",
    max_profiles: int = 200_000,
) -> SpneReport:
    """Exhaustive SPNE search over a bounded strategy class.

    Always reports on the all-cooperate and all-defect profiles, which
    belong to every supported class. Raises a size error when the profile
    space exceeds `max_profiles`.
    """
    per_player = _enumerate_class(game, strategy_class)
    cardinality = len(per_player) ** game.n_players
    if cardinality > max_profiles:
        raise InputError(
            f"strategy-profile space has {cardinality} elements, "
            f"exceeding the bound {max_profiles}"
        )
    equilibria = []
    for combo in product(per_player, repeat=game.n_players):
        labels = tuple(label for label, _ in combo)
        profile = [strat for _, strat in combo]
        if is_spne(game, profile):
            equilibria.append(labels)
    all_c = [constant_strategy(C)] * game.n_players
    all_d = [constant_strategy(D)] * game.n_players
    return SpneReport(
        equilibria=tuple(equilibria),
        all_c_is_spne=is_spne(game, all_c),
        all_d_is_spne=is_spne(game, all_d),
    )


@dataclass(frozen=True)
class Scenario(StageGame):
    """One exhaustive SPNE search over `strategy_class` profiles."""

    strategy_class: str = param("constant", choices=("constant", "memory1"))


def run(scenario: Scenario, seed: int):
    """The equilibria found and the all-cooperate outcome; no checks."""
    found = spne_search(scenario, strategy_class=scenario.strategy_class)
    all_c = evaluate_profile(scenario, [constant_strategy(C)] * scenario.n_players)
    report = {
        "all_c_is_spne": found.all_c_is_spne,
        "all_d_is_spne": found.all_d_is_spne,
        "n_equilibria": len(found.equilibria),
        "equilibria": [list(map(list, eq)) if isinstance(eq[0], tuple) else list(eq)
                       for eq in found.equilibria],
        "all_c_continuity_prob": all_c.continuity_prob,
    }
    return report, {}
