"""Finite-state Bellman solver for the research MDP, surplus metrics, and
path-dependence sensitivity.

The expectation over innovation shocks is taken over an explicit finite
support, so Bellman backups are exact and the solver is deterministic.
Value iteration and the evaluation of a fixed policy both stop on the
MacQueen-Porteus bounds of their increments (Puterman 1994, section 6.6.3):
once the bounds are at most the tolerance wide, they return the midpoint.
The value-iteration `residual` is the Bellman residual of the values it
returns. Both run in O(states x shocks) memory and with no BLAS call, so
their values do not depend on the BLAS thread count; `exact_policy_values`
keeps the dense linear solve as the test-scale oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._params import Params, float_array, param
from .errors import ConvergenceError, DomainError, InputError, NumericError

FORMAT = "json"


def _indices(name: str, values) -> np.ndarray:
    """`values` as an int array; every element must be a finite whole number."""
    arr = float_array(name, values)
    if not np.all(np.isfinite(arr) & (arr == np.trunc(arr))):
        raise InputError(f"{name}: every element must be a whole number")
    return arr.astype(int)


@dataclass(frozen=True)
class MdpSpec(Params):
    """Finite MDP with a finite shock support.

    rewards     (n_states, n_actions) table r(s, a)
    shock_probs length-n_shocks probabilities summing to 1
    transition  (n_states, n_actions, n_shocks) next-state indices
    beta        discount factor in (0, 1)
    """

    rewards: np.ndarray = param([[0.0, 1.0]])
    shock_probs: np.ndarray = param([1.0])
    transition: list = param([[[0], [0]]])  # an int array, made by _indices
    beta: float = param(0.9, exmin=0, exmax=1)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "rewards", np.atleast_2d(self.rewards))
        object.__setattr__(self, "transition", _indices("transition", self.transition))
        n_s, n_a = self.rewards.shape
        if n_s < 1 or n_a < 1:
            raise InputError("need at least one state and one action")
        if abs(self.shock_probs.sum() - 1.0) > 1e-12 or np.any(self.shock_probs < 0):
            raise InputError(
                f"shock probabilities must be >= 0 and sum to 1, "
                f"got sum {self.shock_probs.sum()}"
            )
        if self.transition.shape != (n_s, n_a, self.shock_probs.size):
            raise InputError(f"transition shape {self.transition.shape} does not match "
                             f"({n_s}, {n_a}, {self.shock_probs.size})")
        if np.any(self.transition < 0) or np.any(self.transition >= n_s):
            raise InputError("transitions must land in valid states")

    @property
    def n_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_actions(self) -> int:
        return self.rewards.shape[1]

    def expected_next_values(self, v: np.ndarray) -> np.ndarray:
        """E_shock[V(s')] for every (s, a), shape (n_states, n_actions)."""
        return np.einsum("k,sak->sa", self.shock_probs, v[self.transition])

    def policy_transition_matrix(self, policy: np.ndarray) -> np.ndarray:
        """Row-stochastic P_pi[s, s'] for a fixed per-state action."""
        n_s = self.n_states
        states = np.arange(n_s)
        p = np.zeros((n_s, n_s))
        # np.add.at adds one shock after another in row-major (s, k) order,
        # so shocks landing on one next state sum in a fixed order.
        np.add.at(
            p,
            (np.repeat(states, self.shock_probs.size), self.transition[states, policy].ravel()),
            np.tile(self.shock_probs, n_s),
        )
        return p


def _check_policy(spec: MdpSpec, name: str, policy: np.ndarray) -> None:
    """`policy` must give every state one action index of `spec`."""
    if policy.shape != (spec.n_states,):
        raise InputError(f"{name} must have shape ({spec.n_states},)")
    if np.any(policy < 0) or np.any(policy >= spec.n_actions):
        raise InputError(f"{name} contains invalid action indices")


# The sweep cap of value iteration and of policy evaluation, and the
# tolerance of the real-time-surplus solves.
MAX_SWEEPS = 100_000
SURPLUS_TOL = 1e-12


@dataclass(frozen=True)
class Solution:
    """Converged value function, greedy policy, and solver telemetry."""

    values: np.ndarray
    policy: np.ndarray
    iterations: int
    residual: float


def _bound_factor(spec: MdpSpec) -> float:
    """c = b / (1 - b), with b = beta * sum(shock_probs), the factor of the
    MacQueen-Porteus bounds (Puterman 1994, section 6.6.3).

    Every row of every beta*P_pi sums to b. The shock probabilities may sum
    to 1 - gap with |gap| up to 1e-12, and c multiplies an increment that is
    near the mean reward when the sweeps stop, so c must keep its relative
    precision as beta nears 1: 1 - b is formed as (1 - beta) + beta*gap with
    gap summed exactly, not as 1 minus a rounded b.
    """
    gap = math.fsum([1.0, *(-spec.shock_probs)])
    one_minus_b = (1.0 - spec.beta) + spec.beta * gap
    if one_minus_b <= 0:
        raise DomainError("beta * sum(shock_probs) must be < 1 for the values to be finite")
    return spec.beta * (1.0 - gap) / one_minus_b


def value_iteration(spec: MdpSpec, tol: float = 1e-12, max_iter: int = MAX_SWEEPS) -> Solution:
    """Value iteration from zero, stopped on the MacQueen-Porteus bounds.

    With d = v_n - v_(n-1) the increment of sweep n and c = b / (1 - b)
    (`_bound_factor`), V* lies between v_n + c*min(d) and v_n + c*max(d)
    (Puterman 1994, section 6.6.3). The sweeps stop once that interval is at
    most `tol` wide, and the values returned are its midpoint, so they are
    within tol/2 of V* up to rounding. The greedy policy (lowest action index
    on ties) and `residual`, the sup-norm Bellman residual of the returned
    values, both come from the one backup of those values. Out of sweeps,
    the ConvergenceError's residual is the half-width of the bounds.

    The rounding of a sweep, at most (n_shocks + 3) units of roundoff of
    max|r| + max|V*|, is magnified by 1 / (1 - b) in the returned values, as
    it is in the fixed point of the rounded sweep itself. At beta 0.99 and
    values near 80 that is a few times 1e-12, so there the values may be
    further than a `tol` of 1e-12 from V* under any stopping rule.
    """
    if tol <= 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    c = _bound_factor(spec)
    v, width = np.zeros(spec.n_states), np.inf
    for it in range(1, max_iter + 1):
        q = spec.rewards + spec.beta * spec.expected_next_values(v)
        # A chain of np.maximum over the few action columns is exact and
        # much faster than the axis reduction q.max(axis=1).
        v_new = q[:, 0].copy()
        for a in range(1, spec.n_actions):
            np.maximum(v_new, q[:, a], out=v_new)
        d = v_new - v
        v = v_new
        lo, hi = float(d.min()), float(d.max())
        width = c * (hi - lo)
        if width <= tol:
            break
    else:
        raise ConvergenceError(
            f"value iteration did not converge in {max_iter} iterations",
            residual=width / 2.0,
        )
    v = v + c * (hi + lo) / 2.0
    q = spec.rewards + spec.beta * spec.expected_next_values(v)
    policy = q.argmax(axis=1)  # argmax returns the lowest index on ties
    residual = float(np.max(np.abs(q[np.arange(spec.n_states), policy] - v)))
    return Solution(values=v, policy=policy, iterations=it, residual=residual)


def evaluate_policy(spec: MdpSpec, policy: np.ndarray) -> np.ndarray:
    """V_pi within SURPLUS_TOL in sup norm, by successive approximation on
    the fixed policy from zero (Puterman 1994, section 6.3), in at most
    MAX_SWEEPS sweeps.

    Each sweep adds the increment d = v_k - v_(k-1), carried by
    d' = beta * E_shock[d(s')], so d is free of the rounding of v. V_pi lies
    between v + c*min(d) and v + c*max(d) (`_bound_factor`). The sweeps stop
    once that interval is at most SURPLUS_TOL wide and return its midpoint:
    half of it bounds the truncation, and the other half is left for
    rounding.
    """
    policy = np.asarray(policy, dtype=int)
    _check_policy(spec, "policy", policy)
    states = np.arange(spec.n_states)
    t_pi = spec.transition[states, policy]
    c = _bound_factor(spec)
    v, d = np.zeros(spec.n_states), spec.rewards[states, policy]
    width = np.inf
    for _ in range(MAX_SWEEPS):
        v = v + d
        lo, hi = float(d.min()), float(d.max())
        width = c * (hi - lo)
        if width <= SURPLUS_TOL:
            return v + c * (hi + lo) / 2.0
        # The einsum of value_iteration's backup; `@` would go through
        # BLAS, whose rounding depends on its thread count.
        d = spec.beta * np.einsum("k,sk->s", spec.shock_probs, d[t_pi])
    raise ConvergenceError(
        f"policy evaluation did not converge in {MAX_SWEEPS} sweeps",
        residual=width / 2.0,
    )


def exact_policy_values(spec: MdpSpec, policy: np.ndarray) -> np.ndarray:
    """Exact V_pi from the dense linear system (I - beta*P_pi) V = r_pi:
    the oracle for `evaluate_policy`, O(states^2) memory."""
    policy = np.asarray(policy, dtype=int)
    _check_policy(spec, "policy", policy)
    p_pi = spec.policy_transition_matrix(policy)
    r_pi = spec.rewards[np.arange(spec.n_states), policy]
    # I - beta*P_pi built in place; `+= 0.0` turns the -0.0 of zero entries into 0.0.
    mat = np.multiply(p_pi, -spec.beta, out=p_pi)
    mat += 0.0
    mat.flat[:: spec.n_states + 1] += 1.0
    try:
        return np.linalg.solve(mat, r_pi)
    except np.linalg.LinAlgError as exc:  # cannot occur for beta < 1
        raise NumericError(f"singular policy-evaluation system: {exc}") from exc


def ideation_surplus(marginal_reward: float, c_ideation: float, eps_guard: float = 1e-9) -> float:
    """Innovation surplus per unit ideation cost, guarded against blow-up."""
    if eps_guard <= 0:
        raise DomainError(f"eps_guard must be > 0, got {eps_guard}")
    if c_ideation <= eps_guard:
        raise NumericError(
            f"ideation cost {c_ideation} at or below guard {eps_guard}: "
            "surplus unbounded"
        )
    return marginal_reward / c_ideation


def realtime_surplus(spec: MdpSpec, legacy_policy: np.ndarray) -> np.ndarray:
    """Per-state surplus of optimal play over a fixed legacy policy; V* and
    V_legacy are each within SURPLUS_TOL."""
    best = value_iteration(spec, tol=SURPLUS_TOL)
    return best.values - evaluate_policy(spec, legacy_policy)


def path_sensitivity(
    spec: MdpSpec,
    h: float = 1e-3,
    perturb=None,
    tol: float = 1e-12,
) -> np.ndarray:
    """Central-difference sensitivity of V* to a scalar policy parameter.

    `perturb(spec, p)` must return a new MdpSpec; the default channel adds a
    uniform offset p to every reward, whose exact derivative is 1/(1-beta)
    in every state.
    """
    if h <= 0:
        raise DomainError(f"h must be > 0, got {h}")
    if perturb is None:
        def perturb(base: MdpSpec, p: float) -> MdpSpec:
            return replace(base, rewards=base.rewards + p)
    v_plus = value_iteration(perturb(spec, h), tol=tol).values
    v_minus = value_iteration(perturb(spec, -h), tol=tol).values
    return (v_plus - v_minus) / (2.0 * h)


def enumerate_policies_value(spec: MdpSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive oracle: best value over all stationary deterministic
    policies, evaluated exactly. Returns (values, policy). Exponential in
    the state count; intended for test-scale instances only."""
    from itertools import product

    # The optimal stationary policy dominates every other policy pointwise,
    # so V* is the elementwise max over all policy values and is attained
    # in every state by whichever policy maximizes, say, state 0.
    best_v = np.full(spec.n_states, -np.inf)
    best_pi = None
    best_sum = -np.inf
    for actions in product(range(spec.n_actions), repeat=spec.n_states):
        pi = np.array(actions, dtype=int)
        v = exact_policy_values(spec, pi)
        best_v = np.maximum(best_v, v)
        total = float(v.sum())
        if total > best_sum:
            best_sum, best_pi = total, pi
    return best_v, best_pi


@dataclass(frozen=True)
class Scenario(MdpSpec):
    """One MDP solve, plus the real-time surplus over an optional legacy policy."""

    tol: float = param(1e-12, exmin=0)
    max_iter: int = param(MAX_SWEEPS, min=1, max=MAX_SWEEPS)
    legacy_policy: list | None = param(None)

    def __post_init__(self):
        super().__post_init__()
        if self.legacy_policy is not None:
            legacy = _indices("legacy_policy", self.legacy_policy)
            _check_policy(self, "legacy_policy", legacy)
            object.__setattr__(self, "legacy_policy", legacy)


def run(scenario: Scenario, seed: int):
    """Values, greedy policy and solver telemetry, plus the surplus check.

    With a legacy policy the one solve runs to the tighter of `tol` and
    SURPLUS_TOL, so the reported values are the V* the surplus is taken from.
    """
    tol = scenario.tol if scenario.legacy_policy is None else min(scenario.tol, SURPLUS_TOL)
    sol = value_iteration(scenario, tol=tol, max_iter=scenario.max_iter)
    report = {
        "values": sol.values.tolist(),
        "policy": sol.policy.tolist(),
        "iterations": sol.iterations,
        "residual": sol.residual,
    }
    checks = {}
    if scenario.legacy_policy is not None:
        surplus = sol.values - evaluate_policy(scenario, scenario.legacy_policy)
        report["realtime_surplus"] = surplus.tolist()
        checks["surplus_nonneg"] = bool(np.min(surplus) >= -1e-8)
    return report, checks
