"""Endogenous-growth engines: variety expansion, quality ladders, creative
destruction, and the unified process/product innovation system.

Continua of varieties and quality lines are discretized to a finite number of
lines; integrals become mean-times-mass quadratures. ODEs are integrated with
explicit Euler and guarded by closed-form oracles in the test suite.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._params import Params, param
from ._rng import make_generator
from .errors import DomainError, NumericError

FORMAT = "csv"


@dataclass(frozen=True)
class RomerParams(Params):
    """Variety-expansion engine parameters."""

    alpha: float = param(0.5, exmin=0, exmax=1)   # capital / intermediate share
    delta_r: float = param(0.05, exmin=0)         # research productivity
    phi_r: float = param(1.0, min=0, max=1)       # returns to the existing idea stock
    l_a: float = param(1.0, min=0)                # research labor


@dataclass
class QualityLadderState:
    """Discretized continuum of product lines with their qualities."""

    qualities: np.ndarray

    def __post_init__(self):
        self.qualities = np.asarray(self.qualities, dtype=float)
        if self.qualities.size == 0:
            raise DomainError("qualities must be non-empty")
        if np.any(self.qualities < 1.0):
            raise DomainError("all qualities must be >= 1 (ladder starts at 1)")


@dataclass(frozen=True)
class UnifiedParams(Params):
    """Joint process/product innovation system parameters."""

    phi_y: float = param(0.3, exmin=0)            # output elasticity of process innovation
    gamma_y: float = param(0.2, exmin=0)          # output elasticity of product quality
    beta_y: float = param(0.3, exmin=0, exmax=1)  # capital share
    delta_a: float = param(1.0, exmin=0)          # process innovation productivity
    delta_q: float = param(1.0, exmin=0)          # product innovation productivity
    alpha_a: float = param(0.0, min=0)            # process feedback coefficient
    alpha_q: float = param(0.0, min=0)            # product feedback coefficient
    l_a: float = param(1.0, min=0)                # labor on process innovation
    l_q: float = param(1.0, min=0)                # labor on product innovation
    lambda1: float = param(1.0, min=0)            # composite weight on process rate
    lambda2: float = param(1.0, min=0)            # composite weight on product rate


def cobb_douglas(a: float, k: float, l: float, alpha: float) -> float:
    """Aggregate output a * k^alpha * l^(1-alpha)."""
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not (0 <= a < math.inf and 0 <= k < math.inf and 0 <= l < math.inf):
        raise DomainError(f"inputs must be finite and >= 0, got a={a}, k={k}, l={l}")
    y = a * k**alpha * l ** (1.0 - alpha)
    if y == math.inf:
        raise NumericError(f"output overflows: a={a}, k={k}, l={l}")
    return y


def romer_variety_output(
    l_final: float,
    intermediates: Sequence[float],
    alpha: float,
    mass: float | None = None,
) -> float:
    """Final output over a discretized continuum of intermediate varieties.

    l_final^(1-alpha) * sum_i x_i^alpha * di with di = mass / n. By default
    each variety carries unit mass (mass = n), the textbook finite-variety
    case; pass mass=1.0 for a unit continuum.
    """
    xs = np.asarray(intermediates, dtype=float)
    if xs.size == 0:
        raise DomainError("intermediates must be non-empty")
    if np.any(xs < 0):
        raise DomainError("intermediate quantities must be >= 0")
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if mass is None:
        mass = float(xs.size)
    di = mass / xs.size
    return l_final ** (1.0 - alpha) * float(np.sum(xs**alpha)) * di


def romer_ideas_step(a: float, params: RomerParams, dt: float) -> float:
    """One Euler step of the idea accumulation law a' = a + d*a^phi*L_A*dt."""
    if a < 0:
        raise DomainError("idea stock must be >= 0")
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    return a + params.delta_r * a**params.phi_r * params.l_a * dt


def quality_index(state: QualityLadderState) -> float:
    """Aggregate quality: mean quality over the discretized unit continuum."""
    return float(np.mean(state.qualities))


def _check_ladder(mu: float, lambda_step: float, dt: float):
    """The ladder's arrival rate, step size and time step, as both ladder APIs take them."""
    if mu < 0:
        raise DomainError("mu must be >= 0")
    if lambda_step <= 1:
        raise DomainError("lambda_step must be > 1")
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")


def ladder_step(
    state: QualityLadderState,
    mu: float,
    lambda_step: float,
    dt: float,
    rng: np.random.Generator,
) -> QualityLadderState:
    """One stochastic ladder step: each line upgrades q -> lambda*q with
    probability min(1, mu*dt), independently across lines."""
    _check_ladder(mu, lambda_step, dt)
    p = min(1.0, mu * dt)
    upgrades = rng.random(state.qualities.size) < p
    new_q = np.where(upgrades, lambda_step * state.qualities, state.qualities)
    return QualityLadderState(qualities=new_q)


# Elements per block of quality_path's draws, so its memory does not grow
# with n_lines x horizon.
_BLOCK = 2**15


@np.errstate(over="ignore")  # a Q past the largest float is inf, which cobb_douglas rejects
def quality_path(
    n_lines: int,
    mu: float,
    lambda_step: float,
    dt: float,
    horizon: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Aggregate quality Q_t for t = 0..horizon of `n_lines` lines that start
    at quality 1 and take `horizon` ladder steps.

    The same floats as stepping `ladder_step` and taking `quality_index`: a
    block of steps draws its uniforms in one call, which is the same stream
    as one call per step; a line upgraded m times has quality powers[m],
    built by the same repeated product; and each row mean is np.mean's.
    """
    if n_lines < 1:
        raise DomainError(f"n_lines must be >= 1, got {n_lines}")
    _check_ladder(mu, lambda_step, dt)
    p = min(1.0, mu * dt)
    # powers[m] for every number of upgrades m a line can reach, inf past the
    # largest float: most runs never reach those entries
    powers = np.full(horizon + 1, float(lambda_step))
    powers[0] = 1.0
    np.multiply.accumulate(powers, out=powers)
    path = np.empty(horizon + 1)
    path[0] = 1.0  # the mean of n_lines ones
    block = max(1, _BLOCK // n_lines)
    levels = np.empty((min(block, horizon), n_lines), dtype=np.intp)
    counts = np.zeros(n_lines, dtype=np.intp)  # each line's upgrades so far
    for start in range(0, horizon, block):
        rows = levels[:min(block, horizon - start)]
        for up, out in zip(rng.random(rows.shape) < p, rows):
            counts = np.add(counts, up, out=out)
        path[start + 1:start + 1 + len(rows)] = powers.take(rows).mean(axis=1)
    return path


def incumbent_value(pi_flow: float, r_rate: float, mu: float) -> float:
    """Steady-state value of an incumbent monopoly: pi / (r + mu)."""
    if r_rate + mu <= 0:
        raise DomainError(f"r + mu must be > 0, got {r_rate + mu}")
    v = pi_flow / (r_rate + mu)
    if v == math.inf:
        raise NumericError(f"incumbent value pi / (r + mu) overflows: {pi_flow} / {r_rate + mu}")
    return v


def free_entry_mu(pi_flow: float, psi: float, r_rate: float) -> float:
    """Arrival intensity pinned down by free entry: mu * V(mu) = psi.

    Closed form mu = psi*r / (pi - psi); requires 0 < psi < pi.
    """
    if psi <= 0:
        raise DomainError("entry cost psi must be > 0")
    if r_rate <= 0:
        raise DomainError("interest rate must be > 0")
    if psi >= pi_flow:
        raise DomainError(
            f"no equilibrium: entry cost {psi} >= flow profit {pi_flow}"
        )
    return psi * r_rate / (pi_flow - psi)


def schumpeter_growth(lambda_step: float, mu: float, delta_obs: float = 0.0) -> float:
    """Aggregate growth rate ln(lambda)*mu minus the obsolescence burden."""
    if lambda_step <= 1:
        raise DomainError("lambda_step must be > 1")
    if mu < 0 or delta_obs < 0:
        raise DomainError("mu and delta_obs must be >= 0")
    return math.log(lambda_step) * mu - delta_obs


def science_production(
    l_s: float, a_cap: float, beta1: float, beta2: float, theta_sub: float
) -> float:
    """Dual-input knowledge output beta1*L_s^theta + beta2*A^(1-theta)."""
    if not 0 <= theta_sub <= 1:
        raise DomainError(f"theta_sub must lie in [0, 1], got {theta_sub}")
    if min(l_s, a_cap, beta1, beta2) < 0:
        raise DomainError("inputs must be >= 0")
    return beta1 * l_s**theta_sub + beta2 * a_cap ** (1.0 - theta_sub)


def composite_innovation(
    lambda1: float, lambda2: float, da_dt: float, dq_dt: float
) -> float:
    """Composite innovation rate lambda1*dA/dt + lambda2*dq/dt."""
    if lambda1 < 0 or lambda2 < 0:
        raise DomainError("weights must be >= 0")
    return lambda1 * da_dt + lambda2 * dq_dt


@dataclass(frozen=True)
class UnifiedState:
    """State of the unified innovation system."""

    a: float = 1.0
    q: float = 1.0
    k: float = 1.0
    l: float = 1.0


def unified_step(
    state: UnifiedState, params: UnifiedParams, c_now: float, dt: float
) -> tuple[UnifiedState, float]:
    """One Euler step of the joint process/product system; returns
    (new state, output).

    Both innovation rates scale with 1/c_now, the inverse ideation cost;
    a vanishing cost is rejected explicitly rather than silently producing
    an infinite rate.
    """
    if c_now <= 0:
        raise DomainError(f"ideation cost must be > 0, got {c_now} (singular)")
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    a_new = state.a + params.delta_a * params.l_a * (1.0 + params.alpha_a * state.a) / c_now * dt
    q_new = state.q + params.delta_q * params.l_q * (1.0 + params.alpha_q * state.q) / c_now * dt
    y = (
        a_new**params.phi_y
        * q_new**params.gamma_y
        * state.k**params.beta_y
        * state.l ** (1.0 - params.beta_y)
    )
    return UnifiedState(a=a_new, q=q_new, k=state.k, l=state.l), y


# Bounds on a scenario's size, checked at validation. On a 2-core Xeon VM a
# ladder step holds about 20 bytes of arrays per line at its peak, so 10**7
# lines is about 200 MB of RSS; a line step costs 5-18 ns of CPU there (14 ns
# at 10**7 lines), so the budget on n_lines x horizon is about a minute (70 s
# at 10**7 lines). A step also costs about 6.5 us and 130 bytes of columns to
# run and write, about 7 s and 130 MB of RSS at the horizon bound.
MAX_N_LINES = 10**7
MAX_LADDER_WORK = 5 * 10**9


@dataclass(frozen=True)
class Scenario(RomerParams):
    """One growth path: ideas, quality ladder, free-entry creative destruction."""

    a0: float = param(1.0, min=0)
    k0: float = param(1.0, min=0)
    l0: float = param(1.0, min=0)
    n_lines: int = param(1000, min=1, max=MAX_N_LINES)
    lambda_step: float = param(1.5, exmin=1)
    pi_flow: float = param(1.0, exmin=0)
    psi: float = param(0.5, exmin=0)
    r_rate: float = param(0.05, exmin=0)
    delta_obs: float = param(0.0, min=0)
    dt: float = param(0.1, exmin=0)
    horizon: int = param(100, min=1, max=10**6)

    def __post_init__(self):
        super().__post_init__()
        if self.n_lines * self.horizon > MAX_LADDER_WORK:
            raise DomainError(f"n_lines x horizon: {self.n_lines} x {self.horizon} line steps "
                              f"are above the budget of {MAX_LADDER_WORK}")
        free_entry_mu(self.pi_flow, self.psi, self.r_rate)  # an equilibrium must exist


def run(scenario: Scenario, seed: int):
    """Output path with free-entry growth, plus the free-entry consistency check."""
    s = scenario
    mu = free_entry_mu(s.pi_flow, s.psi, s.r_rate)
    v = incumbent_value(s.pi_flow, s.r_rate, mu)
    g = schumpeter_growth(s.lambda_step, mu, s.delta_obs)
    q_col = array("d", quality_path(s.n_lines, mu, s.lambda_step, s.dt, s.horizon,
                                    make_generator(seed, 0)).tobytes())
    t_col, a_col, y_col = array("d"), array("d"), array("d")
    a, t = s.a0, 0.0
    for step, q in enumerate(q_col):
        t_col.append(t)
        a_col.append(a)
        y_col.append(cobb_douglas(a * q, s.k0, s.l0, s.alpha))
        if step == s.horizon:
            break
        a = romer_ideas_step(a, s, s.dt)
        t += s.dt
    k_col, l_col, g_col, mu_col, v_col = (array("d", [x]) * len(q_col)
                                          for x in (s.k0, s.l0, g, mu, v))
    checks = {"free_entry_consistency": abs(mu * v - s.psi) < 1e-10}
    columns = [t_col, a_col, q_col, k_col, l_col, y_col, g_col, mu_col, v_col]
    return (["t", "A", "Q", "K", "L", "Y", "g", "mu", "V"], columns), checks
