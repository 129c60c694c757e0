"""Three-layer cybernetic alignment loop.

Layer 1 measures the alignment error eps = E - O between the experiential
target and ideation output. Layer 2 steers the alignment signal A toward the
error at rate gamma and feeds it into the output through the gain phi(A).
Layer 3 is meta-learning: gamma itself adapts to whether the squared error is
shrinking. The deterministic core integrates with RK4; Gaussian noise, when
enabled, enters Euler-Maruyama style with sqrt(dt) scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ._params import Params, param
from ._rng import make_generator
from .errors import DomainError, NumericError

FORMAT = "csv"


@dataclass(frozen=True)
class FeedbackParams(Params):
    """Loop parameters; e_target may be a constant or a callable of t."""

    gamma0: float = param(1.0, min=0)
    theta_meta: float = param(0.0)
    phi_gain: float = param(1.0)
    noise_sd: float = param(0.0, min=0)
    e_target: float | Callable[[float], float] = param(1.0)
    dt: float = param(1e-3, exmin=0)
    horizon: int = param(6284, min=1)
    seed: int = 0
    o0: float = param(0.0)
    a0: float = param(0.0)

    def target(self, t: float) -> float:
        if callable(self.e_target):
            return float(self.e_target(t))
        return float(self.e_target)


@dataclass(frozen=True)
class FeedbackState:
    """One recorded point of the loop trajectory."""

    t: float
    o_val: float
    a_sig: float
    gamma: float
    eps_err: float


def _rk4_step(o: float, a: float, gamma: float, params: FeedbackParams, t: float) -> tuple[float, float]:
    """One RK4 step of dO/dt = phi_gain*A, dA/dt = gamma*(E - O)."""
    dt = params.dt

    def deriv(o_, a_, t_):
        return params.phi_gain * a_, gamma * (params.target(t_) - o_)

    k1o, k1a = deriv(o, a, t)
    k2o, k2a = deriv(o + 0.5 * dt * k1o, a + 0.5 * dt * k1a, t + 0.5 * dt)
    k3o, k3a = deriv(o + 0.5 * dt * k2o, a + 0.5 * dt * k2a, t + 0.5 * dt)
    k4o, k4a = deriv(o + dt * k3o, a + dt * k3a, t + dt)
    o_new = o + dt / 6.0 * (k1o + 2 * k2o + 2 * k3o + k4o)
    a_new = a + dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
    return o_new, a_new


def simulate_loop(params: FeedbackParams) -> list[FeedbackState]:
    """Integrate the loop for `horizon` steps; returns horizon+1 states."""
    rng = make_generator(params.seed) if params.noise_sd > 0 else None
    o, a, gamma = params.o0, params.a0, params.gamma0
    t = 0.0
    eps = params.target(t) - o
    traj = [FeedbackState(t=t, o_val=o, a_sig=a, gamma=gamma, eps_err=eps)]
    for k in range(params.horizon):
        o, a = _rk4_step(o, a, gamma, params, t)
        if rng is not None:
            o += params.noise_sd * math.sqrt(params.dt) * rng.standard_normal()
        t = (k + 1) * params.dt
        if not (math.isfinite(o) and math.isfinite(a)):
            raise NumericError(f"loop diverged at step {k + 1}: O={o}, A={a}")
        eps_new = params.target(t) - o
        # exact discrete telescope of d(gamma)/dt = theta * d(eps^2)/dt
        gamma = max(0.0, gamma + params.theta_meta * (eps_new**2 - eps**2))
        eps = eps_new
        traj.append(FeedbackState(t=t, o_val=o, a_sig=a, gamma=gamma, eps_err=eps))
    return traj


def loop_diagnostics(traj: Sequence[FeedbackState], settle_threshold: float = 1e-2) -> dict:
    """Energy drift, tail error, and a settled flag for a trajectory.

    energy_drift tracks eps^2 + A^2 against its initial value; it is a
    meaningful conservation check only for the undamped unit-gain case
    (theta=0, noise=0, gamma=1, phi_gain=1).
    """
    if not traj:
        raise DomainError("trajectory must be non-empty")
    e0 = traj[0].eps_err ** 2 + traj[0].a_sig ** 2
    drift = max(abs(s.eps_err**2 + s.a_sig**2 - e0) for s in traj)
    tail = traj[len(traj) // 2 :]
    max_abs_eps = max(abs(s.eps_err) for s in tail)
    return {
        "energy_drift": drift,
        "max_abs_eps": max_abs_eps,
        "settled": max_abs_eps < settle_threshold,
    }


@dataclass(frozen=True)
class Scenario(FeedbackParams):
    """One loop trajectory, optionally checked to settle (or, if
    expect_unstable, not to) below settle_threshold."""

    settle_threshold: float = param(1e-2, exmin=0)
    check_settled: bool = param(False)
    expect_unstable: bool = param(False)


def run(scenario: Scenario, seed: int):
    """The trajectory, plus the settling check if asked for."""
    traj = simulate_loop(replace(scenario, seed=seed))
    rows = [[s.t, s.o_val, s.a_sig, s.gamma, s.eps_err] for s in traj]
    checks = {}
    if scenario.check_settled:
        diag = loop_diagnostics(traj, settle_threshold=scenario.settle_threshold)
        checks["settled_as_expected"] = diag["settled"] != scenario.expect_unstable
    return (["t", "O", "A", "gamma", "eps"], rows), checks
