"""Three-layer cybernetic alignment loop.

Layer 1 measures the alignment error eps = E - O between the experiential
target and ideation output. Layer 2 steers the alignment signal A toward the
error at rate gamma and feeds it into the output through the gain phi(A).
Layer 3 is meta-learning: gamma itself adapts to whether the squared error is
shrinking. The deterministic core integrates with RK4; Gaussian noise, when
enabled, enters Euler-Maruyama style with sqrt(dt) scaling.

`simulate_loop` is the hot path of a feedback run, so the RK4 step is inlined
in its loop, the normal draws for all steps are taken in one batch (the same
doubles as one draw per step), and each state is a plain tuple in CSV column
order, so the trajectory is the artifact's rows as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    # A step costs about 7 us to run and write and 250 B of peak memory (290 B
    # with noise) on a 2-core Xeon VM, so about 7 s and 290 MB at the bound.
    horizon: int = param(6284, min=1, max=10**6)
    o0: float = param(0.0)
    a0: float = param(0.0)

    def target(self, t: float) -> float:
        if callable(self.e_target):
            return float(self.e_target(t))
        return float(self.e_target)


def simulate_loop(params: FeedbackParams, seed: int = 0) -> list[tuple]:
    """Integrate the loop for `horizon` steps: horizon+1 states (t, O, A, gamma, eps).

    Each step is one RK4 step of dO/dt = phi_gain*A, dA/dt = gamma*(E - O),
    then the noise kick (drawn from `seed`'s stream), then the gamma update.
    """
    dt, phi, theta = params.dt, params.phi_gain, params.theta_meta
    hdt, dt6 = 0.5 * dt, dt / 6.0
    varying = callable(params.e_target)
    noise = None
    if params.noise_sd > 0:
        noise = make_generator(seed).standard_normal(params.horizon).tolist()
        scale = params.noise_sd * math.sqrt(dt)
    o, a, gamma = params.o0, params.a0, params.gamma0
    t = 0.0
    e = e_mid = e_end = params.target(t)
    eps = e - o
    traj = [(t, o, a, gamma, eps)]
    for k in range(params.horizon):
        if varying:
            e_mid, e_end = params.target(t + hdt), params.target(t + dt)
        k1o, k1a = phi * a, gamma * (e - o)
        k2o, k2a = phi * (a + hdt * k1a), gamma * (e_mid - (o + hdt * k1o))
        k3o, k3a = phi * (a + hdt * k2a), gamma * (e_mid - (o + hdt * k2o))
        k4o, k4a = phi * (a + dt * k3a), gamma * (e_end - (o + dt * k3o))
        o = o + dt6 * (k1o + 2 * k2o + 2 * k3o + k4o)
        a = a + dt6 * (k1a + 2 * k2a + 2 * k3a + k4a)
        if noise is not None:
            o += scale * noise[k]
        t = (k + 1) * dt
        if not (math.isfinite(o) and math.isfinite(a)):
            raise NumericError(f"loop diverged at step {k + 1}: O={o}, A={a}")
        if varying:
            e = params.target(t)
        eps_new = e - o
        # exact discrete telescope of d(gamma)/dt = theta * d(eps^2)/dt
        try:
            gamma = max(0.0, gamma + theta * (eps_new**2 - eps**2))
        except OverflowError:
            raise NumericError(f"loop diverged at step {k + 1}: O={o}, eps^2 overflows") from None
        eps = eps_new
        traj.append((t, o, a, gamma, eps))
    return traj


def _tail_max_abs_eps(traj: Sequence[tuple]) -> float:
    """max |eps| over the second half of the trajectory."""
    return max(abs(eps) for _, _, _, _, eps in traj[len(traj) // 2 :])


def loop_diagnostics(traj: Sequence[tuple], settle_threshold: float = 1e-2) -> dict:
    """Energy drift, tail error, and a settled flag for a trajectory.

    energy_drift tracks eps^2 + A^2 against its initial value; it is a
    meaningful conservation check only for the undamped unit-gain case
    (theta=0, noise=0, gamma=1, phi_gain=1).
    """
    if not traj:
        raise DomainError("trajectory must be non-empty")
    _, _, a0, _, eps0 = traj[0]
    e0 = eps0**2 + a0**2
    drift = max(abs(eps**2 + a**2 - e0) for _, _, a, _, eps in traj)
    max_abs_eps = _tail_max_abs_eps(traj)
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
    traj = simulate_loop(scenario, seed)
    checks = {}
    if scenario.check_settled:
        settled = _tail_max_abs_eps(traj) < scenario.settle_threshold
        checks["settled_as_expected"] = settled != scenario.expect_unstable
    return (["t", "O", "A", "gamma", "eps"], traj), checks
