"""Three-layer cybernetic alignment loop.

Layer 1 measures the alignment error eps = E - O between the experiential
target and ideation output. Layer 2 steers the alignment signal A toward the
error at rate gamma and feeds it into the output through the gain phi(A).
Layer 3 is meta-learning: gamma itself adapts to whether the squared error is
shrinking. The deterministic core integrates with RK4; Gaussian noise, when
enabled, enters Euler-Maruyama style with sqrt(dt) scaling.

`trajectory_columns` is the hot path of a feedback run. The RK4 step is
inlined in its loop; the noise kicks for all steps are drawn and scaled in one
batch (the same doubles as one draw and one product per step); the t column is
k * dt from one numpy product (the same doubles as Python's `k * dt`); and
the O, A, gamma and eps columns are allocated once, horizon+1 doubles each,
and each step stores its state into them by index. The run hands the five
`array('d')` columns, 8 bytes a value, to the writer as its CSV columns. With
`theta_meta` 0 the gamma column is constant, and the writer formats it once.
`simulate_loop` gives the same trajectory as rows.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
    # A step costs about 3.5-6 us of CPU to run and write and 40-48 B of memory (five
    # 8-byte columns, and the noise kicks if noise_sd > 0) on a 2-core Xeon VM whose
    # speed drifts: at the bound, in a fresh process, 3.5-6 s and 74-81 MB of RSS
    # (ru_maxrss), interpreter included.
    horizon: int = param(6284, min=1, max=10**6)
    o0: float = param(0.0)
    a0: float = param(0.0)

    def target(self, t: float) -> float:
        if callable(self.e_target):
            return float(self.e_target(t))
        return float(self.e_target)


def trajectory_columns(params: FeedbackParams, seed: int = 0) -> list[array]:
    """Integrate the loop for `horizon` steps: the columns t, O, A, gamma, eps
    of horizon+1 states, each an array('d').

    Each step is one RK4 step of dO/dt = phi_gain*A, dA/dt = gamma*(E - O),
    then the noise kick (drawn from `seed`'s stream), then the gamma update.
    """
    dt, phi, theta, horizon = params.dt, params.phi_gain, params.theta_meta, params.horizon
    hdt, dt6 = 0.5 * dt, dt / 6.0
    isfinite = math.isfinite
    target = params.target
    varying = callable(params.e_target)
    kicks = None
    if params.noise_sd > 0:
        # the same doubles as scale * z per step: a float product rounds once either way
        scale = params.noise_sd * math.sqrt(dt)
        with np.errstate(over="ignore"):  # an infinite kick ends the loop below as diverged
            kicks = array("d", (scale * make_generator(seed).standard_normal(horizon)).tobytes())
    n = horizon + 1
    # k * dt for each k, as int * float rounds it: every k <= 10^6 is exact as a double
    times = np.arange(n, dtype=float)
    times *= dt
    t_col = array("d", [0.0]) * n
    memoryview(t_col).cast("B")[:] = memoryview(times).cast("B")
    del times  # not held through the loop
    o_col, a_col, gamma_col, eps_col = (array("d", [0.0]) * n for _ in range(4))
    o, a, gamma = params.o0, params.a0, params.gamma0
    t = 0.0
    e = e_mid = e_end = target(t)
    eps = e - o
    o_col[0], a_col[0], gamma_col[0], eps_col[0] = o, a, gamma, eps
    for k in range(1, n):
        if varying:
            e_mid, e_end = target(t + hdt), target(t + dt)
        k1o, k1a = phi * a, gamma * (e - o)
        k2o, k2a = phi * (a + hdt * k1a), gamma * (e_mid - (o + hdt * k1o))
        k3o, k3a = phi * (a + hdt * k2a), gamma * (e_mid - (o + hdt * k2o))
        k4o, k4a = phi * (a + dt * k3a), gamma * (e_end - (o + dt * k3o))
        o = o + dt6 * (k1o + 2.0 * k2o + 2.0 * k3o + k4o)
        a = a + dt6 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        if kicks is not None:
            o += kicks[k - 1]
        if not (isfinite(o) and isfinite(a)):
            raise NumericError(f"loop diverged at step {k}: O={o}, A={a}")
        if varying:
            t = t_col[k]
            e = target(t)
        eps_new = e - o
        # exact discrete telescope of d(gamma)/dt = theta * d(eps^2)/dt, clamped at 0
        # as max(0.0, g) is: a NaN or a -0.0 gives 0.0
        try:
            gamma = gamma + theta * (eps_new**2 - eps**2)
        except OverflowError:
            raise NumericError(f"loop diverged at step {k}: O={o}, eps^2 overflows") from None
        gamma = gamma if gamma > 0.0 else 0.0
        eps = eps_new
        o_col[k] = o
        a_col[k] = a
        gamma_col[k] = gamma
        eps_col[k] = eps
    return [t_col, o_col, a_col, gamma_col, eps_col]


def simulate_loop(params: FeedbackParams, seed: int = 0) -> list[tuple]:
    """The trajectory of `trajectory_columns` as rows: horizon+1 states
    (t, O, A, gamma, eps), each a tuple of floats."""
    return list(zip(*trajectory_columns(params, seed)))


def _tail_max_abs(values) -> float:
    """max |v| over the second half of `values`."""
    return max(map(abs, values[len(values) // 2 :]))


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
    max_abs_eps = _tail_max_abs([eps for *_, eps in traj])
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
    """The trajectory's columns, plus the settling check if asked for."""
    columns = trajectory_columns(scenario, seed)
    checks = {}
    if scenario.check_settled:
        settled = _tail_max_abs(columns[4]) < scenario.settle_threshold
        checks["settled_as_expected"] = settled != scenario.expect_unstable
    return (["t", "O", "A", "gamma", "eps"], columns), checks
