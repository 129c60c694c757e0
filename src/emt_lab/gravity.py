"""Experiential gravity field, need-to-sector flows, and the
flywheel-vs-aligned production comparison.

Needs exert gravitational pull on productive sectors; flows follow an
inverse-square law in epistemic distance. The flywheel comparison pits a
"blind" economy that keeps allocating output by its initial shares against
an "aligned" one that re-targets toward the strongest current flows, and
tracks the social potential energy U = sum(N_i^2) under both.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._params import Params, build, param
from .errors import DomainError, InputError, NumericError
from .growth import cobb_douglas

FORMAT = "csv"

# Elements per block of flywheel_compare's need trajectories.
_BLOCK = 2**16


@dataclass(frozen=True)
class Production(Params):
    """The Cobb-Douglas inputs of a `production` object, with its defaults."""

    a: float = param(1.0, min=0)
    k: float = param(1.0, min=0)
    l: float = param(1.0, min=0)
    alpha: float = param(0.5, exmin=0, exmax=1)


@dataclass(frozen=True)
class NeedsState(Params):
    """Need intensities, sector potentials, the distance matrix and the
    responsiveness of flows to them. Each array has its default's
    dimensions: `d_mat` is a list of rows even for one need."""

    n_vec: np.ndarray = param([5.0, 4.0, 3.0, 2.0, 1.0])  # need intensities, length n
    # epistemic distances, n x m, all > 0
    d_mat: np.ndarray = param([[1.0, 2.0], [2.0, 1.0], [1.0, 1.5], [2.5, 2.0], [1.5, 1.0]])
    p_vec: np.ndarray = param([1.0, 1.0])                 # sector potentials, length m
    g_resp: float = param(1.0, min=0)                     # responsiveness coefficient G(t)

    def __post_init__(self):
        super().__post_init__()
        if self.d_mat.shape != (self.n_vec.size, self.p_vec.size):
            raise InputError(f"distance matrix shape {self.d_mat.shape} does not match "
                             f"{self.n_vec.size} needs x {self.p_vec.size} sectors")
        if np.any(self.n_vec < 0) or np.any(self.p_vec < 0):
            raise DomainError("need intensities and potentials must be >= 0")
        if np.any(self.d_mat <= 0):
            raise DomainError("all distances must be > 0 (singularity)")

    @property
    def nearest_distance(self) -> np.ndarray:
        """Per-need binding distance D_i = min_j D_ij."""
        return self.d_mat.min(axis=1)


def need_gravity(n_i: float, d_i: float, alpha_g: float, beta_g: float) -> float:
    """Gravitational influence of one need: N^alpha / D^beta."""
    if d_i <= 0:
        raise DomainError(f"distance must be > 0, got {d_i} (singularity)")
    if n_i < 0:
        raise DomainError(f"need intensity must be >= 0, got {n_i}")
    return n_i**alpha_g / d_i**beta_g


def gravity_field(state: NeedsState, alpha_g: float, beta_g: float) -> float:
    """Total field: sum of per-need gravities N^alpha / D^beta at the
    nearest-sector distance."""
    d_near = state.nearest_distance
    return float(np.sum(state.n_vec**alpha_g / d_near**beta_g))


def need_sector_flow(state: NeedsState) -> np.ndarray:
    """Flow matrix F_ij = G * N_i * P_j / D_ij^2 (inverse-square law)."""
    return state.g_resp * np.outer(state.n_vec, state.p_vec) / state.d_mat**2


def potential_energy(n_vec: np.ndarray) -> float:
    """Social potential energy: sum of squared need intensities."""
    n = np.asarray(n_vec, dtype=float)
    if n.size == 0:
        return 0.0
    return float(np.sum(n**2))


def _flow_shares(state: NeedsState, n_vec: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Allocation shares proportional to the row sums of the flow matrix
    (need_sector_flow's) at need intensities n_vec, `d2` being state.d_mat**2.

    If total flow is zero (all needs met or G=0), fall back to a uniform
    split so the allocation stays a valid distribution.
    """
    rows = np.add.reduce(state.g_resp * (n_vec[:, None] * state.p_vec) / d2, axis=1)
    total = np.add.reduce(rows)
    if total <= 0:
        return np.full(n_vec.size, 1.0 / n_vec.size)
    return rows / total


@dataclass(frozen=True)
class FlywheelResult:
    """Potential-energy and coverage trajectories for both allocation modes,
    and the output both produce each step."""

    u_blind: np.ndarray
    u_aligned: np.ndarray
    y: float
    coverage_blind: np.ndarray
    coverage_aligned: np.ndarray


def production_output(production: dict) -> float:
    """Cobb-Douglas output Y = a*k^alpha*l^(1-alpha) of a `production` object."""
    return cobb_douglas(**vars(build(Production, production, "production.")))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # a non-finite U raises below
def flywheel_compare(
    state0: NeedsState,
    production: dict,
    horizon: int,
    kappa: float,
    coverage_eps: float = 1e-3,
) -> FlywheelResult:
    """Run the blind and aligned economies side by side for `horizon` steps.

    Each step both economies produce the same Cobb-Douglas output
    Y = a*k^alpha*l^(1-alpha) and split it across needs: the blind economy
    by shares frozen at t=0, the aligned one by current flow-row shares.
    Needs decay by kappa times the allocation, clamped at zero. Trajectories
    of U = sum(N^2) (length horizon+1, including t=0) are returned, plus
    weighted coverage with a need counted satisfied below `coverage_eps`.

    The blind economy's step is the same every round and at least 0, so its
    needs are one running difference, clamped afterwards: a need the clamp
    sets to 0 would have stayed 0. Steps run in blocks of rows, so memory
    does not grow with horizon x needs.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    if kappa < 0:
        raise DomainError(f"kappa must be >= 0, got {kappa}")
    y = production_output(production)
    weights, total = _coverage_weights(state0.n_vec)
    ky = kappa * y
    d2 = state0.d_mat**2
    step_blind = ky * _flow_shares(state0, state0.n_vec, d2)

    n = state0.n_vec.size
    block = max(2, _BLOCK // n)
    blind, aligned = np.empty((block, n)), np.empty((block, n))
    blind[0] = aligned[0] = state0.n_vec
    u_b, u_a, cov_b, cov_a = (np.empty(horizon + 1) for _ in range(4))
    start = 0  # the step of row 0
    while True:
        rows = min(block, horizon + 1 - start)
        blind[1:rows] = step_blind
        np.subtract.accumulate(blind[:rows], axis=0, out=blind[:rows])
        np.maximum(0.0, blind[:rows], out=blind[:rows])
        n_aligned = aligned[0]
        for out in aligned[1:rows]:
            n_aligned = np.maximum(0.0, n_aligned - ky * _flow_shares(state0, n_aligned, d2),
                                   out=out)
        for needs, u, cov in ((blind, u_b, cov_b), (aligned, u_a, cov_a)):
            u[start:start + rows] = (needs[:rows] ** 2).sum(axis=1)
            cov[start:start + rows] = _coverage_path(needs[:rows] <= coverage_eps, weights, total)
        start += rows - 1
        if start == horizon:
            break
        blind[0], aligned[0] = blind[rows - 1], aligned[rows - 1]
    if not (np.isfinite(u_b).all() and np.isfinite(u_a).all()):
        raise NumericError("flywheel: the flows or the potential energy U leave the float range")
    return FlywheelResult(u_blind=u_b, u_aligned=u_a, y=y, coverage_blind=cov_b,
                          coverage_aligned=cov_a)


def _coverage_weights(weights) -> tuple:
    """Weights as floats and their total, checked to be coverage weights."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise DomainError("weights must be >= 0")
    total = w.sum()
    if total <= 0:
        raise DomainError("weights must not all be zero")
    return w, total


def _coverage_path(satisfied: np.ndarray, w: np.ndarray, total) -> np.ndarray:
    """coverage_operator of each row of `satisfied`, taken once per run of
    equal rows, each as w[mask].sum() / total: a sum of the selected weights
    alone rounds as one row's call does."""
    changed = np.empty(len(satisfied), dtype=bool)
    changed[0] = True
    np.any(satisfied[1:] != satisfied[:-1], axis=1, out=changed[1:])
    values = np.array([w[mask].sum() / total for mask in satisfied[changed]])
    return values[np.cumsum(changed) - 1]


def coverage_operator(satisfied: np.ndarray, weights: np.ndarray) -> float:
    """Weighted fraction of needs satisfied, in [0, 1]."""
    mask = np.asarray(satisfied, dtype=bool)
    w = np.asarray(weights, dtype=float)
    if mask.shape != w.shape:
        raise InputError(f"mask shape {mask.shape} != weights shape {w.shape}")
    w, total = _coverage_weights(w)
    return float(w[mask].sum() / total)


# The budget on horizon x needs x sectors, checked at validation. On a 2-core
# Xeon VM a flywheel step costs 2.6-3.3 ns of CPU per need-sector pair from
# 100 needs x 100 sectors up to 1000 x 1000 (best of 3), so the budget is
# about a minute (52-66 s). Below that size the step's fixed cost dominates
# (about 7 us at 5 x 2, 11 us at 30 x 30), and the horizon bound caps it.
MAX_FLYWHEEL_WORK = 2 * 10**10


@dataclass(frozen=True)
class Scenario(NeedsState):
    """One flywheel comparison of the blind and aligned economies."""

    production: dict = param(vars(Production()))
    kappa: float = param(0.05, min=0)
    # A step of the default 5-need, 2-sector economy, its two CSV rows
    # included, costs about 12 us of CPU on a 2-core Xeon VM (10-14 us at
    # horizon 10^5), so about 6 s at the bound.
    horizon: int = param(50, min=1, max=5 * 10**5)
    coverage_eps: float = param(1e-3, exmin=0)
    check_dominance: bool = param(False)

    def __post_init__(self):
        super().__post_init__()
        needs, sectors = self.n_vec.size, self.p_vec.size
        if self.horizon * needs * sectors > MAX_FLYWHEEL_WORK:
            raise DomainError(f"horizon x needs x sectors: {self.horizon} x {needs} x {sectors} "
                              f"need-sector steps are above the budget of {MAX_FLYWHEEL_WORK}")
        production_output(self.production)  # fails on unknown keys or bad inputs
        if not self.n_vec.any():  # the coverage weights
            raise DomainError("n_vec: need intensities must not all be zero")


def _interleaved(blind: np.ndarray, aligned: np.ndarray) -> array:
    """blind[0], aligned[0], blind[1], ... as an array('d')."""
    return array("d", np.column_stack((blind, aligned)).tobytes())


def run(scenario: Scenario, seed: int):
    """Both trajectories, row per (step, mode), plus the dominance check."""
    s = scenario
    res = flywheel_compare(s, s.production, s.horizon, s.kappa, coverage_eps=s.coverage_eps)
    steps = range(s.horizon + 1)
    columns = [list(chain.from_iterable(zip(steps, steps))), ["blind", "aligned"] * len(steps),
               _interleaved(res.u_blind, res.u_aligned),
               _interleaved(res.coverage_blind, res.coverage_aligned),
               array("d", [res.y]) * (2 * len(steps))]
    checks = {}
    if s.check_dominance:
        dominated = bool(np.all(res.u_aligned <= res.u_blind + 1e-12))
        strict_by_end = bool(res.u_aligned[-1] < res.u_blind[-1] - 1e-12)
        checks["aligned_dominance"] = dominated and strict_by_end
    return (["t", "mode", "U", "coverage", "Y"], columns), checks
