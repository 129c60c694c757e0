"""Alignment-policy toolkit: the subsidy-allocation planner, governance
filter, demanduction selector, exduction retrieval, and recursive
experiential utility.

The planner maximizes alignment-weighted labor supply subject to a budget
on total subsidy spend. Labor responds log-linearly to subsidies, so the
objective is concave and the KKT system has a one-dimensional dual: an
outer root-find on the budget multiplier with an inner per-occupation
root-find for the stationarity condition. Both root-finds are `_brentq`,
Brent's method as scipy's C `brentq` takes it, so the planner needs no
scipy and returns scipy's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._params import Params, build, param
from .errors import ConvergenceError, DomainError, InputError, NumericError

FORMAT = "json"


@dataclass(frozen=True)
class Occupation(Params):
    """One occupation's wage, baseline supply, elasticity, and alignment."""

    w: float = param(exmin=0)
    l_bar: float = param(exmin=0)
    eta: float = param(min=0)
    lambda_align: float = param(min=0)


@dataclass(frozen=True)
class SubsidyProblem(Params):
    """Occupations (Occupation objects or their fields as dicts) plus the
    total subsidy budget."""

    occupations: tuple = param([
        {"w": 1.0, "l_bar": 1.0, "eta": 0.5, "lambda_align": 1.0},
        {"w": 1.0, "l_bar": 2.0, "eta": 1.0, "lambda_align": 1.0},
        {"w": 2.0, "l_bar": 1.0, "eta": 2.0, "lambda_align": 3.0},
    ])
    budget: float = param(2.0, exmin=0)

    def __post_init__(self):
        super().__post_init__()
        if not self.occupations:
            raise InputError("need at least one occupation")
        occs = tuple(o if isinstance(o, Occupation) else build(Occupation, o, f"occupations.{i}.")
                     for i, o in enumerate(self.occupations))
        object.__setattr__(self, "occupations", occs)


@dataclass(frozen=True)
class IdeaRecord:
    """A candidate idea with its experiential utility score."""

    id: int
    u_emt: float
    feasible: bool = True


@dataclass(frozen=True)
class NeedsKnowledgeLink:
    """Needs vector, knowledge-item vectors, and an activation threshold."""

    needs: np.ndarray
    knowledge_items: tuple
    threshold: float

    def __post_init__(self):
        needs = np.asarray(self.needs, dtype=float)
        items = tuple(np.asarray(k, dtype=float) for k in self.knowledge_items)
        for idx, item in enumerate(items):
            if item.shape != needs.shape:
                raise InputError(
                    f"knowledge item {idx} has shape {item.shape}, "
                    f"needs vector has shape {needs.shape}"
                )
        object.__setattr__(self, "needs", needs)
        object.__setattr__(self, "knowledge_items", items)


def labor_supply(occ: Occupation, s: float) -> float:
    """Labor supplied at subsidy s: l_bar * (1 + eta * ln(1 + s/w))."""
    if s < 0:
        raise DomainError(f"subsidy must be >= 0, got {s}")
    return occ.l_bar * (1.0 + occ.eta * math.log(1.0 + s / occ.w))


def _spend_one(occ: Occupation, s: float) -> float:
    """This occupation's contribution to spend: s * L(s)."""
    return s * labor_supply(occ, s)


def _stationarity(occ: Occupation, s: float, mu: float) -> float:
    """Marginal objective minus mu times marginal spend at subsidy s."""
    marg_obj = occ.lambda_align * occ.eta * occ.l_bar / (occ.w + s)
    marg_spend = labor_supply(occ, s) + s * occ.l_bar * occ.eta / (occ.w + s)
    return marg_obj - mu * marg_spend


def _brentq(f, a: float, b: float, xtol: float = 2e-12,
            rtol: float = 8.881784197001252e-16, maxiter: int = 100,
            what: str = "root-find") -> float:
    """A root of f in [a, b] by Brent's method (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 4).

    A line-for-line port of scipy's C `brentq` (`Zeros/brentq.c`), with its
    defaults, so it takes the same steps and returns the same bits as
    `scipy.optimize.brentq`. It stops once the bracket is narrower than
    xtol + rtol * |x|.

    Raises ConvergenceError when f(a) and f(b) have the same sign or after
    `maxiter` iterations, and NumericError when f returns NaN; each message
    begins with `what`, the search that failed.
    """
    def f_of(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise NumericError(f"{what}: the function is NaN at x={x!r}")
        return fx

    xpre, xcur = a, b
    fpre, fcur = f_of(xpre), f_of(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ConvergenceError(f"{what}: f({a!r}) = {fpre!r} and f({b!r}) = {fcur!r} "
                               f"have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        stry = math.nan  # no candidate step: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # inf or NaN in C, which fails the test below
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f_of(xcur)
    raise ConvergenceError(f"{what}: did not converge in {maxiter} iterations",
                           residual=fcur)


def _inner_subsidy(i: int, occ: Occupation, mu: float) -> float:
    """Optimal subsidy for occupation i at multiplier mu (KKT corner or
    interior root of the stationarity condition, which is strictly
    decreasing in s)."""
    what = f"root-find of the subsidy of occupation {i}"
    if _stationarity(occ, 0.0, mu) <= 0.0:
        return 0.0
    hi = occ.w
    while _stationarity(occ, hi, mu) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise ConvergenceError(f"{what}: the bracket exploded")
    return _brentq(lambda s: _stationarity(occ, s, mu), 0.0, hi, xtol=1e-14, what=what)


def _fsum(values, what: str) -> float:
    """math.fsum of `values`; finite values whose sum is past the float range
    are a NumericError naming `what` (math.fsum raises OverflowError)."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise NumericError(f"the {what} leaves the float range") from None


@dataclass(frozen=True)
class SubsidySolution:
    s_star: np.ndarray
    objective: float
    spend: float
    multiplier: float
    note: str = ""


def optimize_subsidies(problem: SubsidyProblem) -> SubsidySolution:
    """KKT solution of the subsidy planner.

    When every occupation has lambda_align * eta = 0 the objective is flat
    and the canonical answer s = 0 is returned with a note. Otherwise the
    objective is strictly increasing in some coordinate, the budget binds,
    and the multiplier solves spend(mu) = B by root-finding (spend is
    continuous and strictly decreasing in mu). Both root-finds run to fixed
    tolerances near machine precision.
    """
    occs = problem.occupations
    if all(o.lambda_align * o.eta == 0 for o in occs):
        s0 = np.zeros(len(occs))
        obj = _fsum((o.lambda_align * labor_supply(o, 0.0) for o in occs), "objective")
        return SubsidySolution(
            s_star=s0, objective=obj, spend=0.0, multiplier=0.0,
            note="objective flat in all subsidies; canonical s = 0",
        )

    def spend_at(mu: float) -> float:
        return _fsum((_spend_one(o, _inner_subsidy(i, o, mu)) for i, o in enumerate(occs)), "spend")

    mu_hi = max(o.lambda_align * o.eta / o.w for o in occs if o.lambda_align * o.eta > 0)
    mu_lo = mu_hi
    while spend_at(mu_lo) < problem.budget:
        mu_lo /= 2.0
        if not 1e-300 <= mu_lo < math.inf:  # an infinite bound, which halving keeps
            raise ConvergenceError("could not bracket the budget multiplier")
    mu = _brentq(lambda m: spend_at(m) - problem.budget, mu_lo, mu_hi,
                 xtol=1e-15, rtol=8.9e-16, maxiter=500, what="root-find of the budget multiplier")
    s_star = np.array([_inner_subsidy(i, o, mu) for i, o in enumerate(occs)])
    spend = _fsum((_spend_one(o, s) for o, s in zip(occs, s_star)), "spend")
    objective = _fsum((o.lambda_align * labor_supply(o, s) for o, s in zip(occs, s_star)), "objective")
    return SubsidySolution(
        s_star=s_star, objective=objective, spend=spend, multiplier=mu
    )


def governance_filter(ideas: Sequence[IdeaRecord], delta_thresh: float) -> list:
    """Feasible ideas scoring strictly above the threshold, in input order."""
    return [i for i in ideas if i.feasible and i.u_emt > delta_thresh]


def demanduct_select(ideas: Sequence[IdeaRecord]) -> int:
    """Id of the highest-scoring feasible idea; ties go to the lowest index."""
    if not ideas:
        raise InputError("ideas must be non-empty")
    feasible = [i for i in ideas if i.feasible]
    if not feasible:
        raise InputError("no feasible ideas to select from")
    best = max(feasible, key=lambda i: i.u_emt)
    # max() returns the first maximal element, i.e. the lowest input index
    return best.id


def exduct(link: NeedsKnowledgeLink) -> list:
    """Indices of knowledge items activated by the needs vector.

    One admissible instantiation of the abstract needs-to-knowledge
    mapping: an item activates when its inner product with the needs
    vector exceeds the threshold.
    """
    return [
        idx
        for idx, item in enumerate(link.knowledge_items)
        if float(np.dot(item, link.needs)) > link.threshold
    ]


def recursive_utility(u_series: Sequence[float], beta: float, u_tail: float = 0.0) -> float:
    """Discounted utility of a finite series with a constant tail.

    U = sum_t beta^t u_t + beta^T * u_tail / (1 - beta).
    """
    if not 0 < beta < 1:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    u = np.asarray(u_series, dtype=float)
    if u.size == 0:
        raise InputError("u_series must be non-empty")
    powers = beta ** np.arange(u.size)
    return float(np.dot(powers, u) + beta ** u.size * u_tail / (1.0 - beta))


@dataclass(frozen=True)
class Scenario(SubsidyProblem):
    """One subsidy plan."""


def run(scenario: Scenario, seed: int):
    """The optimal subsidies, plus a budget-binding check wherever the budget
    has a positive multiplier (complementary slackness)."""
    sol = optimize_subsidies(scenario)
    report = {
        "s_star": [float(s) for s in sol.s_star],
        "objective": sol.objective,
        "spend": sol.spend,
        "multiplier": sol.multiplier,
    }
    if sol.note:
        report["note"] = sol.note
    checks = {}
    if sol.multiplier > 0:
        checks["budget_binds"] = abs(sol.spend - scenario.budget) <= 1e-3 * scenario.budget
    return report, checks
