"""Knowledge accumulation, uncertainty collapse, and ideation-cost dynamics.

Models a research domain whose epistemic uncertainty decays as the knowledge
stock grows, with a hard regime switch once the stock crosses a threshold:
above it only a small residual uncertainty remains and discovery turns from
deep uncertainty into computable risk. AI capability enters twice, as a
multiplier on knowledge growth and as the driver of the collapsing marginal
cost of producing a new idea.

Alongside runs a pool of problems: they emerge at rate eta and aligned
research resolves them at rate R. The knowledge recurrence never reads the
pool, so `run` makes two passes: the first builds the knowledge columns, the
second the pool's draws and R. It keeps the complexities of the open problems
as a list in creation order, plus the count and a running sum of every
problem ever created, added in creation order: resolved problems still set
the mean complexity of arrivals (`complexity_mean` while none was created).
Once capability exceeds every open complexity, each solve probability is
exactly 1 and R = lambda * n.

The pool draws from one stream of the seed per purpose: stream 0 the
starting complexities, 1 the resolution uniforms, 2 the arrival counts and
3 one standard exponential per arrival, scaled by the mean complexity at its
step. Arrivals never depend on which problems resolve, so two scenarios that
differ only in capability get the same arrivals (common random numbers), and
`run` draws each stream in bulk.
`ProblemPool` (the pool's state), `research_output`, `step_problem_pool` and
`step_knowledge`, which read the rates of an `EpistemicParams`, are the
one-step API over the same definitions: a step's outcome from its draws, the
solve probabilities and the Euler update are each written once, in helpers
that `run` calls too.

`run` hands its CSV columns over as lists, except `theta` and `pi`, which
are `array('d')`: from the first row with P >= p_bar on, each holds one
double (eps_resid and 1 / (1 + eps_resid)), a constant tail that the runner
formats once for all those rows. The other float columns vary to the end,
and a list is iterated without boxing a float per cell.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, islice, repeat
from typing import Optional, Sequence, Tuple

import numpy as np

from ._params import Params, param
from ._rng import make_generator
from .errors import DomainError, InputError, NumericError

FORMAT = "csv"


@dataclass(frozen=True)
class EpistemicParams(Params):
    """Structural parameters of one epistemic domain.

    theta0      baseline uncertainty in the pre-threshold regime (> 0)
    p_bar       knowledge threshold for the mode transition (> 0)
    eps_resid   residual uncertainty once the threshold is crossed
    alpha_prod  ideation productivity in the knowledge growth law
    phi_elast   elasticity of AI capability in knowledge growth
    c0          baseline ideation cost without AI support (> 0)
    alpha_cost  sensitivity of ideation cost to AI capability
    theta_star  inversion threshold on the ideation cost
    lp          research labor allocated to the domain
    eta_rate    emergence rate of new problems in the pool
    lambda_align alignment weight on the pool's research output, in [0, 1]
    eps_floor   irreducible-uncertainty floor added to each complexity (> 0)
    complexity_mean mean complexity of the first problems created (> 0)
    """

    theta0: float = param(1.0, exmin=0)
    p_bar: float = param(10.0, exmin=0)
    eps_resid: float = param(0.01, min=0)
    alpha_prod: float = param(1.0, min=0)
    phi_elast: float = param(1.0, min=0)
    c0: float = param(1.0, exmin=0)
    alpha_cost: float = param(1.0, min=0)
    theta_star: float = param(0.1, exmin=0)
    lp: float = param(1.0, min=0)
    eta_rate: float = param(1.0, min=0)
    lambda_align: float = param(1.0, min=0, max=1)
    eps_floor: float = param(1e-6, exmin=0)
    complexity_mean: float = param(2.0, exmin=0)

    def __post_init__(self):
        super().__post_init__()
        if not self.eps_resid < self.theta0:
            raise DomainError("eps_resid must satisfy 0 <= eps_resid < theta0")


# Bounds on a scenario's size, checked at validation, measured on a 2-core
# Xeon VM whose speed drifts. A step costs 7-10 us of CPU and about 270 bytes
# of columns, so about 10 s and 300 MB of RSS at the horizon bound. The pool
# holds at most the n_problems it starts with plus about eta_rate x dt x
# horizon arrivals, about 120 bytes each at the peak of a step (45 while
# capability exceeds every open complexity), so about 650 MB at MAX_POOL.
# Each step scans the open pool at 80-110 ns per problem while capability
# exceeds every open complexity, and at 300-380 ns otherwise. If no problem
# resolves, a run scans horizon x (n_problems + eta_rate x dt x horizon / 2)
# problems, so with no step capped the budget MAX_POOL_WORK on horizon x
# (n_problems + eta_rate x dt x horizon) is about a minute and a half when
# arrivals fill the pool and about three when the starting pool does.
MAX_POOL = 5 * 10**6
MAX_POOL_WORK = 5 * 10**8


@dataclass(frozen=True)
class Scenario(EpistemicParams):
    """One run of the domain: `horizon` steps of `dt` from stock p0, with
    capability a0 growing by a_growth per unit time and a problem pool."""

    a0: float = param(1.0, min=0)
    a_growth: float = param(0.5, min=0)
    p0: float = param(0.0, min=0)
    dt: float = param(0.1, exmin=0)
    horizon: int = param(200, min=1, max=10**6)
    n_problems: int = param(10, min=0, max=MAX_POOL)

    def __post_init__(self):
        super().__post_init__()
        pool = self.n_problems + self.eta_rate * self.dt * self.horizon
        sizes = f"{self.n_problems} + {self.eta_rate} x {self.dt} x {self.horizon} problems"
        if pool > MAX_POOL:
            raise DomainError(f"n_problems + eta_rate x dt x horizon: {sizes} "
                              f"are above the pool bound of {MAX_POOL}")
        if self.horizon * pool > MAX_POOL_WORK:
            raise DomainError(f"horizon x (n_problems + eta_rate x dt x horizon): "
                              f"{self.horizon} steps x ({sizes}) are above the budget of "
                              f"{MAX_POOL_WORK}")


@dataclass(frozen=True)
class EpistemicState:
    """Snapshot of the domain at one instant."""

    t: float
    p: float
    theta: float
    c: float
    a_cap: float
    pi: float
    inverted: bool


def discovery_probability(theta: float) -> float:
    """Probability of successful discovery at uncertainty level ``theta``.

    1/(1 + theta); approaches certainty as uncertainty vanishes.
    """
    if theta < 0:
        raise DomainError(f"uncertainty must be >= 0, got {theta}")
    return 1.0 / (1.0 + theta)


def marginal_ideation_cost(c0: float, alpha_cost: float, a_cap: float) -> float:
    """Marginal cost of one new idea given AI capability ``a_cap``.

    c0 / (1 + alpha_cost * a_cap): strictly decreasing in capability when
    alpha_cost > 0, constant otherwise.
    """
    if c0 <= 0:
        raise DomainError(f"baseline cost must be > 0, got {c0}")
    if alpha_cost < 0:
        raise DomainError(f"cost sensitivity must be >= 0, got {alpha_cost}")
    if a_cap < 0:
        raise DomainError(f"capability must be >= 0, got {a_cap}")
    return c0 / (1.0 + alpha_cost * a_cap)


def _uncertainty(p: float, params: EpistemicParams) -> float:
    # Threshold boundary P == p_bar belongs to the post-threshold branch.
    if p >= params.p_bar:
        return params.eps_resid
    return params.theta0 / (1.0 + p)


def _state(params: EpistemicParams, t: float, p: float, a_cap: float) -> EpistemicState:
    """The state at time t with stock p and capability a_cap."""
    theta = _uncertainty(p, params)
    c = marginal_ideation_cost(params.c0, params.alpha_cost, a_cap)
    return EpistemicState(t=t, p=p, theta=theta, c=c, a_cap=a_cap,
                          pi=discovery_probability(theta), inverted=c < params.theta_star)


def initial_state(params: EpistemicParams, a_cap: float = 0.0, p0: float = 0.0) -> EpistemicState:
    """Consistent state at t = 0 for a given capability level."""
    return _state(params, 0.0, p0, a_cap)


def _stock_step(p: float, a_cap: float, params: EpistemicParams, dt: float) -> float:
    """The knowledge stock after one explicit-Euler step of length ``dt``."""
    try:
        p_new = p + params.alpha_prod * a_cap**params.phi_elast * params.lp * dt
    except OverflowError:  # a float power that overflows raises instead of giving inf
        # a_cap > 1 here, so with alpha_prod 0 the growth term is a zero of alpha_prod's sign
        p_new = p + params.alpha_prod * params.lp * dt if params.alpha_prod == 0 else math.inf
    if not math.isfinite(p_new):
        raise NumericError(f"knowledge stock p became non-finite: {p_new}")
    return p_new


def step_knowledge(state: EpistemicState, params: EpistemicParams, dt: float) -> EpistemicState:
    """Advance the knowledge stock by one explicit-Euler step of length ``dt``.

    Updates uncertainty, discovery probability, ideation cost and the
    inversion flag consistently with the new stock. Capability is held
    constant across the step; scenarios that grow A(t) update it between
    steps.
    """
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    return _state(params, state.t + dt, _stock_step(state.p, state.a_cap, params, dt),
                  state.a_cap)


@dataclass
class ProblemPool:
    """The pool's state in the one-step API (`research_output`,
    `step_problem_pool`), whose rates come from an `EpistemicParams`.

    `problems` holds the complexity of every problem ever created, in
    creation order; `open` marks the unresolved ones (all, if not given).
    `run` keeps the open ones as a list and a running sum of all instead."""

    problems: np.ndarray = field(default_factory=lambda: np.empty(0))
    open: np.ndarray | None = None

    def __post_init__(self):
        self.problems = np.asarray(self.problems, dtype=float)
        if self.open is None:
            self.open = np.ones(self.problems.shape, dtype=bool)
        self.open = np.asarray(self.open, dtype=bool)
        if self.problems.ndim != 1 or self.open.shape != self.problems.shape:
            raise InputError("problems and open must be 1-d arrays of one length")
        if self.problems.min(initial=0.0) < 0:
            raise DomainError("problem complexity must be >= 0")


@dataclass(frozen=True)
class ResearchOutput:
    """Output rate and per-open-problem solve probabilities."""

    r: float
    solve_probs: np.ndarray
    clamped: int  # how many raw ratios exceeded 1 and were capped


def research_output(pool: ProblemPool, params: EpistemicParams, a_cap: float) -> ResearchOutput:
    """Real-time research output over the open problems.

    Per-problem solve probability is capability over complexity (plus the
    irreducible-uncertainty floor `params.eps_floor`), capped at 1; the
    output rate is their sum weighted by `params.lambda_align`.
    """
    if a_cap < 0:
        raise DomainError(f"capability must be >= 0, got {a_cap}")
    raw, probs, r = _research(pool.problems[pool.open].tolist(), a_cap,
                              params.lambda_align, params.eps_floor)
    return ResearchOutput(r=r, solve_probs=np.array(probs, dtype=float),
                          clamped=sum(x > 1.0 for x in raw))


def _research(open_c: list, a_cap: float, lambda_align: float, eps_floor: float):
    """(raw ratios, solve probabilities, R) over the open complexities `open_c`."""
    raw = [a_cap / (c + eps_floor) for c in open_c]
    probs = [1.0 if x > 1.0 else x for x in raw]  # a NaN stays, as in np.minimum
    return raw, probs, lambda_align * _left_sum(probs)


def _left_sum(values, total: float = 0.0) -> float:
    """`total` plus `values` added left to right, the same on every Python:
    np.sum adds pairwise and the builtin sum compensates from 3.12 (gh-100425)."""
    for x in values:
        total += x
    return total


def _pool_draws(items: list, uniforms, thresholds, exps, mean_c: float):
    """One step's outcome from its draws: (the `items` that stay open, the
    list of the arrivals' complexities).

    `items` runs over the open problems in creation order, `uniforms` over
    their resolution uniforms and `thresholds` over their resolution
    thresholds lambda * pi_i * dt. `exps` holds one standard exponential per
    arrival and `mean_c` is the mean complexity of every problem created so
    far: an arrival's complexity `mean_c * e` is numpy's `exponential(mean_c)`
    bit for bit.
    """
    # A uniform draw is below 1, so comparing it with lambda * pi_i * dt
    # caps that probability at 1. zip takes no uniform past the last item.
    kept = [x for x, u, th in zip(items, uniforms, thresholds) if u >= th]
    return kept, [mean_c * e for e in exps]


def pool_streams(seed: int) -> Tuple[np.random.Generator, ...]:
    """The generators of the pool's resolution uniforms, arrival counts and
    arrival draws: streams 1, 2 and 3 of `seed` (stream 0 draws the starting
    complexities)."""
    return tuple(make_generator(seed, i) for i in (1, 2, 3))


# How many values `run` draws from a stream per numpy call. No value depends
# on it: `random(n)` then `random(m)` draws what `random(n + m)` does, and so
# does `standard_exponential`.
_DRAW_BLOCK = 1024


def _blocks(draw):
    """An endless iterator over the values of `draw(_DRAW_BLOCK)`, call after call."""
    return chain.from_iterable(iter(lambda: draw(_DRAW_BLOCK).tolist(), None))


def step_problem_pool(
    pool: ProblemPool,
    output: ResearchOutput,
    params: EpistemicParams,
    dt: float,
    streams: Tuple[np.random.Generator, np.random.Generator, np.random.Generator],
) -> Tuple[ProblemPool, bool]:
    """One stochastic step of pool dynamics; returns (new pool, surplus flag).

    ``output`` is the current research_output of the pool, and the rates
    are those of ``params``. Arrivals are Poisson with mean eta*dt. Each open
    problem resolves independently with probability lambda * pi_i * dt
    (capped at 1), so the expected net change matches (eta - R) * dt. Surplus
    means resolution outpaces emergence: R > eta. New problems draw their
    complexity from an exponential whose mean matches every problem created
    so far, summed left to right (`complexity_mean` for an empty pool).
    ``streams`` are the generators of `pool_streams`. The step draws one
    uniform per open problem, in creation order, from the first, the arrival
    count from the second and one standard exponential per arrival from the
    third: the values `run` draws in bulk from the same streams.
    """
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    open_ids = np.flatnonzero(pool.open)
    if len(output.solve_probs) != open_ids.size:
        raise InputError(
            f"solve_probs length {len(output.solve_probs)} does not match "
            f"{open_ids.size} open problems"
        )
    problems, lam = pool.problems, params.lambda_align
    uniforms, counts, exps = streams
    n_new = counts.poisson(params.eta_rate * dt)
    kept, arrivals = _pool_draws(open_ids.tolist(), uniforms.random(open_ids.size).tolist(),
                                 [lam * p * dt for p in output.solve_probs.tolist()],
                                 exps.standard_exponential(n_new).tolist(),
                                 _left_sum(problems.tolist()) / problems.size
                                 if problems.size else params.complexity_mean)
    is_open = np.zeros(problems.size + len(arrivals), dtype=bool)
    is_open[kept] = True
    is_open[problems.size:] = True
    new_pool = replace(pool, problems=np.concatenate((problems, arrivals)), open=is_open)
    return new_pool, output.r > params.eta_rate


def hamiltonian_value(
    u: float,
    lam1: float,
    lam2: float,
    phi_val: float,
    delta: float,
    k: float,
    gamma_val: float,
) -> float:
    """Current-value Hamiltonian of the ideation planning problem.

    u + lam1 * (phi_val - delta * k) + lam2 * gamma_val, where lam1 prices
    aligned knowledge and lam2 prices AI capability.
    """
    for name, v in (("u", u), ("lam1", lam1), ("lam2", lam2), ("phi_val", phi_val),
                    ("delta", delta), ("k", k), ("gamma_val", gamma_val)):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v}")
    return u + lam1 * (phi_val - delta * k) + lam2 * gamma_val


def inversion_crossing(
    cost_series: Sequence[Tuple[float, float]],
    theta_star: float,
) -> Optional[float]:
    """First sample time at which the ideation cost drops below ``theta_star``.

    Returns None if the cost never crosses. Times must be strictly increasing.
    """
    if not cost_series:
        raise InputError("cost_series must be non-empty")
    times = [t for t, _ in cost_series]
    if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
        raise InputError("cost_series times must be strictly increasing")
    for t, c in cost_series:
        if c < theta_star:
            return t
    return None


# The CSV cells of a bool, indexed by it.
_FLAG = ("false", "true")


def run(scenario: Scenario, seed: int):
    """Trajectory of the domain and its pool, plus the mode-transition checks.

    The same trajectory as stepping `initial_state`, `step_problem_pool` on
    `pool_streams(seed)`, `step_knowledge` and `research_output`, without
    their per-step objects, in two passes. The knowledge pass builds the
    columns that never read the pool; the pool pass then keeps only the draws
    and R. It draws every arrival count in one call and the uniforms and
    arrival draws in blocks of `_DRAW_BLOCK`: the values the one-step API
    draws a step at a time, as numpy gives a stream the same values in one
    call or in many. Once capability exceeds every open complexity, every
    solve probability is exactly 1.0, because IEEE `+` and `/` are monotone:
    R is then lambda * n, the left-to-right sum of n ones, and each threshold
    lambda * 1.0 * dt.
    """
    s = scenario
    dt, eta, lam, eps = s.dt, s.eta_rate, s.lambda_align, s.eps_floor
    # knowledge pass: the same sequential adds as `t += dt`; a step grows the
    # stock with the capability at its start
    t = list(accumulate(repeat(dt, s.horizon), initial=0.0))
    a_caps = list(accumulate(repeat(s.a_growth * dt, s.horizon), initial=s.a0))
    P = list(accumulate(islice(a_caps, s.horizon), lambda p, a: _stock_step(p, a, s, dt),
                        initial=s.p0))
    theta = [_uncertainty(p, s) for p in P]
    pi = [discovery_probability(x) for x in theta]
    C = [marginal_ideation_cost(s.c0, s.alpha_cost, a) for a in a_caps]
    # pool pass: each stream drawn in bulk, the counts in one call
    rng_uniforms, rng_counts, rng_exps = pool_streams(seed)
    uniforms, exps = _blocks(rng_uniforms.random), _blocks(rng_exps.standard_exponential)
    counts = iter(rng_counts.poisson(eta * dt, s.horizon).tolist())
    open_c = make_generator(seed, 0).exponential(s.complexity_mean, s.n_problems).tolist()
    # the count and sum of every problem ever created, added in creation order
    n_created, total = len(open_c), _left_sum(open_c)
    R, sizes = [], []
    for a_cap in a_caps:
        if R:  # a step from the row before
            open_c, arrivals = _pool_draws(open_c, uniforms, thresholds, islice(exps, next(counts)),
                                           total / n_created if n_created else s.complexity_mean)
            total = _left_sum(arrivals, total)
            n_created += len(arrivals)
            open_c += arrivals
        if not open_c or a_cap / (max(open_c) + eps) > 1.0:
            r, thresholds = lam * len(open_c), repeat(lam * 1.0 * dt)
        else:
            probs, r = _research(open_c, a_cap, lam, eps)[1:]
            thresholds = (lam * x * dt for x in probs)
        R.append(r)
        sizes.append(len(open_c))
    # theta follows the threshold law on both sides of p_bar, stated apart from _uncertainty
    checks = {"mode_transition": all(x == (s.eps_resid if p >= s.p_bar else s.theta0 / (1.0 + p))
                                     for p, x in zip(P, theta)),
              "pi_monotone": all(b >= a - 1e-15 for a, b in zip(pi, pi[1:]))}
    header = ["t", "P", "theta", "C", "pi", "inverted", "R", "pool_size", "surplus"]
    # a row's surplus flag is the R of the row before (of its own row at t = 0)
    columns = [t, P, array("d", theta), C, array("d", pi),
               [_FLAG[c < s.theta_star] for c in C], R, sizes,
               [_FLAG[r > eta] for r in chain(R[:1], islice(R, s.horizon))]]
    return (header, columns), checks
