"""Knowledge accumulation, uncertainty collapse, and ideation-cost dynamics.

Models a research domain whose epistemic uncertainty decays as the knowledge
stock grows, with a hard regime switch once the stock crosses a threshold:
above it only a small residual uncertainty remains and discovery turns from
deep uncertainty into computable risk. AI capability enters twice, as a
multiplier on knowledge growth and as the driver of the collapsing marginal
cost of producing a new idea.

Alongside runs a pool of problems: they emerge at rate eta and aligned
research resolves them at rate R. `run` keeps the complexities of the open
problems as a list in creation order, plus the count and a running sum of
every problem ever created, added in creation order: resolved problems still
set the mean complexity of arrivals. Its knowledge recurrence stays in local
floats. `ProblemPool`, `research_output`, `step_problem_pool` and
`step_knowledge` are the one-step API over the same definitions: the draw
order, the solve probabilities and the Euler update are each written once, in
private helpers that both `run` and that API call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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

    def __post_init__(self):
        super().__post_init__()
        if not self.eps_resid < self.theta0:
            raise DomainError("eps_resid must satisfy 0 <= eps_resid < theta0")


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
    """Dynamic pool of problems with emergence rate and alignment weighting,
    the state of the one-step API (`research_output`, `step_problem_pool`).

    `problems` holds the complexity of every problem ever created, in
    creation order; `open` marks the unresolved ones (all, if not given).
    Rebuilt every step, it does not check its rates; Scenario does.
    `run` keeps the open ones as a list and a running sum of all instead."""

    problems: np.ndarray = field(default_factory=lambda: np.empty(0))
    open: np.ndarray | None = None
    eta_rate: float = EpistemicParams.eta_rate
    lambda_align: float = EpistemicParams.lambda_align
    eps_floor: float = EpistemicParams.eps_floor

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


def research_output(pool: ProblemPool, a_cap: float) -> ResearchOutput:
    """Real-time research output over the open problems.

    Per-problem solve probability is capability over complexity (plus the
    irreducible-uncertainty floor), capped at 1; the output rate is the
    alignment-weighted sum.
    """
    if a_cap < 0:
        raise DomainError(f"capability must be >= 0, got {a_cap}")
    raw, probs, r = _research(pool.problems[pool.open].tolist(), a_cap,
                              pool.lambda_align, pool.eps_floor)
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


def _pool_draws(rng, items: list, probs: list, lambda_align: float, dt: float,
                eta_rate: float, mean_c: float):
    """One step's draws; returns (the `items` that stay open, the list of the
    arrivals' complexities).

    `items` and `probs` run over the open problems in creation order, and
    `mean_c` is the mean complexity of every problem created so far. Draws
    come in a fixed order: one uniform per open problem, then the arrival
    count, then one exponential of mean `mean_c` per arrival.
    """
    # A uniform draw is below 1, so comparing it with lambda * pi_i * dt
    # caps that probability at 1.
    kept = [x for x, u, p in zip(items, rng.random(len(probs)).tolist(), probs)
            if u >= lambda_align * p * dt]
    n_new = rng.poisson(eta_rate * dt)
    return kept, rng.exponential(mean_c, n_new).tolist() if n_new else []


def step_problem_pool(
    pool: ProblemPool,
    output: ResearchOutput,
    dt: float,
    rng: np.random.Generator,
) -> Tuple[ProblemPool, bool]:
    """One stochastic step of pool dynamics; returns (new pool, surplus flag).

    ``output`` is the current research_output of the pool. Arrivals are
    Poisson with mean eta*dt. Each open problem resolves independently with
    probability lambda * pi_i * dt (capped at 1), so the expected net change
    matches (eta - R) * dt. Surplus means resolution outpaces emergence:
    R > eta. New problems draw their complexity from an exponential whose
    mean matches every problem created so far, summed left to right (1.0 for
    an empty pool).
    Draws come in a fixed order: one uniform per open problem, in creation
    order, then the arrival count, then one exponential per arrival.
    """
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    open_ids = np.flatnonzero(pool.open)
    if len(output.solve_probs) != open_ids.size:
        raise InputError(
            f"solve_probs length {len(output.solve_probs)} does not match "
            f"{open_ids.size} open problems"
        )
    problems = pool.problems
    kept, arrivals = _pool_draws(rng, open_ids.tolist(), output.solve_probs.tolist(),
                                 pool.lambda_align, dt, pool.eta_rate,
                                 _left_sum(problems.tolist()) / problems.size
                                 if problems.size else 1.0)
    is_open = np.zeros(problems.size + len(arrivals), dtype=bool)
    is_open[kept] = True
    is_open[problems.size:] = True
    new_pool = replace(pool, problems=np.concatenate((problems, arrivals)), open=is_open)
    return new_pool, output.r > pool.eta_rate


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


# Bounds on a scenario's size, checked at validation, measured on a 2-core
# Xeon VM. A step costs about 14 us of CPU and 460 bytes of rows and columns,
# so about 15 s and 460 MB of RSS at the horizon bound. The pool holds at most
# the n_problems it starts with plus about eta_rate x dt x horizon arrivals,
# about 110 bytes each, so about 550 MB at MAX_POOL. Each step scans the open
# pool at 250-290 ns per problem. If no problem resolves, a run scans
# horizon x (n_problems + eta_rate x dt x horizon / 2) problems, so the budget
# MAX_POOL_WORK on horizon x (n_problems + eta_rate x dt x horizon) is about a
# minute when arrivals fill the pool and about two and a half when the
# starting pool does.
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
    complexity_mean: float = param(2.0, exmin=0)

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


# The CSV cells of a bool, indexed by it.
_FLAG = ("false", "true")


def run(scenario: Scenario, seed: int):
    """Trajectory of the domain and its pool, plus the mode-transition checks.

    The same trajectory as stepping `initial_state`, `step_problem_pool`,
    `step_knowledge` and `research_output`, without their per-step objects.
    """
    s = scenario
    dt, eta, lam, eps = s.dt, s.eta_rate, s.lambda_align, s.eps_floor
    rng_pool = make_generator(seed, 1)
    open_c = make_generator(seed, 0).exponential(s.complexity_mean, s.n_problems).tolist()
    # the count and sum of every problem ever created, added in creation order
    n_created, total = len(open_c), _left_sum(open_c)
    state = initial_state(s, a_cap=s.a0, p0=s.p0)
    t, p, theta, c, pi, inverted, a_cap = (state.t, state.p, state.theta, state.c,
                                           state.pi, state.inverted, state.a_cap)
    _, probs, r = _research(open_c, a_cap, lam, eps)
    rows = [[t, p, theta, c, pi, _FLAG[inverted], r, len(open_c), _FLAG[r > eta]]]
    for _ in range(s.horizon):
        surplus = r > eta
        open_c, arrivals = _pool_draws(rng_pool, open_c, probs, lam, dt, eta,
                                       total / n_created if n_created else 1.0)
        total = _left_sum(arrivals, total)
        n_created += len(arrivals)
        open_c += arrivals
        p = _stock_step(p, a_cap, s, dt)
        theta = _uncertainty(p, s)
        pi = discovery_probability(theta)
        t += dt
        # capability grows between steps; refresh the cost-side quantities
        a_cap = a_cap + s.a_growth * dt
        c = marginal_ideation_cost(s.c0, s.alpha_cost, a_cap)
        inverted = c < s.theta_star
        _, probs, r = _research(open_c, a_cap, lam, eps)
        rows.append([t, p, theta, c, pi, _FLAG[inverted], r, len(open_c), _FLAG[surplus]])
    # theta follows the threshold law on both sides of p_bar, stated apart from _uncertainty
    transition_ok = all(row[2] == (s.eps_resid if row[1] >= s.p_bar else s.theta0 / (1.0 + row[1]))
                        for row in rows)
    pi_monotone = all(b[4] >= a[4] - 1e-15 for a, b in zip(rows, rows[1:]))
    header = ["t", "P", "theta", "C", "pi", "inverted", "R", "pool_size", "surplus"]
    # The columns are the tuples of zip(*rows): as array('d') the float columns
    # cost 5-7% of a run, and the pool's lists outweigh the rows in memory.
    columns = list(zip(*rows))
    return (header, columns), {"mode_transition": transition_ok, "pi_monotone": pi_monotone}
