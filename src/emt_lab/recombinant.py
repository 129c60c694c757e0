"""Recombinant idea space: combinatorial magnitudes and the
distribution-agnostic extreme-value law.

The count of potential recombinations Z = 2^(A^phi) overflows floats long
before A is interesting, so all reporting stays in log2 space. The
extreme-value law states that K * survival(max of K draws) converges to
Exp(1) for any continuous tail family; at finite K it is exactly K times
the minimum of K standard uniforms, and both facts are exercised here with
analytic survival functions per family. The lognormal survival is the
standard normal one at x = (log z - mu) / sigma, 0.5 * erfc(x / sqrt(2))
from libm, one call per value; its inverse survival takes the normal
quantile from `statistics.NormalDist` (Wichura's AS 241).

`draw_max_statistic` fans the replicates out over one thread per CPU the
process may use: numpy's bulk draws and reductions run without the GIL, and
each replicate draws from its own stream, so the m-values and the artifact
bytes do not depend on that count or on the schedule. A replicate draws
through numpy's fill kernel where one exists (`standard_exponential` and
`random` for the exponential and uniform families) and multiplies only its
maximum by the family's scale (`TailDistribution.sample_max`), which is the
maximum of `sample`'s scaled draws, bit for bit. A worker seeds its
replicates' generators `_SEED_BLOCK` at a time in one vectorized pass
(`make_generators`); what stays serial per replicate, under the GIL, is
building its PCG64 and Generator objects (about 2-3 us) and the calls into
numpy. Peak draw memory is workers x k_draws x 8 bytes, one draw array per
worker (pareto briefly holds a second, the power of its uniforms).
Maxima that overflow to inf or underflow to 0 raise NumericError: no m-value is left.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._params import Params, check_number, param
from ._rng import make_generators
from .errors import DomainError, InputError, NumericError

FORMAT = "json"

_SQRT2 = math.sqrt(2.0)

# Each supported tail family and the defaults of its parameters.
_FAMILIES = {
    "exponential": {"rate": 1.0},
    "uniform": {"b": 1.0},
    "pareto": {"xm": 1.0, "shape": 2.0},
    "lognormal": {"mu": 0.0, "sigma": 1.0},
    "weibull": {"scale": 1.0, "shape": 1.5},
}


@dataclass(frozen=True)
class TailDistribution:
    """A continuous tail family with analytic survival and inverse survival.

    Supported families and parameter keys:
      exponential(rate)         survival exp(-rate*z)
      uniform(b)                survival 1 - z/b on (0, b)
      pareto(xm, shape)         survival (xm/z)^shape for z >= xm
      lognormal(mu, sigma)      survival of exp(N(mu, sigma^2))
      weibull(scale, shape)     survival exp(-(z/scale)^shape)

    The normal family has no closed-form inverse survival and is deliberately
    not supported.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InputError(
                f"unsupported tail family {self.family!r}; "
                f"supported: {', '.join(_FAMILIES)}"
            )
        defaults = _FAMILIES[self.family]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise InputError(
                f"unknown parameter(s) {sorted(unknown)} for family {self.family!r}"
            )
        merged = {**defaults, **self.params}
        for key, val in merged.items():
            check_number(f"{self.family} parameter {key}", val)
            if key != "mu" and val <= 0:
                raise DomainError(f"{self.family} parameter {key} must be > 0, got {val}")
        object.__setattr__(self, "params", merged)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        p = self.params
        if self.family == "exponential":
            return rng.exponential(1.0 / p["rate"], size)
        if self.family == "uniform":
            return rng.uniform(0.0, p["b"], size)
        if self.family == "pareto":
            # inverse-survival sampling: z = xm * u^(-1/shape)
            return p["xm"] * rng.random(size) ** (-1.0 / p["shape"])
        if self.family == "lognormal":
            return rng.lognormal(p["mu"], p["sigma"], size)
        return p["scale"] * rng.weibull(p["shape"], size)

    def sample_max(self, rng: np.random.Generator, size: int) -> float:
        """The maximum of `sample(rng, size)`, as the same double.

        The draws come from the same stream, through numpy's fill kernels
        where one exists, and the family's scale multiplies only the maximum:
        for a finite scale s > 0 a correctly rounded product is monotone in
        its operand, so max(fl(s*x_i)) = fl(s*max(x_i)), overflow included.
        A subnormal rate's scale of inf leaves the maximum non-finite either way.
        """
        p = self.params
        if self.family == "exponential":
            # exponential(scale) is scale * standard_exponential per element
            return (1.0 / p["rate"]) * rng.standard_exponential(size).max()
        if self.family == "uniform":
            # uniform(0, b) is 0.0 + b * u per element, and 0.0 + b*u == b*u for u >= 0
            return p["b"] * rng.random(size).max()
        if self.family == "pareto":
            return p["xm"] * (rng.random(size) ** (-1.0 / p["shape"])).max()
        if self.family == "lognormal":
            return rng.lognormal(p["mu"], p["sigma"], size).max()
        return p["scale"] * rng.weibull(p["shape"], size).max()

    def survival(self, z: np.ndarray) -> np.ndarray:
        """Upper tail probability P(Z > z), computed in a tail-safe form."""
        z = np.asarray(z, dtype=float)
        p = self.params
        if self.family == "exponential":
            return np.exp(-p["rate"] * z)
        if self.family == "uniform":
            return np.clip(1.0 - z / p["b"], 0.0, 1.0)
        if self.family == "pareto":
            return np.where(z <= p["xm"], 1.0, (p["xm"] / z) ** p["shape"])
        if self.family == "lognormal":
            with np.errstate(divide="ignore"):  # log(0) = -inf, where survival is 1
                x = (np.log(z) - p["mu"]) / p["sigma"]
            sf = [0.5 * math.erfc(v / _SQRT2) for v in x.ravel().tolist()]
            return np.array(sf).reshape(x.shape)
        return np.exp(-((z / p["scale"]) ** p["shape"]))

    def inverse_survival(self, u: float) -> float:
        """The z with survival(z) = u, for u in (0, 1)."""
        if not 0.0 < u < 1.0:
            raise DomainError(f"survival level must lie in (0, 1), got {u}")
        p = self.params
        if self.family == "exponential":
            return -math.log(u) / p["rate"]
        if self.family == "uniform":
            return p["b"] * (1.0 - u)
        if self.family == "pareto":
            return p["xm"] * u ** (-1.0 / p["shape"])
        if self.family == "lognormal":
            from statistics import NormalDist  # Wichura AS 241; off the run path

            return math.exp(p["mu"] - p["sigma"] * NormalDist().inv_cdf(u))
        return p["scale"] * (-math.log(u)) ** (1.0 / p["shape"])


# Bounds on a scenario's size, checked at validation. Each worker holds a
# k_draws x 8-byte draw array (pareto briefly two), so 10**7 draws is 80 MB
# per worker. The draw budget is about a minute on a 2-core Xeon VM, which
# draws the bundled exponential 2 x 10**7 in 0.12-0.14 s. The m-values
# are replicates x 8 bytes, more as a JSON list, and each replicate costs a
# few microseconds beyond its draws: 10**6 of them take seconds and MBs.
MAX_K_DRAWS = 10**7
MAX_DRAWS = 10**10
MAX_REPLICATES = 10**6


@dataclass(frozen=True)
class EvtRunConfig(Params):
    """Monte Carlo configuration for the extreme-value law."""

    k_draws: int = param(1000, min=1, max=MAX_K_DRAWS)
    replicates: int = param(2000, min=1, max=MAX_REPLICATES)
    ks_threshold: float = param(0.05, exmin=0)


def log2_combinations(a_stock: float, phi_access: float) -> float:
    """log2 of the number of accessible idea combinations, i.e. A^phi.

    The count itself is 2^(A^phi) including the null set; it is never
    materialized.
    """
    if a_stock < 0:
        raise DomainError(f"knowledge stock must be >= 0, got {a_stock}")
    if not 0 < phi_access <= 1:
        raise DomainError(f"phi_access must lie in (0, 1], got {phi_access}")
    return a_stock**phi_access


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# Replicates a worker seeds per vectorized pass: enough to spread the pass's
# fixed cost, and a constant, so the generators a worker holds at once do not
# grow with `replicates`.
_SEED_BLOCK = 256


def draw_max_statistic(dist: TailDistribution, cfg: EvtRunConfig, seed: int = 0) -> np.ndarray:
    """Per-replicate m = K * survival(max of K draws).

    Replicate i uses the stream derived from (seed, i), so the result is
    independent of any batching or execution order: worker w of n draws
    replicates w, w + n, w + 2n, ... into the shared maxima, seeding them
    `_SEED_BLOCK` at a time, and an exception in a worker reaches the caller
    unchanged.
    """
    maxima = np.empty(cfg.replicates)

    def draw(share: range) -> None:
        with np.errstate(over="ignore", divide="ignore"):  # per thread; inf raises below
            for start in range(0, len(share), _SEED_BLOCK):
                block = share[start:start + _SEED_BLOCK]
                for i, rng in zip(block, make_generators(seed, block)):
                    maxima[i] = dist.sample_max(rng, cfg.k_draws)

    workers = min(_cpus(), cfg.replicates)
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(draw, [range(w, cfg.replicates, workers) for w in range(workers)]))
    if not np.isfinite(maxima).all():
        raise NumericError(f"{dist.family} draws overflow: a replicate's maximum is not finite "
                           f"(parameters {dist.params})")
    if not maxima.min() > 0:  # every m-value would be K
        raise NumericError(f"{dist.family} draws underflow to 0 (parameters {dist.params})")
    return cfg.k_draws * dist.survival(maxima)


def quantile_frontier(dist: TailDistribution, k_draws: int, eps_exp: float) -> float:
    """Deterministic tail quantile: inverse survival at eps_exp / k_draws."""
    if eps_exp <= 0:
        raise DomainError(f"eps_exp must be > 0, got {eps_exp}")
    ratio = eps_exp / k_draws
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"eps_exp/k_draws must lie in (0, 1), got {ratio}")
    return dist.inverse_survival(ratio)


def evt_diagnostics(m_values: np.ndarray, ks_threshold: float = 0.05) -> dict:
    """Mean and one-sample KS distance of m-values against Exp(1)."""
    m = np.asarray(m_values, dtype=float)
    if m.size == 0:
        raise DomainError("m_values must be non-empty")
    m_sorted = np.sort(m)
    cdf = 1.0 - np.exp(-m_sorted)
    n = m.size
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    ks = float(max(np.max(upper), np.max(lower)))
    return {
        "mean": float(np.mean(m)),
        "ks_distance": ks,
        "pass": ks < ks_threshold,
    }


@dataclass(frozen=True)
class Scenario(EvtRunConfig):
    """One EVT check of a tail family."""

    family: str = param("exponential", choices=tuple(_FAMILIES))
    family_params: dict = param({})
    write_m_values: bool = param(False)
    dist: TailDistribution = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.k_draws * self.replicates > MAX_DRAWS:
            raise DomainError(f"k_draws x replicates: {self.k_draws} x {self.replicates} draws "
                              f"are above the budget of {MAX_DRAWS}")
        object.__setattr__(self, "dist", TailDistribution(self.family, dict(self.family_params)))


def run(scenario: Scenario, seed: int):
    """The EVT report, with the m-values if asked for, plus the KS check."""
    m = draw_max_statistic(scenario.dist, scenario, seed)
    diag = evt_diagnostics(m, scenario.ks_threshold)
    report = {"family": scenario.family, "K": scenario.k_draws, "replicates": scenario.replicates,
              "mean": diag["mean"], "ks": diag["ks_distance"], "pass": diag["pass"]}
    if scenario.write_m_values:
        report["m_values"] = m.tolist()
    return report, {"ks_pass": diag["pass"]}
