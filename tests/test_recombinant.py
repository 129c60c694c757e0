"""Combinatorial magnitudes and the distribution-agnostic EVT law."""

import json
import math
import os
import subprocess
import sys
import threading
from itertools import combinations
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emt_lab import DomainError, InputError, NumericError, recombinant
from emt_lab._rng import make_generator
from emt_lab.cli import main
from emt_lab.recombinant import (
    EvtRunConfig,
    Scenario,
    TailDistribution,
    draw_max_statistic,
    evt_diagnostics,
    log2_combinations,
    quantile_frontier,
)

ALL_FAMILIES = [
    TailDistribution("exponential", {"rate": 1.0}),
    TailDistribution("uniform", {"b": 2.0}),
    TailDistribution("pareto", {"xm": 1.0, "shape": 2.5}),
    TailDistribution("lognormal", {"mu": 0.0, "sigma": 0.8}),
    TailDistribution("weibull", {"scale": 1.0, "shape": 1.5}),
]


def test_log2_combinations_values():
    assert log2_combinations(16.0, 0.5) == pytest.approx(4.0)
    assert log2_combinations(0.0, 0.5) == 0.0
    with pytest.raises(DomainError):
        log2_combinations(-1.0, 0.5)
    with pytest.raises(DomainError):
        log2_combinations(1.0, 1.5)


def test_log2_combinations_matches_binomial_sum():
    # 2^n = sum over subset sizes of C(n, a), including the null set
    for n in range(0, 21):
        literal = sum(
            len(list(combinations(range(n), a))) for a in range(n + 1)
        ) if n <= 12 else sum(math.comb(n, a) for a in range(n + 1))
        assert 2.0 ** log2_combinations(float(n), 1.0) == pytest.approx(literal)


def test_unsupported_family_and_bad_params():
    with pytest.raises(InputError):
        TailDistribution("normal")
    with pytest.raises(InputError):
        TailDistribution("exponential", {"rte": 1.0})
    with pytest.raises(DomainError):
        TailDistribution("pareto", {"shape": -1.0})


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: d.family)
def test_survival_inverse_survival_roundtrip(dist):
    for u in (0.9, 0.5, 1e-3, 1e-9):
        z = dist.inverse_survival(u)
        assert float(dist.survival(z)) == pytest.approx(u, rel=1e-9)


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: d.family)
def test_m_statistic_mean_matches_exact_finite_k(dist):
    cfg = EvtRunConfig(k_draws=100, replicates=2000)
    m = draw_max_statistic(dist, cfg, 31)
    assert m.shape == (2000,)
    # m =d K * min of K uniforms, exact mean K/(K+1), var < 1
    exact_mean = 100 / 101
    sigma = float(np.std(m, ddof=1)) / math.sqrt(cfg.replicates)
    assert abs(float(np.mean(m)) - exact_mean) < 3 * sigma


LOGNORMALS = [TailDistribution("lognormal", {"mu": mu, "sigma": sigma})
              for mu, sigma in ((0.0, 0.8), (-3.0, 2.5), (5.0, 0.1))]


@pytest.mark.parametrize("dist", LOGNORMALS, ids=lambda d: str(d.params))
def test_lognormal_survival_matches_scipys_normal_survival(dist):
    # libm's erfc against scipy's cephes ndtr, down to survivals of 1e-300
    norm = pytest.importorskip("scipy.stats").norm
    mu, sigma = dist.params["mu"], dist.params["sigma"]
    z = np.exp(mu + sigma * np.linspace(-37.5, 37.5, 30001))
    expected = norm.sf((np.log(z) - mu) / sigma)
    normal = expected > 1e-300
    np.testing.assert_allclose(dist.survival(z)[normal], expected[normal], rtol=1e-12, atol=0)


@pytest.mark.parametrize("dist", LOGNORMALS, ids=lambda d: str(d.params))
def test_lognormal_inverse_survival_matches_scipys_normal_isf(dist):
    # Wichura's AS 241 (statistics.NormalDist) against scipy's cephes ndtri.
    # The normal quantiles agree to 1e-14 relative. exp turns a difference d
    # in its argument a into a relative difference d, and each side rounds a
    # to within an ulp, so the values agree to 1e-14 * (1 + |a|).
    norm = pytest.importorskip("scipy.stats").norm
    mu, sigma = dist.params["mu"], dist.params["sigma"]
    levels = np.concatenate([np.logspace(-300, -1e-16, 2001), np.linspace(1e-6, 1 - 1e-6, 2001)])
    isf = norm.isf(levels)
    quantiles = [-NormalDist().inv_cdf(u) for u in levels.tolist()]
    np.testing.assert_allclose(quantiles, isf, rtol=1e-14, atol=0)
    arg = mu + sigma * isf
    got = np.array([dist.inverse_survival(u) for u in levels.tolist()])
    assert np.all(np.abs(got - np.exp(arg)) <= 1e-14 * (1 + np.abs(arg)) * np.exp(arg))


OVERFLOWING_FAMILIES = {
    "exponential": {"rate": 1e-310},
    "weibull": {"shape": 1e-310},
    "pareto": {"shape": 1e-310},
    "lognormal": {"mu": 1e300, "sigma": 1e300},
}


@pytest.mark.parametrize("family", OVERFLOWING_FAMILIES)
def test_cli_draws_that_overflow_are_a_runtime_error(family, tmp_path, capsys):
    """Maxima that overflow to inf are a model failure (exit 3), not a KS
    distance of 1 reported as a failed check."""
    path = tmp_path / "evt.json"
    path.write_text(json.dumps({"name": "evt", "module": "evt", "params": {
        "family": family, "family_params": OVERFLOWING_FAMILIES[family],
        "k_draws": 10, "replicates": 20}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(f"runtime error: {family} draws overflow")
    assert not (tmp_path / "out" / "evt.json").exists()


def test_k_equals_one_is_uniform():
    dist = TailDistribution("exponential")
    cfg = EvtRunConfig(k_draws=1, replicates=5000)
    m = draw_max_statistic(dist, cfg, 7)
    assert np.all((m >= 0) & (m <= 1))
    assert abs(float(np.mean(m)) - 0.5) < 3 * (1 / math.sqrt(12 * 5000))


def test_quantile_frontier_closed_forms():
    expo = TailDistribution("exponential", {"rate": 1.0})
    assert quantile_frontier(expo, math.e, 1.0) == pytest.approx(1.0)
    uni = TailDistribution("uniform", {"b": 1.0})
    assert quantile_frontier(uni, 4, 1.0) == pytest.approx(0.75)
    with pytest.raises(DomainError):
        quantile_frontier(expo, 1, 2.0)


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: d.family)
def test_quantile_frontier_residual_and_monotonicity(dist):
    eps = 0.7
    # Bounded support (uniform) loses relative tail precision to float
    # cancellation below survival ~ 1e-7; unbounded tails go much deeper.
    ks = (2, 5, 10, 100, 10_000, 10**6)
    if dist.family != "uniform":
        ks += (10**8, 10**12)
    prev = None
    for k in ks:
        z = quantile_frontier(dist, k, eps)
        assert k * float(dist.survival(z)) == pytest.approx(eps, rel=1e-9)
        if prev is not None:
            assert z >= prev
        prev = z


def test_diagnostics_on_exact_plotting_positions():
    n = 1000
    m = -np.log(1 - (np.arange(1, n + 1) - 0.5) / n)
    diag = evt_diagnostics(m)
    assert diag["ks_distance"] < 1.0 / n
    assert diag["pass"]


def test_diagnostics_degenerate_and_empty():
    diag = evt_diagnostics(np.full(100, 0.3))
    assert not diag["pass"]
    assert diag["ks_distance"] > 0.2
    with pytest.raises(DomainError):
        evt_diagnostics(np.array([]))


def test_run_evt_deterministic():
    scenario = Scenario(family="weibull", k_draws=500, replicates=200)
    assert recombinant.run(scenario, 11) == recombinant.run(scenario, 11)
    dist = TailDistribution("weibull")
    cfg = EvtRunConfig(k_draws=500, replicates=200)
    m1 = draw_max_statistic(dist, cfg, 11)
    m2 = draw_max_statistic(dist, cfg, 11)
    assert np.array_equal(m1, m2)


def test_run_draws_once_with_m_values(monkeypatch):
    calls = []
    draw = recombinant.draw_max_statistic

    def counting(*args):
        calls.append(args[1:])
        return draw(*args)

    monkeypatch.setattr(recombinant, "draw_max_statistic", counting)
    scenario = Scenario(family="pareto", k_draws=50, replicates=40, write_m_values=True)
    report, checks = recombinant.run(scenario, seed=3)
    # positional, as bench/tracing.py's counter reads args[1]
    assert calls == [(scenario, 3)]
    assert report["m_values"] == draw(scenario.dist, EvtRunConfig(50, 40), 3).tolist()
    assert checks == {"ks_pass": report["pass"]}


def _serial_draw_max_statistic(dist, cfg, seed=0):
    """The per-replicate loop on one thread, the maximum of `sample`'s scaled
    draws: the oracle of the fan-out and of `sample_max`."""
    maxima = np.empty(cfg.replicates)
    for i in range(cfg.replicates):
        maxima[i] = np.max(dist.sample(make_generator(seed, i), cfg.k_draws))
    if not np.isfinite(maxima).all():
        raise NumericError(f"{dist.family} draws overflow: a replicate's maximum is not finite "
                           f"(parameters {dist.params})")
    if not maxima.min() > 0:
        raise NumericError(f"{dist.family} draws underflow to 0 (parameters {dist.params})")
    return cfg.k_draws * dist.survival(maxima)


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("cpus", [None, 3, 16], ids=["affinity", "3_cpus", "16_cpus"])
@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: d.family)
def test_fan_out_is_bitwise_the_serial_loop(dist, cpus, monkeypatch):
    # 16 threads on fewer cores, switching every microsecond: a lost or
    # misplaced write into the shared maxima would break the equality.
    if cpus is not None:
        _set_cpus(monkeypatch, cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for replicates in (1, 2, 3, 257):
            cfg = EvtRunConfig(k_draws=64, replicates=replicates)
            got = draw_max_statistic(dist, cfg, 2**64 - 3)
            assert got.tobytes() == _serial_draw_max_statistic(dist, cfg, 2**64 - 3).tobytes()
    finally:
        sys.setswitchinterval(interval)


# Scale parameters whose products round: non-powers of two, ints, powers of
# two far from 1, and values near the ends of the double range, where a
# scaled maximum overflows or a scale is subnormal.
SCALES = (st.floats(1e-3, 1e3) | st.integers(1, 10**6)
          | st.sampled_from([3, 7, 0.1, 0.7, 1.3, 2.5, 1e-12, 10**300])
          | st.integers(-1000, 1000).map(lambda k: 2.0**k)
          | st.sampled_from([1e300, 1.7e308, 1e-300, 2.0**-1070, 5e-324]))
SHAPES = st.floats(0.05, 20) | st.sampled_from([1, 2, 1e-310])
FAMILY_PARAMS = st.one_of(
    st.builds(lambda rate: ("exponential", {"rate": rate}), SCALES),
    st.builds(lambda b: ("uniform", {"b": b}), SCALES),
    st.builds(lambda xm, shape: ("pareto", {"xm": xm, "shape": shape}), SCALES, SHAPES),
    st.builds(lambda mu, sigma: ("lognormal", {"mu": mu, "sigma": sigma}),
              st.floats(-700, 700), st.floats(1e-3, 30)),
    st.builds(lambda scale, shape: ("weibull", {"scale": scale, "shape": shape}), SCALES, SHAPES),
)


def _outcome(draw_max, dist, cfg, seed):
    try:
        return draw_max(dist, cfg, seed).tobytes()
    except NumericError as err:
        return str(err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing draws warn
@settings(max_examples=300, deadline=None)
@example(("pareto", {"xm": 3, "shape": 2.5}), 300, 40, 5)
@example(("weibull", {"scale": 0.7, "shape": 1.5}), 1, 1, 2**64 - 1)
@example(("pareto", {"xm": 1.7e308, "shape": 2.5}), 50, 3, 1)
@example(("exponential", {"rate": 5e-324}), 10, 2, 0)
@example(("uniform", {"b": 5e-324}), 1, 40, 0)
@given(family_params=FAMILY_PARAMS, k_draws=st.integers(1, 300), replicates=st.integers(1, 40),
       seed=st.integers(0, 2**64 - 1))
def test_draw_max_statistic_is_the_serial_loop_at_any_scale(family_params, k_draws, replicates,
                                                             seed):
    """`sample_max` scales each maximum once where `sample` scales every draw:
    the same m-value bytes, or the same NumericError text when a maximum
    overflows or underflows to 0."""
    dist = TailDistribution(*family_params)
    cfg = EvtRunConfig(k_draws=k_draws, replicates=replicates)
    got = _outcome(draw_max_statistic, dist, cfg, seed)
    assert got == _outcome(_serial_draw_max_statistic, dist, cfg, seed)


def test_cpus_fall_back_to_the_cpu_count(monkeypatch):
    _set_cpus(monkeypatch, 5)
    assert recombinant._cpus() == 5
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert recombinant._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert recombinant._cpus() == 1


def _failing_sample(exc):
    def sample(self, rng, size):
        raise exc

    return sample


def test_a_worker_exception_reaches_the_caller_unchanged(monkeypatch):
    _set_cpus(monkeypatch, 4)
    monkeypatch.setattr(TailDistribution, "sample_max", _failing_sample(ValueError("no draws")))
    before = threading.active_count()
    with pytest.raises(ValueError) as err:
        draw_max_statistic(TailDistribution("exponential"), EvtRunConfig(10, 9))
    assert type(err.value) is ValueError and str(err.value) == "no draws"
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 4])
def test_cli_exit_on_a_worker_exception_is_the_serial_one(cpus, monkeypatch, tmp_path, capsys):
    _set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(TailDistribution, "sample_max", _failing_sample(NumericError("no draws")))
    path = tmp_path / "evt.json"
    path.write_text(json.dumps({"name": "evt", "module": "evt", "params": {"replicates": 9}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    # nothing else on stderr: no traceback, no "Exception in thread" report
    assert capsys.readouterr().err == "runtime error: no draws\n"


@pytest.mark.parametrize("family, family_params, k_draws, message", [
    ("lognormal", {"mu": -1000, "sigma": 1}, 100,
     "lognormal draws underflow to 0 (parameters {'mu': -1000, 'sigma': 1})"),
    ("uniform", {"b": 5e-324}, 1, "uniform draws underflow to 0 (parameters {'b': 5e-324})"),
    ("weibull", {"scale": 1e308, "shape": 0.5}, 100,
     "weibull draws overflow: a replicate's maximum is not finite "
     "(parameters {'scale': 1e+308, 'shape': 0.5})"),
    ("pareto", {"xm": 1.7e308, "shape": 2.5}, 100,
     "pareto draws overflow: a replicate's maximum is not finite "
     "(parameters {'xm': 1.7e+308, 'shape': 2.5})"),
], ids=["lognormal_underflow", "uniform_underflow", "weibull_overflow", "pareto_overflow"])
def test_cli_draws_out_of_range_are_one_line_runtime_errors(family, family_params, k_draws,
                                                            message, tmp_path):
    # In a fresh interpreter, with numpy's warnings printed as they are by
    # default: pytest would capture them in-process. Maxima of 0 would make
    # every m-value K, a failed KS check rather than an error.
    path = tmp_path / "evt.json"
    path.write_text(json.dumps({"name": "evt", "module": "evt", "params": {
        "family": family, "family_params": family_params, "k_draws": k_draws,
        "replicates": 50}}))
    src = str(Path(recombinant.__file__).parent.parent)
    env = {**os.environ, "PYTHONWARNINGS": "default",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "emt_lab.cli", "run", str(path),
                           "--out", str(tmp_path / "out")], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"runtime error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_lognormal_survival_at_zero_is_one_without_a_warning():
    # log(0) is -inf, where the normal survival is 1; the RuntimeWarning
    # filter turns a divide-by-zero warning into a failure here
    assert TailDistribution("lognormal").survival(np.array([0.0, 1.0])).tolist() == [1.0, 0.5]


def test_an_evt_run_leaves_no_thread_behind(monkeypatch, tmp_path):
    _set_cpus(monkeypatch, 4)
    path = tmp_path / "evt.json"
    path.write_text(json.dumps({"name": "evt", "module": "evt", "params": {"replicates": 50}}))
    before = threading.active_count()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) in (0, 1)
    assert threading.active_count() == before


@pytest.mark.parametrize("seed", [-5, 2**64 + 7])
def test_master_seeds_outside_64_bits_draw_as_the_serial_loop(seed):
    # derive_stream masks the master seed to 64 bits; the block seeding must too
    dist = TailDistribution("exponential")
    cfg = EvtRunConfig(k_draws=32, replicates=300)
    assert (draw_max_statistic(dist, cfg, seed).tobytes()
            == _serial_draw_max_statistic(dist, cfg, seed).tobytes())


@pytest.mark.parametrize("cpus", [1, 3, 16])
def test_seeding_block_edges_draw_as_the_serial_loop(cpus, monkeypatch):
    # around one and two seeding blocks per worker, and a share that ends mid-block
    _set_cpus(monkeypatch, cpus)
    dist = TailDistribution("pareto", {"xm": 1.0, "shape": 2.5})
    for replicates in (255, 256, 257, 513):
        cfg = EvtRunConfig(k_draws=8, replicates=replicates)
        got = draw_max_statistic(dist, cfg, 99)
        assert got.tobytes() == _serial_draw_max_statistic(dist, cfg, 99).tobytes(), replicates
