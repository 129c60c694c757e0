"""Cybernetic loop against the harmonic-oscillator closed form."""

import json
import math
import tracemalloc

import pytest

from emt_lab import DomainError, NumericError
from emt_lab.cli import main
from emt_lab.feedback import FeedbackParams, Scenario, loop_diagnostics, run, simulate_loop
from emt_lab.runner import _write_artifact

TWO_PI = 2.0 * math.pi


def conservative_params(dt=1e-3, horizon=None, **kw):
    if horizon is None:
        horizon = int(round(TWO_PI / dt))
    return FeedbackParams(
        gamma0=1.0, theta_meta=0.0, phi_gain=1.0, noise_sd=0.0,
        e_target=1.0, dt=dt, horizon=horizon, o0=0.0, a0=0.0, **kw,
    )


def test_harmonic_closed_form():
    traj = simulate_loop(conservative_params())
    # O(t) = 1 - cos t, A(t) = sin t
    for t, o, a, _, _ in traj[:: len(traj) // 20]:
        assert o == pytest.approx(1.0 - math.cos(t), abs=1e-6)
        assert a == pytest.approx(math.sin(t), abs=1e-6)
    _, o_pi, _, _, _ = traj[int(round(math.pi / 1e-3))]
    assert abs(o_pi - 2.0) < 1e-6


def test_energy_conservation():
    traj = simulate_loop(conservative_params())
    diag = loop_diagnostics(traj)
    assert diag["energy_drift"] < 1e-6


def test_decoupled_when_gamma_zero():
    params = FeedbackParams(gamma0=0.0, phi_gain=2.0, o0=1.0, a0=3.0,
                            dt=0.01, horizon=100)
    traj = simulate_loop(params)
    t, o, a, _, _ = traj[-1]
    assert a == pytest.approx(3.0)
    assert o == pytest.approx(1.0 + 2.0 * 3.0 * t, rel=1e-12)


def test_zero_error_fixed_point():
    params = FeedbackParams(e_target=0.5, o0=0.5, a0=0.0, dt=0.01, horizon=200)
    traj = simulate_loop(params)
    diag = loop_diagnostics(traj)
    assert diag["max_abs_eps"] == 0.0
    assert diag["settled"]
    assert all(o == 0.5 for _, o, _, _, _ in traj)


def test_gamma_never_negative():
    params = FeedbackParams(gamma0=0.1, theta_meta=-5.0, dt=0.01, horizon=2000)
    traj = simulate_loop(params)
    assert all(gamma >= 0.0 for _, _, _, gamma, _ in traj)


def test_gamma_telescope_exact():
    theta = 0.3
    params = FeedbackParams(gamma0=1.0, theta_meta=theta, dt=0.05, horizon=50)
    traj = simulate_loop(params)
    for (_, _, _, gamma_prev, eps_prev), (_, _, _, gamma, eps) in zip(traj, traj[1:]):
        expected = max(0.0, gamma_prev + theta * (eps**2 - eps_prev**2))
        assert gamma == pytest.approx(expected, abs=1e-15)


def test_divergent_tuning_flagged_unstable():
    params = FeedbackParams(gamma0=1.0, theta_meta=8.0, dt=0.01, horizon=2000)
    traj = simulate_loop(params)
    diag = loop_diagnostics(traj, settle_threshold=0.01)
    assert not diag["settled"]


@pytest.mark.parametrize("expect_unstable", [False, True])
@pytest.mark.parametrize("horizon", [1, 2, 2000])
@pytest.mark.parametrize("noise_sd", [0.0, 0.05], ids=["noiseless", "noisy"])
def test_run_settle_check_matches_loop_diagnostics(noise_sd, horizon, expect_unstable):
    loop = dict(noise_sd=noise_sd, theta_meta=0.4, dt=0.01, horizon=horizon,
                check_settled=True, expect_unstable=expect_unstable)
    (_, columns), _ = run(Scenario(**loop), seed=3)
    tail_max = loop_diagnostics(list(zip(*columns)))["max_abs_eps"]
    # at a threshold equal to the tail's max |eps| the strict < says not settled
    for threshold in (tail_max, math.nextafter(tail_max, math.inf), 1e-2, 10.0):
        (_, columns), checks = run(Scenario(**loop, settle_threshold=threshold), seed=3)
        settled = loop_diagnostics(list(zip(*columns)), threshold)["settled"]
        assert settled == (threshold > tail_max)
        assert checks == {"settled_as_expected": settled != expect_unstable}


def test_noise_determinism_and_sqrt_dt_scaling():
    params = FeedbackParams(noise_sd=0.5, dt=0.01, horizon=500)
    t1 = simulate_loop(params, 9)
    t2 = simulate_loop(params, 9)
    assert all(
        a[1] == b[1] and a[2] == b[2] for a, b in zip(t1, t2)
    )
    other = simulate_loop(params, 10)
    assert any(a[1] != b[1] for a, b in zip(t1, other))


def test_divergence_raises_with_step_index():
    params = FeedbackParams(gamma0=1e150, phi_gain=1e150, dt=10.0, horizon=50)
    with pytest.raises(NumericError) as err:
        simulate_loop(params)
    assert str(err.value) == "loop diverged at step 1: O=-inf, A=-inf"


@pytest.mark.parametrize("params, message", [
    # eps^2 overflows while O and A are finite
    (dict(o0=1e160, gamma0=1e147, phi_gain=1e-300, dt=1.0, horizon=3),
     "loop diverged at step 1: O=1e+160, eps^2 overflows"),
    # eps^2 would overflow too, but A is non-finite already, and that is checked first
    (dict(o0=1e160, gamma0=1e148, phi_gain=1e-300, dt=1.0, horizon=3),
     "loop diverged at step 1: O=1e+160, A=-inf"),
    (dict(e_target=lambda t: math.inf, horizon=5), "loop diverged at step 1: O=nan, A=nan"),
    (dict(e_target=lambda t: math.inf if t > 0.0015 else 1.0, horizon=5),
     "loop diverged at step 2: O=1.9999993333334027e-06, A=inf"),
], ids=["eps2_overflow", "a_checked_first", "target_inf", "target_inf_later"])
def test_divergence_message_names_the_step_and_the_value(params, message):
    with pytest.raises(NumericError) as err:
        simulate_loop(FeedbackParams(**params))
    assert str(err.value) == message


def test_noisy_run_and_write_peak_memory_at_horizon_1e5(tmp_path):
    """Five columns of 8-byte doubles, not a tuple of float objects per row:
    the traced peak of a 10^5-step noisy run plus its write stays under 8 MB
    (24 MB with one tuple per row)."""
    scenario = Scenario(noise_sd=0.05, theta_meta=0.4, dt=1e-3, horizon=10**5)
    tracemalloc.start()
    try:
        artifact, _ = run(scenario, seed=3)
        _write_artifact(artifact, tmp_path / "fb.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_param_validation():
    with pytest.raises(DomainError):
        FeedbackParams(dt=0.0)
    with pytest.raises(DomainError):
        FeedbackParams(gamma0=-1.0)
    with pytest.raises(DomainError):
        loop_diagnostics([])


@pytest.mark.parametrize("params", [
    {"theta_meta": 8.0, "dt": 0.12, "horizon": 2000},
    {"phi_gain": 1e8, "o0": 1e-300, "horizon": 3000},
], ids=["meta_learning", "high_gain"])
def test_cli_squared_error_overflow_is_a_runtime_error(params, tmp_path, capsys):
    # O is still finite when (E - O)^2 overflows in the gamma update
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "t", "module": "feedback", "params": params}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: loop diverged at step ") and "eps^2 overflows" in err
    assert not (tmp_path / "out").exists()
