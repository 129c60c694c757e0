"""Growth engines against closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emt_lab import DomainError, make_generator
from emt_lab.growth import (
    QualityLadderState,
    RomerParams,
    UnifiedParams,
    UnifiedState,
    cobb_douglas,
    composite_innovation,
    free_entry_mu,
    incumbent_value,
    ladder_step,
    quality_index,
    quality_path,
    romer_ideas_step,
    romer_variety_output,
    schumpeter_growth,
    science_production,
    unified_step,
)


def test_cobb_douglas_values():
    assert cobb_douglas(1, 1, 1, 0.5) == 1
    assert cobb_douglas(2, 4, 9, 0.5) == pytest.approx(12.0)
    with pytest.raises(DomainError):
        cobb_douglas(1, 1, 1, 1.5)


@given(
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_cobb_douglas_constant_returns(k, l, alpha):
    y1 = cobb_douglas(1.7, k, l, alpha)
    y3 = cobb_douglas(1.7, 3 * k, 3 * l, alpha)
    assert y3 == pytest.approx(3 * y1, rel=1e-12)


def test_variety_output_single_and_symmetric():
    assert romer_variety_output(1.0, [1.0], 0.5) == pytest.approx(1.0)
    # symmetric allocation: Y = L^(1-a) * n * xbar^a with unit mass per variety
    y = romer_variety_output(4.0, [2.0] * 10, 0.3)
    assert y == pytest.approx(4.0**0.7 * 10 * 2.0**0.3)


def test_love_of_variety():
    # same total intermediate input, more varieties -> more output
    total = 12.0
    y_few = romer_variety_output(1.0, [total / 3] * 3, 0.5)
    y_many = romer_variety_output(1.0, [total / 6] * 6, 0.5)
    assert y_many > y_few
    with pytest.raises(DomainError):
        romer_variety_output(1.0, [], 0.5)


def test_ideas_step_linear_and_exponential():
    lin = RomerParams(phi_r=0.0, delta_r=2.0, l_a=3.0)
    assert romer_ideas_step(5.0, lin, 0.1) == pytest.approx(5.0 + 2.0 * 3.0 * 0.1)
    # phi=1: Euler trajectory approximates a0 * e^(g t)
    exp = RomerParams(phi_r=1.0, delta_r=0.5, l_a=1.0)
    a, dt, steps = 1.0, 1e-4, 10_000
    for _ in range(steps):
        a = romer_ideas_step(a, exp, dt)
    assert a == pytest.approx(math.exp(0.5 * dt * steps), rel=1e-3)
    frozen = RomerParams(l_a=0.0)
    assert romer_ideas_step(2.0, frozen, 0.1) == 2.0


def test_quality_index_and_ladder():
    state = QualityLadderState(qualities=np.array([1.0, 3.0]))
    assert quality_index(state) == pytest.approx(2.0)
    unchanged = ladder_step(state, mu=0.0, lambda_step=2.0, dt=1.0, rng=make_generator(0))
    assert np.array_equal(unchanged.qualities, state.qualities)
    all_up = ladder_step(state, mu=2.0, lambda_step=2.0, dt=1.0, rng=make_generator(0))
    assert np.array_equal(all_up.qualities, 2.0 * state.qualities)


def test_ladder_upgrade_fraction_monte_carlo():
    n = 100_000
    state = QualityLadderState(qualities=np.ones(n))
    stepped = ladder_step(state, mu=0.1, lambda_step=2.0, dt=1.0, rng=make_generator(99))
    frac = np.mean(stepped.qualities > 1.0)
    sigma = math.sqrt(0.1 * 0.9 / n)
    assert abs(frac - 0.1) < 3 * sigma


def test_ladder_never_decreases_quality():
    rng = make_generator(5)
    state = QualityLadderState(qualities=rng.uniform(1.0, 5.0, 1000))
    stepped = ladder_step(state, mu=0.3, lambda_step=1.5, dt=1.0, rng=rng)
    assert np.all(stepped.qualities >= state.qualities)
    assert np.all(stepped.qualities >= 1.0)


def stepped_quality_path(n_lines, mu, lambda_step, dt, horizon, rng):
    """quality_path by the one-step API: ladder_step, then quality_index."""
    ladder = QualityLadderState(qualities=np.ones(n_lines))
    path = [quality_index(ladder)]
    with np.errstate(over="ignore"):
        for _ in range(horizon):
            ladder = ladder_step(ladder, mu, lambda_step, dt, rng)
            path.append(quality_index(ladder))
    return np.array(path)


@settings(max_examples=150, deadline=None)
@given(n_lines=st.integers(1, 3000) | st.sampled_from([1, 21, 22, 655, 656, 3000]),
       mu=st.floats(0, 20), dt=st.floats(1e-3, 1),
       lambda_step=st.floats(1, 10, exclude_min=True) | st.sampled_from([1e100, 1e300]),
       horizon=st.integers(1, 120), seed=st.integers(0, 2**64 - 1))
def test_quality_path_is_the_stepped_ladder_bit_for_bit(n_lines, mu, dt, lambda_step, horizon,
                                                         seed):
    """Across block boundaries (a block holds 65536 // n_lines steps), with
    every line upgrading each step (mu*dt >= 1), and with qualities that
    overflow to inf."""
    got = quality_path(n_lines, mu, lambda_step, dt, horizon, make_generator(seed))
    want = stepped_quality_path(n_lines, mu, lambda_step, dt, horizon, make_generator(seed))
    assert got.tobytes() == want.tobytes()


def test_quality_path_checks_its_inputs():
    rng = make_generator(0)
    for kwargs in ({"n_lines": 0}, {"mu": -1.0}, {"lambda_step": 1.0}, {"dt": 0.0}):
        with pytest.raises(DomainError):
            quality_path(**{"n_lines": 3, "mu": 0.5, "lambda_step": 1.5, "dt": 0.1,
                            "horizon": 5, "rng": rng, **kwargs})


def test_incumbent_value():
    assert incumbent_value(1.0, 0.05, 0.05) == pytest.approx(10.0)
    assert incumbent_value(1.0, 0.2, 0.0) == pytest.approx(5.0)
    v = incumbent_value(2.0, 0.07, 0.13)
    assert abs(0.07 * v - (2.0 - 0.13 * v)) < 1e-12


def test_free_entry_closed_form_and_residual():
    assert free_entry_mu(1.0, 0.5, 0.1) == pytest.approx(0.1)
    rng = make_generator(17)
    for _ in range(1000):
        pi = rng.uniform(0.5, 5.0)
        psi = rng.uniform(0.01, 0.99) * pi
        r = rng.uniform(0.01, 0.5)
        mu = free_entry_mu(pi, psi, r)
        assert abs(mu * incumbent_value(pi, r, mu) - psi) < 1e-10
    with pytest.raises(DomainError):
        free_entry_mu(1.0, 1.5, 0.1)


def test_schumpeter_growth():
    assert schumpeter_growth(math.e, 1.0) == pytest.approx(1.0)
    assert schumpeter_growth(math.e, 1.0, 1.0) == pytest.approx(0.0)
    grid = np.linspace(0.1, 2.0, 10)
    rates = [schumpeter_growth(2.0, m) for m in grid]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_science_production():
    assert science_production(2.0, 7.0, 3.0, 5.0, 1.0) == pytest.approx(3.0 * 2.0 + 5.0)
    assert science_production(0.0, 0.0, 1.0, 1.0, 0.5) == 0.0
    base = science_production(1.0, 1.0, 1.0, 1.0, 0.4)
    assert science_production(2.0, 1.0, 1.0, 1.0, 0.4) > base
    assert science_production(1.0, 2.0, 1.0, 1.0, 0.4) > base


def test_composite_innovation_linearity():
    assert composite_innovation(1.0, 1.0, 2.0, 3.0) == 5.0
    assert composite_innovation(0.0, 0.0, 9.0, 9.0) == 0.0
    a = composite_innovation(2.0, 3.0, 1.0, 1.0)
    b = composite_innovation(2.0, 3.0, 2.0, 2.0)
    assert b == pytest.approx(2 * a)


def test_unified_step_closed_form_and_scaling():
    params = UnifiedParams(alpha_a=0.0, alpha_q=0.0, delta_a=1.0, l_a=2.0)
    state = UnifiedState()
    c, dt = 0.5, 1e-4
    s = state
    for _ in range(10_000):
        s, _ = unified_step(s, params, c, dt)
    # linear ODE: A(t) = A0 + delta*L*t/c
    assert s.a == pytest.approx(1.0 + 1.0 * 2.0 * 1.0 / 0.5, rel=1e-6)
    # halving the cost doubles the one-step increment
    s1, _ = unified_step(state, params, 1.0, 0.1)
    s2, _ = unified_step(state, params, 0.5, 0.1)
    assert (s2.a - state.a) == pytest.approx(2 * (s1.a - state.a))


def test_unified_step_frozen_and_singular():
    params = UnifiedParams(l_a=0.0, l_q=0.0)
    state = UnifiedState(a=2.0, q=3.0)
    nxt, y = unified_step(state, params, 1.0, 0.1)
    assert nxt.a == state.a and nxt.q == state.q
    assert y == pytest.approx(
        2.0**params.phi_y * 3.0**params.gamma_y * 1.0
    )
    with pytest.raises(DomainError):
        unified_step(state, params, 0.0, 0.1)


def test_unified_output_constant_returns_in_k_l():
    params = UnifiedParams(l_a=0.0, l_q=0.0)
    _, y1 = unified_step(UnifiedState(k=1.0, l=1.0), params, 1.0, 0.1)
    _, y3 = unified_step(UnifiedState(k=3.0, l=3.0), params, 1.0, 0.1)
    assert y3 == pytest.approx(3 * y1, rel=1e-12)


def test_unified_step_richardson_ratio():
    # Euler is first order: halving dt roughly halves the endpoint error
    params = UnifiedParams(alpha_a=1.0, delta_a=1.0, l_a=1.0, l_q=0.0)

    def endpoint(dt, steps):
        s = UnifiedState()
        for _ in range(steps):
            s, _ = unified_step(s, params, 1.0, dt)
        return s.a

    exact = 2.0 * math.exp(1.0) - 1.0  # dA/dt = 1 + A, A(0)=1
    e1 = abs(endpoint(1e-2, 100) - exact)
    e2 = abs(endpoint(5e-3, 200) - exact)
    assert e1 / e2 == pytest.approx(2.0, rel=0.1)
