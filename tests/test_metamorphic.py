"""Exact metamorphic relations: a run on transformed inputs gives the
transformed outputs bit for bit, with no tolerance to argue about.

Such a relation holds where the floating-point map is exact. Multiplying by a
power of two is exact while the result stays a normal double.
"""

import pytest
from hypothesis import given, settings, strategies as st

from emt_lab.recombinant import EvtRunConfig, TailDistribution, draw_max_statistic

# Each family's scale parameter. lognormal has none to move exactly: its
# scale is exp(mu).
SCALE_KEYS = {"exponential": "rate", "uniform": "b", "pareto": "xm", "weibull": "scale"}


@pytest.mark.parametrize("family", sorted(SCALE_KEYS))
@settings(max_examples=100, deadline=None)
@given(base=st.floats(0.125, 8) | st.integers(1, 8), shape=st.floats(0.5, 4),
       k=st.integers(-800, 800), k_draws=st.integers(1, 300), replicates=st.integers(1, 40),
       seed=st.integers(0, 2**64 - 1))
def test_evt_m_values_hold_when_the_scale_is_multiplied_by_a_power_of_two(
        family, base, shape, k, k_draws, replicates, seed):
    """The m-values K * survival(max) are bitwise the same when the scale
    parameter is multiplied by 2^k: each maximum moves by exactly 2^k (2^-k
    for a rate), and survival reads it only through the exact ratio of the
    maximum to the scale (its product with a rate).

    That holds while the scaled parameter and maxima are normal doubles. With
    a base scale in [1/8, 8] and a shape in [1/2, 4], a maximum is 0 or lies
    within [2^-123, 2^109], except with probability below 2^-60 per
    replicate: uniform draws are multiples of 2^-53; a pareto draw
    u^(-1/shape) lies in [1, 2^106] for the smallest positive u, 2^-53; a
    standard exponential is below 2^-60 with probability below 2^-60 and is
    at most 45; and a weibull draw E^(1/shape) is at least E^2 for E < 1. So
    for |k| <= 800 every scaled parameter and maximum lies within
    [2^-923, 2^909], inside the normal range [2^-1022, 2^1024).
    """
    key = SCALE_KEYS[family]
    params = {key: base} if family in ("exponential", "uniform") else {key: base, "shape": shape}
    cfg = EvtRunConfig(k_draws=k_draws, replicates=replicates)
    m = draw_max_statistic(TailDistribution(family, params), cfg, seed)
    scaled = TailDistribution(family, {**params, key: base * 2.0**k})
    assert draw_max_statistic(scaled, cfg, seed).tobytes() == m.tobytes()
