"""Gravity field, flows, potential energy, and the flywheel comparison."""

import numpy as np
import pytest

from emt_lab import DomainError, InputError, make_generator
from emt_lab.gravity import (
    NeedsState,
    coverage_operator,
    flywheel_compare,
    gravity_field,
    need_gravity,
    need_sector_flow,
    potential_energy,
)


def _state(n=None, d=None, p=None, **kw):
    return NeedsState(
        n_vec=np.array([5.0, 4.0, 3.0, 2.0, 1.0] if n is None else n),
        d_mat=np.array(
            [[1.0, 2.0], [2.0, 1.0], [1.0, 1.5], [2.5, 2.0], [1.5, 1.0]]
            if d is None else d
        ),
        p_vec=np.array([1.0, 1.0] if p is None else p),
        **kw,
    )


def test_need_gravity_values():
    assert need_gravity(1.0, 1.0, 2.7, 0.3) == 1.0
    assert need_gravity(4.0, 2.0, 1.0, 2.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        need_gravity(1.0, 0.0, 1.0, 1.0)


def test_gravity_field_additivity_and_homogeneity():
    state = _state()
    d_near = state.nearest_distance
    manual = sum(
        need_gravity(n, d, 1.3, 0.7) for n, d in zip(state.n_vec, d_near)
    )
    assert gravity_field(state, 1.3, 0.7) == pytest.approx(manual)
    scaled = _state(n=3.0 * state.n_vec)
    assert gravity_field(scaled, 1.3, 0.7) == pytest.approx(3.0**1.3 * gravity_field(state, 1.3, 0.7))
    zero = _state(n=[0.0] * 5)
    assert gravity_field(zero, 1.3, 0.7) == 0.0


def test_flow_matrix_values_and_inverse_square():
    s = _state(n=[2.0], d=[[1.0]], p=[3.0], g_resp=1.0)
    assert need_sector_flow(s)[0, 0] == pytest.approx(6.0)
    doubled = _state(n=[2.0], d=[[2.0]], p=[3.0], g_resp=1.0)
    assert need_sector_flow(doubled)[0, 0] == pytest.approx(1.5)
    dark = _state(g_resp=0.0)
    assert np.all(need_sector_flow(dark) == 0.0)


def test_flow_linearity_in_responsiveness():
    f1 = need_sector_flow(_state(g_resp=1.0))
    f2 = need_sector_flow(_state(g_resp=2.0))
    assert np.allclose(f2, 2.0 * f1)


def test_flow_inverse_square_scaling_property():
    state = _state()
    c = 1.7
    scaled = _state(d=c * state.d_mat)
    assert np.allclose(need_sector_flow(scaled), need_sector_flow(state) / c**2)


def test_potential_energy():
    assert potential_energy([1.0, 2.0, 2.0]) == pytest.approx(9.0)
    assert potential_energy([]) == 0.0
    rng = make_generator(3)
    n = rng.uniform(0.5, 2.0, 6)
    lowered = n.copy()
    lowered[2] *= 0.5
    assert potential_energy(lowered) < potential_energy(n)


def test_distance_singularity_rejected():
    with pytest.raises(DomainError):
        _state(d=[[1.0, 0.0], [1, 1], [1, 1], [1, 1], [1, 1]])


def test_needs_state_checks_its_bounds_and_finiteness():
    with pytest.raises(DomainError, match="g_resp"):
        _state(g_resp=-1.0)
    with pytest.raises(DomainError, match="n_vec"):
        _state(n=[np.nan, 4.0, 3.0, 2.0, 1.0])
    with pytest.raises(DomainError, match="p_vec"):
        _state(p=[1.0, np.inf])


def test_flywheel_kappa_zero_constant():
    res = flywheel_compare(_state(), {"a": 1, "k": 1, "l": 1, "alpha": 0.5}, 10, 0.0)
    assert np.all(res.u_blind == res.u_blind[0])
    assert np.all(res.u_aligned == res.u_aligned[0])


def test_flywheel_single_need_modes_identical():
    s = _state(n=[4.0], d=[[1.0, 2.0]])
    res = flywheel_compare(s, {"alpha": 0.5}, 20, 0.1)
    assert np.allclose(res.u_blind, res.u_aligned)


def test_flywheel_dominance_and_monotone_u():
    res = flywheel_compare(_state(), {"alpha": 0.5}, 50, 0.05)
    assert np.all(np.diff(res.u_blind) <= 1e-12)
    assert np.all(np.diff(res.u_aligned) <= 1e-12)
    assert np.all(res.u_aligned <= res.u_blind + 1e-12)
    assert res.u_aligned[-1] < res.u_blind[-1] - 1e-12


def test_flywheel_coverage_monotone_under_alignment():
    res = flywheel_compare(_state(), {"alpha": 0.5}, 200, 0.05)
    assert np.all(np.diff(res.coverage_aligned) >= -1e-12)
    assert res.coverage_aligned[-1] >= res.coverage_blind[-1]


def test_flywheel_with_no_needs_fails_in_its_coverage_weights():
    # gravity.Scenario rejects this state; the API still takes it and fails
    # where the needs weight the coverage
    with pytest.raises(DomainError, match="weights must not all be zero"):
        flywheel_compare(_state(n=[0.0] * 5), {}, 10, 0.05)


def test_coverage_operator():
    w = np.array([1.0, 1.0, 1.0, 1.0])
    assert coverage_operator(np.array([True] * 4), w) == 1.0
    assert coverage_operator(np.array([False] * 4), w) == 0.0
    assert coverage_operator(np.array([True, True, False, False]), w) == 0.5
    with pytest.raises(DomainError):
        coverage_operator(np.array([True]), np.array([0.0]))
    with pytest.raises(InputError):
        coverage_operator(np.array([True, False]), np.array([1.0]))
