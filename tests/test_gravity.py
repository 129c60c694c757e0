"""Gravity field, flows, potential energy, and the flywheel comparison."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emt_lab import DomainError, InputError, make_generator
from emt_lab import gravity
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


@pytest.mark.parametrize("key, values", [
    ("d_mat", {"n_vec": [5.0], "d_mat": [1.0, 2.0], "p_vec": [1.0, 1.0]}),
    ("n_vec", {"n_vec": [[5.0, 4.0, 3.0, 2.0, 1.0]]}),
    ("p_vec", {"p_vec": [[1.0, 1.0]]}),
], ids=["d_mat_1d", "n_vec_2d", "p_vec_2d"])
def test_needs_state_arrays_must_have_the_dimensions_of_their_defaults(key, values):
    """A 1-D `d_mat` is no longer read as one need's row."""
    with pytest.raises(InputError, match=f"^{key}: must be "):
        NeedsState(**values)


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


def stepped_flywheel(state0, production, horizon, kappa, coverage_eps):
    """flywheel_compare as a loop over steps, both economies stepped alike."""
    y = gravity.production_output(production)
    weights0 = state0.n_vec.copy()

    def shares(n_vec):
        rows = (state0.g_resp * np.outer(n_vec, state0.p_vec) / state0.d_mat**2).sum(axis=1)
        total = rows.sum()
        if total <= 0:
            return np.full(n_vec.size, 1.0 / n_vec.size)
        return rows / total

    shares_blind = shares(state0.n_vec)
    n_blind = state0.n_vec.copy()
    n_aligned = state0.n_vec.copy()
    u_b, u_a = [potential_energy(n_blind)], [potential_energy(n_aligned)]
    cov_b = [coverage_operator(n_blind <= coverage_eps, weights0)]
    cov_a = [coverage_operator(n_aligned <= coverage_eps, weights0)]
    for _ in range(horizon):
        n_blind = np.maximum(0.0, n_blind - kappa * y * shares_blind)
        n_aligned = np.maximum(0.0, n_aligned - kappa * y * shares(n_aligned))
        u_b.append(potential_energy(n_blind))
        u_a.append(potential_energy(n_aligned))
        cov_b.append(coverage_operator(n_blind <= coverage_eps, weights0))
        cov_a.append(coverage_operator(n_aligned <= coverage_eps, weights0))
    return y, [np.array(x) for x in (u_b, u_a, cov_b, cov_a)]


@st.composite
def flywheels(draw):
    """Non-integer weights, needs that reach zero, kappa 0 and all-zero
    flows (G = 0 or every potential 0) now and then."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    needs = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 10), min_size=n,
                          max_size=n).filter(any))
    state = NeedsState(
        n_vec=needs,
        d_mat=draw(st.lists(st.lists(st.floats(0.1, 5), min_size=m, max_size=m), min_size=n,
                            max_size=n)),
        p_vec=draw(st.lists(st.sampled_from([0.0]) | st.floats(0, 3), min_size=m, max_size=m)),
        g_resp=draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 3)))
    kappa = draw(st.sampled_from([0.0, 0.05]) | st.floats(0, 2))
    production = {"a": draw(st.floats(0.1, 10)), "alpha": draw(st.floats(0.05, 0.95))}
    return state, production, draw(st.integers(1, 120)), kappa, draw(st.floats(1e-6, 1))


@settings(max_examples=150, deadline=None)
@given(flywheels(), st.integers(1, 64))
def test_flywheel_is_the_stepped_loop_bit_for_bit(case, block):
    """Also across block boundaries: a block holds max(2, _BLOCK // needs)
    rows, and `block` stands in for _BLOCK."""
    state, production, horizon, kappa, eps = case
    y, want = stepped_flywheel(state, production, horizon, kappa, eps)
    with mock.patch.object(gravity, "_BLOCK", block):
        res = flywheel_compare(state, production, horizon, kappa, coverage_eps=eps)
    got = [res.u_blind, res.u_aligned, res.coverage_blind, res.coverage_aligned]
    assert res.y == y
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
