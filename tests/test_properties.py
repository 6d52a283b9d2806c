"""Property-based invariants on random joint amplitudes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taperfwm.config import Grid, NumericsSpec, dbcm_to_per_m
from taperfwm.interference import apply_time_shift, hhom_visibility, rhom_visibility
from taperfwm.jta import JointAmplitude
from taperfwm.metrics import heralded_purity, jsa_to_jta, jta_to_jsa, mean_shift

T0 = 0.8e-12
N = 32
GRID = Grid.from_numerics(NumericsSpec(n_t=N, t_window=(-8.0, 8.0)))


def _from_seed(seed):
    """Dense random complex matrix; the seed is the shrinkable input."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))


def _matrices():
    return st.integers(min_value=0, max_value=2**32 - 1).map(_from_seed)


def _amp(values, domain="time"):
    return JointAmplitude(values=values, domain=domain, grid=GRID, z=0.0)


@settings(max_examples=25, deadline=None)
@given(_matrices())
def test_parseval(values):
    phi = _amp(values)
    jsa = jta_to_jsa(phi)
    assert jsa.integrate_norm() == pytest.approx(phi.integrate_norm(), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(_matrices())
def test_domain_round_trip(values):
    phi = _amp(values)
    back = jsa_to_jta(jta_to_jsa(phi))
    assert np.max(np.abs(back.values - values)) <= 1e-10 * np.abs(values).max()


@settings(max_examples=25, deadline=None)
@given(_matrices())
def test_purity_bounds_and_domain_invariance(values):
    phi = _amp(values)
    p = heralded_purity(phi)
    assert 1.0 / N - 1e-9 <= p <= 1.0 + 1e-9
    assert heralded_purity(jta_to_jsa(phi)) == pytest.approx(p, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(_matrices())
def test_hhom_self_equals_purity(values):
    phi = _amp(values)
    assert hhom_visibility(phi, phi) == pytest.approx(heralded_purity(phi), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(_matrices(), _matrices())
def test_rhom_symmetry_and_bounds(a, b):
    pa, pb = _amp(a), _amp(b)
    v = rhom_visibility(pa, pb)
    assert v == pytest.approx(rhom_visibility(pb, pa), rel=1e-10)
    assert -1e-9 <= v <= 1.0 + 1e-9
    assert rhom_visibility(pa, pa) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.5, 1.5, allow_nan=False), st.floats(-1.5, 1.5, allow_nan=False))
def test_shift_round_trip(a_s, a_i):
    # smooth center-localized state: shifts up to 1.5 pulse widths never wrap
    t = GRID.t_axis
    vals = np.exp(-0.5 * np.add.outer(t**2, t**2)) * np.exp(0.3j * np.add.outer(t, -t))
    phi = _amp(vals)
    fwd = apply_time_shift(phi, a_s * T0, a_i * T0, T0)
    assert fwd.integrate_norm() == pytest.approx(phi.integrate_norm(), rel=1e-10)
    back = apply_time_shift(fwd, -a_s * T0, -a_i * T0, T0)
    assert np.max(np.abs(back.values - vals)) <= 1e-9 * np.abs(vals).max()


@settings(max_examples=20, deadline=None)
@given(_matrices(), st.floats(-np.pi, np.pi, allow_nan=False))
def test_mean_shift_global_phase_invariance(values, theta):
    from taperfwm.config import table1_config

    disp = table1_config().dispersion
    phi = _amp(values, domain="frequency")
    rot = _amp(values * np.exp(1j * theta), domain="frequency")
    assert mean_shift(rot, disp, T0) == pytest.approx(mean_shift(phi, disp, T0), rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-3, 50.0, allow_nan=False))
def test_loss_unit_round_trip(dbcm):
    # back to dB: the power lost over 1 cm at the converted rate
    assert -10.0 * np.log10(np.exp(-dbcm_to_per_m(dbcm) * 1e-2)) == pytest.approx(dbcm, rel=1e-12)
