"""Coupled pump propagation: walk-off, loss, SPM, dispersion, determinism."""

import numpy as np
import pytest

from taperfwm import table1_config
from taperfwm.config import derive_run_params, tau_max_of
from taperfwm.mismatch import mismatch_phase
from taperfwm.pumps import PropagationError, analytic_pumps, initial_envelopes, propagate_pumps
from taperfwm.spectral import omega_axis

from _reference import reference_pumps

FAST = {"n_t": 256, "n_z": 200}


def _cfg(**kw):
    return table1_config(numerics={**FAST, **kw.pop("numerics", {})}, **kw)


def _centroid(t_axis, a):
    inten = np.abs(a) ** 2
    return float(np.sum(t_axis * inten) / np.sum(inten))


def _energy(a, dt):
    return float(np.sum(np.abs(a) ** 2) * dt)


def test_initial_centers_and_peaks():
    cfg = _cfg(pump={"tau": 0.0})
    g = cfg.grid()
    env = initial_envelopes(cfg)
    assert _centroid(g.t_axis, env.a_p1) == pytest.approx(0.0, abs=g.dt)
    assert _centroid(g.t_axis, env.a_p2) == pytest.approx(0.0, abs=g.dt)
    rp = derive_run_params(cfg)
    assert np.max(np.abs(env.a_p1)) ** 2 == pytest.approx(rp.p_peak_1, rel=1e-9)


def test_initial_delay_places_pump1_late():
    cfg = table1_config(numerics=FAST)
    cfg = cfg.replace(pump={"tau": tau_max_of(cfg)})
    g = cfg.grid()
    env = initial_envelopes(cfg)
    # full walk-through delay corresponds to L / L_w,p = 6 pulse widths
    assert _centroid(g.t_axis, env.a_p1) == pytest.approx(6.0, abs=g.dt)
    assert _centroid(g.t_axis, env.a_p2) == pytest.approx(0.0, abs=g.dt)


def test_zero_power_is_zero():
    cfg = _cfg(pump={"avg_power": 0.0})
    env = initial_envelopes(cfg)
    assert np.all(env.a_p1 == 0.0)
    assert np.all(env.a_p2 == 0.0)


def test_pure_loss_energy():
    cfg = _cfg(numerics={"xpm_spm_enabled": False, "dispersion_enabled": False})
    trace = propagate_pumps(cfg, initial_envelopes(cfg))
    g = cfg.grid()
    for a, dbcm in ((trace.a_p1, 0.4), (trace.a_p2, 0.2)):
        ratio = _energy(a[-1], g.dt) / _energy(a[0], g.dt)
        assert ratio == pytest.approx(10 ** (-dbcm * 1.5 / 10.0), rel=1e-9)


def test_walkoff_translates_pump2_exactly():
    cfg = _cfg(
        numerics={"xpm_spm_enabled": False, "dispersion_enabled": False},
        dispersion={"alpha_p1": 1e-12, "alpha_p2": 1e-12},
    )
    g = cfg.grid()
    trace = propagate_pumps(cfg, initial_envelopes(cfg))
    # pump 2 (slow) advects by L / L_w,p = 6 units; pump 1 defines the frame
    c2_in = _centroid(g.t_axis, trace.a_p2[0])
    c2_out = _centroid(g.t_axis, trace.a_p2[-1])
    assert c2_out - c2_in == pytest.approx(6.0, abs=1e-9)
    c1_in = _centroid(g.t_axis, trace.a_p1[0])
    c1_out = _centroid(g.t_axis, trace.a_p1[-1])
    assert c1_out - c1_in == pytest.approx(0.0, abs=1e-9)
    # shape undistorted: translated input equals output
    w = omega_axis(g.n, g.dt)
    ref = np.fft.fft(np.fft.ifft(trace.a_p2[0]) * np.exp(1j * w * 6.0))
    assert np.max(np.abs(ref - trace.a_p2[-1])) <= 1e-10 * np.max(np.abs(ref))


def test_spm_phase_and_energy():
    cfg = _cfg(
        pump={"tau": 0.0},
        numerics={"dispersion_enabled": False},
        dispersion={"alpha_p1": 1e-12, "alpha_p2": 1e-12, "l_w_p": 1e6, "gamma_1122": 1e-12, "gamma_2211": 1e-12},
    )
    g = cfg.grid()
    rp = derive_run_params(cfg)
    trace = propagate_pumps(cfg, initial_envelopes(cfg))
    assert _energy(trace.a_p1[-1], g.dt) == pytest.approx(_energy(trace.a_p1[0], g.dt), rel=1e-10)
    k = int(np.argmax(np.abs(trace.a_p1[-1])))
    phase = np.angle(trace.a_p1[-1][k] / trace.a_p1[0][k])
    expect = cfg.dispersion.gamma_1111 * rp.p_peak_1 * cfg.geometry.length
    assert phase == pytest.approx(((expect + np.pi) % (2 * np.pi)) - np.pi, abs=2e-2)


def test_linear_dispersion_matches_exact_propagator():
    cfg = _cfg(
        numerics={"xpm_spm_enabled": False},
        dispersion={"alpha_p1": 1e-12, "alpha_p2": 1e-12, "l_w_p": 1e6},
    )
    g = cfg.grid()
    trace = propagate_pumps(cfg, initial_envelopes(cfg))
    w = omega_axis(g.n, g.dt)
    L = cfg.geometry.length
    mult = np.exp(0.5j * w**2 * L / cfg.dispersion.l_d_p1)
    ref = np.fft.fft(np.fft.ifft(trace.a_p1[0]) * mult)
    assert np.max(np.abs(ref - trace.a_p1[-1])) <= 1e-10 * np.max(np.abs(ref))


def test_lossless_nonlinear_energy_conservation():
    cfg = _cfg(dispersion={"alpha_p1": 1e-12, "alpha_p2": 1e-12})
    g = cfg.grid()
    trace = propagate_pumps(cfg, initial_envelopes(cfg))
    for a in (trace.a_p1, trace.a_p2):
        assert _energy(a[-1], g.dt) == pytest.approx(_energy(a[0], g.dt), rel=1e-9)


def test_step_halving_convergence_order():
    cfg = _cfg(numerics={"n_z": 100})
    ref = propagate_pumps(cfg.replace(numerics={"n_z": 800}), initial_envelopes(cfg)).a_p2[-1]

    def err(n_z):
        out = propagate_pumps(cfg.replace(numerics={"n_z": n_z}), initial_envelopes(cfg)).a_p2[-1]
        return np.linalg.norm(out - ref)

    assert err(100) / err(200) >= 3.5


def test_determinism():
    cfg = _cfg()
    t1 = propagate_pumps(cfg, initial_envelopes(cfg))
    t2 = propagate_pumps(cfg, initial_envelopes(cfg))
    assert np.array_equal(t1.a_p1, t2.a_p1)
    assert np.array_equal(t1.a_p2, t2.a_p2)


def test_analytic_pumps_collision_gaussian():
    cfg = table1_config()
    L = cfg.geometry.length
    rp = derive_run_params(cfg)
    # lab-frame collision happens near t = L_match / v_p2 ~ 100 ps
    t = np.linspace(-10e-12, 250e-12, 13001)
    z = np.linspace(0, L, 121)
    weight = np.empty(z.size)
    for k, zk in enumerate(z):
        a1, a2 = analytic_pumps(cfg, zk, t)
        weight[k] = np.trapezoid(np.abs(a1 * a2) ** 2, t)
    # overlap weight is gaussian in z, centered on the match point with
    # sigma_z = L_w,p / (2 sqrt(ln 2))
    zc = float(np.sum(z * weight) / np.sum(weight))
    assert zc == pytest.approx(rp.l_match, abs=0.01 * L)
    var = float(np.sum((z - zc) ** 2 * weight) / np.sum(weight))
    sigma_expected = cfg.dispersion.l_w_p / (2.0 * np.sqrt(np.log(2.0)))
    assert np.sqrt(var) == pytest.approx(sigma_expected, rel=0.05)


def test_stacked_stepper_matches_per_pump_reference():
    # the reference pumps carry their share w_p * Theta(z) of the mismatch
    # phase; the production trace carries none
    cfg = _cfg(numerics={"n_t": 128, "n_z": 100}, geometry={"taper_amplitude": 0.25e-6})
    weights = (0.2, 0.3, -0.2, -0.3)
    trace = propagate_pumps(cfg, initial_envelopes(cfg))
    ref1, ref2 = reference_pumps(cfg, weights)
    th_nodes = mismatch_phase(cfg, trace.z_nodes)[:, None]
    th_mid = mismatch_phase(cfg, trace.z_mid)[:, None]
    # the reference holds every sub-step: even rows are nodes, odd rows midpoints
    for got, theta, w, ref in ((trace.a_p1, th_nodes, weights[0], ref1[::2]),
                               (trace.a_p2, th_nodes, weights[1], ref2[::2]),
                               (trace.a_p1_mid, th_mid, weights[0], ref1[1::2]),
                               (trace.a_p2_mid, th_mid, weights[1], ref2[1::2])):
        assert np.max(np.abs(got * np.exp(1j * w * theta) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_pump_trace_is_geometry_free():
    # the geometry enters only as the source phase, never the pumps
    cfg = _cfg(numerics={"n_t": 128, "n_z": 100})
    ref = propagate_pumps(cfg)
    for geometry in ({"taper_amplitude": 0.25e-6}, {"width_offset": 60e-9},
                     {"height_offset": 4.3e-9}):
        trace = propagate_pumps(cfg.replace(geometry=geometry))
        for name in ("a_p1", "a_p2", "a_p1_mid", "a_p2_mid"):
            assert np.array_equal(getattr(trace, name), getattr(ref, name)), (geometry, name)


def test_nan_envelope_raises_at_first_step():
    cfg = _cfg()
    env = initial_envelopes(cfg)
    env.a_p2[5] = np.nan
    with pytest.raises(PropagationError, match=r"diverged at step 1$"):
        propagate_pumps(cfg, env)
