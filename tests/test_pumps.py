"""Coupled pump propagation: walk-off, loss, SPM, dispersion, determinism."""

import numpy as np
import pytest

from taperfwm import pumps, run_source, table1_config
from taperfwm.config import derive_run_params, tau_max_of
from taperfwm.mismatch import mismatch_phase
from taperfwm.jta import evolve_jta, step_drives
from taperfwm.pumps import PropagationError, initial_envelopes, propagate_pumps
from taperfwm.spectral import omega_axis

from _reference import analytic_pumps, reference_pumps, stored_midpoints

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
    assert _centroid(g.t_axis, env[0]) == pytest.approx(0.0, abs=g.dt)
    assert _centroid(g.t_axis, env[1]) == pytest.approx(0.0, abs=g.dt)
    rp = derive_run_params(cfg)
    assert np.max(np.abs(env[0])) ** 2 == pytest.approx(rp.p_peak_1, rel=1e-9)


def test_initial_delay_places_pump1_late():
    cfg = table1_config(numerics=FAST)
    cfg = cfg.replace(pump={"tau": tau_max_of(cfg)})
    g = cfg.grid()
    env = initial_envelopes(cfg)
    # full walk-through delay corresponds to L / L_w,p = 6 pulse widths
    assert _centroid(g.t_axis, env[0]) == pytest.approx(6.0, abs=g.dt)
    assert _centroid(g.t_axis, env[1]) == pytest.approx(0.0, abs=g.dt)


def test_zero_power_is_zero():
    cfg = _cfg(pump={"avg_power": 0.0})
    env = initial_envelopes(cfg)
    assert np.all(env[0] == 0.0)
    assert np.all(env[1] == 0.0)


def test_pure_loss_energy():
    cfg = _cfg(numerics={"xpm_spm_enabled": False, "dispersion_enabled": False})
    trace, mid = stored_midpoints(cfg)
    g = cfg.grid()
    z_cm = 100.0 * trace.z_mid
    for pump_mid, ends, dbcm in zip(mid, trace.ends, (0.4, 0.2)):
        e0 = _energy(ends[0], g.dt)
        assert _energy(ends[1], g.dt) / e0 == pytest.approx(10 ** (-dbcm * 1.5 / 10.0), rel=1e-9)
        ratios = np.array([_energy(a, g.dt) for a in pump_mid]) / e0
        np.testing.assert_allclose(ratios, 10 ** (-dbcm * z_cm / 10.0), rtol=1e-9, atol=0.0)


def test_walkoff_translates_pump2_exactly():
    cfg = _cfg(
        numerics={"xpm_spm_enabled": False, "dispersion_enabled": False},
        dispersion={"alpha_p1": 1e-12, "alpha_p2": 1e-12},
    )
    g = cfg.grid()
    trace, _ = stored_midpoints(cfg)
    # pump 2 (slow) advects by L / L_w,p = 6 units; pump 1 defines the frame
    c2_in = _centroid(g.t_axis, trace.ends[1, 0])
    c2_out = _centroid(g.t_axis, trace.ends[1, 1])
    assert c2_out - c2_in == pytest.approx(6.0, abs=1e-9)
    c1_in = _centroid(g.t_axis, trace.ends[0, 0])
    c1_out = _centroid(g.t_axis, trace.ends[0, 1])
    assert c1_out - c1_in == pytest.approx(0.0, abs=1e-9)
    # shape undistorted: translated input equals output
    w = omega_axis(g.n, g.dt)
    ref = np.fft.fft(np.fft.ifft(trace.ends[1, 0]) * np.exp(1j * w * 6.0))
    assert np.max(np.abs(ref - trace.ends[1, 1])) <= 1e-10 * np.max(np.abs(ref))


def test_spm_phase_and_energy():
    cfg = _cfg(
        pump={"tau": 0.0},
        numerics={"dispersion_enabled": False},
        dispersion={"alpha_p1": 1e-12, "alpha_p2": 1e-12, "l_w_p": 1e6, "gamma_1122": 1e-12, "gamma_2211": 1e-12},
    )
    g = cfg.grid()
    rp = derive_run_params(cfg)
    trace, _ = stored_midpoints(cfg)
    a0, a_end = trace.ends[0]
    assert _energy(a_end, g.dt) == pytest.approx(_energy(a0, g.dt), rel=1e-10)
    k = int(np.argmax(np.abs(a_end)))
    phase = np.angle(a_end[k] / a0[k])
    expect = cfg.dispersion.gamma_1111 * rp.p_peak_1 * cfg.geometry.length
    assert phase == pytest.approx(((expect + np.pi) % (2 * np.pi)) - np.pi, abs=2e-2)


def test_linear_dispersion_matches_exact_propagator():
    cfg = _cfg(
        numerics={"xpm_spm_enabled": False},
        dispersion={"alpha_p1": 1e-12, "alpha_p2": 1e-12, "l_w_p": 1e6},
    )
    g = cfg.grid()
    trace, _ = stored_midpoints(cfg)
    w = omega_axis(g.n, g.dt)
    L = cfg.geometry.length
    mult = np.exp(0.5j * w**2 * L / cfg.dispersion.l_d_p1)
    ref = np.fft.fft(np.fft.ifft(trace.ends[0, 0]) * mult)
    assert np.max(np.abs(ref - trace.ends[0, 1])) <= 1e-10 * np.max(np.abs(ref))


def test_lossless_nonlinear_energy_conservation():
    cfg = _cfg(dispersion={"alpha_p1": 1e-12, "alpha_p2": 1e-12})
    g = cfg.grid()
    trace, _ = stored_midpoints(cfg)
    for a0, a_end in trace.ends:
        assert _energy(a_end, g.dt) == pytest.approx(_energy(a0, g.dt), rel=1e-9)


def test_step_halving_convergence_order():
    cfg = _cfg(numerics={"n_z": 100})
    ref = stored_midpoints(cfg.replace(numerics={"n_z": 800}))[0].ends[1, 1]

    def err(n_z):
        out = stored_midpoints(cfg.replace(numerics={"n_z": n_z}))[0].ends[1, 1]
        return np.linalg.norm(out - ref)

    assert err(100) / err(200) >= 3.5


def test_determinism():
    cfg = _cfg()
    (t1, mid1), (t2, mid2) = stored_midpoints(cfg), stored_midpoints(cfg)
    assert np.array_equal(mid1, mid2)
    assert np.array_equal(t1.ends, t2.ends)


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
    trace, mid = stored_midpoints(cfg)
    ref1, ref2 = reference_pumps(cfg, weights)
    th_ends = mismatch_phase(cfg, trace.z_nodes[[0, -1]])[:, None]
    th_mid = mismatch_phase(cfg, trace.z_mid)[:, None]
    # the reference holds every sub-step: even rows are nodes, odd rows
    # midpoints; the trace keeps the first and last node
    for got, theta, w, ref in ((trace.ends[0], th_ends, weights[0], ref1[[0, -1]]),
                               (trace.ends[1], th_ends, weights[1], ref2[[0, -1]]),
                               (mid[0], th_mid, weights[0], ref1[1::2]),
                               (mid[1], th_mid, weights[1], ref2[1::2])):
        assert np.max(np.abs(got * np.exp(1j * w * theta) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_trace_is_the_z_step_plan():
    cfg = _cfg(numerics={"n_t": 128, "n_z": 100})
    trace = propagate_pumps(cfg)
    n_z, n_t = cfg.numerics.n_z, cfg.numerics.n_t
    assert trace.n_z == n_z
    assert trace.h == cfg.geometry.length / n_z
    assert trace.z_nodes[-1] == cfg.geometry.length
    assert np.array_equal(trace.z_mid, trace.z_nodes[:-1] + trace.h / 2.0)
    assert trace.ends.shape == (2, 2, n_t)
    assert np.array_equal(trace.ends[:, 0], initial_envelopes(cfg))


def test_pump_trace_is_geometry_free():
    # the geometry enters only as the source phase, never the pumps
    cfg = _cfg(numerics={"n_t": 128, "n_z": 100})
    ref, ref_mid = stored_midpoints(cfg)
    for geometry in ({"taper_amplitude": 0.25e-6}, {"width_offset": 60e-9},
                     {"height_offset": 4.3e-9}):
        trace, mid = stored_midpoints(cfg.replace(geometry=geometry))
        assert np.array_equal(mid, ref_mid), geometry
        assert np.array_equal(trace.ends, ref.ends), geometry


@pytest.mark.parametrize("extra_loss, fails", [(1e-9, False), (1e-6, True)])
def test_energy_law_is_checked(monkeypatch, extra_loss, fails):
    # a stepper loss (1/m, on the power) that the law exp(-alpha_p L) does
    # not know of: over L it removes 1.5e-11 or 1.5e-8 of each pump's
    # energy, below and above the 1e-10 bound
    exponents = pumps.linear_exponents
    monkeypatch.setattr(pumps, "linear_exponents",
                        lambda cfg, grid, fields: exponents(cfg, grid, fields) - 0.5 * extra_loss)
    cfg = _cfg()
    if fails:
        with pytest.raises(PropagationError, match="pump energy departs"):
            stored_midpoints(cfg)
    else:
        stored_midpoints(cfg)


def test_streamed_midpoints_are_the_stored_ones():
    # the JTA stepper draws its drives from the one pump-stepping loop, and
    # a run's own trace ends as a trace drawn on its own does
    cfg = _cfg(numerics={"n_t": 128, "n_z": 100})
    stored, mid = stored_midpoints(cfg)
    drawn = [(a1, a2) for a1, a2, _ in step_drives(cfg, propagate_pumps(cfg))]
    assert np.array_equal(np.array(drawn), mid.swapaxes(0, 1))
    assert np.array_equal(run_source(cfg).pump_trace.ends, stored.ends)


def test_nan_envelope_raises_at_first_step(monkeypatch):
    cfg = _cfg()
    env = initial_envelopes(cfg)
    env[1, 5] = np.nan
    monkeypatch.setattr(pumps, "initial_envelopes", lambda cfg: env)
    with pytest.raises(PropagationError, match=r"diverged at step 1$"):
        stored_midpoints(cfg)


def test_nan_envelope_stops_a_streamed_run_before_the_jta(monkeypatch):
    # the pump's own error, not the JTA stepper's, though the JTA draws each
    # step's pumps as soon as they are stepped
    cfg = _cfg()
    env = initial_envelopes(cfg)
    env[1, 5] = np.nan
    monkeypatch.setattr(pumps, "initial_envelopes", lambda cfg: env)
    with pytest.raises(PropagationError, match=r"^pump propagation diverged at step 1$"):
        evolve_jta(cfg, propagate_pumps(cfg))
