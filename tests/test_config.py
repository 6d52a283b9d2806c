"""Configuration, derived parameters, grids and the mismatch model."""

import json
import math

import numpy as np
import pytest

from taperfwm.config import (
    ConfigError,
    ConfigWarning,
    Grid,
    NumericsSpec,
    dbcm_to_per_m,
    derive_run_params,
    load_config,
    table1_config,
    tau_max_of,
    validate_config,
)
from taperfwm.mismatch import calibrate_mismatch, mismatch_phase

C = 299792458.0


def test_defaults_validate_cleanly():
    assert isinstance(validate_config(table1_config()), list)


def test_signal_walkoff_inconsistency_warned():
    # the tabulated |L_w,s| does not match the tabulated velocities; the
    # tabulated value wins but the mismatch must be surfaced
    assert any("l_w_s" in w for w in validate_config(table1_config()))


def test_tau_max_value():
    cfg = table1_config()
    # T0 * L / L_w,p = 0.8 ps * 1.5 cm / 0.25 cm
    assert tau_max_of(cfg) == pytest.approx(4.8e-12, rel=1e-12)


def test_peak_power_energy_accounting():
    rp = derive_run_params(table1_config())
    t_eff = 0.8e-12 * math.sqrt(math.pi / (4.0 * math.log(2.0)))
    expect = (1e-3 / 50e6) * 0.5 / t_eff
    assert rp.p_peak_1 == pytest.approx(expect, rel=1e-12)
    assert rp.p_peak_1 == pytest.approx(11.74, abs=0.01)
    assert rp.p_peak_2 == rp.p_peak_1


def test_l_match_proportional_to_tau():
    cfg = table1_config()
    tmax = tau_max_of(cfg)
    for frac in (0.0, 0.25, 0.5, 1.0):
        rp = derive_run_params(cfg.replace(pump={"tau": frac * tmax}))
        assert rp.l_match == pytest.approx(frac * cfg.geometry.length, abs=1e-15)


def test_loss_conversion_round_trip():
    # 0.4 dB/cm over 1.5 cm is a 0.6 dB power loss
    assert math.exp(-dbcm_to_per_m(0.4) * 1.5e-2) == pytest.approx(10 ** (-0.06), rel=1e-12)


def test_grid_duality():
    g = Grid.from_numerics(table1_config().numerics)
    assert g.dw * g.dt * g.n == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert np.all(np.diff(g.t_axis) > 0)
    assert np.all(np.diff(g.w_axis) > 0)


def test_width_taper_endpoints():
    cfg = table1_config(geometry={"taper_amplitude": 0.25e-6})
    g = cfg.geometry
    assert g.width_at(0.0) == pytest.approx(2.50e-6)
    assert g.width_at(g.length) == pytest.approx(2.00e-6)
    assert g.width_at(0.5 * g.length) == pytest.approx(2.25e-6)


def test_nonpositive_width_fatal():
    cfg = table1_config(geometry={"taper_amplitude": 2e-6, "width_offset": -1e-6})
    with pytest.raises(ConfigError, match="width"):
        validate_config(cfg)


def test_tau_out_of_range_fatal():
    cfg = table1_config(pump={"tau": 6e-12})
    with pytest.raises(ConfigError, match="tau"):
        validate_config(cfg)


def test_n_t_power_of_two_enforced():
    cfg = table1_config(numerics={"n_t": 96})
    with pytest.raises(ConfigError, match="n_t must be a power of two"):
        validate_config(cfg)


def test_every_error_is_named():
    cfg = table1_config(numerics={"n_t": 96, "n_z": 50})
    with pytest.raises(ConfigError, match="n_t must be a power of two; numerics.n_z must be >= 100"):
        validate_config(cfg)


def test_window_must_contain_idler_drift():
    cfg = table1_config(numerics={"t_window": (-2.0, 2.0)})
    with pytest.raises(ConfigError, match="t_window"):
        validate_config(cfg)


def test_idler_walks_at_most_one_cell_per_z_step():
    # at n_t = 512 a z-step of L / 180 walks the Idler 1.03 time cells
    with pytest.raises(ConfigError, match=r"numerics\.n_z = 180 .*need n_z >= 185"):
        validate_config(table1_config(numerics={"n_t": 512, "n_z": 180}))
    validate_config(table1_config(numerics={"n_t": 512, "n_z": 200}))


def test_calibration_zero_and_linear():
    disp = table1_config().dispersion
    assert calibrate_mismatch(0.0, 1.0, disp).c_kappa_w == 0.0
    m1 = calibrate_mismatch(-15.0, 1.0, disp)
    m2 = calibrate_mismatch(-30.0, 2.0, disp)
    assert m2.c_kappa_w == pytest.approx(2.0 * m1.c_kappa_w, rel=1e-12)
    assert m2.c_kappa_h == pytest.approx(2.0 * m1.c_kappa_h, rel=1e-12)


def test_calibration_magnitude():
    # |c_kappa_w| ~ (1/v_s - 1/v_i) * (2 pi c / lam_s^2) * 15 nm/um, a few
    # times 1e3 rad/m per um of width deviation
    disp = table1_config().dispersion
    m = calibrate_mismatch(-15.0, 1.0, disp)
    per_um = abs(m.c_kappa_w) * 1e-6
    drate = abs(1.0 / disp.v_s - 1.0 / disp.v_i)
    expect = drate * (2.0 * math.pi * C / disp.lam_s**2) * 15e-9 / 1e-6 * 1e-6
    assert per_um == pytest.approx(expect, rel=1e-9)
    assert 1e3 < per_um < 1e4


def _kappa(cfg, z):
    g, m = cfg.geometry, cfg.mismatch
    return m.c_kappa_w * (g.width_at(z) - g.mean_width) + m.c_kappa_h * g.height_offset


TAPERED = {"taper_amplitude": 0.25e-6, "width_offset": 60e-9, "height_offset": 4.3e-9}


def test_kappa_profile_reference_zero():
    cfg = table1_config()
    z = np.linspace(0, cfg.geometry.length, 7)
    assert np.all(mismatch_phase(cfg, z) == 0.0)


def test_kappa_profile_linear_taper():
    # dTheta/dz = kappa; Theta is quadratic, so the central difference is exact
    cfg = table1_config(geometry={"taper_amplitude": 0.25e-6, "height_offset": 4.3e-9})
    L = cfg.geometry.length
    z = np.linspace(0.1, 0.9, 9) * L
    dz = 1e-3 * L
    slope = (mismatch_phase(cfg, z + dz) - mismatch_phase(cfg, z - dz)) / (2.0 * dz)
    kappa = _kappa(cfg, z)
    assert np.allclose(slope, kappa, rtol=0.0, atol=1e-9 * np.abs(kappa).max())
    assert _kappa(cfg, 0.5 * L) == pytest.approx(cfg.mismatch.c_kappa_h * 4.3e-9, rel=1e-12)


def test_mismatch_phase_matches_midpoint_sum():
    cfg = table1_config(geometry=TAPERED)
    L = cfg.geometry.length
    n = 20000
    h = L / n
    partial = np.cumsum(_kappa(cfg, (np.arange(n) + 0.5) * h)) * h
    nodes = np.arange(1, n + 1) * h
    theta = mismatch_phase(cfg, nodes)
    assert np.max(np.abs(theta - partial)) <= 1e-11 * np.abs(theta).max()
    assert mismatch_phase(cfg, 0.0) == 0.0


def test_load_config_defaults_expansion(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"defaults": "table1"}))
    cfg = load_config(p)
    assert cfg == table1_config()


def test_load_config_override(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"defaults": "table1", "geometry": {"taper_amplitude": 0.25e-6}}))
    cfg = load_config(p)
    assert cfg.geometry.taper_amplitude == 0.25e-6
    assert cfg.pump.tau == table1_config().pump.tau


def test_load_config_emits_validation_warnings(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{}")
    with pytest.warns(ConfigWarning, match="dispersion.l_w_s"):
        load_config(p)


def _config_warnings(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    with pytest.warns(ConfigWarning) as record:
        load_config(p)
    return [str(w.message) for w in record]


def test_geometry_without_mismatch_coefficients_warns(tmp_path):
    # the built-in defaults have zero mismatch coefficients: a taper there
    # changes nothing, while the table-1 preset calibrates the coefficients
    taper = {"geometry": {"taper_amplitude": 0.25e-6}}
    bare = _config_warnings(tmp_path, taper)
    assert any("geometry.taper_amplitude ignored" in m for m in bare)
    calibrated = _config_warnings(tmp_path, {"defaults": "table1", **taper})
    assert not any("geometry." in m for m in calibrated)


def test_numerics_window_is_a_tuple():
    spec = NumericsSpec(t_window=[-4.0, 12.0])
    assert spec.t_window == (-4.0, 12.0)
    assert hash(spec) == hash(NumericsSpec())


def test_load_config_unknown_key_fatal(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"defaults": "table1", "geometry": {"tapper_amplitude": 1e-9}}))
    with pytest.raises(ConfigError, match="tapper_amplitude"):
        load_config(p)


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)
