"""Acceptance studies.

Ten numbered criteria covering the headline physics of the delayed-pump
source: reference purity, taper trade-off, tuning ranges, generation
localization, absolute pair probability, interference visibilities for
identical and mismatched source pairs, power tunability, and the numeric
property suite.  Each test prints one line

    criterion N: PASS/FAIL -- details

(run with ``pytest tests/test_acceptance.py -s`` to see them all).  The
asserted bands are the external reference values; criteria the model does
not reproduce fail honestly rather than being loosened.
"""

import numpy as np
import pytest

from taperfwm import run_source, table1_config
from taperfwm.analytic import fit_erf
from taperfwm.config import Grid, NumericsSpec, derive_run_params, tau_max_of
from taperfwm.interference import evaluate_pair, hhom_visibility, optimize_delays
from taperfwm.jta import JointAmplitude, _source_diag, evolve_jta, jta_to_jsa, step_drives
from taperfwm.metrics import heralded_purity
from taperfwm.mismatch import mismatch_phase
from taperfwm.pumps import initial_envelopes, propagate_pumps

from _reference import (analytic_arrival_times, delay_line_requirements, global_phase,
                        jsa_norm, perturbative_oracle, reference_jta, spectral_source)

pytestmark = pytest.mark.acceptance

T0 = 0.8e-12
STUDY = {"n_t": 128, "n_z": 400}   # resolution for sweep-style studies
PAIR = {"n_t": 256, "n_z": 400}    # two-source studies need the finer grid
HIGH = {"n_t": 512, "n_z": 2000}   # reference-purity study at desk scale

_cache = {}


def _run(cfg):
    """Memoize full simulations shared between criteria, keyed by the
    configuration: criteria that ask for one configuration share its run."""
    if cfg not in _cache:
        _cache[cfg] = run_source(cfg)
    return _cache[cfg]


def _report(num, checks):
    """Print the one-line verdict, then assert every sub-check."""
    ok = all(c[0] for c in checks)
    detail = "; ".join(f"{msg} [{'ok' if good else 'FAIL'}]" for good, msg in checks)
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} -- {detail}")
    for good, msg in checks:
        assert good, f"criterion {num}: {msg}"


def test_criterion_01_reference_purity():
    cfg = table1_config(numerics=HIGH, geometry={"taper_amplitude": 0.0})
    p = _run(cfg).metrics.purity
    _report(1, [(0.993 <= p <= 1.0, f"untapered purity {p:.5f} vs 0.998+-0.005")])


def test_criterion_02_purity_vs_taper():
    checks = []
    for dw, target, tol in ((0.08e-6, 0.98, 0.01), (0.25e-6, 0.91, 0.02)):
        cfg = table1_config(numerics=STUDY, geometry={"taper_amplitude": dw})
        p = _run(cfg).metrics.purity
        checks.append((abs(p - target) <= tol,
                       f"dw={dw * 1e6:.2f}um purity {p:.4f} vs {target}+-{tol}"))
    _report(2, checks)


def _tuning_curve(dw, avg_power=1e-3, fracs=np.linspace(0.0, 1.0, 6)):
    cfg = table1_config(numerics=STUDY,
                        geometry={"taper_amplitude": dw},
                        pump={"avg_power": avg_power})
    tm = tau_max_of(cfg)
    out = []
    for f in fracs:
        m = _run(cfg.replace(pump={"tau": f * tm})).metrics
        out.append((m.dlam_s * 1e9, m.dlam_i * 1e9))
    return np.asarray(out)


def test_criterion_03_tuning_ranges():
    checks = []
    for dw, target, tol in ((0.08e-6, 2.0, 0.5), (0.25e-6, 6.5, 1.0)):
        curve = _tuning_curve(dw)[:, 0]
        rng = curve[-1] - curve[0]
        checks.append((abs(rng - target) <= tol,
                       f"dw={dw * 1e6:.2f}um signal range {rng:.2f}nm vs {target}+-{tol}"))
        checks.append((bool(np.all(np.diff(curve) > 0)),
                       f"dw={dw * 1e6:.2f}um shift monotone in tau"))
    _report(3, checks)


def test_criterion_04_generation_localization():
    cfg0 = table1_config(numerics=STUDY, geometry={"taper_amplitude": 0.1e-6})
    tm = tau_max_of(cfg0)
    L = cfg0.geometry.length
    rp = derive_run_params(cfg0)
    loss = rp.alpha_m["s"] + rp.alpha_m["i"]
    checks = []
    for frac in (0.25, 0.5, 0.75):
        out = _run(cfg0.replace(pump={"tau": frac * tm}))
        fit = fit_erf(out.result.xi_profile, loss_rate=loss)
        checks.append((abs(fit.l_match_fit / L - frac) <= 0.02,
                       f"tau={frac}taumax match point {fit.l_match_fit / L:.3f}L"))
        dz = fit.delta_z_fwhm / L
        checks.append((abs(dz - 0.21) <= 0.02, f"tau={frac}taumax dz/L {dz:.3f} vs 0.21+-0.02"))
    _report(4, checks)


def test_criterion_05_absolute_xi_and_power_scaling():
    cfg = table1_config(numerics=STUDY)
    xi = {p: _run(cfg.replace(pump={"avg_power": p})).metrics.xi
          for p in (5e-5, 1e-4, 2e-4, 1e-3, 2e-3)}
    checks = [(0.05 <= xi[1e-3] <= 0.2, f"xi(1mW)={xi[1e-3]:.4f} in [0.05,0.2]")]
    quad = np.array([xi[p] / p**2 for p in (5e-5, 1e-4, 2e-4)])
    dev = np.ptp(quad) / quad.mean()
    checks.append((dev <= 5e-3, f"quadratic scaling to {dev * 1e2:.2f}% below 0.2mW"))
    ratio = xi[2e-3] / xi[1e-3]
    checks.append((abs(ratio - 2.5) <= 0.5, f"xi(2mW)/xi(1mW)={ratio:.2f} vs 2.5+-0.5"))
    _report(5, checks)


def test_criterion_06_identical_source_hhom():
    cfg = table1_config(numerics=STUDY, geometry={"taper_amplitude": 0.25e-6})
    phi = _run(cfg).result.jta
    v = hhom_visibility(phi, phi)
    checks = [(abs(v - 0.93) <= 0.02, f"identical-source V_HHOM {v:.4f} vs 0.93+-0.02")]
    g = Grid.from_numerics(NumericsSpec(n_t=32, t_window=(-8.0, 8.0)))
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        vals = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        amp = JointAmplitude(values=vals, grid=g, z=0.0)
        worst = max(worst, abs(hhom_visibility(amp, amp) - heralded_purity(amp)))
    checks.append((worst <= 1e-9, f"V_HHOM(phi,phi)=purity identity to {worst:.1e}"))
    _report(6, checks)


def test_criterion_07_height_error_study():
    cfg1 = table1_config(numerics=PAIR, geometry={"taper_amplitude": 0.25e-6})
    cfg2 = cfg1.replace(geometry={"height_offset": 1e-9})
    # one store of runs: the tau values of source 1 recur across the three
    # studies, and no (configuration, tau) runs twice
    runs = {}
    raw = evaluate_pair(cfg1, cfg2, runs)
    checks = [
        (abs(raw.v_rhom - 0.89) <= 0.05, f"raw V_RHOM(1nm) {raw.v_rhom:.4f} vs 0.89+-0.05"),
        (abs(raw.v_hhom - 0.81) <= 0.05, f"raw V_HHOM(1nm) {raw.v_hhom:.4f} vs 0.81+-0.05"),
    ]
    opt = optimize_delays(cfg1, cfg2, runs=runs)
    checks.append((opt.v_rhom > 0.995, f"optimized V_RHOM(1nm) {opt.v_rhom:.4f} > 0.995"))
    equal = evaluate_pair(cfg1, cfg1, runs)
    deg = (equal.v_hhom - opt.v_hhom) / equal.v_hhom
    checks.append((deg < 5e-3, f"optimized V_HHOM degradation {deg * 1e2:.2f}% < 0.5%"))
    cfg3 = cfg1.replace(geometry={"height_offset": 4.3e-9})
    opt43 = optimize_delays(cfg1, cfg3, runs=runs)
    checks.append((opt43.v_rhom > 0.95, f"optimized V_RHOM(4.3nm) {opt43.v_rhom:.4f} > 0.95"))
    _report(7, checks)


def test_criterion_08_width_error_study():
    cfg1 = table1_config(numerics=STUDY, geometry={"taper_amplitude": 0.1e-6})
    cfg2 = cfg1.replace(geometry={"width_offset": 60e-9})
    # source 1 is shared by every study, source 2 by the raw and 60 nm ones
    runs = {}
    raw = evaluate_pair(cfg1, cfg2, runs)
    checks = [
        (abs(raw.v_rhom - 0.92) <= 0.05, f"raw V_RHOM(60nm) {raw.v_rhom:.4f} vs 0.92+-0.05"),
        (abs(raw.v_hhom - 0.88) <= 0.05, f"raw V_HHOM(60nm) {raw.v_hhom:.4f} vs 0.88+-0.05"),
    ]
    dws = (15e-9, 30e-9, 45e-9, 60e-9)
    t1, t2 = [], []
    opt60 = None
    for dw in dws:
        cfg = cfg1.replace(geometry={"width_offset": dw})
        opt = optimize_delays(cfg1, cfg, runs=runs)
        t1.append(opt.optimal_tau1)
        t2.append(opt.optimal_tau2)
        opt60 = opt
    checks.append((opt60.v_rhom >= 0.99, f"optimized V_RHOM(60nm) {opt60.v_rhom:.4f} >= 0.99"))
    checks.append((opt60.v_hhom >= 0.97, f"optimized V_HHOM(60nm) {opt60.v_hhom:.4f} >= 0.97"))
    s1 = np.polyfit(np.asarray(dws) * 1e9, np.asarray(t1) * 1e12, 1)[0]
    s2 = np.polyfit(np.asarray(dws) * 1e9, np.asarray(t2) * 1e12, 1)[0]
    checks.append((s1 < 0, f"tau1 trend {s1:+.4f} ps/nm decreasing"))
    checks.append((s2 > 0, f"tau2 trend {s2:+.4f} ps/nm increasing"))
    _report(8, checks)


def test_criterion_09_xpm_tunability():
    powers = (0.5e-3, 1e-3, 2e-3, 3e-3)
    rng_s, rng_i = [], []
    for p in powers:
        curve = _tuning_curve(0.25e-6, avg_power=p, fracs=(0.0, 1.0))
        rng_s.append(curve[1, 0] - curve[0, 0])
        rng_i.append(abs(curve[1, 1] - curve[0, 1]))
    p_mw = np.asarray(powers) * 1e3
    slope_s = np.polyfit(p_mw, rng_s, 1)[0]
    slope_i = np.polyfit(p_mw, rng_i, 1)[0]
    checks = [
        (abs(slope_s - 0.26) <= 0.08, f"signal slope {slope_s:.3f} nm/mW vs 0.26+-0.08"),
        (abs(slope_i - 0.33) <= 0.10, f"idler slope {slope_i:.3f} nm/mW vs 0.33+-0.10"),
    ]
    # power-induced energy-conservation deviation: offset from the
    # low-power baseline of the same delay
    cfg = table1_config(numerics=STUDY, geometry={"taper_amplitude": 0.25e-6})
    tm = tau_max_of(cfg)

    def ec(p, f):
        c = cfg.replace(pump={"avg_power": p, "tau": f * tm})
        return _run(c).metrics.ec_deviation * 1e9

    dev_1mw = max(abs(ec(1e-3, f) - ec(1e-5, f)) for f in (0.25, 0.5, 0.7))
    checks.append((dev_1mw <= 0.1,
                   f"EC deviation {dev_1mw:.3f}nm <= 0.1nm at 1mW, tau in [0.25,0.7]taumax"))
    low = abs(ec(1e-3, 0.05) - ec(1e-5, 0.05))
    high = abs(ec(2e-3, 0.05) - ec(1e-5, 0.05))
    checks.append((high > low, f"EC deviation grows toward 2mW, tau->0 ({low:.2f}->{high:.2f}nm)"))
    _report(9, checks)


def test_criterion_10_property_suite():
    checks = []
    fast = table1_config(numerics={"n_t": 64, "n_z": 100})
    out = _run(fast)
    phi = out.result.jta
    dp = abs(jsa_norm(jta_to_jsa(phi), phi.grid) / phi.integrate_norm() - 1.0)
    checks.append((dp <= 1e-10, f"Parseval on conversion to {dp:.1e}"))

    a1, a2 = initial_envelopes(fast)
    g = fast.grid()
    d = np.diag(_source_diag(a1, a2, 1.34, 0.37, g.dt))
    s = spectral_source(a1, a2, g, 1.34, 0.37)
    ds = np.max(np.abs(d - s)) / np.max(np.abs(d))
    checks.append((ds <= 1e-10, f"diagonal-vs-spectral source term to {ds:.1e}"))
    # each stepped drive of a tapered, height-offset trace, with Theta at
    # the step midpoint
    bent = fast.replace(geometry={"taper_amplitude": 0.1e-6, "height_offset": 2e-9})
    trace = propagate_pumps(bent)
    dk = 0.0
    for k, (a1, a2, diag) in enumerate(step_drives(bent, trace)):
        if k in (0, 25, 50, 99):
            theta = mismatch_phase(bent, trace.z_mid[k])
            s = spectral_source(a1, a2, g, bent.dispersion.gamma_p1p2si, theta)
            dk = max(dk, np.max(np.abs(np.diag(diag) - s)) / np.max(np.abs(diag)))
    checks.append((dk <= 1e-10, f"stepped drives vs spectral source term to {dk:.1e}"))

    lin = table1_config(numerics={"n_t": 64, "n_z": 500, "xpm_spm_enabled": False},
                        geometry={"taper_amplitude": 0.1e-6})
    trace = propagate_pumps(lin)
    stepped = evolve_jta(lin, trace).jta
    direct = perturbative_oracle(lin, trace)
    rel = np.linalg.norm(stepped.values - direct.values) / np.linalg.norm(direct.values)
    checks.append((rel <= 1e-6, f"perturbative oracle equivalence to {rel:.1e}"))

    # a per-field reference that splits the mismatch (0.2, 0.3, -0.2, -0.3)
    # among p1, p2, s, i matches the stepper up to a global phase
    weights = (0.2, 0.3, -0.2, -0.3)
    pa = run_source(lin).result.jta.values
    pb = reference_jta(lin, weights)[0] * global_phase(lin, weights)
    dr = np.max(np.abs(pa - pb)) / np.abs(pa).max()
    checks.append((dr <= 1e-12, f"mismatch redistribution invariance to {dr:.1e}"))

    xi1 = run_source(fast.replace(numerics={"n_z": 200})).metrics.xi
    xi2 = run_source(fast.replace(numerics={"n_z": 400})).metrics.xi
    conv = abs(xi2 - xi1) / xi2
    checks.append((conv < 1e-3, f"n_z doubling changes xi by {conv:.1e} < 1e-3"))

    cfg = table1_config(numerics=STUDY)
    tm = tau_max_of(cfg)
    worst = 0.0
    for frac in (0.25, 0.5, 0.75):
        c = cfg.replace(pump={"tau": frac * tm})
        m = _run(c).metrics
        ts, ti = analytic_arrival_times(c)
        worst = max(worst, abs(m.arrival_mean_s - ts), abs(m.arrival_mean_i - ti))
    checks.append((worst <= 0.2 * T0,
                   f"collision-point arrival formula within {worst / T0:.2f} T0"))

    spec = delay_line_requirements(1.47e-12)
    ok_fsr = spec.fsr == pytest.approx(2 * (1550e-9) ** 2 / (299792458.0 * 1.47e-12), rel=1e-12)
    ok_bw = spec.bw_3db == pytest.approx(1.27 * spec.fsr / 2.0, rel=1e-12)
    checks.append((ok_fsr and abs(spec.fsr - 10.9e-9) < 0.2e-9,
                   f"delay-line FSR {spec.fsr * 1e9:.1f}nm"))
    checks.append((ok_bw and abs(spec.bw_3db - 6.9e-9) < 0.2e-9,
                   f"delay-line 3dB bandwidth {spec.bw_3db * 1e9:.1f}nm"))
    _report(10, checks)
