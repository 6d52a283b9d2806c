"""Driven joint-amplitude evolution: source term, oracle, bookkeeping."""

import numpy as np
import pytest

from taperfwm import jta, run_source, table1_config
from taperfwm.config import derive_run_params
from taperfwm.jta import _source_diag, evolve_jta, perturbative_oracle, step_drives
from taperfwm.metrics import jta_to_jsa
from taperfwm.mismatch import mismatch_phase
from taperfwm.pumps import PropagationError, initial_envelopes, propagate_pumps

from _reference import global_phase, reference_jta, spectral_source

FAST = {"n_t": 64, "n_z": 100}


def _cfg(**kw):
    return table1_config(numerics={**FAST, **kw.pop("numerics", {})}, **kw)


def test_source_zero_gamma():
    cfg = _cfg()
    a1, a2 = initial_envelopes(cfg)
    s = _source_diag(a1, a2, 0.0, 0.0, cfg.grid().dt)
    assert np.all(s == 0.0)


def test_source_no_overlap():
    cfg = _cfg(pump={"tau": 4.8e-12})
    a1, a2 = initial_envelopes(cfg)
    prod = np.abs(a1 * a2)
    assert prod.max() < 1e-10 * np.abs(a1).max() * np.abs(a2).max()
    s = _source_diag(a1, a2, 1.34, 0.0, cfg.grid().dt)
    assert np.abs(s).max() <= 2 * np.pi * 1.34 * prod.max() / cfg.grid().dt * (1 + 1e-12)


def test_source_diagonal_vs_spectral():
    cfg = table1_config(numerics={"n_t": 128, "n_z": 100}, pump={"tau": 1.0e-12})
    a1, a2 = initial_envelopes(cfg)
    g = cfg.grid()
    d = np.diag(_source_diag(a1, a2, 1.34, 0.37, g.dt))
    s = spectral_source(a1, a2, g, 1.34, 0.37)
    assert np.max(np.abs(d - s)) <= 1e-10 * np.max(np.abs(d))

    # each step's drive on a tapered, height-offset trace: the trace's
    # midpoint pumps and the source at Theta of the step midpoint
    cfg = cfg.replace(geometry={"taper_amplitude": 0.1e-6, "height_offset": 2e-9})
    trace = propagate_pumps(cfg)
    drives = list(step_drives(cfg, trace))
    assert len(drives) == trace.n_z
    for k in (0, 25, 50, 99):
        a1, a2, diag = drives[k]
        assert np.array_equal(a1, trace.mid[0, k]) and np.array_equal(a2, trace.mid[1, k])
        theta = mismatch_phase(cfg, trace.z_mid[k])
        s = spectral_source(a1, a2, g, cfg.dispersion.gamma_p1p2si, theta)
        assert np.max(np.abs(np.diag(diag) - s)) <= 1e-10 * np.max(np.abs(diag))


def test_oracle_equivalence():
    cfg = _cfg(numerics={"n_z": 500, "xpm_spm_enabled": False},
               geometry={"taper_amplitude": 0.1e-6})
    trace = propagate_pumps(cfg)
    stepped = evolve_jta(cfg, trace).jta
    direct = perturbative_oracle(cfg, trace)
    num = np.linalg.norm(stepped.values - direct.values)
    den = np.linalg.norm(direct.values)
    assert num / den <= 1e-6


def test_oracle_requires_nl_off():
    cfg = _cfg()
    trace = propagate_pumps(cfg)
    with pytest.raises(ValueError):
        perturbative_oracle(cfg, trace)


def test_xi_profile_shape_and_positivity(fast_run):
    prof = fast_run.result.xi_profile
    assert prof.xi[0] == 0.0
    assert np.all(prof.xi >= 0.0)
    assert prof.z_nodes[0] == 0.0
    assert prof.z_nodes[-1] == pytest.approx(1.5e-2)


def test_xi_rhs_bookkeeping(fast_run):
    # cumulative loss/source accounting must reproduce the final norm
    res = fast_run.result
    assert res.xi_profile.xi[-1] == pytest.approx(res.jta.norm_sq, rel=1e-10)


def test_generation_rises_after_match_point(fast_run):
    prof = fast_run.result.xi_profile
    L = 1.5e-2
    half = prof.xi[-1] / 2.0
    z_half = prof.z_nodes[np.searchsorted(prof.xi, half)]
    # tau = 0.5 tau_max: the rise is centered near mid-waveguide
    assert z_half / L == pytest.approx(0.5, abs=0.06)
    early = prof.xi[prof.z_nodes < 0.25 * L]
    assert early.max() <= 0.05 * prof.xi[-1]


def test_loss_decay_with_source_off(monkeypatch):
    # with the source switched off halfway (XPM left on), xi decays at
    # exactly alpha_s + alpha_i, and the stepped norm meets the bookkeeping
    cfg = _cfg()
    trace = propagate_pumps(cfg)
    half = trace.n_z // 2
    real_step_drives = jta.step_drives

    def source_off_from_half(cfg, trace):
        for k, (a1, a2, src) in enumerate(real_step_drives(cfg, trace)):
            yield a1, a2, (src if k < half else np.zeros_like(src))

    monkeypatch.setattr(jta, "step_drives", source_off_from_half)
    res = evolve_jta(cfg, trace)
    rp = derive_run_params(cfg)
    sigma = rp.alpha_m["s"] + rp.alpha_m["i"]
    z, xi = res.xi_profile.z_nodes, res.xi_profile.xi
    model = xi[half] * np.exp(-sigma * (z[half:] - z[half]))
    assert xi[half] > 0.0
    assert np.max(np.abs(xi[half:] - model) / model) <= 1e-6
    assert res.jta.norm_sq == pytest.approx(xi[-1], rel=1e-10)


def test_quadratic_power_scaling():
    cfg = _cfg(numerics={"xpm_spm_enabled": False},
               dispersion={"alpha_s": 1e-12, "alpha_i": 1e-12})
    xis = []
    for p in (2e-5, 2e-4):
        out = run_source(cfg.replace(pump={"avg_power": p}))
        xis.append(out.metrics.xi)
    assert xis[1] / xis[0] == pytest.approx(100.0, rel=5e-3)


def test_snapshots_cover_run(fast_run):
    snaps = fast_run.result.snapshots
    assert len(snaps) >= 2
    assert snaps[0].z == 0.0
    assert snaps[-1].z == pytest.approx(1.5e-2)
    # final snapshot is the final state
    assert np.allclose(snaps[-1].values, fast_run.result.jta.values)


def test_parseval_on_conversion(fast_run):
    phi = fast_run.result.jta
    jsa = jta_to_jsa(phi)
    assert jsa.integrate_norm() == pytest.approx(phi.integrate_norm(), rel=1e-10)


def test_nz_convergence():
    cfg = _cfg(numerics={"n_z": 200})
    xi1 = run_source(cfg).metrics.xi
    xi2 = run_source(cfg.replace(numerics={"n_z": 400})).metrics.xi
    assert abs(xi2 - xi1) / xi2 < 1e-3


def test_redistribution_invariance():
    # any split of the mismatch among the four fields gives the stepper's
    # amplitude, up to a global phase
    cfg = table1_config(numerics={"n_t": 64, "n_z": 200}, geometry={"taper_amplitude": 0.1e-6})
    phi = run_source(cfg).result.jta.values
    scale = np.abs(phi).max()
    for weights in ((0.5, 0.5, 0.0, 0.0), (0.2, 0.3, -0.2, -0.3), (1.5, 0.0, 0.25, 0.25)):
        ref, _ = reference_jta(cfg, weights)
        assert np.max(np.abs(phi - ref * global_phase(cfg, weights))) <= 1e-12 * scale


@pytest.mark.parametrize("xpm, taper, disp", [
    *(pytest.param(xpm, taper, True, id=f"{xpm}-{taper}")
      for xpm in (True, False) for taper in (0.0, 0.1e-6)),
    pytest.param(True, 0.1e-6, False, id="True-1e-07-no-dispersion"),
])
def test_fused_stepper_matches_reference(xpm, taper, disp):
    cfg = _cfg(numerics={"xpm_spm_enabled": xpm, "dispersion_enabled": disp},
               geometry={"taper_amplitude": taper})
    weights = (0.2, 0.3, -0.2, -0.3)
    res = evolve_jta(cfg, propagate_pumps(cfg))
    ref_jta, ref_xi = reference_jta(cfg, weights)
    ref_jta = ref_jta * global_phase(cfg, weights)
    assert np.max(np.abs(res.jta.values - ref_jta)) <= 1e-12 * np.max(np.abs(ref_jta))
    assert np.max(np.abs(res.xi_profile.xi - ref_xi)) <= 1e-12 * ref_xi.max()


def test_snapshot_nodes_do_not_change_result():
    # a snapshot at every node and one at each end step the state alike
    cfg = _cfg(geometry={"taper_amplitude": 0.1e-6})
    trace = propagate_pumps(cfg)
    every = evolve_jta(cfg, trace, snapshots=FAST["n_z"] + 1)
    ends = evolve_jta(cfg, trace, snapshots=2)
    assert len(every.snapshots) == FAST["n_z"] + 1
    assert len(ends.snapshots) == 2
    assert np.array_equal(every.jta.values, ends.jta.values)
    assert np.array_equal(every.xi_profile.xi, ends.xi_profile.xi)


def test_snapshot_norms_match_xi_profile(fast_run):
    prof = fast_run.result.xi_profile
    for snap in fast_run.result.snapshots:
        (k,) = np.flatnonzero(prof.z_nodes == snap.z)
        assert np.isclose(snap.integrate_norm(), prof.xi[k], rtol=1e-12, atol=0.0)


def test_nan_pump_midpoint_names_first_bad_step():
    cfg = _cfg()
    trace = propagate_pumps(cfg)
    trace.mid = trace.mid.copy()
    trace.mid[0, 41, 7] = np.nan
    trace.mid[0, 60, 7] = np.nan
    with pytest.raises(PropagationError, match=r"diverged at step 42$"):
        evolve_jta(cfg, trace)


def test_no_snapshots_same_result():
    cfg = _cfg(geometry={"taper_amplitude": 0.1e-6})
    trace = propagate_pumps(cfg)
    none = evolve_jta(cfg, trace)
    every = evolve_jta(cfg, trace, snapshots=FAST["n_z"] + 1)
    assert none.snapshots == []
    assert np.array_equal(every.jta.values, none.jta.values)
    assert np.array_equal(every.xi_profile.xi, none.xi_profile.xi)


@pytest.mark.parametrize("count", [-1, 1, FAST["n_z"] + 2])
def test_snapshot_count_out_of_range(count):
    cfg = _cfg()
    trace = propagate_pumps(cfg)
    with pytest.raises(ValueError, match="snapshots"):
        evolve_jta(cfg, trace, snapshots=count)


def test_bookkeeping_checked_on_every_run(monkeypatch):
    # a stepped field that loses no norm cannot match the loss bookkeeping
    real = jta.linear_exponents
    monkeypatch.setattr(jta, "linear_exponents",
                        lambda cfg, grid, fields: 1j * real(cfg, grid, fields).imag)
    cfg = _cfg()
    trace = propagate_pumps(cfg)
    with pytest.raises(PropagationError, match="bookkeeping"):
        evolve_jta(cfg, trace)
