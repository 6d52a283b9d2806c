"""Two-source visibilities, delay compensation, optimizer, delay-line sizing."""

import multiprocessing
import pickle

import numpy as np
import pytest

from taperfwm import interference, run_source, table1_config
from taperfwm.config import tau_max_of
from taperfwm.interference import (
    SourceCache,
    align_arrival_times,
    apply_time_shift,
    delay_line_requirements,
    evaluate_pair,
    hhom_visibility,
    optimize_delays,
    rhom_visibility,
)
from taperfwm.jta import JointAmplitude
from taperfwm.metrics import arrival_times, heralded_purity
from taperfwm.simulate import ValidationFailure

T0 = 0.8e-12
FAST = {"n_t": 64, "n_z": 100}


def _amp(values, grid):
    return JointAmplitude(values=values, domain="time", grid=grid, z=0.0)


def test_rhom_self_is_one(fast_run):
    phi = fast_run.result.jta
    assert rhom_visibility(phi, phi) == pytest.approx(1.0, abs=1e-12)


def test_rhom_disjoint_supports(fast_cfg):
    g = fast_cfg.grid()
    a = np.zeros((64, 64))
    b = np.zeros((64, 64))
    a[5, 5] = 1.0
    b[40, 40] = 1.0
    assert rhom_visibility(_amp(a, g), _amp(b, g)) == 0.0


def test_rhom_symmetric(fast_run, rng):
    phi = fast_run.result.jta
    g = phi.grid
    other = _amp(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)), g)
    assert rhom_visibility(phi, other) == pytest.approx(rhom_visibility(other, phi), rel=1e-12)


def test_rhom_invariant_under_common_shift(fast_run):
    phi = fast_run.result.jta
    other = apply_time_shift(phi, 0.3 * T0, -0.2 * T0, T0, wrap_tol=1e-3)
    v0 = rhom_visibility(phi, phi)
    v1 = rhom_visibility(other, other)
    assert v1 == pytest.approx(v0, abs=1e-9)


def test_hhom_equals_purity(fast_run):
    phi = fast_run.result.jta
    assert hhom_visibility(phi, phi) == pytest.approx(heralded_purity(phi), abs=1e-10)


def test_hhom_product_state_is_one(fast_cfg):
    g = fast_cfg.grid()
    t = g.t_axis
    vals = np.exp(-(t[:, None] ** 2)) * np.exp(-((t[None, :] - 1.0) ** 2))
    phi = _amp(vals, g)
    assert hhom_visibility(phi, phi) == pytest.approx(1.0, abs=1e-12)


def test_visibility_bounds(fast_run, rng):
    phi = fast_run.result.jta
    g = phi.grid
    for _ in range(5):
        other = _amp(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)), g)
        for v in (rhom_visibility(phi, other), hhom_visibility(phi, other)):
            assert -1e-9 <= v <= 1.0 + 1e-9


def test_time_shift_zero_identity(fast_run):
    phi = fast_run.result.jta
    out = apply_time_shift(phi, 0.0, 0.0, T0)
    assert np.array_equal(out.values, phi.values)


def test_time_shift_norm_and_round_trip(fast_run):
    phi = fast_run.result.jta
    a, b = 0.7 * T0, -0.4 * T0
    fwd = apply_time_shift(phi, a, b, T0, wrap_tol=1e-3)
    assert fwd.integrate_norm() == pytest.approx(phi.integrate_norm(), rel=1e-12)
    back = apply_time_shift(fwd, -a, -b, T0, wrap_tol=1e-3)
    assert np.max(np.abs(back.values - phi.values)) <= 1e-10 * np.abs(phi.values).max()


def test_time_shift_moves_arrivals(fast_run):
    # shifting the argument by +a moves the waveform a pulse-widths earlier
    phi = fast_run.result.jta
    (ms0, mi0), _ = arrival_times(phi, T0)
    out = apply_time_shift(phi, -0.5 * T0, 0.25 * T0, T0, wrap_tol=1e-3)
    (ms1, mi1), _ = arrival_times(out, T0)
    assert ms1 - ms0 == pytest.approx(0.5 * T0, abs=0.02 * T0)
    assert mi1 - mi0 == pytest.approx(-0.25 * T0, abs=0.02 * T0)


def test_time_shift_wrap_rejected(fast_cfg):
    g = fast_cfg.grid()
    vals = np.zeros((64, 64))
    vals[2, 2] = 1.0  # close to the lower window edge
    phi = _amp(vals, g)
    with pytest.raises(ValueError, match="periodic boundary"):
        apply_time_shift(phi, 2.0 * T0, 0.0, T0)


def test_align_arrival_times(fast_cfg):
    cfg2 = fast_cfg.replace(pump={"tau": 0.8 * tau_max_of(fast_cfg)})
    phi1 = run_source(fast_cfg).result.jta
    phi2 = run_source(cfg2).result.jta
    shifted, ds, di = align_arrival_times(phi1, phi2, T0, wrap_tol=1e-2)
    (m1s, m1i), _ = arrival_times(phi1, T0)
    (m2s, m2i), _ = arrival_times(shifted, T0)
    dt_s = phi1.grid.dt * T0
    assert abs(m2s - m1s) <= dt_s
    assert abs(m2i - m1i) <= dt_s


def test_evaluate_pair_identical_sources(fast_cfg):
    study = evaluate_pair(fast_cfg, fast_cfg)
    assert study.v_rhom == pytest.approx(1.0, abs=1e-9)
    assert study.v_hhom == pytest.approx(heralded_purity(study.phi1), abs=1e-9)


def test_optimizer_identical_sources_degenerate_optimum():
    cfg = table1_config(numerics=FAST)
    study = optimize_delays(cfg, cfg, coarse_points=5)
    tm = tau_max_of(cfg)
    assert study.v_rhom == pytest.approx(1.0, abs=1e-9)
    assert study.optimal_tau1 == pytest.approx(tm / 2.0, abs=tm / 200.0)
    assert study.optimal_tau2 == pytest.approx(tm / 2.0, abs=tm / 200.0)


def test_optimizer_beats_center(fast_cfg):
    cfg2 = fast_cfg.replace(geometry={"height_offset": 2e-9})
    center = evaluate_pair(fast_cfg, cfg2)
    study = optimize_delays(fast_cfg, cfg2, coarse_points=5)
    assert study.v_rhom >= center.v_rhom - 1e-12


def _serial(monkeypatch):
    monkeypatch.setattr(interference, "_worker_count", lambda: 1)


def _pooled(monkeypatch):
    # two workers even on a single CPU, so that the pool path is exercised
    monkeypatch.setattr(interference, "_worker_count", lambda: 2)


def test_pair_and_optimizer_share_source_runs(monkeypatch, fast_cfg):
    # run_source is counted in this process, so the runs must stay in it
    _serial(monkeypatch)
    cfg2 = fast_cfg.replace(geometry={"height_offset": 2e-9})
    raw_alone = evaluate_pair(fast_cfg, cfg2)
    opt_alone = optimize_delays(fast_cfg, cfg2, coarse_points=3)

    runs = []
    real_run_source = interference.run_source

    def counted(cfg):
        runs.append((cfg.geometry.height_offset, cfg.pump.tau))
        return real_run_source(cfg)

    monkeypatch.setattr(interference, "run_source", counted)
    sources = (SourceCache(fast_cfg), SourceCache(cfg2))
    raw = evaluate_pair(fast_cfg, cfg2, sources)
    opt = optimize_delays(fast_cfg, cfg2, coarse_points=3, sources=sources)

    # the raw pair sits at tau_max/2, the optimizer's start point: every
    # run is distinct and the raw runs are not repeated
    assert len(runs) == len(set(runs))
    taus1 = {c[0] for c in opt.candidates}
    taus2 = {c[1] for c in opt.candidates}
    assert len(runs) == len(taus1) + len(taus2)
    assert (raw.v_rhom, raw.v_hhom) == (raw_alone.v_rhom, raw_alone.v_hhom)
    assert opt.candidates == opt_alone.candidates
    assert (opt.optimal_tau1, opt.optimal_tau2) == (opt_alone.optimal_tau1, opt_alone.optimal_tau2)
    assert (opt.v_rhom, opt.v_hhom) == (opt_alone.v_rhom, opt_alone.v_hhom)


def test_source_caches_must_match_configs(fast_cfg):
    cfg2 = fast_cfg.replace(geometry={"height_offset": 2e-9})
    with pytest.raises(ValueError):
        evaluate_pair(fast_cfg, cfg2, (SourceCache(cfg2), SourceCache(fast_cfg)))


def test_delay_line_formulas():
    spec = delay_line_requirements(1.47e-12)
    assert spec.fsr == pytest.approx(2 * (1550e-9) ** 2 / (299792458.0 * 1.47e-12), rel=1e-12)
    assert spec.fsr == pytest.approx(10.9e-9, abs=0.2e-9)
    assert spec.bw_3db == pytest.approx(1.27 * spec.fsr / 2.0, rel=1e-12)
    assert spec.bw_3db == pytest.approx(6.9e-9, abs=0.2e-9)
    double = delay_line_requirements(2.94e-12)
    assert double.fsr == pytest.approx(spec.fsr / 2.0, rel=1e-12)


def test_delay_line_rejects_nonpositive():
    with pytest.raises(ValueError):
        delay_line_requirements(0.0)


def test_hhom_matches_density_matrix_trace(fast_run, rng):
    phi = fast_run.result.jta
    other = _amp(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)), phi.grid)
    a = phi.values / np.linalg.norm(phi.values)
    b = other.values / np.linalg.norm(other.values)
    trace = np.trace((a @ a.conj().T) @ (b @ b.conj().T)).real
    assert abs(hhom_visibility(phi, other) - trace) <= 1e-12


def test_optimizer_runs_no_metrics(monkeypatch, fast_cfg):
    from taperfwm import simulate

    def forbidden(*args):
        raise AssertionError("optimize_delays computed source metrics")

    monkeypatch.setattr(simulate, "compute_metrics", forbidden)
    cfg2 = fast_cfg.replace(geometry={"height_offset": 2e-9})
    study = optimize_delays(fast_cfg, cfg2, coarse_points=3)
    assert study.candidates


def _optimize(monkeypatch, pool, cfg1, cfg2, **kw):
    (_pooled if pool else _serial)(monkeypatch)
    sources = (SourceCache(cfg1), SourceCache(cfg2))
    return optimize_delays(cfg1, cfg2, sources=sources, **kw), sources


# criterion 8's pair on the fast grid: its compass search moves, so some
# rounds measure neighbours that no batch could know in advance
MOVING_PAIR = table1_config(numerics=FAST, geometry={"taper_amplitude": 0.1e-6})


def test_pool_and_serial_paths_agree_bitwise(monkeypatch):
    cfg2 = MOVING_PAIR.replace(geometry={"width_offset": 60e-9})
    serial, serial_src = _optimize(monkeypatch, False, MOVING_PAIR, cfg2, coarse_points=5)
    pooled, pooled_src = _optimize(monkeypatch, True, MOVING_PAIR, cfg2, coarse_points=5)
    assert pooled.candidates == serial.candidates
    assert (pooled.optimal_tau1, pooled.optimal_tau2) == (serial.optimal_tau1, serial.optimal_tau2)
    assert (pooled.v_rhom, pooled.v_hhom) == (serial.v_rhom, serial.v_hhom)
    for a, b in zip(pooled_src, serial_src):
        assert a._runs.keys() == b._runs.keys()
        for tau in a._runs:
            assert np.array_equal(a._runs[tau].values, b._runs[tau].values)


def test_pool_runs_only_candidate_taus(monkeypatch):
    cfg2 = MOVING_PAIR.replace(geometry={"width_offset": 60e-9})
    study, (src1, src2) = _optimize(monkeypatch, True, MOVING_PAIR, cfg2, coarse_points=5)
    assert set(src1._runs) == {c[0] for c in study.candidates}
    assert set(src2._runs) == {c[1] for c in study.candidates}


def test_pool_workers_are_joined(monkeypatch, fast_cfg):
    _pooled(monkeypatch)
    cfg2 = fast_cfg.replace(geometry={"height_offset": 2e-9})
    optimize_delays(fast_cfg, cfg2, coarse_points=3)
    assert multiprocessing.active_children() == []
    bad = fast_cfg.replace(numerics={"n_z": 50})
    with pytest.raises(ValidationFailure):
        optimize_delays(bad, bad, coarse_points=3)
    assert multiprocessing.active_children() == []


def test_validation_failure_pickles_intact():
    errors = ["numerics.n_z must be >= 100", "pump.rep_rate must be > 0"]
    exc = pickle.loads(pickle.dumps(ValidationFailure(errors)))
    assert isinstance(exc, ValidationFailure)
    assert exc.errors == errors
    assert str(exc) == "numerics.n_z must be >= 100; pump.rep_rate must be > 0"


def test_worker_validation_failure_reaches_caller(monkeypatch):
    _pooled(monkeypatch)
    cfg = table1_config(numerics={"n_t": 128, "n_z": 50})
    with pytest.raises(ValidationFailure) as info:
        evaluate_pair(cfg, cfg)
    assert info.value.errors == ["numerics.n_z must be >= 100"]
    assert str(info.value) == "numerics.n_z must be >= 100"


@pytest.mark.parametrize("case", ["jta", "random"])
def test_blas_free_objective_matches_numpy(fast_run, case):
    if case == "jta":
        phi = fast_run.result.jta
        other = apply_time_shift(phi, 0.3 * T0, -0.2 * T0, T0, wrap_tol=1e-3)
    else:
        rng = np.random.default_rng(7)
        g = fast_run.result.jta.grid
        phi, other = (_amp(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)), g)
                      for _ in range(2))
    for amp in (phi, other):
        unit = interference._unit(amp)
        ref = amp.values / np.linalg.norm(amp.values)
        assert np.max(np.abs(unit - ref)) <= 1e-14 * np.max(np.abs(ref))
    a = other.values / np.linalg.norm(other.values)
    b = phi.values / np.linalg.norm(phi.values)
    ref = abs(np.vdot(a, b)) ** 2
    v = rhom_visibility(phi, other)
    if case == "jta":
        assert v == pytest.approx(ref, rel=1e-14)
    else:
        # two random amplitudes are nearly orthogonal, and the overlap sum
        # cancels: compare the overlap magnitude against its bound |a||b| = 1
        assert abs(np.sqrt(v) - np.sqrt(ref)) <= 1e-14
