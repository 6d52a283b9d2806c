"""Two-source visibilities, delay compensation, optimizer, delay-line sizing."""

import multiprocessing
import pickle
from collections import Counter

import numpy as np
import pytest

from taperfwm import interference, run_source, table1_config
from taperfwm.config import ConfigError, Grid, NumericsSpec, tau_max_of
from taperfwm.interference import (
    align_arrival_times,
    apply_time_shift,
    evaluate_pair,
    hhom_visibility,
    optimize_delays,
    rhom_visibility,
)
from taperfwm.jta import BLOCKS, JointAmplitude
from taperfwm.metrics import arrival_times, heralded_purity
from taperfwm import simulate

from _reference import delay_line_requirements

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
    store = {}
    study = evaluate_pair(fast_cfg, fast_cfg, store)
    assert study.v_rhom == pytest.approx(1.0, abs=1e-9)
    assert study.v_hhom == pytest.approx(heralded_purity(store[fast_cfg]), abs=1e-9)


def test_optimizer_identical_sources_degenerate_optimum():
    cfg = table1_config(numerics=FAST)
    study = optimize_delays(cfg, cfg)
    tm = tau_max_of(cfg)
    assert study.v_rhom == pytest.approx(1.0, abs=1e-9)
    assert study.optimal_tau1 == pytest.approx(tm / 2.0, abs=tm / 200.0)
    assert study.optimal_tau2 == pytest.approx(tm / 2.0, abs=tm / 200.0)


def test_optimizer_beats_center(fast_cfg):
    cfg2 = fast_cfg.replace(geometry={"height_offset": 2e-9})
    center = evaluate_pair(fast_cfg, cfg2)
    study = optimize_delays(fast_cfg, cfg2)
    assert study.v_rhom >= center.v_rhom - 1e-12


def _serial(monkeypatch):
    monkeypatch.setattr(simulate, "worker_count", lambda: 1)


def _pooled(monkeypatch):
    # two workers even on a single CPU, so that the pool path is exercised
    monkeypatch.setattr(simulate, "worker_count", lambda: 2)


def _count_runs(monkeypatch):
    """The configuration, tau included, of every source run in this process."""
    runs = []
    real_run_source = interference.run_source

    def counted(cfg, **kw):
        runs.append(cfg)
        return real_run_source(cfg, **kw)

    monkeypatch.setattr(interference, "run_source", counted)
    return runs


def test_pair_and_optimizer_share_source_runs(monkeypatch, fast_cfg):
    # run_source is counted in this process, so the runs must stay in it
    _serial(monkeypatch)
    cfg2 = fast_cfg.replace(geometry={"height_offset": 2e-9})
    raw_alone = evaluate_pair(fast_cfg, cfg2)
    opt_alone = optimize_delays(fast_cfg, cfg2)

    runs = _count_runs(monkeypatch)
    store = {}
    raw = evaluate_pair(fast_cfg, cfg2, store)
    opt = optimize_delays(fast_cfg, cfg2, runs=store)

    # the raw pair sits at tau_max/2, the optimizer's start point: every
    # run is distinct and the raw runs are not repeated
    assert len(runs) == len(set(runs))
    assert (raw.v_rhom, raw.v_hhom) == (raw_alone.v_rhom, raw_alone.v_hhom)
    assert opt.candidates == opt_alone.candidates
    assert (opt.optimal_tau1, opt.optimal_tau2) == (opt_alone.optimal_tau1, opt_alone.optimal_tau2)
    assert (opt.v_rhom, opt.v_hhom) == (opt_alone.v_rhom, opt_alone.v_hhom)


def test_equal_configs_share_one_store(monkeypatch, fast_cfg):
    # the two sources of a pair of one configuration are one run per delay,
    # and the optimizer reuses the raw pair's run at tau_max/2
    _serial(monkeypatch)
    runs = _count_runs(monkeypatch)
    store = {}
    raw = evaluate_pair(fast_cfg, fast_cfg, store)
    opt = optimize_delays(fast_cfg, fast_cfg, runs=store)
    assert len(runs) == len(set(runs)) == len(store)
    assert raw.v_rhom == pytest.approx(1.0, abs=1e-12)
    assert opt.v_rhom == pytest.approx(1.0, abs=1e-12)


def test_equal_configs_without_a_store_simulate_each_delay_once(monkeypatch, fast_cfg):
    _serial(monkeypatch)
    runs = _count_runs(monkeypatch)
    opt = optimize_delays(fast_cfg, fast_cfg)
    assert len(runs) == len(set(runs))
    assert {c[0] for c in opt.candidates} == {cfg.pump.tau for cfg in runs}


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


@pytest.mark.parametrize("kind", ["hhom", "rhom"])
@pytest.mark.parametrize("n", [60, 100])
def test_hhom_matches_blas_product_with_ragged_tiles(rng, n, kind):
    # n is no multiple of BLOCKS, so the last block of rows or columns is
    # narrower and the tiles of a^H b on the right and bottom edges are
    # ragged; Schmidt values spread from 1 to 0.01, and b a perturbed a,
    # give every tile and every block of rows a share of the sum
    assert n % BLOCKS
    grid = Grid.from_numerics(NumericsSpec(n_t=n, t_window=(-8.0, 8.0)))
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    a = (q1 * np.logspace(0, -2, n)) @ q2
    b = a + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
    norms = np.sum(np.abs(a) ** 2) * np.sum(np.abs(b) ** 2)
    if kind == "hhom":
        got, ref = hhom_visibility(_amp(a, grid), _amp(b, grid)), np.sum(np.abs(a.conj().T @ b) ** 2)
    else:
        got, ref = rhom_visibility(_amp(a, grid), _amp(b, grid)), abs(np.vdot(b, a)) ** 2
    assert abs(got - ref / norms) <= 1e-12


def _lstsq_fit(v, xs, ys):
    """The gradient and Hessian at the origin of the least-squares
    quadratic over v, from np.linalg.lstsq on the monomial basis."""
    x, y = (g.ravel().astype(float) for g in np.meshgrid(xs, ys, indexing="ij"))
    basis = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=1)
    c = np.linalg.lstsq(basis, np.ravel(v), rcond=None)[0]
    return (c[1], c[2]), (2.0 * c[3], c[4], 2.0 * c[5])


def _lstsq_peak(v, stencils, best, n):
    """The lattice point of the lstsq fit's peak, by np.linalg.det and
    np.linalg.solve, or None where the fit has no peak."""
    (gx, gy), (hxx, hxy, hyy) = _lstsq_fit(v, *(np.subtract(s, b) for s, b in zip(stencils, best)))
    hess = np.array([[hxx, hxy], [hxy, hyy]])
    if not (hess[0, 0] < 0.0 and np.linalg.det(hess) > 0.0):
        return None
    step = np.linalg.solve(hess, [-gx, -gy])
    return tuple(round(min(max(b + float(d), 0.0), float(n))) for b, d in zip(best, step))


def test_closed_form_fit_matches_lstsq(rng):
    # stencils as _stencil forms them: best and two other lattice points
    # per axis, up to 40 cells away on either side, over scores of a
    # random quadratic with noise, peaked or not
    n = LATTICE_CELLS
    offsets = [d for d in range(-40, 41) if d]
    peaks = 0
    for _ in range(2000):
        best = tuple(int(b) for b in rng.integers(40, n - 40, size=2))
        stencils = [sorted([b, *(b + int(d) for d in rng.choice(offsets, 2, replace=False))])
                    for b in best]
        xs, ys = (np.subtract(s, b) for s, b in zip(stencils, best))
        h = np.abs(rng.normal(scale=1e-3, size=3)) * (-1.0, 0.5, -1.0)
        g = rng.normal(scale=1e-2, size=2)
        v = [[0.9 + g[0] * x + g[1] * y + (h[0] * x * x + 2 * h[1] * x * y + h[2] * y * y) / 2
              + rng.normal(scale=1e-3) for y in ys] for x in xs]
        grad, hess = interference._quadratic_fit(v, list(xs), list(ys))
        ref_grad, ref_hess = _lstsq_fit(v, xs, ys)
        assert np.max(np.abs(np.subtract(grad, ref_grad))) <= 1e-10 * np.max(np.abs(ref_grad))
        assert np.max(np.abs(np.subtract(hess, ref_hess))) <= 1e-10 * np.max(np.abs(ref_hess))
        scores = {(i, j): v[k][m] for k, i in enumerate(stencils[0])
                  for m, j in enumerate(stencils[1])}
        peak = interference._model_peak(scores, stencils, best, n)
        assert peak == _lstsq_peak(v, stencils, best, n)
        peaks += peak is not None
    # both branches are taken many times
    assert 200 <= peaks <= 1800


def test_optimizer_runs_no_metrics(monkeypatch, fast_cfg):
    from taperfwm import simulate

    def forbidden(*args):
        raise AssertionError("optimize_delays computed source metrics")

    monkeypatch.setattr(simulate, "compute_metrics", forbidden)
    cfg2 = fast_cfg.replace(geometry={"height_offset": 2e-9})
    study = optimize_delays(fast_cfg, cfg2)
    assert study.candidates


def _optimize(monkeypatch, pool, cfg1, cfg2):
    (_pooled if pool else _serial)(monkeypatch)
    runs = {}
    return optimize_delays(cfg1, cfg2, runs=runs), runs


# criterion 8's pair on the fast grid: its optimum lies away from
# tau_max/2, so the search refines it over several batches
MOVING_PAIR = table1_config(numerics=FAST, geometry={"taper_amplitude": 0.1e-6})


def test_pool_and_serial_paths_agree_bitwise(monkeypatch):
    cfg2 = MOVING_PAIR.replace(geometry={"width_offset": 60e-9})
    serial, serial_runs = _optimize(monkeypatch, False, MOVING_PAIR, cfg2)
    pooled, pooled_runs = _optimize(monkeypatch, True, MOVING_PAIR, cfg2)
    assert pooled.candidates == serial.candidates
    assert (pooled.optimal_tau1, pooled.optimal_tau2) == (serial.optimal_tau1, serial.optimal_tau2)
    assert (pooled.v_rhom, pooled.v_hhom) == (serial.v_rhom, serial.v_hhom)
    assert pooled_runs.keys() == serial_runs.keys()
    for cfg in pooled_runs:
        assert np.array_equal(pooled_runs[cfg].values, serial_runs[cfg].values)


def _record_fills(monkeypatch):
    """The configurations of every _fill call, in call order."""
    calls = []
    real_fill = interference._fill

    def recorded(workers, runs, cfgs):
        calls.append(list(cfgs))
        return real_fill(workers, runs, cfgs)

    monkeypatch.setattr(interference, "_fill", recorded)
    return calls


def _taus(runs, cfg):
    """The delays at which the store holds a run of cfg."""
    return {c.pump.tau for c in runs if c == cfg.replace(pump={"tau": c.pump.tau})}


# every delay is a point tau_max * i/160 of its source's lattice
LATTICE_CELLS = 160


def _lattice(cfg):
    return {tau_max_of(cfg) * (i / LATTICE_CELLS) for i in range(LATTICE_CELLS + 1)}


@pytest.mark.parametrize("pool", [False, True])
def test_runs_are_lattice_points_near_candidates(monkeypatch, pool):
    cfg2 = MOVING_PAIR.replace(geometry={"width_offset": 60e-9})
    study, runs = _optimize(monkeypatch, pool, MOVING_PAIR, cfg2)
    taus1, taus2 = _taus(runs, MOVING_PAIR), _taus(runs, cfg2)
    assert len(taus1) + len(taus2) == len(runs)
    assert taus1 <= _lattice(MOVING_PAIR)
    assert taus2 <= _lattice(cfg2)
    # every run the search takes is paired with every run of the other
    # source: the candidates are the whole product of the two run sets
    assert sorted((c[0], c[1]) for c in study.candidates) == sorted(
        (t1, t2) for t1 in taus1 for t2 in taus2)
    assert study.source_runs == len(runs)


def test_no_source_tau_is_simulated_twice(monkeypatch):
    # the raw pair's runs at tau_max/2 are reused, and a lattice point that
    # two batches reach is the same float, so it hits the cache; the
    # runs are compared at 1e-9 of tau_max, so that delays one ulp apart
    # count as one
    _serial(monkeypatch)
    cfg2 = MOVING_PAIR.replace(geometry={"width_offset": 60e-9})
    tm = tau_max_of(MOVING_PAIR)
    runs = []
    real_run_source = interference.run_source

    def counted(cfg, **kw):
        runs.append((cfg.geometry.width_offset, round(cfg.pump.tau / tm, 9)))
        return real_run_source(cfg, **kw)

    monkeypatch.setattr(interference, "run_source", counted)
    store = {}
    evaluate_pair(MOVING_PAIR, cfg2, store)
    optimize_delays(MOVING_PAIR, cfg2, runs=store)
    assert len(runs) == len(set(runs))
    assert len(runs) == len(store)


def test_each_amplitude_is_reduced_once(monkeypatch, fast_cfg):
    # a raw pair and the optimizer that reuses its runs form the marginals
    # of each stored run, and of any shifted copy, at most once
    _serial(monkeypatch)
    reduced = []  # holds every reduced amplitude, so that no id is reused
    prop = JointAmplitude.__dict__["marginals"]
    real = prop.func

    def counted(phi):
        reduced.append(phi)
        return real(phi)

    monkeypatch.setattr(prop, "func", counted)
    cfg2 = fast_cfg.replace(geometry={"height_offset": 2e-9})
    store = {}
    evaluate_pair(fast_cfg, cfg2, store)
    optimize_delays(fast_cfg, cfg2, runs=store)
    counts = Counter(map(id, reduced))
    assert max(counts.values()) == 1
    assert {id(phi) for phi in store.values()} <= counts.keys()


@pytest.mark.parametrize("short_first", [False, True])
def test_each_source_is_searched_over_its_own_delay_range(short_first):
    # a 1.2 cm waveguide has a walk-through delay tau_max of 3.84 ps, the
    # 1.5 cm one 4.8 ps: in either order, each source's delays run from 0
    # to its own tau_max on its own lattice
    short = MOVING_PAIR.replace(geometry={"length": 1.2e-2})
    cfgs = (short, MOVING_PAIR) if short_first else (MOVING_PAIR, short)
    study = optimize_delays(*cfgs)
    assert np.isfinite(study.v_rhom)
    for k, cfg in enumerate(cfgs):
        taus = {c[k] for c in study.candidates}
        assert taus <= _lattice(cfg)
        assert (min(taus), max(taus)) == (0.0, tau_max_of(cfg))
    assert tau_max_of(short) == pytest.approx(0.8 * tau_max_of(MOVING_PAIR), rel=1e-12)


@pytest.mark.parametrize("study", [evaluate_pair, optimize_delays])
def test_pair_on_two_time_grids_is_refused_before_any_run(monkeypatch, fast_cfg, study):
    _serial(monkeypatch)
    runs = _count_runs(monkeypatch)
    other = fast_cfg.replace(pump={"t0_fwhm": 1.0e-12})
    with pytest.raises(ConfigError, match="share one time grid"):
        study(fast_cfg, other)
    assert runs == []


def test_pool_workers_are_joined(monkeypatch, fast_cfg):
    _pooled(monkeypatch)
    cfg2 = fast_cfg.replace(geometry={"height_offset": 2e-9})
    optimize_delays(fast_cfg, cfg2)
    assert multiprocessing.active_children() == []
    bad = fast_cfg.replace(numerics={"n_z": 50})
    with pytest.raises(ConfigError):
        optimize_delays(bad, bad)
    assert multiprocessing.active_children() == []


def test_validation_failure_pickles_intact():
    cfg = table1_config(numerics={"n_t": 64, "n_z": 50}, pump={"rep_rate": 0.0})
    with pytest.raises(ConfigError) as info:
        run_source(cfg)
    exc = pickle.loads(pickle.dumps(info.value))
    assert isinstance(exc, ConfigError)
    assert str(exc) == "pump.rep_rate must be > 0; numerics.n_z must be >= 100"


def test_worker_validation_failure_reaches_caller(monkeypatch):
    _pooled(monkeypatch)
    cfg = table1_config(numerics={"n_t": 128, "n_z": 50})
    with pytest.raises(ConfigError) as info:
        evaluate_pair(cfg, cfg)
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


def _lattice_index(tau, cfg):
    return round(tau / tau_max_of(cfg) * LATTICE_CELLS)


def test_optimum_is_a_lattice_local_maximum(monkeypatch):
    cfg2 = MOVING_PAIR.replace(geometry={"width_offset": 60e-9})
    study, _ = _optimize(monkeypatch, False, MOVING_PAIR, cfg2)
    scores = {(_lattice_index(t1, MOVING_PAIR), _lattice_index(t2, MOVING_PAIR)): v
              for t1, t2, v in study.candidates}
    assert len(scores) == len(study.candidates)
    best = (_lattice_index(study.optimal_tau1, MOVING_PAIR),
            _lattice_index(study.optimal_tau2, MOVING_PAIR))
    # the report takes the winning candidate's own float
    assert study.v_rhom == scores[best] == max(scores.values())
    neighbours = [(best[0] + d, best[1]) for d in (-1, 1)] + [(best[0], best[1] + d) for d in (-1, 1)]
    for cell in neighbours:
        if 0 <= min(cell) and max(cell) <= LATTICE_CELLS:
            assert scores[cell] <= scores[best]


def test_optimizer_makes_no_lapack_call(monkeypatch):
    # the local model is fitted and solved by hand: with np.linalg's
    # least squares, solve and det refused, the search still finds the
    # optimum that the lstsq fit found, after as many runs and candidates
    def refused(*args, **kwargs):
        raise AssertionError("the optimizer called LAPACK")

    for name in ("lstsq", "solve", "det"):
        monkeypatch.setattr(np.linalg, name, refused)
    _serial(monkeypatch)
    cfg2 = MOVING_PAIR.replace(geometry={"width_offset": 60e-9})
    study = optimize_delays(MOVING_PAIR, cfg2)
    best = (_lattice_index(study.optimal_tau1, MOVING_PAIR), _lattice_index(study.optimal_tau2, cfg2))
    assert best == (49, 94)
    assert (study.source_runs, len(study.candidates)) == (26, 169)
    assert sum(c[2] == -np.inf for c in study.candidates) == 18
    assert study.v_rhom == pytest.approx(0.9949231037813272, abs=1e-12)


def test_unrelated_run_in_the_store_changes_nothing(monkeypatch):
    cfg2 = MOVING_PAIR.replace(geometry={"width_offset": 60e-9})
    plain, plain_runs = _optimize(monkeypatch, False, MOVING_PAIR, cfg2)
    visited = {_lattice_index(cfg.pump.tau, MOVING_PAIR) for cfg in plain_runs}
    extra = cfg2.replace(pump={"tau": tau_max_of(cfg2) * (next(
        i for i in range(LATTICE_CELLS + 1) if i not in visited) / LATTICE_CELLS)})
    runs = {extra: run_source(extra).result.jta}
    study = optimize_delays(MOVING_PAIR, cfg2, runs=runs)
    assert study.candidates == plain.candidates
    assert (study.optimal_tau1, study.optimal_tau2) == (plain.optimal_tau1, plain.optimal_tau2)
    assert (study.v_rhom, study.v_hhom) == (plain.v_rhom, plain.v_hhom)
    assert extra.pump.tau not in {c[1] for c in study.candidates}
    assert runs.keys() == plain_runs.keys() | {extra}


@pytest.mark.parametrize("jobs", [2, 3])
def test_batches_do_not_depend_on_the_worker_count(monkeypatch, jobs):
    cfg2 = MOVING_PAIR.replace(geometry={"width_offset": 60e-9})
    _serial(monkeypatch)
    serial_calls = _record_fills(monkeypatch)
    serial = optimize_delays(MOVING_PAIR, cfg2)
    monkeypatch.undo()
    monkeypatch.setattr(simulate, "worker_count", lambda: jobs)
    pooled_calls = _record_fills(monkeypatch)
    runs = {}
    pooled = optimize_delays(MOVING_PAIR, cfg2, runs=runs)
    assert pooled_calls == serial_calls
    assert pooled.candidates == serial.candidates
    assert (pooled.optimal_tau1, pooled.optimal_tau2) == (serial.optimal_tau1, serial.optimal_tau2)
    assert (pooled.v_rhom, pooled.v_hhom) == (serial.v_rhom, serial.v_hhom)
    for cfg, jta in runs.items():
        assert np.array_equal(jta.values, run_source(cfg).result.jta.values)
