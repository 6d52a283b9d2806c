"""JSA conversion, purity, shifts, arrival times, energy conservation."""

import numpy as np
import pytest

from taperfwm import run_source, table1_config
from taperfwm.config import Grid, NumericsSpec, tau_max_of
from taperfwm.jta import BLOCKS, JointAmplitude, jta_to_jsa
from taperfwm.metrics import (
    _ec_deviation,
    arrival_times,
    heralded_purity,
    mean_shift,
    spectral_cumulative,
)

from _reference import analytic_arrival_times, reference_jsa, reference_jta_of_jsa

T0 = 0.8e-12


def _grid(n=64):
    return Grid.from_numerics(NumericsSpec(n_t=n, t_window=(-8.0, 8.0)))


def _amp(values, grid, domain="time"):
    return JointAmplitude(values=values, domain=domain, grid=grid, z=0.0)


def test_gaussian_product_self_dual():
    g = _grid(128)
    t = g.t_axis
    vals = np.exp(-0.5 * t[:, None] ** 2) * np.exp(-0.5 * t[None, :] ** 2)
    jsa = jta_to_jsa(_amp(vals, g))
    w = g.w_axis
    expect = np.exp(-0.5 * w[:, None] ** 2) * np.exp(-0.5 * w[None, :] ** 2)
    expect = expect / np.abs(expect).max() * np.abs(jsa.values).max()
    assert np.max(np.abs(np.abs(jsa.values) - expect)) <= 1e-8 * np.abs(jsa.values).max()


def test_round_trip_and_parseval():
    g = _grid()
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    phi = _amp(vals, g)
    jsa = jta_to_jsa(phi)
    assert jsa.norm_sq == pytest.approx(phi.norm_sq, rel=1e-12)
    back = reference_jta_of_jsa(jsa.values, g)
    assert np.max(np.abs(back - vals)) <= 1e-12 * np.abs(vals).max()


@pytest.mark.parametrize("window", [(-8.0, 8.0), (-3.3, 7.9)])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_jsa_matches_the_shifted_reference(n, window):
    g = Grid.from_numerics(NumericsSpec(n_t=n, t_window=window))
    rng = np.random.default_rng(n)
    vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    ref = reference_jsa(vals, g)
    jsa = jta_to_jsa(_amp(vals, g)).values
    assert np.max(np.abs(jsa - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_transform_pair_needs_an_even_grid():
    g = Grid.from_numerics(NumericsSpec(n_t=63, t_window=(-8.0, 8.0)))
    vals = np.ones((63, 63), complex)
    with pytest.raises(ValueError, match="even"):
        jta_to_jsa(_amp(vals, g))


def test_shift_theorem():
    g = _grid()
    t = g.t_axis
    vals = np.exp(-((t[:, None] - 0.5) ** 2)) * np.exp(-(t[None, :] ** 2))
    a = 4 * g.dt
    shifted = np.exp(-((t[:, None] - 0.5 - a) ** 2)) * np.exp(-(t[None, :] ** 2))
    jsa0 = jta_to_jsa(_amp(vals, g)).values
    jsa1 = jta_to_jsa(_amp(shifted, g)).values
    w = g.w_axis
    ref = jsa0 * np.exp(1j * w * a)[:, None]
    assert np.max(np.abs(jsa1 - ref)) <= 1e-10 * np.abs(jsa0).max()


def test_purity_trivial_cases():
    g = _grid()
    t = g.t_axis
    sep = np.exp(-(t[:, None] ** 2)) * np.exp(-(t[None, :] ** 2))
    assert heralded_purity(_amp(sep, g)) == pytest.approx(1.0, abs=1e-12)
    for r in (2, 5):
        vals = np.zeros((64, 64))
        vals[np.arange(r), np.arange(r)] = 1.0
        assert heralded_purity(_amp(vals, g)) == pytest.approx(1.0 / r, rel=1e-12)


def test_purity_zero_matrix_rejected():
    g = _grid()
    with pytest.raises(ValueError):
        heralded_purity(_amp(np.zeros((64, 64)), g))


def test_purity_domain_invariance(fast_run):
    phi = fast_run.result.jta
    p_t = heralded_purity(phi)
    p_w = heralded_purity(jta_to_jsa(phi))
    assert p_t == pytest.approx(p_w, abs=1e-10)


def test_mean_shift_symmetric_zero():
    g = _grid()
    w = g.w_axis
    vals = np.exp(-np.add.outer(w**2, w**2))
    disp = table1_config().dispersion
    s, i = mean_shift(_amp(vals, g, domain="frequency"), disp, T0)
    assert s == pytest.approx(0.0, abs=1e-18)
    assert i == pytest.approx(0.0, abs=1e-18)


def test_mean_shift_sign_and_scale():
    # a positive mean frequency detuning is a negative wavelength shift
    g = _grid()
    w = g.w_axis
    w0 = 8 * g.dw
    vals = np.exp(-np.add.outer((w - w0) ** 2, w**2) / 0.5)
    disp = table1_config().dispersion
    s, _ = mean_shift(_amp(vals, g, domain="frequency"), disp, T0)
    c = 299792458.0
    expect = -disp.lam_s**2 / (2 * np.pi * c) * w0 / T0
    assert s == pytest.approx(expect, rel=1e-6)


def test_mean_shift_global_phase_invariance(fast_run):
    phi = jta_to_jsa(fast_run.result.jta)
    disp = table1_config().dispersion
    base = mean_shift(phi, disp, T0)
    rot = JointAmplitude(values=phi.values * np.exp(1.2j), domain="frequency",
                         grid=phi.grid, z=phi.z)
    other = mean_shift(rot, disp, T0)
    assert base == pytest.approx(other, rel=1e-12)


def test_arrival_times_point_mass():
    g = _grid()
    vals = np.zeros((64, 64))
    vals[40, 10] = 3.0
    (ms, mi), (ss, si) = arrival_times(_amp(vals, g), T0)
    assert ms == pytest.approx(g.t_axis[40] * T0, rel=1e-12)
    assert mi == pytest.approx(g.t_axis[10] * T0, rel=1e-12)
    assert ss == pytest.approx(0.0, abs=1e-20)
    assert si == pytest.approx(0.0, abs=1e-20)


def test_arrival_times_refuse_a_frequency_domain_amplitude(fast_run):
    # the moments are taken on the JTA's own samples; a JSA is not turned back
    jsa = jta_to_jsa(fast_run.result.jta)
    with pytest.raises(ValueError, match="time-domain"):
        arrival_times(jsa, T0)


def test_analytic_arrival_endpoints():
    cfg = table1_config()
    tm = tau_max_of(cfg)
    ts, ti = analytic_arrival_times(cfg.replace(pump={"tau": tm}))
    assert ts == pytest.approx(0.0, abs=1e-20)
    assert ti == pytest.approx(0.0, abs=1e-20)
    ts0, ti0 = analytic_arrival_times(cfg.replace(pump={"tau": 0.0}))
    assert ts0 == pytest.approx(-T0 * 1.5e-2 / 3.27e-2, rel=1e-9)   # -0.367 ps
    assert ti0 == pytest.approx(T0 * 1.5e-2 / 0.26e-2, rel=1e-9)    # +4.62 ps


@pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
def test_arrival_formula_matches_simulation(frac):
    cfg = table1_config(numerics={"n_t": 128, "n_z": 400})
    tm = tau_max_of(cfg)
    cfg = cfg.replace(pump={"tau": frac * tm})
    out = run_source(cfg)
    ts, ti = analytic_arrival_times(cfg)
    assert abs(out.metrics.arrival_mean_s - ts) <= 0.2 * T0
    assert abs(out.metrics.arrival_mean_i - ti) <= 0.2 * T0


@pytest.mark.parametrize("frac", [0.1, 0.9])
def test_arrival_formula_near_edges(frac):
    # close to the facets part of the generation region is cut off, so the
    # collision-point prediction degrades but stays within half a pulse
    cfg = table1_config(numerics={"n_t": 128, "n_z": 400})
    tm = tau_max_of(cfg)
    cfg = cfg.replace(pump={"tau": frac * tm})
    out = run_source(cfg)
    ts, ti = analytic_arrival_times(cfg)
    assert abs(out.metrics.arrival_mean_s - ts) <= 0.5 * T0
    assert abs(out.metrics.arrival_mean_i - ti) <= 0.5 * T0


def test_arrival_stds_pulse_scale(fast_run):
    m = fast_run.metrics
    for s in (m.arrival_std_s, m.arrival_std_i):
        assert 0.3 * T0 <= s <= 3.0 * T0


def test_ec_deviation_low_power():
    cfg = table1_config(numerics={"n_t": 128, "n_z": 400}, pump={"avg_power": 1e-4})
    out = run_source(cfg)
    jsa = jta_to_jsa(out.result.jta)
    dev = _ec_deviation(*mean_shift(jsa, cfg.dispersion, T0), cfg.dispersion)
    assert abs(dev) < 0.5e-9


def test_frequency_sum_near_zero_low_power():
    cfg = table1_config(numerics={"n_t": 128, "n_z": 400}, pump={"avg_power": 1e-5})
    out = run_source(cfg)
    jsa = jta_to_jsa(out.result.jta)
    disp = cfg.dispersion
    s, i = mean_shift(jsa, disp, T0)
    c = 299792458.0
    ws = -s * 2 * np.pi * c / disp.lam_s**2 * T0
    wi = -i * 2 * np.pi * c / disp.lam_i**2 * T0
    assert abs(ws + wi) <= jsa.grid.dw


def test_spectral_cumulative_growth():
    # the accumulation is coherent, so off the phase-matching curve the
    # contributions from different z interfere and individual bins may dip;
    # the total and the phase-matched peak bin must still grow monotonically
    cfg = table1_config(
        numerics={"n_t": 64, "n_z": 200, "xpm_spm_enabled": False},
        dispersion={"alpha_s": 1e-12, "alpha_i": 1e-12},
    )
    out = run_source(cfg, snapshots=8)
    zs, w_axis, smap = spectral_cumulative(out.result.snapshots)
    assert smap.shape == (len(zs), 64)
    totals = smap.sum(axis=1)
    assert np.all(np.diff(totals) >= -1e-10 * totals.max())
    # even the peak bin shows sub-percent dips from slightly dephased late
    # contributions; only growth beyond that scale is required
    peak_bin = int(np.argmax(smap[-1]))
    assert np.all(np.diff(smap[:, peak_bin]) >= -6e-3 * smap.max())


def test_spectral_cumulative_needs_snapshots(fast_run):
    with pytest.raises(ValueError, match="two snapshots"):
        spectral_cumulative(fast_run.result.snapshots[:1])


def test_spectral_map_refuses_a_jsa(fast_run):
    with pytest.raises(ValueError, match="time-domain"):
        spectral_cumulative([jta_to_jsa(s) for s in fast_run.result.snapshots[:2]])


def test_spectral_map_is_that_of_the_jsas(fast_run):
    # the map reads each snapshot's Idler spectrum from 1-D transforms of
    # blocks of its JTA; built from each snapshot's whole JSA instead, on
    # the sorted frequency axis, it is the same map
    snaps = fast_run.result.snapshots
    zs, w_axis, smap = spectral_cumulative(snaps)
    ref = np.array([jta_to_jsa(s).marginals[1] for s in snaps])
    ref /= ref.max()
    assert np.array_equal(zs, [s.z for s in snaps])
    assert np.array_equal(w_axis, snaps[0].grid.w_axis)
    assert np.max(np.abs(smap - ref)) <= 1e-12


def test_mean_shift_of_a_jta_is_that_of_its_jsa(fast_run):
    # the JTA's shifts come from 1-D transforms of its blocks, with no JSA,
    # and leave the JTA as it was
    phi = fast_run.result.jta
    before = phi.values.copy()
    disp = table1_config().dispersion
    got = mean_shift(phi, disp, T0)
    assert got == pytest.approx(mean_shift(jta_to_jsa(phi), disp, T0), rel=1e-12)
    assert np.array_equal(phi.values, before)


def test_schmidt_number_inverse(fast_run):
    m = fast_run.metrics
    assert m.purity * m.schmidt_number == pytest.approx(1.0, abs=1e-12)


def _svd_purity(values):
    s = np.linalg.svd(values, compute_uv=False)
    p = s**2 / np.sum(s**2)
    return float(np.sum(p**2))


def test_purity_matches_svd_on_graded_matrix(rng):
    # Schmidt values spread from 1 to 1e-18
    n = 64
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    vals = (q1 * np.logspace(0, -18, n)) @ q2
    p = heralded_purity(_amp(vals, _grid()))
    assert abs(p - _svd_purity(vals)) <= 1e-12


def test_purity_matches_svd_on_simulated_jta(fast_run):
    phi = fast_run.result.jta
    assert abs(heralded_purity(phi) - _svd_purity(phi.values)) <= 1e-12


@pytest.mark.parametrize("n", [60, 100])
def test_purity_matches_svd_with_ragged_tiles(rng, n):
    # n is no multiple of BLOCKS, so the last block of columns is narrower
    # and the tiles on the right and bottom edges are ragged; Schmidt values
    # spread from 1 to 0.01 give every tile of A^H A a share of the sum
    assert n % BLOCKS
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    vals = (q1 * np.logspace(0, -2, n)) @ q2
    p = heralded_purity(_amp(vals, _grid(n)))
    assert abs(p - _svd_purity(vals)) <= 1e-12
