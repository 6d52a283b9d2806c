"""Two-source interference: visibilities, delay compensation and the
pump-delay optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import C_LIGHT, SourceConfig, derive_run_params
from .jta import JointAmplitude
from .metrics import arrival_times, marginals
from .spectral import omega_axis
from .pumps import trace_key
from .simulate import WorkerPool, run_source


@dataclass
class DelayLineSpec:
    delta_t: float          # s, tunable delay range
    fsr: float              # m
    bw_3db: float           # m


@dataclass
class PairStudy:
    cfg1: SourceConfig
    cfg2: SourceConfig
    phi1: JointAmplitude
    phi2: JointAmplitude          # after the compensating time shift
    shift_s: float                # s, applied to source 2
    shift_i: float
    v_rhom: float
    v_hhom: float
    optimal_tau1: float | None = None
    optimal_tau2: float | None = None
    candidates: list = field(default_factory=list)  # (tau1, tau2, objective)


def _check_same_grid(phi1, phi2):
    g1, g2 = phi1.grid, phi2.grid
    if g1.n != g2.n or abs(g1.dt - g2.dt) > 1e-15 or abs(g1.t_axis[0] - g2.t_axis[0]) > 1e-12:
        raise ValueError("joint amplitudes live on different grids")


# _unit and rhom_visibility, the optimizer's objective, sum with np.sum:
# np.linalg.norm and np.vdot on a whole amplitude wake the OpenBLAS thread
# pool, whose spinning threads then compete with the source workers
def _unit(phi: JointAmplitude) -> np.ndarray:
    v = phi.values
    norm = np.sqrt(np.sum(v.real**2 + v.imag**2))
    if norm == 0.0:
        raise ValueError("visibility undefined for a zero amplitude")
    return phi.values / norm


def rhom_visibility(phi1: JointAmplitude, phi2: JointAmplitude) -> float:
    """Two-photon indistinguishability |<phi2|phi1>|^2."""
    _check_same_grid(phi1, phi2)
    if phi1.domain != phi2.domain:
        raise ValueError("joint amplitudes must be in the same domain")
    a, b = _unit(phi1), _unit(phi2)
    return float(np.abs(np.sum(b.conj() * a)) ** 2)


def hhom_visibility(phi1: JointAmplitude, phi2: JointAmplitude) -> float:
    """Heralded Hong-Ou-Mandel visibility |Tr(rho1 rho2)| of the heralded
    Signal states."""
    _check_same_grid(phi1, phi2)
    if phi1.domain != "time" or phi2.domain != "time":
        raise ValueError("hhom_visibility expects time-domain amplitudes")
    a, b = _unit(phi1), _unit(phi2)
    # Tr(rho1 rho2) with rho = a a^H over the Signal axis is |a^H b|_F^2
    overlap = a.conj().T @ b
    return float(np.sum(np.abs(overlap) ** 2))


def apply_time_shift(phi: JointAmplitude, shift_s: float, shift_i: float, t0_fwhm: float,
                     wrap_tol: float = 1e-6) -> JointAmplitude:
    """phi(T_s + shift_s/T0, T_i + shift_i/T0) via an exact spectral phase ramp.

    Shifts that would push more than a wrap_tol norm fraction across the
    periodic window boundary are rejected.
    """
    if phi.domain != "time":
        raise ValueError("apply_time_shift expects a time-domain amplitude")
    g = phi.grid
    a_s = shift_s / t0_fwhm
    a_i = shift_i / t0_fwhm
    if a_s == 0.0 and a_i == 0.0:
        return JointAmplitude(values=phi.values.copy(), domain="time", grid=g,
                              z=phi.z, norm_sq=phi.norm_sq)
    marg_s, marg_i = marginals(phi)
    _check_wrap(marg_s, a_s, g.dt, wrap_tol)
    _check_wrap(marg_i, a_i, g.dt, wrap_tol)
    w = omega_axis(g.n, g.dt)
    mult = np.exp(-1j * w * a_s)[:, None] * np.exp(-1j * w * a_i)[None, :]
    vals = np.fft.fft2(mult * np.fft.ifft2(phi.values))
    return JointAmplitude(values=vals, domain="time", grid=g, z=phi.z, norm_sq=phi.norm_sq)


def _check_wrap(marg, a, dt, wrap_tol):
    """Reject a shift by a along the axis of the intensity marginal marg
    that wraps more than a wrap_tol norm fraction around."""
    if a == 0.0:
        return
    m = int(np.ceil(abs(a) / dt))
    if m >= marg.size:
        raise ValueError(f"time shift {a:.2f} exceeds the grid window")
    total = marg.sum()
    if total == 0.0:
        return
    band = marg[:m] if a > 0 else marg[-m:]  # cells that wrap across the edge
    if band.sum() / total > wrap_tol:
        raise ValueError(
            f"time shift {a:.2f} pushes {band.sum() / total:.1e} of the norm "
            "across the periodic boundary"
        )


def align_arrival_times(phi1: JointAmplitude, phi2: JointAmplitude, t0_fwhm: float,
                        wrap_tol: float = 1e-6):
    """Shift source 2 so its mean arrival times match source 1.

    Returns (shifted phi2, shift_s, shift_i) with shifts in seconds.
    """
    (m1s, m1i), _ = arrival_times(phi1, t0_fwhm)
    (m2s, m2i), _ = arrival_times(phi2, t0_fwhm)
    shift_s = m2s - m1s
    shift_i = m2i - m1i
    return apply_time_shift(phi2, shift_s, shift_i, t0_fwhm, wrap_tol=wrap_tol), shift_s, shift_i


# m, the wavelength at which the delay line is sized
_DELAY_LINE_WAVELENGTH = 1550e-9


def delay_line_requirements(delta_t: float) -> DelayLineSpec:
    """Interferometric delay-line sizing for a tunable range delta_t."""
    if delta_t <= 0:
        raise ValueError("delta_t must be > 0")
    fsr = 2.0 * _DELAY_LINE_WAVELENGTH**2 / (C_LIGHT * delta_t)
    return DelayLineSpec(delta_t=delta_t, fsr=fsr, bw_3db=1.27 * fsr / 2.0)


def _source_jtas(cfgs) -> list:
    """The JTAs of configurations with one pumps.trace_key: the first run
    propagates the pumps and the others reuse its trace."""
    first = run_source(cfgs[0], keep_pump_trace=len(cfgs) > 1)
    rest = [run_source(cfg, pump_trace=first.pump_trace) for cfg in cfgs[1:]]
    return [out.result.jta for out in (first, *rest)]


def _fill(workers: WorkerPool, runs: dict, cfgs):
    """Simulate, as one batch, every configuration of cfgs that runs lacks,
    and store its JTA in runs under that configuration.

    Runs with one pumps.trace_key form one task, which propagates the pumps
    once.  A batch with fewer such groups than workers runs every source as
    a task of its own instead, so that no worker idles: the raw pair's two
    runs, at one tau, stay parallel."""
    todo = [cfg for cfg in dict.fromkeys(cfgs) if cfg not in runs]
    groups = {}
    for cfg in todo:
        groups.setdefault(trace_key(cfg), []).append(cfg)
    tasks = list(groups.values())
    if len(tasks) < workers.jobs:
        tasks = [[cfg] for cfg in todo]
    for task, jtas in zip(tasks, workers.map(_source_jtas, tasks)):
        runs.update(zip(task, jtas))


# compensating delays in a pair study can be several pulse widths; the
# dispersed low-level floor of the amplitudes (~1e-5 of the norm) then
# inevitably crosses the periodic boundary, biasing visibilities by an
# amount of the same order, far below the tolerances of interest
_PAIR_WRAP_TOL = 1e-4


_VISIBILITIES = {"rhom": rhom_visibility, "hhom": hhom_visibility}


def _pair_visibilities(phi1, phi2, t0_fwhm, kinds=("rhom", "hhom")):
    """The visibilities named in kinds, after arrival-time alignment."""
    phi2_shifted, ds, di = align_arrival_times(phi1, phi2, t0_fwhm, wrap_tol=_PAIR_WRAP_TOL)
    vis = {kind: _VISIBILITIES[kind](phi1, phi2_shifted) for kind in kinds}
    return vis, phi2_shifted, ds, di


def _study(cfg1, cfg2, runs, **optimum) -> PairStudy:
    """Both visibilities of two simulated configurations, source 2 shifted
    to the arrival times of source 1."""
    phi1, phi2 = runs[cfg1], runs[cfg2]
    vis, phi2s, ds, di = _pair_visibilities(phi1, phi2, cfg1.pump.t0_fwhm)
    return PairStudy(cfg1=cfg1, cfg2=cfg2, phi1=phi1, phi2=phi2s, shift_s=ds, shift_i=di,
                     v_rhom=vis["rhom"], v_hhom=vis["hhom"], **optimum)


def evaluate_pair(cfg1: SourceConfig, cfg2: SourceConfig, runs: dict | None = None) -> PairStudy:
    """Visibilities of the two sources as configured (arrival-time
    compensation applied, no delay optimization).

    runs maps each simulated configuration, its tau included, to its JTA:
    the pair reuses the runs it holds and adds its own, so that a later
    optimize_delays with the same dict simulates neither again."""
    runs = {} if runs is None else runs
    with WorkerPool(2) as workers:
        _fill(workers, runs, (cfg1, cfg2))
    return _study(cfg1, cfg2, runs)


# the compass search refines the delays to tau_max / _RESOLUTION
_RESOLUTION = 200


def optimize_delays(cfg1: SourceConfig, cfg2: SourceConfig, objective: str = "rhom",
                    coarse_points: int = 11, runs: dict | None = None) -> PairStudy:
    """Search (tau1, tau2) maximizing the chosen visibility.

    Coarse grid over [0, tau_max]^2, then compass pattern search refined to
    tau_max/200; ties break toward the symmetric midpoint delay.  Every
    delay is a point tau_max * i/n of one lattice, so that a point reached
    twice is the same float and is simulated once.  runs, as in
    evaluate_pair, holds the runs made earlier and receives the new ones;
    equal configurations share their runs.
    """
    if objective not in ("rhom", "hhom"):
        raise ValueError("objective must be 'rhom' or 'hhom'")
    if coarse_points < 2:
        raise ValueError("coarse_points must be >= 2")
    runs = {} if runs is None else runs
    t0 = cfg1.pump.t0_fwhm
    tau_max = derive_run_params(cfg1).tau_max
    # the first compass step, s0 cells, is half the coarse spacing; it
    # halves down to one cell, the smallest step not below the resolution.
    # n is even, and the lattice point n/2 is exactly tau_max/2
    s0 = 1
    while 4 * (coarse_points - 1) * s0 <= _RESOLUTION:
        s0 *= 2
    n = 2 * (coarse_points - 1) * s0
    mid = n // 2
    candidates = []
    obj_cache = {}

    def tau(i):
        return tau_max * (i / n)

    def at(cfg, i):
        return cfg.replace(pump={"tau": tau(i)})

    def measure(i, j):
        if (i, j) not in obj_cache:
            phi1, phi2 = runs[at(cfg1, i)], runs[at(cfg2, j)]
            try:
                v = _pair_visibilities(phi1, phi2, t0, kinds=(objective,))[0][objective]
            except ValueError:
                # alignment shift would wrap around the window: the
                # candidate is outside the usable delay range
                v = -np.inf
            obj_cache[i, j] = v
            candidates.append((tau(i), tau(j), v))
        return obj_cache[i, j]

    def better(a, va, b, vb):
        """True when (a, va) beats (b, vb); ties prefer the midpoint."""
        if va > vb + 1e-12:
            return True
        if va < vb - 1e-12:
            return False
        return (a[0] - mid) ** 2 + (a[1] - mid) ** 2 < (b[0] - mid) ** 2 + (b[1] - mid) ** 2

    def clip(i):
        return min(max(i, 0), n)

    # every source run goes to the workers in batches: the start point and
    # the coarse grid of both sources, then each compass round's neighbours.
    # A round's candidates need source 1 only at b1 +- step and source 2
    # only at b2 +- step, with (b1, b2) the best point at the round's start
    coarse = range(0, n + 1, 2 * s0)
    best = (mid, mid)
    batch = [at(cfg1, mid), at(cfg2, mid)] + [at(cfg, i) for cfg in (cfg1, cfg2) for i in coarse]
    with WorkerPool(len(batch)) as workers:
        _fill(workers, runs, batch)
        best_v = measure(*best)
        for i in coarse:
            for j in coarse:
                v = measure(i, j)
                if better((i, j), v, best, best_v):
                    best, best_v = (i, j), v

        step = s0
        while _RESOLUTION * step >= n:
            _fill(workers, runs, [at(cfg, clip(b + d)) for cfg, b in zip((cfg1, cfg2), best)
                                  for d in (step, -step)])
            moved = False
            for di, dj in ((step, 0), (-step, 0), (0, step), (0, -step)):
                cand = (clip(best[0] + di), clip(best[1] + dj))
                if cand == best:
                    continue
                v = measure(*cand)
                if better(cand, v, best, best_v):
                    best, best_v = cand, v
                    moved = True
            if not moved:
                step //= 2

    return _study(at(cfg1, best[0]), at(cfg2, best[1]), runs, optimal_tau1=tau(best[0]),
                  optimal_tau2=tau(best[1]), candidates=candidates)
