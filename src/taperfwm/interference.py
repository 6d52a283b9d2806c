"""Two-source interference: visibilities, delay compensation and the
pump-delay optimizer."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .config import SourceConfig, derive_run_params
from .jta import JointAmplitude
from .metrics import arrival_times
from .spectral import omega_axis, shift_multiplier
from .simulate import run_source


@dataclass
class DelayLineSpec:
    delta_t: float          # s, tunable delay range
    fsr: float              # m
    bw_3db: float           # m
    bias_delay: float = 0.0       # s
    arm_length_diff: float = 0.0  # m


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
    _check_wrap(phi, a_s, axis=0, wrap_tol=wrap_tol)
    _check_wrap(phi, a_i, axis=1, wrap_tol=wrap_tol)
    w = omega_axis(g.n, g.dt)
    mult = shift_multiplier(w, a_s)[:, None] * shift_multiplier(w, a_i)[None, :]
    vals = np.fft.fft2(mult * np.fft.ifft2(phi.values))
    return JointAmplitude(values=vals, domain="time", grid=g, z=phi.z, norm_sq=phi.norm_sq)


def _check_wrap(phi, a, axis, wrap_tol=1e-6):
    """Reject shifts that wrap more than a wrap_tol norm fraction around."""
    if a == 0.0:
        return
    g = phi.grid
    m = int(np.ceil(abs(a) / g.dt))
    if m >= g.n:
        raise ValueError(f"time shift {a:.2f} exceeds the grid window")
    inten = np.abs(phi.values) ** 2
    marg = inten.sum(axis=1 - axis)
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


def delay_line_requirements(delta_t: float, wavelength: float = 1550e-9,
                            bias_delay: float = 0.0, group_velocity: float = 0.0,
                            rest_delay: float = 0.0) -> DelayLineSpec:
    """Interferometric delay-line sizing for a tunable range delta_t."""
    if delta_t <= 0:
        raise ValueError("delta_t must be > 0")
    from .config import CONSTANTS

    fsr = 2.0 * wavelength**2 / (CONSTANTS.c * delta_t)
    bw = 1.27 * fsr / 2.0
    arm = group_velocity * (rest_delay - bias_delay) if group_velocity else 0.0
    return DelayLineSpec(delta_t=delta_t, fsr=fsr, bw_3db=bw,
                         bias_delay=bias_delay, arm_length_diff=arm)


class SourceCache:
    """Memoizes the simulated JTA of one source configuration per tau.

    One cache per source can be shared by evaluate_pair and optimize_delays
    so that no (configuration, tau) is simulated twice.
    """

    def __init__(self, cfg: SourceConfig):
        self.cfg = cfg
        self._runs = {}

    def jta(self, tau: float) -> JointAmplitude:
        """The JTA at tau; a miss is simulated in this process."""
        _fill(None, [(self, tau)])
        return self._runs[float(tau)]


def _source_jta(cfg: SourceConfig) -> JointAmplitude:
    """One source run, reduced to the JTA that the visibilities need."""
    return run_source(cfg).result.jta


def _worker_count() -> int:
    """Worker processes for source runs: one per CPU this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _source_pool(batch: int):
    """A process pool for the source runs of one call, with no more workers
    than its largest batch of runs, or None (runs stay in this process) when
    only one CPU is available.  The workers are joined when the block ends,
    also when it raises."""
    jobs = min(_worker_count(), batch)
    if jobs < 2:
        yield None
        return
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _fill(pool, requests):
    """Simulate every (cache, tau) of requests that is not cached yet, as
    one batch in the pool when there is one."""
    todo = {}
    for cache, tau in requests:
        key = float(tau)
        if key not in cache._runs:
            todo[id(cache), key] = (cache, key)
    if not todo:
        return
    cfgs = [cache.cfg.replace(pump={"tau": key}) for cache, key in todo.values()]
    jtas = map(_source_jta, cfgs) if pool is None else pool.map(_source_jta, cfgs)
    for (cache, key), jta in zip(todo.values(), jtas):
        cache._runs[key] = jta


def _source_caches(cfg1, cfg2, sources):
    if sources is None:
        return SourceCache(cfg1), SourceCache(cfg2)
    if sources[0].cfg != cfg1 or sources[1].cfg != cfg2:
        raise ValueError("source caches belong to other configurations")
    return sources


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


def evaluate_pair(cfg1: SourceConfig, cfg2: SourceConfig,
                  sources: tuple[SourceCache, SourceCache] | None = None) -> PairStudy:
    """Visibilities of the two sources as configured (arrival-time
    compensation applied, no delay optimization).

    sources, one SourceCache per configuration, lets a later
    optimize_delays reuse the two runs."""
    t0 = cfg1.pump.t0_fwhm
    src1, src2 = _source_caches(cfg1, cfg2, sources)
    with _source_pool(2) as pool:
        _fill(pool, [(src1, cfg1.pump.tau), (src2, cfg2.pump.tau)])
    phi1 = src1.jta(cfg1.pump.tau)
    phi2 = src2.jta(cfg2.pump.tau)
    vis, phi2s, ds, di = _pair_visibilities(phi1, phi2, t0)
    return PairStudy(cfg1=cfg1, cfg2=cfg2, phi1=phi1, phi2=phi2s,
                     shift_s=ds, shift_i=di, v_rhom=vis["rhom"], v_hhom=vis["hhom"])


def optimize_delays(cfg1: SourceConfig, cfg2: SourceConfig, objective: str = "rhom",
                    coarse_points: int = 11,
                    sources: tuple[SourceCache, SourceCache] | None = None) -> PairStudy:
    """Search (tau1, tau2) maximizing the chosen visibility.

    Coarse grid over [0, tau_max]^2, then compass pattern search refined to
    tau_max/200; ties break toward the symmetric midpoint delay.  sources
    (one SourceCache per configuration) reuses runs made earlier, for
    instance by evaluate_pair.
    """
    if objective not in ("rhom", "hhom"):
        raise ValueError("objective must be 'rhom' or 'hhom'")
    t0 = cfg1.pump.t0_fwhm
    tau_max = derive_run_params(cfg1).tau_max
    src1, src2 = _source_caches(cfg1, cfg2, sources)
    center = np.array([tau_max / 2.0, tau_max / 2.0])
    candidates = []
    obj_cache = {}

    def measure(tau1, tau2):
        key = (float(tau1), float(tau2))
        if key not in obj_cache:
            _fill(pool, [(src1, tau1), (src2, tau2)])
            phi1 = src1.jta(tau1)
            phi2 = src2.jta(tau2)
            try:
                v = _pair_visibilities(phi1, phi2, t0, kinds=(objective,))[0][objective]
            except ValueError:
                # alignment shift would wrap around the window: the
                # candidate is outside the usable delay range
                v = -np.inf
            obj_cache[key] = v
            candidates.append((float(tau1), float(tau2), v))
        return obj_cache[key]

    def better(a, va, b, vb):
        """True when (a, va) beats (b, vb); ties prefer the midpoint."""
        if va > vb + 1e-12:
            return True
        if va < vb - 1e-12:
            return False
        return np.linalg.norm(np.asarray(a) - center) < np.linalg.norm(np.asarray(b) - center) - 1e-18

    def clip(tau):
        return min(max(tau, 0.0), tau_max)

    # every source run goes to the pool in batches: the start point and the
    # coarse grid of both sources, then the two runs each compass round
    # always measures (source 1 at best + step, source 2 at best + step);
    # measure sends any other miss on its own
    taus = np.linspace(0.0, tau_max, coarse_points)
    best = (tau_max / 2.0, tau_max / 2.0)
    coarse = [(src1, best[0]), (src2, best[1])] + [(src, t) for src in (src1, src2) for t in taus]
    with _source_pool(len(coarse)) as pool:
        _fill(pool, coarse)
        best_v = measure(*best)
        for t1 in taus:
            for t2 in taus:
                v = measure(t1, t2)
                if better((t1, t2), v, best, best_v):
                    best, best_v = (float(t1), float(t2)), v

        step = tau_max / (coarse_points - 1) / 2.0
        tol = tau_max / 200.0
        while step >= tol:
            _fill(pool, [(src, clip(b + step)) for src, b in zip((src1, src2), best)
                         if clip(b + step) != b])
            moved = False
            for delta in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                cand = (clip(best[0] + delta[0]), clip(best[1] + delta[1]))
                if cand == best:
                    continue
                v = measure(*cand)
                if better(cand, v, best, best_v):
                    best, best_v = cand, v
                    moved = True
            if not moved:
                step /= 2.0

    phi1 = src1.jta(best[0])
    phi2 = src2.jta(best[1])
    vis, phi2s, ds, di = _pair_visibilities(phi1, phi2, t0)
    return PairStudy(
        cfg1=cfg1.replace(pump={"tau": best[0]}),
        cfg2=cfg2.replace(pump={"tau": best[1]}),
        phi1=phi1,
        phi2=phi2s,
        shift_s=ds,
        shift_i=di,
        v_rhom=vis["rhom"],
        v_hhom=vis["hhom"],
        optimal_tau1=best[0],
        optimal_tau2=best[1],
        candidates=candidates,
    )
