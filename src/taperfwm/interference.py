"""Two-source interference: visibilities, delay compensation and the
pump-delay optimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .config import ConfigError, SourceConfig, tau_max_of
from .jta import JointAmplitude, row_blocks, sum_abs2
from .metrics import arrival_times, gram_sq
from .spectral import omega_axis
from .simulate import WorkerPool, run_source


@dataclass
class PairStudy:
    shift_s: float                # s, applied to source 2
    shift_i: float
    v_rhom: float
    v_hhom: float
    optimal_tau1: float | None = None
    optimal_tau2: float | None = None
    candidates: list = field(default_factory=list)  # (tau1, tau2, objective)
    source_runs: int = 0          # source simulations the optimizer made


def _norms(phi1: JointAmplitude, phi2: JointAmplitude) -> float:
    """|phi1|^2 |phi2|^2, by which both visibilities normalise, of two JTAs
    on one grid: a foreign grid and a zero amplitude are refused."""
    g1, g2 = phi1.grid, phi2.grid
    if g1.n != g2.n or abs(g1.dt - g2.dt) > 1e-15 or abs(g1.t_axis[0] - g2.t_axis[0]) > 1e-12:
        raise ValueError("joint amplitudes live on different grids")
    norms = sum_abs2(phi1.values) * sum_abs2(phi2.values)
    if norms == 0.0:
        raise ValueError("visibility undefined for a zero amplitude")
    return norms


def rhom_visibility(phi1: JointAmplitude, phi2: JointAmplitude) -> float:
    """Two-photon indistinguishability |<phi2|phi1>|^2 of the normalized
    amplitudes."""
    norms = _norms(phi1, phi2)
    a, b = phi1.values, phi2.values
    # <b|a> summed with np.sum by blocks of rows: np.linalg.norm and
    # np.vdot on a whole amplitude wake the OpenBLAS thread pool, whose
    # spinning threads then compete with the source workers
    overlap = sum(np.sum(np.conjugate(b[s]) * a[s]) for s in row_blocks(a.shape[0]))
    return float(abs(overlap) ** 2 / norms)


def hhom_visibility(phi1: JointAmplitude, phi2: JointAmplitude) -> float:
    """Heralded Hong-Ou-Mandel visibility |Tr(rho1 rho2)| of the heralded
    Signal states."""
    norms = _norms(phi1, phi2)
    # Tr(rho1 rho2) with rho = a a^H over the Signal axis, for unit a and
    # b, is |a^H b|_F^2, summed over tiles of a^H b
    return gram_sq(phi1.values, phi2.values) / norms


# compensating delays in a pair study can be several pulse widths; the
# dispersed low-level floor of the amplitudes (~1e-5 of the norm) then
# inevitably crosses the periodic boundary, biasing visibilities by an
# amount of the same order, far below the tolerances of interest
_PAIR_WRAP_TOL = 1e-4


def apply_time_shift(phi: JointAmplitude, shift_s: float, shift_i: float, t0_fwhm: float,
                     wrap_tol: float = _PAIR_WRAP_TOL) -> JointAmplitude:
    """phi(T_s + shift_s/T0, T_i + shift_i/T0) via an exact spectral phase ramp.

    Shifts that would push more than a wrap_tol norm fraction across the
    periodic window boundary are rejected.
    """
    g = phi.grid
    a_s = shift_s / t0_fwhm
    a_i = shift_i / t0_fwhm
    if a_s == 0.0 and a_i == 0.0:
        return JointAmplitude(values=phi.values.copy(), grid=g, z=phi.z, norm_sq=phi.norm_sq)
    marg_s, marg_i = phi.marginals
    _check_wrap(marg_s, a_s, g.dt, wrap_tol)
    _check_wrap(marg_i, a_i, g.dt, wrap_tol)
    w = omega_axis(g.n, g.dt)
    ramp_s, ramp_i = np.exp(-1j * w * a_s), np.exp(-1j * w * a_i)
    # one buffer: the spectrum, the ramp applied to it by blocks of rows,
    # and the transform back in place
    vals = np.fft.ifftn(phi.values, axes=(0, 1), out=np.empty_like(phi.values))
    for s in row_blocks(g.n):
        vals[s] *= ramp_s[s, None] * ramp_i
    np.fft.fftn(vals, axes=(0, 1), out=vals)
    return JointAmplitude(values=vals, grid=g, z=phi.z, norm_sq=phi.norm_sq)


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
                        wrap_tol: float = _PAIR_WRAP_TOL):
    """Shift source 2 so its mean arrival times match source 1.

    Returns (shifted phi2, shift_s, shift_i) with shifts in seconds.
    """
    (m1s, m1i), _ = arrival_times(phi1, t0_fwhm)
    (m2s, m2i), _ = arrival_times(phi2, t0_fwhm)
    shift_s = m2s - m1s
    shift_i = m2i - m1i
    shifted = apply_time_shift(phi2, shift_s, shift_i, t0_fwhm, wrap_tol=wrap_tol)
    return shifted, shift_s, shift_i


def _source_jta(cfg) -> JointAmplitude:
    """The JTA of one source run, at module level so that a worker process
    can be handed it."""
    return run_source(cfg).result.jta


def _fill(workers: WorkerPool, runs: dict, cfgs):
    """Simulate, as one batch, every configuration of cfgs that runs lacks,
    and store its JTA in runs under that configuration."""
    todo = [cfg for cfg in dict.fromkeys(cfgs) if cfg not in runs]
    runs.update(zip(todo, workers.map(_source_jta, todo)))


_VISIBILITIES = {"rhom": rhom_visibility, "hhom": hhom_visibility}


def _pair_visibilities(phi1, phi2, t0_fwhm, kinds=("rhom", "hhom")):
    """The visibilities named in kinds, after arrival-time alignment."""
    phi2_shifted, ds, di = align_arrival_times(phi1, phi2, t0_fwhm)
    vis = {kind: _VISIBILITIES[kind](phi1, phi2_shifted) for kind in kinds}
    return vis, ds, di


def _check_pair(cfg1, cfg2):
    """Refuse, before any run, two sources that do not share one time grid:
    the window is in units of t0, so the grid is one grid only at one t0."""
    grids = [(c.numerics.n_t, c.numerics.t_window, c.pump.t0_fwhm) for c in (cfg1, cfg2)]
    if grids[0] != grids[1]:
        raise ConfigError("the two sources must share one time grid: (n_t, t_window, t0_fwhm) "
                          f"{grids[0]} against {grids[1]}")


def _study(cfg1, cfg2, runs, **optimum) -> PairStudy:
    """Both visibilities of two simulated configurations, source 2 shifted
    to the arrival times of source 1."""
    vis, ds, di = _pair_visibilities(runs[cfg1], runs[cfg2], cfg1.pump.t0_fwhm)
    return PairStudy(shift_s=ds, shift_i=di, v_rhom=vis["rhom"], v_hhom=vis["hhom"], **optimum)


def evaluate_pair(cfg1: SourceConfig, cfg2: SourceConfig, runs: dict | None = None) -> PairStudy:
    """Visibilities of the two sources as configured (arrival-time
    compensation applied, no delay optimization).

    runs maps each simulated configuration, its tau included, to its JTA:
    the pair reuses the runs it holds and adds its own, so that a later
    optimize_delays with the same dict simulates neither again.  Two
    sources on different time grids raise ConfigError."""
    _check_pair(cfg1, cfg2)
    runs = {} if runs is None else runs
    with WorkerPool(2) as workers:
        _fill(workers, runs, (cfg1, cfg2))
    return _study(cfg1, cfg2, runs)


# every delay the optimizer visits is a point tau_max * i/_CELLS of its own
# source's lattice, so that a delay reached twice is the same float
_CELLS = 160

# the search starts from this many evenly spaced delays and tau_max/2
_START_POINTS = 6


def _stencil(stored, b):
    """The three stored lattice indices about b that the local model reads:
    b and its nearest stored neighbour on each side, or the two nearest on
    one side where b is at an end or the other side's gap is over three
    times as wide, which would bend the fit out of shape."""
    s = sorted(stored)
    k = s.index(b)
    if k == 0:
        return s[:3]
    if k == len(s) - 1:
        return s[-3:]
    below, above = b - s[k - 1], s[k + 1] - b
    if below > 3 * above and k + 2 < len(s):
        return s[k:k + 3]
    if above > 3 * below and k >= 2:
        return s[k - 2:k + 1]
    return s[k - 1:k + 2]


def _orthogonal_basis(points):
    """The values at three points of 1, P1 = x - m and P2 = P1^2 - r P1 - s,
    the polynomials of degree 0, 1 and 2 orthogonal over those points,
    with P1(0) and P2'(0) (P1' is 1)."""
    m = sum(points) / 3.0
    p1 = [p - m for p in points]
    s2 = sum(u * u for u in p1)
    r = sum(u ** 3 for u in p1) / s2
    p2 = [u * u - r * u - s2 / 3.0 for u in p1]
    return [[1.0] * 3, p1, p2], -m, -2.0 * m - r


def _quadratic_fit(v, xs, ys):
    """The gradient (gx, gy) and Hessian (hxx, hxy, hyy) at the origin of
    the least-squares quadratic over the values v[k][l] at (xs[k], ys[l]).

    On the 3 x 3 grid the products Pi(x) Pj(y) of each axis's orthogonal
    polynomials are orthogonal, and those of degree <= 2 span the
    quadratics, so each coefficient is one projection, and no LAPACK
    call is made."""
    (bx, p1x, dp2x), (by, p1y, dp2y) = _orthogonal_basis(xs), _orthogonal_basis(ys)

    def coef(i, j):
        num = sum(v[k][l] * bx[i][k] * by[j][l] for k in range(3) for l in range(3))
        return num / (sum(u * u for u in bx[i]) * sum(u * u for u in by[j]))

    d10, d01, d20, d11, d02 = coef(1, 0), coef(0, 1), coef(2, 0), coef(1, 1), coef(0, 2)
    gx = d10 + d20 * dp2x + d11 * p1y
    gy = d01 + d02 * dp2y + d11 * p1x
    return (gx, gy), (2.0 * d20, d11, 2.0 * d02)


def _model_peak(scores, stencils, best, n):
    """The lattice point nearest the peak of the quadratic least-squares fit
    of the scores over stencils[0] x stencils[1], or None where the fit
    has no peak or a stencil point was rejected."""
    v = [[scores[i, j] for j in stencils[1]] for i in stencils[0]]
    if not all(map(math.isfinite, chain.from_iterable(v))):
        return None
    (gx, gy), (hxx, hxy, hyy) = _quadratic_fit(v, [i - best[0] for i in stencils[0]],
                                               [j - best[1] for j in stencils[1]])
    det = hxx * hyy - hxy * hxy
    if not (hxx < 0.0 and det > 0.0):
        return None
    # the Newton step, -H^-1 g
    step = ((hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det)
    return tuple(round(min(max(b + d, 0.0), float(n))) for b, d in zip(best, step))


def _halves(stored, b):
    """The midpoints of the gaps between b and its stored neighbours."""
    below = max((i for i in stored if i < b), default=b)
    above = min((i for i in stored if i > b), default=b)
    return {b - (b - below) // 2, b + (above - b) // 2} - {b}


def _next_runs(scores, stored, best, n):
    """The lattice indices to simulate next, one set per source: none once
    both unit neighbours of best are stored on each axis (then all four
    are scored and none beats best), else points from the local model.

    A model fitted on stencils at most 2 cells wide on both axes is trusted
    to a cell: its peak t and t +- 1 are asked for, and the unit neighbours
    of best too when t is within a cell of it.  A wider fit is only a
    direction: its peak and the point halfway to it.  Without a model, the
    gaps next to best are halved."""
    near = [{i for i in (b - 1, b + 1) if 0 <= i <= n} for b in best]
    if all(nb <= s for nb, s in zip(near, stored)):
        return [set(), set()]
    stencils = [_stencil(s, b) for s, b in zip(stored, best)]
    peak = _model_peak(scores, stencils, best, n)
    fine = all(max(abs(i - b) for i in st) <= 2 for st, b in zip(stencils, best))
    out = []
    for s, b, nb, t in zip(stored, best, near, peak or (None, None)):
        if t is None:
            want = _halves(s, b)
        elif fine:
            want = {t - 1, t, t + 1} | (nb if abs(t - b) <= 1 else set())
        else:
            want = {t, (b + t) // 2}
        want = {i for i in want if 0 <= i <= n} - s
        out.append(want or nb - s or _halves(s, b))
    return out


def optimize_delays(cfg1: SourceConfig, cfg2: SourceConfig, objective: str = "rhom",
                    runs: dict | None = None) -> PairStudy:
    """Search (tau1, tau2) maximizing the chosen visibility over the
    lattices tau_k = tau_max_k * i/160, one per source.

    The search starts from 6 evenly spaced delays and tau_max/2 on each
    source.  After every batch of runs it scores every pair (tau1 of
    source 1, tau2 of source 2) of the runs it has asked for, and picks the
    next batch from a local quadratic model about the best pair (see
    _next_runs).  It stops when the best pair's four unit-cell neighbours
    are scored and none beats it, or when the midpoint pair scores 1.
    Ties break toward the symmetric midpoint delay.  runs, as in
    evaluate_pair, holds the runs made earlier and receives the new ones;
    equal configurations share their runs.  The batches depend on the
    scores alone, so a pooled search makes the same runs and candidates as
    a serial one.  Two sources on different time grids raise ConfigError.
    """
    _check_pair(cfg1, cfg2)
    if objective not in ("rhom", "hhom"):
        raise ValueError("objective must be 'rhom' or 'hhom'")
    runs = {} if runs is None else runs
    stored = len(runs)
    t0 = cfg1.pump.t0_fwhm
    n = _CELLS
    mid = n // 2
    cfgs = (cfg1, cfg2)
    tau_max = [tau_max_of(cfg) for cfg in cfgs]

    def tau(k, i):
        return tau_max[k] * (i / n)

    def at(k, i):
        return cfgs[k].replace(pump={"tau": tau(k, i)})

    # per source, lattice index -> JTA
    taken = ({}, {})
    scores = {}
    start = {k * n // (_START_POINTS - 1) for k in range(_START_POINTS)} | {mid}
    new = [start, start]
    with WorkerPool(2 * len(start)) as workers:
        while any(new):
            _fill(workers, runs, [at(k, i) for k in (0, 1) for i in sorted(new[k])])
            for k in (0, 1):
                taken[k].update((i, runs[at(k, i)]) for i in new[k])
            for i, j in sorted((i, j) for i in taken[0] for j in taken[1]):
                if (i, j) in scores:
                    continue
                try:
                    v = _pair_visibilities(taken[0][i], taken[1][j], t0,
                                           kinds=(objective,))[0][objective]
                except ValueError:
                    # alignment shift would wrap around the window: the
                    # candidate is outside the usable delay range
                    v = -np.inf
                scores[i, j] = v
            # the best score, ties within 1e-12 going to the pair nearest
            # the midpoint
            top = max(scores.values())
            best = min((c for c, v in scores.items() if v >= top - 1e-12),
                       key=lambda c: ((c[0] - mid) ** 2 + (c[1] - mid) ** 2, c))
            # no pair beats a perfect score at the midpoint, and no pair
            # nearer the midpoint can tie it
            if best == (mid, mid) and scores[best] >= 1.0 - 1e-12:
                break
            new = _next_runs(scores, [set(taken[0]), set(taken[1])], best, n)

    return _study(at(0, best[0]), at(1, best[1]), runs, optimal_tau1=tau(0, best[0]),
                  optimal_tau2=tau(1, best[1]),
                  candidates=[(tau(0, i), tau(1, j), v) for (i, j), v in scores.items()],
                  source_runs=len(runs) - stored)
