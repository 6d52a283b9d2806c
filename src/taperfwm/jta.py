"""Driven two-dimensional evolution of the joint temporal amplitude, and
its unitary transform to the joint spectral amplitude.

The geometry acts only through the net phase mismatch, which the source
carries as exp(i Theta(z)) (see mismatch.mismatch_phase); the pump
envelopes and the stepped amplitude carry no mismatch phase of their own.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from multiprocessing import parent_process

import numpy as np

from .config import ConfigError, Grid, SourceConfig, derive_run_params
from .mismatch import mismatch_phase
from .pumps import PropagationError, PumpTrace, midpoints
from .spectral import linear_exponents


def sum_abs2(a: np.ndarray) -> float:
    """sum |a|^2 of a complex matrix, by rows then over the row sums, with
    no temporary of the matrix's size and no BLAS call."""
    return float(np.sum(np.einsum("ij,ij->i", a.real, a.real)
                        + np.einsum("ij,ij->i", a.imag, a.imag)))


# the blocks in which a matrix is reduced or multiplied, so that no
# temporary of its size is formed
BLOCKS = 8


def abs2_sums(a: np.ndarray):
    """The row sums and the column sums of |a|^2 of a complex matrix,
    formed by blocks of rows (see BLOCKS)."""
    step = -(-a.shape[0] // BLOCKS)
    rows, cols = np.empty(a.shape[0]), np.zeros(a.shape[1])
    for j in range(0, a.shape[0], step):
        inten = np.abs(a[j:j + step])
        inten *= inten
        rows[j:j + step] = inten.sum(axis=1)
        cols += inten.sum(axis=0)
    return rows, cols


@dataclass
class JointAmplitude:
    """Complex two-photon amplitude over (T_s, T_i) or (w'_s, w'_i).

    Axis 0 is the Signal, axis 1 the Idler.  norm_sq is the physical pair
    probability integral of |values|^2 on the stored grid.
    """

    values: np.ndarray
    domain: str            # "time" | "frequency"
    grid: Grid
    z: float
    norm_sq: float = field(default=None)

    def __post_init__(self):
        if self.domain not in ("time", "frequency"):
            raise ValueError(f"bad domain {self.domain!r}")
        if self.norm_sq is None:
            self.norm_sq = self.integrate_norm()

    def cell_measure(self) -> float:
        d = self.grid.dt if self.domain == "time" else self.grid.dw
        return d * d

    def integrate_norm(self) -> float:
        return sum_abs2(self.values) * self.cell_measure()

    @cached_property
    def marginals(self):
        """The Signal and Idler intensity marginals, sum |phi|^2 over the
        other axis, in the amplitude's own domain: formed on first access
        and kept, by blocks of rows (see abs2_sums).  Nothing writes to
        values in place after that (evolve_jta wraps its state only after
        the last step); a write would leave the kept marginals stale."""
        return abs2_sums(self.values)


def jta_to_jsa(phi: JointAmplitude, out: np.ndarray | None = None) -> JointAmplitude:
    """Unitary two-dimensional transform to the dual frequency grid.

    The result is aligned with the sorted grid.w_axis on both axes and
    preserves the physical norm exactly.  Each axis takes two factors: the
    sign (-1)^k on the time samples, which for even n turns the ifft of a
    row into its fftshifted ifft, and the phase and scale of the grid's
    time origin at each sorted frequency.  The transform fills out, a
    complex n x n buffer, or a new one, and works on it in place.  out may
    be phi.values itself, which then holds the JSA: only the owner of phi
    may pass it, after the JTA's last reader.
    """
    if phi.domain != "time":
        raise ValueError("jta_to_jsa expects a time-domain amplitude")
    g = phi.grid
    if g.n % 2:
        raise ValueError(f"the sorted-axis transform needs an even n, got {g.n}")
    sign = np.resize([1.0, -1.0], g.n)
    factor = (g.n * g.dt / np.sqrt(2.0 * np.pi)) * np.exp(1j * g.w_axis * g.t_axis[0])
    spec = np.multiply(phi.values, sign[:, None], out=out, dtype=complex)
    spec *= sign[None, :]
    np.fft.ifftn(spec, axes=(0, 1), out=spec)
    spec *= factor[:, None]
    spec *= factor[None, :]
    return JointAmplitude(values=spec, domain="frequency", grid=phi.grid, z=phi.z,
                          norm_sq=phi.norm_sq)


@dataclass
class XiProfile:
    z_nodes: np.ndarray
    xi: np.ndarray


@dataclass
class SimulationResult:
    jta: JointAmplitude
    xi_profile: XiProfile
    snapshots: list


def _source_diag(a1, a2, gamma_fwm: float, theta, dt: float) -> np.ndarray:
    """Diagonal of the FWM driving term on the (T_s, T_i) grid for the pump
    envelopes a1, a2 and the net mismatch phase theta.

    The driving term is a delta ridge on the grid diagonal with a 2*pi/dt
    weight: 1/dt realizes the Dirac delta on the discrete diagonal and the
    2*pi carries the pump-spectrum convolution normalization.
    """
    return 2j * np.pi * gamma_fwm * a1 * a2 * np.exp(1j * theta) / dt


def step_drives(cfg: SourceConfig, pump_trace: PumpTrace):
    """Each z-step's drive, in step order: the pump midpoints a1, a2 and the
    source diagonal, with the net mismatch phase Theta taken at the step
    midpoint.  The pumps are stepped as each drive is drawn (see
    pumps.midpoints), so that drawing past the last drive checks the pumps'
    energy law at z = L."""
    theta_mid = mismatch_phase(cfg, pump_trace.z_mid)
    gamma_fwm, dt = cfg.dispersion.gamma_p1p2si, pump_trace.grid.dt
    for k, (a1, a2) in enumerate(midpoints(cfg, pump_trace)):
        yield a1, a2, _source_diag(a1, a2, gamma_fwm, theta_mid[k], dt)


def snapshot_nodes(count: int, n_z: int) -> np.ndarray:
    """Indices of `count` evenly spaced z nodes from 0 to n_z; none for 0."""
    if count == 0:
        return np.empty(0, int)
    if not 2 <= count <= n_z + 1:
        raise ConfigError(f"snapshots must be 0 or between 2 and n_z + 1 = {n_z + 1}, got {count}")
    return np.round(np.linspace(0, n_z, count)).astype(int)


def worker_count() -> int:
    """CPUs this process may use: the worker processes of a pool of
    independent runs, or the slabs of one JTA run."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the smallest n_t whose z-steps are split across threads: on smaller grids
# the hand-offs between threads cost more than the split transforms save
_SLAB_MIN_N = 512


def _slab_count(n: int) -> int:
    """Slabs of one z-step on an n x n grid: one per usable CPU from
    n = _SLAB_MIN_N on, except in a pool's worker process, whose sibling
    workers hold the other CPUs; otherwise one."""
    if n < _SLAB_MIN_N or parent_process() is not None:
        return 1
    return worker_count()


def evolve_jta(
    cfg: SourceConfig,
    pump_trace: PumpTrace,
    snapshots: int = 0,
) -> SimulationResult:
    """Integrate the driven JTA equation in lockstep with the pumps of
    pump_trace, stepped as each step's drive is drawn (see step_drives).

    Each step is a symmetrized split step: a linear half-step in the
    frequency domain, the signal/idler XPM phase and the source injection
    on the time grid at the pump midpoint, and a second linear half-step.
    The trailing half-step of one step and the leading one of the next
    are fused into one full-step multiplier, which every step takes: the
    state starts at zero, on which a half-step acts as a full one.  The
    state lives in one n x n buffer that is transformed in place.  settle
    takes the half-step a node owes: on a copy for a snapshot at one of
    the `snapshots` evenly spaced nodes (see snapshot_nodes), so the result
    does not depend on the snapshots, and on the state at the last node.

    Each 2-D transform runs as its two 1-D passes in the order
    np.fft.fftn(axes=(0, 1)) takes them: axis 1 over contiguous row slabs,
    then axis 0 over column slabs, the slabs shared with helper threads
    that live for this call only (see _slab_count).  A step's elementwise
    work runs on each row slab ahead of its pass: the full-step multiplier
    ahead of the forward transform, the XPM phases and the injected
    diagonal ahead of the inverse one.  The diagonal after the
    XPM phases, the source and the bookkeeping are formed on the calling
    thread between the transforms.  Each 1-D transform sees the same data,
    and each element the same operations in the same order, for any slab
    count, so the result is bitwise that of whole-array fftn/ifftn steps.

    xi(z) at every node is the exact discrete loss/source bookkeeping, an
    O(n) recursion on the diagonal; a non-finite xi stops the run at that
    step, and the measured norm of the final state must match it to 1e-10.
    """
    grid = pump_trace.grid
    d, num = cfg.dispersion, cfg.numerics
    rp = derive_run_params(cfg)
    n = num.n_t
    n_z, h, dt = pump_trace.n_z, pump_trace.h, grid.dt

    ls, li = linear_exponents(cfg, grid, ("s", "i"))
    half_s, half_i = np.exp(0.5 * h * ls)[:, None], np.exp(0.5 * h * li)[None, :]
    full_mult = np.exp(h * ls)[:, None] * np.exp(h * li)[None, :]

    sigma = rp.alpha_m["s"] + rp.alpha_m["i"]
    decay_half = np.exp(-sigma * h / 2.0)
    nl_on = num.xpm_spm_enabled

    # the state: time domain around the nonlinear part of a step, frequency
    # domain (the unnormalized ifft2 of the time values) between steps; it
    # starts at zero, which is both
    state = np.zeros((n, n), complex)
    diag = state.reshape(-1)[:: n + 1]  # view of the diagonal

    xi = np.zeros(n_z + 1)

    snap_nodes = set(snapshot_nodes(snapshots, n_z).tolist())
    snaps = []

    def physical(k, values_time):
        return JointAmplitude(values=values_time, domain="time", grid=grid, z=float(pump_trace.z_nodes[k]))

    count = _slab_count(n)
    slabs = [slice(n * j // count, n * (j + 1) // count) for j in range(count)]
    helpers = ThreadPoolExecutor(count - 1) if count > 1 else None

    def each_slab(fn):
        # fn(slab) for every slab: the first on this thread, the others on the helpers
        pending = [helpers.submit(fn, s) for s in slabs[1:]]
        fn(slabs[0])
        for f in pending:
            f.result()

    def transform(a, fft, before=None):
        """a in place by fft (np.fft.fft or ifft) along axis 1 over row
        slabs, then along axis 0 over column slabs; before(a[s], s) runs on
        each row slab ahead of its pass."""
        def rows(s):
            v = a[s]
            if before is not None:
                before(v, s)
            fft(v, axis=1, out=v)

        def cols(s):
            v = a[:, s]
            fft(v, axis=0, out=v)

        each_slab(rows)
        each_slab(cols)
        return a

    def full_step(v, s):
        v *= full_mult[s]

    def settle(k, a):
        # the amplitude at node k of a, the state or a copy of it
        a *= half_s
        a *= half_i
        return physical(k, transform(a, np.fft.fft))

    try:
        if 0 in snap_nodes:
            snaps.append(physical(0, state.copy()))

        for k, (a1, a2, src_diag) in enumerate(step_drives(cfg, pump_trace)):
            transform(state, np.fft.fft, full_step)

            # the diagonal after the XPM phases, which the state itself
            # takes ahead of the inverse pass
            after_xpm = diag
            if nl_on:
                ns = 2.0 * (d.gamma_11ss * np.abs(a1) ** 2 + d.gamma_22ss * np.abs(a2) ** 2)
                ni = 2.0 * (d.gamma_11ii * np.abs(a1) ** 2 + d.gamma_22ii * np.abs(a2) ** 2)
                xpm_s, xpm_i = np.exp(1j * h * ns), np.exp(1j * h * ni)
                after_xpm = diag * xpm_s
                after_xpm *= xpm_i

            gain = 2.0 * h * float(np.real(np.vdot(src_diag, after_xpm + 0.5 * h * src_diag))) * dt * dt
            injected = after_xpm + h * src_diag

            def xpm_and_source(v, s):
                if nl_on:
                    v *= xpm_s[s, None]
                    v *= xpm_i
                diag[s] = injected[s]

            transform(state, np.fft.ifft, xpm_and_source)

            # exact discrete loss/source bookkeeping in the spirit of the
            # cumulative-probability integral: losses act through the two half
            # steps, the source is injected between them.
            xi[k + 1] = decay_half * (decay_half * xi[k] + gain)
            if not np.isfinite(xi[k + 1]):
                raise PropagationError(f"JTA propagation diverged at step {k + 1}")

            if k + 1 < n_z and k + 1 in snap_nodes:
                snaps.append(settle(k + 1, state.copy()))

        final = settle(n_z, state)
    finally:
        if helpers is not None:
            helpers.shutdown()

    if n_z in snap_nodes:
        snaps.append(final)
    if not abs(final.norm_sq - xi[-1]) <= 1e-10 * xi[-1]:
        raise PropagationError(
            f"JTA norm {final.norm_sq:.17g} departs from the pair-probability "
            f"bookkeeping {xi[-1]:.17g}"
        )
    profile = XiProfile(z_nodes=pump_trace.z_nodes.copy(), xi=xi)
    return SimulationResult(jta=final, xi_profile=profile, snapshots=snaps)
