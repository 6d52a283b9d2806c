"""Driven two-dimensional evolution of the joint temporal amplitude, and
its unitary transform to the joint spectral amplitude.

The geometry acts only through the net phase mismatch, which the source
carries as exp(i Theta(z)) (see mismatch.mismatch_phase); the pump
envelopes and the stepped amplitude carry no mismatch phase of their own.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

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


def row_blocks(n: int) -> list:
    """The BLOCKS slices that cover range(n), the last one ragged."""
    step = -(-n // BLOCKS)
    return [slice(j, min(j + step, n)) for j in range(0, n, step)]


def abs2_sums(a: np.ndarray):
    """The row sums and the column sums of |a|^2 of a complex matrix,
    formed by blocks of rows (see row_blocks)."""
    rows, cols = np.empty(a.shape[0]), np.zeros(a.shape[1])
    for s in row_blocks(a.shape[0]):
        inten = np.abs(a[s])
        inten *= inten
        rows[s] = inten.sum(axis=1)
        cols += inten.sum(axis=0)
    return rows, cols


@dataclass
class JointAmplitude:
    """Complex joint temporal amplitude (JTA) over (T_s, T_i).

    Axis 0 is the Signal, axis 1 the Idler.  norm_sq is the physical pair
    probability integral of |values|^2 on the time grid.
    """

    values: np.ndarray
    grid: Grid
    z: float
    norm_sq: float = field(default=None)

    def __post_init__(self):
        if self.norm_sq is None:
            self.norm_sq = self.integrate_norm()

    def integrate_norm(self) -> float:
        return sum_abs2(self.values) * (self.grid.dt * self.grid.dt)

    @cached_property
    def marginals(self):
        """The Signal and Idler intensity marginals, sum |phi|^2 over the
        other axis: formed on first access and kept, by blocks of rows (see
        abs2_sums).  evolve_jta wraps its state only after the last step;
        the one write to values after that, jta_to_jsa(phi, out=phi.values),
        drops the kept marginals."""
        return abs2_sums(self.values)


def jta_to_jsa(phi: JointAmplitude, out: np.ndarray | None = None) -> np.ndarray:
    """The joint spectral amplitude (JSA) of a JTA: the unitary
    two-dimensional transform to the dual frequency grid, as an n x n array.

    The result is aligned with the sorted grid.w_axis on both axes and
    preserves the physical norm exactly, with the frequency cell
    w_axis[1] - w_axis[0].  Each axis takes two factors: the sign (-1)^k on
    the time samples, which for even n turns the ifft of a row into its
    fftshifted ifft, and the phase and scale of the grid's time origin at
    each sorted frequency.  The transform fills out, a complex n x n buffer,
    or a new one, and works on it in place.  out may be phi.values itself,
    which then holds the JSA: only the owner of phi may pass it, after the
    JTA's last reader; phi's kept marginals go.
    """
    g = phi.grid
    if g.n % 2:
        raise ValueError(f"the sorted-axis transform needs an even n, got {g.n}")
    sign = np.resize([1.0, -1.0], g.n)
    factor = (g.n * g.dt / np.sqrt(2.0 * np.pi)) * np.exp(1j * g.w_axis * g.t_axis[0])
    if out is phi.values:
        phi.__dict__.pop("marginals", None)
    spec = np.multiply(phi.values, sign[:, None], out=out, dtype=complex)
    spec *= sign[None, :]
    np.fft.ifftn(spec, axes=(0, 1), out=spec)
    spec *= factor[:, None]
    spec *= factor[None, :]
    return spec


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
    independent runs, or the threads of one JTA run."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# rows of a block of a z-step's passes, and the side of a block of its
# transpose: 64, 128 and 256 measured alike at n_t = 128, 256 and 512, 32
# was slower at 512 and one whole-state block slower still; 128 keeps each
# thread's transpose temporary at 256 kB
_BLOCK = 128


def _thread_count(n: int) -> int:
    """Threads of one z-step on an n x n grid: one per usable CPU from two
    row blocks (n > _BLOCK) on, except in a pool's worker process, whose
    sibling workers hold the other CPUs; otherwise one.  A worker runs in
    multiprocessing, so a process that never imported it is none."""
    mp = sys.modules.get("multiprocessing")
    if n <= _BLOCK or (mp is not None and mp.parent_process() is not None):
        return 1
    return worker_count()


def evolve_jta(
    cfg: SourceConfig,
    pump_trace: PumpTrace,
    snapshots: int = 0,
) -> SimulationResult:
    """Integrate the driven JTA equation in lockstep with the pumps of
    pump_trace, stepped as each step's drive is drawn (see step_drives).

    The state stays on the time grid, in one n x n buffer.  Each step is a
    full linear step, the signal/idler XPM phases at the pump midpoint and
    the source injection on the diagonal: the symmetrized split step with
    the trailing linear half-step of one step fused with the leading one of
    the next (the state starts at zero, on which the first leading
    half-step acts as a full one).  The linear and XPM operators factor
    into a Signal and an Idler part, which commute, so a step is one pass
    per axis over the buffer's rows: each row to frequency, times that
    axis's exp(h l), back, times its XPM phase.  The buffer is transposed
    in place between the passes, so every 1-D transform runs on contiguous
    rows and the axis the rows run along alternates from step to step.
    The diagonal is the same in both layouts, so the source and the
    bookkeeping read it wherever the state stands.  settle takes the
    half-step a node owes, by the same pass pair with no XPM and one more
    transpose when the rows end along the Signal axis: on a copy for a
    snapshot at one of the `snapshots` evenly spaced nodes (see
    snapshot_nodes), so the result does not depend on the snapshots, and
    on the state at the last node.

    This thread and helper threads that live for this call only (see
    _thread_count) claim a pass's row blocks and a transpose's block pairs
    from one shared iterator.  Each 1-D transform sees the same row, and
    each element the same operations in the same order, whichever thread
    claims it, so the result is bitwise the same for any thread count.

    xi(z) at every node is the exact discrete loss/source bookkeeping, an
    O(n) recursion on the diagonal; a non-finite xi stops the run at that
    step, and the measured norm of the final state must match it to 1e-10.
    """
    grid = pump_trace.grid
    d, num = cfg.dispersion, cfg.numerics
    rp = derive_run_params(cfg)
    n = num.n_t
    n_z, h, dt = pump_trace.n_z, pump_trace.h, grid.dt

    # per axis, 0 the Signal and 1 the Idler; the inverse transforms run
    # unscaled, and their 1/n, a power of two, scales these exactly
    ls, li = linear_exponents(cfg, grid, ("s", "i"))
    full = (np.exp(h * ls) / n, np.exp(h * li) / n)
    half = (np.exp(0.5 * h * ls) / n, np.exp(0.5 * h * li) / n)

    sigma = rp.alpha_m["s"] + rp.alpha_m["i"]
    decay_half = np.exp(-sigma * h / 2.0)
    nl_on = num.xpm_spm_enabled

    # the state: values[T_s, T_i], its rows along the Idler axis, at the
    # start, and transposed, its rows along the Signal axis, after an odd
    # number of steps
    state = np.zeros((n, n), complex)
    diag = state.reshape(-1)[:: n + 1]  # view of the diagonal
    along = 1  # the axis the state's rows run along

    xi = np.zeros(n_z + 1)

    snap_nodes = set(snapshot_nodes(snapshots, n_z).tolist())
    snaps = []

    def physical(k, values_time):
        return JointAmplitude(values=values_time, grid=grid, z=float(pump_trace.z_nodes[k]))

    blocks = [slice(j, j + _BLOCK) for j in range(0, n, _BLOCK)]
    pairs = [(r, c) for j, r in enumerate(blocks) for c in blocks[j:]]
    count = _thread_count(n)
    helpers = ThreadPoolExecutor(count - 1) if count > 1 else None

    def shared(fn, items):
        # fn(item) for every item, each claimed once from one iterator by
        # this thread and the helpers: next() on a list iterator is one step
        # under the interpreter lock
        claim = iter(items)

        def drain():
            for item in claim:
                fn(item)

        pending = [helpers.submit(drain) for _ in range(count - 1)]
        drain()
        for f in pending:
            f.result()

    def axis_pass(a, mult, phase):
        # along each row of a: to frequency, times mult, back, times phase
        def rows(s):
            v = a[s]
            np.fft.ifft(v, axis=1, norm="forward", out=v)
            v *= mult
            np.fft.fft(v, axis=1, out=v)
            if phase is not None:
                v *= phase

        shared(rows, blocks)

    def transpose(a):
        def swap(pair):
            r, c = pair
            below = a[c, r].T.copy()
            if r != c:
                a[c, r] = a[r, c].T
            a[r, c] = below

        shared(swap, pairs)

    def pass_pair(a, axis, mults, phases=(None, None)):
        # both axes' passes on a, the first along `axis`, which its rows run
        # along; returns the axis they run along after the transpose
        axis_pass(a, mults[axis], phases[axis])
        transpose(a)
        axis_pass(a, mults[1 - axis], phases[1 - axis])
        return 1 - axis

    def settle(k, a):
        # the amplitude at node k of a, the state or a copy of it
        if pass_pair(a, along, half) == 0:
            transpose(a)
        return physical(k, a)

    try:
        if 0 in snap_nodes:
            snaps.append(physical(0, state.copy()))

        for k, (a1, a2, src_diag) in enumerate(step_drives(cfg, pump_trace)):
            xpm = (None, None)
            if nl_on:
                p1, p2 = np.abs(a1) ** 2, np.abs(a2) ** 2
                ns = 2.0 * (d.gamma_11ss * p1 + d.gamma_22ss * p2)
                ni = 2.0 * (d.gamma_11ii * p1 + d.gamma_22ii * p2)
                xpm = (np.exp(1j * h * ns), np.exp(1j * h * ni))
            along = pass_pair(state, along, full, xpm)

            gain = 2.0 * h * float(np.real(np.vdot(src_diag, diag + 0.5 * h * src_diag))) * dt * dt
            diag += h * src_diag

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
