"""Driven two-dimensional evolution of the joint temporal amplitude, and
its unitary transform to the joint spectral amplitude.

The geometry acts only through the net phase mismatch, which the source
carries as exp(i Theta(z)) (see mismatch.mismatch_phase); the pump
envelopes and the stepped amplitude carry no mismatch phase of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import ConfigError, Grid, SourceConfig, derive_run_params
from .mismatch import mismatch_phase
from .pumps import PropagationError, PumpTrace
from .spectral import linear_exponents


def sum_abs2(a: np.ndarray) -> float:
    """sum |a|^2 of a complex matrix, by rows then over the row sums, with
    no temporary of the matrix's size and no BLAS call."""
    return float(np.sum(np.einsum("ij,ij->i", a.real, a.real)
                        + np.einsum("ij,ij->i", a.imag, a.imag)))


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


def _sorted_axis_factors(g: Grid):
    """The two per-axis factors of the unitary transform on the sorted axis
    g.w_axis: the sign (-1)^k on the time samples, which for even n turns
    the ifft of a row into its fftshifted ifft, and the phase and scale of
    the grid's time origin at each sorted frequency."""
    if g.n % 2:
        raise ValueError(f"the sorted-axis transform needs an even n, got {g.n}")
    sign = np.resize([1.0, -1.0], g.n)
    factor = (g.n * g.dt / np.sqrt(2.0 * np.pi)) * np.exp(1j * g.w_axis * g.t_axis[0])
    return sign, factor


def jta_to_jsa(phi: JointAmplitude) -> JointAmplitude:
    """Unitary two-dimensional transform to the dual frequency grid.

    The result is aligned with the sorted grid.w_axis on both axes and
    preserves the physical norm exactly.  The transform fills one new
    buffer and works on it in place.
    """
    if phi.domain != "time":
        raise ValueError("jta_to_jsa expects a time-domain amplitude")
    sign, factor = _sorted_axis_factors(phi.grid)
    spec = np.multiply(phi.values, sign[:, None], dtype=complex)
    spec *= sign[None, :]
    np.fft.ifftn(spec, axes=(0, 1), out=spec)
    spec *= factor[:, None]
    spec *= factor[None, :]
    return JointAmplitude(values=spec, domain="frequency", grid=phi.grid, z=phi.z,
                          norm_sq=phi.norm_sq)


def jsa_to_jta(phi: JointAmplitude) -> JointAmplitude:
    """The inverse of jta_to_jsa, on one new buffer."""
    if phi.domain != "frequency":
        raise ValueError("jsa_to_jta expects a frequency-domain amplitude")
    sign, factor = _sorted_axis_factors(phi.grid)
    vals = phi.values / factor[:, None]
    vals /= factor[None, :]
    np.fft.fftn(vals, axes=(0, 1), out=vals)
    vals *= sign[:, None]
    vals *= sign[None, :]
    return JointAmplitude(values=vals, domain="time", grid=phi.grid, z=phi.z, norm_sq=phi.norm_sq)


@dataclass
class XiProfile:
    z_nodes: np.ndarray
    xi: np.ndarray


@dataclass
class SimulationResult:
    jta: JointAmplitude
    xi_profile: XiProfile
    snapshots: list

    @cached_property
    def jsa(self) -> JointAmplitude:
        """The final JSA, built on first access and kept, so that the
        metrics and the JSA dump share one."""
        return jta_to_jsa(self.jta)


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
    midpoint."""
    theta_mid = mismatch_phase(cfg, pump_trace.z_mid)
    gamma_fwm, dt = cfg.dispersion.gamma_p1p2si, pump_trace.grid.dt
    for a1, a2, theta in zip(pump_trace.mid[0], pump_trace.mid[1], theta_mid):
        yield a1, a2, _source_diag(a1, a2, gamma_fwm, theta, dt)


def snapshot_nodes(count: int, n_z: int) -> np.ndarray:
    """Indices of `count` evenly spaced z nodes from 0 to n_z; none for 0."""
    if count == 0:
        return np.empty(0, int)
    if not 2 <= count <= n_z + 1:
        raise ConfigError(f"snapshots must be 0 or between 2 and n_z + 1 = {n_z + 1}, got {count}")
    return np.round(np.linspace(0, n_z, count)).astype(int)


def evolve_jta(
    cfg: SourceConfig,
    pump_trace: PumpTrace,
    snapshots: int = 0,
) -> SimulationResult:
    """Integrate the driven JTA equation in lockstep with the pump trace.

    Each step is a symmetrized split step: a linear half-step in the
    frequency domain, the signal/idler XPM phase and the source injection
    on the time grid at the pump midpoint, and a second linear half-step.
    At every interior node the trailing half-step and the next leading one
    are fused into a single full-step multiplier.  The state lives in one
    n x n buffer that is transformed in place.  A snapshot at one of the
    `snapshots` evenly spaced nodes (see snapshot_nodes) is formed from a
    copy, by the 1-D half-step factors, and leaves the state alone, so the
    result does not depend on the snapshots; only the last node applies
    its half-step to the state itself.

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
    # domain (the unnormalized ifft2 of the time values) between steps
    state = np.zeros((n, n), complex)
    diag = state.reshape(-1)[:: n + 1]  # view of the diagonal

    xi = np.zeros(n_z + 1)

    snap_nodes = set(snapshot_nodes(snapshots, n_z).tolist())
    snaps = []

    def physical(k, values_time):
        return JointAmplitude(values=values_time, domain="time", grid=grid, z=float(pump_trace.z_nodes[k]))

    # in-place transforms; fftn/ifftn because ifft2 drops its out= (numpy 2.4)
    def fft2(a):
        return np.fft.fftn(a, axes=(0, 1), out=a)

    def ifft2(a):
        return np.fft.ifftn(a, axes=(0, 1), out=a)

    def half_step(a):
        a *= half_s
        a *= half_i

    if 0 in snap_nodes:
        snaps.append(physical(0, state.copy()))
    ifft2(state)
    half_step(state)

    for k, (a1, a2, src_diag) in enumerate(step_drives(cfg, pump_trace)):
        fft2(state)

        if nl_on:
            ns = 2.0 * (d.gamma_11ss * np.abs(a1) ** 2 + d.gamma_22ss * np.abs(a2) ** 2)
            ni = 2.0 * (d.gamma_11ii * np.abs(a1) ** 2 + d.gamma_22ii * np.abs(a2) ** 2)
            state *= np.exp(1j * h * ns)[:, None]
            state *= np.exp(1j * h * ni)[None, :]

        gain = 2.0 * h * float(np.real(np.vdot(src_diag, diag + 0.5 * h * src_diag))) * dt * dt
        diag += h * src_diag

        ifft2(state)

        # exact discrete loss/source bookkeeping in the spirit of the
        # cumulative-probability integral: losses act through the two half
        # steps, the source is injected between them.
        xi[k + 1] = decay_half * (decay_half * xi[k] + gain)
        if not np.isfinite(xi[k + 1]):
            raise PropagationError(f"JTA propagation diverged at step {k + 1}")

        if k + 1 == n_z:
            half_step(state)
        else:
            if (k + 1) in snap_nodes:
                snap = state * half_s
                snap *= half_i
                snaps.append(physical(k + 1, fft2(snap)))
            state *= full_mult

    final = physical(n_z, fft2(state))
    if n_z in snap_nodes:
        snaps.append(final)
    if not abs(final.norm_sq - xi[-1]) <= 1e-10 * xi[-1]:
        raise PropagationError(
            f"JTA norm {final.norm_sq:.17g} departs from the pair-probability "
            f"bookkeeping {xi[-1]:.17g}"
        )
    profile = XiProfile(z_nodes=pump_trace.z_nodes.copy(), xi=xi)
    return SimulationResult(jta=final, xi_profile=profile, snapshots=snaps)


def perturbative_oracle(cfg: SourceConfig, pump_trace: PumpTrace) -> JointAmplitude:
    """Direct quadrature of the driven equation at first order.

    Each step's diagonal source is propagated linearly (see
    spectral.linear_exponents) straight to z = L and accumulated in the
    frequency domain.  Only valid with the nonlinear phases disabled.
    """
    if cfg.numerics.xpm_spm_enabled:
        raise ValueError("perturbative oracle requires xpm_spm_enabled = False")
    grid = pump_trace.grid
    n, h = grid.n, pump_trace.h
    L = float(pump_trace.z_nodes[-1])
    rest = L - pump_trace.z_mid  # from each step's source to z = L

    ls, li = linear_exponents(cfg, grid, ("s", "i"))

    idx = np.arange(n)
    ridge_idx = (idx[:, None] + idx[None, :]) % n
    acc = np.zeros((n, n), complex)
    for k, (_, _, diag) in enumerate(step_drives(cfg, pump_trace)):
        g = np.fft.ifft(diag) / n
        acc += h * np.exp(ls * rest[k])[:, None] * np.exp(li * rest[k])[None, :] * g[ridge_idx]

    return JointAmplitude(values=np.fft.fft2(acc), domain="time", grid=grid, z=L)
