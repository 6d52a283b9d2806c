"""Coupled pump propagation with a symmetrized split-step Fourier scheme.

Both pump envelopes are tracked in the frame moving with pump 1, on the
dimensionless time axis of the shared grid.  Envelope units are sqrt(W).
The envelopes carry no mismatch phase: the geometry enters the model only
as the source phase (see mismatch.mismatch_phase), so the pump trace does
not depend on the taper or the fabrication offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Grid, SourceConfig, derive_run_params
from .spectral import omega_axis


class PropagationError(RuntimeError):
    """Numerical failure (NaN/overflow) during stepping."""


@dataclass
class PumpEnvelopes:
    a_p1: np.ndarray
    a_p2: np.ndarray
    z: float = 0.0


@dataclass
class PumpTrace:
    """Envelopes at every z node plus the step midpoints needed downstream."""

    grid: Grid
    z_nodes: np.ndarray          # (n_z + 1,)
    a_p1: np.ndarray             # (n_z + 1, n_t)
    a_p2: np.ndarray
    z_mid: np.ndarray            # (n_z,)
    a_p1_mid: np.ndarray         # (n_z, n_t)
    a_p2_mid: np.ndarray

    @property
    def n_z(self):
        return self.z_nodes.size - 1

    def envelopes_at(self, k: int) -> PumpEnvelopes:
        return PumpEnvelopes(self.a_p1[k].copy(), self.a_p2[k].copy(), z=float(self.z_nodes[k]))


def gaussian_envelope(t_axis, center, peak_power):
    """Gaussian with unit intensity FWHM on the dimensionless axis."""
    return np.sqrt(peak_power) * np.exp(-2.0 * np.log(2.0) * (t_axis - center) ** 2)


def initial_envelopes(cfg: SourceConfig, grid: Grid | None = None) -> PumpEnvelopes:
    """Launch-point envelopes: pump 1 (TM0) delayed by tau, pump 2 (TM1) at T=0."""
    grid = grid or cfg.grid()
    rp = derive_run_params(cfg)
    tau_norm = cfg.pump.tau / cfg.pump.t0_fwhm
    a1 = gaussian_envelope(grid.t_axis, tau_norm, rp.p_peak_1).astype(complex)
    a2 = gaussian_envelope(grid.t_axis, 0.0, rp.p_peak_2).astype(complex)
    return PumpEnvelopes(a_p1=a1, a_p2=a2, z=0.0)


def propagate_pumps(cfg: SourceConfig, env0: PumpEnvelopes | None = None) -> PumpTrace:
    """Integrate the two coupled pump equations over [0, L].

    Internally steps at h/2 so that both the z nodes and the step midpoints
    hold physical envelopes; the trace exposes both.  Both pumps are stepped
    together as one (2, n_t) array, with three transforms per sub-step, and
    the SPM/XPM phases are one 2x2 gamma matrix acting on (|a1|^2, |a2|^2).
    """
    grid = cfg.grid()
    if env0 is None:
        env0 = initial_envelopes(cfg, grid)
    d, num = cfg.dispersion, cfg.numerics
    rp = derive_run_params(cfg)

    n_z = num.n_z
    L = cfg.geometry.length
    h = L / n_z
    hs = h / 2.0  # internal sub-step

    w = omega_axis(num.n_t, grid.dt)
    disp = 1.0 if num.dispersion_enabled else 0.0
    nl_on = num.xpm_spm_enabled

    # z-independent part of the linear operators (frequency domain)
    lin1 = -0.5 * rp.alpha_m["p1"] + disp * 0.5j * w**2 / d.l_d_p1
    lin2 = -0.5 * rp.alpha_m["p2"] + disp * 0.5j * w**2 / d.l_d_p2 + 1j * w / d.l_w_p
    half = np.exp(np.stack([lin1, lin2]) * hs / 2.0)
    gamma = hs * np.array([[d.gamma_1111, 2.0 * d.gamma_1122],
                           [2.0 * d.gamma_2211, d.gamma_2222]])

    a = np.array([env0.a_p1, env0.a_p2], dtype=complex)
    nodes = np.empty((2, n_z + 1, num.n_t), complex)
    mids = np.empty((2, n_z, num.n_t), complex)
    nodes[:, 0] = a

    # the spectrum of a sub-step's end is carried into the next sub-step
    # instead of transforming the stored envelope back
    fft, ifft = np.fft.fft, np.fft.ifft
    spec = ifft(a)
    for k in range(2 * n_z):
        a = fft(half * spec)
        if nl_on:
            a *= np.exp(1j * (gamma @ (np.abs(a) ** 2)))
        spec = half * ifft(a)
        a = fft(spec)

        if k % 2 == 0:
            mids[:, k // 2] = a
        else:
            j = (k + 1) // 2
            nodes[:, j] = a
            if not np.all(np.isfinite(a)):
                raise PropagationError(f"pump propagation diverged at step {j}")

    z_nodes = np.linspace(0.0, L, n_z + 1)
    z_mid = z_nodes[:-1] + h / 2.0
    return PumpTrace(
        grid=grid,
        z_nodes=z_nodes,
        a_p1=nodes[0],
        a_p2=nodes[1],
        z_mid=z_mid,
        a_p1_mid=mids[0],
        a_p2_mid=mids[1],
    )


def analytic_pumps(cfg: SourceConfig, z, t):
    """Closed-form moving gaussians in lab coordinates (z in m, t in s),
    ignoring loss, dispersion and nonlinearity."""
    d = cfg.dispersion
    rp = derive_run_params(cfg)
    t0 = cfg.pump.t0_fwhm
    sigma1 = d.v_p1 * t0 / (2.0 * np.sqrt(np.log(2.0)))
    sigma2 = d.v_p2 * t0 / (2.0 * np.sqrt(np.log(2.0)))
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    a1 = np.sqrt(rp.p_peak_1) * np.exp(-((z - d.v_p1 * (t - cfg.pump.tau)) ** 2) / (2.0 * sigma1**2))
    a2 = np.sqrt(rp.p_peak_2) * np.exp(-((z - d.v_p2 * t) ** 2) / (2.0 * sigma2**2))
    return a1, a2
