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
from .spectral import linear_exponents


class PropagationError(RuntimeError):
    """Numerical failure (NaN/overflow) during stepping."""


@dataclass
class PumpTrace:
    """The z-step plan of a run: n_z steps of width h between the nodes
    z_nodes, and the two pumps, stacked as the stepper steps them, at the
    step midpoints z_mid (which the JTA stepper and the oracle read) and at
    the end nodes z = 0 and z = L (which --dump-pumps writes).  The
    interior nodes are not kept."""

    grid: Grid
    h: float
    z_nodes: np.ndarray          # (n_z + 1,)
    z_mid: np.ndarray            # (n_z,)
    mid: np.ndarray              # (2, n_z, n_t): (pump, step, T)
    ends: np.ndarray             # (2, 2, n_t): (pump, z = 0 | z = L, T)

    @property
    def n_z(self):
        return self.z_nodes.size - 1


def trace_key(cfg: SourceConfig) -> tuple:
    """The parts of a configuration that its pump trace depends on: the
    pump (with tau), the dispersion set, the numerics and the length.
    Configurations with equal keys have bitwise equal traces."""
    return (cfg.pump, cfg.dispersion, cfg.numerics, cfg.geometry.length)


def gaussian_envelope(t_axis, center, peak_power):
    """Gaussian with unit intensity FWHM on the dimensionless axis."""
    return np.sqrt(peak_power) * np.exp(-2.0 * np.log(2.0) * (t_axis - center) ** 2)


def initial_envelopes(cfg: SourceConfig) -> np.ndarray:
    """Launch-point envelopes as one (2, n_t) array: pump 1 (TM0) delayed
    by tau, pump 2 (TM1) at T=0."""
    t_axis = cfg.grid().t_axis
    rp = derive_run_params(cfg)
    tau_norm = cfg.pump.tau / cfg.pump.t0_fwhm
    return np.array([gaussian_envelope(t_axis, tau_norm, rp.p_peak_1),
                     gaussian_envelope(t_axis, 0.0, rp.p_peak_2)], dtype=complex)


# the steps change a pump's energy only through the loss; the law holds to
# ~1e-13 from 128x200 to 512x2000, so a departure beyond this is a fault
_ENERGY_RTOL = 1e-10


def _check_energy(cfg: SourceConfig, launch: np.ndarray, end: np.ndarray):
    """Raise PropagationError unless each pump's end energy int |a|^2 dT is
    exp(-alpha_p L) times its launch energy."""
    rp = derive_run_params(cfg)
    alpha = np.array([rp.alpha_m["p1"], rp.alpha_m["p2"]])
    expect = np.exp(-alpha * cfg.geometry.length) * np.sum(np.abs(launch) ** 2, axis=1)
    got = np.sum(np.abs(end) ** 2, axis=1)
    if np.any(np.abs(got - expect) > _ENERGY_RTOL * expect):
        raise PropagationError(
            f"pump energy departs from exp(-alpha_p L) times the launch energy: "
            f"{got.tolist()} against {expect.tolist()}"
        )


def propagate_pumps(cfg: SourceConfig) -> PumpTrace:
    """Integrate the two coupled pump equations over [0, L] from initial_envelopes.

    Internally steps at h/2 so that both the z nodes and the step midpoints
    hold physical envelopes; the trace keeps the midpoints and the two end
    nodes.  Both pumps are stepped together as one (2, n_t) array, with
    three transforms per sub-step, and the SPM/XPM phases are one 2x2 gamma
    matrix acting on (|a1|^2, |a2|^2).  Every node must be finite, and the
    end energies must follow the loss (see _check_energy).
    """
    grid = cfg.grid()
    d, num = cfg.dispersion, cfg.numerics

    n_z = num.n_z
    L = cfg.geometry.length
    h = L / n_z
    hs = h / 2.0  # internal sub-step

    # z-independent part of the linear operators (frequency domain)
    half = np.exp(linear_exponents(cfg, grid, ("p1", "p2")) * hs / 2.0)
    gamma = hs * np.array([[d.gamma_1111, 2.0 * d.gamma_1122],
                           [2.0 * d.gamma_2211, d.gamma_2222]])
    nl_on = num.xpm_spm_enabled

    a = initial_envelopes(cfg)
    mids = np.empty((2, n_z, num.n_t), complex)
    ends = np.empty((2, 2, num.n_t), complex)  # (pump, z = 0 | z = L, T)
    ends[:, 0] = a

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
        elif not np.all(np.isfinite(a)):
            raise PropagationError(f"pump propagation diverged at step {(k + 1) // 2}")
    ends[:, 1] = a
    _check_energy(cfg, ends[:, 0], ends[:, 1])

    z_nodes = np.linspace(0.0, L, n_z + 1)
    return PumpTrace(grid=grid, h=h, z_nodes=z_nodes, z_mid=z_nodes[:-1] + h / 2.0,
                     mid=mids, ends=ends)
