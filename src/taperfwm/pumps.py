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
    z_nodes, with midpoints z_mid, and the two pumps, stacked as the stepper
    steps them, at z = 0 and z = L (ends, which --dump-pumps writes).  The
    pumps are stepped to each step midpoint as it is drawn (see midpoints),
    which fills the z = L row of ends after the last step; neither the
    midpoints nor the interior nodes are kept."""

    grid: Grid
    h: float
    z_nodes: np.ndarray          # (n_z + 1,)
    z_mid: np.ndarray            # (n_z,)
    ends: np.ndarray             # (2, 2, n_t): (pump, z = 0 | z = L, T)

    @property
    def n_z(self):
        return self.z_nodes.size - 1


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


def midpoints(cfg: SourceConfig, trace: PumpTrace):
    """Each step's two pump midpoints, as one (2, n_t) array, in step order,
    stepped from trace.ends' launch row as each is drawn.

    The loop integrates the two coupled pump equations over [0, L] at h/2,
    so that both the z nodes and the step midpoints hold physical
    envelopes.  Both pumps are stepped together, with two transforms per
    sub-step and a third at each midpoint and at z = L, and the SPM/XPM
    phases are one 2x2 gamma matrix acting on (|a1|^2, |a2|^2).  Every
    sub-step must be finite before it is yielded or stepped on, and the
    z = L envelopes, which go into trace.ends, must follow the loss (see
    _check_energy).
    """
    d, num = cfg.dispersion, cfg.numerics
    hs = trace.h / 2.0  # internal sub-step

    # z-independent part of the linear operators (frequency domain)
    half = np.exp(linear_exponents(cfg, trace.grid, ("p1", "p2")) * hs / 2.0)
    gamma = hs * np.array([[d.gamma_1111, 2.0 * d.gamma_1122],
                           [2.0 * d.gamma_2211, d.gamma_2222]])
    nl_on = num.xpm_spm_enabled

    # the spectrum of a sub-step's end is carried into the next sub-step
    # instead of transforming the envelope back; the envelope itself is
    # formed only at a midpoint and at z = L, and a node sub-step is checked
    # on its spectrum
    fft, ifft = np.fft.fft, np.fft.ifft
    spec = ifft(trace.ends[:, 0])
    last = 2 * trace.n_z - 1
    for k in range(2 * trace.n_z):
        a = fft(half * spec)
        if nl_on:
            a *= np.exp(1j * (gamma @ (np.abs(a) ** 2)))
        spec = half * ifft(a)
        out = fft(spec) if k % 2 == 0 or k == last else spec

        if not np.all(np.isfinite(out)):
            raise PropagationError(f"pump propagation diverged at step {k // 2 + 1}")
        if k % 2 == 0:
            yield out
    trace.ends[:, 1] = out
    _check_energy(cfg, trace.ends[:, 0], trace.ends[:, 1])


def propagate_pumps(cfg: SourceConfig) -> PumpTrace:
    """The z-step plan of cfg with its launch envelopes; midpoints steps
    the pumps from there as their midpoints are drawn."""
    n_z, L = cfg.numerics.n_z, cfg.geometry.length
    h = L / n_z
    z_nodes = np.linspace(0.0, L, n_z + 1)
    a = initial_envelopes(cfg)
    return PumpTrace(grid=cfg.grid(), h=h, z_nodes=z_nodes, z_mid=z_nodes[:-1] + h / 2.0,
                     ends=np.stack([a, np.zeros_like(a)], axis=1))
