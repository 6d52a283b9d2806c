"""FFT conventions, and the linear operator of the four fields under them.

A field sampled on the time axis is synthesized from its raw spectrum F as
phi(T) = sum_k F_k exp(-i w_k T), i.e. analysis = np.fft.ifft and synthesis =
np.fft.fft, with w the unshifted angular-frequency grid.  Under this
convention d/dT maps to multiplication by (-i w) on the raw spectrum.
"""

from __future__ import annotations

import numpy as np

from .config import Grid, SourceConfig, derive_run_params


def omega_axis(n: int, dt: float) -> np.ndarray:
    """Unshifted angular frequency grid dual to an n-point axis of spacing dt."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=dt)


def linear_exponents(cfg: SourceConfig, grid: Grid, fields) -> np.ndarray:
    """Per-unit-length linear-operator exponents of the named fields ("p1",
    "p2", "s", "i"), one row each on the unshifted grid: loss, drift from
    pump 1's frame and group-velocity dispersion, -alpha/2 + i w drift +
    (i w^2 / 2) / l_d, the last term only when dispersion is enabled.  The
    mismatch phase is not among them: the source carries it."""
    rp = derive_run_params(cfg)
    w = omega_axis(grid.n, grid.dt)
    rows = [-0.5 * rp.alpha_m[f] + 1j * w * rp.drift[f] for f in fields]
    if cfg.numerics.dispersion_enabled:
        rows = [row + 0.5j * w**2 / getattr(cfg.dispersion, f"l_d_{f}")
                for row, f in zip(rows, fields)]
    return np.stack(rows)
