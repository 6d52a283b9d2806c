"""FFT conventions shared by the propagators and the domain conversions.

A field sampled on the time axis is synthesized from its raw spectrum F as
phi(T) = sum_k F_k exp(-i w_k T), i.e. analysis = np.fft.ifft and synthesis =
np.fft.fft, with w the unshifted angular-frequency grid.  Under this
convention d/dT maps to multiplication by (-i w) on the raw spectrum.
"""

from __future__ import annotations

import numpy as np


def omega_axis(n: int, dt: float) -> np.ndarray:
    """Unshifted angular frequency grid dual to an n-point axis of spacing dt."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=dt)


def shift_multiplier(omega, a):
    """Multiplier realizing phi(T) -> phi(T + a)."""
    return np.exp(-1j * omega * a)
