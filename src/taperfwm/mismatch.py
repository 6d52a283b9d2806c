"""Geometry -> phase-mismatch mapping.

The width taper and the fabrication offsets act on the source only through
the net phase mismatch kappa(z), which enters the model once: as the source
phase exp(i Theta(z)) of the pump product, Theta(z) = int_0^z kappa.
"""

from __future__ import annotations

import numpy as np

from .config import C_LIGHT, DispersionSet, MismatchModel, SourceConfig


def calibrate_mismatch(dlam_dw: float, dlam_dh: float, disp: DispersionSet) -> MismatchModel:
    """Convert phase-matching wavelength sensitivities into mismatch coefficients.

    dlam_dw, dlam_dh: shift of the Signal phase-matching wavelength per unit
    width/height deviation, in nm/um and nm/nm (i.e. both m/m).  The sign
    convention makes a wider waveguide shift the generated Signal toward the
    pump (negative wavelength shift for the default negative dlam_dw).
    """
    inv_v_diff = 1.0 / disp.v_s - 1.0 / disp.v_i
    if inv_v_diff == 0.0:
        raise ValueError("calibration impossible: degenerate Signal/Idler walk-off")
    scale = -inv_v_diff * (2.0 * np.pi * C_LIGHT / disp.lam_s**2)
    return MismatchModel(
        c_kappa_w=scale * (dlam_dw * 1e-9 / 1e-6),
        c_kappa_h=scale * (dlam_dh * 1e-9 / 1e-9),
    )


def mismatch_phase(cfg: SourceConfig, z):
    """Net mismatch phase Theta(z) = int_0^z kappa accumulated from the input.

    kappa(z) = c_kappa_w * (w(z) - mean_width) + c_kappa_h * height_offset is
    linear in z along the linear taper, so the midpoint rule is exact:
    Theta(z) = z * kappa(z / 2).
    """
    g, m = cfg.geometry, cfg.mismatch
    z = np.asarray(z, dtype=float)
    kappa_half = m.c_kappa_w * (g.width_at(0.5 * z) - g.mean_width) + m.c_kappa_h * g.height_offset
    return z * kappa_half
