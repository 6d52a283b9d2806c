"""Closed-form cumulative generation profile and the erf fit against it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SourceConfig, derive_run_params
from .jta import XiProfile


@dataclass
class ErfFit:
    l_match_fit: float     # m
    sigma_z_fit: float     # m
    delta_z_fwhm: float    # m, FWHM of the generation-rate gaussian
    plateau: float
    rms_residual: float    # relative to the plateau
    reliable: bool = True


def sigma_z_analytic(cfg: SourceConfig) -> float:
    """Width of the generation region set by the pump walk-off."""
    return cfg.dispersion.l_w_p / (2.0 * np.sqrt(np.log(2.0)))


def erf_xi_profile(cfg: SourceConfig, z_nodes, plateau: float = 1.0) -> np.ndarray:
    """Cumulative pair probability model: an erf step of width sigma_z
    centered on the pump collision point."""
    from scipy.special import erf

    rp = derive_run_params(cfg)
    sz = sigma_z_analytic(cfg)
    z = np.asarray(z_nodes, dtype=float)
    return 0.5 * plateau * (1.0 + erf((z - rp.l_match) / (np.sqrt(2.0) * sz)))


def _erf_model(z, plateau, l_match, sigma_z):
    from scipy.special import erf

    return 0.5 * plateau * (1.0 + erf((z - l_match) / (np.sqrt(2.0) * sigma_z)))


def fit_erf(xi_profile: XiProfile, loss_rate: float = 0.0, l_match_hint: float | None = None) -> ErfFit:
    """Least-squares erf fit of a cumulative generation profile.

    loss_rate (1/m, alpha_s + alpha_i) divides the post-generation
    exponential decay out of the profile before fitting; l_match_hint sets
    where that correction starts (defaults to the half-rise position).
    """
    from scipy.optimize import curve_fit

    z = np.asarray(xi_profile.z_nodes, dtype=float)
    xi = np.asarray(xi_profile.xi, dtype=float)
    if xi.max() <= 0:
        raise ValueError("cannot fit an all-zero profile")

    if l_match_hint is None:
        half = 0.5 * xi.max()
        l_match_hint = float(z[np.searchsorted(xi, half)]) if xi[-1] >= half else float(z[-1])
    if loss_rate:
        xi = xi * np.exp(loss_rate * np.clip(z - l_match_hint, 0.0, None))

    span = z[-1] - z[0]
    p0 = (xi.max(), l_match_hint, 0.05 * span)
    popt, _ = curve_fit(_erf_model, z, xi, p0=p0, maxfev=20000)
    plateau, l_match, sigma_z = float(popt[0]), float(popt[1]), abs(float(popt[2]))
    resid = _erf_model(z, *popt) - xi
    rms = float(np.sqrt(np.mean(resid**2)) / abs(plateau))

    # without a plateau (pulses never fully cross) the fit is extrapolating
    reliable = l_match + 2.0 * sigma_z <= z[-1] and xi[-1] >= 0.8 * plateau
    return ErfFit(
        l_match_fit=l_match,
        sigma_z_fit=sigma_z,
        delta_z_fwhm=2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma_z,
        plateau=plateau,
        rms_residual=rms,
        reliable=bool(reliable),
    )
