"""Scalar and profile metrics of a completed run."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .config import C_LIGHT, DispersionSet, SourceConfig
from .jta import JointAmplitude, SimulationResult, sum_abs2


@dataclass
class MetricsReport:
    xi: float
    purity: float
    schmidt_number: float
    dlam_s: float          # m
    dlam_i: float          # m
    arrival_mean_s: float  # s, relative to the pump-1 pulse
    arrival_mean_i: float
    arrival_std_s: float
    arrival_std_i: float
    ec_deviation: float    # m

    def to_dict(self):
        return asdict(self)


_GRAM_BLOCKS = 8


def heralded_purity(phi: JointAmplitude) -> float:
    """Sum of fourth powers of the normalized Schmidt values,
    Tr((A^H A)^2) / Tr(A^H A)^2 = |A^H A|_F^2 / |A|_F^4, with no SVD."""
    a = phi.values
    norm_sq = sum_abs2(a)
    if norm_sq == 0.0:
        raise ValueError("purity undefined for a zero amplitude")
    # A^H A by blocks of rows, each from the conjugate of a block of
    # columns: neither A^H nor A^H A is held whole
    step = -(-a.shape[1] // _GRAM_BLOCKS)
    gram_sq = sum(sum_abs2(a[:, j:j + step].conj().T @ a) for j in range(0, a.shape[1], step))
    return gram_sq / norm_sq**2


def mean_shift(jsa: JointAmplitude, disp: DispersionSet, t0_fwhm: float):
    """Mean wavelength shift of each photon about its reference wavelength,
    from a JSA."""
    if jsa.domain != "frequency":
        raise ValueError("mean_shift expects a frequency-domain amplitude")
    ms, mi = jsa.marginals
    tot_s, tot_i = ms.sum(), mi.sum()
    if tot_s == 0.0 or tot_i == 0.0:
        raise ValueError("mean shift undefined for a zero amplitude")
    w = jsa.grid.w_axis
    mean_ws = float(np.dot(w, ms) / tot_s)
    mean_wi = float(np.dot(w, mi) / tot_i)
    conv = 1.0 / (2.0 * np.pi * C_LIGHT * t0_fwhm)
    dlam_s = -disp.lam_s**2 * conv * mean_ws
    dlam_i = -disp.lam_i**2 * conv * mean_wi
    return dlam_s, dlam_i


def arrival_times(phi: JointAmplitude, t0_fwhm: float):
    """First and second moments of the temporal marginals, in seconds in the
    common pump-1 moving frame."""
    if phi.domain != "time":
        raise ValueError("arrival_times expects a time-domain amplitude")
    ms, mi = phi.marginals
    tot_s, tot_i = ms.sum(), mi.sum()
    if tot_s == 0.0 or tot_i == 0.0:
        raise ValueError("arrival times undefined for a zero amplitude")
    t = phi.grid.t_axis
    mean_s = float(np.dot(t, ms) / tot_s)
    mean_i = float(np.dot(t, mi) / tot_i)
    var_s = float(np.dot((t - mean_s) ** 2, ms) / tot_s)
    var_i = float(np.dot((t - mean_i) ** 2, mi) / tot_i)
    means = (mean_s * t0_fwhm, mean_i * t0_fwhm)
    stds = (np.sqrt(var_s) * t0_fwhm, np.sqrt(var_i) * t0_fwhm)
    return means, stds


def _ec_deviation(dlam_s: float, dlam_i: float, disp: DispersionSet) -> float:
    """Deviation of the mean Idler wavelength shift from energy conservation,
    given the mean Signal shift and a fixed pump wavelength."""
    dlam_i_ec = -((disp.lam_i / disp.lam_s) ** 2) * dlam_s
    return dlam_i - dlam_i_ec


def _idler_spectrum(jsa: JointAmplitude):
    if jsa.domain != "frequency":
        raise ValueError("spectral_cumulative expects frequency-domain amplitudes")
    return jsa.z, jsa.grid, jsa.marginals[1] * jsa.grid.dw


def spectral_cumulative(snapshots):
    """Per-z Idler marginal intensity of the evolving joint spectrum.

    snapshots is any iterable of JSAs; each is released before the next is
    drawn.  Returns (z_nodes, w_axis, map) with map[k] the Idler spectral
    intensity at snapshot k, peak-normalized over the whole map.
    """
    rows = list(map(_idler_spectrum, snapshots))
    if len(rows) < 2:
        raise ValueError("need at least two snapshots")
    zs, grids, spectra = zip(*rows)
    out = np.asarray(spectra)
    peak = out.max()
    if peak > 0:
        out = out / peak
    return np.asarray(zs), grids[0].w_axis, out


def compute_metrics(result: SimulationResult, cfg: SourceConfig) -> MetricsReport:
    """The metrics of a run's final state.

    The purity and the arrival times are taken on the JTA, before
    result.jsa, which the wavelength shifts read, is built; the JSA is the
    JTA under a unitary map on each axis, so the purity is the same.
    """
    phi = result.jta
    t0 = cfg.pump.t0_fwhm
    d = cfg.dispersion
    purity = heralded_purity(phi)
    (mean_s, mean_i), (std_s, std_i) = arrival_times(phi, t0)
    dlam_s, dlam_i = mean_shift(result.jsa, d, t0)
    return MetricsReport(
        xi=phi.norm_sq,
        purity=purity,
        schmidt_number=1.0 / purity,
        dlam_s=dlam_s,
        dlam_i=dlam_i,
        arrival_mean_s=mean_s - cfg.pump.tau,
        arrival_mean_i=mean_i - cfg.pump.tau,
        arrival_std_s=std_s,
        arrival_std_i=std_i,
        ec_deviation=_ec_deviation(dlam_s, dlam_i, d),
    )
