"""Scalar and profile metrics of a completed run."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .config import CONSTANTS, DispersionSet, SourceConfig
from .jta import JointAmplitude, SimulationResult
from .spectral import omega_axis


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


def jta_to_jsa(phi: JointAmplitude) -> JointAmplitude:
    """Unitary two-dimensional transform to the dual frequency grid.

    The result is aligned with the sorted grid.w_axis on both axes and
    preserves the physical norm exactly.
    """
    if phi.domain != "time":
        raise ValueError("jta_to_jsa expects a time-domain amplitude")
    g = phi.grid
    n = g.n
    w = omega_axis(n, g.dt)
    scale = n * g.dt / np.sqrt(2.0 * np.pi)
    offset = np.exp(1j * w * g.t_axis[0])
    spec = np.fft.ifft2(phi.values) * (scale * offset)[:, None] * (scale * offset)[None, :]
    spec = np.fft.fftshift(spec)
    return JointAmplitude(values=spec, domain="frequency", grid=g, z=phi.z, norm_sq=phi.norm_sq)


def jsa_to_jta(phi: JointAmplitude) -> JointAmplitude:
    if phi.domain != "frequency":
        raise ValueError("jsa_to_jta expects a frequency-domain amplitude")
    g = phi.grid
    n = g.n
    w = omega_axis(n, g.dt)
    scale = n * g.dt / np.sqrt(2.0 * np.pi)
    offset = np.exp(1j * w * g.t_axis[0])
    spec = np.fft.ifftshift(phi.values)
    spec = spec / ((scale * offset)[:, None] * (scale * offset)[None, :])
    vals = np.fft.fft2(spec)
    return JointAmplitude(values=vals, domain="time", grid=g, z=phi.z, norm_sq=phi.norm_sq)


def in_domain(phi: JointAmplitude, domain: str) -> JointAmplitude:
    if phi.domain == domain:
        return phi
    return jta_to_jsa(phi) if domain == "frequency" else jsa_to_jta(phi)


def heralded_purity(phi: JointAmplitude) -> float:
    """Sum of fourth powers of the normalized Schmidt values,
    Tr((A^H A)^2) / Tr(A^H A)^2 = |A^H A|_F^2 / |A|_F^4, with no SVD."""
    a = phi.values
    norm_sq = float(np.sum(np.abs(a) ** 2))
    if norm_sq == 0.0:
        raise ValueError("purity undefined for a zero amplitude")
    gram = a.conj().T @ a
    gram /= norm_sq
    return float(np.sum(np.abs(gram) ** 2))


def _marginals(phi: JointAmplitude):
    inten = np.abs(phi.values) ** 2
    return inten.sum(axis=1), inten.sum(axis=0)


def mean_shift(phi: JointAmplitude, disp: DispersionSet, t0_fwhm: float):
    """Mean wavelength shift of each photon about its reference wavelength."""
    jsa = in_domain(phi, "frequency")
    ms, mi = _marginals(jsa)
    tot_s, tot_i = ms.sum(), mi.sum()
    if tot_s == 0.0 or tot_i == 0.0:
        raise ValueError("mean shift undefined for a zero amplitude")
    w = jsa.grid.w_axis
    mean_ws = float(np.dot(w, ms) / tot_s)
    mean_wi = float(np.dot(w, mi) / tot_i)
    conv = 1.0 / (2.0 * np.pi * CONSTANTS.c * t0_fwhm)
    dlam_s = -disp.lam_s**2 * conv * mean_ws
    dlam_i = -disp.lam_i**2 * conv * mean_wi
    return dlam_s, dlam_i


def arrival_times(phi: JointAmplitude, t0_fwhm: float):
    """First and second moments of the temporal marginals, in seconds in the
    common pump-1 moving frame."""
    jta = in_domain(phi, "time")
    ms, mi = _marginals(jta)
    tot_s, tot_i = ms.sum(), mi.sum()
    if tot_s == 0.0 or tot_i == 0.0:
        raise ValueError("arrival times undefined for a zero amplitude")
    t = jta.grid.t_axis
    mean_s = float(np.dot(t, ms) / tot_s)
    mean_i = float(np.dot(t, mi) / tot_i)
    var_s = float(np.dot((t - mean_s) ** 2, ms) / tot_s)
    var_i = float(np.dot((t - mean_i) ** 2, mi) / tot_i)
    means = (mean_s * t0_fwhm, mean_i * t0_fwhm)
    stds = (np.sqrt(var_s) * t0_fwhm, np.sqrt(var_i) * t0_fwhm)
    return means, stds


def analytic_arrival_times(cfg: SourceConfig):
    """Collision-point prediction of the arrival times relative to pump 1."""
    d = cfg.dispersion
    t0 = cfg.pump.t0_fwhm
    L = cfg.geometry.length
    tau = cfg.pump.tau
    t_s = (d.l_w_p * tau - t0 * L) / abs(d.l_w_s)
    t_i = -(d.l_w_p * tau - t0 * L) / abs(d.l_w_i)
    return t_s, t_i


def ec_deviation(phi: JointAmplitude, disp: DispersionSet, t0_fwhm: float) -> float:
    """Deviation of the mean Idler wavelength from energy conservation,
    using the measured mean Signal shift and a fixed pump wavelength."""
    dlam_s, dlam_i = mean_shift(phi, disp, t0_fwhm)
    dlam_i_ec = -((disp.lam_i / disp.lam_s) ** 2) * dlam_s
    return dlam_i - dlam_i_ec


def spectral_cumulative(snapshots, normalize: bool = True):
    """Per-z Idler marginal intensity of the evolving joint spectrum.

    Returns (z_nodes, w_axis, map) with map[k] the Idler spectral intensity
    at snapshot k; peak-normalized over the whole map when requested.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    rows = []
    zs = []
    for snap in snapshots:
        jsa = in_domain(snap, "frequency")
        rows.append((np.abs(jsa.values) ** 2).sum(axis=0) * jsa.grid.dw)
        zs.append(snap.z)
    out = np.asarray(rows)
    peak = out.max()
    if normalize and peak > 0:
        out = out / peak
    return np.asarray(zs), snapshots[0].grid.w_axis, out


def compute_metrics(result: SimulationResult, cfg: SourceConfig) -> MetricsReport:
    phi = result.jta
    t0 = cfg.pump.t0_fwhm
    d = cfg.dispersion
    jsa = jta_to_jsa(phi)
    purity = heralded_purity(jsa)
    dlam_s, dlam_i = mean_shift(jsa, d, t0)
    (mean_s, mean_i), (std_s, std_i) = arrival_times(phi, t0)
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
        ec_deviation=ec_deviation(jsa, d, t0),
    )
