"""Scalar and profile metrics of a completed run."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .config import C_LIGHT, DispersionSet, SourceConfig
from .jta import JointAmplitude, SimulationResult, abs2_sums, row_blocks, sum_abs2
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


def gram_sq(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """|A^H B|_F^2 of two matrices of one shape, B = A if b is None, with
    no product of their size.

    A^H B is formed by tiles A_I^H B_J of blocks of columns, each written
    into one buffer, as is conj(A_I) (copied, then conjugated in place,
    which takes no ufunc buffer), so that BLAS packs only small panels;
    A^H A is Hermitian, so each of its tiles above the diagonal counts
    twice and none below it is formed."""
    same = b is None
    b = a if same else b
    rows, n = a.shape
    blocks = row_blocks(n)
    step = blocks[0].stop
    left_buf, tile_buf = np.empty(rows * step, complex), np.empty(step * step, complex)
    total = 0.0
    for i, si in enumerate(blocks):
        q = si.stop - si.start
        left = left_buf[:rows * q].reshape(rows, q)
        np.copyto(left, a[:, si])
        left = np.conjugate(left, out=left).T
        for sj in blocks[i:] if same else blocks:
            r = sj.stop - sj.start
            tile = np.matmul(left, b[:, sj], out=tile_buf[:q * r].reshape(q, r))
            total += (2.0 if same and sj is not si else 1.0) * sum_abs2(tile)
    return total


def heralded_purity(phi: JointAmplitude) -> float:
    """Sum of fourth powers of the normalized Schmidt values,
    Tr((A^H A)^2) / Tr(A^H A)^2 = |A^H A|_F^2 / |A|_F^4, with no SVD."""
    a = phi.values
    norm_sq = sum_abs2(a)
    if norm_sq == 0.0:
        raise ValueError("purity undefined for a zero amplitude")
    return gram_sq(a) / norm_sq**2


def _spectral_marginal(phi: JointAmplitude, axis: int) -> np.ndarray:
    """The marginal along `axis` (0 the Signal, 1 the Idler) of a JTA's
    JSA, on the unshifted frequency axis (spectral.omega_axis) and up to
    one constant factor, with no n x n array: 1-D transforms along `axis`
    of blocks of the JTA, summed over the other axis, along which no
    transform (unitary up to that factor) and no time-origin phase is taken."""
    a = phi.values
    m = np.zeros(a.shape[axis])
    for s in row_blocks(a.shape[0]):
        m += abs2_sums(np.fft.ifft(a[s] if axis else a[:, s], axis=axis))[axis]
    return m


def mean_shift(phi: JointAmplitude, disp: DispersionSet, t0_fwhm: float):
    """Mean wavelength shift of each photon about its reference wavelength,
    from the marginals of a JTA's JSA, formed without the JSA (see
    _spectral_marginal); their constant factor cancels in the means."""
    ms, mi = _spectral_marginal(phi, 0), _spectral_marginal(phi, 1)
    w = omega_axis(phi.grid.n, phi.grid.dt)
    tot_s, tot_i = ms.sum(), mi.sum()
    if tot_s == 0.0 or tot_i == 0.0:
        raise ValueError("mean shift undefined for a zero amplitude")
    conv = 1.0 / (2.0 * np.pi * C_LIGHT * t0_fwhm)
    return (-disp.lam_s**2 * conv * float(np.dot(w, ms) / tot_s),
            -disp.lam_i**2 * conv * float(np.dot(w, mi) / tot_i))


def arrival_times(phi: JointAmplitude, t0_fwhm: float):
    """First and second moments of the temporal marginals, in seconds in the
    common pump-1 moving frame."""
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


def spectral_cumulative(snapshots):
    """Per-z Idler marginal intensity of the evolving joint spectrum.

    snapshots is a list of JTAs.  Returns (z_nodes, w_axis, map) with map[k] the
    Idler marginal of snapshot k's JSA on the sorted grid.w_axis,
    peak-normalized over the whole map: read from 1-D transforms of blocks
    of the JTA (see _spectral_marginal), with no JSA, and fftshifted.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    out = np.asarray([np.fft.fftshift(_spectral_marginal(phi, 1)) for phi in snapshots])
    peak = out.max()
    if peak > 0:
        out = out / peak
    return np.array([phi.z for phi in snapshots]), snapshots[0].grid.w_axis, out


def compute_metrics(result: SimulationResult, cfg: SourceConfig) -> MetricsReport:
    """The metrics of a run's final state, read from the JTA alone, which
    is left unchanged.

    The JSA is the JTA under a unitary map on each axis, so the purity of
    the JTA is that of the JSA; the wavelength shifts take the JSA's
    marginals from 1-D transforms of blocks of the JTA (see mean_shift).
    No array of the JTA's size is formed.
    """
    phi = result.jta
    t0 = cfg.pump.t0_fwhm
    d = cfg.dispersion
    purity = heralded_purity(phi)
    (mean_s, mean_i), (std_s, std_i) = arrival_times(phi, t0)
    dlam_s, dlam_i = mean_shift(phi, d, t0)
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
