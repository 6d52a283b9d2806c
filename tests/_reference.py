"""Naive per-field reference steppers for the pump SSFM and the JTA, and
the source term by direct spectral convolution.

The two steppers split the net mismatch phase among the four fields with
weights (p1, p2, s, i), p1 + p2 - s - i = 1: each pump collects
w_p * Theta over every linear half of a sub-step (exact Theta increments),
the source loses (w_s + w_i) * Theta(z_mid) and the final JTA gets
(w_s + w_i) * Theta(L) back.  Any split gives the same physical amplitude
up to the global phase exp(-i (w_s + w_i) Theta(L)), which is what the
production steppers return, having put the whole mismatch on the source.
"""

import numpy as np

from taperfwm.config import derive_run_params
from taperfwm.mismatch import mismatch_phase
from taperfwm.pumps import initial_envelopes
from taperfwm.spectral import omega_axis


def reference_pumps(cfg, weights):
    """Each pump stepped on its own at h/2, with SPM/XPM (when enabled)
    written out per pump; returns (a_p1, a_p2) at every sub-step (even rows
    nodes, odd rows midpoints)."""
    w1, w2 = weights[0], weights[1]
    d, num, g = cfg.dispersion, cfg.numerics, cfg.grid()
    rp = derive_run_params(cfg)
    hs = cfg.geometry.length / num.n_z / 2.0
    w = omega_axis(num.n_t, g.dt)
    disp = 0.5j * w**2 if num.dispersion_enabled else 0.0
    half1 = np.exp((-0.5 * rp.alpha_m["p1"] + disp / d.l_d_p1) * hs / 2.0)
    half2 = np.exp((-0.5 * rp.alpha_m["p2"] + disp / d.l_d_p2 + 1j * w / d.l_w_p) * hs / 2.0)
    theta = mismatch_phase(cfg, 0.5 * hs * np.arange(4 * num.n_z + 1))
    a1, a2 = initial_envelopes(cfg)
    out1, out2 = [a1], [a2]
    for k in range(2 * num.n_z):
        da, db = theta[2 * k + 1] - theta[2 * k], theta[2 * k + 2] - theta[2 * k + 1]
        a1 = np.fft.fft(half1 * np.fft.ifft(a1)) * np.exp(1j * w1 * da)
        a2 = np.fft.fft(half2 * np.fft.ifft(a2)) * np.exp(1j * w2 * da)
        if num.xpm_spm_enabled:
            p1, p2 = np.abs(a1) ** 2, np.abs(a2) ** 2
            a1 = a1 * np.exp(1j * hs * (d.gamma_1111 * p1 + 2.0 * d.gamma_1122 * p2))
            a2 = a2 * np.exp(1j * hs * (d.gamma_2222 * p2 + 2.0 * d.gamma_2211 * p1))
        a1 = np.fft.fft(half1 * np.fft.ifft(a1)) * np.exp(1j * w1 * db)
        a2 = np.fft.fft(half2 * np.fft.ifft(a2)) * np.exp(1j * w2 * db)
        out1.append(a1)
        out2.append(a2)
    return np.array(out1), np.array(out2)


def reference_jta(cfg, weights):
    """Per-step split step on the reference pumps' midpoints, with both
    half-steps applied on every step and the XPM phase exponentiated on the
    full n x n grid; returns (final JTA values, xi at every node)."""
    w_si = weights[2] + weights[3]
    d, grid = cfg.dispersion, cfg.grid()
    rp = derive_run_params(cfg)
    n, n_z, dt = grid.n, cfg.numerics.n_z, grid.dt
    L = cfg.geometry.length
    h = L / n_z
    ref1, ref2 = reference_pumps(cfg, weights)
    z_mid = (np.arange(n_z) + 0.5) * h
    theta_mid = w_si * mismatch_phase(cfg, z_mid)
    w = omega_axis(n, dt)
    disp = 0.5j * w**2 if cfg.numerics.dispersion_enabled else 0.0
    # drift magnitudes from the walk-off lengths, signs from the velocities
    drift_s = np.sign(1.0 / d.v_s - 1.0 / d.v_p1) / abs(d.l_w_s)
    drift_i = np.sign(1.0 / d.v_i - 1.0 / d.v_p1) / abs(d.l_w_i)
    ls = -0.5 * rp.alpha_m["s"] + 1j * w * drift_s + disp / d.l_d_s
    li = -0.5 * rp.alpha_m["i"] + 1j * w * drift_i + disp / d.l_d_i
    half_mult = np.exp(0.5 * h * ls)[:, None] * np.exp(0.5 * h * li)[None, :]
    idx = np.arange(n)
    spec = np.zeros((n, n), complex)
    xi = [0.0]
    for k in range(n_z):
        phi = np.fft.fft2(spec * half_mult)
        a1, a2 = ref1[2 * k + 1], ref2[2 * k + 1]
        if cfg.numerics.xpm_spm_enabled:
            ns = 2.0 * (d.gamma_11ss * np.abs(a1) ** 2 + d.gamma_22ss * np.abs(a2) ** 2)
            ni = 2.0 * (d.gamma_11ii * np.abs(a1) ** 2 + d.gamma_22ii * np.abs(a2) ** 2)
            phi = phi * np.exp(1j * h * (ns[:, None] + ni[None, :]))
        phi[idx, idx] += h * 2j * np.pi * d.gamma_p1p2si * a1 * a2 * np.exp(-1j * theta_mid[k]) / dt
        spec = np.fft.ifft2(phi) * half_mult
        xi.append(float(np.sum(np.abs(spec) ** 2)) * n * n * dt * dt)
    return np.fft.fft2(spec) * np.exp(1j * w_si * mismatch_phase(cfg, L)), np.array(xi)


def spectral_source(a1, a2, grid, gamma_fwm, theta):
    """The FWM driving term on the (T_s, T_i) grid, rebuilt as an n x n
    matrix through the pumps' spectral convolution (an O(n^2) direct sum):
    an independent check of the stepper's diagonal source (jta._source_diag)."""
    n = grid.n
    spec1 = np.fft.ifft(a1)
    spec2 = np.fft.ifft(a2)
    conv = np.empty(n, complex)
    idx = np.arange(n)
    for m in range(n):
        conv[m] = np.sum(spec1 * spec2[(m - idx) % n])
    g = 2j * np.pi * gamma_fwm * np.exp(1j * theta) * conv / (n * grid.dt)
    ridge = g[(idx[:, None] + idx[None, :]) % n]
    return np.fft.fft2(ridge)


def reference_jsa(values, grid):
    """The JSA by the textbook route: the ifft2 of the time values, times
    the scale and the time-origin phase at each unshifted frequency on both
    axes, then np.fft.fftshift onto the sorted grid.w_axis."""
    w = omega_axis(grid.n, grid.dt)
    factor = grid.n * grid.dt / np.sqrt(2.0 * np.pi) * np.exp(1j * w * grid.t_axis[0])
    return np.fft.fftshift(np.fft.ifft2(values) * factor[:, None] * factor[None, :])


def global_phase(cfg, weights):
    """exp(-i (w_s + w_i) Theta(L)): reference JTA -> production JTA."""
    return np.exp(-1j * (weights[2] + weights[3]) * mismatch_phase(cfg, cfg.geometry.length))
