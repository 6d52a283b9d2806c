"""Naive per-field reference steppers for the pump SSFM and the JTA, the
pump midpoints stored as one array, the JTA stepper on whole-array
axis passes, the first-order perturbative oracle, the source term by direct
spectral convolution, the JTA<->JSA transform pair by the textbook route,
the closed-form moving pumps and collision-point arrival times, and the
delay-line sizing.

The two per-field steppers split the net mismatch phase among the four
fields with weights (p1, p2, s, i), p1 + p2 - s - i = 1: each pump collects
w_p * Theta over every linear half of a sub-step (exact Theta increments),
the source loses (w_s + w_i) * Theta(z_mid) and the final JTA gets
(w_s + w_i) * Theta(L) back.  Any split gives the same physical amplitude
up to the global phase exp(-i (w_s + w_i) Theta(L)), which is what the
production steppers return, having put the whole mismatch on the source.
"""

from dataclasses import dataclass

import numpy as np

from taperfwm.config import C_LIGHT, derive_run_params
from taperfwm.jta import JointAmplitude, snapshot_nodes, step_drives
from taperfwm.mismatch import mismatch_phase
from taperfwm.pumps import initial_envelopes, midpoints, propagate_pumps
from taperfwm.spectral import linear_exponents, omega_axis


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


def stored_midpoints(cfg):
    """A fresh trace of cfg, its ends filled, and every step's pump
    midpoints stacked as one (2, n_z, n_t) array: (pump, step, T)."""
    trace = propagate_pumps(cfg)
    return trace, np.stack(list(midpoints(cfg, trace)), axis=1)


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


def reference_jta_of_jsa(values, grid):
    """The inverse of reference_jsa: the JSA values on the sorted
    grid.w_axis back to the time values, by np.fft.ifftshift, the division
    by the same factors and the fft2."""
    w = omega_axis(grid.n, grid.dt)
    factor = grid.n * grid.dt / np.sqrt(2.0 * np.pi) * np.exp(1j * w * grid.t_axis[0])
    return np.fft.fft2(np.fft.ifftshift(values) / factor[:, None] / factor[None, :])


def analytic_pumps(cfg, z, t):
    """Closed-form moving gaussians in lab coordinates (z in m, t in s),
    ignoring loss, dispersion and nonlinearity."""
    d = cfg.dispersion
    rp = derive_run_params(cfg)
    t0 = cfg.pump.t0_fwhm
    sigma1 = d.v_p1 * t0 / (2.0 * np.sqrt(np.log(2.0)))
    sigma2 = d.v_p2 * t0 / (2.0 * np.sqrt(np.log(2.0)))
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    a1 = np.sqrt(rp.p_peak_1) * np.exp(-((z - d.v_p1 * (t - cfg.pump.tau)) ** 2) / (2.0 * sigma1**2))
    a2 = np.sqrt(rp.p_peak_2) * np.exp(-((z - d.v_p2 * t) ** 2) / (2.0 * sigma2**2))
    return a1, a2


def analytic_arrival_times(cfg):
    """Collision-point prediction of the arrival times relative to pump 1."""
    d = cfg.dispersion
    t0 = cfg.pump.t0_fwhm
    L = cfg.geometry.length
    tau = cfg.pump.tau
    t_s = (d.l_w_p * tau - t0 * L) / abs(d.l_w_s)
    t_i = -(d.l_w_p * tau - t0 * L) / abs(d.l_w_i)
    return t_s, t_i


def perturbative_oracle(cfg, pump_trace):
    """Direct quadrature of the driven equation at first order.

    Each step's diagonal source is propagated linearly (see
    spectral.linear_exponents) straight to z = L and accumulated in the
    frequency domain.  Only valid with the nonlinear phases disabled.
    """
    if cfg.numerics.xpm_spm_enabled:
        raise ValueError("perturbative oracle requires xpm_spm_enabled = False")
    grid = pump_trace.grid
    n, h = grid.n, pump_trace.h
    L = float(pump_trace.z_nodes[-1])
    rest = L - pump_trace.z_mid  # from each step's source to z = L

    ls, li = linear_exponents(cfg, grid, ("s", "i"))

    idx = np.arange(n)
    ridge_idx = (idx[:, None] + idx[None, :]) % n
    acc = np.zeros((n, n), complex)
    for k, (_, _, diag) in enumerate(step_drives(cfg, pump_trace)):
        g = np.fft.ifft(diag) / n
        acc += h * np.exp(ls * rest[k])[:, None] * np.exp(li * rest[k])[None, :] * g[ridge_idx]

    return JointAmplitude(values=np.fft.fft2(acc), domain="time", grid=grid, z=L)


def global_phase(cfg, weights):
    """exp(-i (w_s + w_i) Theta(L)): reference JTA -> production JTA."""
    return np.exp(-1j * (weights[2] + weights[3]) * mismatch_phase(cfg, cfg.geometry.length))


def whole_array_stepper(cfg, trace, snapshots):
    """The JTA stepper with every axis pass one np.fft call on the whole
    state, which stays values[T_s, T_i], and every multiplier applied to
    the whole state; returns (final JTA values, xi at every node, snapshot
    values).  The passes take the axes in the order the production
    stepper's alternating layout does: the Idler axis first after an even
    number of steps, the Signal axis first after an odd one, and so does
    the pass pair that settles a node.  The production stepper forms the
    same passes on the contiguous rows of a buffer it transposes between
    them, shared among threads, and must match it bit for bit."""
    d, grid = cfg.dispersion, trace.grid
    rp = derive_run_params(cfg)
    n, n_z, h, dt = grid.n, trace.n_z, trace.h, grid.dt
    ls, li = linear_exponents(cfg, grid, ("s", "i"))
    full = (np.exp(h * ls)[:, None], np.exp(h * li)[None, :])
    half = (np.exp(0.5 * h * ls)[:, None], np.exp(0.5 * h * li)[None, :])
    decay_half = np.exp(-(rp.alpha_m["s"] + rp.alpha_m["i"]) * h / 2.0)
    nodes = set(snapshot_nodes(snapshots, n_z).tolist())

    def pass_pair(a, k, mults, phases):
        # the passes after k steps: per axis, to frequency, times the
        # linear factor, back, times the XPM phase
        for axis in ((1, 0) if k % 2 == 0 else (0, 1)):
            np.fft.ifft(a, axis=axis, out=a)
            a *= mults[axis]
            np.fft.fft(a, axis=axis, out=a)
            if phases is not None:
                a *= phases[axis]
        return a

    state = np.zeros((n, n), complex)
    diag = state.reshape(-1)[:: n + 1]
    xi = np.zeros(n_z + 1)
    snaps = [state.copy()] if 0 in nodes else []
    for k, (a1, a2, src_diag) in enumerate(step_drives(cfg, trace)):
        xpm = None
        if cfg.numerics.xpm_spm_enabled:
            ns = 2.0 * (d.gamma_11ss * np.abs(a1) ** 2 + d.gamma_22ss * np.abs(a2) ** 2)
            ni = 2.0 * (d.gamma_11ii * np.abs(a1) ** 2 + d.gamma_22ii * np.abs(a2) ** 2)
            xpm = (np.exp(1j * h * ns)[:, None], np.exp(1j * h * ni)[None, :])
        pass_pair(state, k, full, xpm)
        gain = 2.0 * h * float(np.real(np.vdot(src_diag, diag + 0.5 * h * src_diag))) * dt * dt
        diag += h * src_diag
        xi[k + 1] = decay_half * (decay_half * xi[k] + gain)
        if k + 1 < n_z and k + 1 in nodes:
            snaps.append(pass_pair(state.copy(), k + 1, half, None))
    pass_pair(state, n_z, half, None)
    if n_z in nodes:
        snaps.append(state)
    return state, xi, snaps


@dataclass
class DelayLineSpec:
    delta_t: float          # s, tunable delay range
    fsr: float              # m
    bw_3db: float           # m


# m, the wavelength at which the delay line is sized
_DELAY_LINE_WAVELENGTH = 1550e-9


def delay_line_requirements(delta_t: float) -> DelayLineSpec:
    """Interferometric delay-line sizing for a tunable range delta_t."""
    if delta_t <= 0:
        raise ValueError("delta_t must be > 0")
    fsr = 2.0 * _DELAY_LINE_WAVELENGTH**2 / (C_LIGHT * delta_t)
    return DelayLineSpec(delta_t=delta_t, fsr=fsr, bw_3db=1.27 * fsr / 2.0)
