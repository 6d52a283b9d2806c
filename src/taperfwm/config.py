"""Configuration, physical parameters, grids and derived run quantities.

All user-facing quantities are SI (meters, seconds, watts) except losses,
which follow the usual dB/cm convention and are converted to 1/m in
:func:`derive_run_params`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np


C_LIGHT = 299792458.0  # m/s, speed of light in vacuum


@dataclass(frozen=True)
class PumpSpec:
    """Input pump pulse train: a single laser split between the TM0 and TM1
    modes with a tunable relative delay."""

    avg_power: float = 1e-3          # W, total average power
    rep_rate: float = 50e6           # Hz
    t0_fwhm: float = 0.8e-12         # s, intensity FWHM of the pulse
    center_wavelength: float = 1550e-9  # m
    split_fraction: float = 0.5      # fraction of power launched in TM0
    tau: float = 2.4e-12             # s, delay of pump 1 (TM0) w.r.t. pump 2


@dataclass(frozen=True)
class GeometrySpec:
    """Waveguide geometry: linear width taper plus fabrication offsets."""

    length: float = 1.5e-2           # m
    mean_width: float = 2.25e-6      # m
    taper_amplitude: float = 0.0     # m, width goes mean+amp -> mean-amp
    width_offset: float = 0.0        # m, fabrication error on mean width
    height_offset: float = 0.0       # m, fabrication error on height

    def width_at(self, z):
        """Local width w(z) including the fabrication offset."""
        frac = np.asarray(z) / self.length
        return self.mean_width + self.width_offset + self.taper_amplitude * (1.0 - 2.0 * frac)


@dataclass(frozen=True)
class DispersionSet:
    """Mode dispersion and nonlinear parameters (Table-style input set).

    Losses are in dB/cm, velocities in m/s, walk-off and dispersion lengths
    in meters (walk-off lengths signed relative to the pump-1 frame),
    gammas in 1/(m W).
    """

    alpha_p1: float = 0.4
    alpha_p2: float = 0.2
    alpha_s: float = 0.2   # Signal lives in TM1, inherits the TM1 loss
    alpha_i: float = 0.4   # Idler lives in TM0, inherits the TM0 loss
    v_p1: float = 75.20e6
    v_p2: float = 73.41e6
    v_s: float = 75.29e6
    v_i: float = 73.50e6
    l_w_p: float = 0.25e-2      # pump walk-off length, > 0
    l_w_s: float = -3.27e-2     # Signal walks off toward earlier times
    l_w_i: float = 0.26e-2      # Idler walks off toward later times
    # Dispersion lengths carry the sign of beta_2 of the field.  The Signal
    # and Idler signs must differ: with equal signs the linearized phase
    # mismatch has a second zero inside the simulation band, and the
    # resulting spurious sideband destroys the reference-state purity.
    # Within that constraint the signs below are the ones that reproduce
    # the measured reference purity (the pump chirp produced by the
    # SPM/dispersion interplay is sensitive to the pump beta_2 signs).
    l_d_p1: float = 4.60e-2
    l_d_p2: float = -4.43e-2
    l_d_s: float = 4.09e-2
    l_d_i: float = -5.18e-2
    gamma_1111: float = 2.73
    gamma_1122: float = 1.77
    gamma_2211: float = 1.77
    gamma_2222: float = 2.60
    gamma_11ss: float = 1.52
    gamma_22ss: float = 2.25
    gamma_11ii: float = 3.12
    gamma_22ii: float = 2.01
    gamma_p1p2si: float = 1.34
    lam_s: float = 1581.4e-9
    lam_i: float = 1519.9e-9


@dataclass(frozen=True)
class MismatchModel:
    """Linear model for the net phase mismatch induced by geometry deviations.

    kappa(z) = c_kappa_w * (w(z) - nominal width) + c_kappa_h * height_offset.
    It enters the model only as the source phase exp(i Theta(z)),
    Theta(z) = int_0^z kappa (see mismatch.mismatch_phase).
    """

    c_kappa_w: float = 0.0   # rad/m per m of width deviation
    c_kappa_h: float = 0.0   # rad/m per m of height deviation


@dataclass(frozen=True)
class NumericsSpec:
    n_t: int = 512
    t_window: tuple = (-4.0, 12.0)   # dimensionless time span
    n_z: int = 2000
    xpm_spm_enabled: bool = True
    dispersion_enabled: bool = True

    def __post_init__(self):
        # a tuple, also when given as a JSON list, so that the spec hashes
        object.__setattr__(self, "t_window", tuple(self.t_window))


@dataclass(frozen=True)
class Grid:
    """Dimensionless time axis and its dual frequency axis.

    The frequency axis is the sorted (fftshifted) dual grid; it satisfies
    dw * dt * n == 2 pi.
    """

    t_axis: np.ndarray
    w_axis: np.ndarray
    dt: float
    dw: float

    @property
    def n(self):
        return self.t_axis.size

    @classmethod
    def from_numerics(cls, num: NumericsSpec) -> "Grid":
        t_min, t_max = num.t_window
        dt = (t_max - t_min) / num.n_t
        t_axis = t_min + dt * np.arange(num.n_t)
        w_axis = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(num.n_t, d=dt))
        return cls(t_axis=t_axis, w_axis=w_axis, dt=dt, dw=w_axis[1] - w_axis[0])


@dataclass(frozen=True)
class SourceConfig:
    pump: PumpSpec = field(default_factory=PumpSpec)
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    dispersion: DispersionSet = field(default_factory=DispersionSet)
    mismatch: MismatchModel = field(default_factory=MismatchModel)
    numerics: NumericsSpec = field(default_factory=NumericsSpec)

    def replace(self, **section_updates) -> "SourceConfig":
        """Return a copy with whole sections or nested fields replaced.

        Usage: cfg.replace(pump={"tau": 1e-12}, numerics={"n_t": 256}).
        """
        unknown = sorted(section_updates.keys() - _SECTION_TYPES)
        if unknown:
            raise TypeError(f"unknown sections: {unknown}")
        return dataclasses.replace(self, **{
            name: dataclasses.replace(getattr(self, name), **upd) if isinstance(upd, dict) else upd
            for name, upd in section_updates.items()})

    def grid(self) -> Grid:
        return Grid.from_numerics(self.numerics)


@dataclass(frozen=True)
class RunParams:
    """Quantities derived from a validated SourceConfig."""

    p_peak_1: float          # W, peak power of pump 1 (TM0)
    p_peak_2: float          # W, peak power of pump 2 (TM1)
    l_match: float           # m, pump collision point for cfg.pump.tau
    alpha_m: dict            # field -> power loss in 1/m
    drift: dict              # field -> signed drift rate dT/dz from pump 1's frame, 1/m


def dbcm_to_per_m(alpha_db_cm: float) -> float:
    """Power loss dB/cm -> 1/m."""
    return alpha_db_cm * (math.log(10.0) / 10.0) * 100.0


# effective duration of a gaussian pulse with unit intensity FWHM
_T_EFF_FACTOR = math.sqrt(math.pi / (4.0 * math.log(2.0)))


def tau_max_of(cfg: SourceConfig) -> float:
    d = cfg.dispersion
    return cfg.pump.t0_fwhm * cfg.geometry.length / d.l_w_p


def derive_run_params(cfg: SourceConfig) -> RunParams:
    p, g, d = cfg.pump, cfg.geometry, cfg.dispersion
    t_eff = p.t0_fwhm * _T_EFF_FACTOR
    energy_per_pulse = p.avg_power / p.rep_rate
    p_peak_1 = energy_per_pulse * p.split_fraction / t_eff
    p_peak_2 = energy_per_pulse * (1.0 - p.split_fraction) / t_eff
    tmax = tau_max_of(cfg)
    l_match = (p.tau / tmax) * g.length if tmax > 0 else 0.0
    alpha_m = {
        "p1": dbcm_to_per_m(d.alpha_p1),
        "p2": dbcm_to_per_m(d.alpha_p2),
        "s": dbcm_to_per_m(d.alpha_s),
        "i": dbcm_to_per_m(d.alpha_i),
    }
    # Signal and Idler drift rates: magnitudes from the tabulated walk-off
    # lengths, signs from the velocities
    sign_s = math.copysign(1.0, 1.0 / d.v_s - 1.0 / d.v_p1)
    sign_i = math.copysign(1.0, 1.0 / d.v_i - 1.0 / d.v_p1)
    return RunParams(
        p_peak_1=p_peak_1,
        p_peak_2=p_peak_2,
        l_match=l_match,
        alpha_m=alpha_m,
        drift={"p1": 0.0, "p2": 1.0 / d.l_w_p,
               "s": sign_s / abs(d.l_w_s), "i": sign_i / abs(d.l_w_i)},
    )


_WALKOFF_CHECK_TOL = 0.10
# largest launch-pulse amplitude allowed at the edges of the time window
_EDGE_AMPLITUDE = 1e-6


def validate_config(cfg: SourceConfig) -> list:
    """The warnings on a configuration; ConfigError names every error."""
    errors, warns = [], []
    p, g, d, num = cfg.pump, cfg.geometry, cfg.dispersion, cfg.numerics

    if p.avg_power < 0:
        errors.append("pump.avg_power must be >= 0")
    if p.rep_rate <= 0:
        errors.append("pump.rep_rate must be > 0")
    if p.t0_fwhm <= 0:
        errors.append("pump.t0_fwhm must be > 0")
    if not 0.0 <= p.split_fraction <= 1.0:
        errors.append("pump.split_fraction must lie in [0, 1]")
    if g.length <= 0:
        errors.append("geometry.length must be > 0")
    if g.taper_amplitude < 0:
        errors.append("geometry.taper_amplitude must be >= 0")

    # w(z) is linear, so its two ends bound it along the taper
    if g.length > 0 and np.any(g.width_at([0.0, g.length]) <= 0):
        errors.append("local width w(z) must stay positive along the taper")

    for name in ("v_p1", "v_p2", "v_s", "v_i"):
        if getattr(d, name) <= 0:
            errors.append(f"dispersion.{name} must be > 0")
    for name in (
        "gamma_1111", "gamma_1122", "gamma_2211", "gamma_2222",
        "gamma_11ss", "gamma_22ss", "gamma_11ii", "gamma_22ii", "gamma_p1p2si",
    ):
        if getattr(d, name) <= 0:
            errors.append(f"dispersion.{name} must be > 0")
    if not d.lam_i < p.center_wavelength < d.lam_s:
        errors.append("expected lam_i < pump wavelength < lam_s")
    if d.l_w_p <= 0:
        errors.append("dispersion.l_w_p must be > 0")

    if num.n_t < 64:
        errors.append("numerics.n_t must be >= 64")
    if num.n_t & (num.n_t - 1):
        errors.append("numerics.n_t must be a power of two")
    if num.n_z < 100:
        errors.append("numerics.n_z must be >= 100")
    t_min, t_max = num.t_window
    if t_max <= t_min:
        errors.append("numerics.t_window must be an increasing interval")
    elif g.length > 0 and d.l_w_i != 0:
        drift = g.length / abs(d.l_w_i)
        needed = drift + 6.0
        if (t_max - t_min) < needed:
            errors.append(
                f"t_window span {t_max - t_min:.2f} too small: Idler drift plus "
                f"margins needs at least {needed:.2f}"
            )
        # the JTA stepper is wrong, silently, once the Idler walks more
        # than one time cell per z-step
        if num.n_t > 0 and num.n_z > 0:
            dt = (t_max - t_min) / num.n_t
            if num.n_z * dt < drift:
                errors.append(
                    f"numerics.n_z = {num.n_z} too small for n_t = {num.n_t}: the Idler "
                    f"walks {drift / (num.n_z * dt):.2f} time cells per z-step (at most 1); "
                    f"need n_z >= {math.ceil(drift / dt)}"
                )

    if not errors:
        # finite inputs can still overflow: avg_power / rep_rate / t_eff
        rp = derive_run_params(cfg)
        for name in ("p_peak_1", "p_peak_2"):
            if not math.isfinite(getattr(rp, name)):
                errors.append(f"derived peak power {name} = {getattr(rp, name)} W is not finite "
                              "(pump.avg_power / pump.rep_rate over the pulse width)")

    if not errors:
        tmax = tau_max_of(cfg)
        if not 0.0 <= p.tau <= tmax * (1.0 + 1e-12):
            errors.append(
                f"pump.tau = {p.tau:.3e} s outside [0, tau_max = {tmax:.3e} s]"
            )
        else:
            # both launch pulses must have decayed at the periodic window's
            # first and last grid points (pump 1 at tau, pump 2 at T = 0)
            dt = (t_max - t_min) / num.n_t
            ends = t_min + dt * np.array([0, num.n_t - 1])
            for center in (p.tau / p.t0_fwhm, 0.0):
                edge = np.exp(-2.0 * np.log(2.0) * (ends - center) ** 2).max()
                if edge > _EDGE_AMPLITUDE:
                    errors.append(
                        f"numerics.t_window too small: pulse at T={center:.2f} has edge "
                        f"amplitude {edge:.2e} (limit {_EDGE_AMPLITUDE})"
                    )

    # internal consistency of the tabulated walk-off lengths vs the velocities
    for name, l_w, v in (("l_w_p", d.l_w_p, d.v_p2), ("l_w_s", d.l_w_s, d.v_s), ("l_w_i", d.l_w_i, d.v_i)):
        if v <= 0 or d.v_p1 <= 0 or v == d.v_p1:
            continue
        from_v = p.t0_fwhm / abs(1.0 / v - 1.0 / d.v_p1)
        if abs(from_v - abs(l_w)) > _WALKOFF_CHECK_TOL * from_v:
            warns.append(
                f"dispersion.{name}: |value| {abs(l_w):.3e} m differs from the "
                f"velocity-implied {from_v:.3e} m; tabulated value is used"
            )

    # the geometry reaches the source only through the mismatch coefficients
    inert = [f"geometry.{name}" for name in ("taper_amplitude", "width_offset", "height_offset")
             if getattr(g, name) != 0]
    if inert and cfg.mismatch.c_kappa_w == 0 and cfg.mismatch.c_kappa_h == 0:
        warns.append(
            f"{', '.join(inert)} ignored: mismatch.c_kappa_w and c_kappa_h are both 0 "
            '(the "table1" defaults calibrate them)'
        )

    if errors:
        raise ConfigError("; ".join(errors))
    return warns


def table1_config(**section_updates) -> SourceConfig:
    """Reference configuration: tabulated dispersion set, 1.5 cm waveguide,
    0.8 ps pulses at 1550 nm and 50 MHz, 1 mW split 50/50, tau = tau_max/2,
    mismatch calibrated from the published wavelength sensitivities."""
    from .mismatch import calibrate_mismatch

    cfg = SourceConfig()
    cfg = cfg.replace(mismatch=calibrate_mismatch(-15.0, 1.0, cfg.dispersion))
    cfg = cfg.replace(pump={"tau": 0.5 * tau_max_of(cfg)})
    if section_updates:
        cfg = cfg.replace(**section_updates)
    return cfg


# section name -> section class: each field's default_factory is its class
_SECTION_TYPES = {f.name: f.default_factory for f in dataclasses.fields(SourceConfig)}


class ConfigError(ValueError):
    pass


class ConfigWarning(UserWarning):
    """A configuration that validates but holds a questionable value."""


def _is_number(value) -> bool:
    """An int or a float within the float range: JSON (RFC 8259) has no NaN
    or Infinity, and no field takes one (dispersion is switched off by its
    flag) or an integer that no float can hold."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# what a config document may give for a field, by the field's annotation
_FIELD_KINDS = {
    "float": ("a finite number", _is_number),
    "int": ("an integer within the float range", lambda v: isinstance(v, int) and _is_number(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "tuple": ("two finite numbers", lambda v: isinstance(v, (list, tuple)) and len(v) == 2
              and all(map(_is_number, v))),
}


def config_from_dict(doc: dict) -> SourceConfig:
    """Build a SourceConfig from a JSON-style dict; unknown keys and values
    of the wrong kind are fatal, and so is a top level that is not an
    object or a key that is present but null."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a config must be a JSON object, got {json.dumps(doc)[:40]}")
    doc = dict(doc)
    base = SourceConfig()
    if "defaults" in doc:
        defaults = doc.pop("defaults")
        if defaults != "table1":
            raise ConfigError(f"unknown defaults preset {defaults!r}")
        base = table1_config()

    extra = set(doc) - set(_SECTION_TYPES)
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")

    sections = {}
    for name, typ in _SECTION_TYPES.items():
        if name not in doc:
            continue
        sub = doc[name]
        if not isinstance(sub, dict):
            raise ConfigError(f"section {name!r} must be an object")
        kinds = {f.name: _FIELD_KINDS[f.type] for f in dataclasses.fields(typ)}
        bad = set(sub) - set(kinds)
        if bad:
            raise ConfigError(f"unknown keys in section {name!r}: {sorted(bad)}")
        for key, value in sub.items():
            what, fits = kinds[key]
            if not fits(value):
                raise ConfigError(f"{name}.{key} must be {what}, got {value!r}")
        sections[name] = sub
    return base.replace(**sections)


def config_to_dict(cfg: SourceConfig) -> dict:
    return {name: dataclasses.asdict(getattr(cfg, name)) for name in _SECTION_TYPES}


def load_config(path) -> SourceConfig:
    """Parse, expand defaults and validate a JSON configuration file; each
    validation warning is emitted as a ConfigWarning."""
    # RFC 8259 JSON is UTF-8; a ValueError is bad JSON, bad UTF-8 or an
    # integer literal past Python's digit limit
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    cfg = config_from_dict(doc)
    try:
        warns = validate_config(cfg)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for msg in warns:
        warnings.warn(f"{path}: {msg}", ConfigWarning, stacklevel=2)
    return cfg
