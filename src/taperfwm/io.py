"""File exports and imports: binary joint-amplitude matrices, CSV/JSON
artifacts and the run manifest."""

from __future__ import annotations

import csv
import hashlib
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import SourceConfig, config_to_dict
from .jta import JointAmplitude, XiProfile
from .metrics import MetricsReport

_MAGIC = b"CJM1"
_HEADER = struct.Struct("<4sIII")  # magic, rows, cols, reserved


class FormatError(ValueError):
    pass


@dataclass
class RunManifest:
    command: str
    configs: list
    output_dir: str
    version: str = __version__
    duration_s: float = 0.0
    files: dict = field(default_factory=dict)  # name -> sha256

    def record(self, path: Path):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.files[path.name] = digest

    def write(self, path: Path):
        """Write the manifest itself; call last so every file is listed."""
        doc = {
            "command": self.command,
            "configs": self.configs,
            "output_dir": self.output_dir,
            "version": self.version,
            "duration_s": self.duration_s,
            "files": self.files,
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fmt(x: float) -> str:
    """17 significant digits: lossless float64 round trip."""
    return format(float(x), ".17g")


def write_cjm1(phi: JointAmplitude, path) -> Path:
    """Binary matrix dump: 16-byte header then row-major interleaved
    little-endian float64 (Re, Im).  A JSON sidecar carries the grid."""
    path = Path(path)
    n_rows, n_cols = phi.values.shape
    inter = np.empty((n_rows, n_cols, 2))
    inter[:, :, 0] = phi.values.real
    inter[:, :, 1] = phi.values.imag
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, n_rows, n_cols, 0))
        fh.write(inter.astype("<f8").tobytes())
    _write_sidecar(phi, path.with_suffix(path.suffix + ".json"))
    return path


def read_cjm1(path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, n_rows, n_cols, _ = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    expect = _HEADER.size + n_rows * n_cols * 16
    if len(raw) != expect:
        raise FormatError(f"{path}: size {len(raw)} != expected {expect}")
    inter = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    inter = inter.reshape(n_rows, n_cols, 2)
    return np.ascontiguousarray(inter[:, :, 0] + 1j * inter[:, :, 1])


def _write_sidecar(phi: JointAmplitude, path: Path):
    g = phi.grid
    axis = g.t_axis if phi.domain == "time" else np.fft.fftshift(np.fft.fftfreq(g.n, g.dt)) * 2.0 * np.pi
    doc = {
        "domain": phi.domain,
        "z": phi.z,
        "norm_sq": phi.norm_sq,
        "n": g.n,
        "dt": g.dt,
        "axis": [float(v) for v in axis],
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_metrics_json(metrics: MetricsReport, path) -> Path:
    """Flat SI-unit JSON; deterministic for reruns with the same config."""
    path = Path(path)
    path.write_text(json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def write_xi_profile_csv(profile: XiProfile, length: float, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z_over_L", "xi"])
        for z, xi in zip(profile.z_nodes, profile.xi):
            w.writerow([_fmt(z / length), _fmt(xi)])
    return path


def write_spectral_map_csv(z_nodes, w_axis, spec_map, length: float, path) -> Path:
    """(z/L, omega'_i, intensity) triples of the cumulative Idler spectrum."""
    path = Path(path)
    order = np.argsort(w_axis)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z_over_L", "omega_i", "intensity"])
        for k, z in enumerate(z_nodes):
            for j in order:
                w.writerow([_fmt(z / length), _fmt(w_axis[j]), _fmt(spec_map[k][j])])
    return path


def write_envelopes_csv(t_axis, a_p1, a_p2, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["T", "re_a_p1", "im_a_p1", "re_a_p2", "im_a_p2"])
        for t, v1, v2 in zip(t_axis, a_p1, a_p2):
            w.writerow([_fmt(t), _fmt(v1.real), _fmt(v1.imag), _fmt(v2.real), _fmt(v2.imag)])
    return path


SWEEP_COLUMNS = [
    "index", "param", "value", "status",
    "xi", "purity", "schmidt_number",
    "dlam_s", "dlam_i",
    "arrival_mean_s", "arrival_mean_i", "arrival_std_s", "arrival_std_i",
    "ec_deviation", "error",
]


def sweep_row(index: int, param: str, value: float, metrics: MetricsReport | None,
              error: str = "") -> list:
    row = [index, param, _fmt(value), "ok" if metrics else "error"]
    if metrics is None:
        row += [""] * (len(SWEEP_COLUMNS) - 5) + [error]
    else:
        d = metrics.to_dict()
        row += [_fmt(d[k]) for k in SWEEP_COLUMNS[4:-1]] + [""]
    return row


def write_sweep_csv(rows: list, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SWEEP_COLUMNS)
        w.writerows(rows)
    return path


def write_config_json(cfg: SourceConfig, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    return path


def write_json(doc: dict, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


class ArtifactWriter:
    """Collects files into an output directory and finishes with the
    manifest (written last, listing every other file with its checksum)."""

    def __init__(self, command: str, out_dir, configs: list[SourceConfig]):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest = RunManifest(
            command=command,
            configs=[config_to_dict(c) for c in configs],
            output_dir=str(self.out_dir),
        )
        self._t0 = time.monotonic()

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def add(self, path: Path):
        self.manifest.record(Path(path))
        # matrix writers drop a sidecar next to the file; pick it up too
        side = Path(path).with_suffix(Path(path).suffix + ".json")
        if side.exists() and side.name not in self.manifest.files:
            self.manifest.record(side)

    def finish(self) -> Path:
        self.manifest.duration_s = time.monotonic() - self._t0
        out = self.path("manifest.json")
        self.manifest.write(out)
        return out
