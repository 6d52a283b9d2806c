"""File exports and imports: binary joint-amplitude matrices, CSV/JSON
artifacts and the run manifest.  Every CSV goes through write_csv and every
JSON file through _write_json, so all artifacts share one text format."""

from __future__ import annotations

import csv
import dataclasses
import json
import struct
import time
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


def _fmt(x: float) -> str:
    """17 significant digits: lossless float64 round trip."""
    return format(float(x), ".17g")


# perfbench/tracing.py times each write_* function below but write_csv as a
# span that never nests, so none of them calls another; they share
# _write_json and write_csv.
def _write_json(doc: dict, path) -> Path:
    """The one JSON layout of every artifact: sorted keys, two-space
    indent, a final newline."""
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def write_csv(path, header: list, rows) -> Path:
    """The one CSV dialect of every artifact, the csv module's default
    (comma separated, CRLF line ends): floats with 17 significant digits,
    every other cell with str."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_fmt(c) if isinstance(c, float) else c for c in row] for row in rows)
    return path


def write_cjm1(phi: JointAmplitude, path) -> Path:
    """Binary matrix dump: 16-byte header then row-major interleaved
    little-endian float64 (Re, Im).  A JSON sidecar carries the grid."""
    path = Path(path)
    n_rows, n_cols = phi.values.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, n_rows, n_cols, 0))
        # little-endian complex128 is that layout: the matrix's own buffer
        # is written, with no copy
        fh.write(np.ascontiguousarray(phi.values, "<c16").data)
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
    values = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    return values.reshape(n_rows, n_cols).astype(complex)


def _write_sidecar(phi: JointAmplitude, path: Path):
    g = phi.grid
    axis = g.t_axis if phi.domain == "time" else g.w_axis
    _write_json({
        "domain": phi.domain,
        "z": phi.z,
        "norm_sq": phi.norm_sq,
        "n": g.n,
        "dt": g.dt,
        "axis": [float(v) for v in axis],
    }, path)


def write_metrics_json(metrics: MetricsReport, path) -> Path:
    """Flat SI-unit JSON; deterministic for reruns with the same config."""
    return _write_json(metrics.to_dict(), path)


def write_xi_profile_csv(profile: XiProfile, length: float, path) -> Path:
    return write_csv(path, ["z_over_L", "xi"],
                     ([z / length, xi] for z, xi in zip(profile.z_nodes, profile.xi)))


def write_spectral_map_csv(z_nodes, w_axis, spec_map, length: float, path) -> Path:
    """(z/L, omega'_i, intensity) triples of the cumulative Idler spectrum,
    in the order of w_axis (Grid.w_axis is sorted)."""
    return write_csv(path, ["z_over_L", "omega_i", "intensity"],
                     ([z / length, w, v] for z, row in zip(z_nodes, spec_map)
                      for w, v in zip(w_axis, row)))


def write_envelopes_csv(t_axis, a_p1, a_p2, path) -> Path:
    return write_csv(path, ["T", "re_a_p1", "im_a_p1", "re_a_p2", "im_a_p2"],
                     ([t, v1.real, v1.imag, v2.real, v2.imag]
                      for t, v1, v2 in zip(t_axis, a_p1, a_p2)))


SWEEP_COLUMNS = ["index", "param", "value", "status",
                 *(f.name for f in dataclasses.fields(MetricsReport)), "error"]


def sweep_row(index: int, param: str, value: float, metrics: MetricsReport | None,
              error: str = "") -> list:
    row = [index, param, value, "ok" if metrics else "error"]
    if metrics is None:
        row += [""] * (len(SWEEP_COLUMNS) - 5) + [error]
    else:
        d = metrics.to_dict()
        row += [d[k] for k in SWEEP_COLUMNS[4:-1]] + [""]
    return row


def write_sweep_csv(rows: list, path) -> Path:
    return write_csv(path, SWEEP_COLUMNS, rows)


def write_config_json(cfg: SourceConfig, path) -> Path:
    return _write_json(config_to_dict(cfg), path)


def write_json(doc: dict, path) -> Path:
    return _write_json(doc, path)


def _sha256(path: Path) -> str:
    # imported here: its OpenSSL load holds a few MB resident, which only
    # the manifest, written after a run's arrays are freed, needs to pay
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # in 64 KiB blocks, so a matrix dump is never held whole and the
        # block adds little to the run's peak memory
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


class ArtifactWriter:
    """Collects files into an output directory and finishes with the
    manifest (written last, listing every other file with its checksum,
    each taken then)."""

    def __init__(self, command: str, out_dir, configs: list[SourceConfig]):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest = {
            "command": command,
            "configs": [config_to_dict(c) for c in configs],
            "version": __version__,
        }
        self._paths = {}  # name -> path
        self._t0 = time.monotonic()

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def add(self, path: Path):
        path = Path(path)
        self._paths[path.name] = path
        # matrix writers drop a sidecar next to the file; pick it up too
        side = path.with_suffix(path.suffix + ".json")
        if side.exists():
            self._paths[side.name] = side

    def finish(self) -> Path:
        """Checksum every added file and write the manifest; call last so
        every file is listed."""
        # name -> sha256
        self.manifest["files"] = {name: _sha256(p) for name, p in self._paths.items()}
        self.manifest["duration_s"] = time.monotonic() - self._t0
        return _write_json(self.manifest, self.path("manifest.json"))
