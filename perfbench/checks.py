"""Correctness checks on what one round of a workload wrote.

The checks test properties the method must have (Parseval, an independent
SVD, Cauchy-Schwarz, monotone tuning, results independent of the worker
process) and external reference bands at the nominal inputs.  None of them
compares against a stored copy of an earlier output.  Each check returns a
list of failure messages; an empty list means the round is correct.

They also extract the physics fingerprint (xi, purity, dlam_s), which is
printed for reference only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from taperfwm.analytic import fit_erf
from taperfwm.config import derive_run_params, load_config
from taperfwm.interference import align_arrival_times
from taperfwm.jta import XiProfile
from taperfwm.simulate import run_source

from workloads import TAU_MAX

# criterion bands (external reference values)
PURITY_BAND = (0.993, 1.0)            # criterion 1, untapered reference purity
TUNING_RANGE_NM = (6.5, 1.0)          # criterion 3, 0.25 um taper signal range
V_RHOM_MIN, V_HHOM_MIN = 0.99, 0.97   # criterion 8, optimized 60 nm pair
MATCH_POINT_TOL = 0.02                # criterion 4, match point in units of L
# the pair optimizer aligns arrival times with this wrap-around tolerance
PAIR_WRAP_TOL = 1e-4


def fingerprint_line(fp: dict) -> str:
    return " ".join(f"{k}={v:.12g}" for k, v in fp.items())


def _expect(errors: list, ok: bool, message: str):
    if not ok:
        errors.append(message)


def _check_manifest(out: Path, errors: list):
    manifest = json.loads((out / "manifest.json").read_text())
    if not manifest["files"]:
        errors.append("manifest lists no files")
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        _expect(errors, actual == digest, f"manifest SHA-256 of {name} does not match the file")


def read_cjm1(path: Path) -> np.ndarray:
    """CJM1 reader written from the format description, not the program's:
    a 16-byte header (magic, rows, cols, reserved) then row-major
    little-endian float64 (Re, Im) pairs."""
    raw = path.read_bytes()
    magic, rows, cols, _ = struct.unpack_from("<4sIII", raw)
    if magic != b"CJM1" or len(raw) != 16 + rows * cols * 16:
        raise ValueError(f"{path} is not a well-formed CJM1 file")
    pairs = np.frombuffer(raw, dtype="<f8", offset=16).reshape(rows, cols, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def svd_purity(values: np.ndarray) -> float:
    s = np.linalg.svd(values, compute_uv=False)
    p = s**2 / np.sum(s**2)
    return float(np.sum(p**2))


class Checker:
    """Checks the rounds of one workload run; recomputations are done once."""

    def __init__(self, workload, config_paths: list[Path]):
        self.wl = workload
        self.cfgs = [load_config(p) for p in config_paths]
        self._recomputed = {}

    def failed_operations(self, out: Path, rc: int) -> int:
        """Operations of a round that failed: the command, or each sweep row
        with status=error."""
        if self.wl.command != "sweep":
            return 0 if rc == 0 else 1
        path = out / "sweep.csv"
        if not path.exists():
            return self.wl.operations
        with open(path, newline="") as fh:
            ok = sum(1 for row in csv.DictReader(fh) if row["status"] == "ok")
        return self.wl.operations - ok

    def check(self, out: Path) -> tuple[list, dict]:
        """(failure messages, fingerprint) of a round that did not fail."""
        errors = []
        _check_manifest(out, errors)
        check = {"simulate": self._reference, "sweep": self._sweep, "pair": self._pair}
        fp = check[self.wl.command](out, errors)
        return errors, fp

    def _reference(self, out: Path, errors: list) -> dict:
        cfg = self.cfgs[0]
        L = cfg.geometry.length
        metrics = json.loads((out / "metrics.json").read_text())
        xi = metrics["xi"]

        jsa = read_cjm1(out / "final_jsa.cjm1")
        side = json.loads((out / "final_jsa.cjm1.json").read_text())
        dw = 2.0 * np.pi / (side["n"] * side["dt"])
        parseval = float(np.sum(np.abs(jsa) ** 2)) * dw * dw
        _expect(errors, abs(parseval - xi) <= 1e-10 * xi,
                f"Parseval: JSA norm {parseval:.17g} vs metrics xi {xi:.17g}")
        purity = svd_purity(jsa)
        _expect(errors, abs(purity - metrics["purity"]) <= 1e-10,
                f"independent SVD purity {purity:.17g} vs reported {metrics['purity']:.17g}")
        lo, hi = PURITY_BAND
        _expect(errors, lo <= metrics["purity"] <= hi,
                f"purity {metrics['purity']:.5f} outside the criterion-1 band [{lo}, {hi}]")

        with open(out / "xi_profile.csv", newline="") as fh:
            rows = [(float(r["z_over_L"]), float(r["xi"])) for r in csv.DictReader(fh)]
        z_over_l, profile = np.array(rows).T
        _expect(errors, profile[0] == 0.0, f"xi profile starts at {profile[0]:.3e}, not 0")
        _expect(errors, abs(profile[-1] - xi) <= 1e-10 * xi,
                f"xi profile ends at {profile[-1]:.17g}, reported xi {xi:.17g}")
        rp = derive_run_params(cfg)
        fit = fit_erf(XiProfile(z_nodes=z_over_l * L, xi=profile),
                      loss_rate=rp.alpha_m["s"] + rp.alpha_m["i"])
        expected = cfg.pump.tau / TAU_MAX
        _expect(errors, abs(fit.l_match_fit / L - expected) <= MATCH_POINT_TOL,
                f"erf match point {fit.l_match_fit / L:.4f} L, expected {expected:.4f} L")
        return {k: metrics[k] for k in ("xi", "purity", "dlam_s")}

    def _sweep(self, out: Path, errors: list) -> dict:
        with open(out / "sweep.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["status"] == "ok"]
        rows.sort(key=lambda r: float(r["value"]))
        for r in rows:
            product = float(r["schmidt_number"]) * float(r["purity"])
            _expect(errors, abs(product - 1.0) <= 1e-12,
                    f"point {r['index']}: schmidt_number x purity = {product:.17g}")
        shifts = np.array([float(r["dlam_s"]) for r in rows])
        _expect(errors, bool(np.all(np.diff(shifts) > 0)), "Signal shift not strictly increasing in tau")
        if self.wl.nominal and len(rows) == self.wl.operations:
            span = (shifts[-1] - shifts[0]) * 1e9
            target, tol = TUNING_RANGE_NM
            _expect(errors, abs(span - target) <= tol,
                    f"Signal tuning range {span:.3f} nm outside criterion 3's {target} +- {tol} nm")

        # the same point computed in this process must match the worker's
        # row; a point that failed is already counted, so take the nearest
        # point that did not
        index = self.wl.inputs["check_index"]
        row = min(rows, key=lambda r: abs(int(r["index"]) - index))
        if row["value"] not in self._recomputed:
            cfg = self.cfgs[0].replace(pump={"tau": float(row["value"])})
            self._recomputed[row["value"]] = run_source(cfg).metrics.to_dict()
        for key, value in self._recomputed[row["value"]].items():
            if key in row:
                _expect(errors, float(row[key]) == value,
                        f"point {row['index']} {key}: worker {row[key]} vs in-process {value!r}")

        fp = {}
        for r in (rows[0], rows[len(rows) // 2], rows[-1]) if rows else ():
            for k in ("xi", "purity", "dlam_s"):
                fp[f"tau{int(r['index'])}.{k}"] = float(r[k])
        return fp

    def _pair(self, out: Path, errors: list) -> dict:
        doc = json.loads((out / "pair.json").read_text())
        raw, opt = doc["raw"], doc["optimized"]
        with open(out / "candidates.csv", newline="") as fh:
            values = [float(r["v"]) for r in csv.DictReader(fh)]
        _expect(errors, bool(values) and opt["v_rhom"] == max(values),
                f"optimized V_RHOM {opt['v_rhom']!r} is not the best candidate")
        _expect(errors, opt["v_rhom"] >= raw["v_rhom"],
                f"optimized V_RHOM {opt['v_rhom']:.6f} below raw {raw['v_rhom']:.6f}")
        taus = (opt["tau1"], opt["tau2"])
        for k, tau in enumerate(taus, 1):
            _expect(errors, 0.0 <= tau <= TAU_MAX, f"tau{k} = {tau:.4e} s outside [0, tau_max]")

        if taus not in self._recomputed:
            self._recomputed[taus] = [run_source(cfg.replace(pump={"tau": tau}))
                                      for cfg, tau in zip(self.cfgs, taus)]
        out1, out2 = self._recomputed[taus]
        phi2, _, _ = align_arrival_times(out1.result.jta, out2.result.jta,
                                         self.cfgs[0].pump.t0_fwhm, wrap_tol=PAIR_WRAP_TOL)
        a = out1.result.jta.values / np.linalg.norm(out1.result.jta.values)
        b = phi2.values / np.linalg.norm(phi2.values)
        v_rhom = float(np.abs(np.vdot(b, a)) ** 2)
        # Tr(rho1 rho2) with rho = a a^H over the Signal axis equals |a^H b|_F^2
        v_hhom = float(np.linalg.norm(a.conj().T @ b) ** 2)
        _expect(errors, abs(v_rhom - opt["v_rhom"]) <= 1e-10,
                f"recomputed V_RHOM {v_rhom:.17g} vs reported {opt['v_rhom']:.17g}")
        _expect(errors, abs(v_hhom - opt["v_hhom"]) <= 1e-10,
                f"recomputed V_HHOM {v_hhom:.17g} vs reported {opt['v_hhom']:.17g}")
        p1, p2 = out1.metrics.purity, out2.metrics.purity
        _expect(errors, opt["v_hhom"] <= np.sqrt(p1 * p2) + 1e-12,
                f"V_HHOM {opt['v_hhom']:.6f} exceeds sqrt(P1 P2) = {np.sqrt(p1 * p2):.6f}")
        if self.wl.nominal:
            _expect(errors, opt["v_rhom"] >= V_RHOM_MIN,
                    f"optimized V_RHOM {opt['v_rhom']:.4f} below criterion 8's {V_RHOM_MIN}")
            _expect(errors, opt["v_hhom"] >= V_HHOM_MIN,
                    f"optimized V_HHOM {opt['v_hhom']:.4f} below criterion 8's {V_HHOM_MIN}")

        fp = {}
        for k, o in enumerate((out1, out2), 1):
            for key in ("xi", "purity", "dlam_s"):
                fp[f"source{k}.{key}"] = getattr(o.metrics, key)
        return fp
