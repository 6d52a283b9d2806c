"""Smoke run of the study script that has no command-line equivalent."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

from taperfwm import interference

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_pair_studies_offset_scan(tmp_path, monkeypatch):
    raw = {}
    real_evaluate_pair = interference.evaluate_pair

    def recorded(cfg1, cfg2, sources=None):
        study = real_evaluate_pair(cfg1, cfg2, sources)
        raw[cfg2.geometry.height_offset] = study.v_rhom
        return study

    # the script binds evaluate_pair when it runs, so it takes the wrapper
    monkeypatch.setattr(interference, "evaluate_pair", recorded)
    monkeypatch.setattr(sys, "argv", ["pair_studies.py", "-o", str(tmp_path), "--n-t", "64",
                                      "--n-z", "100", "--skip-optimize",
                                      "--offsets-nm", "0", "1"])
    runpy.run_path(str(SCRIPTS / "pair_studies.py"), run_name="__main__")
    with open(tmp_path / "height_error.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["offset_nm"] for r in rows] == ["0.00", "1.00"]
    assert all(r["opt_v_rhom"] == "" for r in rows)
    assert [float(r["raw_v_rhom"]) for r in rows] == pytest.approx(
        [raw[0.0], raw[1e-9]], abs=5e-7)
    assert raw[0.0] == pytest.approx(1.0, abs=1e-12)
    assert raw[1e-9] < 1.0
