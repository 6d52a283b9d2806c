"""Smoke run of the study script that has no command-line equivalent."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

from taperfwm import interference, simulate

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_pair_studies_offset_scan(tmp_path, monkeypatch):
    raw = {}
    stored = []  # the runs the store holds as each offset starts
    real_evaluate_pair = interference.evaluate_pair

    def recorded(cfg1, cfg2, runs=None):
        stored.append(len(runs))
        study = real_evaluate_pair(cfg1, cfg2, runs)
        raw[cfg2.geometry.height_offset] = study.v_rhom
        return study

    sources = []
    real_run_source = interference.run_source

    def counted(cfg, **kw):
        sources.append(cfg)
        return real_run_source(cfg, **kw)

    # the script binds evaluate_pair when it runs, so it takes the wrapper;
    # one worker, so that every source run is counted in this process
    monkeypatch.setattr(interference, "evaluate_pair", recorded)
    monkeypatch.setattr(interference, "run_source", counted)
    monkeypatch.setattr(simulate, "worker_count", lambda: 1)
    monkeypatch.setattr(sys, "argv", ["pair_studies.py", "-o", str(tmp_path), "--n-t", "64",
                                      "--n-z", "100", "--skip-optimize",
                                      "--offsets-nm", "0", "1", "2"])
    runpy.run_path(str(SCRIPTS / "pair_studies.py"), run_name="__main__")
    with open(tmp_path / "height_error.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["offset_nm"]) for r in rows] == [0.0, 1.0, 2.0]
    assert all(r["opt_v_rhom"] == "" for r in rows)
    assert [float(r["raw_v_rhom"]) for r in rows] == [raw[0.0], raw[1e-9], raw[2e-9]]
    assert raw[0.0] == pytest.approx(1.0, abs=1e-12)
    assert raw[2e-9] < raw[1e-9] < 1.0
    # source 1 and the 0 nm source 2 are one configuration, run once
    assert len(sources) == 3
    # a finished offset's source 2 leaves the store; source 1 stays
    assert stored == [0, 1, 1]
