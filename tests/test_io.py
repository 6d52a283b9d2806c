"""Binary matrix format, metrics serialization, manifest."""

import hashlib
import json

import numpy as np
import pytest

from taperfwm import io
from taperfwm.jta import jta_to_jsa


@pytest.fixture()
def phi(fast_run):
    return fast_run.result.jta


def test_cjm1_round_trip(phi, tmp_path):
    p = io.write_cjm1(phi, tmp_path / "m.cjm1")
    back = io.read_cjm1(p)
    assert np.array_equal(back, phi.values)


def test_cjm1_file_size(phi, tmp_path):
    n = phi.values.shape[0]
    p = io.write_cjm1(phi, tmp_path / "m.cjm1")
    assert p.stat().st_size == 16 + n * n * 16


def test_cjm1_sidecar(phi, tmp_path):
    io.write_cjm1(phi, tmp_path / "m.cjm1")
    doc = json.loads((tmp_path / "m.cjm1.json").read_text())
    assert doc["domain"] == "time"
    assert doc["n"] == phi.grid.n
    assert doc["norm_sq"] == phi.norm_sq
    assert doc["axis"][0] == pytest.approx(phi.grid.t_axis[0])


def test_cjm1_frequency_domain(phi, tmp_path):
    jsa = jta_to_jsa(phi)
    io.write_cjm1(jsa, tmp_path / "m.cjm1")
    doc = json.loads((tmp_path / "m.cjm1.json").read_text())
    assert doc["domain"] == "frequency"
    assert doc["axis"][0] == pytest.approx(jsa.grid.w_axis[0])


def test_cjm1_bad_magic(tmp_path):
    p = tmp_path / "bad.cjm1"
    p.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(io.FormatError, match="magic"):
        io.read_cjm1(p)


def test_cjm1_truncated(phi, tmp_path):
    p = io.write_cjm1(phi, tmp_path / "m.cjm1")
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(io.FormatError, match="size"):
        io.read_cjm1(p)


def test_metrics_json_deterministic(fast_run, tmp_path):
    a = io.write_metrics_json(fast_run.metrics, tmp_path / "a.json")
    b = io.write_metrics_json(fast_run.metrics, tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["xi"] == fast_run.metrics.xi
    assert set(doc) == set(io.SWEEP_COLUMNS[4:-1])


def test_xi_profile_csv(fast_run, tmp_path):
    prof = fast_run.result.xi_profile
    p = io.write_xi_profile_csv(prof, 1.5e-2, tmp_path / "xi.csv")
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "z_over_L,xi"
    assert len(lines) == prof.z_nodes.size + 1
    z0, xi0 = lines[1].split(",")
    assert float(z0) == 0.0
    assert float(xi0) == prof.xi[0]


def test_sweep_rows(fast_run):
    ok = io.sweep_row(0, "tau", 1e-12, fast_run.metrics)
    assert ok[3] == "ok"
    assert len(ok) == len(io.SWEEP_COLUMNS)
    bad = io.sweep_row(1, "tau", 2e-12, None, error="diverged")
    assert bad[3] == "error"
    assert bad[-1] == "diverged"
    assert len(bad) == len(io.SWEEP_COLUMNS)


def test_manifest_lists_everything(fast_run, tmp_path):
    w = io.ArtifactWriter("simulate", tmp_path / "out", [fast_run.cfg])
    w.add(io.write_metrics_json(fast_run.metrics, w.path("metrics.json")))
    w.add(io.write_cjm1(fast_run.result.jta, w.path("final_jta.cjm1")))
    mpath = w.finish()
    doc = json.loads(mpath.read_text())
    assert set(doc["files"]) == {"metrics.json", "final_jta.cjm1", "final_jta.cjm1.json"}
    assert doc["command"] == "simulate"
    # each checksum is taken as the manifest is written, of the file's bytes
    for name, digest in doc["files"].items():
        assert digest == hashlib.sha256(w.path(name).read_bytes()).hexdigest(), name
    # every JSON artifact has one layout: sorted keys, two-space indent, a
    # final newline
    for name in ("metrics.json", "final_jta.cjm1.json", "manifest.json"):
        text = w.path(name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


def test_envelope_csv(fast_run, tmp_path):
    g = fast_run.result.jta.grid
    n = g.n
    a = np.arange(n) + 1j
    p = io.write_envelopes_csv(g.t_axis, a, 2 * a, tmp_path / "env.csv")
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "T,re_a_p1,im_a_p1,re_a_p2,im_a_p2"
    assert len(lines) == n + 1


def test_csv_dialect(tmp_path):
    p = io.write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"],
                     [[0.1, np.float64(1 / 3), 7, "x"], [float("-inf"), 2.0, np.int64(3), ""]])
    assert p.read_bytes() == (b"a,b,c,d\r\n0.10000000000000001,0.33333333333333331,7,x\r\n"
                              b"-inf,2,3,\r\n")

