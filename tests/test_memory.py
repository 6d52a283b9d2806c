"""Memory of one source run, measured with tracemalloc, which sees numpy's
buffers: the CJM1 dump, the metrics, the pump trace, the JTA stepper, the
spectral map, the JSA dumps and a scored optimizer candidate hold no
full-size copy they do not need, and no run, its pump dump included,
stores the pump midpoints.  A simulate also loads no module it does not
run, which tracemalloc cannot see, so that is checked in a fresh
interpreter."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import taperfwm
from taperfwm import interference, io, jta, run_source, table1_config
from taperfwm.cli import main
from taperfwm.metrics import compute_metrics, spectral_cumulative
from taperfwm.pumps import midpoints, propagate_pumps

GRID = {"n_t": 256, "n_z": 100}


@pytest.fixture(scope="module")
def cfg():
    return table1_config(numerics=GRID)


@pytest.fixture(scope="module")
def run(cfg):
    return run_source(cfg)


def _traced(fn):
    """fn()'s result, the peak of the memory it allocated and what of that
    it still holds on return, both in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, held - base


def test_write_cjm1_copies_nothing(run, tmp_path):
    phi = run.result.jta
    _, peak, _ = _traced(lambda: io.write_cjm1(phi, tmp_path / "m.cjm1"))
    assert peak < 0.05 * phi.values.nbytes
    assert np.array_equal(io.read_cjm1(tmp_path / "m.cjm1"), phi.values)


def test_compute_metrics_peak(run, cfg):
    # no JSA is built: an eighth of the state at a time, the purity's
    # conjugated block of columns or the spectral marginals' 1-D transforms
    # of one, and less than a thirty-second more, the purity's tile of
    # A^H A (1/64) or the marginals' real blocks (3/128); measured 0.148 of
    # the state, where the products of a block of columns with the whole
    # JTA read 0.252
    result = dataclasses.replace(run.result)
    before = result.jta.values.copy()
    metrics, peak, _ = _traced(lambda: compute_metrics(result, cfg))
    assert peak <= (1 / 8 + 1 / 32) * result.jta.values.nbytes
    assert metrics == run.metrics
    assert np.array_equal(result.jta.values, before)


def _stepped(cfg):
    """A trace of cfg whose midpoints have all been drawn and dropped."""
    trace = propagate_pumps(cfg)
    deque(midpoints(cfg, trace), maxlen=0)
    return trace


def test_pump_trace_keeps_its_ends_and_no_midpoints(cfg):
    n_t, n_z = GRID["n_t"], GRID["n_z"]
    trace, _, held = _traced(lambda: _stepped(cfg))
    expect = 4 * n_t * 16 + trace.z_nodes.nbytes + trace.z_mid.nbytes
    arrays = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == expect
    # no larger array hides behind the kept ones: the call still holds the
    # trace, the grid's two axes and less than one more row of both pumps
    assert held <= expect + 2 * n_t * 8 + 2 * n_t * 16


def test_unshared_run_peak_does_not_grow_with_n_z(cfg):
    # a run steps the pumps as the JTA stepper draws them: 300 more steps
    # add a few floats each (xi, Theta and the z nodes), where stored
    # midpoints would add 2 * 300 * n_t complex values (2.5 MB)
    def peak(n_z):
        c = cfg.replace(numerics={"n_z": n_z})
        return _traced(lambda: run_source(c))[1]

    peak(100)  # the transforms' first-call set-up, outside the comparison
    assert peak(400) - peak(100) <= 300 * 8 * 8


def test_dump_pumps_peak_does_not_grow_with_n_z(cfg, tmp_path):
    # the pump dump writes the ends of the run's own trace, so it stores no
    # midpoints either: 300 more steps add a few floats each to the run and
    # to the xi profile it writes (15 kB measured), where stored midpoints
    # would add 2.5 MB; its z = L file is the row that drawing every
    # midpoint leaves in a fresh trace's ends
    def dump(n_z, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"defaults": "table1", "numerics": {**GRID, "n_z": n_z}}))
        out = tmp_path / name
        rc, peak, _ = _traced(lambda: main(["simulate", "-c", str(path), "-o", str(out),
                                            "--dump-pumps"]))
        assert rc == 0
        return out, peak

    dump(100, "first")  # the first-call set-up, outside the comparison
    _, peak100 = dump(100, "short")
    out400, peak400 = dump(400, "long")
    assert peak400 - peak100 <= 300 * 16 * 8
    trace = _stepped(cfg.replace(numerics={"n_z": 400}))
    a1, a2 = trace.ends[:, 1]
    expect = io.write_envelopes_csv(trace.grid.t_axis, a1, a2, tmp_path / "expect.csv")
    assert (out400 / "pumps_z00400.csv").read_bytes() == expect.read_bytes()


def test_evolve_jta_peak(run, cfg, monkeypatch):
    # two threads on the grid's two row blocks, so that both transpose
    # their block pairs at once; the stepper peaked at 1.58 states here
    # (the state, two 128 x 128 block temporaries, and 0.08 of a state
    # more), where the whole-array fused stepper peaked at two states plus
    # 0.41 n * n_z complex values
    monkeypatch.setattr(jta, "worker_count", lambda: 2)
    n, n_z = GRID["n_t"], GRID["n_z"]
    trace = propagate_pumps(cfg)
    result, peak, _ = _traced(lambda: jta.evolve_jta(cfg, trace))
    state = n * n * 16
    # the state, one block temporary per thread and O(n * n_z) more
    assert peak <= state + 2 * jta._BLOCK ** 2 * 16 + n * n_z * 16
    assert np.array_equal(result.jta.values, run.result.jta.values)


def _scored_candidate_peak(kind):
    """One candidate of the optimizer at n_t = 128, the pair benchmark's
    grid, scored by the visibility `kind`: its value, the value by whole
    BLAS/numpy products, and its peak in states."""
    cfg = table1_config(numerics={"n_t": 128, "n_z": 100}, geometry={"taper_amplitude": 0.1e-6})
    phi1 = run_source(cfg).result.jta
    phi2 = run_source(cfg.replace(pump={"tau": 1.3e-12}, geometry={"width_offset": 60e-9})).result.jta
    for phi in (phi1, phi2):
        phi.marginals  # formed once per stored run, before its candidates
    (vis, _, _), peak, _ = _traced(lambda: interference._pair_visibilities(
        phi1, phi2, cfg.pump.t0_fwhm, kinds=(kind,)))
    a = phi1.values
    b = interference.align_arrival_times(phi1, phi2, cfg.pump.t0_fwhm)[0].values
    overlap = np.vdot(b, a) if kind == "rhom" else np.linalg.norm(a.conj().T @ b)
    ref = abs(overlap) ** 2 / (np.vdot(b, b).real * np.vdot(a, a).real)
    return vis[kind], ref, peak / a.nbytes


def test_scored_rhom_candidate_peak():
    # source 2 shifted in one buffer, and the overlap <b|a> summed by
    # blocks of rows, with no buffer of its own; measured 1.40 states,
    # where an overlap buffer of the state's size read 2.13 and the
    # whole-array ramp, unit copies and product 4.01
    v, ref, states = _scored_candidate_peak("rhom")
    assert states <= 1.5
    assert v == pytest.approx(ref, rel=1e-12)


def test_scored_hhom_candidate_peak():
    # source 2 shifted in one buffer, and |a^H b|_F^2 summed over tiles of
    # blocks of columns (see metrics.gram_sq); measured 1.40 states, where
    # the whole product a^H b and its copies read 5.01
    v, ref, states = _scored_candidate_peak("hhom")
    assert states <= 1.5
    assert v == pytest.approx(ref, rel=1e-12)


def test_spectral_map_builds_no_jsa(cfg):
    # the map of 6 snapshots reads each one's Idler spectrum from 1-D
    # transforms of blocks of its JTA (see metrics._spectral_marginal):
    # measured 0.16 of one state, where each snapshot's JSA would be a
    # whole state more
    snaps = run_source(cfg, snapshots=6).result.snapshots
    (_, _, smap), peak, _ = _traced(lambda: spectral_cumulative(snaps))
    assert peak <= snaps[0].values.nbytes / 4
    assert smap.shape == (6, GRID["n_t"])


def test_simulate_dumps_the_final_jta_and_its_jsa(run, tmp_path):
    # the final JSA is built in the state's own buffer after the JTA's dump
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"defaults": "table1", "numerics": GRID}))
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(path), "-o", str(out), "--dump-jta", "--dump-jsa"]) == 0
    phi = io.read_cjm1(out / "final_jta.cjm1")
    assert np.array_equal(phi, run.result.jta.values)
    expect = jta.jta_to_jsa(run.result.jta)
    assert np.array_equal(io.read_cjm1(out / "final_jsa.cjm1"), expect)


def test_snapshot_jsas_take_their_jtas_buffers(cfg, tmp_path, monkeypatch):
    # with the run done, its artifacts under --dump-jsa --snapshots 4 (the
    # metrics, the spectral map and five JSA dumps) build each JSA in its
    # own JTA's buffer, after that JTA's last reader: measured 0.18 of one
    # state, the map's and the metrics' blocks, where a new buffer for each
    # snapshot's JSA read 1.16
    from taperfwm import cli

    out = run_source(cfg, snapshots=4)
    monkeypatch.setattr(cli, "run_source", lambda c, snapshots: out)
    args = argparse.Namespace(snapshots=4, dump_pumps=False, dump_jta=False, dump_jsa=True)
    writer = io.ArtifactWriter("simulate", tmp_path / "out", [cfg])
    state = out.result.jta.values.nbytes
    _, peak, _ = _traced(lambda: cli._simulate(writer, cfg, args))
    assert peak <= state / 4
    for k, snap in enumerate(run_source(cfg, snapshots=4).result.snapshots):
        dumped = io.read_cjm1(writer.path(f"snapshot_{k:03d}_jsa.cjm1"))
        assert np.array_equal(dumped, jta.jta_to_jsa(snap))


# the process pool, with multiprocessing (1.4 MB resident), and OpenSSL's
# hashes (3.6 MB), neither of which a simulate's run uses
_UNUSED = ("multiprocessing", "concurrent.futures.process", "_hashlib")
_PROBE = f"""
import sys
import taperfwm.cli
print(sorted(m for m in {_UNUSED!r} if m in sys.modules))
assert taperfwm.cli.main(["simulate", "-c", sys.argv[1], "-o", sys.argv[2]]) == 0
print(sorted(m for m in {_UNUSED[:2]!r} if m in sys.modules))
"""


def test_simulate_loads_no_process_pool_and_no_openssl(tmp_path):
    # the manifest's checksums load hashlib as the last step, once the run
    # is freed; until then none of the three is loaded
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"defaults": "table1", "numerics": {"n_t": 64, "n_z": 100}}))
    src = str(Path(taperfwm.__file__).resolve().parents[1])
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", _PROBE, str(path), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]"]
    assert (tmp_path / "out" / "manifest.json").exists()
