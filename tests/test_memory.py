"""Memory of one source run, measured with tracemalloc, which sees numpy's
buffers: the CJM1 dump, the metrics, the pump trace and the JTA stepper
hold no full-size copy they do not need."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from taperfwm import io, jta, run_source, table1_config
from taperfwm.metrics import compute_metrics
from taperfwm.pumps import propagate_pumps

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
    # a copy of the result, so that its JSA is built inside the trace
    result = dataclasses.replace(run.result)
    metrics, peak, _ = _traced(lambda: compute_metrics(result, cfg))
    assert peak <= 2.5 * result.jta.values.nbytes
    assert metrics == run.metrics


def test_pump_trace_keeps_midpoints_and_ends(cfg):
    n_t, n_z = GRID["n_t"], GRID["n_z"]
    trace, _, held = _traced(lambda: propagate_pumps(cfg))
    expect = (2 * n_z + 4) * n_t * 16 + trace.z_nodes.nbytes + trace.z_mid.nbytes
    arrays = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == expect
    # no larger array hides behind the kept ones: the call still holds the
    # trace, the grid's two axes and less than one more row of both pumps
    assert held <= expect + 2 * n_t * 8 + 2 * n_t * 16


def test_evolve_jta_peak(run, cfg, monkeypatch):
    # two slabs at any n_t, so that the transforms run on row and column
    # views of the state; the whole-array stepper peaked at two states plus
    # 0.41 n * n_z complex values (167 kB)
    monkeypatch.setattr(jta, "_SLAB_MIN_N", 1)
    monkeypatch.setattr(jta, "worker_count", lambda: 2)
    n, n_z = GRID["n_t"], GRID["n_z"]
    trace = propagate_pumps(cfg)
    result, peak, _ = _traced(lambda: jta.evolve_jta(cfg, trace))
    state = n * n * 16
    # the state, the full-step multiplier and O(n * n_z) more
    assert peak <= 2 * state + n * n_z * 16
    assert np.array_equal(result.jta.values, run.result.jta.values)
