"""Outside-in tracing of taperfwm's layers.

The tracer replaces the module-level names through which callers reach each
layer with timing wrappers; nothing inside the package changes.  Every call
becomes a span with its name, process, start, end and parent.  Spans stay in
memory and are written out when the traced command ends.  Sweep workers are
forked from the traced process and inherit the wrappers: each worker writes
its spans to a spool file whenever its outermost span ends, and the traced
process merges the spool files with its own spans.

All times are time.perf_counter(), which is CLOCK_MONOTONIC on Linux and so
comparable between processes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("config", "pumps", "jta", "metrics", "simulate", "interference", "io", "cli")

# module -> public names wrapped in it (private ones are the single
# module-level name through which a step is reached)
TARGETS = {
    "config": ("load_config", "validate_config"),
    "pumps": ("initial_envelopes", "propagate_pumps"),
    "jta": ("evolve_jta",),
    "metrics": ("compute_metrics",),
    "simulate": ("run_source",),
    "interference": ("evaluate_pair", "optimize_delays", "_pair_visibilities"),
    "io": ("write_cjm1", "write_metrics_json", "write_xi_profile_csv",
           "write_spectral_map_csv", "write_envelopes_csv", "write_sweep_csv",
           "write_json", "write_config_json"),
    "cli": ("main", "_sweep_point"),
}
# methods reached through a class of the io layer: checksums and the manifest
METHOD_TARGETS = {"io": (("ArtifactWriter", "add"), ("ArtifactWriter", "finish"))}

MB = float(2**20)

# every per-layer metric of a traced run, with its unit, in report order;
# the first two and the last three are measured by the run itself
PER_LAYER = {
    "package.import_s": "s",
    "config.load_s": "s",
    "pumps.propagate_s": "s",
    "pumps.calls": "count",
    "pumps.trace_mb": "MB",
    "jta.evolve_s": "s",
    "jta.calls": "count",
    "jta.cell_steps_per_s": "1/s",
    "jta.snapshot_mb": "MB",
    "metrics.compute_s": "s",
    "metrics.calls": "count",
    "simulate.run_source_s": "s",
    "simulate.run_source_calls": "count",
    "simulate.repeat_runs": "count",
    "interference.evaluate_pair_s": "s",
    "interference.optimize_s": "s",
    "interference.visibility_s": "s",
    "interference.candidates": "count",
    "interference.rejected_candidates": "count",
    "interference.candidates_per_source_run": "ratio",
    "io.write_s": "s",
    "cli.sweep_point_s": "s",
    "cli.sweep_busy_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "io.bytes_written": "bytes",
    "run.cpu_s": "s",
    "trace.overhead_s": "s",
}


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _observe_pumps(args, kwargs, trace):
    return {"trace_bytes": _array_bytes(trace)}


def _observe_jta(args, kwargs, result):
    num = _first_arg(args, kwargs, "cfg").numerics
    snap = sum(s.values.nbytes for s in result.snapshots)
    return {"cell_steps": num.n_t * num.n_t * num.n_z, "snapshot_bytes": snap}


def _observe_run_source(args, kwargs, result):
    from taperfwm.config import config_to_dict

    doc = json.dumps(config_to_dict(_first_arg(args, kwargs, "cfg")), sort_keys=True)
    return {"config": hashlib.sha256(doc.encode()).hexdigest()[:16]}


def _observe_optimize(args, kwargs, study):
    rejected = sum(1 for c in study.candidates if c[2] == float("-inf"))
    return {"candidates": len(study.candidates), "rejected": rejected}


OBSERVERS = {
    "pumps.propagate_pumps": _observe_pumps,
    "jta.evolve_jta": _observe_jta,
    "simulate.run_source": _observe_run_source,
    "interference.optimize_delays": _observe_optimize,
}


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans = []
        self.stack = []
        self.inherited_parent = None
        self._count = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # a worker's outermost spans are caused by the span open at the fork
        self.inherited_parent = self.stack[-1] if self.stack else None
        self.pid = os.getpid()
        self.spans = []
        self.stack = []

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count += 1
            sid = f"{self.pid}.{self._count}"
            parent = self.stack[-1] if self.stack else self.inherited_parent
            span = {"id": sid, "parent": parent, "name": name, "pid": self.pid}
            self.stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["end"] = time.perf_counter()
                if observe is not None:
                    span["attrs"] = observe(args, kwargs, result)
                return result
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                raise
            finally:
                self.stack.pop()
                self.spans.append(span)
                if not self.stack and self.pid != self.main_pid:
                    self._spool()

        return traced

    def _spool(self):
        with open(self.spool_dir / f"worker-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list:
        """Own spans plus every span the workers spooled, by start time."""
        spans = list(self.spans)
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text().splitlines()]
        return sorted(spans, key=lambda s: s["start"])


def install(spool_dir: Path) -> Tracer:
    """Wrap every target name in every loaded taperfwm module that binds it."""
    tracer = Tracer(spool_dir)
    modules = [m for n, m in sys.modules.items() if n == "taperfwm" or n.startswith("taperfwm.")]
    for layer, names in TARGETS.items():
        home = sys.modules[f"taperfwm.{layer}"]
        for name in names:
            orig = getattr(home, name)
            wrapper = tracer.wrap(f"{layer}.{name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
    for layer, methods in METHOD_TARGETS.items():
        home = sys.modules[f"taperfwm.{layer}"]
        for cls_name, meth in methods:
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
    return tracer


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list) -> dict:
    """Span id -> its duration minus the part its child spans cover.

    Children running in parallel worker processes are counted once for the
    stretch of time they overlap."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], ())]
        out[s["id"]] = (s["end"] - s["start"]) - _covered([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans: list, jobs: int, wall_s: float) -> dict:
    """Per-layer numbers of one traced command, derived from its spans."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(name):
        return [s["end"] - s["start"] for s in by_name.get(name, ())]

    def attrs(name, key):
        return [s["attrs"][key] for s in by_name.get(name, ()) if "attrs" in s]

    selfs = self_times(spans)
    m = {f"{layer}.self_s": sum(selfs[s["id"]] for s in spans if s["name"].split(".")[0] == layer)
         for layer in LAYERS}

    jta_time = sum(dur("jta.evolve_jta"))
    configs = attrs("simulate.run_source", "config")
    candidates = sum(attrs("interference.optimize_delays", "candidates"))
    points = dur("cli._sweep_point")
    m.update({
        "pumps.propagate_s": sum(dur("pumps.propagate_pumps")),
        "pumps.calls": len(dur("pumps.propagate_pumps")),
        "pumps.trace_mb": max(attrs("pumps.propagate_pumps", "trace_bytes"), default=0) / MB,
        "jta.evolve_s": jta_time,
        "jta.calls": len(dur("jta.evolve_jta")),
        "jta.cell_steps_per_s": sum(attrs("jta.evolve_jta", "cell_steps")) / jta_time if jta_time else 0.0,
        "jta.snapshot_mb": max(attrs("jta.evolve_jta", "snapshot_bytes"), default=0) / MB,
        "metrics.compute_s": sum(dur("metrics.compute_metrics")),
        "metrics.calls": len(dur("metrics.compute_metrics")),
        "simulate.run_source_s": sum(dur("simulate.run_source")),
        "simulate.run_source_calls": len(configs),
        "simulate.repeat_runs": len(configs) - len(set(configs)),
        "interference.evaluate_pair_s": sum(dur("interference.evaluate_pair")),
        "interference.optimize_s": sum(dur("interference.optimize_delays")),
        "interference.visibility_s": sum(dur("interference._pair_visibilities")),
        "interference.candidates": candidates,
        "interference.rejected_candidates": sum(attrs("interference.optimize_delays", "rejected")),
        "interference.candidates_per_source_run": candidates / len(configs) if candidates else 0.0,
        # io spans never nest, so their durations add up
        "io.write_s": sum(s["end"] - s["start"] for s in spans if s["name"].startswith("io.")),
        "cli.sweep_point_s": statistics.median(points) if points else 0.0,
        "cli.sweep_busy_ratio": sum(points) / (jobs * wall_s) if points else 0.0,
    })
    return m
