"""Single-source run orchestration."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

from .config import ConfigError, SourceConfig, validate_config
from .jta import SimulationResult, evolve_jta
from .metrics import MetricsReport, compute_metrics
from .pumps import PumpTrace, propagate_pumps


@dataclass
class RunOutput:
    cfg: SourceConfig
    pump_trace: PumpTrace | None
    result: SimulationResult

    @cached_property
    def metrics(self) -> MetricsReport:
        """Computed on first access, so runs that need only the JTA skip it."""
        return compute_metrics(self.result, self.cfg)


def worker_count() -> int:
    """Worker processes for independent source runs: one per CPU this
    process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerPool:
    """The workers of `tasks` independent runs: min(jobs or worker_count(),
    tasks) processes, or this process alone below 2.  As a context manager
    it joins the pool when the block ends, also when it raises."""

    def __init__(self, tasks: int = 1, jobs: int = 0):
        self.jobs = max(1, min(jobs or worker_count(), tasks))
        self.pool = ProcessPoolExecutor(max_workers=self.jobs) if self.jobs > 1 else None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)

    def map(self, fn, items):
        return map(fn, items) if self.pool is None else self.pool.map(fn, items)


def run_source(cfg: SourceConfig, keep_pump_trace: bool = False, snapshots: int = 0,
               pump_trace: PumpTrace | None = None) -> RunOutput:
    """Validate, propagate the pumps and evolve the JTA, storing `snapshots`
    evenly spaced states; the metrics follow on first access.

    pump_trace, the trace of a run whose pumps.trace_key equals this
    configuration's, replaces the pump propagation: the trace depends on
    nothing else, so the run is bitwise the same."""
    rep = validate_config(cfg)
    if not rep.ok:
        raise ConfigError("; ".join(rep.errors))
    trace = pump_trace
    if trace is None:
        trace = propagate_pumps(cfg)
    result = evolve_jta(cfg, trace, snapshots=snapshots)
    return RunOutput(cfg=cfg, pump_trace=trace if keep_pump_trace else None, result=result)
