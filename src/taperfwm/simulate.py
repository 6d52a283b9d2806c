"""Single-source run orchestration."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .config import SourceConfig, validate_config
from .jta import SimulationResult, evolve_jta, worker_count
from .metrics import MetricsReport, compute_metrics
from .pumps import PumpTrace, propagate_pumps


@dataclass
class RunOutput:
    cfg: SourceConfig
    pump_trace: PumpTrace
    result: SimulationResult

    @cached_property
    def metrics(self) -> MetricsReport:
        """Computed on first access, so runs that need only the JTA skip it."""
        return compute_metrics(self.result, self.cfg)


class WorkerPool:
    """The workers of `tasks` independent runs: min(jobs or worker_count(),
    tasks) processes, or this process alone below 2.  As a context manager
    it joins the pool when the block ends, also when it raises."""

    def __init__(self, tasks: int = 1, jobs: int = 0):
        self.jobs = max(1, min(jobs or worker_count(), tasks))
        self.pool = None
        if self.jobs > 1:
            # imported here, so that a process that starts no worker never
            # loads multiprocessing (see jta._thread_count)
            from concurrent.futures import ProcessPoolExecutor

            self.pool = ProcessPoolExecutor(max_workers=self.jobs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)

    def map(self, fn, items):
        return map(fn, items) if self.pool is None else self.pool.map(fn, items)


def run_source(cfg: SourceConfig, snapshots: int = 0) -> RunOutput:
    """Validate and evolve the JTA, storing `snapshots` evenly spaced
    states, with the pumps stepped inside the JTA loop; the metrics follow
    on first access.  The run's pump trace keeps no midpoints, and its ends
    are filled once the run is done."""
    validate_config(cfg)
    trace = propagate_pumps(cfg)
    result = evolve_jta(cfg, trace, snapshots=snapshots)
    return RunOutput(cfg=cfg, pump_trace=trace, result=result)
