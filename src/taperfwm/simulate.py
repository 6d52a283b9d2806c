"""Single-source run orchestration."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .config import SourceConfig, validate_config
from .jta import SimulationResult, evolve_jta
from .metrics import MetricsReport, compute_metrics
from .pumps import PumpTrace, initial_envelopes, propagate_pumps


class ValidationFailure(ValueError):
    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = errors

    def __reduce__(self):
        # unpickling (a run in a worker process) rebuilds from the list,
        # not from the joined message
        return type(self), (self.errors,)


@dataclass
class RunOutput:
    cfg: SourceConfig
    pump_trace: PumpTrace | None
    result: SimulationResult

    @cached_property
    def metrics(self) -> MetricsReport:
        """Computed on first access, so runs that need only the JTA skip it."""
        return compute_metrics(self.result, self.cfg)


def run_source(cfg: SourceConfig, keep_pump_trace: bool = False, snapshots: int = 0) -> RunOutput:
    """Validate, propagate the pumps and evolve the JTA, storing `snapshots`
    evenly spaced states; the metrics follow on first access."""
    rep = validate_config(cfg)
    if not rep.ok:
        raise ValidationFailure(rep.errors)
    env0 = initial_envelopes(cfg)
    trace = propagate_pumps(cfg, env0)
    result = evolve_jta(cfg, trace, snapshots=snapshots)
    return RunOutput(cfg=cfg, pump_trace=trace if keep_pump_trace else None, result=result)
