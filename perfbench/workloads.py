"""The three benchmark workloads: inputs generated from a seed, and the
command line each one runs.

Seed 0 gives the nominal inputs.  Any other seed draws the free inputs
from the ranges below; the grids, the point counts and the optimizer
settings never change.  So every seed asks the program for the same amount
of work, except on pair-optimize, where the optimizer's path, and with it
the count of source simulations, depends on the width offset.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Table-1 values the program's "table1" preset uses; tau_max is computed in
# the same order as taperfwm.config.tau_max_of so that the float is identical
T0_FWHM = 0.8e-12
LENGTH = 1.5e-2
L_W_P = 0.25e-2
TAU_MAX = T0_FWHM * LENGTH / L_W_P

STUDY = {"n_t": 128, "n_z": 400}
# criterion 1 uses n_z = 2000 (about 55 s on a 2-core machine); 200 keeps a
# round near 5 s, so about eight rounds fit in one 50 s run, at the same
# n_t = 512 that makes the JTA stepper dominate
HIGH = {"n_t": 512, "n_z": 200}
SWEEP_POINTS = 21
# STUDY with half its z steps: criterion 8's pair on the STUDY grid takes
# 25-30 s a round on a 2-core machine, a single round per 50 s run; this
# grid takes about 14 s, so three rounds give a median
PAIR = {"n_t": 128, "n_z": 200}

# free inputs: nominal value and the range other seeds draw from
REF_TAU_FRACTION = (0.5, (0.45, 0.55))        # tau / tau_max
SWEEP_TAPER = (0.25e-6, (0.22e-6, 0.28e-6))   # m
PAIR_TAPER = 0.1e-6                           # m
PAIR_WIDTH_OFFSET = (60e-9, (55e-9, 65e-9))   # m, second source only

NAMES = ("reference-high", "tau-sweep", "pair-optimize")


@dataclass
class Workload:
    name: str
    seed: int
    nominal: bool
    inputs: dict            # the free inputs, SI units
    configs: dict           # file name -> config document
    command: str            # taperfwm subcommand
    options: list           # its options after the config and output ones
    operations: int         # operations one round attempts
    jobs: int = 1           # worker processes the command starts

    def write_configs(self, directory: Path) -> list[Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, doc in self.configs.items():
            path = directory / name
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            paths.append(path)
        return paths

    def argv(self, config_paths: list[Path], out_dir: Path) -> list[str]:
        """The taperfwm command line of one round."""
        if self.command == "pair":
            configs = ["-c1", str(config_paths[0]), "-c2", str(config_paths[1])]
        else:
            configs = ["-c", str(config_paths[0])]
        return [self.command, *configs, "-o", str(out_dir), *self.options]


def sweep_jobs() -> int:
    """Worker processes for the sweep: two, never more than the cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _draw(rng, nominal_and_range, nominal: bool) -> float:
    value, (lo, hi) = nominal_and_range
    return value if nominal else float(rng.uniform(lo, hi))


def make(name: str, seed: int) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    nominal = seed == 0

    if name == "reference-high":
        frac = _draw(rng, REF_TAU_FRACTION, nominal)
        tau = frac * TAU_MAX
        cfg = {"defaults": "table1", "numerics": dict(HIGH),
               "geometry": {"taper_amplitude": 0.0}, "pump": {"tau": tau}}
        return Workload(name, seed, nominal, {"tau": tau, "tau_fraction": frac},
                        {"source.json": cfg}, "simulate", ["--dump-jsa"], 1)

    if name == "tau-sweep":
        taper = _draw(rng, SWEEP_TAPER, nominal)
        check_index = SWEEP_POINTS // 2 if nominal else int(rng.integers(SWEEP_POINTS))
        cfg = {"defaults": "table1", "numerics": dict(STUDY),
               "geometry": {"taper_amplitude": taper}}
        jobs = sweep_jobs()
        options = ["--param", "tau", "--from", "0", "--to", repr(TAU_MAX),
                   "--steps", str(SWEEP_POINTS), "--jobs", str(jobs)]
        return Workload(name, seed, nominal,
                        {"taper_amplitude": taper, "check_index": check_index},
                        {"source.json": cfg}, "sweep", options, SWEEP_POINTS, jobs)

    offset = _draw(rng, PAIR_WIDTH_OFFSET, nominal)
    cfg1 = {"defaults": "table1", "numerics": dict(PAIR),
            "geometry": {"taper_amplitude": PAIR_TAPER}}
    cfg2 = {"defaults": "table1", "numerics": dict(PAIR),
            "geometry": {"taper_amplitude": PAIR_TAPER, "width_offset": offset}}
    return Workload(name, seed, nominal, {"width_offset": offset},
                    {"source1.json": cfg1, "source2.json": cfg2},
                    "pair", ["--optimize", "--objective", "rhom"], 1)
