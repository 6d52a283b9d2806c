"""Command-line entry point: simulate, sweep, pair, oracle, convergence.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings

import numpy as np

from . import io
from .analytic import erf_xi_profile, fit_erf, sigma_z_analytic
from .config import ConfigError, SourceConfig, derive_run_params, load_config
from .interference import evaluate_pair, optimize_delays
from .jta import JointAmplitude, jta_to_jsa, snapshot_nodes
from .metrics import spectral_cumulative
from .pumps import PropagationError
from .simulate import WorkerPool, run_source

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the failures main maps to an exit code: EXIT_CONFIG for BAD_INPUT, a bad
# config or a path the file system refuses, EXIT_NUMERICAL for the rest; a
# sweep point that raises one becomes an error row
BAD_INPUT = (ConfigError, OSError)
RUN_FAILURES = (*BAD_INPUT, PropagationError, ValueError)

SWEEP_PARAMS = {
    "tau": ("pump", "tau"),
    "avg_power": ("pump", "avg_power"),
    "taper_amplitude": ("geometry", "taper_amplitude"),
    "width_offset": ("geometry", "width_offset"),
    "height_offset": ("geometry", "height_offset"),
}


def _with_param(cfg: SourceConfig, param: str, value: float) -> SourceConfig:
    section, key = SWEEP_PARAMS[param]
    return cfg.replace(**{section: {key: value}})


def _dump(writer: io.ArtifactWriter, name: str, phi: JointAmplitude):
    """<name>.cjm1 and its sidecar."""
    writer.add(io.write_cjm1(phi, writer.path(f"{name}.cjm1")))


def _dump_pumps(writer: io.ArtifactWriter, trace):
    """pumps_z00000.csv and pumps_z<n_z>.csv: the launch and end envelopes."""
    for e, k in enumerate((0, trace.n_z)):
        a1, a2 = trace.ends[:, e]
        writer.add(io.write_envelopes_csv(trace.grid.t_axis, a1, a2,
                                          writer.path(f"pumps_z{k:05d}.csv")))


def _simulate(writer: io.ArtifactWriter, cfg: SourceConfig, args):
    """Run cfg and write its artifacts; the run, its JTA and its JSA are
    freed on return, before the manifest's checksums are taken."""
    out = run_source(cfg, snapshots=args.snapshots)
    if args.dump_pumps:
        _dump_pumps(writer, out.pump_trace)
    writer.add(io.write_metrics_json(out.metrics, writer.path("metrics.json")))
    writer.add(io.write_xi_profile_csv(out.result.xi_profile, cfg.geometry.length,
                                       writer.path("xi_profile.csv")))
    final, snapshots = out.result.jta, out.result.snapshots
    if args.dump_jta:
        _dump(writer, "final_jta", final)
        for k, snap in enumerate(snapshots):
            _dump(writer, f"snapshot_{k:03d}_jta", snap)
    if snapshots:
        zs, w_axis, spec = spectral_cumulative(snapshots)
        writer.add(io.write_spectral_map_csv(zs, w_axis, spec, cfg.geometry.length,
                                             writer.path("spectral_map.csv")))
    if args.dump_jsa:
        # the metrics, the dumps and the map above were the final JTA's last
        # readers: its buffer takes the final JSA, which is also the last
        # snapshot's; each other snapshot's JSA is released after its dump
        jsa = jta_to_jsa(final, out=final.values)
        _dump(writer, "final_jsa", jsa)
        for k, snap in enumerate(snapshots):
            _dump(writer, f"snapshot_{k:03d}_jsa", jsa if snap is final else jta_to_jsa(snap))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    snapshot_nodes(args.snapshots, cfg.numerics.n_z)
    writer = io.ArtifactWriter("simulate", args.output, [cfg])
    _simulate(writer, cfg, args)
    writer.finish()
    return EXIT_OK


def _sweep_point(payload):
    index, cfg, param, value = payload
    try:
        metrics = run_source(_with_param(cfg, param, value)).metrics
        return io.sweep_row(index, param, value, metrics)
    except RUN_FAILURES as exc:
        return io.sweep_row(index, param, value, None, error=str(exc))


def cmd_sweep(args) -> int:
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if args.jobs < 0:
        raise ConfigError(f"--jobs must be >= 0, got {args.jobs}")
    if not np.isfinite([args.start, args.stop]).all():
        raise ConfigError(f"--from and --to must be finite, got {args.start} and {args.stop}")
    cfg = load_config(args.config)
    values = np.linspace(args.start, args.stop, args.steps)
    payloads = [(k, cfg, args.param, float(v)) for k, v in enumerate(values)]
    writer = io.ArtifactWriter("sweep", args.output, [cfg])
    with WorkerPool(len(payloads), args.jobs) as workers:
        rows = list(workers.map(_sweep_point, payloads))
    writer.add(io.write_sweep_csv(rows, writer.path("sweep.csv")))
    writer.finish()
    if any(r[3] == "error" for r in rows):
        return EXIT_NUMERICAL
    return EXIT_OK


def _pair(cfg1: SourceConfig, cfg2: SourceConfig, args) -> io.ArtifactWriter:
    """Run the pair, and the optimizer if asked, and write their artifacts;
    the store of runs is freed on return, before the manifest's checksums
    are taken."""
    runs = {}  # the raw pair's runs, reused by the optimizer
    # a pair that evaluate_pair refuses leaves no output directory
    raw = evaluate_pair(cfg1, cfg2, runs)
    writer = io.ArtifactWriter("pair", args.output, [cfg1, cfg2])
    doc = {
        "raw": {"v_rhom": raw.v_rhom, "v_hhom": raw.v_hhom,
                "shift_s": raw.shift_s, "shift_i": raw.shift_i},
    }
    if args.optimize:
        opt = optimize_delays(cfg1, cfg2, objective=args.objective, runs=runs)
        doc["optimized"] = {
            "objective": args.objective,
            "v_rhom": opt.v_rhom,
            "v_hhom": opt.v_hhom,
            "tau1": opt.optimal_tau1,
            "tau2": opt.optimal_tau2,
            "shift_s": opt.shift_s,
            "shift_i": opt.shift_i,
            "source_runs": opt.source_runs,
            "rejected": sum(1 for c in opt.candidates if c[2] == -np.inf),
        }
        writer.add(io.write_csv(writer.path("candidates.csv"), ["tau1", "tau2", "v"],
                                opt.candidates))
    writer.add(io.write_json(doc, writer.path("pair.json")))
    return writer


def cmd_pair(args) -> int:
    cfg1 = load_config(args.config1)
    cfg2 = load_config(args.config2)
    _pair(cfg1, cfg2, args).finish()
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    writer = io.ArtifactWriter("oracle", args.output, [cfg])
    out = run_source(cfg)
    rp = derive_run_params(cfg)
    loss = rp.alpha_m["s"] + rp.alpha_m["i"]
    fit = fit_erf(out.result.xi_profile, loss_rate=loss)
    L = cfg.geometry.length
    doc = {**dataclasses.asdict(fit), "l_match_analytic": rp.l_match,
           "sigma_z_analytic": sigma_z_analytic(cfg), "delta_z_over_L": fit.delta_z_fwhm / L}
    writer.add(io.write_json(doc, writer.path("erf_fit.json")))
    prof = out.result.xi_profile
    model = erf_xi_profile(cfg, prof.z_nodes, plateau=fit.plateau)
    writer.add(io.write_csv(writer.path("erf_overlay.csv"), ["z_over_L", "xi_solver", "xi_erf"],
                            ([z / L, a, b] for z, a, b in zip(prof.z_nodes, prof.xi, model))))
    writer.finish()
    return EXIT_OK


def _observed_orders(values) -> np.ndarray:
    """log2(d[k-1] / d[k]) of the successive changes d[k] = |v[k] - v[k-1]|;
    inf or nan where a change is zero."""
    d = np.abs(np.diff(values))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log2(d[:-1] / d[1:])


def cmd_convergence(args) -> int:
    if args.doublings < 1:
        raise ConfigError(f"--doublings must be >= 1, got {args.doublings}")
    cfg = load_config(args.config)
    writer = io.ArtifactWriter("convergence", args.output, [cfg])
    rows = []
    n_t, n_z = cfg.numerics.n_t, cfg.numerics.n_z
    for k in range(args.doublings + 1):
        c = cfg.replace(numerics={"n_t": n_t, "n_z": n_z * 2**k})
        m = run_source(c).metrics
        rows.append((n_t, n_z * 2**k, m.xi, m.purity, m.dlam_s))
    writer.add(io.write_csv(writer.path("convergence.csv"),
                            ["n_t", "n_z", "xi", "purity", "dlam_s"], rows))
    writer.finish()
    last_rel = abs(rows[-1][2] - rows[-2][2]) / abs(rows[-1][2])
    print(f"last n_z doubling changed xi by {last_rel:.2e}")
    if args.doublings >= 2:
        for col, name in ((2, "xi"), (3, "purity"), (4, "dlam_s")):
            orders = " ".join(f"{o:.2f}" for o in _observed_orders([r[col] for r in rows]))
            print(f"observed order in n_z, {name}: {orders}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="taperfwm",
                                description="Delayed-pump intermodal FWM pair-source simulator")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="single run: metrics and profiles")
    sim.add_argument("-c", "--config", required=True)
    sim.add_argument("-o", "--output", required=True)
    sim.add_argument("--dump-jta", action="store_true")
    sim.add_argument("--dump-jsa", action="store_true")
    sim.add_argument("--snapshots", type=int, default=0, metavar="N",
                     help="store N >= 2 evenly spaced states from z = 0 to L, dump them "
                          "with --dump-jta/--dump-jsa and write their spectral map")
    sim.add_argument("--dump-pumps", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="one-parameter sweep, one metrics row per point")
    sw.add_argument("-c", "--config", required=True)
    sw.add_argument("-o", "--output", required=True)
    sw.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS))
    sw.add_argument("--from", dest="start", type=float, required=True)
    sw.add_argument("--to", dest="stop", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.add_argument("--jobs", type=int, default=0,
                    help="worker processes, at most one per point (default: one per usable CPU)")
    sw.set_defaults(func=cmd_sweep)

    pr = sub.add_parser("pair", help="two-source interference study")
    pr.add_argument("-c1", "--config1", required=True)
    pr.add_argument("-c2", "--config2", required=True)
    pr.add_argument("-o", "--output", required=True)
    pr.add_argument("--optimize", action="store_true")
    pr.add_argument("--objective", choices=("rhom", "hhom"), default="rhom")
    pr.set_defaults(func=cmd_pair)

    orc = sub.add_parser("oracle", help="erf fit of the cumulative generation profile")
    orc.add_argument("-c", "--config", required=True)
    orc.add_argument("-o", "--output", required=True)
    orc.set_defaults(func=cmd_oracle)

    cv = sub.add_parser("convergence", help="xi/purity/dlam_s vs n_z doublings")
    cv.add_argument("-c", "--config", required=True)
    cv.add_argument("-o", "--output", required=True)
    cv.add_argument("--doublings", type=int, default=2,
                    help="n_z doublings, >= 1; from 2 on the observed order is printed")
    cv.set_defaults(func=cmd_convergence)
    return p


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # configuration warnings read as one line each, like the errors
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except RUN_FAILURES as exc:
            if isinstance(exc, BAD_INPUT):
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
