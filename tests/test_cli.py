"""End-to-end command-line runs on small grids, exit-code policy."""

import csv
import json

import numpy as np
import pytest

from taperfwm.cli import main
from taperfwm.config import config_to_dict, table1_config, tau_max_of

FAST = {"n_t": 64, "n_z": 100}


@pytest.fixture()
def cfg_path(tmp_path):
    cfg = table1_config(numerics=FAST)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config_to_dict(cfg)))
    return p


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _crlf_lines(path):
    """The lines of a file in the one artifact CSV dialect, every one ended
    by CRLF."""
    raw = path.read_bytes()
    assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n")
    return raw.decode().splitlines()


def test_simulate_artifacts(cfg_path, tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "-c", str(cfg_path), "-o", str(out),
               "--dump-jta", "--dump-jsa", "--snapshots", "2", "--dump-pumps"])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert {"metrics.json", "xi_profile.csv", "final_jta.cjm1", "final_jsa.cjm1",
            "spectral_map.csv", "manifest.json"} <= names
    assert any(n.startswith("snapshot_000") for n in names)
    assert any(n.startswith("pumps_z") for n in names)
    manifest = json.loads((out / "manifest.json").read_text())
    listed = set(manifest["files"])
    assert listed == names - {"manifest.json"}
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 < metrics["xi"] < 1.0
    assert 0.0 < metrics["purity"] <= 1.0


def test_manifest_does_not_depend_on_the_output_directory(cfg_path, tmp_path):
    manifests = []
    for out in (tmp_path / "a", tmp_path / "a-longer-name" / "out"):
        assert main(["simulate", "-c", str(cfg_path), "-o", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["duration_s"]
        manifests.append(manifest)
    assert manifests[0] == manifests[1]


def test_simulate_dumps_every_requested_snapshot(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(cfg_path), "-o", str(out), "--dump-jta",
                 "--snapshots", "5"]) == 0
    names = sorted(p.name for p in out.glob("snapshot_*_jta.cjm1"))
    assert names == [f"snapshot_{k:03d}_jta.cjm1" for k in range(5)]
    assert len({r["z_over_L"] for r in _read_csv(out / "spectral_map.csv")}) == 5


def test_snapshot_jsas_are_built_once(cfg_path, tmp_path, monkeypatch):
    from taperfwm import cli, jta

    built = []
    real_jta_to_jsa = jta.jta_to_jsa

    def counted(phi):
        built.append(phi.z)
        return real_jta_to_jsa(phi)

    for module in (cli, jta):
        monkeypatch.setattr(module, "jta_to_jsa", counted)
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(cfg_path), "-o", str(out), "--dump-jsa",
                 "--snapshots", "4"]) == 0
    # four distinct states; the last snapshot is the final state, whose JSA
    # the metrics built
    assert len(built) == len(set(built)) == 4
    assert len(list(out.glob("snapshot_*_jsa.cjm1"))) == 4
    assert (out / "snapshot_003_jsa.cjm1").read_bytes() == (out / "final_jsa.cjm1").read_bytes()


def test_dump_pumps_releases_the_trace_before_the_metrics(cfg_path, tmp_path, monkeypatch):
    import gc
    import weakref

    from taperfwm import cli, simulate

    traces, alive = [], []
    real_run_source = cli.run_source
    real_compute_metrics = simulate.compute_metrics

    def run_source(cfg, **kw):
        out = real_run_source(cfg, **kw)
        traces.append(weakref.ref(out.pump_trace))
        return out

    def compute_metrics(result, cfg):
        gc.collect()
        alive.append(traces[0]() is not None)
        return real_compute_metrics(result, cfg)

    monkeypatch.setattr(cli, "run_source", run_source)
    monkeypatch.setattr(simulate, "compute_metrics", compute_metrics)
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(cfg_path), "-o", str(out), "--dump-pumps"]) == 0
    assert alive == [False]
    assert sorted(p.name for p in out.glob("pumps_z*.csv")) == ["pumps_z00000.csv",
                                                                "pumps_z00100.csv"]


@pytest.mark.parametrize("count", ["1", "-2", "102"])
def test_simulate_bad_snapshot_count_exits_2(cfg_path, tmp_path, count):
    assert main(["simulate", "-c", str(cfg_path), "-o", str(tmp_path / "out"),
                 "--snapshots", count]) == 2


def test_snapshot_count_is_not_a_config_key(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"numerics": {**FAST, "snapshot_count": 16}}))
    assert main(["simulate", "-c", str(p), "-o", str(tmp_path / "out")]) == 2


def test_simulate_deterministic(cfg_path, tmp_path):
    for d in ("a", "b"):
        assert main(["simulate", "-c", str(cfg_path), "-o", str(tmp_path / d)]) == 0
    a = (tmp_path / "a" / "metrics.json").read_bytes()
    b = (tmp_path / "b" / "metrics.json").read_bytes()
    assert a == b


def test_snapshots_change_no_other_output(cfg_path, tmp_path):
    assert main(["simulate", "-c", str(cfg_path), "-o", str(tmp_path / "none")]) == 0
    assert main(["simulate", "-c", str(cfg_path), "-o", str(tmp_path / "snaps"),
                 "--snapshots", "5"]) == 0
    for name in ("metrics.json", "xi_profile.csv"):
        assert (tmp_path / "none" / name).read_bytes() == (tmp_path / "snaps" / name).read_bytes()


def test_sweep_tau_monotone_signal_shift(cfg_path, tmp_path):
    tm = tau_max_of(table1_config())
    out = tmp_path / "sweep"
    rc = main(["sweep", "-c", str(cfg_path), "-o", str(out), "--param", "tau",
               "--from", str(0.1 * tm), "--to", str(0.9 * tm), "--steps", "7",
               "--jobs", "2"])
    assert rc == 0
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 7
    assert all(r["status"] == "ok" for r in rows)
    # moving the collision point downstream shifts the Signal wavelength in
    # one direction; on this coarse grid allow bin-scale wiggles
    dlam = np.array([float(r["dlam_s"]) for r in rows])
    span = dlam.max() - dlam.min()
    assert span > 1e-10  # the trend is resolved
    assert abs(dlam[-1] - dlam[0]) >= 0.6 * span
    assert np.all(np.diff(dlam) >= -0.1 * span)


def test_power_sweep_rows_equal_single_runs(cfg_path, tmp_path):
    from taperfwm import run_source
    from taperfwm.io import SWEEP_COLUMNS

    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(cfg_path), "-o", str(out), "--param", "avg_power",
                 "--from", "0.5e-3", "--to", "2e-3", "--steps", "3", "--jobs", "2"]) == 0
    rows = _read_csv(out / "sweep.csv")
    cfg = table1_config(numerics=FAST)
    powers = np.linspace(0.5e-3, 2e-3, 3)
    assert [r["value"] for r in rows] == [f"{p:.17g}" for p in powers]
    for row, power in zip(rows, powers):
        m = run_source(cfg.replace(pump={"avg_power": float(power)})).metrics.to_dict()
        assert row["status"] == "ok"
        assert {k: row[k] for k in SWEEP_COLUMNS[4:-1]} == {k: f"{m[k]:.17g}"
                                                             for k in SWEEP_COLUMNS[4:-1]}


def test_sweep_error_rows_do_not_abort(cfg_path, tmp_path):
    tm = tau_max_of(table1_config())
    out = tmp_path / "sweep"
    # last point exceeds tau_max -> validation error row, exit code 3
    rc = main(["sweep", "-c", str(cfg_path), "-o", str(out), "--param", "tau",
               "--from", str(0.5 * tm), "--to", str(1.5 * tm), "--steps", "3",
               "--jobs", "1"])
    assert rc == 3
    rows = _read_csv(out / "sweep.csv")
    assert [r["status"] for r in rows] == ["ok", "ok", "error"]
    assert rows[-1]["error"]


def test_sweep_metrics_failure_is_a_row(cfg_path, tmp_path):
    # zero pump power generates no pair, so the metrics refuse the point;
    # the sweep goes on
    out = tmp_path / "sweep"
    rc = main(["sweep", "-c", str(cfg_path), "-o", str(out), "--param", "avg_power",
               "--from", "0", "--to", "1e-3", "--steps", "3", "--jobs", "1"])
    assert rc == 3
    rows = _read_csv(out / "sweep.csv")
    assert [r["status"] for r in rows] == ["error", "ok", "ok"]
    assert rows[0]["error"] == "purity undefined for a zero amplitude"


def test_pair_identical_sources(cfg_path, tmp_path):
    out = tmp_path / "pair"
    rc = main(["pair", "-c1", str(cfg_path), "-c2", str(cfg_path), "-o", str(out)])
    assert rc == 0
    doc = json.loads((out / "pair.json").read_text())
    assert doc["raw"]["v_rhom"] == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < doc["raw"]["v_hhom"] <= 1.0


def test_pair_optimize(cfg_path, tmp_path):
    out = tmp_path / "pair"
    rc = main(["pair", "-c1", str(cfg_path), "-c2", str(cfg_path), "-o", str(out),
               "--optimize", "--objective", "rhom"])
    assert rc == 0
    doc = json.loads((out / "pair.json").read_text())
    tm = tau_max_of(table1_config())
    assert doc["optimized"]["v_rhom"] == pytest.approx(1.0, abs=1e-9)
    assert doc["optimized"]["tau1"] == pytest.approx(tm / 2, abs=tm / 200)
    assert doc["optimized"]["tau2"] == pytest.approx(tm / 2, abs=tm / 200)
    cands = _read_csv(out / "candidates.csv")
    assert len(cands) > 10
    assert _crlf_lines(out / "candidates.csv")[0] == "tau1,tau2,v"


def test_pair_of_one_config_simulates_each_delay_once(cfg_path, tmp_path, monkeypatch):
    from taperfwm import interference, simulate

    taus = []
    real_run_source = interference.run_source

    def counted(cfg, **kw):
        taus.append(cfg.pump.tau)
        return real_run_source(cfg, **kw)

    # one worker, so that every run is counted in this process
    monkeypatch.setattr(simulate, "worker_count", lambda: 1)
    monkeypatch.setattr(interference, "run_source", counted)
    assert main(["pair", "-c1", str(cfg_path), "-c2", str(cfg_path), "-o", str(tmp_path / "pair"),
                 "--optimize"]) == 0
    # the raw pair and the optimizer visit the 7 start delays alone: the
    # midpoint pair scores 1, which no pair beats; a cache per source ran
    # each of them twice
    assert len(taus) == len(set(taus)) == 7


def test_pair_optimize_reports_runs_and_rejects(cfg_path, tmp_path, monkeypatch):
    from taperfwm import interference, simulate

    calls = []
    real_run_source = interference.run_source

    def counted(cfg, **kw):
        calls.append(cfg)
        return real_run_source(cfg, **kw)

    monkeypatch.setattr(simulate, "worker_count", lambda: 1)
    monkeypatch.setattr(interference, "run_source", counted)
    # a wide width mismatch, so that some delay pairs need a shift that
    # wraps around the window
    cfg2 = table1_config(numerics=FAST, geometry={"width_offset": 60e-9})
    p2 = tmp_path / "cfg2.json"
    p2.write_text(json.dumps(config_to_dict(cfg2)))
    out = tmp_path / "pair"
    assert main(["pair", "-c1", str(cfg_path), "-c2", str(p2), "-o", str(out), "--optimize"]) == 0
    opt = json.loads((out / "pair.json").read_text())["optimized"]
    cands = _read_csv(out / "candidates.csv")
    assert opt["rejected"] == sum(1 for r in cands if float(r["v"]) == -np.inf) > 0
    # the raw pair's two runs come first, and the optimizer reuses them
    assert opt["source_runs"] == len(calls) - 2


def _leaky_pumps(monkeypatch):
    """A pump stepper whose loss the energy law exp(-alpha_p L) does not
    know of."""
    from taperfwm import pumps

    exponents = pumps.linear_exponents
    monkeypatch.setattr(pumps, "linear_exponents",
                        lambda cfg, grid, fields: exponents(cfg, grid, fields) - 0.5e-6)


def test_pump_energy_fault_exits_3(cfg_path, tmp_path, monkeypatch, capsys):
    _leaky_pumps(monkeypatch)
    assert main(["simulate", "-c", str(cfg_path), "-o", str(tmp_path / "out")]) == 3
    assert "pump energy departs" in capsys.readouterr().err


def test_sweep_pump_energy_fault_is_a_row(cfg_path, tmp_path, monkeypatch):
    _leaky_pumps(monkeypatch)
    tm = tau_max_of(table1_config())
    out = tmp_path / "sweep"
    rc = main(["sweep", "-c", str(cfg_path), "-o", str(out), "--param", "tau",
               "--from", str(0.4 * tm), "--to", str(0.6 * tm), "--steps", "2", "--jobs", "1"])
    assert rc == 3
    rows = _read_csv(out / "sweep.csv")
    assert [r["status"] for r in rows] == ["error", "error"]
    assert all("pump energy departs" in r["error"] for r in rows)


def test_oracle_erf_fit(cfg_path, tmp_path):
    out = tmp_path / "oracle"
    rc = main(["oracle", "-c", str(cfg_path), "-o", str(out)])
    assert rc == 0
    doc = json.loads((out / "erf_fit.json").read_text())
    assert doc["l_match_fit"] == pytest.approx(doc["l_match_analytic"], rel=0.1)
    assert doc["reliable"]
    overlay = _crlf_lines(out / "erf_overlay.csv")
    assert overlay[0] == "z_over_L,xi_solver,xi_erf"
    assert len(overlay) == 101 + 1


def test_convergence(cfg_path, tmp_path, capsys):
    out = tmp_path / "conv"
    rc = main(["convergence", "-c", str(cfg_path), "-o", str(out), "--doublings", "2"])
    assert rc == 0
    rows = _read_csv(out / "convergence.csv")
    assert [int(r["n_z"]) for r in rows] == [100, 200, 400]
    assert _crlf_lines(out / "convergence.csv")[0] == "n_t,n_z,xi,purity,dlam_s"
    rel = abs(float(rows[2]["xi"]) - float(rows[1]["xi"])) / float(rows[2]["xi"])
    assert rel < 1e-3
    printed = capsys.readouterr().out
    assert "changed xi by" in printed
    # the observed order log2(d[k-1] / d[k]) of each metric's changes
    for name in ("xi", "purity", "dlam_s"):
        (line,) = [ln for ln in printed.splitlines() if ln.startswith(f"observed order in n_z, {name}:")]
        d = [abs(float(rows[k + 1][name]) - float(rows[k][name])) for k in range(2)]
        assert float(line.split()[-1]) == pytest.approx(np.log2(d[0] / d[1]), abs=0.006)


def test_missing_config_exits_2(tmp_path):
    assert main(["simulate", "-c", str(tmp_path / "nope.json"), "-o", str(tmp_path / "o")]) == 2


def test_unknown_key_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"pump": {"tapper_amplitude": 1.0}}))
    assert main(["simulate", "-c", str(p), "-o", str(tmp_path / "o")]) == 2


def test_invalid_tau_exits_2(tmp_path):
    cfg = config_to_dict(table1_config(numerics=FAST))
    cfg["pump"]["tau"] = 99e-12
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["simulate", "-c", str(p), "-o", str(tmp_path / "o")]) == 2


def _fast_doc(pump=None, **numerics):
    return config_to_dict(table1_config(numerics={**FAST, **numerics}, pump=pump or {}))


# a config that is not an object of sections, a config value of the wrong
# kind, and a command-line value that no run can take: each is refused with
# exit 2 before any output or simulation
BAD_INPUTS = {
    "n_t-zero": ("simulate", {"numerics": {"n_t": 0}}, []),
    "n_t-float": ("simulate", {"numerics": {"n_t": 64.5}}, []),
    "n_t-string": ("simulate", {"numerics": {"n_t": "64"}}, []),
    "tau-string": ("simulate", {"pump": {"tau": "1e-12"}}, []),
    "t_window-number": ("simulate", {"numerics": {"t_window": 5}}, []),
    "t_window-three": ("simulate", {"numerics": {"t_window": [0, 1, 2]}}, []),
    "avg_power-infinity": ("simulate", {"defaults": "table1", "numerics": FAST,
                                        "pump": {"avg_power": float("inf")}}, []),
    "t_window-nan": ("simulate", {"defaults": "table1",
                                  "numerics": {**FAST, "t_window": [-4, float("nan")]}}, []),
    "steps-zero": ("sweep", _fast_doc(), ["--steps", "0"]),
    "steps-negative": ("sweep", _fast_doc(), ["--steps", "-1"]),
    "jobs-negative": ("sweep", _fast_doc(), ["--steps", "2", "--jobs", "-1"]),
    "pair-grids": ("pair", _fast_doc(), [_fast_doc(n_t=128)]),
    "pair-t0": ("pair", _fast_doc(), [_fast_doc(pump={"t0_fwhm": 1.2e-12})]),
    "top-level-number": ("simulate", 5, []),
    "top-level-list": ("simulate", [1], []),
    "top-level-null": ("simulate", None, []),
    "top-level-string": ("simulate", "x", []),
    "section-null": ("simulate", {"pump": None}, []),
    "defaults-null": ("simulate", {"defaults": None, "numerics": FAST}, []),
    "avg_power-past-float-range": ("simulate", {"defaults": "table1", "numerics": FAST,
                                                "pump": {"avg_power": 10**400}}, []),
    "n_t-past-float-range": ("simulate", {"numerics": {"n_t": 2**1100}}, []),
    "sweep-from-nan": ("sweep", _fast_doc(), ["--steps", "2", "--from", "nan"]),
    "sweep-to-inf": ("sweep", _fast_doc(), ["--steps", "2", "--to", "inf"]),
}


@pytest.mark.parametrize("command, doc, extra", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_before_any_run(tmp_path, capsys, command, doc, extra):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "-c", str(p)]
    elif command == "sweep":
        argv = ["sweep", "-c", str(p), "--param", "tau", "--from", "0", "--to", "1e-12", *extra]
    else:
        p2 = tmp_path / "cfg2.json"
        p2.write_text(json.dumps(extra[0]))
        argv = ["pair", "-c1", str(p), "-c2", str(p2)]
    assert main([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines()), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["config-is-a-directory", "config-not-utf-8",
                                  "integer-past-the-digit-limit", "output-is-a-file"])
def test_bad_file_exits_2(cfg_path, tmp_path, capsys, case):
    # bad inputs that BAD_INPUTS, a json.dumps document at a fresh path,
    # cannot express: each exits 2 like a bad value, and makes no output
    cfg, out = cfg_path, tmp_path / "out"
    if case == "config-is-a-directory":
        cfg = tmp_path
    elif case == "config-not-utf-8":
        cfg = tmp_path / "latin-1.json"
        cfg.write_bytes('{"defaults": "table1", "note": "\u00e9"}'.encode("latin-1"))
    elif case == "integer-past-the-digit-limit":
        cfg = tmp_path / "long.json"
        cfg.write_text('{"pump": {"avg_power": 1' + "0" * 5000 + "}}")
    else:
        out.write_text("")
    assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines()), err
    assert "Traceback" not in err
    assert out.is_file() if case == "output-is-a-file" else not out.exists()


def _window_cfg_path(tmp_path, t_window):
    cfg = config_to_dict(table1_config(numerics={**FAST, "t_window": t_window}))
    p = tmp_path / "window.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.mark.parametrize("command", ["simulate", "pair"])
def test_time_window_too_small_exits_2(tmp_path, capsys, command):
    # the span check passes, but pump 2 at T = 0 sits 1.5 pulse widths from
    # the window's lower edge
    p = _window_cfg_path(tmp_path, (-1.5, 14.5))
    configs = ["-c", str(p)] if command == "simulate" else ["-c1", str(p), "-c2", str(p)]
    assert main([command, *configs, "-o", str(tmp_path / "o")]) == 2
    assert "t_window too small" in capsys.readouterr().err


def test_sweep_time_window_error_is_a_row(tmp_path):
    # the window fits the pulse at tau_max/2 but not pump 1 at tau_max
    p = _window_cfg_path(tmp_path, (-4.0, 9.0))
    tm = tau_max_of(table1_config())
    out = tmp_path / "sweep"
    rc = main(["sweep", "-c", str(p), "-o", str(out), "--param", "tau",
               "--from", str(0.5 * tm), "--to", str(tm), "--steps", "2", "--jobs", "1"])
    assert rc == 3
    rows = _read_csv(out / "sweep.csv")
    assert [r["status"] for r in rows] == ["ok", "error"]
    assert "t_window too small" in rows[-1]["error"]


@pytest.mark.parametrize("doublings", ["0", "-1"])
def test_convergence_needs_a_doubling(cfg_path, tmp_path, monkeypatch, doublings):
    def no_run(*args, **kwargs):
        raise AssertionError("no source may run")

    monkeypatch.setattr("taperfwm.cli.run_source", no_run)
    out = tmp_path / "conv"
    assert main(["convergence", "-c", str(cfg_path), "-o", str(out),
                 "--doublings", doublings]) == 2
    assert not out.exists()


def test_mismatch_distribution_is_not_a_config_key(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"numerics": FAST, "mismatch": {
        "distribution": {"p1": 0.5, "p2": 0.5, "s": 0.0, "i": 0.0}}}))
    assert main(["simulate", "-c", str(p), "-o", str(tmp_path / "out")]) == 2


def test_simulate_reports_validation_warnings(tmp_path, capsys, monkeypatch):
    # {} is the reference configuration, whose tabulated l_w_s disagrees
    # with its velocities; the run itself goes on the fast grid
    from taperfwm import cli

    real_run_source = cli.run_source
    monkeypatch.setattr(cli, "run_source",
                        lambda cfg, **kw: real_run_source(cfg.replace(numerics=FAST), **kw))
    p = tmp_path / "cfg.json"
    p.write_text("{}")
    assert main(["simulate", "-c", str(p), "-o", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    assert "warning:" in err and "dispersion.l_w_s" in err


def test_sweep_workers_capped_at_points(cfg_path, tmp_path, monkeypatch):
    from taperfwm import simulate

    pools = []

    class InlinePool:
        """Records its worker count and runs the tasks in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def shutdown(self, wait, cancel_futures):
            pass

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simulate, "worker_count", lambda: 8)
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
    tm = tau_max_of(table1_config())
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(cfg_path), "-o", str(out), "--param", "tau",
                 "--from", str(0.4 * tm), "--to", str(0.6 * tm), "--steps", "3"]) == 0
    assert pools == [3]
    assert [r["status"] for r in _read_csv(out / "sweep.csv")] == ["ok"] * 3
