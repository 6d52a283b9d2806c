"""Benchmark of taperfwm's three user workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reference-high --seed 1 --seconds 50 --trace 0

Each round runs the workload's ``taperfwm`` command in a fresh interpreter
(perfbench/child.py) and checks what it wrote.  Rounds repeat while the next
one still fits in --seconds.  With --trace 0 the last line of standard output
is a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run.  Everything else (inputs, spans, outputs of
the last round, and report.json with the metrics, the fingerprint and the
thread settings) is kept under .perfbench/<workload>-seed<seed>/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5       # set-up-only interpreters per run, besides the rounds
RUN_LIMIT_S = 170.0     # a run must end within 180 s
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Run:
    """Spawns the child interpreters of one benchmark run."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.src = root / "src"
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p)

    def child(self, configs, argv=None, trace_dir=None) -> dict:
        """One fresh interpreter: set-up, then the command when argv is given.

        Returns the child's measurements plus "setup_s" and "elapsed_s", or
        {"rc": code} when the child itself failed."""
        self.count += 1
        spec_path = self.work / f"child{self.count}.spec.json"
        result_path = self.work / f"child{self.count}.result.json"
        spec = {"src": str(self.src), "configs": [str(c) for c in configs],
                "argv": argv, "trace_dir": str(trace_dir) if trace_dir else None}
        spec_path.write_text(json.dumps(spec))
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path),
                                 str(result_path)], cwd=self.root, env=self.env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            rc = proc.wait(timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            print("error: round did not finish in time; stopping it", file=sys.stderr)
            rc = None
        finally:
            # the sweep's worker processes share the child's process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        elapsed = time.monotonic() - start
        if rc != 0:
            return {"rc": 1 if rc is None else rc, "elapsed_s": elapsed}
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - start
        result["elapsed_s"] = elapsed
        return result


def environment_report() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v, "unset (library default)") for v in THREAD_VARIABLES},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "fft": "numpy.fft (pocketfft, one thread per process)",
        "python": sys.version.split()[0],
    }


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "taperfwm" / "__init__.py").is_file():
        print(f"error: {root} holds no taperfwm sources (src/taperfwm); run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import checks

    wl = workloads.make(args.workload, args.seed)
    work = root / ".perfbench" / f"{wl.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    configs = wl.write_configs(work / "inputs")
    checker = checks.Checker(wl, configs)
    run = Run(root, work)

    # the first interpreter in a fresh checkout compiles bytecode: not timed
    run.child(configs)

    attempted = failed = 0
    problems = []
    fingerprint = {}
    rounds = []

    def one_round(traced: bool) -> dict:
        nonlocal attempted, failed, fingerprint
        k = len(rounds)
        out = work / f"round{k}"
        trace_dir = work / f"round{k}-trace" if traced else None
        r = run.child(configs, wl.argv(configs, out), trace_dir)
        r["traced"] = traced
        r["trace_dir"] = trace_dir
        rounds.append(r)
        attempted += wl.operations
        bad = checker.failed_operations(out, r["rc"]) if out.exists() else wl.operations
        failed += bad
        # a round whose command produced results is timed, even when some
        # of its sweep points failed: its time is still the time to result
        r["completed"] = "wall_s" in r and bad < wl.operations
        if r["completed"]:
            errors, fingerprint = checker.check(out)
            problems.extend(f"round {k}: {e}" for e in errors)
        r["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) \
            if out.exists() else 0
        if k > 0:
            shutil.rmtree(work / f"round{k - 1}", ignore_errors=True)
        return r

    def budget_left() -> bool:
        spent = sum(r["elapsed_s"] for r in rounds)
        typical = median([r["elapsed_s"] for r in rounds])
        return spent + typical <= args.seconds and \
            time.monotonic() - run.started + 2 * typical < RUN_LIMIT_S

    # a traced run alternates untraced and traced rounds, so that both
    # medians behind trace.overhead_s see the machine in the same state
    one_round(traced=False)
    if args.trace:
        one_round(traced=True)
    while budget_left():
        one_round(traced=bool(args.trace) and not rounds[-1]["traced"])

    extra = [run.child(configs) for _ in range(SETUP_SAMPLES)]
    children = [r for r in rounds + extra if "ready" in r]
    timed = [r for r in rounds if r["completed"] and not r["traced"]]

    env = environment_report()
    print(f"workload {wl.name}  seed {wl.seed}{' (nominal)' if wl.nominal else ''}  "
          f"inputs {json.dumps(wl.inputs)}")
    print(f"command  taperfwm {' '.join(wl.argv(configs, work / 'roundN'))}")
    print(f"environment {json.dumps(env)}")
    print(f"rounds {len(rounds)} ({sum(r['traced'] for r in rounds)} traced), "
          f"{len(children)} set-up samples, {args.seconds:g} s budget")
    print(f"operations attempted {attempted} failed {failed}")
    print(f"fingerprint {checks.fingerprint_line(fingerprint)}  (reference only)")
    for p in problems:
        print(f"check FAILED {p}")
    if not problems:
        print("checks passed")

    if args.trace:
        metrics = traced_metrics(wl, rounds, children, work)
    else:
        metrics = {
            "setup_s": (median([r["setup_s"] for r in children]), "s"),
            "wall_s": (median([r["wall_s"] for r in timed]), "s"),
            "peak_rss_mb": (max((r["peak_rss_mb"] for r in timed), default=0.0), "MB"),
        }
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")

    ok = not problems and bool(timed)
    report = {"workload": wl.name, "seed": wl.seed, "nominal": wl.nominal, "inputs": wl.inputs,
              "environment": env, "rounds": len(rounds), "attempted": attempted,
              "failed": failed, "problems": problems, "fingerprint": fingerprint,
              "samples": {"setup_s": [r["setup_s"] for r in children],
                          "wall_s": [r.get("wall_s") for r in rounds],
                          "traced": [r["traced"] for r in rounds]},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if ok else 1


def traced_metrics(wl, rounds, children, work: Path) -> dict:
    import tracing

    untraced = [r for r in rounds if r["completed"] and not r["traced"]]
    traced = [r for r in rounds if r["completed"] and r["traced"]]
    per_round = []
    with open(work / "spans.jsonl", "w") as fh:
        for k, r in enumerate(traced):
            spans = [json.loads(line) for line in
                     (r["trace_dir"] / "spans.jsonl").read_text().splitlines()]
            for s in spans:
                fh.write(json.dumps({"round": k, **s}) + "\n")
            per_round.append(tracing.layer_metrics(spans, wl.jobs, r["wall_s"]))
    (work / "layers.json").write_text(json.dumps(per_round, indent=2) + "\n")

    values = {name: median([m[name] for m in per_round]) for name in per_round[0]} \
        if per_round else {}
    values.update({
        "package.import_s": median([r["import_s"] for r in children]),
        "config.load_s": median([r["load_s"] for r in children]),
        "io.bytes_written": median([r["bytes_written"] for r in untraced]),
        "run.cpu_s": median([r["cpu_s"] for r in untraced]),
        "trace.overhead_s": median([r["wall_s"] for r in traced])
        - median([r["wall_s"] for r in untraced]),
    })
    return {name: (values.get(name, 0.0), unit) for name, unit in tracing.PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
