"""Run all three workloads one after the other and print one summary.

    python3 perfbench/all.py [--seed 0] [--seconds 50] [--trace 0]

Each workload runs through perfbench/run.py exactly as a single run would.
The summary lists every metric by name with its unit, the operations
attempted and failed, and the physics fingerprint (xi, purity, dlam_s) of
each workload; it is also written to .perfbench/summary-seed<seed>.json.
Seed 0, the default, regenerates the fingerprint at the nominal inputs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import NAMES  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    summary, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc = subprocess.run(cmd).returncode
        status = status or rc
        report = Path(".perfbench") / f"{name}-seed{args.seed}" / "report.json"
        if rc in (0, 1) and report.exists():
            summary[name] = json.loads(report.read_text())
        else:
            summary[name] = {"error": f"run.py exited with {rc}"}

    out = Path(".perfbench") / f"summary-seed{args.seed}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nsummary (seed {args.seed}, {args.seconds} s per workload), also in {out}")
    for name, rep in summary.items():
        if "error" in rep:
            print(f"{name}: {rep['error']}")
            continue
        print(f"{name}: attempted {rep['attempted']} failed {rep['failed']} "
              f"checks {'passed' if not rep['problems'] else 'FAILED'}")
        for metric, m in rep["metrics"].items():
            print(f"  {metric:<40} {m['value']:.6g} {m['unit']}")
        for key, value in rep["fingerprint"].items():
            print(f"  fingerprint {key:<28} {value:.15g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
