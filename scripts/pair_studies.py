#!/usr/bin/env python3
"""Two-source interference under fabrication mismatch.

Sweeps a height or width offset applied to the second source, reporting
raw (delay tau_max/2 on both) and delay-optimized RHOM/HHOM visibilities.
"""

import argparse
import csv
from pathlib import Path

from taperfwm import table1_config
from taperfwm.interference import SourceCache, evaluate_pair, optimize_delays


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-o", "--output", default="out/pairs", type=Path)
    ap.add_argument("--error", choices=("height", "width"), default="height")
    ap.add_argument("--offsets-nm", type=float, nargs="+",
                    default=[0.0, 1.0, 2.0, 3.0, 4.3])
    ap.add_argument("--taper-um", type=float, default=0.25)
    ap.add_argument("--n-t", type=int, default=256)
    ap.add_argument("--n-z", type=int, default=400)
    ap.add_argument("--skip-optimize", action="store_true")
    args = ap.parse_args()
    args.output.mkdir(parents=True, exist_ok=True)

    key = "height_offset" if args.error == "height" else "width_offset"
    cfg1 = table1_config(numerics={"n_t": args.n_t, "n_z": args.n_z},
                         geometry={"taper_amplitude": args.taper_um * 1e-6})
    src1 = SourceCache(cfg1)  # source 1 is the same at every offset
    path = args.output / f"{args.error}_error.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["offset_nm", "raw_v_rhom", "raw_v_hhom",
                    "opt_v_rhom", "opt_v_hhom", "opt_tau1_ps", "opt_tau2_ps"])
        for off in args.offsets_nm:
            cfg2 = cfg1.replace(geometry={key: off * 1e-9})
            sources = (src1, SourceCache(cfg2))
            raw = evaluate_pair(cfg1, cfg2, sources)
            row = [f"{off:.2f}", f"{raw.v_rhom:.6f}", f"{raw.v_hhom:.6f}"]
            if args.skip_optimize:
                row += ["", "", "", ""]
            else:
                opt = optimize_delays(cfg1, cfg2, sources=sources)
                row += [f"{opt.v_rhom:.6f}", f"{opt.v_hhom:.6f}",
                        f"{opt.optimal_tau1 * 1e12:.3f}", f"{opt.optimal_tau2 * 1e12:.3f}"]
            w.writerow(row)
            print(f"{args.error} offset {off:.2f} nm: raw rhom={raw.v_rhom:.4f}"
                  + ("" if args.skip_optimize else f", opt rhom={row[3]}"))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
