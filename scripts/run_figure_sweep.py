#!/usr/bin/env python3
"""Reproduce the criterion-comparison sweep and the family thresholds.

Writes the two-criteria CSV (same format as `ncol figure1`) plus a JSON
summary of the crossing points, ready for plotting.
"""

import argparse
import json
from pathlib import Path

from ncol import cli, spectral
from ncol.cli import _COUNT


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    # the option type of `ncol figure1`, so that a bad value is a usage error
    ap.add_argument("--steps", type=_COUNT, default=400)
    ap.add_argument("--outdir", type=Path, default=Path("out"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    csv_path = args.outdir / "figure_sweep.csv"
    # cli.main has reported any failure on stderr; exit with its code
    rc = cli.main(["figure1", "--steps", str(args.steps), "--out", str(csv_path)])
    if rc:
        raise SystemExit(rc)

    th_coll = spectral.collinear_threshold()
    thresholds = {"collinear3-equal": th_coll.alpha_star}
    for n in (4, 6, 8, 12, 24, 64):
        thresholds[f"ngon-{n}"] = spectral.ngon_threshold(n).alpha_star
    summary = args.outdir / "thresholds.json"
    summary.write_text(json.dumps(thresholds, indent=2) + "\n")
    print(f"wrote {csv_path} ({args.steps} alphas x 2 criteria) and {summary}")
    for name, val in thresholds.items():
        print(f"  {name}: alpha* = {val:.9f}")


if __name__ == "__main__":
    main()
