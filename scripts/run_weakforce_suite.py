#!/usr/bin/env python3
"""Small-exponent family diagnostics over a tolerance sweep.

Builds the zero-normalized-energy family on the default alpha grid and tables
the localization pairs, the forcing infimum and the tail integrals for each
requested tolerance.
"""

import argparse
from pathlib import Path

from ncol import central, weakforce
from ncol.cli import weakforce_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=str, default="0.5,0.3,0.2,0.1,0.05,0.02")
    ap.add_argument("--eps", type=str, default="0.5,0.2,0.1")
    ap.add_argument("--tau-max", type=float, default=12.0)
    ap.add_argument("--outdir", type=Path, default=Path("out"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    alphas = tuple(float(a) for a in args.grid.split(","))
    cc = central.collinear3(1.0, 1.0, alphas[0])
    fam = weakforce.build_H_family(cc, alphas=alphas, tau_max=args.tau_max)
    print("measured uniform collapse times:", fam.uniform_collapse())

    for eps in (float(e) for e in args.eps.split(",")):
        rep = weakforce.family_report(fam, eps)
        path = args.outdir / f"weakforce_eps{eps}.csv"
        path.write_text(weakforce_csv(rep) + "\n")
        e1, d = rep.esplode1, rep.disotto
        msg = f"eps={eps}: esplode1 satisfied={e1.satisfied}"
        if e1.satisfied:
            msg += (f" (tau_eps={e1.tau_eps:.3f}, alpha_eps={e1.alpha_eps});"
                    f" disotto inf={d.table['infimum']:.2f} req={d.table['required']:.2f};"
                    f" esplode2={rep.esplode2.satisfied}")
        print(msg, "->", path)


if __name__ == "__main__":
    main()
