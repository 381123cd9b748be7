#!/usr/bin/env python3
"""Small-exponent family diagnostics over a tolerance sweep.

Builds the zero-normalized-energy family on the default alpha grid and tables
the localization pairs, the forcing infimum and the tail integrals for each
requested tolerance.
"""

import argparse
import math
from pathlib import Path

from ncol import central, weakforce
from ncol.cli import _ALPHA_GRID, _POSITIVE, _option_type, weakforce_csv

_EPS_LIST = _option_type("comma-separated positive finite numbers",
                         lambda text: tuple(float(v) for v in text.split(",")),
                         lambda values: all(math.isfinite(v) and v > 0.0 for v in values))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    # the option types of `ncol weakforce`, so that a bad value is a usage error
    ap.add_argument("--grid", type=_ALPHA_GRID, default=weakforce.DEFAULT_ALPHA_GRID)
    ap.add_argument("--eps", type=_EPS_LIST, default="0.5,0.2,0.1")
    ap.add_argument("--tau-max", type=_POSITIVE, default=weakforce.DEFAULT_TAU_MAX)
    ap.add_argument("--outdir", type=Path, default=Path("out"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    cc = central.collinear3(1.0, 1.0, args.grid[0])
    fam = weakforce.build_H_family(cc, alphas=args.grid, tau_max=args.tau_max)
    print("measured uniform collapse times:", fam.uniform_collapse())

    for eps in args.eps:
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
