#!/usr/bin/env python3
"""Drive a collapse trajectory and probe its second variation with bumps.

For each requested alpha: build the symmetric collinear family, ride the
zero-energy frozen-shape collapse, count negative bump directions, and dump
the trajectory of a perturbed run with its asymptotic report.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from ncol import central, mcgehee, morse, spectral
from ncol.cli import _ALPHA_GRID, _POSITIVE_COUNT, _WIDTH


def run_one(alpha: float, bumps: int, width: float, outdir: Path) -> dict:
    cc = central.collinear3(1.0, 1.0, alpha)
    rep = spectral.smallest_eigenvalue(cc)
    traj = mcgehee.homothetic_oracle(cc, h=0.0, tau_max=morse.witness_horizon(bumps, width))
    wit = morse.morse_witnesses(traj, rep.eigvec, bumps, width)

    # perturbed run with measured asymptotics; the kick grows along the
    # collapse at rate c + sqrt(c^2 + mu1), so the horizon is capped before
    # the shape departs
    eps = 1e-6
    kick = np.zeros_like(cc.s0)
    kick[:, 1] = eps * np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    c = mcgehee.homothetic_decay_rate(cc)
    rate = c + np.sqrt(max(c**2 + rep.mu1, 0.0))
    tau_cap = min(8.0, np.log(0.02 / eps) / rate)
    state = mcgehee.homothetic_initial_state(cc, kick=kick)
    ptraj = mcgehee.integrate_el(state, cc.masses, alpha, tau_max=tau_cap,
                                 opts=mcgehee.IntegratorOptions(rtol=1e-11, max_step=0.05))
    ptraj.to_csv(outdir / f"trajectory_alpha{alpha}.csv")
    asym = mcgehee.asymptotic_report(ptraj, [cc])
    return {
        "alpha": alpha,
        "criterion_margin": rep.margin,
        "witnesses": wit.witnesses,
        "q_values": list(wit.q_values),
        "asymptotics": asym.to_dict(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    # the option types of `ncol morse`, so that a bad value is a usage error
    ap.add_argument("--alphas", type=_ALPHA_GRID, default="1.0,0.05")
    ap.add_argument("--bumps", type=_POSITIVE_COUNT, default=10)
    ap.add_argument("--width", type=_WIDTH, default=20.0)
    ap.add_argument("--outdir", type=Path, default=Path("out"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    results = [run_one(a, args.bumps, args.width, args.outdir) for a in args.alphas]
    path = args.outdir / "collapse_probe.json"
    path.write_text(json.dumps(results, indent=2) + "\n")
    for r in results:
        print(f"alpha={r['alpha']}: margin={r['criterion_margin']:.4f} "
              f"witnesses={r['witnesses']}/{args.bumps}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
