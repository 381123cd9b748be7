"""Command-line front end: family construction, sweeps, simulation, probes.

Exit codes: 0 success, 1 usage or I/O error, 2 numeric invariant failure, so
CI can gate on mathematical regressions.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import central, mcgehee, morse, nbody, spectral, weakforce
from .errors import InvalidMass, InvalidN, NcolError, NonCollapsing

SWEEP_HEADER = "alpha,family,N,lhs,rhs,holds,mu1,margin"
WEAKFORCE_HEADER = "alpha,tau_eps,inf_disotto,tail_integral,phi_min"
# the most vertices --n may ask for: `spectral --family ngon --n 1024`, with
# its 523,776 pairs and 3,068 eigenvectors of 3,072 coordinates, peaks near 0.28 GB
MAX_N = 1024


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone (`ncol figure1 | head`): drop the rest of the
        # output, keep the flush at exit quiet, and let the command finish
        # with its own exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _option_type(what, parse, ok):
    """An argparse type: parse(text) if ok holds of it, else a usage error
    saying that the value must be what.  parse and ok may also reject a value
    by raising ValueError."""
    def convert(text):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return convert


# nbody.validate_alpha returns an exponent in (0, 2), which is true, or raises
_ALPHA = _option_type("an exponent in (0, 2)", float, nbody.validate_alpha)
_ALPHA_GRID = _option_type("comma-separated exponents in (0, 2)",
                           lambda text: tuple(float(v) for v in text.split(",")),
                           lambda alphas: all(map(nbody.validate_alpha, alphas)))
_POSITIVE = _option_type("positive and finite", float,
                         lambda v: math.isfinite(v) and v > 0.0)
_FINITE = _option_type("finite", float, math.isfinite)
_COUNT = _option_type("a non-negative integer", int, lambda v: v >= 0)
_POSITIVE_COUNT = _option_type("a positive integer", int, lambda v: v > 0)
_FRACTION = _option_type("in [0, 1)", float, lambda v: 0.0 <= v < 1.0)
_WIDTH = _option_type(f"finite and above {morse.BUMP_START:g}", float,
                      lambda v: math.isfinite(v) and v > morse.BUMP_START)
_N = _option_type(f"an integer from 2 to {MAX_N}", int, lambda v: 2 <= v <= MAX_N)
_N_HELP = f"polygon vertices, at most {MAX_N}, which bounds the memory of a run"


def _build_family(args) -> central.CentralConfiguration:
    alpha = args.alpha if args.alpha is not None else 1.0
    if args.family == "collinear3":
        return central.collinear3(args.m1, args.m1, alpha)
    if args.family == "collinear3-m2":
        return central.collinear3(args.m1, args.m2, alpha)
    if args.family == "ngon":
        return central.ngon(args.n, alpha)
    # "file", the last of the parser's choices
    if not args.file:
        raise UsageError("--family file requires --file")
    with open(args.file) as fh:
        text = fh.read()
    try:
        x, m, file_alpha, _ = nbody.config_from_json(text)
    except json.JSONDecodeError:
        raise
    except (KeyError, TypeError, ValueError, InvalidMass) as exc:
        raise UsageError(f"--file {args.file} is not a configuration: {exc!r}") from exc
    # the file's own alpha wins unless one was passed explicitly
    return central.solve_central(x, m, args.alpha if args.alpha is not None
                                 else file_alpha)


def _family_args(sub):
    sub.add_argument("--family", required=True,
                     choices=["collinear3", "collinear3-m2", "ngon", "file"])
    sub.add_argument("--alpha", type=_ALPHA, default=None)
    sub.add_argument("--m1", type=_POSITIVE, default=1.0)
    sub.add_argument("--m2", type=_POSITIVE, default=1.0)
    sub.add_argument("--n", type=_N, default=4, help=_N_HELP)
    sub.add_argument("--file", type=str, default=None)
    sub.add_argument("--out", type=str, default=None)


def cmd_central(args) -> int:
    # every family is built through central's centrality gate, which raises
    # NotCentral (exit 2) on a residual above it
    _emit(_build_family(args).to_json(), args.out)
    return 0


def _out_of_plane(cc: central.CentralConfiguration, dim) -> central.CentralConfiguration:
    """cc embedded in 3d for --dim 3, and a polygon also when dim is None: its
    bottom eigenvector leaves the plane."""
    if dim == 3 or (dim is None and cc.family == "ngon"):
        return central.embed_in_3d(cc)
    return cc


def cmd_spectral(args) -> int:
    rep = spectral.smallest_eigenvalue(_out_of_plane(_build_family(args), args.dim))
    _emit(json.dumps(rep.to_dict(), indent=2), args.out)
    return 0


def cmd_threshold(args) -> int:
    if args.family == "collinear3":
        res = spectral.collinear_threshold()
    else:  # "ngon", the parser's other choice
        try:
            res = spectral.ngon_threshold(args.n)
        except InvalidN as exc:
            raise UsageError(f"--n: {exc}") from exc
    payload = {"family": res.family, "alpha_star": res.alpha_star,
               "bracket": list(res.bracket), "residual": res.residual}
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _run_sweep(alphas) -> str:
    # the equal-mass collinear shape is central at every alpha; spectral_sweep
    # moves it to all of them at once and checks the residual at each
    sweep = spectral.spectral_sweep(central.collinear3(1.0, 1.0, 1.0), alphas)
    lhs_eq, rhs, holds_eq = spectral.collinear_equal_condition(sweep.alphas)
    lhs_b, _, holds_b = spectral.collinear_B_eigen_condition(sweep.alphas)
    lines = [SWEEP_HEADER]
    # Python floats format as numpy's scalars do, in less time
    columns = (sweep.alphas, lhs_eq, rhs, holds_eq, lhs_b, holds_b, sweep.mu1, sweep.margin)
    for a, le, r, he, lb, hb, mu1, margin in zip(*(c.tolist() for c in columns)):
        tail = f"{mu1:.12g},{margin:.12g}"
        lines.append(f"{a:.12g},collinear3-equal,3,{le:.12g},{r:.12g},{int(he)},{tail}")
        lines.append(f"{a:.12g},collinear3-B,3,{lb:.12g},{r:.12g},{int(hb)},{tail}")
    return "\n".join(lines)


def cmd_sweep(args) -> int:
    if args.steps < 1 or not (spectral.ALPHA_FLOOR <= args.alpha_min < args.alpha_max < 2.0):
        raise UsageError(f"empty or invalid alpha range (alpha floor {spectral.ALPHA_FLOOR:g})")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.steps)
    _emit(_run_sweep(alphas), args.out)
    return 0


def cmd_figure1(args) -> int:
    alphas = np.linspace(0.05, 2.0 - 1e-9, args.steps)
    _emit(_run_sweep(alphas), args.out)
    return 0


def cmd_simulate(args) -> int:
    cc = _build_family(args)
    # an energy with no collapse at all is a numeric failure (exit 2), a
    # perturbation too large for it a usage error (exit 1)
    state = mcgehee.homothetic_initial_state(cc, h=args.energy)
    if args.perturb:
        rng = np.random.default_rng(args.seed)
        kick = nbody.tangent_part(cc.s0, cc.masses, rng.standard_normal(cc.s0.shape))
        kick *= args.perturb / max(np.linalg.norm(kick), 1e-300)
        try:
            state = mcgehee.homothetic_initial_state(cc, h=args.energy, kick=kick)
        except NonCollapsing as exc:
            raise UsageError("perturbation too large for the requested energy") from exc
    opts = mcgehee.IntegratorOptions(rtol=args.rtol, max_step=args.max_step,
                                     rho_min=args.rho_min)
    traj = mcgehee.integrate_el(state, cc.masses, cc.alpha, tau_max=args.tau_max, opts=opts)
    traj.to_csv(args.out or "trajectory.csv")
    tol = 1e-8 * (1.0 + abs(traj.h))
    trusted = traj.trusted_prefix(tol)
    h_tr = traj.energy_trace()
    drift = float(np.max(np.abs(h_tr[trusted] - traj.h))) if trusted.any() else float("nan")
    lam2_ok = bool(np.all(traj.lambda2_trace() >= -1e-12))
    print(f"samples={traj.n_samples} tau_end={traj.tau_end:.4g} "
          f"energy_drift={drift:.3e} (over {int(trusted.sum())} trusted samples)",
          file=sys.stderr)
    if not (trusted.any() and drift <= tol and lam2_ok):
        return 2
    return 0


def cmd_morse(args) -> int:
    width = args.width
    # the bumps need the frozen-shape oracle out to tau = 2 (bumps + 1) width;
    # the test takes --bumps as the integer it is, which may not fit a float
    if args.bumps + 1 > mcgehee.ORACLE_MAX_TAU / (2.0 * width):
        raise UsageError(f"--bumps {args.bumps} with --width {width:g} reach past tau = "
                         f"{mcgehee.ORACLE_MAX_TAU:g}, the oracle's cap of "
                         f"{mcgehee.ORACLE_MAX_SAMPLES} samples")
    cc = _out_of_plane(_build_family(args), None)
    rep = spectral.smallest_eigenvalue(cc)
    traj = mcgehee.homothetic_oracle(cc, h=0.0, tau_max=morse.witness_horizon(args.bumps, width))
    wrep = morse.morse_witnesses(traj, rep.eigvec, args.bumps, width, args.flat_fraction)
    _emit(json.dumps(wrep.to_dict(), indent=2), args.out)
    print(f"witnesses={wrep.witnesses} of {args.bumps}; criterion margin={rep.margin:.6g}",
          file=sys.stderr)
    return 0


def weakforce_csv(report: weakforce.FamilyReport) -> str:
    """The weakforce CSV of a family report, without a final newline."""
    return "\n".join([WEAKFORCE_HEADER] + [",".join(f"{v:.10g}" for v in row)
                                           for row in report.rows])


def cmd_weakforce(args) -> int:
    cc = central.collinear3(args.m1, args.m2, args.grid[0])
    fam = weakforce.build_H_family(cc, alphas=args.grid, tau_max=args.tau_max)
    rep = weakforce.family_report(fam, args.eps)
    _emit(weakforce_csv(rep), args.out)
    e1, e2 = rep.esplode1, rep.esplode2
    print(f"esplode1={e1.satisfied} esplode2={e2.satisfied} eps={args.eps}", file=sys.stderr)
    # the Disotto check exists where esplode1 holds
    return 0 if e1.satisfied and e2.satisfied and rep.disotto.satisfied else 2


@functools.cache
def build_parser() -> _Parser:
    """The ncol parser, built on the first call and shared by every later one.

    It names no command function: main looks up cmd_<command> in this module
    at call time, so a function replaced after the parser was built (a test's
    monkeypatch, a tracer's wrapper) is the one that runs."""
    p = _Parser(prog="ncol", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("central", help="construct or solve a central configuration")
    _family_args(s)

    s = sub.add_parser("spectral", help="smallest constrained eigenvalue and criterion margin")
    _family_args(s)
    s.add_argument("--dim", type=int, default=None, choices=[2, 3])

    s = sub.add_parser("threshold", help="criterion crossing in alpha for a family")
    s.add_argument("--family", required=True, choices=["collinear3", "ngon"])
    s.add_argument("--n", type=_N, default=4, help=_N_HELP)
    s.add_argument("--out", type=str, default=None)

    s = sub.add_parser("sweep", help="criterion sweep over an alpha range (CSV)")
    s.add_argument("--alpha-min", type=float, required=True)
    s.add_argument("--alpha-max", type=float, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--out", type=str, default=None)

    s = sub.add_parser("figure1", help="preset sweep on [0.05, 2] comparing both criteria")
    s.add_argument("--steps", type=_COUNT, default=400)
    s.add_argument("--out", type=str, default=None)

    s = sub.add_parser("simulate", help="integrate the collision flow and dump a CSV")
    _family_args(s)
    s.add_argument("--energy", type=_FINITE, default=0.0)
    s.add_argument("--tau-max", type=_POSITIVE, default=5.0)
    s.add_argument("--perturb", type=_FINITE, default=0.0)
    s.add_argument("--seed", type=_COUNT, default=0)
    s.add_argument("--rtol", type=_POSITIVE, default=1e-10)
    s.add_argument("--max-step", type=_POSITIVE, default=0.1,
                   help="bound on the tau gap between CSV rows, which lie at most "
                        "max-step/2 apart; the tolerance alone sets the integrator's steps")
    s.add_argument("--rho-min", type=_POSITIVE, default=1e-8)

    s = sub.add_parser("morse", help="bump-probe witness counts along the collapse")
    _family_args(s)
    s.add_argument("--bumps", type=_POSITIVE_COUNT, default=10)
    s.add_argument("--width", type=_WIDTH, default=20.0)
    s.add_argument("--flat-fraction", type=_FRACTION, default=0.8)

    s = sub.add_parser("weakforce", help="small-alpha family diagnostics (CSV)")
    s.add_argument("--grid", type=_ALPHA_GRID, default="0.5,0.3,0.2,0.1,0.05,0.02")
    s.add_argument("--eps", type=_POSITIVE, default=0.1)
    s.add_argument("--tau-max", type=_POSITIVE, default=12.0)
    s.add_argument("--m1", type=_POSITIVE, default=1.0)
    s.add_argument("--m2", type=_POSITIVE, default=1.0)
    s.add_argument("--out", type=str, default=None)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except (NcolError, AssertionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
