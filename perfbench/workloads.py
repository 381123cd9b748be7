"""The three benchmark workloads and the reference checks on their outputs.

Every pass is a fixed list of operations.  Each operation runs one `ncol`
command in process (through `cli.main`) or one library call, then checks its
outputs against the references under `ref/`.  An operation has one outcome
per sub-operation (on `probe`, one per bump):

* ok;
* failed: a non-zero exit, a raised exception or a non-finite value;
* wrong: a finite output outside its reference tolerance.  Wrong outputs are
  failures too, and they also make the run incorrect.

The ncol modules are always reached through their module attributes, so the
span tracer sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re

import numpy as np

from ncol import central, cli, mcgehee, morse, spectral

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")

# Tolerances are relative unless named otherwise.  They admit a change of
# summation order or of an equivalent linear-algebra route (a QR basis, a
# batched kernel), never a different answer.
RTOL = 1e-8
ALPHA_STAR_ATOL = 1e-10
ASYMPTOTIC_RTOL = 1e-6
MIXED_ATOL = 1e-10

THRESHOLD_NGONS = (4, 6, 8, 12, 24, 64)
PROBE_FAMILIES = (
    ("collinear3-a1", ["--family", "collinear3", "--alpha", "1"]),
    ("collinear3-a0.05", ["--family", "collinear3", "--alpha", "0.05"]),
    ("ngon4", ["--family", "ngon", "--n", "4", "--alpha", "1"]),
    ("ngon8", ["--family", "ngon", "--n", "8", "--alpha", "1"]),
)


def load_refs() -> dict:
    with open(os.path.join(REF_DIR, "refs.json")) as fh:
        refs = json.load(fh)
    for name in ("figure1", "weakforce"):
        with open(os.path.join(REF_DIR, f"{name}.csv")) as fh:
            refs[name] = fh.read()
    return refs


# ---------------------------------------------------------------------------
# outcome helpers: each returns None when the value passes


def failed(msg: str) -> str:
    return "failed: " + msg


def wrong(msg: str) -> str:
    return "wrong: " + msg


def close(name, got, want, rtol=RTOL, atol=0.0):
    got = float(got)
    if math.isnan(want):
        return None if math.isnan(got) else wrong(f"{name} = {got!r}, reference nan")
    if not math.isfinite(got):
        return failed(f"{name} is {got}")
    if abs(got - want) > atol + rtol * abs(want):
        return wrong(f"{name} = {got!r}, reference {want!r}")
    return None


def equal(name, got, want):
    return None if got == want else wrong(f"{name} = {got!r}, reference {want!r}")


def exit_ok(name, rc, err):
    return None if rc == 0 else failed(f"{name} exited {rc}: {err.strip()[-200:]}")


def worst(*outcomes):
    """One outcome for an operation: a failure outranks a wrong value."""
    bad = [o for o in outcomes if o]
    return ([o for o in bad if o.startswith("failed")] + bad + [None])[0]


def compare_csv(name, got_text, ref_text, exact_cols=()):
    """Column-by-column comparison; text columns and `exact_cols` must match exactly."""
    got = [r.split(",") for r in got_text.strip().splitlines()]
    ref = [r.split(",") for r in ref_text.strip().splitlines()]
    if len(got) != len(ref) or got[0] != ref[0]:
        return wrong(f"{name}: {len(got)} rows with header {got[0]}, "
                     f"reference {len(ref)} rows with header {ref[0]}")
    header = ref[0]
    outcomes = []
    for k, (g_row, r_row) in enumerate(zip(got[1:], ref[1:]), start=1):
        if len(g_row) != len(header):
            return wrong(f"{name} row {k} has {len(g_row)} fields")
        for col, g, r in zip(header, g_row, r_row):
            try:
                r_val = float(r)
            except ValueError:
                outcomes.append(equal(f"{name}[{k}].{col}", g, r))
                continue
            if col in exact_cols:
                outcomes.append(equal(f"{name}[{k}].{col}", g, r))
            else:
                outcomes.append(close(f"{name}[{k}].{col}", float(g), r_val, atol=1e-12))
    return worst(*outcomes)


# ---------------------------------------------------------------------------
# the runner shared by all workloads


class Runner:
    """Executes operations, counts outcomes and the bytes the CLI writes."""

    def __init__(self, refs: dict, tmpdir: str, log):
        self.refs = refs
        self.tmpdir = tmpdir
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.bytes_out = 0
        self.witness_reports = []
        self._install_capture()

    def _install_capture(self):
        # `ncol morse` prints only the worst Q; the per-bump values come from
        # the report that morse_witnesses returns to the command.
        inner = morse.morse_witnesses
        reports = self.witness_reports

        def morse_witnesses(*args, **kwargs):
            rep = inner(*args, **kwargs)
            reports.append(rep)
            return rep

        morse_witnesses.__module__ = inner.__module__
        morse_witnesses.__qualname__ = inner.__qualname__
        morse_witnesses.__wrapped__ = inner
        self._captured = inner
        morse.morse_witnesses = morse_witnesses

    def restore(self):
        """Put back the morse_witnesses that the runner wrapped."""
        morse.morse_witnesses = self._captured

    def op(self, name, fn, count=1):
        """Run one operation of `count` sub-operations; fn returns their outcomes."""
        self.attempted += count
        try:
            outcomes = fn()
        except Exception as exc:  # noqa: BLE001 -- every raise is a counted failure
            outcomes = [failed(f"{type(exc).__name__}: {exc}")] * count
        if not isinstance(outcomes, list):
            outcomes = [outcomes]
        for o in outcomes:
            if o is None:
                continue
            self.failed += 1
            if o.startswith("wrong"):
                self.wrong += 1
            self.log(f"{name}: {o}")

    def cli(self, argv, out_file=None):
        """Run `ncol <argv>` in process; returns (exit code, stdout, stderr)."""
        if out_file:
            argv = argv + ["--out", os.path.join(self.tmpdir, out_file)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        text = out.getvalue()
        self.bytes_out += len(text.encode())
        if out_file and os.path.exists(argv[-1]):
            self.bytes_out += os.path.getsize(argv[-1])
        return rc, text, err.getvalue()


# ---------------------------------------------------------------------------
# criteria: closed forms, the criterion sweep, large-N spectral work


def criteria_pass(run: Runner, rng: np.random.Generator) -> None:
    refs = run.refs

    def figure1():
        rc, out, err = run.cli(["figure1"])
        if rc:
            return exit_ok("figure1", rc, err)
        return compare_csv("figure1", out, refs["figure1"], exact_cols=("holds",))

    run.op("figure1", figure1)

    def threshold(args, key):
        def check():
            rc, out, err = run.cli(["threshold"] + args)
            if rc:
                return exit_ok(key, rc, err)
            got = json.loads(out)["alpha_star"]
            return close(f"{key} alpha*", got, refs["alpha_star"][key], rtol=0.0,
                         atol=ALPHA_STAR_ATOL)
        return check

    run.op("threshold-collinear3", threshold(["--family", "collinear3"], "collinear3-equal"))
    for n in THRESHOLD_NGONS:
        run.op(f"threshold-ngon{n}", threshold(["--family", "ngon", "--n", str(n)], f"ngon-{n}"))

    def spectral_ngon64():
        rc, out, err = run.cli(["spectral", "--family", "ngon", "--n", "64"])
        if rc:
            return exit_ok("spectral", rc, err)
        got, ref = json.loads(out), refs["spectral_ngon64"]
        return worst(close("ngon-64 mu1", got["mu1"], ref["mu1"]),
                     close("ngon-64 margin", got["margin"], ref["margin"]),
                     equal("ngon-64 satisfied", got["satisfied"], ref["satisfied"]))

    run.op("spectral-ngon64", spectral_ngon64)

    # a regular 7-gon moved by a perturbation of norm 0.02 must solve back to
    # the polygon's level b
    kick = rng.standard_normal((7, 2))

    def solve():
        polygon = central.ngon(7, 1.0)
        start = polygon.s0 + 0.02 * kick / np.linalg.norm(kick)
        cc = central.solve_central(start, polygon.masses, 1.0)
        return close("7-gon b", cc.b, refs["ngon7_b"], rtol=1e-9)

    run.op("solve-central-ngon7", solve)


# ---------------------------------------------------------------------------
# flow: the tau-flow integrator, small-N per-sample kernels, weakforce, blocks

_DRIFT = re.compile(r"tau_end=(\S+) energy_drift=(\S+) \(over (\d+) trusted")


def _simulate(run: Runner, argv, tau_max):
    rc, _, err = run.cli(argv, out_file="trajectory.csv")
    match = _DRIFT.search(err)
    if rc or not match:
        return failed(f"simulate exited {rc}: {err.strip()[-200:]}")
    tau_end, drift, trusted = float(match[1]), float(match[2]), int(match[3])
    # the command's own gate at h = 0: drift within 1e-8 over the trusted prefix
    return worst(close("tau_end", tau_end, tau_max, rtol=1e-3),
                 None if trusted > 0 and drift <= 1e-8 else
                 wrong(f"energy drift {drift} over {trusted} trusted samples"))


def collapse_probe(run: Runner, alpha: float):
    """The perturbed run of scripts/run_collapse_probe.py: (CSV lines, trajectory, asymptotics)."""
    cc = central.collinear3(1.0, 1.0, alpha)
    rep = spectral.smallest_eigenvalue(cc)
    eps = 1e-6
    kick = np.zeros_like(cc.s0)
    kick[:, 1] = eps * np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    c = mcgehee.homothetic_decay_rate(cc)
    rate = c + np.sqrt(max(c**2 + rep.mu1, 0.0))
    tau_cap = min(8.0, np.log(0.02 / eps) / rate)
    sp2 = float(np.sum(cc.masses * np.sum(kick**2, axis=1)))
    state = mcgehee.McGeheeState(
        rho=1.0, rho_prime=-(2 - alpha) / 4 * np.sqrt(2 * (cc.b - sp2 / 2)),
        s=cc.s0.copy(), s_prime=kick)
    traj = mcgehee.integrate_el(state, cc.masses, alpha, tau_max=tau_cap,
                                opts=mcgehee.IntegratorOptions(rtol=1e-11, max_step=0.05))
    path = os.path.join(run.tmpdir, f"trajectory_alpha{alpha}.csv")
    traj.to_csv(path)
    run.bytes_out += os.path.getsize(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines, traj, mcgehee.asymptotic_report(traj, [cc]).to_dict()


def _check_collapse_probe(run: Runner, alpha: float):
    lines, traj, asym = collapse_probe(run, alpha)
    ref = run.refs["collapse_probe"][str(alpha)]
    outcomes = [equal("csv rows", len(lines), traj.n_samples + 1),
                equal("csv columns", len(lines[-1].split(",")), len(lines[0].split(",")))]
    for key, want in ref.items():
        if isinstance(want, bool):
            outcomes.append(equal(key, asym[key], want))
        else:
            outcomes.append(close(key, asym[key], want, rtol=ASYMPTOTIC_RTOL, atol=1e-12))
    return worst(*outcomes)


def _admissible(xi, cc):
    """xi projected onto the admissible tangents at cc.s0, with unit norm."""
    xi = xi.copy()
    m = cc.masses
    xi -= (m @ xi)[None, :] / m.sum()
    xi -= float(np.sum(m[:, None] * cc.s0 * xi)) * cc.s0
    return xi / np.linalg.norm(xi)


BLOCKS = 25


def flow_pass(run: Runner, rng: np.random.Generator) -> None:
    refs = run.refs
    for k in range(2):
        seed = int(rng.integers(2**31))
        argv = ["simulate", "--family", "collinear3", "--alpha", "1", "--perturb", "1e-6",
                "--tau-max", "2", "--seed", str(seed)]
        run.op(f"simulate-collinear3-{k}", lambda argv=argv: _simulate(run, argv, 2.0))
    argv = ["simulate", "--family", "ngon", "--n", "8", "--alpha", "1", "--tau-max", "1"]
    run.op("simulate-ngon8", lambda: _simulate(run, argv, 1.0))

    for alpha in (1.0, 0.05):
        run.op(f"collapse-probe-{alpha}",
               lambda alpha=alpha: _check_collapse_probe(run, alpha))

    def weakforce():
        rc, out, err = run.cli(["weakforce"])
        if rc:
            return exit_ok("weakforce", rc, err)
        verdicts = dict(re.findall(r"(esplode\d)=(\w+)", err))
        return worst(compare_csv("weakforce", out, refs["weakforce"]),
                     equal("esplode verdicts", verdicts, refs["esplode"]))

    run.op("weakforce", weakforce)

    # acceptance 09's non-exact case: positive-energy collapse at alpha = 0.05
    draws = [(0.3 + rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0),
              rng.uniform(0.2, 2.0), rng.standard_normal((3, 2))) for _ in range(BLOCKS)]
    oracle = []

    def trajectory():
        if not oracle:
            cc = central.collinear3(1.0, 1.0, 0.05)
            oracle.append((cc, mcgehee.homothetic_oracle(cc, h=1.0, tau_max=30.0,
                                                         phi_min=1e-6)))
        return oracle[0]

    for k, (l1, width, u_shift, amp, noise) in enumerate(draws):
        def block(l1=l1, width=width, u_shift=u_shift, amp=amp, noise=noise):
            cc, traj = trajectory()
            xi = _admissible(noise, cc)
            shift = u_shift * (traj.tau_end - l1 - width - 0.3)
            v = morse.BumpVariation(l1=l1, l2=l1 + width, shift=shift, xi=xi,
                                    profile_kind="bump")
            z = morse.ScalarBump(l1=l1, l2=l1 + width, shift=shift, amplitude=amp)
            d2r, mixed, d2s = morse.homographic_blocks(traj, z, v)
            if not all(map(math.isfinite, (d2r, mixed, d2s))):
                return failed(f"non-finite block ({d2r}, {mixed}, {d2s})")
            return worst(None if abs(mixed) <= MIXED_ATOL else wrong(f"mixed block {mixed}"),
                         None if d2r + d2s > 0.0 else wrong(f"d2r + d2s = {d2r + d2s}"))
        run.op(f"blocks-{k}", block)


# ---------------------------------------------------------------------------
# probe: bump-probe witness counts on exact frozen-shape data


def witness_q_values(run: Runner, family_args):
    """Per-bump Q values of one `ncol morse` command, or None when it failed."""
    before = len(run.witness_reports)
    rc, _, err = run.cli(["morse"] + family_args)
    if rc or len(run.witness_reports) != before + 1:
        run.log(f"morse exited {rc}: {err.strip()[-200:]}")
        return None
    return run.witness_reports[-1].q_values


def _witnesses(run: Runner, family_args, verdicts):
    q_values = witness_q_values(run, family_args)
    if q_values is None:
        return [failed("morse command failed")] * len(verdicts)
    if len(q_values) != len(verdicts):
        return [wrong(f"{len(q_values)} bumps, reference {len(verdicts)}")] * len(verdicts)
    outcomes = []
    for k, (q, want) in enumerate(zip(q_values, verdicts)):
        if not math.isfinite(q):
            outcomes.append(failed(f"bump {k}: Q = {q}"))
        else:
            outcomes.append(equal(f"bump {k} verdict", "negative" if q < 0 else "positive", want))
    return outcomes


def probe_pass(run: Runner, rng: np.random.Generator) -> None:
    # The inputs are the CLI defaults, so nothing is drawn from the seed.  The
    # families run in a fixed order: ngon 8's peak memory depends on the heap
    # the earlier commands leave behind.
    for name, args in PROBE_FAMILIES:
        verdicts = run.refs["bump_verdicts"][name]
        run.op(f"morse-{name}", lambda args=args, v=verdicts: _witnesses(run, args, v),
               count=len(verdicts))


WORKLOADS = {"criteria": criteria_pass, "flow": flow_pass, "probe": probe_pass}
