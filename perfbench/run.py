#!/usr/bin/env python3
"""Closed-loop benchmark of the ncol commands.

Run from the repository root:

    python3 perfbench/run.py --workload criteria --seed 1 --seconds 20 --trace 0

One client in one process runs passes of the chosen workload back to back,
each pass starting when the previous one has finished, until `--seconds` have
passed (the last pass runs to its end).  A warm-up pass runs first and is not
timed, so that first-call costs (BLAS threads starting, the allocator growing
its heap for probe's large quadrature grids) stay out of the passes; what a
fresh command pays to start is measured as setup_s.  Every output is checked
against the references in `perfbench/ref/`, which `perfbench/make_refs.py`
writes.

Workloads (see workloads.py for the exact operations):

* criteria -- `ncol figure1`, `ncol threshold` for collinear3 and six
  polygons, `ncol spectral --family ngon --n 64` and a Gauss-Newton solve of a
  seeded perturbed 7-gon.  Large-N nbody, spectral and the CLI; almost no
  integration or quadrature.
* flow -- three `ncol simulate` runs, the collapse-probe perturbed runs with
  their asymptotics and CSV, `ncol weakforce` and 25 seeded homographic
  blocks on a positive-energy oracle trajectory.  Small-N nbody called once
  per sample, the tau-flow integrator and weakforce.
* probe -- `ncol morse` witness counts with CLI defaults for collinear3 at
  alpha 1 and 0.05, ngon 4 and ngon 8.  Quadrature refinement on exact
  frozen-shape data and the physical-time oracle.  One operation is one bump.
  Its inputs are fixed, so the seed changes nothing on probe.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics: pass_s and cpu_s (medians per pass), pass_s_tail (the
highest percentile with ten passes beyond it; the fastest pass when a run has
fewer than eleven passes), peak_rss_mb, setup_s (median of fresh
interpreters that start and `import ncol`) and ok_frac (the share of
operations that neither failed nor gave a wrong answer; fail_frac, its
complement, is printed above).  With `--trace 1` untraced and traced passes
alternate, and the JSON holds the per-layer metrics of spans.py, as medians
over the traced passes, and trace.overhead_frac.

The program is run with the user's defaults: no thread count is pinned.
The environment is printed with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 7
THREAD_VARS = ("NCOL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_ncol():
    if not os.path.isfile(os.path.join(SRC, "ncol", "__init__.py")):
        raise SystemExit(f"perfbench: no ncol package under {SRC}")
    sys.path.insert(0, SRC)
    import ncol

    if not os.path.abspath(ncol.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported ncol from {ncol.__file__}, not {SRC}")
    return ncol


def setup_sample() -> float:
    """Wall seconds for a fresh interpreter that starts and imports ncol."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ncol"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **{v: os.environ.get(v) for v in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def tail(values: list[float]):
    """(value, percentile, passes beyond it) for the highest percentile with ten
    passes beyond it.

    A run of n <= 10 passes has no such percentile; it reports the value with
    n - 1 passes beyond it, its fastest pass, so that the metric moves
    continuously with the pass count.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond - 1) / n, beyond


def run_passes(args, pass_fn, runner, tracer):
    import numpy as np
    from spans import layer_metrics

    pass_fn(runner, np.random.default_rng([args.seed, 2**32 - 1]))  # warm-up
    untraced, traced = [], []
    layers, setup = [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    k = 0
    while True:
        trace_this = tracer is not None and k % 2 == 1
        rng = np.random.default_rng([args.seed, k])
        bytes_before = runner.bytes_out
        if trace_this:
            tracer.snapshot()
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            pass_fn(runner, rng)
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if trace_this:
                tracer.uninstall()
        if trace_this:
            metrics = layer_metrics(tracer.snapshot())
            metrics["cli.bytes_out"] = runner.bytes_out - bytes_before
            layers.append(metrics)
            traced.append((wall, cpu))
        else:
            untraced.append((wall, cpu))
        k += 1
        # set-up samples are spread over the run, between passes, so that they
        # see the same machine as the passes do
        due = SETUP_RUNS * (time.perf_counter() - start) / args.seconds
        while len(setup) < min(SETUP_RUNS, due):
            setup.append(setup_sample())
        if time.perf_counter() >= deadline and (tracer is None or traced):
            while len(setup) < SETUP_RUNS:
                setup.append(setup_sample())
            return untraced, traced, layers, setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["criteria", "flow", "probe"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    ncol = import_ncol()
    import workloads
    from spans import UNITS, Tracer

    env = environment()
    tmpdir = tempfile.mkdtemp(prefix=".perfbench_tmp", dir=ROOT)
    runner = workloads.Runner(workloads.load_refs(), tmpdir, log)
    tracer = Tracer(ncol) if args.trace else None
    try:
        untraced, traced, layers, setup = run_passes(args, workloads.WORKLOADS[args.workload],
                                                     runner, tracer)
    finally:
        runner.restore()
        shutil.rmtree(tmpdir, ignore_errors=True)

    walls = [w for w, _ in untraced]
    cpus = [c for _, c in untraced]
    tail_s, tail_pct, tail_beyond = tail(walls)
    fail_frac = runner.failed / runner.attempted
    e2e = {
        "pass_s": (statistics.median(walls), "s"),
        "pass_s_tail": (tail_s, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_frac": (1.0 - fail_frac, "frac"),
    }
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(walls)} traced_passes={len(traced)}")
    print("environment " + json.dumps(env))
    notes = {
        "pass_s": f"median of {len(walls)} passes",
        "pass_s_tail": f"p{tail_pct:.0f} of {len(walls)} passes, {tail_beyond} beyond it",
        "cpu_s": f"median of {len(walls)} passes",
        "peak_rss_mb": "whole process",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "ok_frac": f"{runner.attempted - runner.failed} of {runner.attempted} operations",
    }
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14} {value:12.6g} {unit:<5} {notes[name]}")
    print(f"  {'fail_frac':<14} {fail_frac:12.6g} {'frac':<5} "
          f"{runner.failed} failed ({runner.wrong} wrong) of {runner.attempted} operations")

    if args.trace:
        per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        per_layer["trace.overhead_frac"] = (statistics.median(w for w, _ in traced)
                                            / statistics.median(walls) - 1.0)
        for name, value in sorted(per_layer.items()):
            print(f"  {name:<28} {value:14.6g}")
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in per_layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": runner.wrong == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
