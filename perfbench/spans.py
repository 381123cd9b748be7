"""Span tracer that wraps the ncol modules' functions from outside the package.

`Tracer.install()` replaces each traced function with a wrapper everywhere its
name is bound inside ncol (a name imported with `from .mcgehee import
integrate_el` is rebound as well), and `Tracer.uninstall()` puts the originals
back.  A span records its layer (the module), its function and the span that
called it.

Self time is a span's wall duration minus the part of it that child spans
cover.  Each thread keeps its own span stack.  A span that starts on a thread
with an empty stack, such as a figure1 sweep row on the command's
ThreadPoolExecutor, is a child of the span open on the installing thread, and
the union of such cross-thread children is subtracted from the parent.  Times
are wall clock per thread, so two sweep workers waiting on each other for the
interpreter lock both count that wait.

Counters are kept per thread and merged by `snapshot()`, so no counter is
updated by two threads at once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "central", "spectral", "nbody", "mcgehee", "morse", "weakforce")

# Private functions traced for a counter or a span boundary; every public
# function and public method of each layer is traced as well.
PRIVATE = {
    "cli": ("_build_family", "_emit", "_run_sweep", "_sweep_row"),
    "nbody": ("_checked_distances",),
    "mcgehee": ("_flow",),
    "morse": ("_refine_until", "_support_grid"),
}
CHECKS = ("nbody.validate_alpha", "nbody.as_masses", "nbody.as_positions",
          "nbody._checked_distances")
MAX_GRIDS = 8  # grid doublings in morse._refine_until and morse.quadratic_Q


class Span:
    __slots__ = ("key", "layer", "parent", "child", "cross", "grids", "flow_evals")

    def __init__(self, key, layer, parent):
        self.key = key
        self.layer = layer
        self.parent = parent
        self.child = 0.0
        self.cross = None
        self.grids = 0
        self.flow_evals = None


class _Stats:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.fn_self = defaultdict(float)
        self.fn_total = defaultdict(float)
        self.fn_calls = defaultdict(int)
        self.entries = defaultdict(int)
        self.counts = defaultdict(float)
        self.eig_dim = 0


def _covered(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self, package):
        self._modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                         for layer in LAYERS}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._generation = 0
        self._all = []
        self._patches = []
        self._main_stack = None
        self._hooks = {
            "nbody.pair_separations": self._on_pairs,
            "nbody.hessian_full": self._on_hessian_full,
            "spectral.smallest_eigenvalue": self._on_eigen,
            "mcgehee._flow": self._on_flow,
            "mcgehee.integrate_el": self._on_integrate,
            "mcgehee.Trajectory.evaluate": self._on_evaluate,
            "morse._support_grid": self._on_grid,
            "morse._refine_until": self._on_refinement,
            "morse.quadratic_Q": self._on_quadratic,
            "weakforce.build_H_family": self._on_family,
        }

    # -- per-thread state ----------------------------------------------------
    def _state(self):
        loc = self._local
        if getattr(loc, "generation", None) != self._generation:
            loc.generation = self._generation
            loc.stats = _Stats()
            if not hasattr(loc, "stack"):
                loc.stack = []
            with self._lock:
                self._all.append(loc.stats)
        return loc

    def snapshot(self) -> _Stats:
        """Merge and reset the counters of every thread."""
        with self._lock:
            parts, self._all = self._all, []
            self._generation += 1
        out = _Stats()
        for st in parts:
            for name in ("self_s", "fn_self", "fn_total", "fn_calls", "entries", "counts"):
                dst = getattr(out, name)
                for k, v in getattr(st, name).items():
                    dst[k] += v
            out.eig_dim = max(out.eig_dim, st.eig_dim)
        return out

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, layer, key, fn):
        tracer = self
        hook = self._hooks.get(key)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            loc = tracer._state()
            stack, stats = loc.stack, loc.stats
            cross = False
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and main is not stack else None
                cross = parent is not None
            span = Span(key, layer, parent)
            stack.append(span)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    result = hook(stats, span, args, result)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                own = dur - span.child
                if span.cross:
                    own -= _covered(span.cross, t0, t1)
                stats.self_s[layer] += own
                stats.fn_self[key] += own
                stats.fn_total[key] += dur
                stats.fn_calls[key] += 1
                if parent is None or parent.layer != layer:
                    stats.entries[layer] += 1
                if cross:
                    if parent.cross is None:
                        parent.cross = []
                    parent.cross.append((t0, t1))
                elif parent is not None:
                    parent.child += dur
            return result

        return traced

    def _targets(self):
        """(owner, attribute, layer, key, function) for every traced function."""
        for layer in LAYERS:
            mod = self._modules[layer]
            prefix = mod.__name__
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == prefix and (
                        not name.startswith("_") or name in PRIVATE.get(layer, ())):
                    yield mod, name, layer, f"{layer}.{name}", obj
                elif inspect.isclass(obj) and obj.__module__ == prefix:
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            yield obj, meth, layer, f"{layer}.{name}.{meth}", fn

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._state().stack
        wrappers = {}
        for owner, attr, layer, key, fn in list(self._targets()):
            wrappers[id(fn)] = self._wrap(layer, key, fn)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])
        # rebind the names other modules imported from the defining module
        for layer in LAYERS:
            mod = self._modules[layer]
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    # -- counters at layer boundaries ----------------------------------------
    @staticmethod
    def _on_pairs(stats, span, args, result):
        stats.counts["nbody.pairs"] += result[0].size
        return result

    @staticmethod
    def _on_hessian_full(stats, span, args, result):
        # one Gauss-Newton iteration builds one full Hessian
        if span.parent is not None and span.parent.key == "central.solve_central":
            stats.counts["central.gn_iters"] += 1
        return result

    @staticmethod
    def _on_eigen(stats, span, args, result):
        stats.eig_dim = max(stats.eig_dim, int(result.eigenvalues.size))
        return result

    @staticmethod
    def _on_flow(stats, span, args, rhs):
        evals = [0]
        if span.parent is not None:
            span.parent.flow_evals = evals

        def counted(*a):
            evals[0] += 1
            return rhs(*a)

        return counted

    @staticmethod
    def _on_integrate(stats, span, args, traj):
        # one initial right-hand side, six per attempted step, one per accepted step
        accepted = traj.n_samples - 1
        evals = span.flow_evals[0] if span.flow_evals else 0
        stats.counts["mcgehee.rhs_evals"] += evals
        stats.counts["mcgehee.steps"] += accepted
        stats.counts["mcgehee.attempts"] += max(evals - 1 - accepted, 0) / 6.0
        return traj

    @staticmethod
    def _on_evaluate(stats, span, args, result):
        stats.counts["mcgehee.evaluate_points"] += result[0].size
        return result

    @staticmethod
    def _on_grid(stats, span, args, grid):
        stats.counts["morse.quad_points"] += grid.size
        if span.parent is not None:
            span.parent.grids += 1
        return grid

    @staticmethod
    def _on_refinement(stats, span, args, result):
        stats.counts["morse.refinements"] += 1
        stats.counts["morse.refine_converged"] += span.grids < MAX_GRIDS
        return result

    @classmethod
    def _on_quadratic(cls, stats, span, args, rep):
        cls._on_refinement(stats, span, args, rep)
        stats.counts["morse.q_evals"] += 1
        stats.counts["morse.nonfinite_q"] += not math.isfinite(rep.value)
        return rep

    @staticmethod
    def _on_family(stats, span, args, fam):
        stats.counts["weakforce.members"] += len(fam.trajectories)
        stats.counts["weakforce.samples"] += sum(t.n_samples for t in fam.trajectories)
        return fam


UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "nbody.calls": "count", "nbody.pairs": "count", "nbody.checks_s": "s",
    "nbody.hessian_full_s": "s", "spectral.basis_s": "s", "spectral.eig_dim": "count",
    "spectral.psi_calls": "count", "cli.bytes_out": "B", "central.gn_iters": "count",
    "mcgehee.integrate_s": "s", "mcgehee.steps": "count", "mcgehee.rhs_evals": "count",
    "mcgehee.step_accept_ratio": "ratio", "mcgehee.oracle_s": "s",
    "mcgehee.evaluate_points": "count", "morse.q_evals": "count", "morse.quad_points": "count",
    "morse.refine_converged_ratio": "ratio", "morse.nonfinite_q": "count",
    "weakforce.members": "count", "weakforce.samples": "count", "trace.overhead_frac": "frac",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(st: _Stats) -> dict:
    """Per-layer metrics of one pass, by the names in BENCHMARK.json."""
    c = st.counts
    out = {f"{layer}.self_s": st.self_s[layer] for layer in LAYERS}
    out.update({
        "nbody.calls": st.entries["nbody"],
        "nbody.pairs": c["nbody.pairs"],
        "nbody.checks_s": sum(st.fn_self[k] for k in CHECKS),
        "nbody.hessian_full_s": st.fn_total["nbody.hessian_full"],
        "spectral.basis_s": st.fn_total["spectral.admissible_basis"],
        "spectral.eig_dim": st.eig_dim,
        "spectral.psi_calls": (st.fn_calls["spectral.psi_phi"]
                               + st.fn_calls["spectral.psi_phi_grid"]),
        "central.gn_iters": c["central.gn_iters"],
        "mcgehee.integrate_s": st.fn_total["mcgehee.integrate_el"],
        "mcgehee.steps": c["mcgehee.steps"],
        "mcgehee.rhs_evals": c["mcgehee.rhs_evals"],
        "mcgehee.step_accept_ratio": _ratio(c["mcgehee.steps"], c["mcgehee.attempts"]),
        "mcgehee.oracle_s": st.fn_total["mcgehee.homothetic_oracle"],
        "mcgehee.evaluate_points": c["mcgehee.evaluate_points"],
        "morse.q_evals": c["morse.q_evals"],
        "morse.quad_points": c["morse.quad_points"],
        "morse.refine_converged_ratio": _ratio(c["morse.refine_converged"],
                                               c["morse.refinements"]),
        "morse.nonfinite_q": c["morse.nonfinite_q"],
        "weakforce.members": c["weakforce.members"],
        "weakforce.samples": c["weakforce.samples"],
    })
    return out
