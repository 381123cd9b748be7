"""Second variation of the action in the shape variable and bump-probe machinery.

The working form after the substitution w = rho v is

    Q(w) = int |w'|^2 + (rho'/rho)^2 |w|^2 - 2 (rho'/rho) <w', w> + D2U_E(s)(w, w) dtau

with all pairings mass-weighted.  On an exact zero-energy collapse the cross
term integrates away and Q reduces to the Dirichlet energy against the margin
coefficient, which is what the witness counts probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nbody
from .errors import NotHomographic, OverlappingSupports, SupportOutOfRange
from .mcgehee import Trajectory


# ---------------------------------------------------------------------------
# smooth compactly supported profiles


def _transition(u):
    """C-infinity monotone step from 0 at u <= 0 to 1 at u >= 1, and its slope.

    The step is a / (a + b) with a = exp(-1/u), b = exp(-1/(1 - u)), each
    taken as zero where its argument is at most 1e-12; there the step is
    exactly 0 or 1 and its slope exactly 0, so the exponentials are taken on
    the ramp alone.
    """
    u = np.asarray(u, dtype=float)
    pos = u > 1e-12
    val = pos.astype(float)
    val[np.isnan(u)] = np.nan
    der = np.zeros_like(u)
    ramp = pos & (1.0 - u > 1e-12)
    x = u[ramp]
    y = 1.0 - x
    a, b = np.exp(-1.0 / x), np.exp(-1.0 / y)
    da, db = a / x**2, -(b / y**2)
    val[ramp] = a / (a + b)
    der[ramp] = (da * b - a * db) / (a + b) ** 2
    return val, der


@dataclass(frozen=True)
class Profile:
    """Smooth bump on (0, width); kind 'bump' or 'flattop'."""

    width: float
    kind: str = "flattop"
    flat_fraction: float = 0.8

    def value_and_deriv(self, u):
        """The profile and its slope at u, from one pass over the exponentials."""
        u = np.asarray(u, dtype=float)
        if self.kind == "bump":
            z = 2.0 * u / self.width - 1.0
            val, der = np.zeros_like(z), np.zeros_like(z)
            inside = np.abs(z) < 1.0
            zi = z[inside]
            e = np.exp(-1.0 / (1.0 - zi**2) + 1.0)
            val[inside] = e
            der[inside] = e * (-2.0 * zi / (1.0 - zi**2) ** 2) * (2.0 / self.width)
            return val, der
        ramp = 0.5 * (1.0 - self.flat_fraction) * self.width
        up, dup = _transition(u / ramp)
        down, ddown = _transition((self.width - u) / ramp)
        return up * down, dup / ramp * down + up * (-ddown / ramp)

    def dirichlet_ratio(self) -> float:
        """int phi'^2 / int phi^2, the kinetic cost of the profile, on 4001 points."""
        u = np.linspace(0.0, self.width, 4001)
        phi, dphi = self.value_and_deriv(u)
        num = np.trapezoid(dphi**2, u)
        den = np.trapezoid(phi**2, u)
        return float(num / den)


@dataclass(frozen=True)
class BumpVariation:
    """Shifted profile times a fixed admissible direction xi at the limit shape."""

    l1: float
    l2: float
    shift: float
    xi: np.ndarray
    profile_kind: str = "flattop"
    flat_fraction: float = 0.8
    profile: Profile = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.l1 < self.l2:
            raise ValueError("need 0 < l1 < l2")
        object.__setattr__(self, "profile",
                           Profile(width=self.l2 - self.l1, kind=self.profile_kind,
                                   flat_fraction=self.flat_fraction))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))

    @property
    def support(self):
        return (self.l1 + self.shift, self.l2 + self.shift)

    def scalar_and_deriv(self, t):
        return self.profile.value_and_deriv(np.asarray(t) - self.l1 - self.shift)

    def value(self, t):
        return self.scalar_and_deriv(np.atleast_1d(t))[0][:, None, None] * self.xi

    def deriv(self, t):
        return self.scalar_and_deriv(np.atleast_1d(t))[1][:, None, None] * self.xi


class CombinedVariation:
    """Linear combination sum_n c_n w_n of bump variations."""

    def __init__(self, bumps, coeffs):
        self.bumps = list(bumps)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.support = (min(b.support[0] for b in bumps), max(b.support[1] for b in bumps))
        if all(np.array_equal(b.xi, bumps[0].xi) for b in bumps):
            self.xi = bumps[0].xi

    def _pieces(self, t):
        """Each bump with the indices of the points of the flat t on its support.

        One sort of t locates every support by bisection, so the cost does
        not grow as the number of bumps times the number of points.
        """
        order = np.argsort(t, kind="stable")
        ts = t[order]
        for c, b in zip(self.coeffs, self.bumps):
            lo, hi = b.support
            yield c, b, order[np.searchsorted(ts, lo, "left"):np.searchsorted(ts, hi, "right")]

    def _sum(self, parts, t):
        """sum_n c_n parts(bump_n, t), evaluating each bump only on its own support.

        parts returns a tuple of arrays whose leading axis runs over the
        points.  Profiles vanish exactly off their supports, so the skipped
        terms are zeros and each sum is bitwise that of the full evaluation.
        """
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        sums = None
        for c, b, idx in self._pieces(flat):
            vals = parts(b, flat[idx])
            if sums is None:
                sums = [np.zeros(flat.shape + v.shape[1:]) for v in vals]
            for total, v in zip(sums, vals):
                total[idx] += c * v
        return tuple(total.reshape(t.shape + total.shape[1:]) for total in sums)

    def scalar_and_deriv(self, t):
        return self._sum(lambda b, pts: b.scalar_and_deriv(pts), t)

    def value(self, t):
        return self._sum(lambda b, pts: (b.value(pts),), np.atleast_1d(t))[0]

    def deriv(self, t):
        return self._sum(lambda b, pts: (b.deriv(pts),), np.atleast_1d(t))[0]


def _is_scalar_bump(variation) -> bool:
    """A variation of the form phi(tau) xi with a fixed direction xi."""
    return hasattr(variation, "xi") and hasattr(variation, "scalar_and_deriv")


@dataclass(frozen=True)
class SecondVariationReport:
    value: float
    kinetic: float
    rho_term: float
    cross: float
    hessian: float
    q_values: tuple = ()
    witnesses: int | None = None

    def to_dict(self) -> dict:
        return {
            "Q": self.value,
            "kinetic": self.kinetic,
            "rho_term": self.rho_term,
            "cross": self.cross,
            "hessian": self.hessian,
            "witnesses": int(self.witnesses) if self.witnesses is not None else 0,
        }


# ---------------------------------------------------------------------------
# quadrature on the trajectory


# Members of one stack of supports refined together; a chunk bounds the memory
# of morse_witnesses whatever the number of bumps.
_STACK_ROWS = 16

# Relative change between two refinement levels at which an integral stops.
QUAD_TOL = 1e-8


def _intervals(width: float, points_per_unit: float) -> int:
    """Number of grid intervals on a support of this width: even, and at least 64."""
    n = max(64, math.ceil(width * points_per_unit))
    return n + n % 2


def _support_grid(traj: Trajectory, lo, hi, intervals: int):
    """A (G, intervals + 1) grid whose row i spans the support (lo[i], hi[i]).

    Each row is bitwise np.linspace(lo[i], hi[i], intervals + 1).
    """
    outside = (lo < traj.tau[0] - 1e-12) | (hi > traj.tau_end + 1e-12)
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise SupportOutOfRange(
            f"support ({lo[i]}, {hi[i]}) exceeds horizon [{traj.tau[0]}, {traj.tau_end}]")
    step = (hi - lo) / intervals
    grid = np.arange(intervals + 1.0) * step[:, None]
    grid += lo[:, None]
    grid[:, -1] = hi
    return grid


def _refine_until(fn, traj, supports, tol, narrowest=None):
    """Composite-Simpson integrals on a stack of supports, refined together by grid doubling.

    supports is one (lo, hi) pair or a sequence of them, one per member.  fn
    maps (grid, members), a (G, K) grid whose rows span the supports of the
    members in the index array members, to values of shape (G, ..., K); each
    row is integrated, and the tolerance applies to the sum of a member's
    rows.  Each member stops at its own tolerance (or at its first non-finite
    estimate) and leaves the stack while the others go on refining; a level
    builds one grid for the running members that share an interval count.  A
    member's first level is the first whose grid differs from the next one's:
    on a support narrower than 2 the coarser levels are all the same
    64-interval grid, and comparing two of them would check nothing.  Where an
    integrand is made of pieces narrower than its support, narrowest (their
    least width) sets that level in place of the support's width, so the
    pieces are resolved as finely as they would be alone.  Returns the row
    estimates, one per member, in the order given.
    """
    lo, hi = np.reshape(np.asarray(supports, dtype=float), (-1, 2)).T
    widths = (hi - lo).tolist()
    ppu = []
    for width in widths:
        feature = width if narrowest is None else min(width, narrowest)
        rate = 16.0
        while _intervals(feature, 2.0 * rate) == _intervals(feature, rate):
            rate *= 2.0
        ppu.append(rate)
    result, prev, running = None, {}, set(range(len(widths)))
    for _ in range(8):
        groups = {}
        for m in sorted(running):
            groups.setdefault(_intervals(widths[m], ppu[m]), []).append(m)
        for n, group in sorted(groups.items()):
            members = np.array(group)
            grid = _support_grid(traj, lo[members], hi[members], n)
            vals = fn(grid, members)
            # the step _support_grid builds its rows from; grid[:, 1] - grid[:, 0]
            # would lose digits on a support far from tau = 0
            h = ((hi[members] - lo[members]) / n / 3.0).reshape((-1,) + (1,) * (vals.ndim - 2))
            simpson = h * (vals[..., 0] + vals[..., -1]
                           + 4.0 * vals[..., 1:-1:2].sum(axis=-1)
                           + 2.0 * vals[..., 2:-1:2].sum(axis=-1))
            if result is None:
                result = np.empty((len(widths),) + simpson.shape[1:])
            result[members] = simpson
            totals = simpson.reshape(members.size, -1).sum(axis=-1).tolist()
            for m, total in zip(group, totals):
                last = prev.get(m)
                if not math.isfinite(total) or (
                        last is not None and abs(total - last) <= tol * (1.0 + abs(total))):
                    running.discard(m)
                prev[m] = total
        if not running:
            break
        ppu = [2.0 * rate for rate in ppu]
    return result


def _mdot(m, a, b):
    return np.einsum("j,kjd,kjd->k", m, a, b)


def second_variation_s(traj: Trajectory, variation) -> float:
    """int rho^2 (|v'|_M^2 + D2U_E(s)(v, v)) dtau for a compactly supported v."""
    m = traj.masses

    def integrand(grid, members):
        t = grid.ravel()
        rho, _, s, _ = traj.evaluate(t)
        v = variation.value(t)
        dv = variation.deriv(t)
        kin = _mdot(m, dv, dv)
        hess = traj.potential_scale * nbody.hessian_on_ellipsoid_stack(s, m, traj.alpha, v)
        return (rho**2 * (kin + hess)).reshape(grid.shape)

    return float(_refine_until(integrand, traj, variation.support, QUAD_TOL)[0])


def _sampled_integrand(traj: Trajectory, fields):
    """Rows of Q from the per-sample (K, N, d) stacks; any variation, any data.

    fields(grid, members) gives w and w' at the points of grid, flattened to
    (grid.size, N, d).
    """
    m = traj.masses

    def integrand(grid, members):
        t = grid.ravel()
        _, _, s, _ = traj.evaluate(t)
        ratio = traj.log_rate(t)
        w, dw = fields(grid, members)
        kin = _mdot(m, dw, dw)
        mass2 = _mdot(m, w, w)
        crossdot = _mdot(m, dw, w)
        hess = traj.potential_scale * nbody.hessian_on_ellipsoid_stack(s, m, traj.alpha, w)
        rows = (kin, ratio**2 * mass2, -2.0 * ratio * crossdot, hess)
        return np.stack([r.reshape(grid.shape) for r in rows], axis=-2)

    return integrand


def _frozen_pairings(traj: Trajectory, xi):
    """|xi|_M^2 and D2U_E(s0)(xi, xi) at the frozen shape s0 = traj.s[0]."""
    m = traj.masses
    n_m = float(np.einsum("j,jd,jd->", m, xi, xi))
    hess = traj.potential_scale * float(
        nbody.hessian_on_ellipsoid_stack(traj.s[0], m, traj.alpha, xi))
    return n_m, hess


def _bump_integrand(traj: Trajectory, xi, scalars):
    """Rows of Q for w = phi(tau) xi, where scalars(grid, members) gives phi and phi' on grid.

    On frozen-shape data, s = s0 makes the pairings constants and the rows
    scalars: |w'|^2 = nM phi'^2, |w|^2 = nM phi^2, <w', w> = nM phi phi' and
    D2U_E(s0)(w, w) = H phi^2.  Elsewhere w and w' go through the per-sample
    stacks.
    """
    if not traj.frozen_shape:
        return _sampled_integrand(traj, lambda grid, members: tuple(
            p.reshape(-1, 1, 1) * xi for p in scalars(grid, members)))
    n_m, hess = _frozen_pairings(traj, xi)

    def integrand(grid, members):
        ratio = traj.log_rate(grid)
        phi, dphi = scalars(grid, members)
        return np.stack([n_m * dphi**2, ratio**2 * n_m * phi**2,
                         -2.0 * ratio * n_m * phi * dphi, hess * phi**2], axis=-2)

    return integrand


def _reports(traj: Trajectory, integrand, supports, quad_tol: float, narrowest=None):
    """One SecondVariationReport per support, refined in stacks of _STACK_ROWS members."""
    supports = np.reshape(np.asarray(supports, dtype=float), (-1, 2))
    reports = []
    for start in range(0, len(supports), _STACK_ROWS):
        def chunk(grid, members, start=start):
            return integrand(grid, members + start)

        parts = _refine_until(chunk, traj, supports[start:start + _STACK_ROWS], quad_tol,
                              narrowest)
        reports += [SecondVariationReport(value=float(p.sum()), kinetic=float(p[0]),
                                          rho_term=float(p[1]), cross=float(p[2]),
                                          hessian=float(p[3])) for p in parts]
    return reports


def quadratic_Q(traj: Trajectory, variation, quad_tol: float = QUAD_TOL) -> SecondVariationReport:
    """Evaluate Q(w) with its kinetic / radial / cross / Hessian breakdown.

    rho'/rho comes from Trajectory.log_rate, so Q stays finite past rho
    underflow.  A bump phi(tau) xi is read through phi alone: in scalars on
    frozen-shape data, as phi xi in the per-sample (K, N, d) stacks
    elsewhere; other variations go through the stacks.
    This is the one-member case of the stacks morse_witnesses refines.  A
    combination of bumps starts its refinement where its narrowest bump's
    own would start.
    """
    if _is_scalar_bump(variation):
        integrand = _bump_integrand(traj, variation.xi,
                                    lambda grid, members: variation.scalar_and_deriv(grid))
    else:
        integrand = _sampled_integrand(traj, lambda grid, members: (
            variation.value(grid.ravel()), variation.deriv(grid.ravel())))
    narrowest = min(b.support[1] - b.support[0] for b in getattr(variation, "bumps", [variation]))
    return _reports(traj, integrand, variation.support, quad_tol, narrowest)[0]


def default_shifts(count: int, l1: float, l2: float, start: float | None = None):
    """Shifts spacing supports by one extra width, keeping them pairwise disjoint."""
    width = l2 - l1
    if start is None:
        start = width
    return [start + 2.0 * width * k for k in range(count)]


def morse_witnesses(traj: Trajectory, xi, shifts, l1: float = 0.0, l2: float = 20.0,
                    profile: str = "flattop", flat_fraction: float = 0.8) -> SecondVariationReport:
    """Count negative values of Q over a family of disjointly supported bumps.

    Also verifies on random coefficients that disjoint supports make Q
    additive, i.e. Q(sum c_n w_n) = sum c_n^2 Q(w_n), on each stack of
    _STACK_ROWS bumps.
    """
    if l1 <= 0.0:
        l1 = 1e-9
    shifts = list(shifts)
    if any(b >= a for a, b in zip(shifts[1:], shifts[:-1])):
        raise ValueError("shifts must be strictly increasing")
    xi = np.asarray(xi, dtype=float).reshape(traj.s[0].shape)
    nbody.check_tangent(traj.s[0], traj.masses, xi)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-8:
        raise ValueError("probe direction must have unit norm")
    bumps = [BumpVariation(l1=l1, l2=l2, shift=sh, xi=xi, profile_kind=profile,
                           flat_fraction=flat_fraction) for sh in shifts]
    for b1, b2 in zip(bumps[:-1], bumps[1:]):
        if b1.support[1] > b2.support[0] + 1e-12:
            raise OverlappingSupports(f"supports {b1.support} and {b2.support} overlap")
    # the bumps differ only by their shifts: each stack row evaluates the one
    # profile shifted to its own member, as BumpVariation.scalar_and_deriv does
    shift_col = np.asarray(shifts, dtype=float)[:, None]

    def scalars(grid, members):
        return bumps[0].profile.value_and_deriv(grid - l1 - shift_col[members])

    reports = _reports(traj, _bump_integrand(traj, xi, scalars), [b.support for b in bumps],
                       QUAD_TOL)
    q_vals = tuple(r.value for r in reports)
    witnesses = int(sum(1 for q in q_vals if q < 0.0))
    # one combination per stack, so that its refinement, which starts at the
    # narrowest bump's density, spans _STACK_ROWS supports and not all of them
    rng = np.random.default_rng(0)
    for start in range(0, len(bumps), _STACK_ROWS):
        stack = bumps[start:start + _STACK_ROWS]
        coeffs = rng.standard_normal(len(stack))
        q_combo = quadratic_Q(traj, CombinedVariation(stack, coeffs)).value
        q_expected = float(np.sum(coeffs**2 * np.array(q_vals[start:start + _STACK_ROWS])))
        if not abs(q_combo - q_expected) <= 1e-8 * (1.0 + abs(q_expected)):
            raise AssertionError(
                f"disjoint-support additivity violated: {q_combo} vs {q_expected}")
    worst = min(reports, key=lambda r: r.value)
    return replace(worst, q_values=q_vals, witnesses=witnesses)


def projected_bump(traj: Trajectory, bump: BumpVariation):
    """Re-project a bump direction onto the moving tangent space.

    Returns a variation object and the largest projection correction
    |<M xi, s(tau)>| met on the support; zero on exact homothetic data.
    """
    m = traj.masses

    class _Projected:
        support = bump.support

        def value(self, t):
            t = np.atleast_1d(t)
            _, _, s, _ = traj.evaluate(t)
            phi = bump.scalar_and_deriv(t)[0][:, None, None]
            xi = bump.xi
            coef = np.einsum("j,jd,kjd->k", m, xi, s)[:, None, None]
            return phi * (xi - coef * s)

        def deriv(self, t):
            t = np.atleast_1d(t)
            _, _, s, sp = traj.evaluate(t)
            phi, dphi = bump.scalar_and_deriv(t)
            phi, dphi = phi[:, None, None], dphi[:, None, None]
            xi = bump.xi
            coef = np.einsum("j,jd,kjd->k", m, xi, s)[:, None, None]
            dcoef = np.einsum("j,jd,kjd->k", m, xi, sp)[:, None, None]
            return dphi * (xi - coef * s) - phi * (dcoef * s + coef * sp)

    grid = np.linspace(bump.support[0], bump.support[1], 257)
    _, _, s, _ = traj.evaluate(grid)
    corr = float(np.max(np.abs(np.einsum("j,jd,kjd->k", m, bump.xi, s))))
    return _Projected(), corr


# ---------------------------------------------------------------------------
# homographic second-variation blocks


def homographic_blocks(traj: Trajectory, zeta, variation, quad_tol: float = QUAD_TOL):
    """The radial, mixed and shape blocks of the second variation on frozen-shape data.

    zeta is a scalar path (scalar_and_deriv), variation a bump phi(tau) xi
    with a fixed direction xi.  With the shape frozen at s0 every pairing is
    a constant read once at s0, and the integrands need rho alone:

        radial  (4/(2-alpha))^2 zeta'^2 + 2 U(s0) zeta^2
        mixed   2 rho zeta phi <grad U_E(s0), xi>
        shape   rho^2 (|xi|_M^2 phi'^2 + D2U_E(s0)(xi, xi) phi^2)

    with grad U_E = grad U + alpha U M s, the centrality residual.  Raises
    NotHomographic when the trajectory's shape is not frozen.
    """
    if not traj.frozen_shape:
        raise NotHomographic("trajectory shape is not frozen")
    alpha, scale = traj.alpha, traj.potential_scale
    coef = (4.0 / (2.0 - alpha)) ** 2
    u0, grad_e, _ = nbody.central_residual_stack(traj.s[0], traj.masses, alpha)
    two_u = 2.0 * (scale * float(u0))
    force = scale * float(np.einsum("jd,jd->", grad_e, variation.xi))
    n_m, hess = _frozen_pairings(traj, variation.xi)
    support = (min(zeta.support[0], variation.support[0]),
               max(zeta.support[1], variation.support[1]))

    def integrand(grid, members):
        # the blocks are members 0, 1, 2 on one support, so every row of grid
        # is the same; each path is taken once, and only for a running block
        # that needs it
        t, ks = grid[0], members.tolist()
        if ks[0] < 2:  # radial or mixed
            z, dz = zeta.scalar_and_deriv(t)
        if ks[-1] > 0:  # mixed or shape
            phi, dphi = variation.scalar_and_deriv(t)
            rho = traj.rho_at(t)
        blocks = (lambda: coef * dz**2 + z**2 * two_u,
                  lambda: 2.0 * rho * z * (phi * force),
                  lambda: rho**2 * (n_m * dphi**2 + hess * phi**2))
        return np.stack([blocks[k]() for k in ks])

    return tuple(_refine_until(integrand, traj, [support] * 3, quad_tol).tolist())


@dataclass(frozen=True)
class ScalarBump:
    """Scalar compactly supported path for the radial direction, on the 'bump' profile."""

    l1: float
    l2: float
    shift: float = 0.0
    amplitude: float = 1.0
    profile: Profile = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "profile", Profile(width=self.l2 - self.l1, kind="bump"))

    @property
    def support(self):
        return (self.l1 + self.shift, self.l2 + self.shift)

    def scalar_and_deriv(self, t):
        phi, dphi = self.profile.value_and_deriv(np.asarray(t) - self.l1 - self.shift)
        return self.amplitude * phi, self.amplitude * dphi
