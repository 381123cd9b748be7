"""Second variation of the action in the shape variable and bump-probe machinery.

The working form after the substitution w = rho v is

    Q(w) = int |w'|^2 + (rho'/rho)^2 |w|^2 - 2 (rho'/rho) <w', w> + D2U_E(s)(w, w) dtau

with all pairings mass-weighted.  On an exact zero-energy collapse the cross
term integrates away and Q reduces to the Dirichlet energy against the margin
coefficient, which is what the witness counts probe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nbody
from .errors import NotHomographic, OverlappingSupports, SupportOutOfRange
from .mcgehee import ORACLE_MAX_SAMPLES, ORACLE_MAX_TAU, Trajectory


# ---------------------------------------------------------------------------
# smooth compactly supported profiles

# The share of a flat-top profile's width on which it is flat.
FLAT_FRACTION = 0.8


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
    flat_fraction: float = FLAT_FRACTION

    def value_and_deriv(self, u):
        """The profile and its slope at u, from one pass over the exponentials."""
        u = np.asarray(u, dtype=float)
        if self.kind == "bump":
            z = 2.0 * u / self.width - 1.0
            val, der = np.zeros_like(z), np.zeros_like(z)
            inside = np.abs(z) < 1.0
            zi = z[inside]
            w = 1.0 - zi**2
            e = np.exp(-1.0 / w + 1.0)
            val[inside] = e
            der[inside] = e * (-2.0 * zi / w**2) * (2.0 / self.width)
            return val, der
        ramp = 0.5 * (1.0 - self.flat_fraction) * self.width
        up, dup = _transition(u / ramp)
        down, ddown = _transition((self.width - u) / ramp)
        # up down and dup / ramp down + up (-ddown / ramp), formed in place
        dup /= ramp
        dup *= down
        np.negative(ddown, out=ddown)
        ddown /= ramp
        ddown *= up
        dup += ddown
        up *= down
        return up, dup


@dataclass(frozen=True)
class BumpVariation:
    """Shifted profile times a fixed admissible direction xi at the limit shape."""

    l1: float
    l2: float
    shift: float
    xi: np.ndarray
    profile_kind: str = "flattop"
    flat_fraction: float = FLAT_FRACTION
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
    """Linear combination sum_n c_n w_n of translates w_n of one bump variation.

    One coefficient per bump, and supports in increasing order that at most
    touch: OverlappingSupports where two overlap, ValueError for the rest.
    """

    def __init__(self, bumps, coeffs):
        self.bumps = list(bumps)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if not self.bumps or self.coeffs.shape != (len(self.bumps),):
            raise ValueError("need one coefficient per bump, and at least one bump")
        first = self.bumps[0]
        if any((b.l1, b.l2, b.profile) != (first.l1, first.l2, first.profile)
               or b.xi is not first.xi and not np.array_equal(b.xi, first.xi)
               for b in self.bumps):
            raise ValueError("bumps must be translates of one bump: one l1, l2, profile and xi")
        for b1, b2 in zip(self.bumps[:-1], self.bumps[1:]):
            if b1.support[1] > b2.support[0]:
                raise OverlappingSupports(f"supports {b1.support} and {b2.support} overlap")
        self.xi = first.xi
        self.support = (first.support[0], self.bumps[-1].support[1])
        self._shifts = np.array([b.shift for b in self.bumps])
        self._later_starts = np.array([b.support[0] for b in self.bumps[1:]])

    def _owned(self, t):
        """c_n, phi_n and phi_n' at the points of t, from the bump n that owns each.

        Bump n owns the points from its support's start to the next one's, and
        the first bump those before it; every other profile vanishes there.
        """
        # a NaN lies on no support; as -inf it lies before all of them
        t = np.fmax(t, -np.inf)
        owner = np.searchsorted(self._later_starts, t, "right")
        first = self.bumps[0]
        phi, dphi = first.profile.value_and_deriv(t - first.l1 - self._shifts[owner])
        return self.coeffs[owner], phi, dphi

    # each sum is 0.0 + its owner's term, as a sum begun at zero would be: a
    # negative coefficient times a zero profile gives 0.0, not -0.0
    def scalar_and_deriv(self, t):
        c, phi, dphi = self._owned(t)
        return 0.0 + c * phi, 0.0 + c * dphi

    def value(self, t):
        c, phi, _ = self._owned(np.atleast_1d(t))
        return 0.0 + c[..., None, None] * (phi[..., None, None] * self.xi)

    def deriv(self, t):
        c, _, dphi = self._owned(np.atleast_1d(t))
        return 0.0 + c[..., None, None] * (dphi[..., None, None] * self.xi)


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


# Members of one stack of supports refined together; a stack bounds the memory
# of morse_witnesses whatever the number of bumps.
_STACK_ROWS = 16

# Relative change between two refinement levels at which an integral stops;
# the change before it must be within _SETTLED times that bound, since
# Simpson's change shrinks about 16x a level (two levels of that).
QUAD_TOL = 1e-8
_SETTLED = 256.0

# Where each witness bump starts, just past tau = 0.
BUMP_START = 1e-9


def _intervals(width: float, points_per_unit: float) -> int:
    """Number of grid intervals on a support of this width: even, and at least 64."""
    n = max(64, math.ceil(width * points_per_unit))
    return n + n % 2


def _support_grid(traj: Trajectory, lo, hi, intervals: int, midpoints: bool = False):
    """A (G, intervals + 1) grid whose row i spans the support (lo[i], hi[i]).

    Each row is bitwise np.linspace(lo[i], hi[i], intervals + 1).  With
    midpoints, only its odd points are formed, the (G, intervals / 2) points
    that split each interval of the grid with half as many intervals.
    """
    outside = (lo < traj.tau[0] - 1e-12) | (hi > traj.tau_end + 1e-12)
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise SupportOutOfRange(
            f"support ({lo[i]}, {hi[i]}) exceeds horizon [{traj.tau[0]}, {traj.tau_end}]")
    step = (hi - lo) / intervals
    if midpoints:
        grid = np.arange(1.0, intervals, 2.0) * step[:, None]
        grid += lo[:, None]
        return grid
    grid = np.arange(intervals + 1.0) * step[:, None]
    grid += lo[:, None]
    grid[:, -1] = hi
    return grid


def _refine_until(fn, traj, supports, tol, narrowest=None):
    """Composite-Simpson integrals on a stack of supports, refined together on nested grids.

    supports is one (lo, hi) pair or a sequence of them, one per member.  fn
    maps (grid, members), a (G, K) grid whose rows hold points of the
    supports of the members in the index array members, to values of shape
    (G, ..., K); members on one support get copies of one row, built once.
    Each row is integrated, and the tolerance applies to the sum of a
    member's rows.  A member's level k uses n0 2^k intervals, for at most 8
    levels.  Its first count n0 is the first _intervals count, at 16, 32, ...
    points per unit, that differs from the next one: on a support narrower
    than 2 the coarser counts are all the 64-interval floor, and comparing
    two such levels would check nothing.  Where an integrand is made of
    pieces narrower than its support, narrowest (their least width) sets n0
    in place of the support's width, so the pieces are resolved as finely as
    they would be alone.  A support whose feature would split into steps
    below the spacing of floats at its position raises SupportOutOfRange.
    Members that share n0 share every grid.  Their first evaluation is the
    grid of 2 n0 intervals, whose even points are level 0 and which is
    level 1; each later level evaluates only its new midpoints, so no point
    is evaluated twice.  A level's Simpson sum takes its end points and the
    sum of its even interior points from the previous level's values, and
    the sum of its odd points from the new midpoints; strided views of the
    first grid serve levels 0 and 1.  Only members that go on to another
    level have the midpoints interleaved with the values they kept.  A
    member stops at its first non-finite estimate, or at a level whose
    change is within tol (1 + |T|) of its estimate T and whose previous
    change is within _SETTLED times that, and leaves the stack; level 0
    changes from 0, so a member stops at level 1 only near 0.  Returns the
    row estimates, one per member, in the order given.
    """
    lo, hi = np.reshape(np.asarray(supports, dtype=float), (-1, 2)).T
    bounds = list(zip(lo.tolist(), hi.tolist()))
    starts = {}
    for m, (a, b) in enumerate(bounds):
        width = b - a
        feature = width if narrowest is None else min(width, narrowest)
        # the last level splits the feature into at least about 2^13 steps;
        # below the spacing of floats there its points would repeat
        if not feature > 8192.0 * math.ulp(max(abs(a), abs(b))):
            raise SupportOutOfRange(f"support ({a}, {b}) is too narrow to refine at its position")
        rate = 16.0
        while _intervals(feature, 2.0 * rate) == _intervals(feature, rate):
            rate *= 2.0
        starts.setdefault(_intervals(width, rate), []).append(m)

    def grid(members, intervals, shared, midpoints=False):
        rows = members[:1] if shared else members
        points = _support_grid(traj, lo[rows], hi[rows], intervals, midpoints)
        return np.repeat(points, members.size, axis=0) if shared else points

    result = None
    for n, group in sorted(starts.items()):
        members = np.array(group)
        # members on one support, such as the homographic blocks, share one row
        shared = len(group) > 1 and len({bounds[m] for m in group}) == 1
        first = fn(grid(members, 2 * n, shared), members)
        lead = (-1,) + (1,) * (first.ndim - 2)
        # the estimate before level 0 counts as 0, and no change precedes it
        last, change = np.zeros(members.size), np.full(members.size, np.inf)
        for level in range(8):
            if level > 0:
                n *= 2
            # the step _support_grid builds its rows from; grid[:, 1] - grid[:, 0]
            # would lose digits on a support far from tau = 0
            h = ((hi[members] - lo[members]) / n / 3.0).reshape(lead)
            if level == 0:
                simpson = _simpson(h, first, first[..., 2:-1:4], first[..., 4:-1:4])
            elif level == 1:
                simpson = _simpson(h, first, first[..., 1:-1:2], first[..., 2:-1:2])
            else:
                mids = fn(grid(members, n, shared, midpoints=True), members)
                simpson = _simpson(h, kept, mids, kept[..., 1:-1])
            if result is None:
                result = np.empty((lo.size,) + simpson.shape[1:])
            result[members] = simpson
            totals = simpson.reshape(members.size, -1).sum(axis=-1)
            bound = tol * (1.0 + np.abs(totals))
            previous, change = change, np.abs(totals - last)
            done = ~np.isfinite(totals) | ((change <= bound) & (previous <= _SETTLED * bound))
            stopped = np.count_nonzero(done)
            if stopped == done.size or level == 7:
                break
            going = ~done
            if level > 1:
                # this level's values in grid order, row by row for the members
                # that go on, so that kept[going] is never copied whole
                vals = np.empty((done.size - stopped,) + mids.shape[1:-1] + (n + 1,))
                for row, member in enumerate(np.flatnonzero(going).tolist()):
                    vals[row, ..., ::2] = kept[member]
                    vals[row, ..., 1::2] = mids[member]
                # the next level's evaluation needs neither the old values nor mids
                kept, mids = vals, None
            if not stopped:
                last = totals
            else:
                members, last, change = members[going], totals[going], change[going]
                if level < 2:
                    first = first[going]
            if level == 1:
                kept, first = first, None
    return result


def _simpson(h, ends, odd, even):
    """h (f_0 + f_n + 4 (f_1 + f_3 + ...) + 2 (f_2 + f_4 + ...)) over the last axis.

    ends holds f_0 and f_n as its first and last points; odd and even hold the
    odd and the even interior points.
    """
    return h * (ends[..., 0] + ends[..., -1] + 4.0 * odd.sum(axis=-1) + 2.0 * even.sum(axis=-1))


def _mdot(m, a, b):
    return np.einsum("j,kjd,kjd->k", m, a, b)


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
    D2U_E(s0)(w, w) = H phi^2.  On exact data rho'/rho is the constant -c,
    taken as a scalar; the grids come from _support_grid, which checks the
    horizon that Trajectory.log_rate would.  The rows are written into one
    (..., 4, K) array with each element formed as in the expressions above.
    Elsewhere w and w' go through the per-sample stacks.
    """
    if not traj.frozen_shape:
        return _sampled_integrand(traj, lambda grid, members: tuple(
            p.reshape(-1, 1, 1) * xi for p in scalars(grid, members)))
    n_m, hess = _frozen_pairings(traj, xi)

    def integrand(grid, members):
        rate = traj.log_rate(grid) if traj.decay_rate is None else -traj.decay_rate
        phi, dphi = scalars(grid, members)
        rows = np.empty(grid.shape[:-1] + (4, grid.shape[-1]))
        kin, radial, cross, hessian = np.moveaxis(rows, -2, 0)
        np.square(dphi, out=kin)
        kin *= n_m
        np.square(phi, out=hessian)
        np.multiply(rate * rate * n_m, hessian, out=radial)
        np.multiply(-2.0 * rate * n_m, phi, out=cross)
        cross *= dphi
        hessian *= hess
        return rows

    return integrand


def _report(parts) -> SecondVariationReport:
    """The report of one member's kinetic, radial, cross and Hessian parts."""
    return SecondVariationReport(value=float(parts.sum()), kinetic=float(parts[0]),
                                 rho_term=float(parts[1]), cross=float(parts[2]),
                                 hessian=float(parts[3]))


def quadratic_Q(traj: Trajectory, variation) -> SecondVariationReport:
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
    return _report(_refine_until(integrand, traj, variation.support, QUAD_TOL, narrowest)[0])


def witness_horizon(bumps: int, width: float) -> float:
    """The tau that morse_witnesses(traj, xi, bumps, width) needs: 2 (bumps + 1) width.

    ValueError past ORACLE_MAX_TAU, in the terms of the --bumps and --width
    options; bumps is compared as the integer it is, which may not fit a float.
    """
    if bumps + 1 > ORACLE_MAX_TAU / (2.0 * width):
        raise ValueError(f"--bumps {bumps} with --width {width:g} reach past tau = "
                         f"{ORACLE_MAX_TAU:g}, the oracle's cap of {ORACLE_MAX_SAMPLES} samples")
    return bumps * 2.0 * width + 2.0 * width


def morse_witnesses(traj: Trajectory, xi, bumps: int, width: float,
                    flat_fraction: float = FLAT_FRACTION) -> SecondVariationReport:
    """Count negative values of Q over bumps translates of one flat-top bump along xi.

    Bump k lies on (BUMP_START + s_k, width + s_k) with s_k = width + 2 width k,
    so the supports are disjoint and end before witness_horizon(bumps, width).
    Each stack of _STACK_ROWS bumps is refined together, and then checked on
    random coefficients for the additivity that disjoint supports give,
    Q(sum c_n w_n) = sum c_n^2 Q(w_n).
    """
    xi = np.asarray(xi, dtype=float).reshape(traj.s[0].shape)
    nbody.check_tangent(traj.s[0], traj.masses, xi)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-8:
        raise ValueError("probe direction must have unit norm")
    if bumps < 1:
        raise ValueError("need at least one bump")
    bump = functools.partial(BumpVariation, l1=BUMP_START, l2=width, xi=xi,
                             flat_fraction=flat_fraction)
    profile = bump(shift=0.0).profile  # ValueError unless BUMP_START < width
    shifts = width + 2.0 * width * np.arange(bumps)
    coeffs = np.random.default_rng(0).standard_normal(bumps)

    def scalars(grid, members):
        # each row evaluates the one profile shifted to its member of the
        # stack being refined, as BumpVariation.scalar_and_deriv does
        return profile.value_and_deriv(grid - BUMP_START - stack_shifts[members])

    integrand = _bump_integrand(traj, xi, scalars)
    reports = []
    for start in range(0, bumps, _STACK_ROWS):
        stack_shifts = shifts[start:start + _STACK_ROWS, None]
        stack = [bump(shift=sh) for sh in stack_shifts[:, 0].tolist()]
        q_stack = [_report(p) for p in _refine_until(integrand, traj, [b.support for b in stack],
                                                     QUAD_TOL)]
        reports += q_stack
        # the stack's own combination, so that its refinement, which starts
        # at the narrowest bump's density, spans _STACK_ROWS supports
        c = coeffs[start:start + _STACK_ROWS]
        q_combo = quadratic_Q(traj, CombinedVariation(stack, c)).value
        q_expected = float(np.sum(c**2 * np.array([r.value for r in q_stack])))
        if not abs(q_combo - q_expected) <= 1e-8 * (1.0 + abs(q_expected)):
            raise AssertionError(
                f"disjoint-support additivity violated: {q_combo} vs {q_expected}")
    q_vals = tuple(r.value for r in reports)
    worst = min(reports, key=lambda r: r.value)
    return replace(worst, q_values=q_vals, witnesses=sum(q < 0.0 for q in q_vals))


# ---------------------------------------------------------------------------
# homographic second-variation blocks


def homographic_blocks(traj: Trajectory, zeta, variation):
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
        # the blocks are members 0, 1, 2 on one support, so the rows of grid
        # are copies of one row; each path is taken once, and only for a
        # running block that needs it
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

    return tuple(_refine_until(integrand, traj, [support] * 3, QUAD_TOL).tolist())


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
