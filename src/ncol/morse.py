"""Second variation of the action in the shape variable and bump-probe machinery.

The working form after the substitution w = rho v is

    Q(w) = int |w'|^2 + (rho'/rho)^2 |w|^2 - 2 (rho'/rho) <w', w> + D2U_E(s)(w, w) dtau

with all pairings mass-weighted.  On an exact zero-energy collapse the cross
term integrates away and Q reduces to the Dirichlet energy against the margin
coefficient, which is what the witness counts probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nbody
from .errors import NotHomographic, OverlappingSupports, SupportOutOfRange
from .mcgehee import Trajectory


# ---------------------------------------------------------------------------
# smooth compactly supported profiles


def _soft(u):
    """exp(-1/u) extended by zero for u <= 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 1e-12
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def _soft_d(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 1e-12
    out[pos] = np.exp(-1.0 / u[pos]) / u[pos] ** 2
    return out


def _transition(u):
    """C-infinity monotone step from 0 at u<=0 to 1 at u>=1."""
    a, b = _soft(u), _soft(1.0 - np.asarray(u, dtype=float))
    return a / (a + b)


def _transition_d(u):
    u = np.asarray(u, dtype=float)
    a, b = _soft(u), _soft(1.0 - u)
    da, db = _soft_d(u), -_soft_d(1.0 - u)
    denom = (a + b) ** 2
    out = np.zeros_like(u)
    ok = denom > 0
    out[ok] = (da[ok] * b[ok] - a[ok] * db[ok]) / denom[ok]
    return out


@dataclass(frozen=True)
class Profile:
    """Smooth bump on (0, width); kind 'bump' or 'flattop'."""

    width: float
    kind: str = "flattop"
    flat_fraction: float = 0.8

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "bump":
            z = 2.0 * u / self.width - 1.0
            out = np.zeros_like(z)
            inside = np.abs(z) < 1.0
            out[inside] = np.exp(-1.0 / (1.0 - z[inside] ** 2) + 1.0)
            return out
        ramp = 0.5 * (1.0 - self.flat_fraction) * self.width
        up = _transition(u / ramp)
        down = _transition((self.width - u) / ramp)
        return up * down

    def deriv(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "bump":
            z = 2.0 * u / self.width - 1.0
            out = np.zeros_like(z)
            inside = np.abs(z) < 1.0
            zi = z[inside]
            out[inside] = np.exp(-1.0 / (1.0 - zi**2) + 1.0) * (-2.0 * zi / (1.0 - zi**2) ** 2) \
                * (2.0 / self.width)
            return out
        ramp = 0.5 * (1.0 - self.flat_fraction) * self.width
        up = _transition(u / ramp)
        down = _transition((self.width - u) / ramp)
        dup = _transition_d(u / ramp) / ramp
        ddown = -_transition_d((self.width - u) / ramp) / ramp
        return dup * down + up * ddown

    def dirichlet_ratio(self, n: int = 4001) -> float:
        """int phi'^2 / int phi^2, the kinetic cost of the profile."""
        u = np.linspace(0.0, self.width, n)
        num = np.trapezoid(self.deriv(u) ** 2, u)
        den = np.trapezoid(self.value(u) ** 2, u)
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

    def scalar(self, t):
        return self.profile.value(np.asarray(t) - self.l1 - self.shift)

    def scalar_deriv(self, t):
        return self.profile.deriv(np.asarray(t) - self.l1 - self.shift)

    def value(self, t):
        t = np.atleast_1d(t)
        return self.scalar(t)[:, None, None] * self.xi

    def deriv(self, t):
        t = np.atleast_1d(t)
        return self.scalar_deriv(t)[:, None, None] * self.xi


class CombinedVariation:
    """Linear combination sum_n c_n w_n of bump variations."""

    def __init__(self, bumps, coeffs):
        self.bumps = list(bumps)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.support = (min(b.support[0] for b in bumps), max(b.support[1] for b in bumps))
        if all(np.array_equal(b.xi, bumps[0].xi) for b in bumps):
            self.xi = bumps[0].xi

    def _sum(self, part, t):
        """sum_n c_n part_n(t), evaluating each bump only on its own support.

        Profiles vanish exactly off their supports, so the skipped terms are
        zeros and the sum is bitwise that of the full evaluation.
        """
        out = None
        for c, b in zip(self.coeffs, self.bumps):
            lo, hi = b.support
            inside = (t >= lo) & (t <= hi)
            vals = c * getattr(b, part)(t[inside])
            if out is None:
                out = np.zeros(t.shape + vals.shape[1:])
            out[inside] += vals
        return out

    def scalar(self, t):
        return self._sum("scalar", np.asarray(t, dtype=float))

    def scalar_deriv(self, t):
        return self._sum("scalar_deriv", np.asarray(t, dtype=float))

    def value(self, t):
        return self._sum("value", np.atleast_1d(np.asarray(t, dtype=float)))

    def deriv(self, t):
        return self._sum("deriv", np.atleast_1d(np.asarray(t, dtype=float)))


def _is_scalar_bump(variation) -> bool:
    """A variation of the form phi(tau) xi with a fixed direction xi."""
    return hasattr(variation, "xi") and hasattr(variation, "scalar")


@dataclass(frozen=True)
class SecondVariationReport:
    value: float
    kinetic: float
    rho_term: float
    cross: float
    hessian: float
    q_values: tuple = ()
    witnesses: int | None = None
    projection_correction: float = 0.0

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


def _intervals(width: float, points_per_unit: float) -> int:
    """Number of grid intervals on a support of this width: even, and at least 64."""
    n = max(64, int(np.ceil(width * points_per_unit)))
    return n + n % 2


def _support_grid(traj: Trajectory, support, points_per_unit: float):
    lo, hi = support
    if lo < traj.tau[0] - 1e-12 or hi > traj.tau_end + 1e-12:
        raise SupportOutOfRange(
            f"support ({lo}, {hi}) exceeds horizon [{traj.tau[0]}, {traj.tau_end}]")
    return np.linspace(lo, hi, _intervals(hi - lo, points_per_unit) + 1)


def _refine_until(integral_fns, traj, support, tol):
    """Composite-Simpson integrals refined together by grid doubling.

    Each of integral_fns maps a grid of K points to values of shape (..., K);
    each leading row is integrated, and the tolerance applies to their sum.
    An integral stops at its own tolerance (or at its first non-finite
    estimate) while the others go on refining.  Every level builds one grid,
    so an integrand may reuse what another computed on that same grid object.
    The first level is the first whose grid differs from the next one's: on
    a support narrower than 2 the coarser levels are all the same 64-interval
    grid, and comparing two of them would check nothing.  Returns the row
    estimates of each integral, in the order given.
    """
    ppu = 16.0
    width = support[1] - support[0]
    while _intervals(width, 2.0 * ppu) == _intervals(width, ppu):
        ppu *= 2.0
    results = [None] * len(integral_fns)
    prev = [None] * len(integral_fns)
    running = list(range(len(integral_fns)))
    for _ in range(8):
        grid = _support_grid(traj, support, ppu)
        step = grid[1] - grid[0]
        for k in tuple(running):
            vals = integral_fns[k](grid)
            simpson = step / 3.0 * (vals[..., 0] + vals[..., -1]
                                    + 4.0 * vals[..., 1:-1:2].sum(axis=-1)
                                    + 2.0 * vals[..., 2:-1:2].sum(axis=-1))
            total = simpson.sum()
            if not np.isfinite(total) or (
                    prev[k] is not None and abs(total - prev[k]) <= tol * (1.0 + abs(total))):
                running.remove(k)
            results[k], prev[k] = simpson, total
        if not running:
            break
        ppu *= 2.0
    return results


def _mdot(m, a, b):
    return np.einsum("j,kjd,kjd->k", m, a, b)


def second_variation_s(traj: Trajectory, variation, quad_tol: float = 1e-8) -> float:
    """int rho^2 (|v'|_M^2 + D2U_E(s)(v, v)) dtau for a compactly supported v."""
    m = traj.masses

    def integrand(grid):
        rho, _, s, _ = traj.evaluate(grid)
        v = variation.value(grid)
        dv = variation.deriv(grid)
        kin = _mdot(m, dv, dv)
        hess = traj.potential_scale * nbody.hessian_on_ellipsoid_stack(s, m, traj.alpha, v)
        return rho**2 * (kin + hess)

    return float(_refine_until([integrand], traj, variation.support, quad_tol)[0])


def _sampled_integrand(traj: Trajectory, variation):
    """Rows of Q from the per-sample (K, N, d) stacks; any variation, any data."""
    m = traj.masses

    def integrand(grid):
        _, _, s, _ = traj.evaluate(grid)
        ratio = traj.log_rate(grid)
        w = variation.value(grid)
        dw = variation.deriv(grid)
        kin = _mdot(m, dw, dw)
        mass2 = _mdot(m, w, w)
        crossdot = _mdot(m, dw, w)
        hess = traj.potential_scale * nbody.hessian_on_ellipsoid_stack(s, m, traj.alpha, w)
        return np.stack([kin, ratio**2 * mass2, -2.0 * ratio * crossdot, hess])

    return integrand


def _frozen_pairings(traj: Trajectory, xi):
    """|xi|_M^2 and D2U_E(s0)(xi, xi) at the frozen shape s0 = traj.s[0]."""
    m = traj.masses
    n_m = float(np.einsum("j,jd,jd->", m, xi, xi))
    hess = traj.potential_scale * float(
        nbody.hessian_on_ellipsoid_stack(traj.s[0], m, traj.alpha, xi))
    return n_m, hess


def _frozen_integrand(traj: Trajectory, variation):
    """Rows of Q for w = phi(tau) xi on frozen-shape data, in scalars.

    With s = s0 the pairings are constants: |w'|^2 = nM phi'^2,
    |w|^2 = nM phi^2, <w', w> = nM phi phi' and D2U_E(s0)(w, w) = H phi^2.
    """
    n_m, hess = _frozen_pairings(traj, variation.xi)

    def integrand(grid):
        ratio = traj.log_rate(grid)
        phi = variation.scalar(grid)
        dphi = variation.scalar_deriv(grid)
        return np.stack([n_m * dphi**2, ratio**2 * n_m * phi**2,
                         -2.0 * ratio * n_m * phi * dphi, hess * phi**2])

    return integrand


def quadratic_Q(traj: Trajectory, variation, quad_tol: float = 1e-8) -> SecondVariationReport:
    """Evaluate Q(w) with its kinetic / radial / cross / Hessian breakdown.

    rho'/rho comes from Trajectory.log_rate, so Q stays finite past rho
    underflow.  Bumps phi(tau) xi on frozen-shape data are integrated in
    scalars; other variations go through the per-sample (K, N, d) stacks.
    """
    if traj.frozen_shape and _is_scalar_bump(variation):
        integrand = _frozen_integrand(traj, variation)
    else:
        integrand = _sampled_integrand(traj, variation)
    parts, = _refine_until([integrand], traj, variation.support, quad_tol)
    return SecondVariationReport(value=float(parts.sum()), kinetic=float(parts[0]),
                                 rho_term=float(parts[1]), cross=float(parts[2]),
                                 hessian=float(parts[3]))


def default_shifts(count: int, l1: float, l2: float, start: float | None = None):
    """Shifts spacing supports by one extra width, keeping them pairwise disjoint."""
    width = l2 - l1
    if start is None:
        start = width
    return [start + 2.0 * width * k for k in range(count)]


def morse_witnesses(traj: Trajectory, xi, shifts, l1: float = 0.0, l2: float = 20.0,
                    profile: str = "flattop", flat_fraction: float = 0.8,
                    quad_tol: float = 1e-8, combo_seed: int = 0) -> SecondVariationReport:
    """Count negative values of Q over a family of disjointly supported bumps.

    Also verifies on a random coefficient vector that disjoint supports make Q
    additive, i.e. Q(sum c_n w_n) = sum c_n^2 Q(w_n).
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
    reports = [quadratic_Q(traj, b, quad_tol) for b in bumps]
    q_vals = tuple(r.value for r in reports)
    witnesses = int(sum(1 for q in q_vals if q < 0.0))
    rng = np.random.default_rng(combo_seed)
    coeffs = rng.standard_normal(len(bumps))
    combo = CombinedVariation(bumps, coeffs)
    q_combo = quadratic_Q(traj, combo, quad_tol).value
    q_expected = float(np.sum(coeffs**2 * np.array(q_vals)))
    scale = 1.0 + abs(q_expected)
    if not abs(q_combo - q_expected) <= 1e-8 * scale:
        raise AssertionError(
            f"disjoint-support additivity violated: {q_combo} vs {q_expected}")
    worst = min(reports, key=lambda r: r.value)
    return SecondVariationReport(value=worst.value, kinetic=worst.kinetic,
                                 rho_term=worst.rho_term, cross=worst.cross,
                                 hessian=worst.hessian, q_values=q_vals, witnesses=witnesses)


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
            phi = bump.scalar(t)[:, None, None]
            xi = bump.xi
            coef = np.einsum("j,jd,kjd->k", m, xi, s)[:, None, None]
            return phi * (xi - coef * s)

        def deriv(self, t):
            t = np.atleast_1d(t)
            _, _, s, sp = traj.evaluate(t)
            phi = bump.scalar(t)[:, None, None]
            dphi = bump.scalar_deriv(t)[:, None, None]
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


def homographic_blocks(traj: Trajectory, zeta, variation, quad_tol: float = 1e-8):
    """The radial, mixed and shape blocks of the second variation on frozen-shape data.

    zeta is a scalar path (scalar/scalar_deriv), variation a bump phi(tau) xi
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
    interpolated = {}

    def rho_on(grid):
        # the integrals refine on shared grids: one rho interpolation per grid
        if interpolated.get("grid") is not grid:
            interpolated.update(grid=grid, rho=traj.rho_at(grid))
        return interpolated["rho"]

    def rho_integrand(grid):
        return coef * zeta.scalar_deriv(grid) ** 2 + zeta.scalar(grid) ** 2 * two_u

    def mixed_integrand(grid):
        return 2.0 * rho_on(grid) * zeta.scalar(grid) * (variation.scalar(grid) * force)

    def shape_integrand(grid):
        phi, dphi = variation.scalar(grid), variation.scalar_deriv(grid)
        return rho_on(grid) ** 2 * (n_m * dphi**2 + hess * phi**2)

    d2_rho, d2_mixed, d2_shape = _refine_until(
        [rho_integrand, mixed_integrand, shape_integrand], traj, support, quad_tol)
    return float(d2_rho), float(d2_mixed), float(d2_shape)


@dataclass(frozen=True)
class ScalarBump:
    """Scalar compactly supported path for the radial direction."""

    l1: float
    l2: float
    shift: float = 0.0
    amplitude: float = 1.0
    profile_kind: str = "bump"
    profile: Profile = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "profile", Profile(width=self.l2 - self.l1,
                                                    kind=self.profile_kind))

    @property
    def support(self):
        return (self.l1 + self.shift, self.l2 + self.shift)

    def scalar(self, t):
        return self.amplitude * self.profile.value(np.asarray(t) - self.l1 - self.shift)

    def scalar_deriv(self, t):
        return self.amplitude * self.profile.deriv(np.asarray(t) - self.l1 - self.shift)
