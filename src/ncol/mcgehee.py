"""Collision-adapted coordinates and the variational flow near total collapse.

Variables: r = sqrt(I(x)), s = x/r on the ellipsoid, rho = r^((2-alpha)/4),
scaled time dt = r^((2+alpha)/2) dtau.  Collapse sits at tau = +infinity where
rho decays exponentially with asymptotic rate ((2-alpha)/4) sqrt(2 b).

A caution on measured energies: reconstructing h from a state cancels terms
of size rho^2 against a rho^beta residue, and state rounding feeds an
unstable mode of the conserved quantity, so the measured trace carries a
noise floor growing like eps * rho^(-beta) as rho -> 0.  Consumers that
assert conservation restrict themselves to the trusted prefix where that
noise sits below their tolerance (see Trajectory.trusted_prefix).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nbody
from .errors import (EllipsoidDrift, InsufficientHorizon, NonCollapsing,
                     StepFailure, ZeroConfiguration)


def beta_exponent(alpha: float) -> float:
    """beta = 2(2+alpha)/(2-alpha) > 2, the radial forcing exponent."""
    alpha = nbody.validate_alpha(alpha)
    return 2.0 * (2.0 + alpha) / (2.0 - alpha)


@dataclass(frozen=True)
class McGeheeState:
    rho: float
    rho_prime: float
    s: np.ndarray
    s_prime: np.ndarray

    def validated(self, m) -> "McGeheeState":
        if self.rho <= 0.0:
            raise ZeroConfiguration("rho must be positive")
        m = nbody.as_masses(m)
        inertia = nbody.moment_of_inertia(self.s, m)
        if abs(inertia - 1.0) > 1e-10:
            raise ValueError(f"shape point off the ellipsoid: I = {inertia}")
        radial = float(np.sum(m[:, None] * self.s * self.s_prime))
        if abs(radial) > 1e-10:
            raise ValueError(f"shape velocity not tangent: <Ms, s'> = {radial:.3e}")
        return self


def to_mcgehee(x, xdot, m, alpha) -> McGeheeState:
    """Map Cartesian positions and velocities to (rho, rho', s, s')."""
    x = nbody.as_positions(x)
    xdot = np.asarray(xdot, dtype=float).reshape(x.shape)
    m = nbody.as_masses(m)
    alpha = nbody.validate_alpha(alpha)
    inertia = nbody.moment_of_inertia(x, m)
    if inertia <= 0.0:
        raise ZeroConfiguration("zero moment of inertia")
    r = np.sqrt(inertia)
    s = x / r
    rdot = float(np.sum(m[:, None] * x * xdot)) / r
    sdot = (xdot - rdot * s) / r
    time_factor = r ** ((2.0 + alpha) / 2.0)
    r_prime = rdot * time_factor
    rho = r ** ((2.0 - alpha) / 4.0)
    rho_prime = (2.0 - alpha) / 4.0 * r ** (-(2.0 + alpha) / 4.0) * r_prime
    s_prime = sdot * time_factor
    return McGeheeState(rho=rho, rho_prime=rho_prime, s=s, s_prime=s_prime).validated(m)


def from_mcgehee(state: McGeheeState, m, alpha):
    """Inverse map back to Cartesian positions and velocities."""
    alpha = nbody.validate_alpha(alpha)
    r = state.rho ** (4.0 / (2.0 - alpha))
    x = r * state.s
    time_factor = r ** (-(2.0 + alpha) / 2.0)
    r_prime = 4.0 / (2.0 - alpha) * state.rho ** ((2.0 + alpha) / (2.0 - alpha)) * state.rho_prime
    rdot = r_prime * time_factor
    sdot = state.s_prime * time_factor
    xdot = rdot * state.s + r * sdot
    return x, xdot


def energy(state: McGeheeState, m, alpha, potential_scale: float = 1.0) -> float:
    """Conserved energy h = rho^(-beta) (1/2 (4/(2-a))^2 rho'^2 + rho^2 (1/2 |s'|_M^2 - U(s)))."""
    s, m, alpha = nbody.checked(state.s, m, alpha)
    return float(_energy_stack(state.rho, state.rho_prime, s, state.s_prime, m, alpha,
                               potential_scale))


def _energy_stack(rho, rho_prime, s, s_prime, m, alpha, potential_scale):
    """energy over stacks of samples: rho (...,), s and s' (..., N, d)."""
    beta = beta_exponent(alpha)
    kin = 0.5 * (4.0 / (2.0 - alpha)) ** 2 * rho_prime**2
    sp2 = np.sum(m * np.sum(s_prime**2, axis=-1), axis=-1)
    u = potential_scale * nbody.potential_stack(s, m, alpha)
    return rho ** (-beta) * (kin + rho**2 * (0.5 * sp2 - u))


@dataclass(frozen=True)
class IntegratorOptions:
    rtol: float = 1e-10
    max_step: float = 0.1
    first_step: float = 1e-3
    rho_min: float = 1e-8
    drift_abort: float = 1e-6
    max_steps: int = 100_000


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow in the collision coordinates, with interpolation helpers.

    lambda1 is the measured multiplier trace -beta * h(tau); lambda2 the trace
    rho^2 |s'|_M^2.  exact_homothetic marks trajectories backed by the closed
    zero-energy collapse formula rho = exp(-c tau), s const.
    """

    alpha: float
    masses: np.ndarray
    tau: np.ndarray
    rho: np.ndarray
    rho_prime: np.ndarray
    s: np.ndarray
    s_prime: np.ndarray
    h: float
    potential_scale: float = 1.0
    exact_homothetic: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def beta(self) -> float:
        return beta_exponent(self.alpha)

    @property
    def n_samples(self) -> int:
        return self.tau.size

    @property
    def tau_end(self) -> float:
        return float(self.tau[-1])

    # -- traces ------------------------------------------------------------
    def potential_trace(self) -> np.ndarray:
        return self.potential_scale * nbody.potential_stack(self.s, self.masses, self.alpha)

    def energy_trace(self) -> np.ndarray:
        return _energy_stack(self.rho, self.rho_prime, self.s, self.s_prime, self.masses,
                             self.alpha, self.potential_scale)

    def lambda1_trace(self) -> np.ndarray:
        return -self.beta * self.energy_trace()

    def lambda2_trace(self) -> np.ndarray:
        sp2 = np.einsum("j,kjd,kjd->k", self.masses, self.s_prime, self.s_prime)
        return self.rho**2 * sp2

    def sprime_norm_trace(self) -> np.ndarray:
        return np.sqrt(np.einsum("j,kjd,kjd->k", self.masses, self.s_prime, self.s_prime))

    def trusted_prefix(self, tol: float) -> np.ndarray:
        """Sample mask where the measured energy is meaningful at tolerance tol.

        Reconstructing h cancels terms of size rho^2 against a rho^beta
        residue, and state rounding feeds an unstable mode of the conserved
        quantity, so the noise floor grows like eps * (rho0/rho)^beta.
        """
        scale = 8.0 * max(1.0, abs(self.h)) * max(
            1.0, self.potential_scale * nbody.potential(self.s[0], self.masses, self.alpha))
        noise = np.finfo(float).eps * (self.rho / self.rho[0]) ** (-self.beta) * scale
        return noise < tol / 5.0

    # -- interpolation -----------------------------------------------------
    @property
    def frozen_shape(self) -> bool:
        """True when every sample sits at s[0] with zero shape velocity."""
        if self.exact_homothetic:
            return True
        return not np.any(self.s_prime) and bool(np.all(self.s == self.s[0]))

    def _checked_tau(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.min() < self.tau[0] - 1e-12 or t.max() > self.tau[-1] + 1e-12:
            raise ValueError(f"tau range [{t.min()}, {t.max()}] outside trajectory horizon")
        return t

    def _hermite(self, t: np.ndarray):
        """Sample index with the cubic Hermite weights and their tau-derivatives."""
        idx, h, u = self._locate(t)
        h00 = (1 + 2 * u) * (1 - u) ** 2
        h10 = u * (1 - u) ** 2
        h01 = u**2 * (3 - 2 * u)
        h11 = u**2 * (u - 1)
        dh00 = 6 * u * (u - 1) / h
        dh10 = (1 - u) * (1 - 3 * u) / h
        dh01 = -6 * u * (u - 1) / h
        dh11 = u * (3 * u - 2) / h
        return idx, (h00, h10 * h, h01, h11 * h), (dh00, dh10 * h, dh01, dh11 * h)

    def _log_rho(self, idx, w) -> np.ndarray:
        lr0, lr1 = np.log(self.rho[idx]), np.log(self.rho[idx + 1])
        sl0 = self.rho_prime[idx] / self.rho[idx]
        sl1 = self.rho_prime[idx + 1] / self.rho[idx + 1]
        return w[0] * lr0 + w[1] * sl0 + w[2] * lr1 + w[3] * sl1

    def log_rate(self, t) -> np.ndarray:
        """rho'/rho at tau values t, formed without dividing rho' by rho.

        The ratio stays finite where rho itself underflows (c tau > ~745 on
        the exact collapse): exact data returns -c, sampled data the
        derivative of the Hermite interpolant of log rho used by evaluate.
        """
        t = self._checked_tau(t)
        if self.exact_homothetic:
            return np.full(t.shape, -self.meta["decay_rate"])
        idx, _, dw = self._hermite(t)
        return self._log_rho(idx, dw)

    def _locate(self, t: np.ndarray):
        idx = np.clip(np.searchsorted(self.tau, t, side="right") - 1, 0, self.n_samples - 2)
        t0, t1 = self.tau[idx], self.tau[idx + 1]
        h = t1 - t0
        u = (t - t0) / h
        return idx, h, u

    def rho_at(self, t) -> np.ndarray:
        """Interpolated rho at tau values t, as evaluate gives it, without the shape."""
        t = self._checked_tau(t)
        if self.exact_homothetic:
            return np.exp(-self.meta["decay_rate"] * t)
        idx, w, _ = self._hermite(t)
        return np.exp(self._log_rho(idx, w))

    def evaluate(self, t):
        """Interpolated (rho, rho', s, s') at tau values t (scalar or array).

        rho is interpolated through its logarithm with Hermite cubics (log rho
        is nearly linear along a collapse, so this preserves relative
        accuracy); s uses Hermite cubics with the stored velocities.
        """
        t = self._checked_tau(t)
        if self.exact_homothetic:
            rho = self.rho_at(t)
            rho_p = -self.meta["decay_rate"] * rho
            s = np.broadcast_to(self.s[0], (t.size,) + self.s[0].shape).copy()
            s_p = np.zeros_like(s)
            return rho, rho_p, s, s_p
        idx, w, dw = self._hermite(t)
        rho = np.exp(self._log_rho(idx, w))
        rho_p = rho * self._log_rho(idx, dw)
        shape = self.s[0].shape
        bc = (slice(None),) + (None,) * len(shape)
        s0v, s1v = self.s[idx], self.s[idx + 1]
        sp0, sp1 = self.s_prime[idx], self.s_prime[idx + 1]
        s = w[0][bc] * s0v + w[1][bc] * sp0 + w[2][bc] * s1v + w[3][bc] * sp1
        s_p = dw[0][bc] * s0v + dw[1][bc] * sp0 + dw[2][bc] * s1v + dw[3][bc] * sp1
        return rho, rho_p, s, s_p

    def to_csv(self, path) -> None:
        n, d = self.s.shape[1], self.s.shape[2]
        cols = ["tau", "rho", "rho_prime"]
        cols += [f"s_{i+1}_{c+1}" for i in range(n) for c in range(d)]
        cols += [f"sp_{i+1}_{c+1}" for i in range(n) for c in range(d)]
        cols += ["U_s", "h", "lambda1", "lambda2"]
        u_tr = self.potential_trace()
        h_tr = self.energy_trace()
        lam1 = -self.beta * h_tr
        lam2 = self.lambda2_trace()
        rows = np.column_stack([
            self.tau, self.rho, self.rho_prime,
            self.s.reshape(self.n_samples, -1), self.s_prime.reshape(self.n_samples, -1),
            u_tr, h_tr, lam1, lam2,
        ])
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            np.savetxt(fh, rows, delimiter=",")


# ---------------------------------------------------------------------------
# flow field and integration

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


# the stage rows A[i, :i] shaped to weight the stages ks[:i], and the nodes
_DP_ROWS = [_DP_A[i, :i, None] for i in range(7)]
_DP_NODES = _DP_C.tolist()


def _dp54(f, t, y, hstep, running, *, rtol, atol, floor, project, max_step=np.inf,
          t_end=np.inf, max_steps=np.inf):
    """Dormand-Prince 5(4) pair with standard error control (Hairer, Norsett &
    Wanner, Solving ODEs I, II.4); returns the accepted times and states.

    Steps while running(t, y), each step clipped to max_step and to t_end.  An
    accepted solution passes through project(t, y) before it is stored, and
    the next step starts from a fresh f(t, y).
    Raises StepFailure when the step falls below floor(t), and when running
    still holds after max_steps attempted steps, accepted or rejected.
    """
    ts, ys = [t], [y.copy()]
    ks = np.empty((7, y.size))
    ks[0] = f(t, y)
    attempts = 0
    while running(t, y):
        if attempts >= max_steps:
            raise StepFailure(f"step budget spent: {attempts} attempted steps, "
                              f"{len(ts) - 1} accepted, at t = {t}")
        attempts += 1
        hstep = min(hstep, t_end - t)
        if hstep < floor(t):
            raise StepFailure(f"step size underflow at t = {t}")
        for i in range(1, 7):
            # summed row by row in tableau order, as a Python sum would; a matrix
            # product rounds differently and would move the trajectories.  The
            # in-place scaling forms y + hstep * sum with the same roundings.
            yi = np.add.reduce(_DP_ROWS[i] * ks[:i])
            yi *= hstep
            yi += y
            ks[i] = f(t + _DP_NODES[i] * hstep, yi)
        y5 = _DP_B5 @ ks
        y5 *= hstep
        y5 += y
        y4 = _DP_B4 @ ks
        y4 *= hstep
        y4 += y
        sc = np.maximum(np.abs(y), np.abs(y5))
        sc *= rtol
        sc += atol
        q = y5 - y4
        q /= sc
        err = math.sqrt(np.add.reduce(q * q).item() / q.size)  # np.mean's arithmetic
        if err <= 1.0:
            t += hstep
            ts.append(t)
            y = project(t, y5)
            ks[0] = f(t, y)
            ys.append(y.copy())
        factor = 0.9 * err ** (-0.2) if err > 0 else 5.0
        hstep = min(max_step, hstep * min(5.0, max(0.2, factor)))
    return np.array(ts), np.array(ys)


def _flow(alpha, m, h, scale, d):
    beta = beta_exponent(alpha)
    coef = ((2.0 - alpha) / 4.0) ** 2
    n = m.size
    nd = n * d
    m_col = m[:, None]
    # the pair constants of nbody.potential_gradient_stack, formed once
    ii, jj = nbody.pair_indices(n)
    mm = m[ii] * m[jj]
    amm = -alpha * mm
    exponent = -(alpha + 2.0)
    gather = nbody._pair_gather_index(n)
    beta_h, beta_m1 = beta * h, beta - 1.0

    def f(_tau, y):
        rho, p = y[:2].tolist()
        s = y[2:2 + nd].reshape(n, d)
        u = y[2 + nd:].reshape(n, d)
        _, _, diff, dist = nbody.pair_separations(s)
        nbody._require_separated(dist)
        pot = scale * nbody._potential_from(alpha, mm, dist).item()
        grad = nbody._gradient_from(amm, exponent, diff, dist, gather)
        grad *= scale
        sp2 = np.add.reduce(m * np.add.reduce(u * u, axis=1)).item()
        out = np.empty(y.size)
        out[0] = p
        out[1] = coef * (rho * (sp2 + 2.0 * pot) + beta_h * rho ** beta_m1)
        out[2:2 + nd] = y[2 + nd:]
        # shape equation with the multiplier eliminated: the tangential gradient
        # M^-1 grad U + alpha U s vanishes identically at central shapes
        du = out[2 + nd:].reshape(n, d)
        np.multiply(-2.0 * (p / rho), u, out=du)
        grad /= m_col
        grad += alpha * pot * s
        du += grad
        du -= sp2 * s
        return out

    return f


def integrate_el(initial: McGeheeState, m, alpha, tau_max: float,
                 opts: IntegratorOptions = IntegratorOptions(),
                 potential_scale: float = 1.0) -> Trajectory:
    """Integrate the reduced flow with an embedded 5(4) pair in tau.

    The shape point is renormalized to the ellipsoid and its velocity
    re-projected after every accepted step; corrections beyond drift_abort
    raise EllipsoidDrift.  Stops at rho < rho_min or tau_max; raises
    StepFailure when neither is reached within opts.max_steps attempted steps.
    """
    m = nbody.as_masses(m)
    alpha = nbody.validate_alpha(alpha)
    state = initial.validated(m)
    n, d = state.s.shape
    h_energy = energy(state, m, alpha, potential_scale)
    f = _flow(alpha, m, h_energy, potential_scale, d)
    m_col = m[:, None]

    def reproject(tau, y):
        s = y[2:2 + n * d].reshape(n, d)
        u = y[2 + n * d:].reshape(n, d)
        inertia = (m * (s * s).sum(axis=1)).sum().item()
        if abs(inertia - 1.0) > opts.drift_abort:
            raise EllipsoidDrift(f"|I(s) - 1| = {abs(inertia - 1.0):.3e} at tau = {tau}")
        s /= math.sqrt(inertia)
        u -= (m_col * s * u).sum().item() * s
        return y

    y0 = np.concatenate([[state.rho, state.rho_prime], state.s.ravel(), state.s_prime.ravel()])
    taus, ys = _dp54(f, 0.0, y0, min(opts.first_step, opts.max_step),
                     lambda tau, y: tau < tau_max and y[0] > opts.rho_min,
                     rtol=opts.rtol, atol=1e-12, max_step=opts.max_step,
                     floor=lambda tau: 1e-14 * max(1.0, tau), t_end=tau_max,
                     project=reproject, max_steps=opts.max_steps)
    return Trajectory(
        alpha=alpha, masses=m, tau=taus,
        rho=ys[:, 0], rho_prime=ys[:, 1],
        s=ys[:, 2:2 + n * d].reshape(-1, n, d),
        s_prime=ys[:, 2 + n * d:].reshape(-1, n, d),
        h=h_energy, potential_scale=potential_scale,
    )


def homothetic_initial_state(cc, h: float = 0.0, potential_scale: float = 1.0,
                             kick=None) -> McGeheeState:
    """Collapsing initial data at rho = 1, shape cc.s0 and energy h.

    kick is the shape velocity, an admissible tangent at cc.s0 (see
    nbody.tangent_part), zero when None; the inward radial velocity is solved
    from the energy.
    """
    alpha = cc.alpha
    s_prime = np.zeros_like(cc.s0) if kick is None else np.array(kick, dtype=float)
    sp2 = float(np.sum(cc.masses * np.sum(s_prime * s_prime, axis=1)))
    rhs = h + potential_scale * cc.b - 0.5 * sp2
    if rhs <= 0.0:
        raise NonCollapsing("no real inward radial velocity at this energy")
    rho_prime = -(2.0 - alpha) / 4.0 * np.sqrt(2.0 * rhs)
    return McGeheeState(rho=1.0, rho_prime=float(rho_prime), s=cc.s0.copy(), s_prime=s_prime)


def homothetic_decay_rate(cc) -> float:
    """Asymptotic rate c = ((2-alpha)/4) sqrt(2 U(s0)) of the zero-energy collapse."""
    return (2.0 - cc.alpha) / 4.0 * np.sqrt(2.0 * cc.b)


# bound on the cubic Hermite error of log rho between two oracle samples
_HERMITE_TOL = 1e-11
# the most samples one oracle trajectory holds, and the horizon that fills
# them at the 16 samples per unit tau of the h = 0 grid
ORACLE_MAX_SAMPLES = 1 << 20
ORACLE_MAX_TAU = (ORACLE_MAX_SAMPLES - 1) / 16.0


def _capped_samples(count: int, tau_max: float) -> int:
    if count > ORACLE_MAX_SAMPLES:
        raise ValueError(f"tau_max = {tau_max:g} needs {count} oracle samples, "
                         f"more than the cap of {ORACLE_MAX_SAMPLES}")
    return count


def homothetic_oracle(cc, h: float = 0.0, tau_max: float = 30.0,
                      phi_min: float = 1e-6) -> Trajectory:
    """Frozen-shape collapse at energy h from the energy relation in closed form.

    With the shape pinned at cc.s0, sigma = -log rho moves at
    dsigma/dtau = c v(sigma), where c = homothetic_decay_rate(cc),
    v = sqrt(1 + a e^(-k sigma)), a = h / U(s0) and k = beta - 2, so the clock is

        tau(sigma) = [sigma + (2/k) log((1 + v(sigma)) / (1 + v(0)))] / c.

    For h = 0, v = 1 and the returned trajectory is backed by the exact form
    rho = exp(-c tau), which extends to any tau_max.  Otherwise the samples
    sit on a uniform sigma grid from rho = 1 down to the physical radius
    phi = phi_min, cut at the first sample at or past tau_max, each with its
    exact rho' = -c v rho.  No ODE is integrated.  A horizon that needs more
    than ORACLE_MAX_SAMPLES samples raises ValueError.
    """
    if not (0.0 < tau_max < np.inf and 0.0 < phi_min < 1.0):
        raise ValueError(f"need 0 < tau_max < inf and 0 < phi_min < 1, "
                         f"got {tau_max} and {phi_min}")
    alpha, b = cc.alpha, cc.b
    if h + b <= 0.0:
        raise NonCollapsing(f"energy {h} admits no inward velocity from phi = 1")
    c = homothetic_decay_rate(cc)
    if h == 0.0:
        grid = np.linspace(0.0, tau_max, _capped_samples(max(64, int(tau_max * 16) + 1), tau_max))
        rho_g = np.exp(-c * grid)
        return _frozen_trajectory(cc, grid, rho_g, -c * rho_g, 0.0, exact_homothetic=True,
                                  meta={"decay_rate": c})
    a, k = h / b, beta_exponent(alpha) - 2.0
    v0 = np.sqrt(1.0 + a)
    # Trajectory.evaluate interpolates log rho = -sigma with cubic Hermites in
    # tau.  With w = a e^(-k sigma) between a and 0, d^4 sigma / dtau^4 is
    # -c^4 k^3 w (1 + 3w/2) / 2, so a tau step dt keeps that error below
    # (c dt)^4 k^3 |a| max(1, 1 + 3a/2) / 768; dt is also at most the 1/16 of
    # the h = 0 grid.
    c_dt = min(c / 16.0, (768.0 * _HERMITE_TOL
                          / (k**3 * abs(a) * max(1.0, 1.0 + 1.5 * a))) ** 0.25)
    # v lies between v0 and 1, so a sigma step of c dt min(1, v0) keeps every
    # tau step below dt, and tau(sigma) >= sigma / (c max(1, v0)) passes
    # tau_max by sigma = c max(1, v0) tau_max
    sigma_end = min(-(2.0 - alpha) / 4.0 * np.log(phi_min), c * max(1.0, v0) * tau_max)
    count = int(np.ceil(sigma_end / (c_dt * min(1.0, v0)))) + 1
    sigma = np.linspace(0.0, sigma_end, _capped_samples(count, tau_max))
    v = np.sqrt(1.0 + a * np.exp(-k * sigma))
    # log((1 + v) / (1 + v0)), with v - v0 = a (e^(-k sigma) - 1) / (v + v0)
    # formed without cancellation
    tau = (sigma + 2.0 / k * np.log1p(a * np.expm1(-k * sigma) / ((v + v0) * (1.0 + v0)))) / c
    stop = int(np.searchsorted(tau, tau_max)) + 1
    rho = np.exp(-sigma[:stop])
    return _frozen_trajectory(cc, tau[:stop], rho, -c * v[:stop] * rho, h)


def _frozen_trajectory(cc, tau, rho, rho_prime, h, **kwargs) -> Trajectory:
    """Trajectory pinned at the shape cc.s0 with zero shape velocity."""
    s = np.broadcast_to(cc.s0, (tau.size,) + cc.s0.shape).copy()
    return Trajectory(alpha=cc.alpha, masses=cc.masses.copy(), tau=tau, rho=rho,
                      rho_prime=rho_prime, s=s, s_prime=np.zeros_like(s), h=float(h),
                      **kwargs)


_QUAD_CHUNK = 1 << 14


def homothetic_quadrature_trajectory(cc, h: float, tau_max: float,
                                     potential_scale: float = 1.0,
                                     keep_every: int = 64) -> Trajectory:
    """Frozen-shape trajectory built from the energy relation alone.

    With the shape pinned at cc.s0 the radial velocity is determined by the
    energy, rho' = -((2-alpha)/4) sqrt(2 (h rho^beta + U rho^2)), and the
    clock is a plain quadrature in sigma = -log rho:

        tau(sigma) = int_0^sigma dq / [((2-alpha)/4) sqrt(2 (h e^(-(beta-2)q) + U))].

    No ODE is integrated (the trapezoid rule runs on a sigma grid of step
    2e-4), so there is no conditioning wall; any depth and any alpha are
    reachable.  Requires h + U(s0) > 0 (collapsing data) and a finite tau_max >= 0.
    """
    if not 0.0 <= tau_max < np.inf:
        raise ValueError(f"tau_max must be finite and non-negative, got {tau_max}")
    alpha = cc.alpha
    beta = beta_exponent(alpha)
    b = potential_scale * cc.b
    if h + b <= 0.0:
        raise NonCollapsing("energy admits no inward velocity from rho = 1")
    coef = (2.0 - alpha) / 4.0
    # generous sigma horizon: tau(sigma) >= sigma / max-speed
    sigma_end = tau_max * coef * np.sqrt(2.0 * (max(h, 0.0) + b)) + 5.0
    n = int(np.ceil(sigma_end / 2e-4)) + 1
    # The grid is np.linspace(0, sigma_end, n), walked in chunks of
    # _QUAD_CHUNK intervals so that the fine grid (540,000 points for the
    # alpha = 0.02 member of `ncol weakforce`) is never held whole.  The
    # trapezoid sums of 1/speed are written in place, and the running clock
    # is carried into the first sum of the next chunk, which adds in the order
    # of one cumsum over the whole grid.  Every keep_every-th point is kept,
    # and the last one at or before tau_max; the walk ends with the chunk that
    # passes tau_max.
    dsigma = sigma_end / (n - 1)
    kept = []
    carry, stop = 0.0, n
    for i0 in range(0, n - 1, _QUAD_CHUNK):
        i1 = min(i0 + _QUAD_CHUNK, n - 1)
        sigma = np.arange(i0, i1 + 1, dtype=float) * dsigma
        if i1 == n - 1:
            sigma[-1] = sigma_end
        speed = coef * np.sqrt(2.0 * (h * np.exp(-(beta - 2.0) * sigma) + b))
        inv = 1.0 / speed
        tau = np.empty_like(sigma)
        tau[0] = carry
        steps = tau[1:]
        np.add(inv[1:], inv[:-1], out=steps)
        steps *= 0.5
        steps *= np.subtract(sigma[1:], sigma[:-1], out=inv[1:])
        steps[0] += carry
        np.cumsum(steps, out=steps)
        carry = tau[-1]
        count = int(np.searchsorted(tau, tau_max, side="right"))
        if count <= i1 - i0:
            stop = i0 + count
        # kept points of this chunk past its first, which the previous chunk kept
        first = 0 if i0 == 0 else i0 + 1 + (-(i0 + 1)) % keep_every
        local = np.arange(first, min(i1, stop - 1) + 1, keep_every) - i0
        done = stop < n or i1 == n - 1
        last = max(stop - 1, 0)
        if done and (last % keep_every or stop == 0):
            local = np.append(local, last - i0)
        kept.append((sigma[local], tau[local], speed[local]))
        if done:
            break
    sigma, tau, speed = (np.concatenate(parts) for parts in zip(*kept))
    rho = np.exp(-sigma)
    return _frozen_trajectory(cc, tau, rho, -rho * speed, h, potential_scale=potential_scale)


# ---------------------------------------------------------------------------
# asymptotic verification


@dataclass(frozen=True)
class AsymptoticReport:
    b_limit: float
    b_converged: bool
    rho_ratio_limit: float
    rho_ratio_predicted: float
    rho_ratio_converged: bool
    dist_to_central: float
    sprime_final: float
    sprime_initial: float
    dissipation_partial: float
    tau_end: float
    rho_final: float = float("nan")

    def to_dict(self) -> dict:
        return asdict(self)


def _aitken_limit(values: np.ndarray):
    """Tail limit by repeated Aitken extrapolation over equally spaced samples;
    converged when two estimates agree to 1e-4 relative."""
    est = [values[-1]]
    v = values
    while v.size >= 3:
        d1 = v[1:-1] - v[:-2]
        d2 = v[2:] - 2 * v[1:-1] + v[:-2]
        safe = np.abs(d2) > 1e-300
        acc = np.where(safe, v[2:] - (v[2:] - v[1:-1]) ** 2 / np.where(safe, d2, 1.0), v[2:])
        est.append(acc[-1])
        if len(est) >= 2 and abs(est[-1] - est[-2]) < 1e-4 * (1.0 + abs(est[-1])):
            return float(est[-1]), True
        v = acc[-min(len(acc), 12):]
        if v.size < 3:
            break
    return float(est[-1]), len(est) >= 2 and abs(est[-1] - est[-2]) < 1e-4 * (1.0 + abs(est[-1]))


def procrustes_distance(s, s_ref, m) -> float:
    """Mass-weighted distance to the nearest orthogonal image of s_ref."""
    m = nbody.as_masses(m)
    c = (m[:, None] * s_ref).T @ s
    u, _, vt = np.linalg.svd(c)
    rot = (u @ vt).T
    diff = s - s_ref @ rot.T
    return float(np.sqrt(np.sum(m * np.sum(diff * diff, axis=1))))


def asymptotic_report(traj: Trajectory, cc_set) -> AsymptoticReport:
    """Measure the collapse asymptotics on 200 points over the last decade of tau.

    Checks the limits of U(s), rho'/rho against -((2-alpha)/4) sqrt(2b), the
    decay of |s'| and the distance to the provided central configurations;
    the dissipation integral of -(rho'/rho)|s'|^2 is reported as a partial sum.
    """
    if traj.n_samples < 16:
        raise InsufficientHorizon("too few samples for tail extrapolation")
    tau_end = traj.tau_end
    tail_start = max(traj.tau[0], tau_end - max(0.9 * tau_end, traj.tau[0] + 1e-9))
    grid = np.linspace(tail_start, tau_end, 200)
    _, _, s, s_p = traj.evaluate(grid)
    u_vals = traj.potential_scale * nbody.potential_stack(s, traj.masses, traj.alpha)
    b_limit, b_conv = _aitken_limit(u_vals)
    ratio = traj.log_rate(grid)
    ratio_limit, ratio_conv = _aitken_limit(ratio)
    predicted = -(2.0 - traj.alpha) / 4.0 * np.sqrt(2.0 * max(b_limit, 0.0))
    sp_norm = np.sqrt(np.einsum("j,kjd,kjd->k", traj.masses, s_p, s_p))
    dists = [procrustes_distance(s[-1], cc.s0, traj.masses) for cc in cc_set]
    full_sp = traj.sprime_norm_trace()
    integrand = -(traj.rho_prime / traj.rho) * full_sp**2
    partial = float(np.trapezoid(integrand, traj.tau))
    return AsymptoticReport(
        b_limit=b_limit, b_converged=b_conv,
        rho_ratio_limit=ratio_limit, rho_ratio_predicted=float(predicted),
        rho_ratio_converged=ratio_conv,
        dist_to_central=float(min(dists)) if dists else float("nan"),
        sprime_final=float(sp_norm[-1]), sprime_initial=float(full_sp[0]),
        dissipation_partial=partial, tau_end=tau_end,
        rho_final=float(traj.rho[-1]),  # tau keeps growing while rho -> 0
    )


