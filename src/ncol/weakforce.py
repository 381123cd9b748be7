"""Small-exponent limit: scaled potentials, energy normalization and uniform bounds.

The rescaled bodies xtilde = alpha^(-1/(alpha+2)) x solve the system driven by
Utilde = U/alpha, whose collapse trajectories stay nondegenerate as alpha -> 0.
All checks here are finite-grid diagnostics: they exhibit the claimed uniform
bounds on a sampled alpha family, they do not prove the limit statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nbody
from .central import CentralConfiguration
from .errors import NonCollapsing
from .mcgehee import (IntegratorOptions, Trajectory, beta_exponent,
                      homothetic_initial_state, homothetic_quadrature_trajectory,
                      integrate_el)

DEFAULT_ALPHA_GRID = (0.5, 0.3, 0.2, 0.1, 0.05, 0.02)


def pair_mass_sum(m) -> float:
    m = nbody.as_masses(m)
    return float(sum(m[i] * m[j] for i in range(m.size) for j in range(i + 1, m.size)))


def scaled_potentials(x, m, alpha):
    """(Utilde, Uhat, Ulog) at a collisionless configuration.

    Utilde = U/alpha, Uhat = (1/alpha) sum m_i m_j (r^-alpha - 1) and the
    logarithmic limit Ulog = -sum m_i m_j log r;  Uhat -> Ulog pointwise.
    """
    return tuple(float(u) for u in _scaled_potentials_stack(*nbody.checked(x, m, alpha)))


def _scaled_potentials_stack(x, m, alpha):
    """scaled_potentials over a stack of configurations (..., N, d), unchecked."""
    _, _, mm, _, dist = nbody.pair_terms(x, m)
    u_tilde = np.sum(mm * dist ** (-alpha), axis=-1) / alpha
    u_hat = np.sum(mm * (dist ** (-alpha) - 1.0), axis=-1) / alpha
    u_log = -np.sum(mm * np.log(dist), axis=-1)
    return u_tilde, u_hat, u_log


def energy_H(m, alpha) -> float:
    """Magnitude of the normalized energy, sum m_i m_j / alpha^(alpha/(alpha+2)).

    The trajectory construction fixes Uhat-energy zero, which makes the signed
    plain energy the negative of this value; see scaled_energy_for_H.
    """
    alpha = nbody.validate_alpha(alpha)
    return pair_mass_sum(m) / alpha ** (alpha / (alpha + 2.0))


def scaled_energy_for_H(m, alpha) -> float:
    """Energy htilde of the rescaled system under the zero-Uhat normalization.

    Uhat = Utilde - S/alpha gives hhat = htilde + S/alpha, so hhat = 0 forces
    htilde = -S/alpha.
    """
    alpha = nbody.validate_alpha(alpha)
    return -pair_mass_sum(m) / alpha


def plain_from_scaled_energy(h_tilde: float, alpha: float) -> float:
    """h = alpha^(2/(alpha+2)) htilde, the inverse of the body rescaling."""
    return alpha ** (2.0 / (alpha + 2.0)) * h_tilde


@dataclass(frozen=True)
class ScaledFamily:
    """Per-alpha trajectories of the rescaled system under the (H) normalization."""

    cc: CentralConfiguration
    alphas: tuple
    trajectories: tuple

    def __iter__(self):
        return iter(zip(self.alphas, self.trajectories))

    def uniform_collapse(self, sigmas=(0.5, 0.1, 0.01)):
        """Measured (UC): per sigma, the earliest tau after which every member
        stays below sigma, or None when some member never does."""
        out = {}
        for sigma in sigmas:
            taus = []
            for traj in self.trajectories:
                below = traj.rho < sigma
                if not below.any():
                    taus.append(None)
                    break
                k = np.argmax(below)
                if not below[k:].all():
                    k = traj.n_samples - 1 - np.argmax(below[::-1])
                taus.append(float(traj.tau[k]))
            out[sigma] = None if any(t is None for t in taus) else max(taus)
        return out


def build_H_family(cc: CentralConfiguration, alphas=DEFAULT_ALPHA_GRID,
                   s_perturb: np.ndarray | None = None, tau_max: float = 8.0) -> ScaledFamily:
    """Per-alpha rescaled trajectories with hhat = 0 initial data.

    rho(0) = 1, shape at cc.s0; the radial velocity is solved from the energy
    normalization and runs with no real inward root are rejected.  The frozen
    shape family comes from the energy-relation quadrature, which integrates
    no ODE and so reaches depths where the tau-flow would have bounced; a
    nonzero tangent perturbation switches to the full flow, whose reliable
    horizon shrinks like sqrt(alpha) (collapse rate ~ sqrt(U/alpha)).
    """
    m = cc.masses
    kick = None if s_perturb is None else nbody.tangent_part(cc.s0, m, s_perturb)
    trajs = []
    for alpha in alphas:
        alpha = nbody.validate_alpha(alpha)
        cca = cc.at_alpha(alpha)
        h_tilde = scaled_energy_for_H(m, alpha)
        scale = 1.0 / alpha
        try:
            if kick is None:
                traj = homothetic_quadrature_trajectory(cca, h=h_tilde, tau_max=tau_max,
                                                        potential_scale=scale)
            else:
                state = homothetic_initial_state(cca, h=h_tilde, potential_scale=scale,
                                                 kick=kick)
        except NonCollapsing as exc:
            raise NonCollapsing(f"alpha={alpha}: {exc} under the energy normalization") from exc
        if kick is not None:
            c_rate = (2.0 - alpha) / 4.0 * np.sqrt(2.0 * cca.b / alpha)
            safe_tau = min(tau_max, 9.0 / c_rate)
            opts = IntegratorOptions(rtol=1e-11, max_step=0.01, rho_min=1e-4)
            traj = integrate_el(state, m, alpha, tau_max=safe_tau, opts=opts,
                                potential_scale=scale)
        if not np.all(traj.rho_prime < 0.0):
            raise NonCollapsing(f"alpha={alpha}: radial velocity changed sign")
        trajs.append(traj)
    return ScaledFamily(cc=cc, alphas=tuple(float(a) for a in alphas), trajectories=tuple(trajs))


# ---------------------------------------------------------------------------
# Gamma bookkeeping


@dataclass(frozen=True)
class GammaTrace:
    tau: np.ndarray
    gamma: np.ndarray
    derivative_rhs: np.ndarray
    dissipation_partial: float
    identity_error: float


def gamma_trace(traj: Trajectory, resample_step: float | None = None) -> GammaTrace:
    """Gamma = |s'|_M^2 / 2 - Uhat(s) along a rescaled trajectory.

    Its tau-derivative equals -2 (rho'/rho) |s'|_M^2; the trace reports the
    worst interior mismatch of that identity under central differences and the
    partial sum of the dissipation integral.  A uniform resample step keeps
    the finite-difference truncation below the comparison tolerance.
    """
    alpha, m = traj.alpha, traj.masses
    if resample_step is not None:
        tau = np.arange(traj.tau[0], traj.tau_end, resample_step)
        rho, rho_p, s, s_p = traj.evaluate(tau)
    else:
        tau, rho, rho_p = traj.tau, traj.rho, traj.rho_prime
        s, s_p = traj.s, traj.s_prime
    sp2 = np.einsum("j,kjd,kjd->k", m, s_p, s_p)
    uhat = _scaled_potentials_stack(s, m, alpha)[1]
    gamma = 0.5 * sp2 - uhat
    rhs = -2.0 * (rho_p / rho) * sp2
    dgamma = np.gradient(gamma, tau, edge_order=2)
    interior = slice(2, -2) if tau.size > 8 else slice(None)
    err = float(np.max(np.abs(dgamma[interior] - rhs[interior]))) if tau.size > 4 else 0.0
    partial = float(np.trapezoid(-(rho_p / rho) * sp2, tau))
    return GammaTrace(tau=tau, gamma=gamma, derivative_rhs=rhs,
                      dissipation_partial=partial, identity_error=err)


# ---------------------------------------------------------------------------
# uniform-bound finders (finite-grid diagnostics)


@dataclass(frozen=True)
class GridCheck:
    satisfied: bool
    tau_eps: float | None
    alpha_eps: float | None
    eps: float
    table: dict = field(default_factory=dict)
    note: str = ""


def blowup_quantity(traj: Trajectory) -> np.ndarray:
    """((2-alpha)/(4 alpha)) (1 - rho^(4 alpha/(2-alpha))), increasing along collapse."""
    alpha = traj.alpha
    gamma = 4.0 * alpha / (2.0 - alpha)
    return (1.0 - traj.rho**gamma) / gamma


def _grid_prefix(alphas, first_tau):
    """(tau_eps, alpha_eps) for the largest grid alpha_eps below which every
    member has a first_tau; tau_eps is the latest of those.  None when no
    grid alpha qualifies."""
    for cand in sorted(alphas, reverse=True):
        members = [a for a in alphas if a < cand]
        if members and all(first_tau[a] is not None for a in members):
            return max(first_tau[a] for a in members), cand
    return None


def check_esplode1(family: ScaledFamily, eps: float) -> GridCheck:
    """Find (tau_eps, alpha_eps) with the blow-up quantity >= 1/eps on the grid.

    For each grid candidate alpha_eps, members below it must cross 1/eps at a
    finite tau; the reported tau_eps is the worst crossing.  A finite grid can
    fail to exhibit the pair without refuting the limit statement.
    """
    target = 1.0 / eps
    crossings = {}
    for alpha, traj in family:
        q = blowup_quantity(traj)
        above = q >= target
        crossings[alpha] = float(traj.tau[np.argmax(above)]) if above.any() else None
    found = _grid_prefix(family.alphas, crossings)
    if found:
        return GridCheck(satisfied=True, tau_eps=found[0], alpha_eps=found[1], eps=eps,
                         table=crossings)
    return GridCheck(satisfied=False, tau_eps=None, alpha_eps=None, eps=eps,
                     table=crossings, note="no grid prefix crossed the threshold")


def disotto_bound(traj: Trajectory) -> np.ndarray:
    """2 Utilde(s) + beta htilde rho^(beta-2) along a rescaled trajectory."""
    alpha = traj.alpha
    beta = beta_exponent(alpha)
    h_tilde = traj.h
    u_tilde = traj.potential_trace()
    return 2.0 * u_tilde + beta * h_tilde * traj.rho ** (beta - 2.0)


def disotto_constant(m) -> float:
    """Lower-bound constant -2 S (1 + log 2) extracted from the proof ingredients."""
    return -2.0 * pair_mass_sum(m) * (1.0 + np.log(2.0))


def check_disotto(family: ScaledFamily, eps: float, tau_eps: float,
                  alpha_eps: float) -> GridCheck:
    """Verify the forcing lower bound on the region located by check_esplode1."""
    target = disotto_constant(family.cc.masses) + 1.0 / eps
    table = {}
    worst = np.inf
    for alpha, traj in family:
        if alpha >= alpha_eps:
            continue
        mask = traj.tau >= tau_eps
        if not mask.any():
            return GridCheck(satisfied=False, tau_eps=tau_eps, alpha_eps=alpha_eps, eps=eps,
                             note=f"alpha={alpha} has no samples past tau_eps")
        vals = disotto_bound(traj)[mask]
        ingredient = (1.0 - 2.0**alpha) / (alpha * 2.0**alpha)
        table[alpha] = {"inf": float(vals.min()), "ingredient": ingredient}
        worst = min(worst, float(vals.min()))
    ok = worst >= target
    return GridCheck(satisfied=bool(ok), tau_eps=tau_eps, alpha_eps=alpha_eps, eps=eps,
                     table={"per_alpha": table, "infimum": worst, "required": target})


def check_esplode2(family: ScaledFamily, eps: float) -> GridCheck:
    """Tail shape-velocity integral below eps, plus positivity of -rho'/rho."""
    c_const = disotto_constant(family.cc.masses)
    tails = {}
    phi_ok = True
    for alpha, traj in family:
        sp2 = np.einsum("j,kjd,kjd->k", traj.masses, traj.s_prime, traj.s_prime)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (sp2[1:] + sp2[:-1]) * np.diff(traj.tau))])
        total = cum[-1]
        remaining = total - cum
        below = remaining < eps
        phi = -traj.rho_prime / traj.rho
        phi_ok &= bool(np.all(phi > 0.0))
        tails[alpha] = {
            "first_tau": float(traj.tau[np.argmax(below)]) if below.any() else None,
            "tail_total": float(total),
            "phi_min": float(phi.min()),
            "phi_sq_min": float((phi**2).min()),
            "phi_sq_required": c_const + 1.0 / eps,
        }
    found = _grid_prefix(family.alphas, {a: t["first_tau"] for a, t in tails.items()})
    if found:
        return GridCheck(satisfied=phi_ok, tau_eps=found[0], alpha_eps=found[1], eps=eps,
                         table=tails, note="" if phi_ok else "-rho'/rho failed positivity")
    return GridCheck(satisfied=False, tau_eps=None, alpha_eps=None, eps=eps, table=tails,
                     note="tail integral never fell below eps on the grid")


# ---------------------------------------------------------------------------
# action scaling


def action_functional(path: np.ndarray, dt: float, m, alpha, scaled: bool = False) -> float:
    """Discrete action int |xdot|_M^2/2 + U dt on a sampled path (T, N, d).

    With scaled=True the potential is Utilde = U/alpha (the rescaled system's
    action); velocities by central differences, trapezoid in time.
    """
    path = np.asarray(path, dtype=float)
    _, m, alpha = nbody.checked(path[0], m, alpha)
    vel = np.gradient(path, dt, axis=0, edge_order=2)
    kin = 0.5 * np.einsum("j,tjd,tjd->t", m, vel, vel)
    pots = nbody.potential_stack(path, m, alpha)
    if scaled:
        pots = pots / alpha
    return float(np.trapezoid(kin + pots, dx=dt))


def rescale_path(path: np.ndarray, alpha: float) -> np.ndarray:
    """xtilde = alpha^(-1/(alpha+2)) x applied along a sampled path."""
    return alpha ** (-1.0 / (alpha + 2.0)) * np.asarray(path, dtype=float)


def family_report_rows(family: ScaledFamily, eps: float):
    """Rows (alpha, tau_eps, inf_disotto, tail_integral, phi_min) for the CSV."""
    e1 = check_esplode1(family, eps)
    rows = []
    for alpha, traj in family:
        tau_a = e1.table[alpha]
        vals = disotto_bound(traj)
        mask = traj.tau >= (tau_a if tau_a is not None else traj.tau[0])
        sp2 = np.einsum("j,kjd,kjd->k", traj.masses, traj.s_prime, traj.s_prime)
        tail = float(np.trapezoid(sp2[mask], traj.tau[mask])) if mask.any() else float("nan")
        phi = -traj.rho_prime / traj.rho
        rows.append((alpha,
                     tau_a if tau_a is not None else float("nan"),
                     float(vals[mask].min()) if mask.any() else float("nan"),
                     tail,
                     float(phi.min())))
    return rows
