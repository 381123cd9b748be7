"""Small-exponent limit: energy normalization, the rescaled family and uniform bounds.

The rescaled bodies xtilde = alpha^(-1/(alpha+2)) x solve the system driven by
Utilde = U/alpha, whose collapse trajectories stay nondegenerate as alpha -> 0.
build_H_family builds the frozen-shape family from the energy relation, and
family_report walks it once per tolerance for the CSV rows and the uniform
bound checks.  The members' clock is the closed form plus one trapezoid term,
kept so that the printed numbers stay where the former trapezoid walk put
them.  All checks here are finite-grid diagnostics: they exhibit the claimed
uniform bounds on a sampled alpha family, they do not prove the limit
statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nbody
from .central import CentralConfiguration
from .errors import NonCollapsing, NotHomographic
from .mcgehee import Trajectory, beta_exponent, homothetic_quadrature_trajectory

# the alpha grid and tau horizon of `ncol weakforce` and its suite script
DEFAULT_ALPHA_GRID = (0.5, 0.3, 0.2, 0.1, 0.05, 0.02)
DEFAULT_TAU_MAX = 12.0


def pair_mass_sum(m) -> float:
    m = nbody.as_masses(m)
    return float(sum(m[i] * m[j] for i in range(m.size) for j in range(i + 1, m.size)))


def scaled_energy_for_H(m, alpha) -> float:
    """Energy htilde of the rescaled system under the zero-Uhat normalization.

    Uhat = Utilde - S/alpha gives hhat = htilde + S/alpha, so hhat = 0 forces
    htilde = -S/alpha.
    """
    alpha = nbody.validate_alpha(alpha)
    return -pair_mass_sum(m) / alpha


@dataclass(frozen=True)
class ScaledFamily:
    """Per-alpha trajectories of the rescaled system under the (H) normalization."""

    cc: CentralConfiguration
    alphas: tuple
    trajectories: tuple

    def __iter__(self):
        return iter(zip(self.alphas, self.trajectories))

    def uniform_collapse(self):
        """Measured (UC): per sigma in (0.5, 0.1, 0.01), the earliest tau after
        which every member stays below sigma, or None when some member never does."""
        out = {}
        for sigma in (0.5, 0.1, 0.01):
            taus = []
            for traj in self.trajectories:
                # the sample after the last one at or above sigma
                above = np.flatnonzero(traj.rho >= sigma)
                k = above[-1] + 1 if above.size else 0
                taus.append(float(traj.tau[k]) if k < traj.n_samples else None)
            out[sigma] = None if None in taus else max(taus)
        return out


def build_H_family(cc: CentralConfiguration, alphas=DEFAULT_ALPHA_GRID, *,
                   tau_max: float) -> ScaledFamily:
    """Per-alpha rescaled trajectories with hhat = 0 initial data.

    rho(0) = 1 and the shape stays at cc.s0; the radial velocity is solved
    from the energy normalization and runs with no real inward root are
    rejected.  Every member comes from homothetic_quadrature_trajectory: the
    closed-form clock of the energy relation plus its trapezoid term (up to
    7.0e-7 relative on the default family), sampled every 64th point of a
    sigma grid of step 2e-4.  It integrates no ODE and so reaches depths
    where the tau-flow would have bounced, and holds s and s' as one row
    each.  A kicked member is a tau-flow run (integrate_el from
    homothetic_initial_state with a kick), whose reliable horizon shrinks
    like sqrt(alpha) (collapse rate ~ sqrt(U/alpha)); this family has none,
    and family_report refuses one.  A member whose rho underflows to 0.0
    before tau_max is rejected, naming the tau.
    """
    m = cc.masses
    trajs = []
    for alpha in alphas:
        alpha = nbody.validate_alpha(alpha)
        try:
            traj = homothetic_quadrature_trajectory(
                cc.at_alpha(alpha), h=scaled_energy_for_H(m, alpha), tau_max=tau_max,
                potential_scale=1.0 / alpha)
        except NonCollapsing as exc:
            raise NonCollapsing(f"alpha={alpha}: {exc} under the energy normalization") from exc
        if traj.rho[-1] == 0.0:
            # past double range rho' = -rho * speed is -0.0, not a sign change
            tau0 = traj.tau[np.argmax(traj.rho == 0.0)]
            raise NonCollapsing(f"alpha={alpha}: rho underflows to 0.0 at tau = {tau0:.6g}, "
                                f"inside the horizon tau_max = {tau_max:g}")
        if not np.all(traj.rho_prime < 0.0):
            raise NonCollapsing(f"alpha={alpha}: radial velocity changed sign")
        trajs.append(traj)
    return ScaledFamily(cc=cc, alphas=tuple(float(a) for a in alphas), trajectories=tuple(trajs))


# ---------------------------------------------------------------------------
# uniform-bound checks (finite-grid diagnostics), one pass over the family


@dataclass(frozen=True)
class GridCheck:
    satisfied: bool
    tau_eps: float | None
    alpha_eps: float | None
    eps: float
    table: dict = field(default_factory=dict)
    note: str = ""


@dataclass(frozen=True)
class FamilyReport:
    """The weakforce CSV rows, (alpha, tau_eps, inf_disotto, tail_integral,
    phi_min) per member, and the uniform-bound checks at one eps; disotto is
    None where esplode1 located no (tau_eps, alpha_eps)."""

    rows: list
    esplode1: GridCheck
    esplode2: GridCheck
    disotto: GridCheck | None


def blowup_quantity(traj: Trajectory) -> np.ndarray:
    """((2-alpha)/(4 alpha)) (1 - rho^(4 alpha/(2-alpha))), increasing along collapse."""
    gamma = 4.0 * traj.alpha / (2.0 - traj.alpha)
    return (1.0 - traj.rho**gamma) / gamma


def disotto_bound(traj: Trajectory) -> np.ndarray:
    """2 Utilde(s) + beta htilde rho^(beta-2) along a rescaled trajectory."""
    beta = beta_exponent(traj.alpha)
    return 2.0 * traj.potential_trace() + beta * traj.h * traj.rho ** (beta - 2.0)


def disotto_constant(m) -> float:
    """Lower-bound constant -2 S (1 + log 2) extracted from the proof ingredients."""
    return -2.0 * pair_mass_sum(m) * (1.0 + np.log(2.0))


def _grid_check(alphas, first_tau, eps, table, ok, notes) -> GridCheck:
    """(tau_eps, alpha_eps) for the largest grid alpha_eps below which every
    member has a first_tau; tau_eps is the latest of those.  The note is
    notes[0] when no grid alpha qualifies, notes[1] when one does but ok is
    false."""
    for cand in sorted(alphas, reverse=True):
        members = [a for a in alphas if a < cand]
        if members and all(first_tau[a] is not None for a in members):
            return GridCheck(satisfied=ok, tau_eps=max(first_tau[a] for a in members),
                             alpha_eps=cand, eps=eps, table=table, note="" if ok else notes[1])
    return GridCheck(satisfied=False, tau_eps=None, alpha_eps=None, eps=eps, table=table,
                     note=notes[0])


def family_report(family: ScaledFamily, eps: float) -> FamilyReport:
    """The CSV rows and the esplode1, esplode2 and Disotto checks, visiting each member once.

    Members must hold a frozen shape (NotHomographic otherwise).  A member's
    blow-up crossing (its first sample where blowup_quantity reaches 1/eps),
    Disotto trace and -rho'/rho are each formed once; its row reads the
    trace from the crossing on (from the start when there is none).
    esplode1 locates (tau_eps, alpha_eps) from the crossings; esplode2 from
    the first samples past which the remaining |s'|_M^2 integral is below
    eps, and needs -rho'/rho > 0.  With s' = 0 that integral (the row's
    tail) is 0 by construction, so esplode2 reduces to -rho'/rho > 0.  Where
    esplode1 holds, the Disotto bound must reach disotto_constant + 1/eps
    past tau_eps below alpha_eps.  A finite grid can fail to exhibit a pair
    without refuting the limit statement.  ValueError unless 0 < eps < inf.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    c_const = disotto_constant(family.cc.masses)
    crossings, tails, traces, rows = {}, {}, [], []
    phi_ok = True
    for alpha, traj in family:
        if not traj.frozen_shape:
            raise NotHomographic(f"alpha={alpha}: member shape is not frozen")
        tau = traj.tau
        above = blowup_quantity(traj) >= 1.0 / eps
        crossing = float(tau[np.argmax(above)]) if above.any() else None
        crossings[alpha] = crossing
        traces.append(disotto_bound(traj))
        phi = -traj.rho_prime / traj.rho
        phi_ok &= bool(np.all(phi > 0.0))
        tails[alpha] = {"first_tau": float(tau[0]), "tail_total": 0.0,
                        "phi_min": float(phi.min()), "phi_sq_min": float((phi**2).min()),
                        "phi_sq_required": c_const + 1.0 / eps}
        past = tau >= (tau[0] if crossing is None else crossing)
        rows.append((alpha, float("nan") if crossing is None else crossing,
                     float(traces[-1][past].min()), 0.0, float(phi.min())))
    e1 = _grid_check(family.alphas, crossings, eps, crossings, True,
                     ("no grid prefix crossed the threshold", ""))
    e2 = _grid_check(family.alphas, {a: t["first_tau"] for a, t in tails.items()}, eps, tails,
                     phi_ok, ("tail integral never fell below eps on the grid",
                              "-rho'/rho failed positivity"))
    disotto = (_disotto_check(family, traces, eps, e1.tau_eps, e1.alpha_eps)
               if e1.satisfied else None)
    return FamilyReport(rows=rows, esplode1=e1, esplode2=e2, disotto=disotto)


def _disotto_check(family: ScaledFamily, traces, eps: float, tau_eps: float,
                   alpha_eps: float) -> GridCheck:
    """The Disotto bound on the region esplode1 located, from each member's trace."""
    target = disotto_constant(family.cc.masses) + 1.0 / eps
    table, worst = {}, np.inf
    for (alpha, traj), trace in zip(family, traces):
        if alpha >= alpha_eps:
            continue
        past = traj.tau >= tau_eps
        if not past.any():
            return GridCheck(satisfied=False, tau_eps=tau_eps, alpha_eps=alpha_eps, eps=eps,
                             note=f"alpha={alpha} has no samples past tau_eps")
        table[alpha] = {"inf": float(trace[past].min()),
                        "ingredient": (1.0 - 2.0**alpha) / (alpha * 2.0**alpha)}
        worst = min(worst, table[alpha]["inf"])
    return GridCheck(satisfied=bool(worst >= target), tau_eps=tau_eps, alpha_eps=alpha_eps,
                     eps=eps, table={"per_alpha": table, "infimum": worst, "required": target})
