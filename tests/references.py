"""Definitions that only the tests call, shared by several test modules.

Each one was the package function of the same name without `reference_`
(`reference_scaled_potentials_stack` was weakforce's private
`_scaled_potentials_stack`, `ReferenceGammaTrace` its `GammaTrace`), moved
here unchanged apart from its module qualifiers: the validated
single-configuration Hessians, interaction matrix and centrality residual
of nbody (`reference_central_residual` with the `central_residual_vector`
it called written in), the paper's unequal-mass and hip-hop conditions of
spectral, and weakforce's scaled potentials and Gamma bookkeeping.  No
command, script or benchmark runs them; the test modules import them by
name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ncol import central, nbody, spectral
from ncol.errors import InvalidN
from ncol.mcgehee import Trajectory

# ---------------------------------------------------------------------------
# nbody: validated functions of one configuration


def reference_matrix_A_stack(x, m, alpha) -> np.ndarray:
    """Interaction matrix A of each configuration, shape (..., N, N); see reference_matrix_A."""
    ii, jj, _, _, dist = nbody.pair_terms(x, m)
    n = x.shape[-2]
    A = np.zeros(x.shape[:-2] + (n, n))
    w = dist ** (-(alpha + 2.0))
    A[..., ii, jj] = -m[jj] * w
    A[..., jj, ii] = -m[ii] * w
    diag = np.arange(n)
    A[..., diag, diag] = -A.sum(axis=-1)
    return A


def reference_hessian_quadratic(x, m, alpha, v) -> float:
    """Evaluate the second derivative of U at x on the direction v, shape (N, d)."""
    x, m, alpha = nbody.checked(x, m, alpha)
    v = np.asarray(v, dtype=float).reshape(x.shape)
    return float(nbody.hessian_quadratic_stack(x, m, alpha, v))


def reference_matrix_A(x, m, alpha) -> np.ndarray:
    """Interaction matrix of inverse distance powers, shape (N, N).

    a_ii = sum_{k != i} m_k / r_ik^(alpha+2),  a_ij = -m_j / r_ij^(alpha+2).
    Symmetric for equal masses; in general M A is symmetric.  On directions
    normal to the configuration span the Hessian reduces to -alpha <v, M A v>.
    """
    return reference_matrix_A_stack(*nbody.checked(x, m, alpha))


def reference_residual_scale(x, m, alpha) -> float:
    """Magnitude of the terms cancelling in the centrality identity."""
    return float(nbody.central_residual_stack(*nbody.checked(x, m, alpha))[2])


def reference_hessian_on_ellipsoid(s, m, alpha, v) -> float:
    """Second derivative of the degree-zero extension of U at any ellipsoid point.

    For tangent v the extension terms proportional to <Ms, v> vanish and the
    value reduces to hessian_quadratic + alpha U <Mv, v>; no centrality needed.
    """
    s, m, alpha = nbody.checked(s, m, alpha)
    v = np.asarray(v, dtype=float).reshape(s.shape)
    return float(nbody.hessian_on_ellipsoid_stack(s, m, alpha, v))


def reference_central_residual(x, m, alpha) -> float:
    """Norm of the residual of the central-configuration identity grad U(x) + alpha U(x) M x."""
    return float(nbody.norm_stack(nbody.central_residual_stack(*nbody.checked(x, m, alpha))[1]))


# ---------------------------------------------------------------------------
# spectral: the unequal-mass collinear and hip-hop conditions


def reference_collinear_unequal_condition(m1: float, alpha: float):
    """Published simplification of the unequal-mass condition (m2 normalized to 1).

    lhs = (2^a (16 m1 + 4) - m1^2 + 2 m1) / (2^(a+1) + m1), rhs = 3(2-a)^2/(8a).
    See reference_collinear_unequal_oracle for the independent matrix-based
    evaluation, which disagrees with this simplification; both are exposed.
    """
    if m1 <= 0:
        raise ValueError("m1 must be positive")
    alpha = nbody.validate_alpha(alpha)
    lhs = (2.0**alpha * (16.0 * m1 + 4.0) - m1**2 + 2.0 * m1) / (2.0 ** (alpha + 1.0) + m1)
    rhs = 3.0 * (2.0 - alpha) ** 2 / (8.0 * alpha)
    return lhs, rhs, lhs > rhs


def reference_collinear_unequal_oracle(m1: float, alpha: float):
    """Direct matrix evaluation of the unequal-mass normal-variation condition.

    Assembles the interaction matrix at the symmetric collinear configuration
    with masses (m1, 1, m1), applies the normal direction (1, -2, 1) and
    normalizes exactly as the closed form does:
    lhs = <v, M A v> / (2 U) - (m1 + 2), rhs = 3(2-a)^2/(8a).
    """
    cc = central.collinear3(m1, 1.0, alpha)
    A = reference_matrix_A(cc.s0, cc.masses, alpha)
    c = np.array([1.0, -2.0, 1.0])
    vmav = float(c @ (cc.masses * (A @ c)))
    lhs = vmav / (2.0 * cc.b) - (m1 + 2.0)
    rhs = 3.0 * (2.0 - alpha) ** 2 / (8.0 * alpha)
    return lhs, rhs, lhs > rhs


def reference_unequal_existence_boundary() -> spectral.ThresholdResult:
    """Largest outer mass admitting some threshold alpha*, from the published form.

    Root in m1 of lhs(m1, alpha->2) = 0, i.e. of -m1^2 + 66 m1 + 16; the
    condition holds for m1 below the root and fails above it.
    """
    def f2(m1):
        return (-m1**2 + 66.0 * m1 + 16.0) / (m1 + 8.0)

    root = spectral.bisect(f2, 1.0, 200.0)
    return spectral.ThresholdResult(alpha_star=root, bracket=(1.0, 200.0),
                                    residual=abs(f2(root)), family="collinear3-m2-boundary")


def reference_hiphop_g(n: int, alpha: float) -> float:
    """Alternating vertical-variation sum for even polygons.

    g(n, a) = sin^(-a-2)(pi/n) + 2 sum_{j=3}^{n/2} (-1)^j sin^(-a-2)((j-1)pi/n)
              + (-1)^(n/2+1); positive g certifies the criterion for the
    alternating out-of-plane probe.
    """
    if n < 6 or n % 2 != 0:
        raise InvalidN(f"hip-hop condition needs even n >= 6, got {n}")
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("alpha must lie in [0, 2]")
    total = np.sin(np.pi / n) ** (-(alpha + 2.0))
    j = np.arange(3, n // 2 + 1)
    if j.size:
        total += 2.0 * np.sum((-1.0) ** j * np.sin((j - 1) * np.pi / n) ** (-(alpha + 2.0)))
    total += (-1.0) ** (n // 2 + 1)
    return float(total)


# ---------------------------------------------------------------------------
# weakforce: scaled potentials and Gamma bookkeeping


def reference_scaled_potentials(x, m, alpha):
    """(Utilde, Uhat, Ulog) at a collisionless configuration.

    Utilde = U/alpha, Uhat = (1/alpha) sum m_i m_j (r^-alpha - 1) and the
    logarithmic limit Ulog = -sum m_i m_j log r;  Uhat -> Ulog pointwise.
    """
    return tuple(float(u) for u in reference_scaled_potentials_stack(*nbody.checked(x, m, alpha)))


def reference_scaled_potentials_stack(x, m, alpha):
    """reference_scaled_potentials over a stack of configurations (..., N, d), unchecked."""
    _, _, mm, _, dist = nbody.pair_terms(x, m)
    u_tilde = np.sum(mm * dist ** (-alpha), axis=-1) / alpha
    u_hat = np.sum(mm * (dist ** (-alpha) - 1.0), axis=-1) / alpha
    u_log = -np.sum(mm * np.log(dist), axis=-1)
    return u_tilde, u_hat, u_log


@dataclass(frozen=True)
class ReferenceGammaTrace:
    tau: np.ndarray
    gamma: np.ndarray
    derivative_rhs: np.ndarray
    dissipation_partial: float
    identity_error: float


def reference_gamma_trace(traj: Trajectory,
                          resample_step: float | None = None) -> ReferenceGammaTrace:
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
    uhat = reference_scaled_potentials_stack(s, m, alpha)[1]
    gamma = 0.5 * sp2 - uhat
    rhs = -2.0 * (rho_p / rho) * sp2
    dgamma = np.gradient(gamma, tau, edge_order=2)
    interior = slice(2, -2) if tau.size > 8 else slice(None)
    err = float(np.max(np.abs(dgamma[interior] - rhs[interior]))) if tau.size > 4 else 0.0
    partial = float(np.trapezoid(-(rho_p / rho) * sp2, tau))
    return ReferenceGammaTrace(tau=tau, gamma=gamma, derivative_rhs=rhs,
                               dissipation_partial=partial, identity_error=err)
