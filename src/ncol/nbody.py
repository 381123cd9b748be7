"""Configuration-space geometry and derivatives of the power-law pair potential.

Positions are (N, d) arrays, masses (N,) arrays.  The pair potential is

    U(x) = sum_{i<j} m_i m_j |x_i - x_j|^(-alpha),   0 < alpha < 2,

and all inner products written ``<.,.>`` are plain Euclidean; the mass
metric enters only through explicit factors of M = diag(m_i).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import CollisionConfiguration, InvalidMass

COLLISION_THRESHOLD = 1e-12
RESIDUAL_TOL = 1e-9


def validate_alpha(alpha: float) -> float:
    """Force exponent alpha must lie strictly inside (0, 2)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in the open interval (0, 2), got {alpha}")
    return alpha


def as_masses(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 1 or m.size < 2:
        raise InvalidMass("need a flat vector of at least two masses")
    if np.any(m <= 0.0):
        raise InvalidMass(f"all masses must be positive, got {m}")
    return m


def as_positions(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 1:
        raise ValueError(f"positions must be an (N, d) array with N >= 2, got shape {x.shape}")
    return x


def mass_matrix_diag(m: np.ndarray, d: int) -> np.ndarray:
    """Diagonal of M acting on flattened (N*d,) vectors."""
    return np.repeat(as_masses(m), d)


def pair_separations(x: np.ndarray):
    """Upper-triangle pair indices (i, j), separation vectors and distances."""
    x = as_positions(x)
    n = x.shape[0]
    ii, jj = np.triu_indices(n, k=1)
    diff = x[ii] - x[jj]
    dist = np.linalg.norm(diff, axis=1)
    return ii, jj, diff, dist


def min_distance(x) -> float:
    _, _, _, dist = pair_separations(x)
    return float(dist.min())


def _checked_distances(x, m, alpha):
    x = as_positions(x)
    m = as_masses(m)
    if m.size != x.shape[0]:
        raise ValueError("mass vector length does not match body count")
    alpha = validate_alpha(alpha)
    ii, jj, diff, dist = pair_separations(x)
    if dist.min() < COLLISION_THRESHOLD:
        raise CollisionConfiguration(f"minimum pair distance {dist.min():.3e} below threshold")
    return x, m, alpha, ii, jj, diff, dist


def potential(x, m, alpha) -> float:
    """U(x) = sum over pairs of m_i m_j / |x_i - x_j|^alpha."""
    x, m, alpha, ii, jj, _, dist = _checked_distances(x, m, alpha)
    return float(np.sum(m[ii] * m[jj] * dist ** (-alpha)))


def gradient(x, m, alpha) -> np.ndarray:
    """Euclidean gradient of U, shape (N, d)."""
    x, m, alpha, ii, jj, diff, dist = _checked_distances(x, m, alpha)
    w = -alpha * m[ii] * m[jj] * dist ** (-(alpha + 2.0))
    grad = np.zeros_like(x)
    np.add.at(grad, ii, w[:, None] * diff)
    np.add.at(grad, jj, -w[:, None] * diff)
    return grad


def moment_of_inertia(x, m) -> float:
    """I(x) = sum m_i |x_i|^2 = <Mx, x>."""
    x = as_positions(x)
    m = as_masses(m)
    return float(np.sum(m * np.sum(x * x, axis=1)))


def center_of_mass(x, m) -> np.ndarray:
    x = as_positions(x)
    m = as_masses(m)
    return m @ x / m.sum()


def hessian_full(x, m, alpha) -> np.ndarray:
    """Hessian of U on the full space, as an (N*d, N*d) symmetric matrix.

    Per-pair block: alpha*m_i*m_j*[(alpha+2) u u^T / r^(alpha+4) - I / r^(alpha+2)]
    with u = x_i - x_j, accumulated with the usual +/- pattern of a
    difference coupling.
    """
    x, m, alpha, ii, jj, diff, dist = _checked_distances(x, m, alpha)
    n, d = x.shape
    H = np.zeros((n * d, n * d))
    eye = np.eye(d)
    for k in range(ii.size):
        i, j, u, r = ii[k], jj[k], diff[k], dist[k]
        block = alpha * m[i] * m[j] * (
            (alpha + 2.0) * np.outer(u, u) / r ** (alpha + 4.0) - eye / r ** (alpha + 2.0)
        )
        si, sj = slice(i * d, (i + 1) * d), slice(j * d, (j + 1) * d)
        H[si, si] += block
        H[sj, sj] += block
        H[si, sj] -= block
        H[sj, si] -= block
    return H


def hessian_quadratic(x, m, alpha, v) -> float:
    """Evaluate the second derivative of U at x on the direction v, shape (N, d)."""
    x, m, alpha, ii, jj, diff, dist = _checked_distances(x, m, alpha)
    v = np.asarray(v, dtype=float).reshape(x.shape)
    dv = v[ii] - v[jj]
    inner = np.sum(diff * dv, axis=1)
    return float(
        alpha
        * np.sum(
            m[ii] * m[jj] * (
                (alpha + 2.0) * inner**2 / dist ** (alpha + 4.0)
                - np.sum(dv * dv, axis=1) / dist ** (alpha + 2.0)
            )
        )
    )


def matrix_A(x, m, alpha) -> np.ndarray:
    """Interaction matrix of inverse distance powers, shape (N, N).

    a_ii = sum_{k != i} m_k / r_ik^(alpha+2),  a_ij = -m_j / r_ij^(alpha+2).
    Symmetric for equal masses; in general M A is symmetric.  On directions
    normal to the configuration span the Hessian reduces to -alpha <v, M A v>.
    """
    x, m, alpha, ii, jj, _, dist = _checked_distances(x, m, alpha)
    n = x.shape[0]
    A = np.zeros((n, n))
    w = dist ** (-(alpha + 2.0))
    A[ii, jj] = -m[jj] * w
    A[jj, ii] = -m[ii] * w
    A[np.arange(n), np.arange(n)] = -A.sum(axis=1)
    return A


def central_residual_vector(x, m, alpha) -> np.ndarray:
    """Residual of the central-configuration identity grad U(x) + alpha U(x) M x."""
    x = as_positions(x)
    m = as_masses(m)
    return gradient(x, m, alpha) + alpha * potential(x, m, alpha) * m[:, None] * x


def central_residual(x, m, alpha) -> float:
    return float(np.linalg.norm(central_residual_vector(x, m, alpha)))


def residual_scale(x, m, alpha) -> float:
    """Magnitude of the terms cancelling in the centrality identity."""
    x = as_positions(x)
    m = as_masses(m)
    u = potential(x, m, alpha)
    return 1.0 + alpha * u * float(np.linalg.norm(m[:, None] * x))


def check_tangent(s, m, v, tol: float = 1e-8) -> None:
    """Require <v, Ms> = 0 and sum_i m_i v_i = 0 within tolerance."""
    s = as_positions(s)
    m = as_masses(m)
    v = np.asarray(v, dtype=float).reshape(s.shape)
    radial = float(np.sum(m[:, None] * s * v))
    drift = float(np.linalg.norm(m @ v))
    if abs(radial) > tol or drift > tol:
        raise ValueError(
            f"direction is not an admissible tangent: <v,Ms>={radial:.3e}, |sum m_i v_i|={drift:.3e}"
        )


def tangent_part(s, m, v) -> np.ndarray:
    """v less its total momentum and its radial part <v, Ms> s.

    For s on the ellipsoid {I = 1} with its center of mass at the origin the
    result passes check_tangent.
    """
    s = as_positions(s)
    m = as_masses(m)
    v = np.asarray(v, dtype=float).reshape(s.shape)
    v = v - (m @ v)[None, :] / m.sum()
    return v - float(np.sum(m[:, None] * s * v)) * s


def hessian_constrained(s, m, alpha, v, residual_tol: float = 1e-8) -> float:
    """Second derivative of U restricted to the ellipsoid {I = 1} at a central s.

    Equals hessian_quadratic(s, v) + alpha U(s) <Mv, v> for tangent v with
    vanishing mass-weighted sum.  Raises NotCentral when the centrality
    residual of s exceeds tolerance.
    """
    from .errors import NotCentral

    s = as_positions(s)
    m = as_masses(m)
    alpha = validate_alpha(alpha)
    res = central_residual(s, m, alpha)
    if res > residual_tol * residual_scale(s, m, alpha):
        raise NotCentral(f"centrality residual {res:.3e} exceeds tolerance")
    v = np.asarray(v, dtype=float).reshape(s.shape)
    if np.allclose(v, 0.0):
        return 0.0
    check_tangent(s, m, v)
    return hessian_on_ellipsoid(s, m, alpha, v)


def hessian_on_ellipsoid(s, m, alpha, v) -> float:
    """Second derivative of the degree-zero extension of U at any ellipsoid point.

    For tangent v the extension terms proportional to <Ms, v> vanish and the
    value reduces to hessian_quadratic + alpha U <Mv, v>; no centrality needed.
    """
    s = as_positions(s)
    m = as_masses(m)
    v = np.asarray(v, dtype=float).reshape(s.shape)
    mv = float(np.sum(m * np.sum(v * v, axis=1)))
    return hessian_quadratic(s, m, alpha, v) + alpha * potential(s, m, alpha) * mv


def config_to_json(x, m, alpha, extra: dict | None = None) -> str:
    """Serialize a configuration with the fixed field names."""
    x = as_positions(x)
    payload = {
        "alpha": float(alpha),
        "dim": int(x.shape[1]),
        "masses": [float(v) for v in as_masses(m)],
        "positions": [[float(c) for c in row] for row in x],
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2)


def config_from_json(text: str):
    """Parse the configuration schema; returns (x, m, alpha, full payload)."""
    payload = json.loads(text)
    x = as_positions(payload["positions"])
    if x.shape[1] != int(payload["dim"]):
        raise ValueError("dim field does not match position width")
    m = as_masses(payload["masses"])
    alpha = validate_alpha(payload["alpha"])
    return x, m, alpha, payload
