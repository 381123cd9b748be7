"""Configuration-space geometry and derivatives of the power-law pair potential.

Positions are (N, d) arrays, masses (N,) arrays.  The pair potential is

    U(x) = sum_{i<j} m_i m_j |x_i - x_j|^(-alpha),   0 < alpha < 2,

and all inner products written ``<.,.>`` are plain Euclidean; the mass
metric enters only through explicit factors of M = diag(m_i).

Two layers: the core (pair_separations, pair_terms, potential_gradient_kernel,
central_residual_from and the ``*_stack`` kernels) works unchecked on stacks
(..., N, d), one value per configuration; the boundary (checked, potential,
moment_of_inertia, hessian_full, check_tangent, tangent_part and the JSON
schema) validates one configuration and calls the core.

The gradient gathers each body's pair terms through a cached index and adds
them in the order a scatter of the pair forces would, so it rounds as that
scatter does.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .errors import CollisionConfiguration, InvalidMass, NotTangent

COLLISION_THRESHOLD = 1e-12
RESIDUAL_TOL = 1e-9


def validate_alpha(alpha):
    """Force exponent alpha must lie strictly inside (0, 2).

    A scalar comes back as a float, a numpy array as a float array; for an
    array the error names its first value outside the interval.
    """
    if getattr(alpha, "ndim", 0) == 0:
        alpha = float(alpha)
        if not 0.0 < alpha < 2.0:
            raise ValueError(f"alpha must lie in the open interval (0, 2), got {alpha}")
        return alpha
    alphas = np.asarray(alpha, dtype=float)
    bad = np.flatnonzero(~((alphas > 0.0) & (alphas < 2.0)))
    if bad.size:
        validate_alpha(alphas.flat[bad[0]])
    return alphas


def as_masses(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 1 or m.size < 2:
        raise InvalidMass("need a flat vector of at least two masses")
    if not np.all((m > 0.0) & (m < np.inf)):
        raise InvalidMass(f"all masses must be positive and finite, got {m}")
    return m


def as_positions(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 1:
        raise ValueError(f"positions must be an (N, d) array with N >= 2, got shape {x.shape}")
    return x


def mass_matrix_diag(m: np.ndarray, d: int) -> np.ndarray:
    """Diagonal of M acting on flattened (N*d,) vectors."""
    return np.repeat(as_masses(m), d)


# ---------------------------------------------------------------------------
# the core: unchecked kernels on stacks of configurations
#
# Positions come as stacks (..., N, d) and every function returns one value
# per configuration.  Masses, alpha and shapes are trusted; the boundary below
# and the callers inside the package validate them once.  A pair closer than
# COLLISION_THRESHOLD anywhere in a stack still raises CollisionConfiguration.


@functools.cache
def pair_indices(n: int):
    """Upper-triangle pair indices (i, j) of n bodies, read-only, one copy per n."""
    ii, jj = np.triu_indices(n, k=1)
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


def pair_separations(x: np.ndarray):
    """Pair indices (i, j), separations x_i - x_j and distances of a stack (..., N, d)."""
    ii, jj = pair_indices(x.shape[-2])
    diff = x.take(ii, axis=-2)
    diff -= x.take(jj, axis=-2)
    # np.add.reduce is the sum method without its Python wrapper; the tau-flow
    # right-hand side comes here once per call
    dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
    return ii, jj, diff, dist


@functools.cache
def _pair_gather_index(n: int):
    """(n-1, n) index into the pair terms [f; -f] of n bodies, read-only, one copy per n.

    Body i takes +f of its pairs (i, j) and -f of its pairs (k, i).  Column i
    lists the first, then the second, each in pair order: the order in which
    a scatter of +f and then of -f adds them.
    """
    ii, jj = pair_indices(n)
    # a stable sort by the body each term belongs to keeps that order
    idx = np.argsort(np.concatenate([ii, jj]), kind="stable").reshape(n, n - 1).T.copy()
    idx.flags.writeable = False
    return idx


def pair_terms(x, m):
    """pair_separations with the pair masses m_i m_j: (i, j, m_i m_j, x_i - x_j, r_ij).

    Raises CollisionConfiguration when a pair anywhere in the stack is closer
    than COLLISION_THRESHOLD.
    """
    ii, jj, diff, dist = pair_separations(x)
    _check_separations(dist)
    return ii, jj, m[ii] * m[jj], diff, dist


def _check_separations(dist):
    # an empty stack has no close pair
    if np.minimum.reduce(dist, axis=None, initial=np.inf) < COLLISION_THRESHOLD:
        raise CollisionConfiguration(f"minimum pair distance {dist.min():.3e} below threshold")


def _potential_from(alpha, mm, dist):
    return np.add.reduce(mm * dist ** (-alpha), axis=-1)


def _gradient_from(amm, exponent, diff, dist, gather):
    """grad U of a stack from amm = -alpha m_i m_j and exponent = -(alpha + 2).

    Each body sums its pair forces f = amm r^exponent (x_i - x_j), gathered
    through gather = _pair_gather_index(N), in the order and with the
    roundings of a scatter of +f onto each i and then -f onto each j.
    """
    force = (amm * dist ** exponent)[..., None] * diff
    terms = np.concatenate([force, -force], axis=-2).take(gather, axis=-2)
    # the summed axis lies outside the (N, d) block, so the blocks are added
    # one after another, never pairwise; the sum starts from 0.0 as the
    # scatter starts from zeros, so that a zero sum has the scatter's sign
    return np.add.reduce(terms, axis=-3, initial=0.0)


def potential_gradient_kernel(m, alpha):
    """x -> (U, grad U) of a stack (..., N, d) of the bodies of masses m, with
    the pair masses and the gather index formed once: pair_terms' check, then
    one pass over the pairs."""
    ii, jj = pair_indices(m.size)
    mm = m[ii] * m[jj]
    amm, exponent, gather = -alpha * mm, -(alpha + 2.0), _pair_gather_index(m.size)

    def kernel(x):
        _, _, diff, dist = pair_separations(x)
        _check_separations(dist)
        return _potential_from(alpha, mm, dist), _gradient_from(amm, exponent, diff, dist, gather)

    return kernel


def potential_stack(x, m, alpha) -> np.ndarray:
    """U = sum over pairs of m_i m_j / |x_i - x_j|^alpha, shape (...).

    alpha broadcasts against the pair distances (..., P): a scalar, or
    alphas[:, None] for one alpha per configuration; so for
    potential_gradient_kernel and the centrality residual.
    """
    _, _, mm, _, dist = pair_terms(x, m)
    return _potential_from(alpha, mm, dist)


def hessian_quadratic_stack(x, m, alpha, v) -> np.ndarray:
    """Second derivative of U at x on the direction v (broadcast against x), shape (...)."""
    ii, jj, mm, diff, dist = pair_terms(x, m)
    dv = v.take(ii, axis=-2) - v.take(jj, axis=-2)
    inner = (diff * dv).sum(axis=-1)
    with np.errstate(over="ignore"):
        r4, r2 = dist ** (alpha + 4.0), dist ** (alpha + 2.0)
    far = np.isinf(r4)
    if far.any():
        # <u, dv>^2 / r^(alpha+4) = <u/r, dv>^2 / r^(alpha+2), which does not
        # overflow; where r^(alpha+2) does, the pair's term is below
        # alpha (alpha+1) m_i m_j |dv|^2 / DBL_MAX and is taken as 0
        inner, r4 = np.where(far, inner / dist, inner), np.where(far, r2, r4)
    return alpha * (mm * ((alpha + 2.0) * inner**2 / r4
                          - (dv * dv).sum(axis=-1) / r2)).sum(axis=-1)


def hessian_on_ellipsoid_stack(s, m, alpha, v) -> np.ndarray:
    """Second derivative of the degree-zero extension of U at ellipsoid points s, shape (...).

    For tangent v the extension terms proportional to <Ms, v> vanish and the
    value reduces to hessian_quadratic_stack + alpha U <Mv, v>; no centrality
    needed.
    """
    mv = (m * (v * v).sum(axis=-1)).sum(axis=-1)
    return hessian_quadratic_stack(s, m, alpha, v) + alpha * potential_stack(s, m, alpha) * mv


def pair_hessian_blocks(alpha, mm, diff, dist) -> np.ndarray:
    """Per-pair Hessian blocks B, shape (..., P, d, d), of pairs (..., P) with
    pair masses mm, separations diff = u = x_i - x_j and distances dist = r:

        B = alpha m_i m_j [(alpha+2) u u^T / r^(alpha+4) - I / r^(alpha+2)].

    alpha broadcasts against the blocks, as in hessian_full_stack.  Where
    r^(alpha+4) overflows, the first term is formed as (alpha+2) u' u'^T /
    r^(alpha+2) with u' = u / r, which does not; where r^(alpha+2) overflows
    too, the block is below alpha (alpha+1) m_i m_j / DBL_MAX and is taken as 0.
    """
    r = dist[..., None, None]
    with np.errstate(over="ignore"):
        r4, r2 = r ** (alpha + 4.0), r ** (alpha + 2.0)
    far = np.isinf(r4)
    if far.any():
        diff, r4 = np.where(far[..., 0], diff / r[..., 0], diff), np.where(far, r2, r4)
    outer = diff[..., :, None] * diff[..., None, :]
    return alpha * mm[..., None, None] * ((alpha + 2.0) * outer / r4 - np.eye(diff.shape[-1]) / r2)


def hessian_full_stack(x, m, alpha) -> np.ndarray:
    """Hessian of U on the full space, shape (..., N*d, N*d).

    A difference coupling puts minus the pair block B (pair_hessian_blocks) at
    (i, j) and (j, i); each diagonal block is minus the sum of the
    off-diagonal blocks of its row.  alpha broadcasts against the blocks
    (..., P, d, d), whose batch shape the result takes: a scalar, or
    alphas[:, None, None, None] for K alphas on a (K, N, d) stack or one shape.
    """
    ii, jj, mm, diff, dist = pair_terms(x, m)
    n, d = x.shape[-2:]
    block = pair_hessian_blocks(alpha, mm, diff, dist)
    batch = block.shape[:-3]
    H = np.zeros(batch + (n, n, d, d))
    H[..., ii, jj, :, :] = -block
    H[..., jj, ii, :, :] = -block
    diag = np.arange(n)
    H[..., diag, diag, :, :] = -H.sum(axis=-3)
    return np.swapaxes(H, -3, -2).reshape(batch + (n * d, n * d))


def norm_stack(v) -> np.ndarray:
    """Euclidean norm of each configuration of a stack (..., N, d), shape (...).

    The square root of one dot product per configuration: np.linalg.norm's
    arithmetic on a single configuration.
    """
    flat = v.reshape(v.shape[:-2] + (v.shape[-2] * v.shape[-1],))
    return np.sqrt(np.vecdot(flat, flat))


def central_residual_from(x, m, alpha, diff, dist):
    """(U, grad U, grad U + alpha U M x, 1 + alpha U |M x|) of a stack (..., N, d)
    from its pair separations diff and distances dist (pair_separations).

    The residual of the central-configuration identity, shape (..., N, d),
    and the magnitude of the terms cancelling in it, shape (...).  The
    distances are not checked: the caller has kept them off zero.
    """
    ii, jj = pair_indices(x.shape[-2])
    mm = m[ii] * m[jj]
    u = _potential_from(alpha, mm, dist)
    grad = _gradient_from(-alpha * mm, -(alpha + 2.0), diff, dist,
                          _pair_gather_index(x.shape[-2]))
    au = (alpha * u[..., None])[..., 0]  # alpha U, one per configuration
    residual = grad + au[..., None, None] * m[:, None] * x
    return u, grad, residual, 1.0 + au * norm_stack(m[:, None] * x)


def central_residual_stack(x, m, alpha):
    """(U, grad U + alpha U M x, 1 + alpha U |M x|) of a stack (..., N, d):
    central_residual_from after pair_terms' check."""
    _, _, _, diff, dist = pair_terms(x, m)
    u, _, residual, scale = central_residual_from(x, m, alpha, diff, dist)
    return u, residual, scale


def central_gate_stack(x, m, alpha, floor, rel):
    """(U, |residual|, tol): the norm of central_residual_stack's residual and its bound.

    tol = max(floor, rel eps scale, eps |x| sum_{i<j} alpha (alpha+1) m_i m_j / r_ij^(alpha+2)),
    shape (...).  The last term is what rounding the positions to float64
    leaves in the residual: a relative error eps in x, carried through the
    pair Hessian, whose largest block eigenvalue is alpha (alpha+1) m_i m_j /
    r^(alpha+2).  It is the one that grows with N on a regular polygon, whose
    nearest neighbours close in as 1/N^1.5.  Terms that overflow leave a NaN
    or infinite norm without numpy's warnings, for the gates to reject.
    """
    _, _, mm, diff, dist = pair_terms(x, m)
    with np.errstate(over="ignore", invalid="ignore"):
        u, _, residual, scale = central_residual_from(x, m, alpha, diff, dist)
        eps = np.finfo(float).eps
        curvature = np.add.reduce(alpha * (alpha + 1.0) * mm * dist ** -(alpha + 2.0), axis=-1)
        tol = np.maximum(np.maximum(floor, rel * eps * scale), eps * norm_stack(x) * curvature)
        return u, norm_stack(residual), tol


# ---------------------------------------------------------------------------
# the boundary: validated functions of one configuration (N, d)


def checked(x, m, alpha):
    """Validated positions (N, d), masses (N,) and alpha."""
    x = as_positions(x)
    m = as_masses(m)
    if m.size != x.shape[0]:
        raise ValueError("mass vector length does not match body count")
    return x, m, validate_alpha(alpha)


def potential(x, m, alpha) -> float:
    """U(x) = sum over pairs of m_i m_j / |x_i - x_j|^alpha."""
    return float(potential_stack(*checked(x, m, alpha)))


def moment_of_inertia(x, m) -> float:
    """I(x) = sum m_i |x_i|^2 = <Mx, x>."""
    x = as_positions(x)
    m = as_masses(m)
    return float(np.sum(m * np.sum(x * x, axis=1)))


def hessian_full(x, m, alpha) -> np.ndarray:
    """Hessian of U on the full space, as an (N*d, N*d) symmetric matrix."""
    return hessian_full_stack(*checked(x, m, alpha))


def check_tangent(s, m, v, tol: float = 1e-8) -> None:
    """Require <v, Ms> = 0 and sum_i m_i v_i = 0 within tol of the sums of their terms' sizes.

    The bounds scale with the masses, so a direction that is tangent up to
    round-off passes at masses of 1e12 as at masses of 1.
    """
    s = as_positions(s)
    m = as_masses(m)
    v = np.asarray(v, dtype=float).reshape(s.shape)
    terms = m[:, None] * v
    radial_terms = terms * s
    radial = float(np.sum(radial_terms))
    drift = float(np.linalg.norm(np.sum(terms, axis=0)))
    if not (abs(radial) <= tol * float(np.sum(np.abs(radial_terms)))
            and drift <= tol * float(np.sum(np.abs(terms)))):
        raise NotTangent(
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


def config_to_json(x, m, alpha, extra: dict) -> str:
    """Serialize a configuration with the fixed field names, then the fields of extra."""
    x = as_positions(x)
    payload = {
        "alpha": float(alpha),
        "dim": int(x.shape[1]),
        "masses": [float(v) for v in as_masses(m)],
        "positions": [[float(c) for c in row] for row in x],
    }
    payload.update(extra)
    return json.dumps(payload, indent=2)


def config_from_json(text: str):
    """Parse the configuration schema; returns (x, m, alpha, full payload)."""
    payload = json.loads(text)
    x = as_positions(payload["positions"])
    if not np.isfinite(x).all():
        raise ValueError("positions must be finite")
    if x.shape[1] != int(payload["dim"]):
        raise ValueError("dim field does not match position width")
    m = as_masses(payload["masses"])
    alpha = validate_alpha(payload["alpha"])
    return x, m, alpha, payload
