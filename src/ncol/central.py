"""Central configurations: analytic families and a numeric critical-point solver."""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import nbody
from .errors import (ConvergedToCollision, InvalidMass, InvalidN, NoConvergence, NotCentral,
                     ZeroConfiguration)


@dataclass(frozen=True)
class CentralConfiguration:
    """A verified critical point of U on the ellipsoid {I = 1}.

    b is the potential level U(s0); residual the norm of
    grad U(s0) + alpha U(s0) M s0.
    """

    s0: np.ndarray
    masses: np.ndarray
    alpha: float
    b: float
    residual: float
    family: str = "numeric"

    def __post_init__(self):
        self.s0.setflags(write=False)
        self.masses.setflags(write=False)

    @property
    def n(self) -> int:
        return self.s0.shape[0]

    @property
    def dim(self) -> int:
        return self.s0.shape[1]

    def at_alpha(self, alpha: float) -> "CentralConfiguration":
        """The same shape and masses at exponent alpha, with b and residual recomputed.

        The shape is not re-solved, so residual measures how far it is from
        central at the new exponent.  Returns self when alpha is unchanged.
        """
        if abs(alpha - self.alpha) <= 1e-14:
            return self
        alpha = nbody.validate_alpha(alpha)
        u, residual, _ = nbody.central_residual_stack(self.s0, self.masses, alpha)
        return replace(self, alpha=alpha, b=float(u), residual=float(nbody.norm_stack(residual)))

    def to_json(self) -> str:
        return nbody.config_to_json(
            self.s0,
            self.masses,
            self.alpha,
            extra={"b": self.b, "residual": self.residual, "family": self.family},
        )


def _verify(s0, m, alpha, family) -> CentralConfiguration:
    s0, m, alpha = nbody.checked(s0, m, alpha)
    inertia = nbody.moment_of_inertia(s0, m)
    if abs(inertia - 1.0) > 1e-12:
        raise NotCentral(f"moment of inertia {inertia} is off the unit ellipsoid")
    u, residual, tol = nbody.central_gate_stack(s0, m, alpha, nbody.RESIDUAL_TOL, 100.0)
    if not 0.0 < u < np.inf:
        raise NotCentral(f"potential {float(u)} is not finite and positive")
    res = float(nbody.norm_stack(residual))
    if res > tol:
        raise NotCentral(f"centrality residual {res:.3e} exceeds {tol:.3e}")
    return CentralConfiguration(s0=s0, masses=m, alpha=alpha, b=float(u), residual=res,
                                family=family)


def collinear3(m1: float, m2: float, alpha: float) -> CentralConfiguration:
    """Symmetric collinear three-body configuration with outer masses m1 = m3.

    Outer bodies sit at (+-1/sqrt(2 m1), 0), the middle body of mass m2 at the
    origin; this is central for every m2 and alpha, verified numerically.
    """
    if m1 <= 0 or m2 <= 0:
        raise InvalidMass("masses must be positive")
    nbody.validate_alpha(alpha)
    a = 1.0 / np.sqrt(2.0 * m1)
    s0 = np.array([[-a, 0.0], [0.0, 0.0], [a, 0.0]])
    m = np.array([m1, m2, m1], dtype=float)
    family = "collinear3-equal" if m1 == m2 else "collinear3-m2"
    return _verify(s0, m, alpha, family)


def ngon(n: int, alpha: float) -> CentralConfiguration:
    """Planar regular n-gon of unit masses inscribed in a circle of radius 1/sqrt(n).

    Stated for n >= 4; n in {2, 3} is allowed with a warning since the
    construction stays central there too.  embed_in_3d lifts it to space.
    """
    if n < 2:
        raise InvalidN(f"need at least two vertices, got {n}")
    if n < 4:
        warnings.warn(f"ngon with n={n} is outside the stated range n >= 4", stacklevel=2)
    nbody.validate_alpha(alpha)
    return _verify(ngon_vertices(n), np.ones(n), alpha, "ngon")


@functools.cache
def ngon_vertices(n: int) -> np.ndarray:
    """The rows of ngon(n), read-only, one copy per n: the n-th roots of unity
    (unit_circle) over sqrt(n)."""
    rows = unit_circle(n) / np.sqrt(n)
    rows.flags.writeable = False
    return rows


def unit_circle(n: int) -> np.ndarray:
    """(cos, sin) of 2 pi k / n for k = 0..n-1, shape (n, 2): the n-th roots of unity."""
    angle = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(angle), np.sin(angle)], axis=1)


def embed_in_3d(cc: CentralConfiguration) -> CentralConfiguration:
    """Pad a planar configuration with a zero third coordinate."""
    if cc.dim == 3:
        return cc
    s0 = np.hstack([cc.s0, np.zeros((cc.n, 1))])
    return CentralConfiguration(s0=s0, masses=cc.masses.copy(), alpha=cc.alpha, b=cc.b,
                                residual=cc.residual, family=cc.family)


def solve_central(initial, m, alpha, max_iter: int = 200) -> CentralConfiguration:
    """Damped Gauss-Newton solve of grad U(x) + alpha U(x) M x = 0.

    Stops at a residual of 1e-11 times residual_scale; an iterate closer
    than 1e-8 to a collision raises ConvergedToCollision.
    Roots of this square system automatically satisfy I(x) = 1 and a zero
    center of mass, so no explicit constraint handling is needed; iterates are
    still re-projected for conditioning.  The target points are saddles of the
    constrained potential, which is why the solver works on the residual
    rather than descending U itself.
    """
    x = nbody.as_positions(initial).copy()
    m = nbody.as_masses(m)
    alpha = nbody.validate_alpha(alpha)
    n, d = x.shape

    def project(y):
        y = y - nbody.center_of_mass(y, m)
        return y / np.sqrt(nbody.moment_of_inertia(y, m))

    if nbody.moment_of_inertia(x - nbody.center_of_mass(x, m), m) == 0.0:
        raise ZeroConfiguration("zero moment of inertia about the center of mass")
    x = project(x)
    mdiag = nbody.mass_matrix_diag(m, d)

    def rotation_rows(y):
        # rotation generators span the Jacobian null space at roots; deflate
        rows = []
        for a in range(d):
            for b in range(a + 1, d):
                r = np.zeros((n, d))
                r[:, a] = -y[:, b]
                r[:, b] = y[:, a]
                r = r.ravel()
                nr = np.linalg.norm(r)
                if nr > 1e-12:
                    rows.append(r / nr)
        return rows

    for _ in range(max_iter):
        if nbody.min_distance(x) < 1e-8:
            raise ConvergedToCollision("iterate entered the collision neighborhood")
        u, f, scale = nbody.central_residual_stack(x, m, alpha)
        f = f.ravel()
        res = np.linalg.norm(f)
        if res <= 1e-11 * scale:
            return _verify(x, m, alpha, "numeric")
        g = nbody.gradient(x, m, alpha).ravel()
        jac = nbody.hessian_full(x, m, alpha)
        jac += alpha * np.outer(mdiag * x.ravel(), g)
        jac += alpha * float(u) * np.diag(mdiag)
        rot = rotation_rows(x)
        weight = max(1.0, np.linalg.norm(jac))
        aug = np.vstack([jac] + [weight * r[None, :] for r in rot])
        rhs = np.concatenate([-f, np.zeros(len(rot))])
        step, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        # backtracking on the residual norm
        t = 1.0
        for _ in range(40):
            trial = project(x + t * step.reshape(n, d))
            if nbody.min_distance(trial) > 1e-8 and \
                    nbody.central_residual(trial, m, alpha) < res:
                x = trial
                break
            t *= 0.5
        else:
            raise NoConvergence(f"line search stalled at residual {res:.3e}")
    raise NoConvergence(f"no convergence after {max_iter} iterations")
