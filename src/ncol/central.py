"""Central configurations: analytic families and a numeric critical-point solver."""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import nbody
from .errors import (ConvergedToCollision, InvalidMass, InvalidN, NoConvergence, NotCentral,
                     OverflowingConfiguration, ZeroConfiguration)

# an alpha within this of a configuration's own keeps its b and residual
# (CentralConfiguration.at_alphas)
SAME_ALPHA_TOL = 1e-14


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

    def at_alphas(self, alphas):
        """(alphas, b, residual, tol) of the same shape and masses at each exponent, ungated.

        alphas validated, shape (K,); b, residual and the gate's tol from
        nbody.central_gate_stack (floor 1e-8, 1e3 eps of scale).  The shape is
        not re-solved.  An alpha within SAME_ALPHA_TOL of the configuration's
        own keeps its b and residual.
        """
        alphas = nbody.validate_alpha(np.array(alphas, dtype=float).reshape(-1))
        b, residual, tol = nbody.central_gate_stack(self.s0, self.masses, alphas[:, None],
                                                    1e-8, 1e3)
        own = np.abs(alphas - self.alpha) <= SAME_ALPHA_TOL
        return alphas, np.where(own, self.b, b), np.where(own, self.residual, residual), tol

    def at_alpha(self, alpha: float) -> "CentralConfiguration":
        """The one-alpha case of at_alphas, as a configuration; self at exactly its own alpha."""
        if alpha == self.alpha:
            return self
        (alpha,), (b,), (residual,), _ = self.at_alphas([alpha])
        return replace(self, alpha=float(alpha), b=float(b), residual=float(residual))

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
    u, res, tol = nbody.central_gate_stack(s0, m, alpha, nbody.RESIDUAL_TOL, 100.0)
    if not 0.0 < u < np.inf:
        raise NotCentral(f"potential {float(u)} is not finite and positive")
    res = float(res)
    # written so that a NaN residual fails it
    if not res <= tol:
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

    Stops at a residual of 1e-11 times 1 + alpha U |M x|, the size of the
    terms cancelling in it (nbody.central_residual_from's scale).  A start
    with a coordinate that is not finite raises ValueError, one whose moment
    of inertia about its center of mass overflows (coordinates near 1e308)
    OverflowingConfiguration, and one whose projection has a pair closer
    than 1e-8 ConvergedToCollision.  A
    line-search trial that close is rejected like one that does not lower
    the residual: the step is halved, and 40 halvings end in NoConvergence
    ("line search stalled ...").
    Roots of this square system automatically satisfy I(x) = 1 and a zero
    center of mass, so no explicit constraint handling is needed; iterates are
    still re-projected for conditioning.  The target points are saddles of the
    constrained potential, which is why the solver works on the residual
    rather than descending U itself.  Each configuration visited is evaluated
    in one pass over its pairs, and an accepted trial's evaluation is the
    next iteration's.
    """
    x = nbody.as_positions(initial)
    m = nbody.as_masses(m)
    alpha = nbody.validate_alpha(alpha)
    if not np.isfinite(x).all():
        raise ValueError("positions must be finite")
    n, d = x.shape

    def project(y):
        y = y - m @ y / m.sum()
        return y / np.sqrt(nbody.moment_of_inertia(y, m))

    with np.errstate(over="ignore", invalid="ignore"):
        inertia = nbody.moment_of_inertia(x - m @ x / m.sum(), m)
    if inertia == 0.0:
        raise ZeroConfiguration("zero moment of inertia about the center of mass")
    if not inertia < np.inf:
        raise OverflowingConfiguration("moment of inertia about the center of mass overflows")
    x = project(x)
    _, _, diff, dist = nbody.pair_separations(x)
    if dist.min() < 1e-8:
        raise ConvergedToCollision("iterate entered the collision neighborhood")
    u, g, f, scale = nbody.central_residual_from(x, m, alpha, diff, dist)
    res = nbody.norm_stack(f)
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
        if res <= 1e-11 * scale:
            return _verify(x, m, alpha, "numeric")
        jac = nbody.hessian_full(x, m, alpha)
        jac += alpha * np.outer(mdiag * x.ravel(), g.ravel())
        jac += alpha * float(u) * np.diag(mdiag)
        rot = rotation_rows(x)
        weight = max(1.0, np.linalg.norm(jac))
        aug = np.vstack([jac] + [weight * r[None, :] for r in rot])
        rhs = np.concatenate([-f.ravel(), np.zeros(len(rot))])
        step, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        # backtracking on the residual norm
        t = 1.0
        for _ in range(40):
            trial = project(x + t * step.reshape(n, d))
            _, _, diff, dist = nbody.pair_separations(trial)
            if dist.min() > 1e-8:
                parts = nbody.central_residual_from(trial, m, alpha, diff, dist)
                trial_res = nbody.norm_stack(parts[2])
                if trial_res < res:
                    x, (u, g, f, scale), res = trial, parts, trial_res
                    break
            t *= 0.5
        else:
            raise NoConvergence(f"line search stalled at residual {res:.3e}")
    raise NoConvergence(f"no convergence after {max_iter} iterations")
