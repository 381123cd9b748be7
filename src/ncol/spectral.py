"""Non-minimality criterion and the closed-form sufficient conditions.

The criterion compares the smallest constrained Hessian eigenvalue mu1 at a
central configuration against -(2-alpha)^2/8 * U(s0); the margin is their
difference, negative when the criterion holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import nbody
from .central import CentralConfiguration, ngon_vertices, unit_circle
from .errors import BracketFailure, InvalidN, NoConvergence, NotCentral

ALPHA_FLOOR = 1e-6
BISECT_DEPTH = 6  # halvings per call of f in bisect
BISECT_MAX_ITER = 200  # halvings before bisect gives up
SCAN_BLOCK = 256  # grid intervals per block of ngon_threshold's bracket scan


@dataclass(frozen=True)
class SpectralReport:
    mu1: float
    eigvec: np.ndarray
    b: float
    alpha: float
    margin: float
    satisfied: bool
    family: str
    eigenvalues: np.ndarray = field(default=None, repr=False)
    # full admissible eigenbasis, shape (k, N, d); eigvec is its first row --
    # for a degenerate bottom eigenvalue the whole eigenspace is available here
    eigenvectors: np.ndarray = field(default=None, repr=False)

    def bottom_eigenspace(self) -> np.ndarray:
        near = np.abs(self.eigenvalues - self.mu1) < 1e-9 * (1.0 + abs(self.mu1))
        return self.eigenvectors[near]

    def to_dict(self) -> dict:
        return {
            "mu1": self.mu1,
            "b": self.b,
            "alpha": self.alpha,
            "margin": self.margin,
            "satisfied": bool(self.satisfied),
            "family": self.family,
        }


@dataclass(frozen=True)
class ThresholdResult:
    alpha_star: float
    bracket: tuple
    residual: float
    family: str


def rhs_factor(alpha):
    """(alpha+2)^2 / (8 alpha), the normalized right-hand side of the criterion.

    Takes a scalar or an array of alphas; all must reach ALPHA_FLOOR.
    """
    if np.min(alpha, initial=np.inf) < ALPHA_FLOOR:
        raise ValueError(f"alpha below evaluation floor {ALPHA_FLOOR}")
    return (alpha + 2.0) ** 2 / (8.0 * alpha)


def admissible_basis(s0: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of {<v, M s0> = 0} and {sum_i m_i v_i = 0}.

    The null space of the normalized constraint rows, read off one complete
    QR of their transpose.  The d mass-sum rows are mutually orthogonal, so
    only the M s0 row, placed last, can depend on the others; |R_kk| below
    1e-12 drops it, and the columns of Q past the rank span the null space.
    A row whose norm overflows (masses above about 1e154) is first divided
    by its largest entry.
    """
    d = s0.shape[1]
    cons = np.vstack([np.kron(m, np.eye(d)), (m[:, None] * s0).ravel()])
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(cons, axis=1)
    huge = np.isinf(norms)
    if huge.any():
        cons[huge] /= np.abs(cons[huge]).max(axis=1)[:, None]
        norms = np.linalg.norm(cons, axis=1)
    cons /= norms[:, None]
    q, r = np.linalg.qr(cons.T, mode="complete")
    rank = int(np.count_nonzero(np.abs(np.diag(r)) > 1e-12))
    return q[:, rank:].T


def constrained_hessian_matrix(cc: CentralConfiguration, alphas, b) -> np.ndarray:
    """Full-space matrices H + alpha b M of the ellipsoid-restricted second derivative.

    One (N*d, N*d) matrix of the shape cc.s0 per entry of alphas, and b the
    matching potentials: shape (K, N*d, N*d) for K alphas,
    (N*d, N*d) for one scalar.  alphas are trusted, as in nbody's core;
    spectral_sweep validates them.
    """
    alphas = np.asarray(alphas, dtype=float)
    h = nbody.hessian_full_stack(cc.s0, cc.masses, alphas[..., None, None, None])
    mdiag = nbody.mass_matrix_diag(cc.masses, cc.dim)
    return h + (alphas * b)[..., None, None] * np.diag(mdiag)


@dataclass(frozen=True)
class SpectralSweep:
    """The criterion of one shape at K exponents; report(k) is its k-th SpectralReport.

    b, residual, mu1 and margin have shape (K,), eigenvalues (K, k) and
    eigenvectors (K, k, N, d) with k admissible directions.
    """
    alphas: np.ndarray
    b: np.ndarray
    residual: np.ndarray
    mu1: np.ndarray
    margin: np.ndarray
    family: str
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    def report(self, k: int) -> SpectralReport:
        margin = float(self.margin[k])
        return SpectralReport(mu1=float(self.mu1[k]), eigvec=self.eigenvectors[k, 0],
                              b=float(self.b[k]), alpha=float(self.alphas[k]), margin=margin,
                              satisfied=margin < 0.0, family=self.family,
                              eigenvalues=self.eigenvalues[k],
                              eigenvectors=self.eigenvectors[k])


def spectral_sweep(cc: CentralConfiguration, alphas) -> SpectralSweep:
    """Smallest constrained Hessian eigenvalue of the shape cc.s0 at each alpha.

    The shape is not re-solved: b and the centrality residual come from
    cc.at_alphas, and NotCentral names the first alpha where the residual
    fails its gate.  A regular polygon as central.ngon builds it (is_cyclic)
    is solved mode by mode in d x d blocks (_cyclic_spectrum); every other
    shape by one admissible basis, one (K, N*d, N*d) Hessian stack and one
    batched eigh of order N*d - d - 1 (_dense_spectrum).  Either way the
    eigenvalues come in ascending order and the eigenvectors are
    Euclidean-normalized; for unequal masses the value depends on this
    normalization choice.  Variations leave the plane of a planar shape only
    once the caller has embedded it (central.embed_in_3d).
    """
    alphas, b, residual, tol = cc.at_alphas(alphas)
    bad = np.flatnonzero(~(residual <= tol))
    if bad.size:
        k = bad[0]
        raise NotCentral(f"configuration residual {residual[k]:.3e} too large "
                         f"at alpha = {alphas[k]:.12g}")
    solve = _cyclic_spectrum if is_cyclic(cc) else _dense_spectrum
    vals, vecs = solve(cc, alphas, b)
    mu1 = vals[:, 0]
    margin = mu1 + (2.0 - alphas) ** 2 / 8.0 * b
    return SpectralSweep(alphas=alphas, b=b, residual=residual, mu1=mu1, margin=margin,
                         family=cc.family, eigenvalues=vals, eigenvectors=vecs)


def _dense_spectrum(cc: CentralConfiguration, alphas, b):
    """(eigenvalues (K, k), eigenvectors (K, k, N, d)) of H + alpha b M on the
    admissible basis: one batched eigh of order k = N*d - d - 1."""
    basis = admissible_basis(cc.s0, cc.masses)
    proj = basis @ constrained_hessian_matrix(cc, alphas, b) @ basis.T
    vals, vecs = np.linalg.eigh(proj)
    kdim = basis.shape[0]
    full = np.swapaxes(basis.T @ vecs, -1, -2).reshape(alphas.size, kdim, *cc.s0.shape)
    full /= np.linalg.norm(full.reshape(alphas.size, kdim, cc.s0.size), axis=-1)[..., None, None]
    return vals, full


def is_cyclic(cc: CentralConfiguration) -> bool:
    """True when spectral_sweep solves cc mode by mode (_cyclic_spectrum).

    That is the polygon central.ngon builds: n >= 3 equal masses, rows
    bitwise its vertices, planar or with the zero third column embed_in_3d
    adds.  Any other shape, a moved or solved polygon among them, goes dense.
    """
    n, d = cc.s0.shape
    return (n >= 3 and d in (2, 3) and not cc.s0[:, 2:].any()
            and bool(np.all(cc.masses == cc.masses[0]))
            and np.array_equal(cc.s0[:, :2], ngon_vertices(n)))


def _read_only(*arrays):
    for t in arrays:
        t.flags.writeable = False
    return arrays


@functools.cache
def _polygon_tables(n: int):
    """Read-only tables of the n-gon, one copy per n, with omega = exp(2 pi i / n).

    turns (n - 1, 2, 2): R^l, the turn by 2 pi l / n, for l = 1..n-1; roots
    (n,): omega^j; cos and sin (n//2 + 1, n): the parts of omega^(k j) for
    the modes k = 0..n//2.
    """
    circle = unit_circle(n)
    c, s = circle[1:, 0], circle[1:, 1]
    kj = np.arange(n // 2 + 1)[:, None] * np.arange(n) % n
    return _read_only(np.stack([c, -s, s, c], axis=-1).reshape(n - 1, 2, 2),
                      circle[:, 0] + 1j * circle[:, 1], circle[kj, 0], circle[kj, 1])


@functools.cache
def _mode_pool(n: int, d: int):
    """Where each eigenpair of _cyclic_spectrum comes from, one copy per (n, d).

    The modes' eigenpairs are pooled in a fixed order: the normal ones of
    modes 1..n//2 (d = 3 only), then the planar ones of modes 0, 1, 2, 2, 3,
    3, .., (n-1)//2, (n-1)//2 and, for even n, n/2 twice.  A planar
    eigenvector w is held as beta_+ = w_x - i w_y and beta_- = w_x + i w_y,
    sqrt(2) times its parts along e_+ = (1, i)/sqrt(2) and e_- = (1, -i)/sqrt(2);
    beta (2, P) has those of the pooled w that do not depend on alpha, e_y
    of mode 0 and e_- of mode 1.  Each pooled pair gives one real
    eigenvector, with the factor c = 1, and one of a mode 1 <= k <= (n-1)//2
    a second, with c = -i: eigenpair e is pooled pair src[e] of mode
    modes[e] with factor cf[e], and cz[e] is cf[e] for a normal one and 0
    for a planar one.
    """
    half, pairs = n // 2, (n - 1) // 2
    normal = np.arange(1, half + 1) if d == 3 else np.arange(0)
    pool_modes = np.concatenate([normal, [0, 1], np.repeat(np.arange(2, pairs + 1), 2),
                                 [half] * (2 - 2 * (n % 2))]).astype(int)
    pooled = np.arange(pool_modes.size)
    src = np.concatenate([pooled, pooled[(1 <= pool_modes) & (pool_modes <= pairs)]])
    cf = np.where(np.arange(src.size) < pooled.size, 1.0 + 0j, -1j)
    beta = np.zeros((2, pooled.size), dtype=complex)
    beta[:, normal.size] = [-1j, 1j]
    beta[1, normal.size + 1] = np.sqrt(2.0)
    return _read_only(beta, src, pool_modes[src], cf, np.where(src < normal.size, cf, 0.0))


def _cyclic_spectrum(cc: CentralConfiguration, alphas, b):
    """_dense_spectrum's eigenpairs of a regular polygon (is_cyclic), mode by mode.

    Body j of the polygon is body 0 turned by R^j, so in the co-rotating
    frame dx_j = R^j a_j the matrix H + alpha b M is block circulant: block
    (i, j) is C_(j-i), with C_0 = sum_l A_l + alpha b m I and C_l = -A_l R^l,
    A_l the pair block (nbody.pair_hessian_blocks) of bodies 0 and l.  A mode
    a_j = omega^(k j) w, omega = exp(2 pi i / n), sees the d x d Hermitian
    block H_k = sum_l C_l omega^(k l).  The real and imaginary parts of a
    mode vector are real eigenvectors with the eigenvalue of w, and modes k
    and n - k give the same ones, so k runs over 0..n//2.  The plane and its
    normal decouple, and each constraint falls on one mode: of the plane,
    mode 0 keeps only the tangent e_y (the radial row drops e_x) and mode 1
    only e_- = (1, -i)/sqrt(2) (the in-plane mass sums drop e_+), and the
    normal mass sum drops mode 0's normal.  So modes 0 and 1 and every
    normal part are 1 x 1 blocks read off H_k; the planar 2 x 2 blocks of
    modes 2..(n-1)//2 go through one complex eigh and that of mode n/2, for
    even n, through a real one.
    """
    n, d = cc.s0.shape
    K, half, pairs = alphas.size, n // 2, (n - 1) // 2
    turns, roots, cos_kj, sin_kj = _polygon_tables(n)
    beta0, src, modes, cf, cz = _mode_pool(n, d)
    m0 = cc.masses[0]
    diff = cc.s0[0] - cc.s0[1:]
    a = nbody.pair_hessian_blocks(alphas[:, None, None, None], np.full(n - 1, m0 * m0), diff,
                                  np.sqrt(np.add.reduce(diff * diff, axis=-1)))
    blocks = np.empty((K, n, d, d))  # C_l
    blocks[:, 0] = a.sum(axis=1) + (alphas * b * m0)[:, None, None] * np.eye(d)
    blocks[:, 1:] = -a
    blocks[:, 1:, :, :2] = -a[..., :2] @ turns
    blocks = blocks.reshape(K, n, d * d)
    hr = (cos_kj @ blocks).reshape(K, half + 1, d, d)  # H_k, real and imaginary parts
    hi = (sin_kj @ blocks).reshape(K, half + 1, d, d)

    nz = half if d == 3 else 0
    pool = np.empty((K, beta0.shape[1]))  # the pooled eigenvalues
    if d == 3:
        pool[:, :nz] = hr[:, 1:, 2, 2]
    pool[:, nz] = hr[:, 0, 1, 1]  # e_y^T H_0 e_y
    pool[:, nz + 1] = 0.5 * (hr[:, 1, 0, 0] + hr[:, 1, 1, 1]) - hi[:, 1, 1, 0]  # e_-^H H_1 e_-
    beta = np.empty((2, K, beta0.shape[1]), dtype=complex)
    beta[:] = beta0[:, None]
    signs = np.array([-1j, 1j])[:, None, None, None]
    if pairs > 1:
        vals, vecs = np.linalg.eigh(hr[:, 2:pairs + 1, :2, :2] + 1j * hi[:, 2:pairs + 1, :2, :2])
        pool[:, nz + 2:nz + 2 * pairs] = vals.reshape(K, 2 * pairs - 2)
        beta[..., nz + 2:nz + 2 * pairs] = (vecs[:, :, 0] + signs * vecs[:, :, 1]).reshape(
            2, K, 2 * pairs - 2)
    if n % 2 == 0:
        vals, vecs = np.linalg.eigh(hr[:, half, :2, :2])
        pool[:, -2:] = vals
        beta[..., -2:] = vecs[:, 0] + signs[..., 0] * vecs[:, 1]

    # eigenpair e, sorted, is v_j = R^j Re(c omega^(k j) w).  In the plane, as
    # x + i y, that is omega^j (p cos(2 pi k j / n) + q sin(2 pi k j / n)),
    # with p = conj(c beta_+) + c beta_- and q = i (c beta_- - conj(c beta_+)),
    # over sqrt(2), which the normalization takes; along the normal it is
    # Re(c omega^(k j)).
    rows = np.arange(K)[:, None]
    vals = pool[:, src]
    order = np.argsort(vals, axis=1, kind="stable")
    vals = vals[rows, order]
    pick, k, c = src[order], modes[order], cf[order]
    cos_e, sin_e = cos_kj[k], sin_kj[k]  # (K, k, n)
    out = np.empty(vals.shape + (n, d))
    if d == 3:
        out[..., 2] = cz.real[order][..., None] * cos_e - cz.imag[order][..., None] * sin_e
    plus, minus = np.conj(c * beta[0][rows, pick]), c * beta[1][rows, pick]
    planar = (plus + minus)[..., None] * cos_e
    planar += (1j * (minus - plus))[..., None] * sin_e
    planar *= roots
    out[..., :2] = planar.view(float).reshape(vals.shape + (n, 2))
    out /= nbody.norm_stack(out)[..., None, None]
    return vals, out


def smallest_eigenvalue(cc: CentralConfiguration) -> SpectralReport:
    """Smallest eigenvalue of the constrained Hessian over admissible tangents.

    spectral_sweep at cc.alpha; the report is satisfied iff
    mu1 < -(2-alpha)^2/8 * U(s0).  spectral_sweep(cc, [alpha]).report(0)
    is the report at another alpha.
    """
    return spectral_sweep(cc, [cc.alpha]).report(0)


# ---------------------------------------------------------------------------
# closed forms in alpha
#
# Each takes a scalar or an array of alphas and computes on an array either
# way: numpy may vectorise a power over an array, which rounds differently
# from a scalar power, and so a scalar call still equals the matching entry
# of an array call bitwise.  A scalar call returns Python scalars.


def _alpha_array(alpha) -> np.ndarray:
    return np.atleast_1d(nbody.validate_alpha(alpha))


def _as_called(alpha, *values):
    """values as they are for an array alpha, their one entries as scalars for a scalar."""
    return values if getattr(alpha, "ndim", 0) else tuple(v.item() for v in values)


def collinear_equal_condition(alpha):
    """Normal-variation condition for three equal masses.

    lhs = 6*2^a / (2*2^a + 1), rhs = (a+2)^2/(8a); holds when lhs > rhs.
    """
    a = _alpha_array(alpha)
    p = 2.0**a
    lhs = 6.0 * p / (2.0 * p + 1.0)
    rhs = rhs_factor(a)
    return _as_called(alpha, lhs, rhs, lhs > rhs)


def collinear_threshold() -> ThresholdResult:
    """Crossing point of the equal-mass condition, below 6 - 4 sqrt(2)."""
    lo, hi = 0.01, 6.0 - 4.0 * np.sqrt(2.0)

    def gap(a):
        lhs, rhs, _ = collinear_equal_condition(a)
        return lhs - rhs

    root = bisect(gap, lo, hi, tol=1e-14)
    return ThresholdResult(alpha_star=root, bracket=(lo, hi), residual=abs(gap(root)),
                           family="collinear3-equal")


def _gamma(alpha):
    """gamma = 2^((alpha+2)/2) of the equal-mass collinear family."""
    return 2.0 ** ((alpha + 2.0) / 2.0)


def collinear_B_eigenvalues(alpha):
    """Closed-form eigenvalues (7g + 5/g +- sqrt(13 g^2 - 2 + 25/g^2)) / 2."""
    g = _gamma(_alpha_array(alpha))
    disc = np.sqrt(13.0 * g * g - 2.0 + 25.0 / (g * g))
    return _as_called(alpha, (7.0 * g + 5.0 / g + disc) / 2.0, (7.0 * g + 5.0 / g - disc) / 2.0)


def collinear_B_eigen_condition(alpha):
    """Wider sufficient condition via the top restricted eigenvalue, as the sweep prints it.

    lhs = lambda_max(B) / (gamma + 2/gamma), rhs = (2+alpha)^2/(8 alpha); the
    weight gamma + 2/gamma equals U(s0) of the equal-mass collinear
    configuration.
    """
    a = _alpha_array(alpha)
    g = _gamma(a)
    lhs = collinear_B_eigenvalues(a)[0] / (g + 2.0 / g)
    rhs = rhs_factor(a)
    return _as_called(alpha, lhs, rhs, lhs > rhs)


# ---------------------------------------------------------------------------
# regular n-gon closed forms


def _ngon_sines(n: int) -> np.ndarray:
    """Normalized chord lengths sin((k-1) pi / n) for k = 2..n."""
    if n < 4:
        raise InvalidN(f"polygon conditions need n >= 4, got {n}")
    k = np.arange(2, n + 1)
    return np.sin((k - 1) * np.pi / n)


def psi_phi(n: int, alpha):
    """The normalized quadratic form Psi_n and its mean-field part Phi_n.

    Built from the normalized chords; the probe concentrates on one adjacent
    pair for n >= 5 (any adjacent pair gives the same value by symmetry) and
    alternates over all four vertices for n = 4.  Valid for alpha in [0, 2]
    including the endpoints; alpha is a scalar or an array, as for the
    collinear closed forms.
    """
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if not np.all((0.0 <= a) & (a <= 2.0)):
        raise ValueError("alpha must lie in [0, 2] for the polygon conditions")
    r = _ngon_sines(n)
    s_a = (r ** (-a[..., None])).sum(axis=-1)
    pow_a2 = r ** (-(a[..., None] + 2.0))
    phi = 0.5 * pow_a2.sum(axis=-1) / s_a
    if n == 4:
        psi = phi + 0.5 * (2.0 * pow_a2[..., 0] - pow_a2[..., 1]) / s_a
    else:
        psi = phi + 0.5 * pow_a2[..., 0] / s_a
    return _as_called(alpha, psi, phi)


def ngon_threshold(n: int) -> ThresholdResult:
    """Crossing of Psi_n with (alpha+2)^2/(8 alpha) on (0, 1]; below 1 for n >= 4.

    The first sign change on a 4096-point grid brackets the bisection.  The
    grid is evaluated from the low end in blocks of SCAN_BLOCK intervals,
    neighbouring blocks sharing their end point, and the scan stops at the
    first block that holds a sign change; the bracket is the one a scan of
    the whole grid finds.
    """
    def f(a):
        return psi_phi(n, a)[0] - rhs_factor(a)

    lo, hi = ALPHA_FLOOR, 1.0
    grid = np.linspace(lo, hi, 4096)
    for start in range(0, grid.size - 1, SCAN_BLOCK):
        vals = f(grid[start:start + SCAN_BLOCK + 1])
        sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        if sign_change.size:
            break
    else:
        raise BracketFailure(f"no sign change for n={n} on ({lo}, {hi}]")
    k = start + sign_change[0]
    root = bisect(f, grid[k], grid[k + 1], tol=1e-14)
    return ThresholdResult(alpha_star=root, bracket=(float(grid[k]), float(grid[k + 1])),
                           residual=abs(f(root)), family=f"ngon-{n}")


# ---------------------------------------------------------------------------
# root finding


def bisect(f, lo: float, hi: float, tol: float) -> float:
    """Plain bisection; raises BracketFailure without a sign change and
    NoConvergence when BISECT_MAX_ITER halvings leave the bracket wider than tol.

    f takes a 1-D array of points and returns their values.  One call covers
    both ends, and then each call covers the next BISECT_DEPTH halvings: the
    2^BISECT_DEPTH - 1 midpoints they can reach, each formed as 0.5*(lo+hi)
    of its bracket.  The halvings then walk those values one by one, with the
    exits and the BISECT_MAX_ITER budget of a loop that calls f once per
    midpoint, so the root is bitwise the one that loop returns whenever f's
    array entries equal its scalar values.
    """
    flo, fhi = f(np.array([lo, hi], dtype=float))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketFailure(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}")
    left = BISECT_MAX_ITER
    while left > 0:
        depth = min(BISECT_DEPTH, left)
        # level d's 2^d midpoints start at index 2^d - 1 of points, in order
        edges, points = [lo, hi], []
        for _ in range(depth):
            mids = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
            points += mids
            edges = [x for pair in zip(edges, mids) for x in pair] + [hi]
        vals = f(np.array(points))
        j = 0
        for d in range(depth):
            mid, fm = points[2**d - 1 + j], vals[2**d - 1 + j]
            if fm == 0.0 or (hi - lo) < tol:
                return mid
            if np.sign(fm) == np.sign(flo):
                lo, flo = mid, fm
                j = 2 * j + 1
            else:
                hi = mid
                j = 2 * j
        left -= depth
    if hi - lo < tol:
        return 0.5 * (lo + hi)
    raise NoConvergence(f"bracket [{lo}, {hi}] still wider than {tol} "
                        f"after {BISECT_MAX_ITER} halvings")
