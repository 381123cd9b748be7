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
from functools import cache, cached_property

import numpy as np

from . import nbody
from .errors import (CollisionConfiguration, EllipsoidDrift, InsufficientHorizon,
                     NonCollapsing, NotTangent, StepFailure, ZeroConfiguration)


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
        radial_terms = m[:, None] * self.s * self.s_prime
        radial = float(np.sum(radial_terms))
        # bounded by the sizes of its terms, as nbody.check_tangent does, so
        # that a tangent up to round-off passes at any masses and kick
        if not abs(radial) <= 1e-10 * float(np.sum(np.abs(radial_terms))):
            raise NotTangent(f"shape velocity not tangent: <Ms, s'> = {radial:.3e}")
        return self


def energy(state: McGeheeState, m, alpha, potential_scale: float) -> float:
    """Conserved energy h = rho^(-beta) (1/2 (4/(2-a))^2 rho'^2 + rho^2 (1/2 |s'|_M^2 - U(s)))."""
    s, m, alpha = nbody.checked(state.s, m, alpha)
    return float(_energy_stack(state.rho, state.rho_prime, state.s_prime, m, alpha,
                               potential_scale * nbody.potential_stack(s, m, alpha)))


def _energy_stack(rho, rho_prime, s_prime, m, alpha, u):
    """energy over stacks: rho and the scaled potential u (...,), s' (..., N, d)."""
    beta = beta_exponent(alpha)
    kin = 0.5 * (4.0 / (2.0 - alpha)) ** 2 * rho_prime**2
    sp2 = np.sum(m * np.sum(s_prime**2, axis=-1), axis=-1)
    return rho ** (-beta) * (kin + rho**2 * (0.5 * sp2 - u))


# the first step integrate_el tries, the largest |I(s) - 1| its projection
# corrects (EllipsoidDrift past it), and its budget of attempted steps and
# of MAX_STEPS + 1 stored samples (StepFailure past it)
FIRST_STEP = 1e-3
DRIFT_ABORT = 1e-6
MAX_STEPS = 100_000


@dataclass(frozen=True)
class IntegratorOptions:
    """Settings of the tau-flow integrator (integrate_el).

    The error control runs at 1/16 of the tolerance, rtol / 16 with atol
    1e-12 / 16: controlled at rtol itself, DOP853's long steps let a kicked
    collinear run at rtol 1e-11 drift past a 1e-8 gate on lambda1.  max_step
    caps no step; it bounds the samples, which lie no more than max_step / 2
    apart in tau.  A run stops at rho_min (see integrate_el); its other
    limits are the module constants FIRST_STEP, DRIFT_ABORT and MAX_STEPS.
    """

    rtol: float = 1e-10
    max_step: float = 0.1
    rho_min: float = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow in the collision coordinates, with interpolation helpers.

    lambda1 is the measured multiplier trace -beta * h(tau); lambda2 the trace
    rho^2 |s'|_M^2.  decay_rate is c on trajectories backed by the closed
    zero-energy collapse formula rho = exp(-c tau), s const, and None
    elsewhere.  Frozen shapes hold s and s' as read-only stride-0 views of
    one row (_frozen_trajectory).  Sampled data read rho through a
    per-interval cubic of log rho, tabled on first use and cached
    (_log_rho_table), as are the potential trace (_potential) and whether
    the shape is frozen (frozen_shape); the samples are not to be changed in
    place after that.
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
    decay_rate: float | None = None
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
    @cached_property
    def _potential(self) -> np.ndarray:
        """potential_scale U(s) at every sample, formed once per trajectory, read-only.

        A frozen shape has one value, formed at s[0] and broadcast over the samples.
        """
        if self.frozen_shape:
            u = self.potential_scale * nbody.potential_stack(self.s[:1], self.masses, self.alpha)
            return np.broadcast_to(u, self.tau.shape)
        u = self.potential_scale * nbody.potential_stack(self.s, self.masses, self.alpha)
        u.flags.writeable = False
        return u

    def potential_trace(self) -> np.ndarray:
        return self._potential

    def energy_trace(self) -> np.ndarray:
        return _energy_stack(self.rho, self.rho_prime, self.s_prime, self.masses, self.alpha,
                             self._potential)

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
    @cached_property
    def frozen_shape(self) -> bool:
        """True when every sample sits at s[0] with zero shape velocity; read once."""
        if self.decay_rate is not None:
            return True
        return not np.any(self.s_prime) and bool(np.all(self.s == self.s[0]))

    def _checked_tau(self, t) -> np.ndarray:
        if self.n_samples < 2 and self.decay_rate is None:
            raise InsufficientHorizon(f"interpolation needs two samples, the trajectory has "
                                      f"{self.n_samples}")
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.min() < self.tau[0] - 1e-12 or t.max() > self.tau[-1] + 1e-12:
            raise ValueError(f"tau range [{t.min()}, {t.max()}] outside trajectory horizon")
        return t

    @cached_property
    def _log_rho_table(self) -> np.ndarray:
        """The cubic Hermite of log rho on each sample interval, built once per
        trajectory: rows tau0, h and c0-c3 of c0 + c1 u + c2 u^2 + c3 u^3 in
        u = (t - tau0) / h, one column per interval, with the slopes rho'/rho
        at both ends.  Field-major, so that one take gathers each field as a
        contiguous row."""
        lr = np.log(self.rho)
        h = np.diff(self.tau)
        slope = self.rho_prime / self.rho
        m0, m1 = slope[:-1] * h, slope[1:] * h
        rise = lr[1:] - lr[:-1]
        return np.stack([self.tau[:-1], h, lr[:-1], m0, 3.0 * rise - 2.0 * m0 - m1,
                         m0 + m1 - 2.0 * rise])

    def _log_rho_cubic(self, t: np.ndarray):
        """Interval index, h, u and the cubic's c0-c3 at tau values t."""
        # the interval whose start is the last sample at or before t, clipped
        # to the first and last intervals
        idx = np.searchsorted(self.tau[1:-1], t, side="right")
        tau0, h, *c = self._log_rho_table.take(idx, axis=1)
        return idx, h, (t - tau0) / h, c

    @staticmethod
    def _cubic(u, c):
        return c[0] + u * (c[1] + u * (c[2] + u * c[3]))

    @staticmethod
    def _cubic_slope(u, h, c):
        return (c[1] + u * (2.0 * c[2] + u * (3.0 * c[3]))) / h

    def log_rate(self, t) -> np.ndarray:
        """rho'/rho at tau values t, formed without dividing rho' by rho.

        The ratio stays finite where rho itself underflows (c tau > ~745 on
        the exact collapse): exact data returns -c, sampled data the
        derivative of the cubic of log rho used by evaluate.
        """
        t = self._checked_tau(t)
        if self.decay_rate is not None:
            return np.full(t.shape, -self.decay_rate)
        _, h, u, c = self._log_rho_cubic(t)
        return self._cubic_slope(u, h, c)

    def rho_at(self, t) -> np.ndarray:
        """Interpolated rho at tau values t, as evaluate gives it, without the shape."""
        t = self._checked_tau(t)
        if self.decay_rate is not None:
            return np.exp(-self.decay_rate * t)
        _, _, u, c = self._log_rho_cubic(t)
        return np.exp(self._cubic(u, c))

    def evaluate(self, t):
        """Interpolated (rho, rho', s, s') at tau values t (scalar or array).

        rho comes from the per-interval cubic of log rho (_log_rho_table; log
        rho is nearly linear along a collapse, so this preserves relative
        accuracy); s uses Hermite cubics with the stored velocities.
        """
        t = self._checked_tau(t)
        if self.decay_rate is not None:
            rho, shape = self.rho_at(t), (t.size,) + self.s[0].shape
            return (rho, -self.decay_rate * rho, np.broadcast_to(self.s[0], shape),
                    np.broadcast_to(self.s_prime[0], shape))
        idx, h, u, c = self._log_rho_cubic(t)
        rho = np.exp(self._cubic(u, c))
        # the cubic Hermite weights of s, s', and their tau-derivatives
        w = ((1 + 2 * u) * (1 - u) ** 2, u * (1 - u) ** 2 * h, u**2 * (3 - 2 * u),
             u**2 * (u - 1) * h)
        dw = (6 * u * (u - 1) / h, (1 - u) * (1 - 3 * u) / h * h, -6 * u * (u - 1) / h,
              u * (3 * u - 2) / h * h)
        shape = self.s[0].shape
        bc = (slice(None),) + (None,) * len(shape)
        s0v, s1v = self.s[idx], self.s[idx + 1]
        sp0, sp1 = self.s_prime[idx], self.s_prime[idx + 1]
        s = w[0][bc] * s0v + w[1][bc] * sp0 + w[2][bc] * s1v + w[3][bc] * sp1
        s_p = dw[0][bc] * s0v + dw[1][bc] * sp0 + dw[2][bc] * s1v + dw[3][bc] * sp1
        return rho, rho * self._cubic_slope(u, h, c), s, s_p

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
        # the bytes of np.savetxt(fh, rows, delimiter=","), a block of rows at a time
        per_block = max(1, _E18_BLOCK // rows.shape[1])
        sep_words = np.full(rows.shape[1], ord(","), dtype=np.uint32)
        sep_words[-1] = ord("\n")
        sep_words = np.tile(sep_words << 16, per_block)
        with open(path, "wb") as fh:
            fh.write((",".join(cols) + "\n").encode())
            for i in range(0, rows.shape[0], per_block):
                block = rows[i:i + per_block].ravel()
                fh.write(_e18_fields(block, sep_words[:block.size]))


# ---------------------------------------------------------------------------
# '%.18e' fields, formed by numpy instead of by Python's bignum route

# the kernel takes the fields with 10^-KMAX <= |x| < 10^(KMAX+1); there the
# Veltkamp splits of |x| and of 10^(18-k) neither overflow nor underflow
_E18_KMAX = 280
# fields a block: bounds the kernel's temporaries at about 100 bytes a field
_E18_BLOCK = 4096


@cache
def _e18_tables():
    """The kernel's tables, built on first use from Python ints.

    pow10[:, k + _E18_KMAX] holds 10^(18-k) as hi and lo, hi + lo within
    half a unit in the last place of lo, and the Veltkamp halves of hi.
    digits[v] holds the four ASCII digits of v < 10^4 as a little-endian
    uint32; lead[v] for v < 100 a zero (sign) byte, its first digit, '.' and
    its second digit; expo[:, k + _E18_KMAX] the bytes that follow the
    last digit, 'e', the sign and the hundreds of k (a zero byte below 100),
    and the tens and units of k.
    """
    hi, lo = [], []
    n = 1
    for _ in range(19 + _E18_KMAX):
        hi.append(float(n))
        lo.append(float(n - int(hi[-1])))
        n *= 10
    hi.reverse()
    lo.reverse()
    n = 10
    for _ in range(_E18_KMAX - 18):
        h = 1 / n
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((den - num * n) / (n * den))
        n *= 10
    hi, lo = np.array(hi), np.array(lo)
    c = hi * 134217729.0
    hi_hi = c - (c - hi)
    pow10 = np.stack([hi, lo, hi_hi, hi - hi_hi])

    v = np.arange(10000, dtype=np.uint32)
    digits = (48 + v // 1000) | (48 + v // 100 % 10) << 8 | (48 + v // 10 % 10) << 16 \
        | (48 + v % 10) << 24
    v = v[:100]
    lead = (48 + v // 10) << 8 | ord(".") << 16 | (48 + v % 10) << 24
    k = np.arange(-_E18_KMAX, _E18_KMAX + 1)
    mag = np.abs(k).astype(np.uint32)
    sign = np.where(k < 0, ord("-"), ord("+")).astype(np.uint32)
    hundreds = np.where(mag >= 100, 48 + mag // 100, 0).astype(np.uint32)
    expo = np.stack([ord("e") << 8 | sign << 16 | hundreds << 24,
                     (48 + mag // 10 % 10) | (48 + mag % 10) << 8])
    return pow10, digits, lead, expo


def _e18_significands(x):
    """(q, index, bad): |x| = q 10^(k-18) with q the nearest integer,
    index = k + _E18_KMAX, and bad marking the fields left to '%'.

    k is floor(log10|x|), and |x| 10^(18-k) is formed as the double-double
    hi + lo: Dekker's exact product (1971) of |x| and the hi of 10^(18-k),
    plus |x| times its lo, to within 1e-12 below 10^19.  Bad are NaN, the
    infinities, |k| > _E18_KMAX, a fraction within 1e-6 of one half (a tie
    is rounded half-even by '%'), hi at 10^19 (q would reach it, k one too
    small) and hi + lo not clear of 10^18 (k one too large), judged on the
    pair: just below a power of ten that is not a double, hi alone rounds
    up to 10^18.  A zero gives q = 0 and k = 0, as '%' writes it.
    """
    pow10 = _e18_tables()[0]
    a = np.abs(x)
    zero = a == 0.0
    with np.errstate(divide="ignore"):
        k = np.log10(a)
    np.floor(k, out=k)
    f = np.abs(k)
    outside = ~(f <= _E18_KMAX)
    k[outside] = 0.0
    a[outside] = 0.0
    index = k.astype(np.intp)
    index += _E18_KMAX
    # Veltkamp's split of a into halves of 26 bits, a_hi + a_lo
    a_hi = np.multiply(a, 134217729.0, out=f)
    a_lo = np.subtract(a_hi, a, out=k)
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    # Dekker's product, p + e = a hi(10^(18-k)) exactly (the halves of the
    # power taken first, as in the product with the factors swapped), then
    # e += a lo(10^(18-k))
    g = np.empty_like(a)
    p = a * pow10[0].take(index, out=g)
    pow10[2].take(index, out=g)
    e = a_hi * g
    e -= p
    e += np.multiply(a_lo, g, out=g)
    pow10[3].take(index, out=g)
    a_hi *= g
    e += a_hi
    a_lo *= g
    e += a_lo
    pow10[1].take(index, out=g)
    a *= g
    e += a
    hi = np.add(p, e, out=a)
    lo = e
    lo -= np.subtract(hi, p, out=g)
    r = np.rint(lo, out=p)
    np.subtract(lo, r, out=g)
    bad = np.abs(g, out=g) > 0.5 - 1e-6
    np.subtract(hi, 1e18, out=g)
    g += lo
    bad |= g < 1e-6
    # hi = 10^19 is the one way for q to reach 10^19: below it, |lo| is at
    # most half of hi's 2048-spaced doubles
    bad |= hi >= 1e19
    bad &= ~zero
    hi[bad] = 0.0
    r[bad] = 0.0
    q = k.view(np.uint64)
    np.copyto(q, hi, casting="unsafe")
    r_int = f.view(np.int64)
    np.copyto(r_int, r, casting="unsafe")
    q += r_int.view(np.uint64)
    return q, index, bad


def _e18_fields(x, sep_words):
    """The bytes of '%.18e' % v and a separator for every v of the 1-D
    float64 array x; sep_words holds each field's separator byte shifted
    left by 16 bits, the place it takes in the field's last word."""
    # the words go once they are bytes, before the copy without zero bytes
    return _e18_words(x, sep_words).tobytes().translate(None, b"\0")


def _e18_words(x, sep_words):
    """The fields of _e18_fields as rows of seven little-endian uint32 words.

    A row holds a sign byte (zero when positive), the 19 digits of q with
    '.' after the first, the exponent with a zero byte for absent hundreds,
    the separator and a zero byte.  The fields that _e18_significands
    leaves are formatted by '%' one by one.
    """
    _, digits, lead, expo = _e18_tables()
    q, index, bad = _e18_significands(x)
    w = np.empty((x.size, 7), dtype="<u4")
    # q = top 10^17 + high 10^9 + low: the leading two digits, the next
    # eight and the last nine
    top = q // 10**17
    w[:, 0] = lead.take(top)
    w[:, 0] += np.signbit(x).astype(np.uint32) * ord("-")
    q -= np.multiply(top, 10**17, out=top)
    high = np.floor_divide(q, 10**9, out=top)
    q -= high * 10**9
    high, low = high.astype(np.uint32), q.astype(np.uint32)
    part = high // 10**4
    w[:, 1] = digits.take(part)
    w[:, 2] = digits.take(high - part * 10**4)
    part = low // 10**5
    w[:, 3] = digits.take(part)
    tens = low // 10
    w[:, 4] = digits.take(tens - part * 10**4)
    w[:, 5] = expo[0].take(index) + 48 + low - tens * 10
    w[:, 6] = expo[1].take(index) + sep_words
    out = w.view(np.uint8)
    for i in np.flatnonzero(bad):
        field = b"%.18e%c" % (x[i], sep_words[i] >> 16)
        out[i] = 0
        out[i, :len(field)] = np.frombuffer(field, dtype=np.uint8)
    return w


# ---------------------------------------------------------------------------
# flow field and integration

# DOP853, the Dormand-Prince 8(5,3) pair with its 7th-order continuous
# extension, as published in dop853.f (Hairer, Norsett & Wanner, Solving ODEs
# I, II.5 and II.10).  Stages 0-11 make the step, stage 12 is f at its end
# (the next step's first stage) and stages 13-15 feed only the dense output.
# Each row lists the nonzero a_ij of one stage by column j.
_DOP_C = np.array([
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778])
_DOP_ROWS = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    # stage 12 sits at the 8th-order solution: its row is the weights b
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)
_DOP_A = np.array([[row.get(j, 0.0) for j in range(16)] for row in _DOP_ROWS])
_DOP_B = _DOP_A[12, :12]
# the 5th-order error weights, and the 3rd-order ones as b minus bhh
_DOP_E5 = np.zeros(12)
_DOP_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
_DOP_E3 = _DOP_B.copy()
_DOP_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                        0.220588235294117647058823529412e-1]
# the dense-output rows d4..d7 over all 16 stages
_DOP_D = np.zeros((4, 16))
_DOP_D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-0.84289382761090128651353491142e1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e1, 0.23846676565120698287728149680e1,
     0.21170345824450282767155149946e1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e2,
     -0.91946323924783554000451984436e1, -0.44360363875948939664310572000e1],
    [0.10427508642579134603413151009e2, 0.24228349177525818288430175319e3,
     0.16520045171727028198505394887e3, -0.37454675472269020279518312152e3,
     -0.22113666853125306036270938578e2, 0.77334326684722638389603898808e1,
     -0.30674084731089398182061213626e2, -0.93321305264302278729567221706e1,
     0.15697238121770843886131091075e2, -0.31139403219565177677282850411e2,
     -0.93529243588444783865713862664e1, 0.35816841486394083752465898540e2],
    [0.19985053242002433820987653617e2, -0.38703730874935176555105901742e3,
     -0.18917813819516756882830838328e3, 0.52780815920542364900561016686e3,
     -0.11573902539959630126141871134e2, 0.68812326946963000169666922661e1,
     -0.10006050966910838403183860980e1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e1, -0.60196695231264120758267380846e2,
     0.84320405506677161018159903784e2, 0.11992291136182789328035130030e2],
    [-0.25693933462703749003312586129e2, -0.15418974869023643374053993627e3,
     -0.23152937917604549567536039109e3, 0.35763911791061412378285349910e3,
     0.93405324183624310003907691704e2, -0.37458323136451633156875139351e2,
     0.10409964950896230045147246184e3, 0.29840293426660503123344363579e2,
     -0.43533456590011143754432175058e2, 0.96324553959188282948394950600e2,
     -0.39177261675615439165231486172e2, -0.14972683625798562581422125276e3]]

# the stage rows A[i, :i], each to weight the stages ks[:i] in one product;
# b, e5 and e3 stacked to weight ks[:12]; the nodes as floats
_DOP_STAGE_ROWS = [_DOP_A[i, :i] for i in range(16)]
_DOP_WEIGHTS = np.stack([_DOP_B, _DOP_E5, _DOP_E3])
_DOP_NODES = _DOP_C.tolist()


def _step_stages(f, t, y, hstep, ks):
    """Fill ks[1:12] for a step of size hstep from (t, y), with ks[0] = f(t, y);
    returns the 8th-order increment sum_j b_j k_j and the 5th- and 3rd-order
    error sums, one row each."""
    for i in range(1, 12):
        # the stage state y + hstep sum_j a_ij k_j
        yi = _DOP_STAGE_ROWS[i] @ ks[:i]
        yi *= hstep
        yi += y
        ks[i] = f(t + _DOP_NODES[i] * hstep, yi)
    return _DOP_WEIGHTS @ ks[:12]


def _dense_coefficients(f, t, y_old, y_new, hstep, ks):
    """The seven coefficient vectors of DOP853's 7th-order continuous extension
    over an accepted step from (t, y_old) to (t + hstep, y_new).

    ks[:12] hold the step's stages and ks[12] = f(t + hstep, y_new); the three
    extra stages are written into ks[13:16] (three more RHS calls).
    """
    for i in range(13, 16):
        yi = _DOP_STAGE_ROWS[i] @ ks[:i]
        yi *= hstep
        yi += y_old
        ks[i] = f(t + _DOP_NODES[i] * hstep, yi)
    coef = np.empty((7, y_old.size))
    coef[0] = y_new - y_old
    coef[1] = hstep * ks[0] - coef[0]
    coef[2] = coef[0] - hstep * ks[12] - coef[1]
    coef[3:] = _DOP_D @ ks
    coef[3:] *= hstep
    return coef


def _dense_values(coef, y_old, x):
    """The continuous extension at step fractions x (shape (p, 1)): rows of
    y_old + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + x (F4 + (1-x) (F5 + x F6))))))."""
    out = coef[6] * x
    rest = 1.0 - x
    for r in range(5, -1, -1):
        out += coef[r]
        out *= x if r % 2 == 0 else rest
    out += y_old
    return out


def _dop853(f, t, y, hstep, *, rtol, atol, floor, project, stop, sample_gap=np.inf,
            t_end=np.inf, max_steps=np.inf):
    """DOP853 with dop853.f's error control and step-size rule; returns the
    stored times and states.

    Each step is clipped to t_end alone: the error control sets its size, and
    a nan error norm rejects the step and shrinks it by the least factor, 1/3.
    project(ts, ys) works in place on a block of states, one row per time in
    ts.  An accepted solution passes through it as a one-row block, and the
    next step starts from a fresh f(t, y).  An accepted step longer than
    sample_gap is cut into the fewest equal pieces no longer than it; the
    continuous extension gives the states at the interior cuts, which are
    projected as one block.  stop(ts, ys) returns the index of the first row
    of a block at which the run ends, or None.  It sees the initial state as
    a one-row block, then each accepted step's cuts and end as one block, and
    the run ends with that row stored.
    Raises StepFailure when the step falls below floor(t), when no row has
    stopped the run after max_steps attempted steps, accepted or rejected,
    and, before forming its cuts, when a step would take the samples past
    max_steps + 1.
    """
    ts, ys = [np.array([t])], [y[None].copy()]
    if stop(ts[0], ys[0]) is not None:
        return ts[0], ys[0]
    stored = 1
    ks = np.empty((16, y.size))
    ks[0] = f(t, y)
    attempts = 0
    while True:
        if attempts >= max_steps:
            raise StepFailure(f"step budget spent: {attempts} attempted steps, "
                              f"{stored - 1} accepted, at t = {t}")
        attempts += 1
        hstep = min(hstep, t_end - t)
        if hstep < floor(t):
            raise StepFailure(f"step size underflow at t = {t}")
        sums = _step_stages(f, t, y, hstep, ks)
        y8 = sums[0] * hstep
        y8 += y
        sc = np.maximum(np.abs(y), np.abs(y8))
        sc *= rtol
        sc += atol
        # the 5th- and 3rd-order error rows scaled and squared, summed row by row
        e = sums[1:]
        e /= sc
        err5, err3 = np.add.reduce(e * e, axis=1).tolist()
        deno = err5 + 0.01 * err3
        # a nan error norm stays nan, so the step is rejected
        err = hstep * err5 / math.sqrt(y.size * (deno if deno > 0.0 else 1.0))
        if err <= 1.0:
            # the step stores pieces samples; divide only when that fits (sample_gap may be 0)
            room = max_steps + 1 - stored
            pieces = math.ceil(hstep / sample_gap) if hstep <= room * sample_gap else room + 1
            if pieces > room:
                raise StepFailure(f"sample budget spent: {stored} samples stored at t = {t}")
            t_old, y_old = t, y
            t += hstep
            y = project([t], y8[None])[0]
            ks[12] = f(t, y)
            if pieces > 1:
                # the step fractions of the cuts and of the end, where x = 1 gives t
                x = np.arange(1.0, pieces + 1.0) / pieces
                block_t = t_old + x * hstep
                block = np.empty((pieces, y.size))
                block[:-1] = _dense_values(_dense_coefficients(f, t_old, y_old, y, hstep, ks),
                                           y_old, x[:-1, None])
                project(block_t, block[:-1])
                block[-1] = y
            else:
                block_t, block = np.array([t]), y[None]
            end = stop(block_t, block)
            if end is not None:
                ts.append(block_t[:end + 1])
                ys.append(block[:end + 1])
                break
            ts.append(block_t)
            ys.append(block)
            stored += pieces
            ks[0] = ks[12]
        # a nan error norm fails both tests and takes the least factor
        factor = 0.9 * err ** -0.125 if err > 0.0 else 6.0 if err == 0.0 else 0.0
        hstep *= min(6.0, max(1.0 / 3.0, factor))
    return np.concatenate(ts), np.concatenate(ys)


# the most bodies whose tau-flow right-hand side runs on Python floats (see
# _flow).  The float route is the faster one up to N = 8 at d = 2, but the
# routes round differently, so a higher bound changes the ngon-8 output.
FLOAT_RHS_MAX_N = 6


def _flow(alpha, m, h, scale, d):
    """The tau-flow right-hand side f(tau, y), y = (rho, rho', s, s') flattened.

    Up to FLOAT_RHS_MAX_N bodies it runs on Python floats, one loop over the
    pairs; beyond that on numpy arrays with nbody's pair kernel.  Per call,
    numpy route against float route, on a 2-vCPU VM (Python 3.11.7, numpy
    2.4.6), d = 2 unless named: N = 3 16.4 and 3.8 us (16.6 and 4.5 us at
    d = 3), N = 6 16.8 and 9.5 us, N = 7 16.9 and 12.3 us, N = 8 17.2 and
    15.1 us (17.6 and 18.4 us at d = 3).  The routes round differently (a scalar pow and numpy's array
    pow disagree in the last bit on a few percent of arguments): a component
    moves by at most 10 eps of the sizes of its terms over 50,000 draws.  Both
    raise CollisionConfiguration on a pair closer than nbody.COLLISION_THRESHOLD.
    """
    return (_float_flow if m.size <= FLOAT_RHS_MAX_N else _array_flow)(alpha, m, h, scale, d)


def _array_flow(alpha, m, h, scale, d):
    """_flow on numpy arrays, with nbody's pair kernel (potential_gradient_kernel)."""
    beta = beta_exponent(alpha)
    coef = ((2.0 - alpha) / 4.0) ** 2
    n = m.size
    nd = n * d
    m_col = m[:, None]
    beta_h, beta_m1 = beta * h, beta - 1.0
    kernel = nbody.potential_gradient_kernel(m, alpha)

    def f(_tau, y):
        rho, p = y[:2].tolist()
        if rho <= 0.0:
            return np.full(y.size, np.nan)
        s = y[2:2 + nd].reshape(n, d)
        u = y[2 + nd:].reshape(n, d)
        pot, grad = kernel(s)
        pot = scale * pot.item()
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


def _float_flow(alpha, m, h, scale, d):
    """_flow on Python floats: the same equations, one pass over the pairs."""
    beta = beta_exponent(alpha)
    coef = ((2.0 - alpha) / 4.0) ** 2
    nd = m.size * d
    ii, jj = nbody.pair_indices(m.size)
    # each pair as the slices of its two bodies in s, the index pairs of
    # their components and its m_i m_j, built once per run
    pairs = [(slice(a, a + d), slice(b, b + d), [(a + k, b + k) for k in range(d)], mm)
             for a, b, mm in zip((ii * d).tolist(), (jj * d).tolist(),
                                 (m[ii] * m[jj]).tolist())]
    m_flat = np.repeat(m, d).tolist()
    inv_m = (1.0 / np.repeat(m, d)).tolist()
    beta_h, beta_m1 = beta * h, beta - 1.0
    alpha_scale, neg_alpha = alpha * scale, -alpha
    threshold = nbody.COLLISION_THRESHOLD

    def f(_tau, y):
        v = y.tolist()
        rho, p = v[0], v[1]
        if rho <= 0.0:
            return np.full(y.size, np.nan)
        s, u = v[2:2 + nd], v[2 + nd:]
        # pot sums m_i m_j r^-alpha, g the pair terms m_i m_j r^-(alpha+2) (s_i - s_j),
        # so that grad U = -alpha scale g
        pot = 0.0
        g = [0.0] * nd
        for sa, sb, comps, mm in pairs:
            r = math.dist(s[sa], s[sb])
            if r < threshold:
                low = min(math.dist(s[ia], s[ib]) for ia, ib, _, _ in pairs)
                raise CollisionConfiguration(f"minimum pair distance {low:.3e} below threshold")
            q = mm * r ** neg_alpha
            pot += q
            q /= r * r
            for a, b in comps:
                fk = q * (s[a] - s[b])
                g[a] += fk
                g[b] -= fk
        sp2 = 0.0
        for mk, uk in zip(m_flat, u):
            sp2 += mk * uk * uk
        pot *= scale
        dp = coef * (rho * (sp2 + 2.0 * pot) + beta_h * rho ** beta_m1)
        # the shape equation of the numpy route: -2 (p/rho) u + M^-1 grad U + alpha U s - sp2 s
        damp, pull = -2.0 * (p / rho), alpha * pot - sp2
        du = [damp * uk + pull * sk - alpha_scale * gk * im
              for uk, sk, gk, im in zip(u, s, g, inv_m)]
        return np.array([p, dp, *u, *du], dtype=float)

    return f


def integrate_el(initial: McGeheeState, m, alpha, tau_max: float, opts: IntegratorOptions,
                 potential_scale: float = 1.0) -> Trajectory:
    """Integrate the reduced flow in tau with the DOP853 pair.

    The error control at opts.rtol / 16 sets every step.  A step longer than
    opts.max_step / 2 also stores states from DOP853's 7th-order dense output
    at equal tau spacing inside it, so no two samples lie more than
    opts.max_step / 2 apart.  The shape point of every stored state is
    renormalized to the ellipsoid and its velocity re-projected, the step end
    as one row and a step's interior states as one block
    (_ellipsoid_projection); corrections beyond DRIFT_ABORT raise
    EllipsoidDrift.  The run stops at the first stored sample that meets one
    of these, and records it in meta["stop"], checked in this order:

    * "tau_max": tau has reached tau_max;
    * "rho_min": rho <= opts.rho_min;
    * "bounce": rho' >= 0 after a sample with rho' < 0, so the collapse has
      turned back (near the rho_min wall this turns on last-bit rounding).

    It raises StepFailure when none is reached within MAX_STEPS attempted
    steps, and when a step would store more than MAX_STEPS + 1 samples in all.
    A start off the reduced phase space raises up front: NotTangent for total
    momentum, ValueError for a center of mass off the origin, each past 1e-10
    of the sizes of its terms.
    """
    m = nbody.as_masses(m)
    alpha = nbody.validate_alpha(alpha)
    state = initial.validated(m)
    nbody.check_tangent(state.s, m, state.s_prime, tol=1e-10)
    moments = m[:, None] * state.s
    if not np.linalg.norm(moments.sum(axis=0)) <= 1e-10 * np.abs(moments).sum():
        raise ValueError("shape point's center of mass is off the origin")
    n, d = state.s.shape
    h_energy = energy(state, m, alpha, potential_scale)
    f = _flow(alpha, m, h_energy, potential_scale, d)
    reason, collapsing = None, False

    def stop(taus, ys):
        """The first row of a stored block at which the run ends, or None; records why."""
        nonlocal reason, collapsing
        for i, (tau, rho, rho_p) in enumerate(zip(taus.tolist(), ys[:, 0].tolist(),
                                                   ys[:, 1].tolist())):
            if not tau < tau_max:
                reason = "tau_max"
            elif not rho > opts.rho_min:
                reason = "rho_min"
            elif rho_p >= 0.0 and collapsing:
                reason = "bounce"
            else:
                collapsing = collapsing or rho_p < 0.0
                continue
            return i
        return None

    y0 = np.concatenate([[state.rho, state.rho_prime], state.s.ravel(), state.s_prime.ravel()])
    taus, ys = _dop853(f, 0.0, y0, FIRST_STEP, rtol=opts.rtol / 16.0, atol=1e-12 / 16.0,
                       sample_gap=0.5 * opts.max_step, floor=lambda tau: 1e-14 * max(1.0, tau),
                       t_end=tau_max, project=_ellipsoid_projection(m, d, DRIFT_ABORT),
                       stop=stop, max_steps=MAX_STEPS)
    return Trajectory(
        alpha=alpha, masses=m, tau=taus,
        rho=ys[:, 0], rho_prime=ys[:, 1],
        s=ys[:, 2:2 + n * d].reshape(-1, n, d),
        s_prime=ys[:, 2 + n * d:].reshape(-1, n, d),
        h=h_energy, potential_scale=potential_scale,
        meta={"stop": reason},
    )


def _ellipsoid_projection(m, d, drift_abort):
    """project(taus, ys) for blocks of tau-flow states: in place, each row's
    shape point renormalized to the ellipsoid I(s) = 1 and its velocity made
    tangent, <M s, s'> = 0.  A row whose |I(s) - 1| exceeds drift_abort
    raises EllipsoidDrift naming its tau, the first such row of the block;
    no row is changed then.  Each row comes out bitwise as it would from the
    same projection of that row alone.
    """
    n = m.size
    nd = n * d
    m_col = m[:, None]

    def project(taus, ys):
        k = len(ys)
        s = ys[:, 2:2 + nd].reshape(k, n, d)
        u = ys[:, 2 + nd:].reshape(k, n, d)
        inertia = np.add.reduce(m * np.add.reduce(s * s, axis=2), axis=1)
        drift = np.abs(inertia - 1.0)
        # fmax passes over a NaN row, which the check lets through
        if np.fmax.reduce(drift) > drift_abort:
            i = np.flatnonzero(drift > drift_abort)[0]
            raise EllipsoidDrift(f"|I(s) - 1| = {float(drift[i]):.3e} at tau = {float(taus[i])}")
        s /= np.sqrt(inertia)[:, None, None]
        u -= np.add.reduce((m_col * s * u).reshape(k, nd), axis=1)[:, None, None] * s
        return ys

    return project


def homothetic_initial_state(cc, h: float = 0.0, potential_scale: float = 1.0,
                             kick=None) -> McGeheeState:
    """Collapsing initial data at rho = 1, shape cc.s0 and energy h.

    kick is the shape velocity, an admissible tangent at cc.s0 (see
    nbody.tangent_part), zero when None; the inward radial velocity is solved
    from the energy.
    """
    alpha = cc.alpha
    s_prime = np.zeros_like(cc.s0) if kick is None else np.array(kick, dtype=float)
    # a kick too large to square gives sp2 = inf, and a radicand of -inf or
    # NaN fails the gate below, without numpy's overflow warning
    with np.errstate(over="ignore"):
        sp2 = float(np.sum(cc.masses * np.sum(s_prime * s_prime, axis=1)))
    rhs = h + potential_scale * cc.b - 0.5 * sp2
    if not rhs > 0.0:
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


def homothetic_oracle(cc, h: float, tau_max: float, phi_min: float = 1e-6) -> Trajectory:
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
        return _frozen_trajectory(cc, grid, rho_g, -c * rho_g, 0.0, decay_rate=float(c))
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
    tau, v = _frozen_clock(sigma, a, k, c)
    stop = int(np.searchsorted(tau, tau_max)) + 1
    rho = np.exp(-sigma[:stop])
    return _frozen_trajectory(cc, tau[:stop], rho, -c * v[:stop] * rho, h)


def _frozen_clock(sigma, a, k, c):
    """The frozen-shape clock tau(sigma) and v(sigma) = sqrt(1 + a e^(-k sigma)).

    sigma = -log rho moves at dsigma/dtau = c v(sigma), so
    tau(sigma) = [sigma + (2/k) log((1 + v(sigma)) / (1 + v(0)))] / c.
    """
    v = np.sqrt(1.0 + a * np.exp(-k * sigma))
    v0 = np.sqrt(1.0 + a)
    # log((1 + v) / (1 + v0)), with v - v0 = a (e^(-k sigma) - 1) / (v + v0)
    # formed without cancellation
    return (sigma + 2.0 / k * np.log1p(a * np.expm1(-k * sigma) / ((v + v0) * (1.0 + v0)))) / c, v


def _frozen_trajectory(cc, tau, rho, rho_prime, h, **kwargs) -> Trajectory:
    """Trajectory pinned at cc.s0; s and s' are read-only stride-0 views of one row each."""
    shape = (tau.size,) + cc.s0.shape
    return Trajectory(alpha=cc.alpha, masses=cc.masses.copy(), tau=tau, rho=rho,
                      rho_prime=rho_prime, s=np.broadcast_to(cc.s0.copy(), shape),
                      s_prime=np.broadcast_to(np.zeros_like(cc.s0), shape), h=float(h),
                      **kwargs)


def homothetic_quadrature_trajectory(cc, h: float, tau_max: float,
                                     potential_scale: float) -> Trajectory:
    """Frozen-shape trajectory from the energy relation, with a trapezoid-rule clock.

    With the shape pinned at cc.s0 the energy fixes the radial velocity:
    rho' = -rho speed(sigma) in sigma = -log rho, where
    speed = ((2-alpha)/4) sqrt(2 (h e^(-k sigma) + b)), b = potential_scale U(s0)
    and k = beta - 2.  No ODE is integrated, so any depth and any alpha are
    reachable.  Requires h + b > 0 (collapsing data) and a finite tau_max >= 0.

    The samples are every 64th point of a sigma grid of step about 2e-4, and
    the last grid point at or before tau_max.  Their clock is the trapezoid
    sum of f = 1/speed over that grid, in closed form: _frozen_clock plus the
    Euler-Maclaurin term dsigma^2/12 (f'(sigma) - f'(0)); the next term is
    O(dsigma^4).  The term (up to 7.0e-7 relative on the `ncol weakforce`
    family) is kept on purpose, so that the printed numbers do not move;
    ROADMAP item 10 deletes it when the benchmark reference is regenerated.
    """
    if not 0.0 <= tau_max < np.inf:
        raise ValueError(f"tau_max must be finite and non-negative, got {tau_max}")
    alpha = cc.alpha
    k = beta_exponent(alpha) - 2.0
    if k == 0.0:
        # beta = 2 (2 + alpha) / (2 - alpha) rounds to 2 below alpha ~ 1.1e-16
        raise NonCollapsing("beta - 2 rounds to 0 at this alpha, so the energy relation has "
                            "no decaying term to clock")
    b = potential_scale * cc.b
    if h + b <= 0.0:
        raise NonCollapsing("energy admits no inward velocity from rho = 1")
    coef = (2.0 - alpha) / 4.0
    # generous sigma horizon: tau(sigma) >= sigma / max-speed, so the clock
    # passes tau_max before the grid ends (capped so that n converts to an
    # int, an overflow to inf included)
    with np.errstate(over="ignore"):
        sigma_end = min(tau_max * coef * np.sqrt(2.0 * (max(h, 0.0) + b)) + 5.0,
                        2e-4 * np.finfo(float).max)
    n = int(np.ceil(sigma_end / 2e-4)) + 1
    dsigma = sigma_end / (n - 1)
    # but no grid point lies over one unit past the underflow of rho = e^(-sigma)
    n = min(n, int((1.0 - np.log(np.finfo(float).smallest_subnormal)) / dsigma) + 1)
    a, c = h / b, coef * np.sqrt(2.0 * b)

    def samples(index):
        """sigma, the trapezoid clock and the speed at grid indices index."""
        # sigma = 0 leads, so that f'(0) rounds as f'(sigma) does
        sigma = np.append(0.0, index * dsigma)
        decay = np.exp(-k * sigma)
        speed = coef * np.sqrt(2.0 * (h * decay + b))
        # f' = coef^2 h k e^(-k sigma) / speed^3, the slope of f = 1/speed
        slope = coef**2 * h * k * decay / speed**3
        tau = _frozen_clock(sigma[1:], a, k, c)[0] + dsigma**2 / 12.0 * (slope[1:] - slope[0])
        return sigma[1:], tau, speed[1:]

    sigma, tau, speed = samples(np.arange(0.0, n, 64.0))
    kept = int(np.searchsorted(tau, tau_max, side="right"))
    # the last grid point at or before tau_max, if it is not the last kept
    # sample, is among the 64 points after that sample
    block = samples(np.arange(64.0 * kept - 63.0, min(64.0 * kept, n - 1.0) + 1.0))
    last = int(np.searchsorted(block[1], tau_max, side="right"))
    sigma, tau, speed = (np.append(full[:kept], part[:last][-1:])
                         for full, part in zip((sigma, tau, speed), block))
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
        d2 = v[2:] - 2 * v[1:-1] + v[:-2]
        safe = np.abs(d2) > 1e-300
        acc = np.where(safe, v[2:] - (v[2:] - v[1:-1]) ** 2 / np.where(safe, d2, 1.0), v[2:])
        est.append(acc[-1])
        if abs(est[-1] - est[-2]) < 1e-4 * (1.0 + abs(est[-1])):
            return float(est[-1]), True
        v = acc[-12:]
    return float(est[-1]), False


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


