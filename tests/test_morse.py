import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncol import central, mcgehee, morse, nbody, spectral
from ncol.errors import NotHomographic, OverlappingSupports, SupportOutOfRange
from ncol.morse import _SETTLED, _intervals, _support_grid


@pytest.fixture(scope="module")
def coll1():
    return central.collinear3(1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def homothetic_traj(coll1):
    return mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=450.0)


@pytest.fixture(scope="module")
def mu1_direction(coll1):
    return spectral.smallest_eigenvalue(coll1).eigvec


def test_profiles_are_compactly_supported():
    for kind in ("bump", "flattop"):
        p = morse.Profile(width=4.0, kind=kind)
        u = np.linspace(-1.0, 5.0, 1201)
        vals = p.value_and_deriv(u)[0]
        assert np.all(vals[u <= 0.0] == 0.0)
        assert np.all(vals[u >= 4.0] == 0.0)
        assert vals.max() > 0.9
        # derivative consistent with finite differences
        h = 1e-6
        mid = np.linspace(0.2, 3.8, 101)
        fd = (p.value_and_deriv(mid + h)[0] - p.value_and_deriv(mid - h)[0]) / (2 * h)
        assert np.max(np.abs(fd - p.value_and_deriv(mid)[1])) < 1e-5


def reference_dirichlet_ratio(profile):
    """int phi'^2 / int phi^2, the kinetic cost of the profile, on 4001 points."""
    u = np.linspace(0.0, profile.width, 4001)
    phi, dphi = profile.value_and_deriv(u)
    num = np.trapezoid(dphi**2, u)
    den = np.trapezoid(phi**2, u)
    return float(num / den)


def test_flattop_dirichlet_ratio_scales_inversely_with_width():
    narrow = reference_dirichlet_ratio(morse.Profile(width=5.0))
    wide = reference_dirichlet_ratio(morse.Profile(width=20.0))
    assert wide < narrow
    assert wide == pytest.approx(narrow / 16.0, rel=1e-2)  # ~ 1/width^2


def test_quadratic_Q_zero_variation(homothetic_traj, mu1_direction):
    bump = morse.BumpVariation(l1=1.0, l2=5.0, shift=2.0, xi=mu1_direction)
    zero = morse.CombinedVariation([bump], [0.0])
    rep = morse.quadratic_Q(homothetic_traj, zero)
    assert rep.value == 0.0


def test_quadratic_Q_breakdown_sums(homothetic_traj, mu1_direction):
    bump = morse.BumpVariation(l1=0.5, l2=10.0, shift=30.0, xi=mu1_direction)
    rep = morse.quadratic_Q(homothetic_traj, bump)
    total = rep.kinetic + rep.rho_term + rep.cross + rep.hessian
    assert rep.value == pytest.approx(total, abs=1e-10)


@functools.lru_cache(maxsize=None)
def exact_collapse(family, alpha):
    """Exact zero-energy collapse data, the constrained eigenpairs and the decay rate c."""
    if family == "collinear3":
        cc = central.collinear3(1.0, 1.0, alpha)
    else:
        cc = central.embed_in_3d(central.ngon(4, alpha))
    rep = spectral.smallest_eigenvalue(cc)
    return (mcgehee.homothetic_oracle(cc, h=0.0, tau_max=250.0), rep.eigenvalues,
            rep.eigenvectors, mcgehee.homothetic_decay_rate(cc))


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(["collinear3", "ngon4"]),
       alpha=st.floats(min_value=0.05, max_value=1.95),
       pick=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       kind=st.sampled_from(["flattop", "bump"]),
       frac=st.floats(min_value=0.0, max_value=0.95),
       width=st.floats(min_value=0.3, max_value=20.0),
       place=st.floats(min_value=0.0, max_value=1.0))
def test_quadratic_Q_matches_exact_homothetic_form(family, alpha, pick, kind, frac, width, place):
    # on the exact collapse rho'/rho = -c, the cross term integrates away and
    # Q(phi xi) = int phi'^2 + (mu_j + c^2) phi^2 for a constrained eigenvector
    # xi of eigenvalue mu_j (unit masses, so |xi|_M = |xi| = 1)
    traj, mus, xis, c = exact_collapse(family, alpha)
    j = int(pick * len(mus))
    shift = place * (traj.tau_end - width - 1.0)
    bump = morse.BumpVariation(l1=0.5, l2=0.5 + width, shift=shift, xi=xis[j],
                               profile_kind=kind, flat_fraction=frac)
    quad_tol = 1e-8
    q = morse.quadratic_Q(traj, bump, quad_tol)

    def exact_form(t):
        phi, dphi = bump.scalar_and_deriv(t)
        return dphi**2 + (mus[j] + c * c) * phi**2

    expect = fine_simpson(exact_form, bump.support)
    # refinement stops once two estimates differ by at most quad_tol (1 + |Q|),
    # and Simpson's error is then about a fifteenth of that difference; the
    # fine grid itself is converged to rounding
    assert abs(q.value - expect) <= quad_tol * (1.0 + abs(expect))
    assert abs(q.cross) < 1e-10


def reference_second_variation_s(traj, variation) -> float:
    """int rho^2 (|v'|_M^2 + D2U_E(s)(v, v)) dtau for a compactly supported v."""
    m = traj.masses

    def integrand(grid, members):
        t = grid.ravel()
        rho, _, s, _ = traj.evaluate(t)
        v = variation.value(t)
        dv = variation.deriv(t)
        kin = morse._mdot(m, dv, dv)
        hess = traj.potential_scale * nbody.hessian_on_ellipsoid_stack(s, m, traj.alpha, v)
        return (rho**2 * (kin + hess)).reshape(grid.shape)

    return float(morse._refine_until(integrand, traj, variation.support, morse.QUAD_TOL)[0])


def test_second_variation_substitution_identity(homothetic_traj, mu1_direction):
    bump = morse.BumpVariation(l1=0.5, l2=8.0, shift=3.0, xi=mu1_direction)
    q = morse.quadratic_Q(homothetic_traj, bump)

    class FromW:
        support = bump.support

        def value(self, t):
            r, _, _, _ = homothetic_traj.evaluate(np.atleast_1d(t))
            return bump.value(t) / r[:, None, None]

        def deriv(self, t):
            r, rp, _, _ = homothetic_traj.evaluate(np.atleast_1d(t))
            return (bump.deriv(t) / r[:, None, None]
                    - bump.value(t) * (rp / r**2)[:, None, None])

    sv = reference_second_variation_s(homothetic_traj, FromW())
    assert sv == pytest.approx(q.value, abs=1e-8 * (1 + abs(q.value)))


@settings(max_examples=15, deadline=None)
@given(c=st.floats(min_value=-3.0, max_value=3.0))
def test_quadratic_scaling(c, homothetic_traj, mu1_direction):
    bump = morse.BumpVariation(l1=0.5, l2=6.0, shift=5.0, xi=mu1_direction)
    q1 = morse.quadratic_Q(homothetic_traj, bump).value
    qc = morse.quadratic_Q(homothetic_traj, morse.CombinedVariation([bump], [c])).value
    assert qc == pytest.approx(c * c * q1, abs=1e-9 * (1 + abs(q1)))


def test_morse_witnesses_newtonian(homothetic_traj, mu1_direction):
    rep = morse.morse_witnesses(homothetic_traj, mu1_direction, 10, 20.0)
    assert rep.witnesses == 10
    assert all(q < 0.0 for q in rep.q_values)
    # identical bumps on a frozen-shape trajectory give identical values
    assert np.ptp(rep.q_values) < 1e-8 * abs(rep.value)


def test_morse_witnesses_small_alpha():
    cc = central.collinear3(1.0, 1.0, 0.05)
    rep_s = spectral.smallest_eigenvalue(cc)
    assert rep_s.margin > 0.0
    traj = mcgehee.homothetic_oracle(cc, h=0.0, tau_max=450.0)
    rep = morse.morse_witnesses(traj, rep_s.eigvec, 10, 20.0)
    assert rep.witnesses == 0
    assert all(q > 0.0 for q in rep.q_values)


def test_morse_witness_sign_matches_margin_for_wide_bumps(homothetic_traj, coll1,
                                                          mu1_direction):
    # tail criterion: wide flat bumps follow the sign of the criterion margin
    rep_s = spectral.smallest_eigenvalue(coll1)
    prof = morse.Profile(width=20.0)
    assert reference_dirichlet_ratio(prof) < abs(rep_s.margin) / 2
    bump = morse.BumpVariation(l1=1e-9, l2=20.0, shift=50.0, xi=mu1_direction)
    q = morse.quadratic_Q(homothetic_traj, bump)
    assert np.sign(q.value) == np.sign(rep_s.margin)


def test_witness_layout_and_horizon(monkeypatch, homothetic_traj, mu1_direction):
    # bump k lies on (BUMP_START + s_k, width + s_k), s_k = width + 2 width k,
    # one stack of _STACK_ROWS bumps at a time, and witness_horizon reaches
    # one gap past the last support
    supports = []
    refine_until = morse._refine_until

    def recorded(fn, traj, stack, tol, narrowest=None):
        if narrowest is None:
            supports.extend(stack)
        return refine_until(fn, traj, stack, tol, narrowest)

    monkeypatch.setattr(morse, "_refine_until", recorded)
    count, width = 2 * morse._STACK_ROWS + 3, 3.0
    rep = morse.morse_witnesses(homothetic_traj, mu1_direction, count, width)
    shifts = [width + 2.0 * width * k for k in range(count)]
    assert supports == [(morse.BUMP_START + s, width + s) for s in shifts]
    assert len(rep.q_values) == count
    assert morse.witness_horizon(count, width) == supports[-1][1] + 2.0 * width
    # a bump needs BUMP_START < width, and there must be one
    for bumps, bad_width in ((2, morse.BUMP_START), (2, 0.0), (0, width)):
        with pytest.raises(ValueError):
            morse.morse_witnesses(homothetic_traj, mu1_direction, bumps, bad_width)


def test_bump_variation_refuses_a_start_at_zero(mu1_direction):
    for l1, l2 in ((0.0, 20.0), (-1.0, 20.0), (5.0, 5.0)):
        with pytest.raises(ValueError, match="need 0 < l1 < l2"):
            morse.BumpVariation(l1=l1, l2=l2, shift=1.0, xi=mu1_direction)


def test_support_out_of_range(homothetic_traj, mu1_direction):
    bump = morse.BumpVariation(l1=1.0, l2=5.0, shift=449.0, xi=mu1_direction)
    with pytest.raises(SupportOutOfRange):
        morse.quadratic_Q(homothetic_traj, bump)


def test_disjoint_support_additivity(homothetic_traj, mu1_direction):
    bumps = [morse.BumpVariation(l1=1e-9, l2=12.0, shift=s, xi=mu1_direction)
             for s in (10.0, 40.0, 70.0)]
    qs = [morse.quadratic_Q(homothetic_traj, b).value for b in bumps]
    rng = np.random.default_rng(1)
    for _ in range(5):
        c = rng.standard_normal(3)
        combo = morse.CombinedVariation(bumps, c)
        q = morse.quadratic_Q(homothetic_traj, combo).value
        assert q == pytest.approx(float(np.sum(c**2 * np.array(qs))),
                                  abs=1e-10 * (1 + abs(q)))


def test_morse_witnesses_past_rho_underflow():
    # c = 2.82 on the 8-gon, so rho = exp(-c tau) underflows to 0 inside the
    # last four supports; rho'/rho must still come out finite
    cc = central.embed_in_3d(central.ngon(8, 1.0))
    rep_s = spectral.smallest_eigenvalue(cc)
    traj = mcgehee.homothetic_oracle(cc, h=0.0, tau_max=440.0)
    assert traj.evaluate(20.0 + 2.0 * 20.0 * 9)[0][0] == 0.0
    rep = morse.morse_witnesses(traj, rep_s.eigvec, 10, 20.0)
    assert rep.witnesses == 10
    assert all(np.isfinite(q) and q < 0.0 for q in rep.q_values)


class StackOnly:
    """Exposes only support/value/deriv, so quadratic_Q takes the (K, N, d) path."""

    def __init__(self, variation):
        self.support = variation.support
        self.value = variation.value
        self.deriv = variation.deriv


@pytest.fixture(scope="module")
def frozen_trajs(coll1, homothetic_traj):
    return {"exact": homothetic_traj,
            "quadrature": mcgehee.homothetic_quadrature_trajectory(coll1, h=0.5, tau_max=300.0)}


@pytest.mark.parametrize("name", ["exact", "quadrature"])
@settings(max_examples=8, deadline=None)
@given(l1=st.floats(min_value=0.01, max_value=2.0),
       width=st.floats(min_value=0.5, max_value=8.0),
       frac=st.floats(min_value=0.0, max_value=1.0),
       amp=st.floats(min_value=0.5, max_value=2.0))
def test_frozen_scalar_path_matches_stack_path(name, l1, width, frac, amp, frozen_trajs, coll1,
                                               mu1_direction):
    traj = frozen_trajs[name]
    assert traj.frozen_shape
    tau_hi = min(600.0 / mcgehee.homothetic_decay_rate(coll1), traj.tau_end)
    shift = frac * (tau_hi - l1 - width)
    bump = morse.BumpVariation(l1=l1, l2=l1 + width, shift=shift, xi=amp * mu1_direction)
    fast = morse.quadratic_Q(traj, bump)
    ref = morse.quadratic_Q(traj, StackOnly(bump))
    assert fast.value == pytest.approx(ref.value, rel=1e-9)
    scale = 1e-9 * (1.0 + abs(ref.value))
    for part in ("kinetic", "rho_term", "cross", "hessian"):
        assert getattr(fast, part) == pytest.approx(getattr(ref, part), abs=scale)


def test_frozen_scalar_path_skips_evaluate(monkeypatch, frozen_trajs, mu1_direction):
    def refuse(*_args, **_kwargs):
        raise AssertionError("frozen-shape Q must not interpolate the shape")

    monkeypatch.setattr(mcgehee.Trajectory, "evaluate", refuse)
    bump = morse.BumpVariation(l1=0.5, l2=6.0, shift=40.0, xi=mu1_direction)
    for traj in frozen_trajs.values():
        assert np.isfinite(morse.quadratic_Q(traj, bump).value)


def test_refinement_stops_at_first_nonfinite_estimate(homothetic_traj, mu1_direction):
    grids = []

    def nan_rows(grid, members):
        grids.append(grid.size)
        return np.full(grid.shape, np.nan)

    assert np.isnan(morse._refine_until(nan_rows, homothetic_traj, (1.0, 5.0), 1e-8)[0])
    assert len(grids) == 1

    bump = morse.BumpVariation(l1=0.5, l2=4.0, shift=1.0, xi=mu1_direction)

    class NanValues:
        support = bump.support
        deriv = bump.deriv

        def value(self, t):
            grids.append(np.size(t))
            return np.full_like(bump.value(t), np.nan)

    assert np.isnan(morse.quadratic_Q(homothetic_traj, NanValues()).value)
    assert len(grids) == 2


def test_additivity_check_rejects_nan(monkeypatch, homothetic_traj, mu1_direction):
    nan_report = morse.SecondVariationReport(value=float("nan"), kinetic=0.0, rho_term=0.0,
                                             cross=0.0, hessian=0.0)
    monkeypatch.setattr(morse, "quadratic_Q", lambda *args, **kwargs: nan_report)
    with pytest.raises(AssertionError, match="additivity"):
        morse.morse_witnesses(homothetic_traj, mu1_direction, 2, 20.0)


def test_witness_memory_does_not_grow_with_the_bump_count(coll1, mu1_direction):
    # 200 tiny bumps: the additivity check must combine one stack at a time,
    # since one combination of all of them is refined at a bump's density
    # across the whole span
    import tracemalloc

    width = 1e-6
    traj = mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=morse.witness_horizon(200, width))
    tracemalloc.start()
    try:
        rep = morse.morse_witnesses(traj, mu1_direction, 200, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.q_values) == 200
    assert peak < 2**23


def combination_parts(v, grid):
    """scalar, scalar_deriv, value and deriv of a variation at the points of grid."""
    return (*v.scalar_and_deriv(grid), v.value(grid), v.deriv(grid))


def naive_combination(bumps, coeffs, grid):
    """The combination's parts summed over every bump on the whole grid, in bump order."""
    return [sum(c * part for c, part in zip(coeffs, column))
            for column in zip(*(combination_parts(b, grid) for b in bumps))]


def support_edge_grid(bumps, lo, hi, count):
    """A sorted grid on [lo, hi] with every support edge and its two neighbours."""
    edges = np.array([e for b in bumps for e in b.support])
    return np.sort(np.concatenate([np.linspace(lo, hi, count), edges,
                                   np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]))


@pytest.fixture
def mixed_combination(mu1_direction):
    # four translates; the first two supports touch at 3.0
    bumps = [morse.BumpVariation(l1=0.5, l2=3.0, shift=shift, xi=mu1_direction)
             for shift in (0.0, 2.5, 6.0, 9.0)]
    coeffs = [1.3, -0.7, 0.0, -2.1]
    return bumps, coeffs, support_edge_grid(bumps, -1.0, 13.0, 2801)


# the oracle for morse.CombinedVariation: a sum over any bumps, each bump
# evaluated on the points of its own support and its term added in bump order
class ReferenceCombinedVariation:
    """Linear combination sum_n c_n w_n of bump variations."""

    def __init__(self, bumps, coeffs):
        self.bumps = list(bumps)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.support = (min(b.support[0] for b in bumps), max(b.support[1] for b in bumps))
        if all(np.array_equal(b.xi, bumps[0].xi) for b in bumps):
            self.xi = bumps[0].xi

    def _sum(self, parts, t):
        """sum_n c_n parts(bump_n, phi_n, phi_n'), evaluating each bump only on its own support.

        parts returns a tuple of arrays whose leading axis runs over the
        points.  Points already in order, as every refinement grid is, are
        used as they are; others are sorted and the sums put back in their
        order.  Each support is then a slice of the sorted points, found by
        bisection.  Bumps that share a profile and l1 take phi and phi' from
        one value_and_deriv call on their shifted support points together,
        and the c_n terms are added bump by bump in the order given.
        Profiles vanish exactly off their supports, so the skipped terms are
        zeros and each sum is bitwise that of the full evaluation.
        """
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        # a NaN fails every comparison, so points with a NaN take the sort,
        # which puts the NaN last and outside every support
        order = None if np.all(flat[1:] >= flat[:-1]) else np.argsort(flat, kind="stable")
        ts = flat if order is None else flat[order]
        spans = [(np.searchsorted(ts, b.support[0], "left"),
                  np.searchsorted(ts, b.support[1], "right")) for b in self.bumps]
        groups = {}
        for n, b in enumerate(self.bumps):
            groups.setdefault((b.profile, b.l1), []).append(n)
        scalars = [None] * len(self.bumps)
        for (profile, l1), group in groups.items():
            u = np.concatenate([ts[spans[n][0]:spans[n][1]] - l1 - self.bumps[n].shift
                                for n in group])
            cuts = np.cumsum([spans[n][1] - spans[n][0] for n in group])[:-1]
            phi, dphi = (np.split(a, cuts) for a in profile.value_and_deriv(u))
            for n, p, dp in zip(group, phi, dphi):
                scalars[n] = (p, dp)
        sums = None
        for c, b, (lo, hi), (phi, dphi) in zip(self.coeffs, self.bumps, spans, scalars):
            vals = parts(b, phi, dphi)
            if sums is None:
                sums = [np.zeros(flat.shape + v.shape[1:]) for v in vals]
            for total, v in zip(sums, vals):
                total[lo:hi] += c * v
        if order is not None:
            for total in sums:
                total[order] = total.copy()
        return tuple(total.reshape(t.shape + total.shape[1:]) for total in sums)

    def scalar_and_deriv(self, t):
        return self._sum(lambda b, phi, dphi: (phi, dphi), t)

    def value(self, t):
        return self._sum(lambda b, phi, dphi: (phi[:, None, None] * b.xi,), np.atleast_1d(t))[0]

    def deriv(self, t):
        return self._sum(lambda b, phi, dphi: (dphi[:, None, None] * b.xi,), np.atleast_1d(t))[0]


def translates(xi, count, width, kind, flat, start, gaps):
    """count translates of one bump of this width, the gap after each as given.

    A zero gap makes the supports touch: the next support starts at the
    first shift whose start is not before the previous end.
    """
    bumps = []
    for k in range(count):
        shift = start
        if bumps:
            end = bumps[-1].support[1]
            shift = end - 0.5 + gaps[k - 1]
            while 0.5 + shift < end:
                shift = float(np.nextafter(shift, np.inf))
        bumps.append(morse.BumpVariation(l1=0.5, l2=0.5 + width, shift=shift, xi=xi,
                                         profile_kind=kind, flat_fraction=flat))
    return bumps


@st.composite
def translate_combinations(draw):
    """Translates of one bump with coefficients, zeros and negatives among them."""
    count = draw(st.integers(min_value=1, max_value=20))
    gap = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))
    coeff = st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=3.0))
    return dict(count=count,
                width=draw(st.floats(min_value=0.1, max_value=25.0)),
                kind=draw(st.sampled_from(["flattop", "bump"])),
                flat=draw(st.floats(min_value=0.0, max_value=0.99)),
                gaps=draw(st.lists(gap, min_size=count - 1, max_size=count - 1)),
                coeffs=draw(st.lists(coeff, min_size=count, max_size=count)))


@settings(max_examples=60, deadline=None)
@given(case=translate_combinations(),
       points=st.sampled_from(["sorted", "permuted", "nan"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(case=dict(count=3, width=2.5, kind="flattop", flat=0.8, gaps=[0.0, 0.0],
                   coeffs=[-1.0, 0.0, -2.0]), points="nan", seed=0)
def test_combined_variation_is_bitwise_the_reference(case, points, seed, mu1_direction):
    bumps = translates(mu1_direction, case["count"], case["width"], case["kind"],
                       case["flat"], 1.0, case["gaps"])
    grid = support_edge_grid(bumps, 0.0, bumps[-1].support[1] + 1.0, 1001)
    rng = np.random.default_rng(seed)
    if points != "sorted":
        grid = rng.permutation(grid)
    if points == "nan":
        grid = np.insert(grid, rng.integers(0, grid.size + 1, 3), np.nan)
    got = combination_parts(morse.CombinedVariation(bumps, case["coeffs"]), grid)
    want = combination_parts(ReferenceCombinedVariation(bumps, case["coeffs"]), grid)
    for name, g, w in zip(("scalar", "scalar_deriv", "value", "deriv"), got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes(), name


def test_combined_variation_takes_translates_of_one_bump(mu1_direction):
    bump = functools.partial(morse.BumpVariation, l1=0.5, l2=3.0, xi=mu1_direction)
    with pytest.raises(OverlappingSupports, match="overlap"):
        morse.CombinedVariation([bump(shift=0.0), bump(shift=2.0)], [1.0, 1.0])
    with pytest.raises(OverlappingSupports, match="overlap"):
        morse.CombinedVariation([bump(shift=5.0), bump(shift=0.0)], [1.0, 1.0])
    for other in (bump(shift=4.0, profile_kind="bump"), bump(shift=4.0, flat_fraction=0.5),
                  bump(shift=4.0, l2=2.0), bump(shift=4.0, l1=0.4, l2=2.9),
                  bump(shift=4.0, xi=-mu1_direction)):
        with pytest.raises(ValueError, match="translates of one bump"):
            morse.CombinedVariation([bump(shift=0.0), other], [1.0, 1.0])
    # zip would cut a count of the wrong length to the shorter one
    for coeffs in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="one coefficient per bump"):
            morse.CombinedVariation([bump(shift=0.0), bump(shift=4.0)], coeffs)
    with pytest.raises(ValueError, match="one coefficient per bump"):
        morse.CombinedVariation([], [])
    touching = morse.CombinedVariation([bump(shift=0.0), bump(shift=2.5)], [1.0, -1.0])
    assert touching.support == (0.5, 5.5)
    # a ramp of 5e-12 is non-zero 2.5e-13 before its support's end, so even
    # an overlap that small would leave out a tail of the earlier bump
    narrow = functools.partial(morse.BumpVariation, l1=0.5, l2=0.5 + 1e-9, xi=mu1_direction,
                               flat_fraction=0.99)
    first, second = narrow(shift=0.0), narrow(shift=1e-9 - 5e-13)
    assert 0.0 < first.support[1] - second.support[0] < 1e-12
    assert first.scalar_and_deriv(np.array([first.support[1] - 2.5e-13]))[0][0] > 0.0
    with pytest.raises(OverlappingSupports, match="overlap"):
        morse.CombinedVariation([first, second], [1.0, 1.0])


def test_combined_variation_matches_naive_sum(mixed_combination):
    bumps, coeffs, grid = mixed_combination
    combo = morse.CombinedVariation(bumps, coeffs)
    naive = naive_combination(bumps, coeffs, grid)
    for name, got, want in zip(("scalar", "scalar_deriv", "value", "deriv"),
                               combination_parts(combo, grid), naive):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


def test_combined_variation_puts_unsorted_points_back(mixed_combination):
    bumps, coeffs, grid = mixed_combination
    combo = morse.CombinedVariation(bumps, coeffs)
    sorted_parts = combination_parts(combo, grid)
    # NaN points lie on no support, so every part is zero there; in an
    # otherwise sorted grid they must not pass for sorted points
    nan_at = np.array([0, 17, 1200, grid.size + 2])
    for perm in (np.random.default_rng(5).permutation(grid.size), np.arange(grid.size)):
        points = np.insert(grid[perm], nan_at - np.arange(nan_at.size), np.nan)
        assert np.flatnonzero(np.isnan(points)).tolist() == nan_at.tolist()
        keep = ~np.isnan(points)
        for name, got, part in zip(("scalar", "scalar_deriv", "value", "deriv"),
                                   combination_parts(combo, points), sorted_parts):
            want = np.zeros((points.size,) + part.shape[1:])
            want[keep] = part[perm]
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name


def reference_bump_rows(ratio, n_m, hess, phi, dphi):
    """The frozen-shape bump rows as four whole-array expressions stacked at axis -2."""
    return np.stack([n_m * dphi**2, ratio**2 * n_m * phi**2,
                     -2.0 * ratio * n_m * phi * dphi, hess * phi**2], axis=-2)


@pytest.mark.parametrize("name", ["exact", "quadrature"])
def test_bump_rows_equal_the_stacked_expressions(name, frozen_trajs, mu1_direction,
                                                 monkeypatch):
    traj = frozen_trajs[name]
    profile = morse.Profile(width=5.0)
    lo = np.array([1.0, 12.0, 80.0])
    grid = morse._support_grid(traj, lo, lo + profile.width, 128)

    def scalars(grid, members):
        return profile.value_and_deriv(grid - lo[members][:, None])

    members = np.arange(lo.size)
    want = reference_bump_rows(traj.log_rate(grid), *morse._frozen_pairings(traj, mu1_direction),
                               *scalars(grid, members))
    if traj.decay_rate is not None:
        def refuse(*_args, **_kwargs):
            raise AssertionError("exact data must take rho'/rho as the constant -c")

        monkeypatch.setattr(mcgehee.Trajectory, "log_rate", refuse)
    got = morse._bump_integrand(traj, mu1_direction, scalars)(grid, members)
    assert got.shape == want.shape == (lo.size, 4, grid.shape[-1])
    assert got.tobytes() == want.tobytes()


def reference_projected_bump(traj, bump):
    """Re-project a bump direction onto the moving tangent space.

    Returns a variation object and the largest projection correction
    |<M xi, s(tau)>| met on the support; zero on exact homothetic data.
    """
    m = traj.masses

    class _Projected:
        support = bump.support

        def value(self, t):
            t = np.atleast_1d(t)
            _, _, s, _ = traj.evaluate(t)
            phi = bump.scalar_and_deriv(t)[0][:, None, None]
            xi = bump.xi
            coef = np.einsum("j,jd,kjd->k", m, xi, s)[:, None, None]
            return phi * (xi - coef * s)

        def deriv(self, t):
            t = np.atleast_1d(t)
            _, _, s, sp = traj.evaluate(t)
            phi, dphi = bump.scalar_and_deriv(t)
            phi, dphi = phi[:, None, None], dphi[:, None, None]
            xi = bump.xi
            coef = np.einsum("j,jd,kjd->k", m, xi, s)[:, None, None]
            dcoef = np.einsum("j,jd,kjd->k", m, xi, sp)[:, None, None]
            return dphi * (xi - coef * s) - phi * (dcoef * s + coef * sp)

    grid = np.linspace(bump.support[0], bump.support[1], 257)
    _, _, s, _ = traj.evaluate(grid)
    corr = float(np.max(np.abs(np.einsum("j,jd,kjd->k", m, bump.xi, s))))
    return _Projected(), corr


def test_projected_bump_on_homothetic_is_exact(homothetic_traj, mu1_direction):
    bump = morse.BumpVariation(l1=0.5, l2=6.0, shift=2.0, xi=mu1_direction)
    proj, corr = reference_projected_bump(homothetic_traj, bump)
    assert corr < 1e-12
    t = np.linspace(2.5, 8.0, 50)
    assert np.allclose(proj.value(t), bump.value(t), atol=1e-12)


def test_projected_bump_on_perturbed_trajectory(coll1, mu1_direction):
    kick = np.zeros((3, 2))
    kick[:, 1] = 1e-3 * np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    u = nbody.potential(coll1.s0, coll1.masses, 1.0)
    sp2 = float(np.sum(coll1.masses * np.sum(kick * kick, axis=1)))
    rp = -0.25 * np.sqrt(2 * (u - 0.5 * sp2))
    st0 = mcgehee.McGeheeState(rho=1.0, rho_prime=rp, s=coll1.s0.copy(), s_prime=kick)
    traj = mcgehee.integrate_el(st0, coll1.masses, 1.0, tau_max=8.0,
                                opts=mcgehee.IntegratorOptions(rtol=1e-11, max_step=0.05))
    bump = morse.BumpVariation(l1=0.5, l2=5.0, shift=2.0, xi=mu1_direction)
    proj, corr = reference_projected_bump(traj, bump)
    assert 0.0 < corr < 0.1  # kick grows along the collapse; still small here
    q = morse.quadratic_Q(traj, proj)
    assert q.value < 0.0  # criterion holds at alpha = 1


# ---------------------------------------------------------------------------
# homographic blocks


def admissible_direction(cc, rng):
    xi = nbody.tangent_part(cc.s0, cc.masses, rng.standard_normal(cc.s0.shape))
    return xi / np.linalg.norm(xi)


def test_homographic_blocks_zero_variations(coll1):
    traj = mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=30.0)
    z = morse.ScalarBump(l1=1.0, l2=4.0, amplitude=0.0)
    rng = np.random.default_rng(0)
    xi = admissible_direction(coll1, rng)
    v = morse.CombinedVariation(
        [morse.BumpVariation(l1=1.0, l2=4.0, shift=0.0, xi=xi)], [0.0])
    blocks = morse.homographic_blocks(traj, z, v)
    assert blocks == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)


def test_homographic_mixed_block_vanishes(coll1):
    traj = mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=30.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        xi = admissible_direction(coll1, rng)
        sh = rng.uniform(0.0, 20.0)
        v = morse.BumpVariation(l1=0.5, l2=3.0, shift=sh, xi=xi, profile_kind="bump")
        z = morse.ScalarBump(l1=0.5, l2=3.0, shift=sh, amplitude=rng.uniform(0.5, 2.0))
        _, mixed, _ = morse.homographic_blocks(traj, z, v)
        assert abs(mixed) < 1e-10


def test_homographic_blocks_positive_small_alpha():
    cc = central.collinear3(1.0, 1.0, 0.05)
    traj = mcgehee.homothetic_oracle(cc, h=1.0, tau_max=30.0, phi_min=1e-6)
    rng = np.random.default_rng(12)
    for _ in range(20):
        xi = admissible_direction(cc, rng)
        l1 = 0.3 + rng.uniform(0.0, 1.0)
        width = rng.uniform(0.5, 2.0)
        sh = rng.uniform(0.0, traj.tau_end - l1 - width - 0.5)
        v = morse.BumpVariation(l1=l1, l2=l1 + width, shift=sh, xi=xi, profile_kind="bump")
        z = morse.ScalarBump(l1=l1, l2=l1 + width, shift=sh,
                             amplitude=rng.uniform(0.2, 2.0))
        d2r, d2m, d2s = morse.homographic_blocks(traj, z, v)
        assert abs(d2m) < 1e-10
        assert d2r + d2s > 0.0
        assert d2r > 0.0


def block_integrands(traj, zeta, variation):
    """The support and the three block integrands of homographic_blocks, per sample."""
    m, alpha, scale = traj.masses, traj.alpha, traj.potential_scale
    coef = (4.0 / (2.0 - alpha)) ** 2
    s0 = traj.s[0]
    grad_vec = scale * (nbody.potential_gradient_kernel(m, alpha)(s0)[1]
                        + alpha * nbody.potential_stack(s0, m, alpha) * m[:, None] * s0)
    support = (min(zeta.support[0], variation.support[0]),
               max(zeta.support[1], variation.support[1]))

    def rho_integrand(grid):
        _, _, s, sp = traj.evaluate(grid)
        z, dz = zeta.scalar_and_deriv(grid)
        u = scale * nbody.potential_stack(s, m, alpha)
        return coef * dz**2 + z**2 * (morse._mdot(m, sp, sp) + 2.0 * u)

    def mixed_integrand(grid):
        rho, _, _, sp = traj.evaluate(grid)
        z, v, dv = zeta.scalar_and_deriv(grid)[0], variation.value(grid), variation.deriv(grid)
        force = np.einsum("jd,kjd->k", grad_vec, v)
        return 2.0 * rho * z * (morse._mdot(m, sp, dv) + force)

    def shape_integrand(grid):
        rho, _, s, _ = traj.evaluate(grid)
        v, dv = variation.value(grid), variation.deriv(grid)
        hess = scale * nbody.hessian_on_ellipsoid_stack(s, m, alpha, v)
        return rho**2 * (morse._mdot(m, dv, dv) + hess)

    return support, (rho_integrand, mixed_integrand, shape_integrand)


def separate_blocks(traj, zeta, variation, quad_tol=1e-8):
    """homographic_blocks with each integral refined alone, on its own evaluations.

    Returns the three blocks and the number of grids each integral refined on.
    """
    support, integrands = block_integrands(traj, zeta, variation)
    blocks, levels = [], []
    for fn in integrands:
        grids = []
        counted = (lambda fn: lambda grid, _: grids.append(grid.size) or fn(grid[0])[None])(fn)
        blocks.append(float(morse._refine_until(counted, traj, support, quad_tol)[0]))
        levels.append(len(grids))
    return tuple(blocks), levels


@pytest.mark.parametrize("alpha,h", [(0.05, 1.0), (1.0, 0.0), (1.0, 2.0)])
def test_homographic_blocks_evaluate_each_grid_once(alpha, h, monkeypatch):
    cc = central.collinear3(1.0, 1.0, alpha)
    traj = mcgehee.homothetic_oracle(cc, h=h, tau_max=30.0, phi_min=1e-6)
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(6):
        l1 = 0.3 + rng.uniform(0.0, 1.0)
        width = rng.uniform(0.5, min(4.0, traj.tau_end - l1 - 0.6))
        sh = rng.uniform(0.0, traj.tau_end - l1 - width - 0.5)
        v = morse.BumpVariation(l1=l1, l2=l1 + width, shift=sh,
                                xi=admissible_direction(cc, rng), profile_kind="bump")
        z = morse.ScalarBump(l1=l1, l2=l1 + width, shift=sh, amplitude=rng.uniform(0.2, 2.0))
        cases.append((z, v, *separate_blocks(traj, z, v)))
    # some integrals stop before the others
    assert any(len(set(levels)) > 1 for *_, levels in cases)
    rho_at, support_grid, seen = mcgehee.Trajectory.rho_at, morse._support_grid, []

    def counted(self, t):
        seen.append(("rho", t.size))
        return rho_at(self, t)

    def counted_grid(traj, lo, hi, intervals, midpoints=False):
        grid = support_grid(traj, lo, hi, intervals, midpoints)
        seen.append(("mids" if midpoints else "grid", grid.shape[1]))
        return grid

    monkeypatch.setattr(mcgehee.Trajectory, "rho_at", counted)
    monkeypatch.setattr(morse, "_support_grid", counted_grid)
    for z, v, want, levels in cases:
        seen.clear()
        got = morse.homographic_blocks(traj, z, v)
        # constants read once at s0 round differently from the per-sample pairings
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14)
        # one evaluation per grid, as many grids as the slowest integral, and
        # one rho interpolation per grid of the mixed and shape integrals (the
        # radial integrand needs no rho).  The grids nest: the first spans
        # the first two levels, each later one holds only the midpoints of
        # the level before, as many points as that level has intervals
        with_rho, first = max(levels[1:]), seen[0][1]
        sizes = [first] + [(first - 1) << k for k in range(max(levels) - 1)]
        kinds = ["grid"] + ["mids"] * (max(levels) - 1)
        expect = []
        for k, (kind, size) in enumerate(zip(kinds, sizes)):
            expect += [(kind, size)] + [("rho", size)] * (k < with_rho)
        assert seen == expect


def fine_simpson(fn, support, intervals=1 << 14):
    """Composite Simpson of fn's rows on one fine grid, with no refinement.

    The step is the support width over the interval count: grid[1] - grid[0]
    would lose digits on a support far from tau = 0.
    """
    vals = fn(np.linspace(*support, intervals + 1))
    step = (support[1] - support[0]) / intervals
    return step / 3.0 * (vals[..., 0] + vals[..., -1] + 4.0 * vals[..., 1:-1:2].sum(axis=-1)
                         + 2.0 * vals[..., 2:-1:2].sum(axis=-1))


def narrow_cases(alpha, h):
    """A frozen-shape collinear3 trajectory and (zeta, bump) pairs of widths 0.3 to 1.9."""
    cc = central.collinear3(1.0, 1.0, alpha)
    traj = mcgehee.homothetic_oracle(cc, h=h, tau_max=30.0, phi_min=1e-6)
    rng = np.random.default_rng(8)
    cases = []
    for width in (0.3, 0.7, 1.2, 1.9):
        l1 = 0.3 + rng.uniform(0.0, 1.0)
        sh = rng.uniform(0.0, traj.tau_end - l1 - width - 0.3)
        v = morse.BumpVariation(l1=l1, l2=l1 + width, shift=sh,
                                xi=admissible_direction(cc, rng), profile_kind="bump")
        z = morse.ScalarBump(l1=l1, l2=l1 + width, shift=sh, amplitude=rng.uniform(0.2, 2.0))
        cases.append((z, v))
    return traj, cases


@pytest.mark.parametrize("alpha,h", [(1.0, 0.0), (0.05, 1.0)])
def test_narrow_blocks_meet_their_tolerance(alpha, h):
    # below width 2 the first grids share the 64-interval floor; refinement
    # must still compare two different grids before it stops, so a block and
    # Q at quad_tol 1e-8 match both the 1e-14 values and one fine grid
    traj, cases = narrow_cases(alpha, h)
    for z, v in cases:
        support, integrands = block_integrands(traj, z, v)
        fine = [fine_simpson(fn, support) for fn in integrands]
        tight = morse.homographic_blocks(traj, z, v, quad_tol=1e-14)
        for got, ref in zip(morse.homographic_blocks(traj, z, v), tight):
            assert abs(got - ref) <= 1e-8 * (1.0 + abs(ref))
        assert tight == pytest.approx(fine, rel=1e-9, abs=1e-9)
        rows = morse._sampled_integrand(traj, lambda t, _: (v.value(t), v.deriv(t)))
        fine_q = fine_simpson(lambda t: rows(t, None), v.support).sum()
        tight_q = morse.quadratic_Q(traj, v, quad_tol=1e-14).value
        assert abs(morse.quadratic_Q(traj, v).value - tight_q) <= 1e-8 * (1.0 + abs(tight_q))
        assert tight_q == pytest.approx(fine_q, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("alpha,h", [(1.0, 0.0), (0.05, 1.0)])
def test_narrow_refinements_stop_before_the_last_level(alpha, h, monkeypatch):
    # a Simpson step of grid[1] - grid[0] loses about eps * lo / h of its
    # digits on a support at tau = lo, so a tight quad_tol was never met and
    # these refinements ran all 8 levels; the step (hi - lo) / n meets 1e-14
    traj, cases = narrow_cases(alpha, h)
    support_grid, grids = morse._support_grid, []

    def counted(*args, **kwargs):
        grids.append(args[3])
        return support_grid(*args, **kwargs)

    monkeypatch.setattr(morse, "_support_grid", counted)
    for z, v in cases:
        for refine in (lambda: morse.homographic_blocks(traj, z, v, quad_tol=1e-14),
                       lambda: morse.quadratic_Q(traj, v, quad_tol=1e-14)):
            grids.clear()
            refine()
            # the blocks share one grid per level; the first grid holds the
            # first two levels, so all 8 levels take 7 grids
            assert len(grids) < 7, grids


def test_refinement_stops_each_integral_at_its_own_tolerance(homothetic_traj):
    # three members on one support, each its own integrand row
    ks, levels = (0.5, 2.0, 9.0), []

    def rows(grid, members):
        levels.append(members.tolist())
        return np.stack([np.exp(-ks[m] * row) * np.sin(3.0 * ks[m] * row) + 0.1 * ks[m]
                         for m, row in zip(members.tolist(), grid)])

    together = morse._refine_until(rows, homothetic_traj, [(1.0, 30.0)] * 3, 1e-12)
    shared = [sum(m in members for members in levels) for m in range(3)]
    for m in range(3):
        levels.clear()
        alone = morse._refine_until(lambda grid, _: rows(grid, np.array([m])),
                                    homothetic_traj, (1.0, 30.0), 1e-12)
        assert together[m].tobytes() == alone[0].tobytes()
        assert shared[m] == len(levels)
    assert len(set(shared)) > 1  # they converge at different levels


def test_refinement_stops_on_two_small_changes(homothetic_traj):
    # members 0, 1, 2 integrate 0, 1e-9 and 1 on (1, 5); Simpson is exact on
    # each, so every change after level 0 is 0 (or rounding)
    heights, levels = (0.0, 2.5e-10, 0.25), []

    def rows(grid, members):
        levels.append(members.tolist())
        return np.stack([np.full(row.shape, heights[m]) for m, row in zip(members.tolist(), grid)])

    got = morse._refine_until(rows, homothetic_traj, [(1.0, 5.0)] * 3, 1e-8)
    assert got.tolist() == pytest.approx([0.0, 1e-9, 1.0], rel=1e-14)
    # level 0 changes from 0: members whose first estimate is within 256 tol
    # of 0 stop at level 1, on the first grid; the other stops at level 2,
    # after one small change from level 1 and one before it
    assert levels == [[0, 1, 2], [2]]


def test_homographic_blocks_reject_moving_shape(coll1):
    kick = np.zeros((3, 2))
    kick[:, 1] = 1e-4 * np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    u = nbody.potential(coll1.s0, coll1.masses, 1.0)
    rp = -0.25 * np.sqrt(2 * u)
    st0 = mcgehee.McGeheeState(rho=1.0, rho_prime=rp, s=coll1.s0.copy(), s_prime=kick)
    traj = mcgehee.integrate_el(st0, coll1.masses, 1.0, tau_max=2.0)
    z = morse.ScalarBump(l1=0.2, l2=1.0)
    rng = np.random.default_rng(4)
    v = morse.BumpVariation(l1=0.2, l2=1.0, shift=0.0, xi=admissible_direction(coll1, rng))
    with pytest.raises(NotHomographic):
        morse.homographic_blocks(traj, z, v)


def test_report_json_keys(homothetic_traj, mu1_direction):
    rep = morse.morse_witnesses(homothetic_traj, mu1_direction, 3, 20.0)
    assert set(rep.to_dict()) == {"Q", "kinetic", "rho_term", "cross", "hessian", "witnesses"}


# ---------------------------------------------------------------------------
# witness counts on one stack, against the one-bump-at-a-time loop


def reference_profile(p, u):
    """Profile value and slope as two separate passes computed them, the oracle
    of Profile.value_and_deriv."""
    def soft(x):
        out = np.zeros_like(x)
        pos = x > 1e-12
        out[pos] = np.exp(-1.0 / x[pos])
        return out

    def soft_d(x):
        out = np.zeros_like(x)
        pos = x > 1e-12
        out[pos] = np.exp(-1.0 / x[pos]) / x[pos] ** 2
        return out

    def step(x):
        a, b = soft(x), soft(1.0 - x)
        return a / (a + b)

    def step_d(x):
        a, b = soft(x), soft(1.0 - x)
        da, db = soft_d(x), -soft_d(1.0 - x)
        denom = (a + b) ** 2
        out = np.zeros_like(x)
        ok = denom > 0
        out[ok] = (da[ok] * b[ok] - a[ok] * db[ok]) / denom[ok]
        return out

    u = np.asarray(u, dtype=float)
    if p.kind == "bump":
        z = 2.0 * u / p.width - 1.0
        val, der = np.zeros_like(z), np.zeros_like(z)
        inside = np.abs(z) < 1.0
        zi = z[inside]
        val[inside] = np.exp(-1.0 / (1.0 - zi**2) + 1.0)
        der[inside] = np.exp(-1.0 / (1.0 - zi**2) + 1.0) * (-2.0 * zi / (1.0 - zi**2) ** 2) \
            * (2.0 / p.width)
        return val, der
    ramp = 0.5 * (1.0 - p.flat_fraction) * p.width
    up, down = step(u / ramp), step((p.width - u) / ramp)
    dup = step_d(u / ramp) / ramp
    ddown = -step_d((p.width - u) / ramp) / ramp
    return up * down, dup * down + up * ddown


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["flattop", "bump"]),
       width=st.floats(min_value=1e-3, max_value=1e3),
       frac=st.floats(min_value=0.0, max_value=0.999),
       u=st.lists(st.floats(width=64), max_size=20))
def test_value_and_deriv_equals_the_two_pass_profile(kind, width, frac, u):
    p = morse.Profile(width=width, kind=kind, flat_fraction=frac)
    ramp = 0.5 * (1.0 - frac) * width
    edges = np.array([0.0, 1e-12 * ramp, (1.0 - 1e-12) * ramp, ramp, width - ramp,
                      width - (1.0 - 1e-12) * ramp, width - 1e-12 * ramp, width])
    pts = np.concatenate([u, np.linspace(-0.1 * width, 1.1 * width, 301), edges,
                          np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                          [np.nan, np.inf, -np.inf, -0.0]])
    with np.errstate(all="ignore"):
        got = p.value_and_deriv(pts)
        want = reference_profile(p, pts)
    for g, w in zip(got, want):
        # bitwise, signed zeros included; a NaN is matched by a NaN
        assert np.array_equal(np.isnan(g), np.isnan(w))
        assert g[~np.isnan(w)].tobytes() == w[~np.isnan(w)].tobytes()


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=5),
       width=st.floats(min_value=0.3, max_value=12.0),
       kind=st.sampled_from(["flattop", "bump"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(n=5, width=0.5, kind="flattop", seed=0)
# the two bumps' combination is refined on 278 2^k intervals; its change
# from 278 to 556 is 9.7e-9 relative while its error grows from 8.0e-8 to
# 9.0e-8, so a stop on that one change alone is 9.0e-8 off
@example(n=2, width=8.607348791535577, kind="flattop", seed=2878095553)
def test_disjoint_supports_make_Q_additive(n, width, kind, seed, homothetic_traj, mu1_direction):
    # translates of one bump, with flat fractions up to 0.95: steeper ramps
    # on narrow supports are not resolved within 8 doublings, and Q comes
    # back unconverged without a signal (ROADMAP item 4; CHANGES.md names
    # the cases)
    rng = np.random.default_rng(seed)
    starts = np.cumsum(rng.uniform(0.0, 3.0, n) + width) - width
    flat = rng.uniform(0.0, 0.95)
    bumps = [morse.BumpVariation(l1=0.5, l2=0.5 + width, shift=float(s), xi=mu1_direction,
                                 profile_kind=kind, flat_fraction=flat) for s in starts]
    c = rng.standard_normal(n)
    total = float(np.sum(c**2 * [morse.quadratic_Q(homothetic_traj, b).value for b in bumps]))
    q = morse.quadratic_Q(homothetic_traj, morse.CombinedVariation(bumps, c)).value
    assert abs(q - total) <= 1e-8 * (1.0 + abs(total))


@pytest.mark.parametrize("width,flat", [(0.1, 0.9), (0.3, 0.9), (0.3, 0.95)])
def test_narrow_steep_witnesses_pass_the_additivity_check(width, flat, homothetic_traj,
                                                          mu1_direction):
    # the combination of the bumps used to start refining where a support as
    # wide as all of them would, ran out of doublings, and failed the check
    rep = morse.morse_witnesses(homothetic_traj, mu1_direction, 5, width, flat)
    assert len(rep.q_values) == 5


def witness_bumps(xi, count, width, flat_fraction):
    """The bumps of morse_witnesses: on (BUMP_START + s_k, width + s_k), s_k = width + 2 width k."""
    return [morse.BumpVariation(l1=morse.BUMP_START, l2=width, shift=width + 2.0 * width * k,
                                xi=xi, flat_fraction=flat_fraction) for k in range(count)]


def reference_witness_values(traj, xi, count, width, flat_fraction):
    """The loop the stacked witness quadrature replaced: one quadratic_Q per bump."""
    xi = np.asarray(xi, dtype=float).reshape(traj.s[0].shape)
    return [morse.quadratic_Q(traj, b) for b in witness_bumps(xi, count, width, flat_fraction)]


REPORT_FIELDS = ("value", "kinetic", "rho_term", "cross", "hessian")


def assert_same_report(got, want):
    for name in REPORT_FIELDS:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


@pytest.fixture(scope="module")
def witness_trajs(coll1, homothetic_traj):
    """Frozen-shape oracles at h = 0 and h = 1, and a kicked run with sampled shapes."""
    kick = np.zeros((3, 2))
    kick[:, 1] = 1e-3 * np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    u = nbody.potential(coll1.s0, coll1.masses, 1.0)
    sp2 = float(np.sum(coll1.masses * np.sum(kick * kick, axis=1)))
    st0 = mcgehee.McGeheeState(rho=1.0, rho_prime=-0.25 * np.sqrt(2 * (u - 0.5 * sp2)),
                               s=coll1.s0.copy(), s_prime=kick)
    kicked = mcgehee.integrate_el(st0, coll1.masses, 1.0, tau_max=8.0,
                                  opts=mcgehee.IntegratorOptions(rtol=1e-11, max_step=0.05))
    assert not kicked.frozen_shape
    return {"oracle-h0": homothetic_traj,
            "oracle-h1": mcgehee.homothetic_oracle(coll1, h=1.0, tau_max=30.0, phi_min=1e-6),
            "kicked": kicked}


@pytest.mark.parametrize("name", ["oracle-h0", "oracle-h1", "kicked"])
@settings(max_examples=12, deadline=None)
@given(count=st.integers(min_value=1, max_value=5),
       width=st.one_of(st.floats(min_value=0.1, max_value=1.99),
                       st.floats(min_value=2.0, max_value=25.0)),
       flat=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@example(count=3, width=0.3, flat=0.99)
def test_stacked_witnesses_equal_the_per_bump_loop(name, count, width, flat, witness_trajs,
                                                   mu1_direction):
    traj = witness_trajs[name]
    # the last support ends at 2 count width
    width = min(width, (traj.tau_end - 1e-6) / (2 * count))
    want = reference_witness_values(traj, mu1_direction, count, width, flat)
    try:
        rep = morse.morse_witnesses(traj, mu1_direction, count, width, flat)
    except AssertionError:
        # very steep ramps on narrow supports leave Q unconverged after 8
        # doublings (ROADMAP item 4): the additivity check must then fail on
        # the per-bump values as well
        c = np.random.default_rng(0).standard_normal(count)
        bumps = witness_bumps(mu1_direction, count, width, flat)
        q_combo = morse.quadratic_Q(traj, morse.CombinedVariation(bumps, c)).value
        expected = float(np.sum(c**2 * np.array([r.value for r in want])))
        assert not abs(q_combo - expected) <= 1e-8 * (1.0 + abs(expected))
        return
    assert [repr(q) for q in rep.q_values] == [repr(r.value) for r in want]
    assert_same_report(rep, min(want, key=lambda r: r.value))
    assert rep.witnesses == sum(r.value < 0.0 for r in want)


@pytest.mark.parametrize("name", ["oracle-h0", "oracle-h1", "kicked"])
@settings(max_examples=20, deadline=None)
@given(case=translate_combinations())
def test_combined_variation_reports_are_the_reference(name, case, witness_trajs,
                                                      mu1_direction):
    traj = witness_trajs[name]
    count = case["count"]
    # the supports and gaps shrink together to fit the horizon
    span = count * case["width"] + sum(case["gaps"])
    scale = min(1.0, (traj.tau_end - 1.0) / span)
    bumps = translates(mu1_direction, count, case["width"] * scale, case["kind"], case["flat"],
                       0.0, [g * scale for g in case["gaps"]])
    got = morse.quadratic_Q(traj, morse.CombinedVariation(bumps, case["coeffs"]))
    assert_same_report(got, morse.quadratic_Q(
        traj, ReferenceCombinedVariation(bumps, case["coeffs"])))


def stacked_rows(bumps, nan_member=None, calls=None):
    """(phi, phi') for any bumps, one grid row per member, each from its own bump.

    The rows of nan_member are NaN; calls, when given, collects the members
    of each evaluation.
    """
    def scalars(grid, members):
        if calls is not None:
            calls.append(list(members))
        pairs = [bumps[m].scalar_and_deriv(row) for m, row in zip(members, grid)]
        phi, dphi = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
        phi[np.asarray(members) == nan_member] = np.nan
        return phi, dphi

    return scalars


@pytest.mark.parametrize("name", ["oracle-h0", "oracle-h1", "kicked"])
@settings(max_examples=10, deadline=None)
@given(widths=st.lists(st.floats(min_value=0.2, max_value=9.0), min_size=2, max_size=6),
       kinds=st.lists(st.sampled_from(["flattop", "bump"]), min_size=6, max_size=6),
       gap=st.floats(min_value=0.0, max_value=2.0),
       nan_member=st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
@example(widths=[0.7, 5.3, 2.9], kinds=["flattop", "bump"] * 3, gap=1.0, nan_member=1)
def test_stack_members_refine_alone(name, widths, kinds, gap, nan_member, witness_trajs,
                                    mu1_direction):
    # members of different widths start on different interval counts, or
    # share a grid where the counts agree; each must stop at its own level
    traj = witness_trajs[name]
    widths = np.array(widths)
    scale = min(1.0, (traj.tau_end - 0.5) / (widths.sum() + gap * len(widths)))
    widths, gap = widths * scale, gap * scale
    lows = 0.1 + np.cumsum(widths + gap) - widths - gap
    bumps = [morse.BumpVariation(l1=1e-9, l2=w, shift=float(lo), xi=mu1_direction,
                                 profile_kind=k) for w, lo, k in zip(widths, lows, kinds)]
    calls = []
    scalars = stacked_rows(bumps, nan_member, calls)
    integrand = morse._bump_integrand(traj, mu1_direction, scalars)
    got = [morse._report(p)
           for p in morse._refine_until(integrand, traj, [b.support for b in bumps], 1e-8)]
    for k, (rep, bump) in enumerate(zip(got, bumps)):
        if k == nan_member:
            assert np.isnan(rep.value)
            assert sum(k in members for members in calls) == 1
        else:
            assert_same_report(rep, morse.quadratic_Q(traj, bump))


def test_stack_shares_a_grid_per_interval_count(monkeypatch, homothetic_traj, mu1_direction):
    # widths 0.7 and 2.9 both start on 64 intervals, 5.3 on 86
    bumps = [morse.BumpVariation(l1=1e-9, l2=w, shift=lo, xi=mu1_direction)
             for w, lo in ((0.7, 1.0), (5.3, 3.0), (2.9, 10.0))]
    support_grid, grids = morse._support_grid, []

    def counted(traj, lo, hi, intervals, midpoints=False):
        grids.append((len(lo), intervals, midpoints))
        return support_grid(traj, lo, hi, intervals, midpoints)

    monkeypatch.setattr(morse, "_support_grid", counted)
    integrand = morse._bump_integrand(homothetic_traj, mu1_direction, stacked_rows(bumps))
    morse._refine_until(integrand, homothetic_traj, [b.support for b in bumps], 1e-8)
    # each start count's members share one grid a level: first the grid of
    # twice the count (levels 0 and 1), then the midpoints of each doubling
    starts = [k for k, (_, _, mids) in enumerate(grids) if not mids]
    assert [grids[k] for k in starts] == [(2, 128, False), (1, 172, False)]
    for run in (grids[starts[0]:starts[1]], grids[starts[1]:]):
        counts = [intervals for _, intervals, _ in run]
        assert counts == [counts[0] << k for k in range(len(counts))]
        assert all(mids for _, _, mids in run[1:])
        assert [rows for rows, _, _ in run] == sorted((rows for rows, _, _ in run), reverse=True)
    assert grids[starts[0] + 1][0] == 2  # both 64-interval members refine past level 1


@pytest.mark.parametrize("widths", [(1.37,), (0.3, 0.7, 5.3, 2.9), (20.0, 1.37, 0.05)])
def test_nested_grids_evaluate_each_point_once(widths, homothetic_traj, monkeypatch):
    # a negative tolerance is never met, so every member runs all 8 levels;
    # each evaluated point
    # is new to its member, the points of a member are exactly the final
    # level's grid, and every grid is bitwise part of np.linspace
    lows = 1.0 + np.cumsum((0.0,) + widths[:-1])
    supports = [(lo, lo + w) for lo, w in zip(lows.tolist(), widths)]
    seen = {m: [] for m in range(len(widths))}
    support_grid = morse._support_grid

    def checked(traj, lo, hi, intervals, midpoints=False):
        grid = support_grid(traj, lo, hi, intervals, midpoints)
        for row, a, b in zip(grid, lo, hi):
            full = np.linspace(a, b, intervals + 1)
            assert row.tobytes() == (full[1::2] if midpoints else full).tobytes()
        return grid

    def rows(grid, members):
        for m, row in zip(members.tolist(), grid):
            seen[m].append(row)
        return np.sin(grid)

    monkeypatch.setattr(morse, "_support_grid", checked)
    got = morse._refine_until(rows, homothetic_traj, supports, -1.0)
    for m, (lo, hi) in enumerate(supports):
        points = np.sort(np.concatenate(seen[m]))
        n = points.size - 1
        assert n % 128 == 0 and len(seen[m]) == 7
        assert points.tobytes() == np.linspace(lo, hi, n + 1).tobytes()
        # the last level's Simpson sum of all of them
        assert got[m] == fine_simpson(np.sin, (lo, hi), n)


def test_nested_counts_double_where_the_old_schedule_did_not(homothetic_traj):
    # width 1.37 used to run 64, 88, 176, 352, 702 ... intervals; the levels
    # are now 64 2^k, so each level's grid holds the last one's points
    counts = []

    def rows(grid, members):
        counts.append(grid.shape[1])
        return np.cos(grid)

    morse._refine_until(rows, homothetic_traj, (2.0, 3.37), -1.0)
    assert counts == [129] + [64 << k for k in range(1, 7)]


# The refinement as it was before its levels were summed from their pieces,
# copied verbatim: it interleaves every level and copies the running members'
# values at each level.  It is the oracle of the refinement below.
def reference_refine_until(fn, traj, supports, tol, narrowest=None):
    """Composite-Simpson integrals on a stack of supports, refined together on nested grids.

    supports is one (lo, hi) pair or a sequence of them, one per member.  fn
    maps (grid, members), a (G, K) grid whose rows hold points of the
    supports of the members in the index array members, to values of shape
    (G, ..., K); each row is integrated, and the tolerance applies to the
    sum of a member's rows.  A member's level k uses n0 2^k intervals, for
    at most 8 levels.  Its first count n0 is the first _intervals count, at
    16, 32, ... points per unit, that differs from the next one: on a
    support narrower than 2 the coarser counts are all the 64-interval floor,
    and comparing two such levels would check nothing.  Where an integrand is
    made of pieces narrower than its support, narrowest (their least width)
    sets n0 in place of the support's width, so the pieces are resolved as
    finely as they would be alone.  Members that share n0 share every grid.
    Their first evaluation is the grid of 2 n0 intervals, whose even points
    are level 0 and which is level 1; each later level evaluates only its
    new midpoints and interleaves them with the values it keeps, so no point
    is evaluated twice.  A member stops at its first non-finite estimate, or
    at a level whose change is within tol (1 + |T|) of its estimate T and
    whose previous change is within _SETTLED times that, and leaves the stack;
    level 0 changes from 0, so a member stops at level 1 only near 0.
    Returns the row estimates, one per member, in the order given.
    """
    lo, hi = np.reshape(np.asarray(supports, dtype=float), (-1, 2)).T
    starts = {}
    for m, width in enumerate((hi - lo).tolist()):
        feature = width if narrowest is None else min(width, narrowest)
        rate = 16.0
        while _intervals(feature, 2.0 * rate) == _intervals(feature, rate):
            rate *= 2.0
        starts.setdefault(_intervals(width, rate), []).append(m)
    result = None
    for n, group in sorted(starts.items()):
        members = np.array(group)
        first = fn(_support_grid(traj, lo[members], hi[members], 2 * n), members)
        vals = np.ascontiguousarray(first[..., ::2])
        # the estimate before level 0 counts as 0, and no change precedes it
        last, change = np.zeros(members.size), np.full(members.size, np.inf)
        for level in range(8):
            if level == 1:
                vals, first, n = first, None, 2 * n
            elif level > 1:
                n *= 2
                mids = fn(_support_grid(traj, lo[members], hi[members], n, midpoints=True),
                          members)
                vals, kept = np.empty(mids.shape[:-1] + (n + 1,)), vals
                vals[..., ::2] = kept
                vals[..., 1::2] = mids
                # the next level's evaluation needs neither
                del kept, mids
            # the step _support_grid builds its rows from; grid[:, 1] - grid[:, 0]
            # would lose digits on a support far from tau = 0
            h = ((hi[members] - lo[members]) / n / 3.0).reshape((-1,) + (1,) * (vals.ndim - 2))
            simpson = h * (vals[..., 0] + vals[..., -1] + 4.0 * vals[..., 1:-1:2].sum(axis=-1)
                           + 2.0 * vals[..., 2:-1:2].sum(axis=-1))
            if result is None:
                result = np.empty((lo.size,) + simpson.shape[1:])
            result[members] = simpson
            totals = simpson.reshape(members.size, -1).sum(axis=-1)
            bound = tol * (1.0 + np.abs(totals))
            previous, change = change, np.abs(totals - last)
            done = ~np.isfinite(totals) | ((change <= bound) & (previous <= _SETTLED * bound))
            if done.all() or level == 7:
                break
            going = ~done
            members, vals, last, change = members[going], vals[going], totals[going], change[going]
            if level == 0:
                first = first[going]
    return result



# _support_grid reads only the horizon of a trajectory
HORIZON = SimpleNamespace(tau=np.zeros(1), tau_end=2000.0)


@st.composite
def refinement_cases(draw):
    """A stack of supports and one integrand parameter set per member."""
    count = draw(st.integers(min_value=1, max_value=20))
    widths = draw(st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=count,
                           max_size=count))
    lows = draw(st.lists(st.floats(min_value=0.0, max_value=900.0), min_size=count,
                         max_size=count))
    if draw(st.booleans()):  # one support for every member, as homographic_blocks has
        widths, lows = widths[:1] * count, lows[:1] * count
    narrow = draw(st.one_of(st.none(), st.floats(min_value=0.05, max_value=50.0)))
    # pieces at most 50 times narrower than the widest support keep the
    # finest grid near 400,000 points
    narrowest = None if narrow is None else max(narrow, max(widths) / 50.0)
    # amplitude 0 integrates to 0 and stops at level 1; higher frequencies
    # stop later
    amps = draw(st.lists(st.sampled_from([0.0, 1.0, -3.0, 1e-9, 250.0]), min_size=count,
                         max_size=count))
    freqs = draw(st.lists(st.floats(min_value=0.0, max_value=40.0), min_size=count,
                          max_size=count))
    members = st.one_of(st.none(), st.integers(min_value=0, max_value=count - 1))
    return dict(supports=[(lo, lo + w) for lo, w in zip(lows, widths)], narrowest=narrowest,
                amps=np.array(amps), freqs=np.array(freqs),
                phases=np.array(draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                                              min_size=count, max_size=count))),
                nan_member=draw(members), nan_call=draw(st.integers(min_value=0, max_value=6)),
                rough_member=draw(members), two_rows=draw(st.booleans()),
                tol=draw(st.sampled_from([1e-8, 1e-11, 1e-6])))


def sine_rows(case, calls):
    """a sin(f t + p) per member, and a cos(f t) row with two_rows.

    The rough member is the count of evaluations so far, so its new midpoints
    never agree with the values it kept and it runs all 8 levels; the NaN
    member is NaN from evaluation nan_call on.  calls collects the members of
    each evaluation.
    """
    def rows(grid, members):
        calls.append(members.tolist())
        a, f = case["amps"][members, None], case["freqs"][members, None]
        vals = a * np.sin(f * grid + case["phases"][members, None])
        if case["two_rows"]:
            vals = np.stack([vals, a * np.cos(f * grid)], axis=1)
        vals[members == case["rough_member"]] = len(calls)
        if len(calls) > case["nan_call"]:
            vals[members == case["nan_member"]] = np.nan
        return vals

    return rows


@settings(max_examples=80, deadline=None)
@given(case=refinement_cases())
@example(case=dict(supports=[(3.0, 53.0), (60.0, 60.05), (61.0, 61.3), (70.0, 72.0)],
                   narrowest=1.0, amps=np.array([1.0, -3.0, 0.0, 250.0]),
                   freqs=np.array([0.5, 0.0, 2.0, 40.0]), phases=np.array([0.1, 1.0, 0.0, -2.0]),
                   nan_member=3, nan_call=2, rough_member=0, two_rows=True, tol=1e-8))
def test_refinement_is_bitwise_its_reference(case):
    got_calls, want_calls = [], []
    got = morse._refine_until(sine_rows(case, got_calls), HORIZON, case["supports"],
                              case["tol"], case["narrowest"])
    want = reference_refine_until(sine_rows(case, want_calls), HORIZON, case["supports"],
                                  case["tol"], case["narrowest"])
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()
    assert got_calls == want_calls
    # the rough member runs all 8 levels: one first grid and 6 midpoint grids
    if case["rough_member"] not in (None, case["nan_member"]):
        assert sum(case["rough_member"] in members for members in got_calls) == 7


def test_homographic_blocks_build_one_grid_row(monkeypatch):
    # the three blocks share one support: each level builds one row, and the
    # blocks are bitwise those of the reference, which built three
    cc = central.collinear3(1.0, 1.0, 0.05)
    traj = mcgehee.homothetic_oracle(cc, h=1.0, tau_max=30.0, phi_min=1e-6)
    rng = np.random.default_rng(32)
    support_grid, rows = morse._support_grid, []

    def counted(traj, lo, hi, intervals, midpoints=False):
        rows.append(len(lo))
        return support_grid(traj, lo, hi, intervals, midpoints)

    for width in (0.05, 0.4, 1.3, 3.0):
        v = morse.BumpVariation(l1=0.5, l2=0.5 + width, shift=1.0,
                                xi=admissible_direction(cc, rng), profile_kind="bump")
        z = morse.ScalarBump(l1=0.5, l2=0.5 + width, shift=1.0, amplitude=0.7)
        rows.clear()
        with monkeypatch.context() as patch:
            patch.setattr(morse, "_support_grid", counted)
            got = morse.homographic_blocks(traj, z, v)
        assert rows and set(rows) == {1}
        with monkeypatch.context() as patch:
            patch.setattr(morse, "_refine_until", reference_refine_until)
            want = morse.homographic_blocks(traj, z, v)
        assert [repr(b) for b in got] == [repr(b) for b in want]
