import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncol import central, mcgehee, morse, nbody, spectral
from ncol.errors import NotHomographic, OverlappingSupports, SupportOutOfRange


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


def test_flattop_dirichlet_ratio_scales_inversely_with_width():
    narrow = morse.Profile(width=5.0).dirichlet_ratio()
    wide = morse.Profile(width=20.0).dirichlet_ratio()
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

    sv = morse.second_variation_s(homothetic_traj, FromW())
    assert sv == pytest.approx(q.value, abs=1e-8 * (1 + abs(q.value)))


@settings(max_examples=15, deadline=None)
@given(c=st.floats(min_value=-3.0, max_value=3.0))
def test_quadratic_scaling(c, homothetic_traj, mu1_direction):
    bump = morse.BumpVariation(l1=0.5, l2=6.0, shift=5.0, xi=mu1_direction)
    q1 = morse.quadratic_Q(homothetic_traj, bump).value
    qc = morse.quadratic_Q(homothetic_traj, morse.CombinedVariation([bump], [c])).value
    assert qc == pytest.approx(c * c * q1, abs=1e-9 * (1 + abs(q1)))


def test_morse_witnesses_newtonian(homothetic_traj, mu1_direction):
    shifts = morse.default_shifts(10, 0.0, 20.0)
    rep = morse.morse_witnesses(homothetic_traj, mu1_direction, shifts, l1=1e-9, l2=20.0)
    assert rep.witnesses == 10
    assert all(q < 0.0 for q in rep.q_values)
    # identical bumps on a frozen-shape trajectory give identical values
    assert np.ptp(rep.q_values) < 1e-8 * abs(rep.value)


def test_morse_witnesses_small_alpha():
    cc = central.collinear3(1.0, 1.0, 0.05)
    rep_s = spectral.smallest_eigenvalue(cc)
    assert rep_s.margin > 0.0
    traj = mcgehee.homothetic_oracle(cc, h=0.0, tau_max=450.0)
    shifts = morse.default_shifts(10, 0.0, 20.0)
    rep = morse.morse_witnesses(traj, rep_s.eigvec, shifts, l1=1e-9, l2=20.0)
    assert rep.witnesses == 0
    assert all(q > 0.0 for q in rep.q_values)


def test_morse_witness_sign_matches_margin_for_wide_bumps(homothetic_traj, coll1,
                                                          mu1_direction):
    # tail criterion: wide flat bumps follow the sign of the criterion margin
    rep_s = spectral.smallest_eigenvalue(coll1)
    prof = morse.Profile(width=20.0)
    assert prof.dirichlet_ratio() < abs(rep_s.margin) / 2
    bump = morse.BumpVariation(l1=1e-9, l2=20.0, shift=50.0, xi=mu1_direction)
    q = morse.quadratic_Q(homothetic_traj, bump)
    assert np.sign(q.value) == np.sign(rep_s.margin)


def test_morse_witnesses_overlap_rejected(homothetic_traj, mu1_direction):
    with pytest.raises(OverlappingSupports):
        morse.morse_witnesses(homothetic_traj, mu1_direction, [5.0, 15.0], l1=1e-9, l2=20.0)


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
    shifts = morse.default_shifts(10, 0.0, 20.0)
    assert traj.evaluate(shifts[-1])[0][0] == 0.0
    rep = morse.morse_witnesses(traj, rep_s.eigvec, shifts, l1=1e-9, l2=20.0)
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
        morse.morse_witnesses(homothetic_traj, mu1_direction, [10.0, 40.0], l1=1e-9, l2=20.0)


def test_witness_memory_does_not_grow_with_the_bump_count(coll1, mu1_direction):
    # 200 tiny bumps: the additivity check must combine one stack at a time,
    # since one combination of all of them is refined at a bump's density
    # across the whole span
    import tracemalloc

    width = 1e-6
    traj = mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=2.0 * width * 201)
    shifts = morse.default_shifts(200, 0.0, width)
    tracemalloc.start()
    try:
        rep = morse.morse_witnesses(traj, mu1_direction, shifts, l1=1e-9, l2=width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.q_values) == 200
    assert peak < 2**23


def test_combined_variation_matches_naive_sum(mu1_direction):
    bumps = [morse.BumpVariation(l1=0.5, l2=3.0, shift=0.0, xi=mu1_direction),
             morse.BumpVariation(l1=0.5, l2=3.0, shift=2.5, xi=mu1_direction,
                                 profile_kind="bump"),
             morse.BumpVariation(l1=1e-9, l2=4.0, shift=2.0, xi=mu1_direction),
             morse.BumpVariation(l1=1.0, l2=2.0, shift=8.0, xi=mu1_direction,
                                 profile_kind="bump")]
    coeffs = [1.3, -0.7, 0.0, -2.1]
    combo = morse.CombinedVariation(bumps, coeffs)
    edges = np.array([e for b in bumps for e in b.support])
    grid = np.sort(np.concatenate([np.linspace(-1.0, 11.0, 2401), edges,
                                   np.nextafter(edges, -np.inf),
                                   np.nextafter(edges, np.inf)]))
    def parts(v):
        return (*v.scalar_and_deriv(grid), v.value(grid), v.deriv(grid))

    naive = [sum(c * part for c, part in zip(coeffs, column))
             for column in zip(*(parts(b) for b in bumps))]
    for name, got, want in zip(("scalar", "scalar_deriv", "value", "deriv"), parts(combo), naive):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


def test_projected_bump_on_homothetic_is_exact(homothetic_traj, mu1_direction):
    bump = morse.BumpVariation(l1=0.5, l2=6.0, shift=2.0, xi=mu1_direction)
    proj, corr = morse.projected_bump(homothetic_traj, bump)
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
    proj, corr = morse.projected_bump(traj, bump)
    assert 0.0 < corr < 0.1  # kick grows along the collapse; still small here
    q = morse.quadratic_Q(traj, proj)
    assert q.value < 0.0  # criterion holds at alpha = 1


# ---------------------------------------------------------------------------
# homographic blocks


def admissible_direction(cc, rng):
    xi = rng.standard_normal(cc.s0.shape)
    m = cc.masses
    xi -= (m @ xi)[None, :] / m.sum()
    xi -= float(np.sum(m[:, None] * cc.s0 * xi)) * cc.s0
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
    grad_vec = scale * (nbody.gradient_stack(s0, m, alpha)
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
        seen.append("rho")
        return rho_at(self, t)

    def counted_grid(*args):
        seen.append("grid")
        return support_grid(*args)

    monkeypatch.setattr(mcgehee.Trajectory, "rho_at", counted)
    monkeypatch.setattr(morse, "_support_grid", counted_grid)
    for z, v, want, levels in cases:
        seen.clear()
        got = morse.homographic_blocks(traj, z, v)
        # constants read once at s0 round differently from the per-sample pairings
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14)
        # one grid per level, as many levels as the slowest integral, and one rho
        # interpolation per level of the mixed and shape integrals (the radial
        # integrand needs no rho)
        with_rho = max(levels[1:])
        assert seen == ["grid", "rho"] * with_rho + ["grid"] * (max(levels) - with_rho)


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

    def counted(*args):
        grids.append(args[-1])
        return support_grid(*args)

    monkeypatch.setattr(morse, "_support_grid", counted)
    for z, v in cases:
        for refine in (lambda: morse.homographic_blocks(traj, z, v, quad_tol=1e-14),
                       lambda: morse.quadratic_Q(traj, v, quad_tol=1e-14)):
            grids.clear()
            refine()
            # the blocks share one grid per level, so each grid is one level
            assert len(grids) < 8, grids


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
    shifts = morse.default_shifts(3, 0.0, 20.0)
    rep = morse.morse_witnesses(homothetic_traj, mu1_direction, shifts, l1=1e-9, l2=20.0)
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
def test_disjoint_supports_make_Q_additive(n, width, kind, seed, homothetic_traj, mu1_direction):
    # flat fractions up to 0.95: steeper ramps on narrow supports are not
    # resolved within 8 doublings, and Q comes back unconverged without a
    # signal (ROADMAP item 4; CHANGES.md names the cases)
    rng = np.random.default_rng(seed)
    starts = np.cumsum(rng.uniform(0.0, 3.0, n) + width) - width
    bumps = [morse.BumpVariation(l1=0.5, l2=0.5 + width, shift=float(s), xi=mu1_direction,
                                 profile_kind=kind, flat_fraction=rng.uniform(0.0, 0.95))
             for s in starts]
    c = rng.standard_normal(n)
    total = float(np.sum(c**2 * [morse.quadratic_Q(homothetic_traj, b).value for b in bumps]))
    q = morse.quadratic_Q(homothetic_traj, morse.CombinedVariation(bumps, c)).value
    assert abs(q - total) <= 1e-8 * (1.0 + abs(total))


@pytest.mark.parametrize("width,flat", [(0.1, 0.9), (0.3, 0.9), (0.3, 0.95)])
def test_narrow_steep_witnesses_pass_the_additivity_check(width, flat, homothetic_traj,
                                                          mu1_direction):
    # the combination of the bumps used to start refining where a support as
    # wide as all of them would, ran out of doublings, and failed the check
    shifts = morse.default_shifts(5, 0.0, width)
    rep = morse.morse_witnesses(homothetic_traj, mu1_direction, shifts, l1=1e-9, l2=width,
                                flat_fraction=flat)
    assert len(rep.q_values) == 5


def reference_witness_values(traj, xi, shifts, l1, l2, profile="flattop", flat_fraction=0.8,
                             quad_tol=1e-8):
    """The loop the stacked witness quadrature replaced: one quadratic_Q per bump."""
    xi = np.asarray(xi, dtype=float).reshape(traj.s[0].shape)
    return [morse.quadratic_Q(traj, morse.BumpVariation(l1=l1, l2=l2, shift=sh, xi=xi,
                                                        profile_kind=profile,
                                                        flat_fraction=flat_fraction), quad_tol)
            for sh in shifts]


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
       profile=st.sampled_from(["flattop", "bump"]),
       flat=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       place=st.floats(min_value=0.0, max_value=1.0))
@example(count=3, width=0.3, profile="flattop", flat=0.99, place=0.0)
def test_stacked_witnesses_equal_the_per_bump_loop(name, count, width, profile, flat, place,
                                                   witness_trajs, mu1_direction):
    traj = witness_trajs[name]
    horizon = traj.tau_end - 1e-6
    width = min(width, horizon / (2 * count))
    start = place * (horizon - width * (2 * count - 1))
    shifts = morse.default_shifts(count, 0.0, width, start=start)
    kw = dict(l1=1e-9, l2=width, profile=profile, flat_fraction=flat)
    want = reference_witness_values(traj, mu1_direction, shifts, **kw)
    try:
        rep = morse.morse_witnesses(traj, mu1_direction, shifts, **kw)
    except AssertionError:
        # very steep ramps on narrow supports leave Q unconverged after 8
        # doublings (ROADMAP item 4): the additivity check must then fail on
        # the per-bump values as well
        c = np.random.default_rng(0).standard_normal(count)
        bumps = [morse.BumpVariation(l1=1e-9, l2=width, shift=sh, xi=mu1_direction,
                                     profile_kind=profile, flat_fraction=flat) for sh in shifts]
        q_combo = morse.quadratic_Q(traj, morse.CombinedVariation(bumps, c)).value
        expected = float(np.sum(c**2 * np.array([r.value for r in want])))
        assert not abs(q_combo - expected) <= 1e-8 * (1.0 + abs(expected))
        return
    assert [repr(q) for q in rep.q_values] == [repr(r.value) for r in want]
    assert_same_report(rep, min(want, key=lambda r: r.value))
    assert rep.witnesses == sum(r.value < 0.0 for r in want)


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
    got = morse._reports(traj, integrand, [b.support for b in bumps], 1e-8)
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

    def counted(traj, lo, hi, intervals):
        grids.append((len(lo), intervals))
        return support_grid(traj, lo, hi, intervals)

    monkeypatch.setattr(morse, "_support_grid", counted)
    integrand = morse._bump_integrand(homothetic_traj, mu1_direction, stacked_rows(bumps))
    morse._reports(homothetic_traj, integrand, [b.support for b in bumps], 1e-8)
    assert grids[:2] == [(2, 64), (1, 86)]
