import numpy as np
import pytest
from hypothesis import given, settings
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
        vals = p.value(u)
        assert np.all(vals[u <= 0.0] == 0.0)
        assert np.all(vals[u >= 4.0] == 0.0)
        assert vals.max() > 0.9
        # derivative consistent with finite differences
        h = 1e-6
        mid = np.linspace(0.2, 3.8, 101)
        fd = (p.value(mid + h) - p.value(mid - h)) / (2 * h)
        assert np.max(np.abs(fd - p.deriv(mid))) < 1e-5


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


def test_quadratic_Q_matches_exact_homothetic_form(coll1, homothetic_traj, mu1_direction):
    # on the frozen-shape collapse: Q = int phi'^2 + margin * phi^2 (cross = 0)
    rep_s = spectral.smallest_eigenvalue(coll1)
    bump = morse.BumpVariation(l1=1e-9, l2=20.0, shift=100.0, xi=mu1_direction)
    q = morse.quadratic_Q(homothetic_traj, bump)
    grid = np.linspace(100.0, 120.0, 20001)
    phi = bump.scalar(grid)
    dphi = bump.scalar_deriv(grid)
    expect = np.trapezoid(dphi**2 + (rep_s.margin) * phi**2, grid)
    assert q.value == pytest.approx(expect, rel=1e-6)
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

    def nan_rows(grid):
        grids.append(grid.size)
        return np.full(grid.size, np.nan)

    assert np.isnan(morse._refine_until([nan_rows], homothetic_traj, (1.0, 5.0), 1e-8)[0])
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
    for part in ("scalar", "scalar_deriv", "value", "deriv"):
        naive = sum(c * getattr(b, part)(grid) for c, b in zip(coeffs, bumps))
        got = getattr(combo, part)(grid)
        assert got.shape == naive.shape
        assert got.tobytes() == naive.tobytes(), part


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
        z, dz = zeta.scalar(grid), zeta.scalar_deriv(grid)
        u = scale * nbody.potential_stack(s, m, alpha)
        return coef * dz**2 + z**2 * (morse._mdot(m, sp, sp) + 2.0 * u)

    def mixed_integrand(grid):
        rho, _, _, sp = traj.evaluate(grid)
        z, v, dv = zeta.scalar(grid), variation.value(grid), variation.deriv(grid)
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
        counted = (lambda fn: lambda grid: grids.append(grid.size) or fn(grid))(fn)
        blocks.append(float(morse._refine_until([counted], traj, support, quad_tol)[0]))
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


@pytest.mark.parametrize("alpha,h", [(1.0, 0.0), (0.05, 1.0)])
def test_narrow_blocks_meet_their_tolerance(alpha, h):
    # below width 2 the first grids share the 64-interval floor; refinement
    # must still compare two different grids before it stops, so a block and
    # Q at quad_tol 1e-8 match both the 1e-14 values and one fine grid
    cc = central.collinear3(1.0, 1.0, alpha)
    traj = mcgehee.homothetic_oracle(cc, h=h, tau_max=30.0, phi_min=1e-6)
    rng = np.random.default_rng(8)
    for width in (0.3, 0.7, 1.2, 1.9):
        l1 = 0.3 + rng.uniform(0.0, 1.0)
        sh = rng.uniform(0.0, traj.tau_end - l1 - width - 0.3)
        v = morse.BumpVariation(l1=l1, l2=l1 + width, shift=sh,
                                xi=admissible_direction(cc, rng), profile_kind="bump")
        z = morse.ScalarBump(l1=l1, l2=l1 + width, shift=sh, amplitude=rng.uniform(0.2, 2.0))
        support, integrands = block_integrands(traj, z, v)
        fine = [fine_simpson(fn, support) for fn in integrands]
        tight = morse.homographic_blocks(traj, z, v, quad_tol=1e-14)
        for got, ref in zip(morse.homographic_blocks(traj, z, v), tight):
            assert abs(got - ref) <= 1e-8 * (1.0 + abs(ref))
        assert tight == pytest.approx(fine, rel=1e-9, abs=1e-9)
        fine_q = fine_simpson(morse._sampled_integrand(traj, v), v.support).sum()
        tight_q = morse.quadratic_Q(traj, v, quad_tol=1e-14).value
        assert abs(morse.quadratic_Q(traj, v).value - tight_q) <= 1e-8 * (1.0 + abs(tight_q))
        assert tight_q == pytest.approx(fine_q, rel=1e-9, abs=1e-9)


def test_refinement_stops_each_integral_at_its_own_tolerance(homothetic_traj):
    calls = {}

    def row(k):
        def fn(grid):
            calls[k] = calls.get(k, 0) + 1
            return np.exp(-k * grid) * np.sin(3.0 * k * grid) + 0.1 * k
        return fn

    fns = [row(k) for k in (0.5, 2.0, 9.0)]
    together = morse._refine_until(fns, homothetic_traj, (1.0, 30.0), 1e-12)
    shared_calls, calls = calls, {}
    for k, fn, got in zip((0.5, 2.0, 9.0), fns, together):
        assert got == morse._refine_until([fn], homothetic_traj, (1.0, 30.0), 1e-12)[0]
        assert shared_calls[k] == calls[k]
    assert len(set(calls.values())) > 1  # they converge at different levels


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
