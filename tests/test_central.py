import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncol import central, mcgehee, nbody, spectral
from ncol.errors import InvalidMass, InvalidN, NoConvergence, NotCentral

from references import reference_residual_scale


def test_collinear3_equal_masses_geometry():
    cc = central.collinear3(1.0, 1.0, 1.0)
    expect = np.array([[-1 / np.sqrt(2), 0.0], [0.0, 0.0], [1 / np.sqrt(2), 0.0]])
    assert np.allclose(cc.s0, expect, atol=1e-15)
    assert nbody.moment_of_inertia(cc.s0, cc.masses) == pytest.approx(1.0, abs=1e-12)
    assert cc.b == pytest.approx(3.5355339059327378, rel=1e-13)
    assert cc.residual < 1e-9
    assert cc.family == "collinear3-equal"


@pytest.mark.parametrize("m1,m2,alpha", [(1.0, 1.0, 0.5), (2.5, 1.0, 1.0),
                                         (30.0, 1.0, 1.0), (0.3, 4.0, 1.7)])
def test_collinear3_general_masses_is_central(m1, m2, alpha):
    cc = central.collinear3(m1, m2, alpha)
    assert abs(nbody.moment_of_inertia(cc.s0, cc.masses) - 1.0) < 1e-12
    assert cc.residual < 1e-9 * reference_residual_scale(cc.s0, cc.masses, alpha)
    assert cc.s0[0, 0] == pytest.approx(-1 / np.sqrt(2 * m1))


def test_collinear3_rejects_bad_masses():
    with pytest.raises(InvalidMass):
        central.collinear3(-1.0, 1.0, 1.0)
    with pytest.raises(InvalidMass):
        central.collinear3(1.0, 0.0, 1.0)


def test_collinear3_mass_scaling():
    # doubling all masses leaves the shape fixed and scales b bilinearly
    cc1 = central.collinear3(1.0, 1.0, 1.0)
    cc2 = central.collinear3(2.0, 2.0, 1.0)
    # shape: outer separation scales as 1/sqrt(2 m1)
    assert cc2.s0[2, 0] == pytest.approx(cc1.s0[2, 0] / np.sqrt(2))
    # b on the unit ellipsoid: U = sum m_i m_j r_ij^-a with r ~ m^-1/2
    expect = 4.0 * 2 ** (1.0 / 2.0) * cc1.b
    assert cc2.b == pytest.approx(expect, rel=1e-12)


def test_ngon_basic():
    cc = central.ngon(4, 1.0)
    assert cc.residual < 1e-9
    assert nbody.moment_of_inertia(cc.s0, cc.masses) == pytest.approx(1.0, abs=1e-13)
    # r_13 diagonal = 1 exactly for the square
    assert np.linalg.norm(cc.s0[0] - cc.s0[2]) == pytest.approx(1.0, rel=1e-14)
    assert cc.b == pytest.approx(2 + 4 * np.sqrt(2), rel=1e-13)


def reference_ngon_distance(n: int, k: int) -> float:
    """Chord distance r_1k = (2/sqrt(n)) sin((k-1) pi / n) between vertex 1 and k."""
    return 2.0 / np.sqrt(n) * np.sin((k - 1) * np.pi / n)


@pytest.mark.parametrize("n", [4, 5, 8, 16, 64])
def test_ngon_distances_depend_on_index_gap(n):
    cc = central.ngon(n, 1.0)
    for i in range(0, n, max(1, n // 5)):
        for j in range(i + 1, min(i + 4, n)):
            k = abs(i - j) + 1
            assert np.linalg.norm(cc.s0[i] - cc.s0[j]) == pytest.approx(
                reference_ngon_distance(n, k), rel=1e-12)


def test_ngon_potential_closed_form():
    for n in (4, 6, 11):
        for alpha in (0.5, 1.0, 1.5):
            cc = central.ngon(n, alpha)
            dists = np.array([reference_ngon_distance(n, k) for k in range(2, n + 1)])
            assert cc.b == pytest.approx(n / 2 * np.sum(dists ** (-alpha)), rel=1e-12)


def test_ngon_chord_sum_square():
    # sum of normalized chords for the square equals cot(pi/8) = 1 + sqrt(2)
    sines = [np.sin((k - 1) * np.pi / 4) for k in (2, 3, 4)]
    assert sum(sines) == pytest.approx(1 + np.sqrt(2), rel=1e-14)
    assert sum(sines) == pytest.approx(1.0 / np.tan(np.pi / 8), rel=1e-14)


def test_ngon_warns_below_four():
    with pytest.warns(UserWarning):
        cc = central.ngon(3, 1.0)
    assert cc.b == pytest.approx(3.0, rel=1e-13)
    with pytest.raises(InvalidN):
        central.ngon(1, 1.0)


def test_solve_central_fixed_point():
    cc = central.ngon(5, 1.0)
    out = central.solve_central(cc.s0, cc.masses, 1.0)
    assert out.residual < 1e-9
    assert mcgehee.procrustes_distance(out.s0, cc.s0, cc.masses) < 1e-9


def test_solve_central_recovers_collinear_from_perturbation():
    cc = central.collinear3(1.0, 1.0, 1.0)
    rng = np.random.default_rng(11)
    x0 = cc.s0 + 1e-3 * rng.standard_normal(cc.s0.shape)
    out = central.solve_central(x0, cc.masses, 1.0)
    assert out.residual < 1e-9
    assert out.b == pytest.approx(cc.b, rel=1e-10)
    assert mcgehee.procrustes_distance(out.s0, cc.s0, cc.masses) < 1e-6


def test_solve_central_equilateral():
    # any equilateral start converges to the triangle with b = 3 at alpha = 1
    side = np.array([[0.0, 0.0], [1.3, 0.0], [0.65, 1.3 * np.sqrt(3) / 2]])
    out = central.solve_central(side, np.ones(3), 1.0)
    assert out.residual < 1e-9
    assert out.b == pytest.approx(3.0, rel=1e-10)
    # oracle: direct evaluation of U at the verified point
    assert out.b == pytest.approx(nbody.potential(out.s0, out.masses, 1.0), rel=1e-14)


def test_solve_central_no_convergence_on_hopeless_start():
    # two nearly coincident bodies head toward collision
    x0 = np.array([[1e-6, 0.0], [0.0, 1e-6], [1.0, 1.0]])
    with pytest.raises(NoConvergence, match="no convergence after 5 iterations"):
        central.solve_central(x0, np.ones(3), 1.0, max_iter=5)


@st.composite
def perturbed_central(draw):
    """A planar start 1e-3 away from a central configuration, its masses and alpha:
    a collinear3 with random masses, or a 4- to 6-gon."""
    alpha = draw(st.floats(0.3, 1.7))
    if draw(st.booleans()):
        cc = central.collinear3(draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0)), alpha)
    else:
        cc = central.ngon(draw(st.integers(4, 6)), alpha)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cc.s0 + 1e-3 * rng.standard_normal(cc.s0.shape), cc.masses, alpha


@settings(max_examples=30, deadline=None)
@given(start=perturbed_central(), theta=st.floats(0.0, 2.0 * np.pi), data=st.data())
def test_solve_central_is_invariant_under_rotation_and_relabelling(start, theta, data):
    x0, m, alpha = start
    perm = np.array(data.draw(st.permutations(range(m.size))))
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    out = central.solve_central(x0, m, alpha)
    moved = central.solve_central(x0[perm] @ rot.T, m[perm], alpha)
    assert moved.b == pytest.approx(out.b, rel=1e-10)
    assert np.allclose(moved.s0, out.s0[perm] @ rot.T, rtol=0.0, atol=1e-9)


def test_embed_in_3d():
    cc = central.ngon(4, 1.0)
    cc3 = central.embed_in_3d(cc)
    assert cc3.dim == 3
    assert np.allclose(cc3.s0[:, :2], cc.s0)
    assert np.allclose(cc3.s0[:, 2], 0.0)
    assert cc3.b == cc.b


def test_json_export_fields():
    import json

    cc = central.collinear3(1.0, 1.0, 1.0)
    payload = json.loads(cc.to_json())
    assert set(payload) == {"alpha", "dim", "masses", "positions", "b", "residual", "family"}


@pytest.mark.parametrize("alpha", [0.05, 0.7, 1.0 + 1e-9, 1.9])
def test_at_alpha_matches_fresh_family(alpha):
    cc = central.collinear3(1.0, 1.0, 1.0)
    moved = cc.at_alpha(alpha)
    fresh = central.collinear3(1.0, 1.0, alpha)
    assert moved.alpha == alpha
    assert moved.b == pytest.approx(fresh.b, rel=1e-12)
    assert moved.residual == pytest.approx(fresh.residual, rel=1e-12, abs=1e-15)
    assert np.array_equal(moved.s0, cc.s0) and moved.family == cc.family
    direct, via = spectral.smallest_eigenvalue(cc, alpha=alpha), spectral.smallest_eigenvalue(moved)
    assert (direct.mu1, direct.margin, direct.b) == (via.mu1, via.margin, via.b)
    assert cc.at_alpha(1.0) is cc


GATE_ALPHAS = [0.5, 1.0, 1.5, 1.9]


@pytest.mark.parametrize("alpha", GATE_ALPHAS)
def test_regular_polygons_pass_the_centrality_gate(alpha):
    # the gate allows for the rounding of s0 to float64 carried through the
    # pair Hessian; without that term N = 67 failed at alpha = 1 and N = 31
    # at alpha = 1.9
    for n in range(4, 129):
        cc = central.ngon(n, alpha)
        assert cc.residual == nbody.central_residual(cc.s0, cc.masses, alpha)
    # spectral_sweep holds each alpha of a swept shape to the same kind of gate
    for n in (31, 67, 128):
        sweep = spectral.spectral_sweep(central.ngon(n, 1.0), GATE_ALPHAS)
        assert np.all(np.isfinite(sweep.mu1))


@pytest.mark.parametrize("alpha", GATE_ALPHAS)
def test_a_polygon_moved_off_centre_is_not_central(alpha):
    rng = np.random.default_rng(22)
    for n in (4, 16, 64, 128):
        cc = central.ngon(n, alpha)
        v = nbody.tangent_part(cc.s0, cc.masses, rng.standard_normal(cc.s0.shape))
        x = cc.s0 + 1e-7 * v / np.linalg.norm(v)
        x /= np.sqrt(nbody.moment_of_inertia(x, cc.masses))
        with pytest.raises(NotCentral, match="centrality residual"):
            central._verify(x, cc.masses, alpha, "ngon")
        moved = central.CentralConfiguration(
            s0=x, masses=cc.masses.copy(), alpha=alpha, b=nbody.potential(x, cc.masses, alpha),
            residual=nbody.central_residual(x, cc.masses, alpha), family="ngon")
        with pytest.raises(NotCentral, match="too large"):
            spectral.smallest_eigenvalue(moved)
