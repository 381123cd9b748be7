import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncol import central, mcgehee, nbody, spectral
from ncol.errors import (ConvergedToCollision, InvalidMass, InvalidN, NoConvergence, NotCentral,
                         OverflowingConfiguration, ZeroConfiguration)

from references import reference_central_residual, reference_residual_scale


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


def test_solve_central_no_convergence_on_hopeless_start(monkeypatch):
    # two nearly coincident bodies head toward collision
    x0 = np.array([[1e-6, 0.0], [0.0, 1e-6], [1.0, 1.0]])
    monkeypatch.setattr(central, "GN_MAX_ITER", 5)
    with pytest.raises(NoConvergence, match="no convergence after 5 iterations"):
        central.solve_central(x0, np.ones(3), 1.0)


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


def test_solve_central_rejects_a_start_at_a_collision():
    # the projected start has a pair 1.2e-9 apart, inside the 1e-8 neighbourhood
    x0 = np.array([[0.0, 0.0], [1e-9, 0.0], [0.0, 1.0]])
    with pytest.raises(ConvergedToCollision,
                       match="^iterate entered the collision neighborhood$"):
        central.solve_central(x0, np.ones(3), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_central_rejects_a_start_that_is_not_finite(bad, capfd):
    # unchecked, lstsq on the NaN Jacobian prints LAPACK's complaint to stderr
    # and raises LinAlgError
    x0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="^positions must be finite$"):
        central.solve_central(x0, np.ones(3), 1.0)
    assert capfd.readouterr().err == ""


def test_solve_central_rejects_a_start_whose_inertia_overflows(capfd):
    # the center-of-mass shift m @ x overflows at 1e308 though every
    # coordinate is finite; unchecked, numpy warned, the projected start was
    # NaN, LAPACK printed its complaint and lstsq raised LinAlgError
    x0 = np.array([[1e308, 0.0], [1e308, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowingConfiguration,
                           match="^moment of inertia about the center of mass overflows$"):
            central.solve_central(x0, np.ones(3), 1.0)
    assert capfd.readouterr().err == ""


def test_the_benchmark_polygon_solve_forms_each_configuration_once(monkeypatch):
    # the perturbed 7-gon of perfbench's criteria workload at --seed 1, first
    # pass; each of its four iterations takes the full Gauss-Newton step
    polygon = central.ngon(7, 1.0)
    kick = np.random.default_rng([1, 0]).standard_normal((7, 2))
    start = polygon.s0 + 0.02 * kick / np.linalg.norm(kick)
    counts = dict.fromkeys(["pair_separations", "central_residual_from", "hessian_full"], 0)

    def counted(name):
        fn = getattr(nbody, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(nbody, name, wrapper)

    for name in counts:
        counted(name)
    cc = central.solve_central(start, polygon.masses, 1.0)
    # one pass over the pairs per configuration evaluated (the start, one
    # trial per iteration and the final gate) and one per Jacobian
    assert counts == {"pair_separations": 10, "central_residual_from": 6, "hessian_full": 4}
    assert cc.b == reference_solve_central(start, polygon.masses, 1.0).b


# ---------------------------------------------------------------------------
# solve_central as it was when each nbody wrapper it called took its own pass
# over the pairs: the solver and those wrappers, moved here unchanged apart
# from their module qualifiers (reference_gradient with the gradient_stack
# and potential_gradient_stack it went through written in)


def reference_min_distance(x) -> float:
    _, _, _, dist = nbody.pair_separations(nbody.as_positions(x))
    return float(dist.min())


def reference_gradient(x, m, alpha) -> np.ndarray:
    """Euclidean gradient of U, shape (N, d)."""
    x, m, alpha = nbody.checked(x, m, alpha)
    return nbody.potential_gradient_kernel(m, alpha)(x)[1]


def reference_center_of_mass(x, m) -> np.ndarray:
    x = nbody.as_positions(x)
    m = nbody.as_masses(m)
    return m @ x / m.sum()


def reference_solve_central(initial, m, alpha, max_iter: int = 200):
    """Damped Gauss-Newton solve of grad U(x) + alpha U(x) M x = 0."""
    x = nbody.as_positions(initial).copy()
    m = nbody.as_masses(m)
    alpha = nbody.validate_alpha(alpha)
    n, d = x.shape

    def project(y):
        y = y - reference_center_of_mass(y, m)
        return y / np.sqrt(nbody.moment_of_inertia(y, m))

    if nbody.moment_of_inertia(x - reference_center_of_mass(x, m), m) == 0.0:
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
        if reference_min_distance(x) < 1e-8:
            raise ConvergedToCollision("iterate entered the collision neighborhood")
        u, f, scale = nbody.central_residual_stack(x, m, alpha)
        f = f.ravel()
        res = np.linalg.norm(f)
        if res <= 1e-11 * scale:
            return central._verify(x, m, alpha, "numeric")
        g = reference_gradient(x, m, alpha).ravel()
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
            if reference_min_distance(trial) > 1e-8 and \
                    reference_central_residual(trial, m, alpha) < res:
                x = trial
                break
            t *= 0.5
        else:
            raise NoConvergence(f"line search stalled at residual {res:.3e}")
    raise NoConvergence(f"no convergence after {max_iter} iterations")


@st.composite
def solver_start(draw):
    """A start for solve_central, its unequal masses and alpha: 3 to 8 bodies
    in the plane or in space, a regular polygon kicked by up to half its
    radius or a uniform draw from the unit cube."""
    n, d = draw(st.integers(3, 8)), draw(st.sampled_from([2, 3]))
    alpha = draw(st.floats(0.05, 1.95, exclude_min=True, exclude_max=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(0.2, 5.0, size=n)
    if draw(st.booleans()):
        x = np.zeros((n, d))
        x[:, :2] = central.unit_circle(n)
        x += draw(st.floats(0.0, 0.5)) * rng.standard_normal((n, d))
    else:
        x = rng.uniform(-1.0, 1.0, size=(n, d))
    return x, m, alpha


def solve_outcome(solve, x, m, alpha):
    """The bytes of s0, b and residual of a solve, or its exception's class and message."""
    try:
        cc = solve(x, m, alpha)
    except Exception as exc:
        return type(exc), str(exc)
    return cc.s0.tobytes(), cc.b, cc.residual


@settings(max_examples=60, deadline=None)
@given(start=solver_start())
def test_solve_central_is_bitwise_the_solver_with_a_pass_per_wrapper(start):
    assert solve_outcome(central.solve_central, *start) \
        == solve_outcome(reference_solve_central, *start)


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
    direct = spectral.spectral_sweep(cc, [alpha]).report(0)
    via = spectral.smallest_eigenvalue(moved)
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
        assert cc.residual == reference_central_residual(cc.s0, cc.masses, alpha)
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
            residual=reference_central_residual(x, cc.masses, alpha), family="ngon")
        with pytest.raises(NotCentral, match="too large"):
            spectral.smallest_eigenvalue(moved)
