import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncol import central, nbody, spectral
from ncol.errors import BracketFailure, InvalidN, NoConvergence, NotCentral

ALPHA_BAR_CAP = 6 - 4 * np.sqrt(2)  # 0.3431457...


@pytest.fixture(scope="module")
def coll1():
    return central.collinear3(1.0, 1.0, 1.0)


def test_smallest_eigenvalue_collinear_closed_form(coll1):
    # transverse spectrum is {a (U - 3 gamma), 0}; longitudinal a((a+1) 3 gamma + U)
    rep = spectral.smallest_eigenvalue(coll1)
    g = 2.0**1.5
    u = coll1.b
    assert rep.mu1 == pytest.approx(1.0 * (u - 3 * g), rel=1e-12)
    assert rep.eigenvalues == pytest.approx([u - 3 * g, 0.0, 2 * 3 * g + u], abs=1e-9)
    assert rep.margin == pytest.approx(rep.mu1 + (2 - 1) ** 2 / 8 * u, rel=1e-12)
    assert rep.satisfied


def test_smallest_eigenvalue_rayleigh_bound(coll1):
    rep = spectral.smallest_eigenvalue(coll1)
    # normal probe direction attains alpha(-3 gamma + U)
    xi = np.zeros((3, 2))
    xi[:, 1] = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    val = nbody.hessian_on_ellipsoid(coll1.s0, coll1.masses, 1.0, xi)
    assert rep.mu1 <= val + 1e-12
    assert rep.mu1 == pytest.approx(val, rel=1e-10)  # attained here
    # Rayleigh quotient at the reported eigenvector reproduces mu1
    quad = nbody.hessian_on_ellipsoid(coll1.s0, coll1.masses, 1.0, rep.eigvec)
    assert quad == pytest.approx(rep.mu1, abs=1e-10)


def test_smallest_eigenvalue_random_directions_never_below(coll1):
    rep = spectral.smallest_eigenvalue(coll1)
    basis = spectral.admissible_basis(coll1.s0, coll1.masses)
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = rng.standard_normal(basis.shape[0])
        v = (basis.T @ c).reshape(coll1.s0.shape)
        v /= np.linalg.norm(v)
        val = nbody.hessian_on_ellipsoid(coll1.s0, coll1.masses, 1.0, v)
        assert val >= rep.mu1 - 1e-9


def test_smallest_eigenvalue_rotation_invariance(coll1):
    th = 1.1
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    cc_rot = central.CentralConfiguration(
        s0=coll1.s0 @ rot.T, masses=coll1.masses.copy(), alpha=1.0, b=coll1.b,
        residual=nbody.central_residual(coll1.s0 @ rot.T, coll1.masses, 1.0),
        family="collinear3-equal")
    rep = spectral.smallest_eigenvalue(coll1)
    rep_rot = spectral.smallest_eigenvalue(cc_rot)
    assert rep_rot.mu1 == pytest.approx(rep.mu1, rel=1e-12)


def test_smallest_eigenvalue_requires_central(coll1):
    bad = central.CentralConfiguration(
        s0=coll1.s0 + np.array([[0.02, 0], [0, 0], [-0.02, 0]]),
        masses=coll1.masses.copy(), alpha=1.0, b=coll1.b, residual=0.1,
        family="collinear3-equal")
    with pytest.raises(NotCentral):
        spectral.smallest_eigenvalue(bad)


def test_smallest_eigenvalue_3d_embedding_matches(coll1):
    # padding the plane with a zero coordinate duplicates the transverse block
    # and leaves the bottom of the spectrum unchanged
    rep2 = spectral.smallest_eigenvalue(coll1)
    rep3 = spectral.smallest_eigenvalue(central.embed_in_3d(coll1))
    assert rep3.mu1 == pytest.approx(rep2.mu1, rel=1e-12)
    # the bottom eigenvalue is now doubly degenerate (y and z copies)
    assert rep3.bottom_eigenspace(tol=1e-9).shape[0] == 2
    for vec in rep3.bottom_eigenspace():
        quad = nbody.hessian_on_ellipsoid(
            np.hstack([coll1.s0, np.zeros((3, 1))]), coll1.masses, 1.0, vec)
        assert quad == pytest.approx(rep3.mu1, abs=1e-9)


def test_check_rel_eigen_examples(coll1):
    # the criterion verdict; polygons are probed out of their plane
    assert spectral.smallest_eigenvalue(coll1).satisfied is True
    cc_small = central.collinear3(1.0, 1.0, 0.01)
    assert spectral.smallest_eigenvalue(cc_small).satisfied is False
    cc4 = central.ngon(4, 1.0)
    assert spectral.smallest_eigenvalue(central.embed_in_3d(cc4)).satisfied is True


@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_check_rel_eigen_polygons_newtonian(n):
    # the polygon criterion holds at the Newtonian exponent for every n >= 4
    cc = central.ngon(n, 1.0)
    assert spectral.smallest_eigenvalue(central.embed_in_3d(cc)).satisfied is True


def reference_admissible_basis(s0, m):
    """Modified Gram-Schmidt on the coordinate basis after projecting out the
    normalized constraint rows: the construction admissible_basis replaced,
    kept as its oracle (an empty basis keeps its (0, N d) shape)."""
    n, d = s0.shape
    cons = [(m[:, None] * s0).ravel()]
    for c in range(d):
        row = np.zeros((n, d))
        row[:, c] = m
        cons.append(row.ravel())
    cons = [r / np.linalg.norm(r) for r in cons]
    ortho_cons = []
    for r in cons:
        for q in ortho_cons:
            r = r - (q @ r) * q
        nr = np.linalg.norm(r)
        if nr > 1e-12:
            ortho_cons.append(r / nr)
    basis = []
    for k in range(n * d):
        v = np.zeros(n * d)
        v[k] = 1.0
        for q in ortho_cons:
            v = v - (q @ v) * q
        for q in basis:
            v = v - (q @ v) * q
        nv = np.linalg.norm(v)
        if nv > 1e-10:
            basis.append(v / nv)
    return np.array(basis).reshape(-1, n * d)


def _null_space_defect(basis, s0, m, rows):
    """Largest departure of basis from an orthonormal (rows, N d) basis of the
    admissible directions; inf for the wrong shape."""
    if basis.shape != (rows, s0.size):
        return np.inf
    tangents = basis.reshape(rows, *s0.shape)
    return max(np.max(np.abs(basis @ basis.T - np.eye(rows)), initial=0.0),
               np.max(np.abs(np.einsum("j,kjd,jd->k", m, tangents, s0)), initial=0.0),
               np.max(np.abs(np.einsum("j,kjd->kd", m, tangents)), initial=0.0))


def _exact_projector(s0, m):
    """I - C^+ C for the constraint rows C, from the SVD inside pinv."""
    n, d = s0.shape
    cons = np.vstack([(m[:, None] * s0).ravel(), np.kron(m, np.eye(d))])
    return np.eye(n * d) - np.linalg.pinv(cons) @ cons


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 16), d=st.integers(1, 3))
def test_admissible_basis_is_the_gram_schmidt_null_space(data, n, d):
    m = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    x = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * d,
                                    max_size=n * d))).reshape(n, d)
    x -= (m @ x) / m.sum()
    inertia = nbody.moment_of_inertia(x, m)
    assume(inertia > 1e-6)
    s0 = x / np.sqrt(inertia)
    rows = n * d - 1 - d
    basis = spectral.admissible_basis(s0, m)
    assert _null_space_defect(basis, s0, m, rows) <= 1e-12
    assert np.max(np.abs(basis.T @ basis - _exact_projector(s0, m))) <= 1e-12
    # the Gram-Schmidt oracle can keep a row of amplified round-off (see
    # test_gram_schmidt_reference_keeps_a_round_off_row); it is compared
    # wherever it returned a clean basis
    ref = reference_admissible_basis(s0, m)
    if _null_space_defect(ref, s0, m, rows) <= 1e-12:
        assert np.max(np.abs(basis.T @ basis - ref.T @ ref)) <= 1e-12


def test_gram_schmidt_reference_keeps_a_round_off_row():
    # one of the old construction's failures, found by the property above:
    # two coordinate vectors leave remainders of 2e-8 and 6e-8, both pass its
    # 1e-10 cut, and the basis of N d - 1 - d = 14 rows comes back with 15
    m = np.array([9.0, 1.1, 1.5, 7.462981828660819, 3.6230864405410244, 4.729198783889319,
                  4.819487777531296, 4.612386994608987, 5.107298615951306,
                  7.8450351943652405, 6.938469997784531, 4.8966932030237995,
                  1.8512917243526992, 2.3290248192530947, 6.909042857195907,
                  7.794303613388783])
    x = np.array([0.00310310121547892, 0.575598851874296, -0.08790522680505092,
                  -0.09790522680505091, 0.5715967143002156, 0.4020947731949491,
                  -0.33048360030929885, -0.09790522680505091, -0.09790522680505091,
                  0.5862537903168754, -0.07790522680505091, -0.9606271496654843,
                  0.5866668293627695, -0.09790521680505092, -0.09790522680505091,
                  -0.09790522680505091])[:, None]
    x -= (m @ x) / m.sum()
    s0 = x / np.sqrt(nbody.moment_of_inertia(x, m))
    assert reference_admissible_basis(s0, m).shape == (15, 16)
    basis = spectral.admissible_basis(s0, m)
    assert _null_space_defect(basis, s0, m, 14) <= 1e-12
    assert np.max(np.abs(basis.T @ basis - _exact_projector(s0, m))) <= 1e-12


def test_admissible_basis_drops_a_dependent_constraint():
    # every body at one point: M s0 is a combination of the mass-sum rows,
    # so only d constraints are independent
    m = np.array([1.0, 2.0, 0.5, 3.0])
    s0 = np.tile([0.3, -0.2, 0.1], (4, 1))
    s0 /= np.sqrt(nbody.moment_of_inertia(s0, m))
    basis = spectral.admissible_basis(s0, m)
    ref = reference_admissible_basis(s0, m)
    assert _null_space_defect(basis, s0, m, 4 * 3 - 3) <= 1e-12
    assert np.max(np.abs(basis.T @ basis - ref.T @ ref)) <= 1e-12


@pytest.mark.parametrize("cc, alpha", [
    (central.embed_in_3d(central.ngon(64, 1.0)), 1.0),
    (central.collinear3(1.0, 1.0, 1.0), 0.3),
    (central.collinear3(1.0, 1.0, 1.0), 0.7),
    (central.collinear3(1.0, 1.0, 1.0), 1.7),
])
def test_smallest_eigenvalue_matches_gram_schmidt_spectrum(cc, alpha):
    rep = spectral.smallest_eigenvalue(cc, alpha)
    basis = reference_admissible_basis(cc.s0, cc.masses)
    h = spectral.constrained_hessian_matrix(cc.at_alpha(alpha), alpha)
    ref = np.linalg.eigvalsh(basis @ h @ basis.T)
    assert rep.mu1 == pytest.approx(ref[0], rel=1e-12)
    assert np.max(np.abs(rep.eigenvalues - ref)) <= 1e-12 * np.max(np.abs(ref))


def reference_smallest_eigenvalue(cc, alpha):
    """The per-alpha body smallest_eigenvalue had before spectral_sweep, kept
    as its oracle: (mu1, margin, b, residual) of the shape cc.s0 at alpha."""
    alpha = nbody.validate_alpha(alpha)
    cc = cc.at_alpha(alpha)
    b, residual = cc.b, cc.residual
    tol = max(1e-8, 1e3 * np.finfo(float).eps * nbody.residual_scale(cc.s0, cc.masses, alpha))
    if residual > tol:
        raise NotCentral(f"configuration residual {residual:.3e} too large")
    basis = spectral.admissible_basis(cc.s0, cc.masses)
    h = nbody.hessian_full(cc.s0, cc.masses, alpha)
    h = h + alpha * b * np.diag(nbody.mass_matrix_diag(cc.masses, cc.dim))
    vals, _ = np.linalg.eigh(basis @ h @ basis.T)
    mu1 = float(vals[0])
    # the square as a product: a Python float ** 2 goes through the C pow,
    # which can round a near-halfway square the other way from numpy's square
    # (2 - 0.79001272620262 is one such case)
    gap = 2.0 - alpha
    return mu1, mu1 + gap * gap / 8.0 * b, b, residual


@st.composite
def shapes(draw):
    """A collinear3 with random masses, or an ngon with n in 4..12; dim=3 embeds either."""
    if draw(st.booleans()):
        return central.collinear3(draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)), 1.0)
    return central.ngon(draw(st.integers(4, 12)), 1.0)


@settings(max_examples=60, deadline=None)
@given(cc=shapes(), dim=st.sampled_from([None, 3]),
       alphas=st.lists(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True), max_size=50))
def test_spectral_sweep_equals_a_loop_over_alphas(cc, dim, alphas):
    if dim == 3:
        cc = central.embed_in_3d(cc)
    sweep = spectral.spectral_sweep(cc, alphas)
    assert sweep.mu1.shape == sweep.margin.shape == sweep.b.shape == (len(alphas),)
    cyclic = spectral.is_cyclic(cc)
    for k, alpha in enumerate(alphas):
        want = reference_smallest_eigenvalue(cc, alpha)
        rep = spectral.smallest_eigenvalue(cc, alpha)
        got = (sweep.mu1[k], sweep.margin[k], sweep.b[k], sweep.residual[k])
        # a polygon's spectrum comes from the cyclic route, the oracle's from
        # one dense eigh: they agree to rounding of the largest eigenvalue, or
        # of the smallest normal float for a subnormal alpha, where no
        # relative digit is left
        bound = 1e-12 * np.max(np.abs(rep.eigenvalues)) + np.finfo(float).tiny
        if alpha == 1.0 or alpha + 2.0 == 2.0:
            # numpy raises an array to a scalar power of -1 or 2 with a
            # reciprocal or a square, but to the same power taken from an
            # array of exponents with pow, which can differ in the last bit
            atol = max(1e-13 * want[2], bound if cyclic else 0.0)
            assert np.allclose(got, want, rtol=1e-13, atol=atol)
            assert np.allclose((rep.mu1, rep.margin, rep.b), want[:3], rtol=1e-13, atol=atol)
            continue
        if cyclic:
            assert abs(got[0] - want[0]) <= bound and abs(got[1] - want[1]) <= bound
            assert got[2:] == want[2:]
            assert (rep.mu1, rep.margin, rep.b) == got[:3]
        else:
            assert got == want
            assert (rep.mu1, rep.margin, rep.b) == want[:3]
        np.testing.assert_array_equal(rep.eigenvectors, sweep.eigenvectors[k])


@pytest.mark.parametrize("cc", [
    central.collinear3(1.0, 1.0, 1.0), central.collinear3(0.3, 4.0, 1.0),
    central.embed_in_3d(central.ngon(7, 1.0))], ids=["collinear3", "unequal", "ngon7-3d"])
@pytest.mark.parametrize("k", [0, 1, 9])
def test_one_shape_equals_its_stack_over_alphas(cc, k):
    # the gate and the Hessian take the shape once with K alphas, as
    # spectral_sweep and constrained_hessian_matrix pass it, and give bitwise
    # what they give on the shape broadcast to a (K, N, d) stack
    alphas = np.linspace(0.1, 1.9, k)
    stack = np.broadcast_to(cc.s0, (k,) + cc.s0.shape)
    for one, many in zip(nbody.central_gate_stack(cc.s0, cc.masses, alphas[:, None], 1e-8, 1e3),
                         nbody.central_gate_stack(stack, cc.masses, alphas[:, None], 1e-8, 1e3)):
        np.testing.assert_array_equal(one, many, strict=True)
    a4 = alphas[:, None, None, None]
    np.testing.assert_array_equal(nbody.hessian_full_stack(cc.s0, cc.masses, a4),
                                  nbody.hessian_full_stack(stack, cc.masses, a4), strict=True)
    h = spectral.constrained_hessian_matrix(cc, alphas, cc.b)
    assert h.shape == (k, cc.s0.size, cc.s0.size)
    for j, alpha in enumerate(alphas):
        np.testing.assert_array_equal(h[j], spectral.constrained_hessian_matrix(cc, alpha))


def _quiet_ngon(n, alpha=1.0):
    """central.ngon, without its warning for n < 4."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return central.ngon(n, alpha)


def _check_against_the_dense_route(cc, alphas):
    """The cyclic route's eigenpairs of cc at alphas against _dense_spectrum's."""
    sweep = spectral.spectral_sweep(cc, alphas)
    vals, vecs = spectral._dense_spectrum(cc, sweep.alphas, sweep.b)
    h = spectral.constrained_hessian_matrix(cc, sweep.alphas, sweep.b)
    for k in range(sweep.alphas.size):
        got = sweep.eigenvalues[k]
        scale = np.max(np.abs(vals[k]))
        assert np.all(np.diff(got) >= 0.0)
        assert np.max(np.abs(got - vals[k])) <= 1e-12 * scale
        v = sweep.eigenvectors[k].reshape(got.size, cc.s0.size)
        assert _null_space_defect(v, cc.s0, cc.masses, got.size) <= 1e-12
        assert np.max(np.linalg.norm(v @ h[k] - got[:, None] * v, axis=1)) <= 1e-12 * scale
        # the bottom eigenspace as a whole, where a gap sets it apart
        bottom = sweep.report(k).bottom_eigenspace().reshape(-1, cc.s0.size)
        size = bottom.shape[0]
        if size < got.size and vals[k][size] - vals[k][size - 1] > 1e-6 * scale:
            ref = vecs[k, :size].reshape(bottom.shape)
            assert np.max(np.abs(bottom.T @ bottom - ref.T @ ref)) <= 1e-10


def _check_the_dense_route(cc, alphas):
    sweep = spectral.spectral_sweep(cc, alphas)
    vals, vecs = spectral._dense_spectrum(cc, sweep.alphas, sweep.b)
    np.testing.assert_array_equal(sweep.eigenvalues, vals)
    np.testing.assert_array_equal(sweep.eigenvectors, vecs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), dim=st.sampled_from([2, 3]),
       alphas=st.lists(st.floats(spectral.ALPHA_FLOOR, 2.0, exclude_max=True),
                       min_size=1, max_size=3))
def test_cyclic_route_matches_the_dense_route(n, dim, alphas):
    cc = _quiet_ngon(n)
    if dim == 3:
        cc = central.embed_in_3d(cc)
    # two bodies have one mode past 0, which both in-plane mass sums fall on,
    # and stay on the dense route
    assert spectral.is_cyclic(cc) == (n >= 3)
    if n >= 3:
        _check_against_the_dense_route(cc, alphas)
    else:
        _check_the_dense_route(cc, alphas)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dim", [2, 3])
def test_two_and_three_bodies_take_their_routes(n, dim):
    cc = _quiet_ngon(n, 0.7)
    if dim == 3:
        cc = central.embed_in_3d(cc)
    assert spectral.spectral_sweep(cc, [0.7]).eigenvalues.shape == (1, n * dim - dim - 1)
    if n == 2:
        _check_the_dense_route(cc, [0.7, 1.3])
    else:
        _check_against_the_dense_route(cc, [0.7, 1.3])


def test_only_the_built_polygon_takes_the_cyclic_route():
    cc = central.ngon(8, 1.0)
    assert spectral.is_cyclic(cc) and spectral.is_cyclic(central.embed_in_3d(cc))
    x, m, alpha, _ = nbody.config_from_json(cc.to_json())
    moved = replace(cc, s0=cc.s0 + 1e-9 * np.eye(8, 2))
    lifted = replace(central.embed_in_3d(cc), s0=central.embed_in_3d(cc).s0 + [0, 0, 1e-300])
    dense = [
        central.solve_central(x, m, alpha),  # what `--family file` builds from it
        moved,
        lifted,
        replace(cc, masses=np.array([1.0] * 7 + [1.0 + 1e-15])),
        central.collinear3(1.0, 1.0, 1.0),
    ]
    for shape in dense:
        assert not spectral.is_cyclic(shape)
    _check_the_dense_route(dense[0], [0.5, 1.0])


def test_smallest_eigenvalue_keeps_the_configurations_own_b(coll1):
    # as at_alpha does, an alpha within 1e-14 of the shape's own keeps its
    # stored b and residual; here they are set apart from recomputed values
    cc = replace(coll1, b=coll1.b * (1.0 + 1e-12), residual=3e-16)
    for alpha in (None, 1.0, 1.0 + 1e-15):
        assert spectral.smallest_eigenvalue(cc, alpha).b == cc.b
    sweep = spectral.spectral_sweep(cc, [1.0, 0.5])
    assert sweep.b[0] == cc.b and sweep.residual[0] == cc.residual
    assert sweep.margin[0] == sweep.mu1[0] + 1.0 / 8.0 * cc.b
    assert sweep.b[1] == pytest.approx(nbody.potential(cc.s0, cc.masses, 0.5), rel=1e-13)
    assert sweep.residual[1] == pytest.approx(nbody.central_residual(cc.s0, cc.masses, 0.5),
                                              abs=1e-15)


def test_spectral_sweep_validates_every_alpha(coll1):
    for bad in (0.0, 2.0, -0.5, np.nan):
        with pytest.raises(ValueError, match="open interval"):
            spectral.spectral_sweep(coll1, [0.5, bad, 1.0])


def test_spectral_sweep_names_the_first_non_central_alpha():
    # an unequal-mass collinear shape solved at alpha = 1 is central there only
    cc = central.solve_central(np.array([[-0.6, 0.0], [0.05, 0.0], [0.5, 0.0]]),
                               [1.0, 2.0, 3.0], 1.0)
    assert spectral.spectral_sweep(cc, [1.0, 1.0]).mu1.shape == (2,)
    with pytest.raises(NotCentral, match=r"at alpha = 0\.9$"):
        spectral.spectral_sweep(cc, [1.0, 1.0, 0.9, 1.5, 0.5])
    with pytest.raises(NotCentral, match=r"at alpha = 0\.999$"):
        spectral.smallest_eigenvalue(cc, 0.999)


def test_spectral_sweep_of_no_alphas(coll1):
    sweep = spectral.spectral_sweep(central.embed_in_3d(central.ngon(5, 1.0)), [])
    assert sweep.mu1.shape == sweep.residual.shape == (0,)
    assert sweep.eigenvalues.shape == (0, 11) and sweep.eigenvectors.shape == (0, 11, 5, 3)


def test_collinear_equal_condition_values():
    lhs, rhs, holds = spectral.collinear_equal_condition(1.0)
    assert lhs == pytest.approx(2.4, abs=1e-15)
    assert rhs == pytest.approx(1.125, abs=1e-15)
    assert holds
    lhs, rhs, holds = spectral.collinear_equal_condition(1.999999)
    assert rhs == pytest.approx(1.0, rel=1e-5)
    assert lhs > 2.6 and holds
    # small alpha: lhs -> 2 while rhs diverges
    lhs, rhs, holds = spectral.collinear_equal_condition(0.01)
    assert not holds


def test_collinear_equal_boundary_identity():
    # the small-alpha limit of the left side equals the right side at 6-4sqrt2
    lhs0 = 6.0 / 3.0
    rhs_at_cap = (ALPHA_BAR_CAP + 2) ** 2 / (8 * ALPHA_BAR_CAP)
    assert lhs0 == pytest.approx(rhs_at_cap, rel=1e-13)


def test_collinear_threshold():
    th = spectral.collinear_threshold()
    assert th.alpha_star < ALPHA_BAR_CAP
    lhs, rhs, _ = spectral.collinear_equal_condition(th.alpha_star)
    assert abs(lhs - rhs) < 1e-12
    # monotone sign structure around the root
    assert not spectral.collinear_equal_condition(th.alpha_star / 2)[2]
    assert spectral.collinear_equal_condition(min(2 * th.alpha_star, 1.9))[2]


def test_collinear_margin_equivalence_with_condition(coll1):
    # sign of the spectral margin agrees with the closed-form condition
    for alpha in np.linspace(0.05, 1.95, 100):
        cc = central.collinear3(1.0, 1.0, alpha)
        rep = spectral.smallest_eigenvalue(cc)
        _, _, holds = spectral.collinear_equal_condition(alpha)
        assert holds == (rep.margin < 0)


def test_collinear_unequal_printed_form():
    lhs, rhs, holds = spectral.collinear_unequal_condition(1.0, 1.0)
    assert lhs == pytest.approx((2 * 20 - 1 + 2) / 5.0)
    assert rhs == pytest.approx(3.0 / 8.0)
    assert holds == spectral.collinear_equal_condition(1.0)[2]
    # published boundary value f(2) = (-m1^2 + 66 m1 + 16)/(m1 + 8)
    m1 = 17.3
    lhs2 = spectral.collinear_unequal_condition(m1, 2.0 - 1e-12)[0]
    assert lhs2 == pytest.approx((-m1**2 + 66 * m1 + 16) / (m1 + 8), rel=1e-9)


def test_unequal_existence_boundary():
    res = spectral.unequal_existence_boundary()
    assert res.alpha_star == pytest.approx(33 + np.sqrt(1105), abs=1e-9)
    # orientation: condition holds below the boundary and fails above
    below = spectral.collinear_unequal_condition(res.alpha_star - 1.0, 2.0 - 1e-9)
    above = spectral.collinear_unequal_condition(res.alpha_star + 1.0, 2.0 - 1e-9)
    assert below[0] > 0.0 > above[0]


def test_collinear_unequal_oracle_disagrees_with_printed_form():
    # matrix-based evaluation of the same normal-direction criterion: the
    # printed simplification overstates the left side for m1 != 1
    lhs_o, rhs_o, holds_o = spectral.collinear_unequal_oracle(30.0, 1.0)
    lhs_p, _, holds_p = spectral.collinear_unequal_condition(30.0, 1.0)
    assert rhs_o == pytest.approx(3.0 / 8.0)
    assert not holds_o            # direct evaluation fails at m1 = 30
    assert holds_p                # printed form claims it holds
    assert lhs_p != pytest.approx(lhs_o, rel=1e-3)


def test_collinear_unequal_oracle_reduces_to_equal_case():
    # at m1 = 1 the oracle verdict coincides with the equal-mass condition
    # (the normalized value is 3 f_eq - 3, so the thresholds match exactly)
    for alpha in np.linspace(0.05, 1.95, 60):
        holds_eq = spectral.collinear_equal_condition(alpha)[2]
        holds_o = spectral.collinear_unequal_oracle(1.0, alpha)[2]
        assert holds_eq == holds_o
    lhs_o = spectral.collinear_unequal_oracle(1.0, 1.0)[0]
    assert lhs_o == pytest.approx(3 * 2.4 - 3, rel=1e-12)


def test_collinear_unequal_oracle_matches_corrected_simplification():
    # independent route: (2^a (16 m1 - 4) - m1^2 - 2 m1)/(2^(a+1) + m1)
    for m1 in (0.5, 1.0, 5.0, 30.0, 60.0):
        for alpha in (0.5, 1.0, 1.7):
            lhs_o = spectral.collinear_unequal_oracle(m1, alpha)[0]
            corrected = (2.0**alpha * (16 * m1 - 4) - m1**2 - 2 * m1) / (2.0 ** (alpha + 1) + m1)
            assert lhs_o == pytest.approx(corrected, rel=1e-11)


def reference_collinear_B_matrix(alpha: float) -> np.ndarray:
    """Interaction matrix of the equal-mass collinear family restricted to zero-sum
    directions, in the basis (1,0,-1), (0,1,-1); gamma = 2^((alpha+2)/2)."""
    g = spectral._gamma(alpha)
    return np.array([[2.0 * g + 4.0 / g, g + 2.0 / g], [g + 2.0 / g, 5.0 * g + 1.0 / g]])


def test_collinear_B_matrix_matches_interaction_matrix():
    w1 = np.array([1.0, 0.0, -1.0])
    w2 = np.array([0.0, 1.0, -1.0])
    s0 = central.collinear3(1.0, 1.0, 1.0).s0
    for alpha in np.linspace(0.1, 1.9, 25):
        A = nbody.matrix_A(s0, np.ones(3), alpha)
        B = reference_collinear_B_matrix(alpha)
        assert B[0, 0] == pytest.approx(w1 @ A @ w1, rel=1e-12)
        assert B[0, 1] == pytest.approx(w1 @ A @ w2, rel=1e-12)
        assert B[1, 1] == pytest.approx(w2 @ A @ w2, rel=1e-12)


def test_collinear_B_eigenvalues_closed_form():
    for alpha in np.linspace(0.05, 1.95, 50):
        lam_hi, lam_lo = spectral.collinear_B_eigenvalues(alpha)
        vals = np.linalg.eigvalsh(reference_collinear_B_matrix(alpha))
        assert lam_lo == pytest.approx(vals[0], rel=1e-12)
        assert lam_hi == pytest.approx(vals[1], rel=1e-12)


def test_B_condition_wider_than_equal_condition():
    for alpha in np.linspace(0.05, 1.95, 200):
        if spectral.collinear_equal_condition(alpha)[2]:
            assert spectral.collinear_B_eigen_condition(alpha)[2]


# ---------------------------------------------------------------------------
# polygon conditions


def test_psi_phi_square_values():
    psi, phi = spectral.psi_phi(4, 0.0)
    assert psi == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert phi == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert psi > 5.0 / 4.0 > 9.0 / 8.0


def test_psi5_exact_value():
    # direct evaluation gives (6 - sqrt(5))/(5 - sqrt(5)); the literature
    # constant (6 sqrt5 - 1)/(5(sqrt5 - 1)) ~ 2.009 is a misprint of it
    psi5, _ = spectral.psi_phi(5, 0.0)
    assert psi5 == pytest.approx((6 - np.sqrt(5)) / (5 - np.sqrt(5)), rel=1e-13)
    assert psi5 > 9.0 / 8.0


def test_phi_zero_closed_form():
    # Phi_n(0) = (n+1)/6 via the chord-sum identity sum 1/sin^2 = (n^2-1)/3
    for n in (4, 5, 9, 16, 33, 64):
        _, phi = spectral.psi_phi(n, 0.0)
        assert phi == pytest.approx((n + 1) / 6.0, rel=1e-11)
        assert phi > (n - 1) / n


def reference_psi_from_matrix(n: int, alpha: float, pair: int = 0) -> float:
    """Oracle route for Psi_n through the actual interaction matrix."""
    cc = central.ngon(n, max(alpha, spectral.ALPHA_FLOOR)) if alpha > 0 else central.ngon(n, 0.5)
    # distances are alpha independent; the core takes any alpha, also alpha <= 0
    a_mat = nbody.matrix_A_stack(cc.s0, cc.masses, alpha)
    if n == 4:
        wvec = np.array([0.5, -0.5, 0.5, -0.5])
    else:
        wvec = np.zeros(n)
        wvec[pair % n] = 1.0 / np.sqrt(2.0)
        wvec[(pair + 1) % n] = -1.0 / np.sqrt(2.0)
    quad = float(wvec @ a_mat @ wvec)
    dist_row = np.array([np.linalg.norm(cc.s0[0] - cc.s0[k]) for k in range(1, n)])
    return 2.0 / n * quad / np.sum(dist_row ** (-alpha))


def test_psi_matches_matrix_oracle():
    for n in (4, 5, 7, 12):
        for alpha in (0.3, 1.0, 1.8):
            psi, _ = spectral.psi_phi(n, alpha)
            assert psi == pytest.approx(reference_psi_from_matrix(n, alpha), rel=1e-11)


def test_psi_matrix_oracle_at_and_below_zero_alpha():
    # the matrix route takes alpha <= 0 on the alpha = 0.5 polygon
    for n in (4, 5, 9):
        assert reference_psi_from_matrix(n, 0.0) == pytest.approx(spectral.psi_phi(n, 0.0)[0],
                                                                   rel=1e-11)
        chords = np.array([np.linalg.norm(np.exp(2j * np.pi * k / n) - 1.0)
                           for k in range(1, n)])
        a = -0.5
        s_a, s_a2 = np.sum(chords ** (-a)), np.sum(chords ** (-(a + 2.0)))
        if n == 4:
            quad = s_a2 + 2.0 * chords[0] ** (-(a + 2.0)) - chords[1] ** (-(a + 2.0))
        else:
            quad = s_a2 + chords[0] ** (-(a + 2.0))
        assert reference_psi_from_matrix(n, a) == pytest.approx(2.0 * quad / s_a, rel=1e-11)


def test_psi_shifted_pair_equivalence():
    for pair in range(1, 6):
        direct = reference_psi_from_matrix(6, 1.0, pair=pair)
        assert direct == pytest.approx(spectral.psi_phi(6, 1.0)[0], rel=1e-11)


def test_psi_rejects_small_n():
    with pytest.raises(InvalidN):
        spectral.psi_phi(3, 1.0)


def test_ngon_threshold_square():
    res = spectral.ngon_threshold(4)
    assert 0.0 < res.alpha_star < 1.0
    psi, _ = spectral.psi_phi(4, res.alpha_star)
    assert abs(psi - spectral.rhs_factor(res.alpha_star)) < 1e-12


@pytest.mark.parametrize("n", [4, 9, 32, 64])
def test_ngon_threshold_unique_crossing(n):
    res = spectral.ngon_threshold(n)
    assert res.alpha_star < 1.0
    grid = np.linspace(1e-4, 1.0, 10_000)
    vals = np.array([spectral.psi_phi(n, a)[0] - spectral.rhs_factor(a) for a in grid])
    assert int(np.sum(np.diff(np.sign(vals)) != 0)) == 1


@pytest.mark.parametrize("n", [4, 5, 9, 64])
def test_ngon_threshold_bracket_matches_scalar_scan(n):
    grid = np.linspace(spectral.ALPHA_FLOOR, 1.0, 4096)
    vals = np.array([spectral.psi_phi(n, a)[0] - spectral.rhs_factor(a) for a in grid])
    k = np.nonzero(np.diff(np.sign(vals)) != 0)[0][0]
    assert spectral.ngon_threshold(n).bracket == (float(grid[k]), float(grid[k + 1]))


def _patched_ngon_scan(monkeypatch, g):
    """Make ngon_threshold's f equal g, in sign, and record the scan's blocks.

    psi_phi is replaced by rhs_factor + g, so f = psi - rhs_factor has g's
    sign at every grid point (g takes the values -1, 0 and 1).  Arrays longer
    than one bisection round are the scan's blocks; their sizes are recorded.
    """
    blocks = []

    def fake_psi_phi(n, alpha):
        if np.size(alpha) > 2**spectral.BISECT_DEPTH:
            blocks.append(np.size(alpha))
        return spectral.rhs_factor(alpha) + g(alpha), None

    monkeypatch.setattr(spectral, "psi_phi", fake_psi_phi)
    return blocks


@pytest.mark.parametrize("kind, at", [("step", 0), ("step", 255), ("step", 256), ("step", 511),
                                      ("step", 3839), ("step", 4094), ("zero", 256), ("zero", 257),
                                      ("zero", 4095)])
def test_ngon_threshold_scan_block_edges(monkeypatch, kind, at):
    grid = np.linspace(spectral.ALPHA_FLOOR, 1.0, 4096)
    if kind == "step":  # the sign changes between grid[at] and grid[at + 1]
        cut = 0.5 * (grid[at] + grid[at + 1])

        def g(a):
            return np.where(a > cut, 1.0, -1.0)
    else:  # zero on grid[at] and nowhere else on the grid

        def g(a):
            return np.sign(a - grid[at])

    blocks = _patched_ngon_scan(monkeypatch, g)
    vals = spectral.psi_phi(4, grid)[0] - spectral.rhs_factor(grid)
    k = np.nonzero(np.diff(np.sign(vals)) != 0)[0][0]
    assert k == (at if kind == "step" else at - 1)
    blocks.clear()
    res = spectral.ngon_threshold(4)
    assert res.bracket == (float(grid[k]), float(grid[k + 1]))
    assert grid[k] <= res.alpha_star <= grid[k + 1]
    # the scan stopped at the block holding interval k; blocks share end points
    b = k // spectral.SCAN_BLOCK
    assert blocks == [spectral.SCAN_BLOCK + 1] * b \
        + [min(spectral.SCAN_BLOCK + 1, grid.size - b * spectral.SCAN_BLOCK)]


def test_ngon_threshold_scan_without_sign_change(monkeypatch):
    blocks = _patched_ngon_scan(monkeypatch, lambda a: np.ones_like(a))
    grid = np.linspace(spectral.ALPHA_FLOOR, 1.0, 4096)
    vals = spectral.psi_phi(4, grid)[0] - spectral.rhs_factor(grid)
    assert np.nonzero(np.diff(np.sign(vals)) != 0)[0].size == 0
    blocks.clear()
    with pytest.raises(BracketFailure):
        spectral.ngon_threshold(4)
    assert sum(blocks) - (len(blocks) - 1) == grid.size


def test_rhs_factor_on_arrays_keeps_the_floor():
    alphas = np.array([0.25, 1.0, 1.75])
    assert np.array_equal(spectral.rhs_factor(alphas),
                          [spectral.rhs_factor(float(a)) for a in alphas])
    with pytest.raises(ValueError):
        spectral.rhs_factor(np.array([0.5, 0.1 * spectral.ALPHA_FLOOR]))
    assert spectral.rhs_factor(np.array([])).shape == (0,)


def reference_psi_phi(n, alpha):
    """psi_phi as it was before it took arrays, kept as its oracle (floats)."""
    r = np.sin((np.arange(2, n + 1) - 1) * np.pi / n)
    s_a = np.sum(r ** (-alpha))
    phi = 0.5 * np.sum(r ** (-(alpha + 2.0))) / s_a
    r12 = r[0] ** (-(alpha + 2.0))
    if n == 4:
        return float(phi + 0.5 * (2.0 * r12 - r[1] ** (-(alpha + 2.0))) / s_a), float(phi)
    return float(phi + 0.5 * r12 / s_a), float(phi)


CLOSED_FORMS = {
    "collinear_equal_condition": spectral.collinear_equal_condition,
    "collinear_B_eigenvalues": spectral.collinear_B_eigenvalues,
    "collinear_B_eigen_condition": spectral.collinear_B_eigen_condition,
    "psi_phi_4": lambda a: spectral.psi_phi(4, a),
    "psi_phi_5": lambda a: spectral.psi_phi(5, a),
    "psi_phi_64": lambda a: spectral.psi_phi(64, a),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CLOSED_FORMS)),
       alphas=st.lists(st.floats(spectral.ALPHA_FLOOR, 2.0, exclude_max=True), max_size=40))
def test_closed_forms_on_arrays_equal_their_scalar_calls(name, alphas):
    form = CLOSED_FORMS[name]
    columns = form(np.array(alphas))
    for k, alpha in enumerate(alphas):
        row = form(alpha)
        assert all(type(v) in (float, bool) for v in row)
        assert row == tuple(c[k] for c in columns)  # bitwise
    assert all(c.shape == (len(alphas),) for c in columns)


def test_closed_forms_validate_their_alphas():
    for form in (spectral.collinear_equal_condition, spectral.collinear_B_eigenvalues,
                 spectral.collinear_B_eigen_condition):
        with pytest.raises(ValueError, match="open interval"):
            form(np.array([0.5, 2.0]))
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        spectral.psi_phi(6, np.array([0.5, 2.5]))


@pytest.mark.parametrize("n", [4, 5, 12, 64])
def test_psi_phi_within_one_ulp_of_its_scalar_oracle(n):
    for alpha in np.linspace(0.0, 2.0, 301):
        got, want = spectral.psi_phi(n, alpha), reference_psi_phi(n, float(alpha))
        assert all(abs(g - w) <= np.spacing(w) for g, w in zip(got, want))


def test_psi_monotone_and_above_nine_eighths():
    grid = np.linspace(0.0, 2.0, 1000)
    for n in (4, 5, 6, 17, 64):
        vals = np.array([spectral.psi_phi(n, a)[0] for a in grid])
        assert np.all(np.diff(vals) > 0)
        assert vals[0] > 9.0 / 8.0
        psi1 = spectral.psi_phi(n, 1.0)[0]
        assert psi1 > 9.0 / 8.0


def reference_ratio_f(bases: np.ndarray, x: float) -> float:
    """sum b_j^(x+2) / sum b_j^x for a decreasing family b_j > 1."""
    bases = np.asarray(bases, dtype=float)
    return float(np.sum(bases ** (x + 2.0)) / np.sum(bases**x))


def reference_ratio_g(bases: np.ndarray, x: float) -> float:
    """(1 + sum b_j^(x+2)) / (1 + sum b_j^x), the variant absorbing a unit term."""
    bases = np.asarray(bases, dtype=float)
    return float((1.0 + np.sum(bases ** (x + 2.0))) / (1.0 + np.sum(bases**x)))


def reference_ngon_ratio_bases(n: int) -> np.ndarray:
    """Distinct inverse chords 1/sin(j pi / n) > 1 feeding the monotone ratios."""
    j = np.arange(1, (n + 1) // 2 if n % 2 else n // 2)
    return 1.0 / np.sin(j * np.pi / n)


def test_ratio_lemma_monotonicity():
    grid = np.linspace(0.0, 2.0, 1000)
    for n in (5, 8, 13, 64):
        bases = reference_ngon_ratio_bases(n)
        assert np.all(bases > 1.0)
        assert np.all(np.diff(bases) < 0) or np.all(np.diff(bases) > 0) or bases.size == 1
        f_vals = np.array([reference_ratio_f(bases, x) for x in grid])
        g_vals = np.array([reference_ratio_g(bases, x) for x in grid])
        assert np.all(np.diff(f_vals) > 0)
        assert np.all(np.diff(g_vals) > 0)


# ---------------------------------------------------------------------------
# hip-hop


def test_hiphop_g_positive_on_grid():
    for n in range(6, 65, 2):
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert spectral.hiphop_g(n, alpha) > 0.0


def test_hiphop_first_two_terms_positive():
    for n in range(6, 65, 2):
        for alpha in (0.0, 1.0, 2.0):
            first_two = (np.sin(np.pi / n) ** (-(alpha + 2))
                         - 2 * np.sin(2 * np.pi / n) ** (-(alpha + 2)))
            assert first_two > 0.0
            assert np.cos(np.pi / n) > 2.0 ** (-(alpha + 1) / (alpha + 2))


def test_hiphop_rejects_bad_n():
    with pytest.raises(InvalidN):
        spectral.hiphop_g(7, 1.0)
    with pytest.raises(InvalidN):
        spectral.hiphop_g(4, 1.0)


def reference_hiphop_condition(n: int, alpha: float):
    """Direct evaluation of the alternating-probe inequality from the matrix.

    lhs = (1/n) sum_{ij} (-1)^(i+j) a_ij, rhs = (alpha+2)^2/(8 alpha) U(s0).
    """
    if n < 6 or n % 2 != 0:
        raise InvalidN(f"even n >= 6 required, got {n}")
    cc = central.ngon(n, alpha)
    A = nbody.matrix_A(cc.s0, cc.masses, alpha)
    signs = (-1.0) ** (np.arange(n) + 1)
    lhs = float(signs @ A @ signs) / n
    rhs = spectral.rhs_factor(alpha) * cc.b
    return lhs, rhs, lhs > rhs


def test_hiphop_condition_consistency():
    # whenever the adjacent-pair condition and g > 0 hold, the alternating
    # probe condition holds as well
    for n in (6, 8, 10, 14):
        for alpha in (0.5, 1.0, 1.5):
            lhs, rhs, holds = reference_hiphop_condition(n, alpha)
            psi = spectral.psi_phi(n, alpha)[0]
            neighbor_holds = psi > spectral.rhs_factor(alpha)
            g_pos = spectral.hiphop_g(n, alpha) > 0
            if neighbor_holds and g_pos:
                assert holds


def reference_bisect(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Plain bisection with one scalar call of f per midpoint, as spectral.bisect
    was before it took BISECT_DEPTH halvings per call; kept as its oracle."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketFailure(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < tol:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    if hi - lo < tol:
        return 0.5 * (lo + hi)
    raise NoConvergence(f"bracket [{lo}, {hi}] still wider than {tol} after {max_iter} halvings")


@st.composite
def bisect_problems(draw):
    """A bracket, a tolerance, an iteration budget and an array-valued f.

    The root r is drawn inside or around the bracket, or placed exactly on
    lo, on hi or on a midpoint that the halvings can reach.
    """
    lo = draw(st.floats(-10.0, 10.0))
    # one bracket in five is reversed, which the first halving exits
    hi = lo + draw(st.sampled_from([1.0, 1.0, 1.0, 1.0, -1.0])) * 10.0 ** draw(st.floats(-9.0, 1.3))
    where = draw(st.sampled_from(["inside"] * 3 + ["outside", "lo", "hi"] + ["midpoint"] * 2))
    if where == "inside":
        # lo and hi themselves are their own cases below
        r = lo + draw(st.floats(0.01, 0.99)) * (hi - lo)
    elif where == "outside":
        r = draw(st.sampled_from([min(lo, hi), max(lo, hi)])) + draw(st.floats(-1.0, 1.0))
    elif where == "midpoint":
        a, b = lo, hi
        depth = draw(st.integers(1, 60))
        for right in draw(st.lists(st.booleans(), min_size=depth, max_size=depth)):
            m = 0.5 * (a + b)
            a, b = (m, b) if right else (a, m)
        r = 0.5 * (a + b)
    else:
        r = lo if where == "lo" else hi
    kind = draw(st.sampled_from(["monotone", "step", "polynomial"]))
    if kind == "monotone":
        scale = draw(st.sampled_from([1.0, -3.0, 1e-3]))

        def f(x):
            return scale * (x - r)
    elif kind == "step":
        def f(x):
            return np.where(x > r, 1.0, np.where(x < r, -1.0, 0.0))
    else:
        r2, r3 = draw(st.floats(-12.0, 12.0)), draw(st.floats(-12.0, 12.0))

        def f(x):
            return (x - r) * (x - r2) * (x - r3)
    tol = draw(st.sampled_from([0.0, 1e-20, 1e-14, 1e-12, 1e-9, 1e-6, 0.1, 50.0]))
    max_iter = draw(st.integers(1, 200))
    return f, lo, hi, tol, max_iter


@settings(max_examples=300, deadline=None)
@given(problem=bisect_problems())
def test_bisect_matches_reference_bitwise(problem):
    f, lo, hi, tol, max_iter = problem
    calls = {"ref": 0, "new": 0}

    def counted(name, array_in):
        def g(x):
            calls[name] += 1
            assert np.ndim(x) == (1 if array_in else 0)
            return f(x)
        return g

    outcome = {}
    for name, fn in (("ref", reference_bisect), ("new", spectral.bisect)):
        try:
            outcome[name] = float(fn(counted(name, name == "new"), lo, hi, tol=tol,
                                     max_iter=max_iter)).hex()
        except (BracketFailure, NoConvergence) as exc:
            outcome[name] = type(exc)
    assert outcome["new"] == outcome["ref"]
    halvings = calls["ref"] - 2
    assert calls["new"] <= -(-halvings // spectral.BISECT_DEPTH) + 1


def test_bisect_bracket_failure():
    with pytest.raises(BracketFailure):
        spectral.bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_raises_when_iterations_run_out():
    with pytest.raises(NoConvergence):
        spectral.bisect(lambda x: x - 0.3, 0.0, 1.0, max_iter=3)
    # a tolerance below the spacing of doubles near the root cannot be met
    with pytest.raises(NoConvergence):
        spectral.bisect(lambda x: np.where(x > 0.3, 1.0, -1.0), 0.0, 1.0, tol=1e-20)
    assert spectral.bisect(lambda x: x - 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)
    # the last halving may meet the tolerance: that answer is returned
    assert spectral.bisect(lambda x: x - 0.3, 0.0, 1.0, tol=0.2, max_iter=3) \
        == pytest.approx(0.3, abs=0.1)
