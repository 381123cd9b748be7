import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncol import central, mcgehee, morse, nbody, weakforce
from ncol.errors import CollisionConfiguration, InvalidMass, NotCentral

SQ2 = np.sqrt(2.0)
COLLINEAR_S0 = np.array([[-1 / SQ2, 0.0], [0.0, 0.0], [1 / SQ2, 0.0]])
ONES3 = np.ones(3)


def random_config(rng, n=4, d=2, min_dist=0.3):
    while True:
        x = rng.uniform(-1.5, 1.5, size=(n, d))
        if nbody.min_distance(x) > min_dist:
            return x


def test_potential_two_unit_masses_at_unit_distance():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    for alpha in (0.3, 1.0, 1.7):
        assert nbody.potential(x, np.ones(2), alpha) == pytest.approx(1.0, abs=1e-15)


def test_potential_collinear_closed_form():
    for alpha in (0.25, 1.0, 1.9):
        expect = 2 * 2 ** (alpha / 2) + 2 ** (-alpha / 2)
        assert nbody.potential(COLLINEAR_S0, ONES3, alpha) == pytest.approx(expect, rel=1e-14)
    # Newtonian value 2 sqrt(2) + 1/sqrt(2)
    assert nbody.potential(COLLINEAR_S0, ONES3, 1.0) == pytest.approx(3.5355339059327378)


def test_potential_collision_raises():
    x = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(CollisionConfiguration):
        nbody.potential(x, np.ones(2), 1.0)


def test_alpha_boundaries_rejected():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    for bad in (0.0, 2.0, -0.5, 2.5):
        with pytest.raises(ValueError):
            nbody.potential(x, np.ones(2), bad)


def test_bad_masses_rejected():
    with pytest.raises(InvalidMass):
        nbody.as_masses([1.0, -2.0])
    with pytest.raises(InvalidMass):
        nbody.as_masses([1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidMass, match="positive and finite"):
            nbody.as_masses([1.0, bad])


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(min_value=0.3, max_value=10.0),
       seed=st.integers(min_value=0, max_value=999))
def test_potential_homogeneity(lam, seed):
    rng = np.random.default_rng(seed)
    x = random_config(rng)
    m = rng.uniform(0.5, 2.0, size=4)
    alpha = rng.uniform(0.1, 1.9)
    u = nbody.potential(x, m, alpha)
    assert nbody.potential(lam * x, m, alpha) == pytest.approx(lam ** (-alpha) * u, rel=1e-12)


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_potential_homogeneity_pinned_factors(lam):
    rng = np.random.default_rng(100)
    for alpha in (0.3, 1.0, 1.7):
        x = random_config(rng)
        m = rng.uniform(0.5, 2.0, size=4)
        u = nbody.potential(x, m, alpha)
        rel = abs(nbody.potential(lam * x, m, alpha) - lam ** (-alpha) * u) / u
        assert rel < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_potential_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    x = random_config(rng)
    m = rng.uniform(0.5, 2.0, size=4)
    shift = rng.uniform(-5, 5, size=2)
    u = nbody.potential(x, m, 1.0)
    assert nbody.potential(x + shift, m, 1.0) == pytest.approx(u, rel=1e-13)


def test_moment_of_inertia():
    assert nbody.moment_of_inertia(COLLINEAR_S0, ONES3) == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(0)
    x = random_config(rng)
    m = rng.uniform(0.5, 2.0, size=4)
    i0 = nbody.moment_of_inertia(x, m)
    assert nbody.moment_of_inertia(3.0 * x, m) == pytest.approx(9.0 * i0, rel=1e-14)


def test_moment_of_inertia_ngon():
    n = 7
    k = np.arange(n)
    x = np.column_stack([np.cos(2 * np.pi * k / n), np.sin(2 * np.pi * k / n)]) / np.sqrt(n)
    assert nbody.moment_of_inertia(x, np.ones(n)) == pytest.approx(1.0, abs=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = random_config(rng)
    m = rng.uniform(0.5, 2.0, size=4)
    alpha = 1.3
    g = nbody.gradient(x, m, alpha)
    h = 1e-6
    for i in range(4):
        for c in range(2):
            dx = np.zeros_like(x)
            dx[i, c] = h
            fd = (nbody.potential(x + dx, m, alpha) - nbody.potential(x - dx, m, alpha)) / (2 * h)
            assert g[i, c] == pytest.approx(fd, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_hessian_matches_finite_differences(alpha):
    # error measured against the Hessian scale: directional values can sit far
    # below the second-difference roundoff floor eps*U/h^2
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = random_config(rng)
        m = rng.uniform(0.5, 2.0, size=4)
        scale = np.linalg.norm(nbody.hessian_full(x, m, alpha))
        v = rng.standard_normal(x.shape)
        v /= np.linalg.norm(v)
        h = 1e-5
        fd = (nbody.potential(x + h * v, m, alpha) - 2 * nbody.potential(x, m, alpha)
              + nbody.potential(x - h * v, m, alpha)) / h**2
        quad = nbody.hessian_quadratic(x, m, alpha, v)
        assert abs(quad - fd) < 1e-5 * scale


def test_hessian_matrix_symmetric_and_consistent():
    rng = np.random.default_rng(3)
    x = random_config(rng)
    m = rng.uniform(0.5, 2.0, size=4)
    H = nbody.hessian_full(x, m, 0.8)
    assert np.allclose(H, H.T, atol=1e-12)
    v = rng.standard_normal(8)
    assert v @ H @ v == pytest.approx(nbody.hessian_quadratic(x, m, 0.8, v), rel=1e-12)


def test_hessian_rigid_translation_null():
    rng = np.random.default_rng(4)
    x = random_config(rng)
    m = rng.uniform(0.5, 2.0, size=4)
    v = np.tile(rng.standard_normal(2), (4, 1))
    assert nbody.hessian_quadratic(x, m, 1.0, v) == pytest.approx(0.0, abs=1e-12)


def test_hessian_two_body_normal_direction():
    # normal variation of a pair: second derivative is -a m1 m2 |v1-v2|^2 / r^(a+2)
    x = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    m = np.array([1.5, 2.5])
    v = np.array([[0.0, 0.3, 0.0], [0.0, -0.4, 0.0]])
    for alpha in (0.4, 1.0, 1.8):
        expect = -alpha * m[0] * m[1] * (0.7**2) / 2.0 ** (alpha + 2)
        assert nbody.hessian_quadratic(x, m, alpha, v) == pytest.approx(expect, rel=1e-14)


def test_planar_variation_closed_form():
    for alpha in (0.3, 1.0, 1.6):
        for theta in (0.0, np.pi / 4, np.pi / 2):
            ct, stn = np.cos(theta), np.sin(theta)
            v = np.array([[ct, stn], [0.0, -2 * stn], [-ct, stn]])
            expect = 2 * alpha * (
                ct**2 * (2 * (alpha + 10) * 2 ** (alpha / 2) + (alpha + 1) * 2 ** (-alpha / 2))
                - 18 * 2 ** (alpha / 2))
            got = nbody.hessian_quadratic(COLLINEAR_S0, ONES3, alpha, v)
            assert got == pytest.approx(expect, rel=1e-10)


def test_matrix_A_collinear_entries():
    for alpha in (0.5, 1.0, 1.5):
        g = 2 ** ((alpha + 2) / 2)
        A = nbody.matrix_A(COLLINEAR_S0, ONES3, alpha)
        assert A[1, 1] == pytest.approx(2 * g, rel=1e-13)
        assert A[0, 1] == pytest.approx(-g, rel=1e-13)
        assert A[0, 2] == pytest.approx(-1 / g, rel=1e-13)


def test_matrix_A_ones_kernel_equal_masses():
    A = nbody.matrix_A(COLLINEAR_S0, ONES3, 1.0)
    assert np.allclose(A @ np.ones(3), 0.0, atol=1e-12)
    assert np.allclose(A, A.T, atol=1e-13)


def test_matrix_A_unequal_mass_symmetry():
    rng = np.random.default_rng(5)
    x = random_config(rng)
    m = rng.uniform(0.5, 3.0, size=4)
    A = nbody.matrix_A(x, m, 1.2)
    MA = m[:, None] * A
    assert np.allclose(MA, MA.T, atol=1e-11)


def test_matrix_A_quadratic_identity():
    # <w, A w>/U on the collinear shape reduces to 6 2^a/(2 2^a + 1)
    w = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    for alpha in (0.2, 1.0, 1.9):
        A = nbody.matrix_A(COLLINEAR_S0, ONES3, alpha)
        u = nbody.potential(COLLINEAR_S0, ONES3, alpha)
        got = w @ A @ w / u
        assert got == pytest.approx(6 * 2**alpha / (2 * 2**alpha + 1), rel=1e-13)


def test_normal_variation_reduces_to_matrix_A():
    rng = np.random.default_rng(7)
    # planar configuration, out-of-plane variation in 3d
    x2 = random_config(rng, n=5)
    x = np.column_stack([x2, np.zeros(5)])
    m = rng.uniform(0.5, 2.0, size=5)
    c = rng.standard_normal(5)
    v = np.zeros((5, 3))
    v[:, 2] = c
    A = nbody.matrix_A(x, m, 1.4)
    expect = -1.4 * float(c @ (m * (A @ c)))
    assert nbody.hessian_quadratic(x, m, 1.4, v) == pytest.approx(expect, rel=1e-10)


def test_central_residual_identity_at_central_configuration():
    assert nbody.central_residual(COLLINEAR_S0, ONES3, 1.0) < 1e-9


def reference_hessian_constrained(s, m, alpha, v) -> float:
    """Second derivative of U restricted to the ellipsoid {I = 1} at a central s.

    Equals hessian_quadratic(s, v) + alpha U(s) <Mv, v> for tangent v with
    vanishing mass-weighted sum.  Raises NotCentral when the centrality
    residual of s exceeds 1e-8 times residual_scale.
    """
    s, m, alpha = nbody.checked(s, m, alpha)
    res = nbody.central_residual(s, m, alpha)
    if res > 1e-8 * nbody.residual_scale(s, m, alpha):
        raise NotCentral(f"centrality residual {res:.3e} exceeds tolerance")
    v = np.asarray(v, dtype=float).reshape(s.shape)
    if np.allclose(v, 0.0):
        return 0.0
    nbody.check_tangent(s, m, v)
    return nbody.hessian_on_ellipsoid(s, m, alpha, v)


def test_hessian_constrained_cross_check():
    # normal variation value agrees with alpha(-<v,Av> + U <v,v>)
    c = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    v = np.zeros((3, 2))
    v[:, 1] = c
    for alpha in (0.4, 1.0, 1.7):
        A = nbody.matrix_A(COLLINEAR_S0, ONES3, alpha)
        u = nbody.potential(COLLINEAR_S0, ONES3, alpha)
        expect = alpha * (-(c @ A @ c) + u)
        got = reference_hessian_constrained(COLLINEAR_S0, ONES3, alpha, v)
        assert got == pytest.approx(expect, rel=1e-12)
    assert reference_hessian_constrained(COLLINEAR_S0, ONES3, 1.0, np.zeros((3, 2))) == 0.0


def test_hessian_constrained_requires_central():
    rng = np.random.default_rng(8)
    x = random_config(rng, n=3)
    x -= nbody.center_of_mass(x, ONES3)
    x /= np.sqrt(nbody.moment_of_inertia(x, ONES3))
    with pytest.raises(NotCentral):
        reference_hessian_constrained(x, ONES3, 1.0, np.zeros((3, 2)))


def test_config_json_roundtrip():
    text = nbody.config_to_json(COLLINEAR_S0, ONES3, 1.0)
    x, m, alpha, payload = nbody.config_from_json(text)
    assert np.allclose(x, COLLINEAR_S0)
    assert np.allclose(m, ONES3)
    assert alpha == 1.0
    assert set(payload) == {"alpha", "dim", "masses", "positions"}


# ---------------------------------------------------------------------------
# the batched core against reference loops over the pairs, one at a time;
# each reference also sums the magnitudes of its terms, before any of them
# cancel, as the scale of its rounding


def ref_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def ref_potential(x, m, alpha):
    total = 0.0
    for i, j in ref_pairs(len(m)):
        total += m[i] * m[j] * np.linalg.norm(x[i] - x[j]) ** (-alpha)
    return total


def ref_gradient(x, m, alpha):
    grad, size = np.zeros_like(x), np.zeros_like(x)
    for i, j in ref_pairs(len(m)):
        u = x[i] - x[j]
        f = -alpha * m[i] * m[j] * np.linalg.norm(u) ** (-(alpha + 2.0)) * u
        grad[i] += f
        grad[j] -= f
        size[i] += np.abs(f)
        size[j] += np.abs(f)
    return grad, size


def ref_hessian_quadratic(x, m, alpha, v):
    total = size = 0.0
    for i, j in ref_pairs(len(m)):
        u, dv = x[i] - x[j], v[i] - v[j]
        r = np.linalg.norm(u)
        radial = alpha * m[i] * m[j] * (alpha + 2.0) * (u @ dv) ** 2 / r ** (alpha + 4.0)
        normal = alpha * m[i] * m[j] * (dv @ dv) / r ** (alpha + 2.0)
        total += radial - normal
        size += radial + normal
    return total, size


def ref_hessian_full(x, m, alpha):
    n, d = x.shape
    H, size = np.zeros((n * d, n * d)), np.zeros((n * d, n * d))
    for i, j in ref_pairs(n):
        u = x[i] - x[j]
        r = np.linalg.norm(u)
        radial = alpha * m[i] * m[j] * (alpha + 2.0) * np.outer(u, u) / r ** (alpha + 4.0)
        normal = alpha * m[i] * m[j] * np.eye(d) / r ** (alpha + 2.0)
        si, sj = slice(i * d, (i + 1) * d), slice(j * d, (j + 1) * d)
        for a, b, sign in ((si, si, 1.0), (sj, sj, 1.0), (si, sj, -1.0), (sj, si, -1.0)):
            H[a, b] += sign * (radial - normal)
            size[a, b] += np.abs(radial) + normal
    return H, size


def assert_within(got, want, size, rel=1e-12):
    assert np.all(np.abs(np.asarray(got) - want) <= rel * size)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), n=st.integers(2, 16), d=st.sampled_from([2, 3]),
       alpha=st.floats(1e-6, 2.0, exclude_max=True),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_core_matches_reference_loops(k, n, d, alpha, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(k, n, d))
    v = rng.standard_normal((k, n, d))
    m = rng.uniform(0.5, 2.0, size=n)
    pot = nbody.potential_stack(x, m, alpha)
    grad = nbody.gradient_stack(x, m, alpha)
    quad = nbody.hessian_quadratic_stack(x, m, alpha, v)
    on_ellipsoid = nbody.hessian_on_ellipsoid_stack(x, m, alpha, v)
    full = nbody.hessian_full_stack(x, m, alpha)
    assert pot.shape == quad.shape == on_ellipsoid.shape == (k,)
    assert grad.shape == x.shape and full.shape == (k, n * d, n * d)
    for s in range(k):
        u = ref_potential(x[s], m, alpha)
        assert_within(pot[s], u, u)
        assert_within(grad[s], *ref_gradient(x[s], m, alpha))
        q, q_size = ref_hessian_quadratic(x[s], m, alpha, v[s])
        assert_within(quad[s], q, q_size)
        mv = float(np.sum(m[:, None] * v[s] ** 2))
        assert_within(on_ellipsoid[s], q + alpha * u * mv, q_size + alpha * u * mv)
        assert_within(full[s], *ref_hessian_full(x[s], m, alpha))
        # the boundary is the core on one configuration
        assert nbody.potential(x[s], m, alpha) == pot[s]
        assert nbody.hessian_on_ellipsoid(x[s], m, alpha, v[s]) == on_ellipsoid[s]
        np.testing.assert_array_equal(nbody.hessian_full(x[s], m, alpha), full[s])


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 6), n=st.integers(2, 12), d=st.sampled_from([1, 2, 3]),
       alpha=st.floats(1e-6, 2.0, exclude_max=True),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_potential_gradient_stack_is_both_kernels(k, n, d, alpha, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(k, n, d) if k else (n, d))
    m = rng.uniform(0.5, 2.0, size=n)
    if nbody.pair_separations(x)[3].min() < nbody.COLLISION_THRESHOLD:
        return
    pot, grad = nbody.potential_gradient_stack(x, m, alpha)
    np.testing.assert_array_equal(pot, nbody.potential_stack(x, m, alpha))
    np.testing.assert_array_equal(grad, nbody.gradient_stack(x, m, alpha))
    assert np.shape(pot) == x.shape[:-2] and grad.shape == x.shape


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 8), n=st.integers(2, 12), d=st.sampled_from([1, 2, 3]),
       one_shape=st.booleans(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_alpha_arrays_equal_a_loop_over_alphas(k, n, d, one_shape, seed):
    # one alpha per configuration, shaped to broadcast against the per-pair
    # blocks for the Hessian and against the pair axis for the others
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(k, n, d))
    if one_shape:
        x = np.broadcast_to(x[0] if k else rng.uniform(-1.0, 1.0, size=(n, d)), (k, n, d))
    if k and nbody.pair_separations(x)[3].min() < nbody.COLLISION_THRESHOLD:
        return
    m = rng.uniform(0.5, 2.0, size=n)
    alphas = rng.uniform(1e-6, 2.0, size=k)
    full = nbody.hessian_full_stack(x, m, alphas[:, None, None, None])
    pot = nbody.potential_stack(x, m, alphas[:, None])
    grad = nbody.gradient_stack(x, m, alphas[:, None])
    u, res, scale = nbody.central_residual_stack(x, m, alphas[:, None])
    assert full.shape == (k, n * d, n * d) and pot.shape == u.shape == scale.shape == (k,)
    assert grad.shape == res.shape == (k, n, d)
    for s, alpha in enumerate(alphas.tolist()):
        np.testing.assert_array_equal(full[s], nbody.hessian_full_stack(x[s], m, alpha))
        assert pot[s] == u[s] == nbody.potential_stack(x[s], m, alpha)
        np.testing.assert_array_equal(grad[s], nbody.gradient_stack(x[s], m, alpha))
        # the centrality identity and its scale as the boundary wrote them out
        # before central_residual_stack
        want = grad[s] + alpha * pot[s] * m[:, None] * x[s]
        np.testing.assert_array_equal(res[s], want)
        np.testing.assert_array_equal(res[s], nbody.central_residual_vector(x[s], m, alpha))
        assert nbody.central_residual(x[s], m, alpha) == float(np.linalg.norm(want))
        assert scale[s] == nbody.residual_scale(x[s], m, alpha) \
            == 1.0 + alpha * pot[s] * float(np.linalg.norm(m[:, None] * x[s]))


def test_central_gate_adds_the_rounding_of_the_positions():
    rng = np.random.default_rng(22)
    x = np.stack([random_config(rng, n=5) for _ in range(3)])
    m = rng.uniform(0.5, 2.0, size=5)
    alphas = np.array([0.3, 1.0, 1.8])
    u, res, tol = nbody.central_gate_stack(x, m, alphas[:, None], 1e-9, 100.0)
    want_u, want_res, scale = nbody.central_residual_stack(x, m, alphas[:, None])
    np.testing.assert_array_equal(u, want_u)
    np.testing.assert_array_equal(res, want_res)
    eps = np.finfo(float).eps
    rounding_only = nbody.central_gate_stack(x, m, alphas[:, None], 0.0, 0.0)[2]
    for k, alpha in enumerate(alphas):
        ii, jj = np.triu_indices(5, k=1)
        r = np.linalg.norm(x[k, ii] - x[k, jj], axis=-1)
        rounding = eps * np.linalg.norm(x[k]) * np.sum(
            alpha * (alpha + 1.0) * m[ii] * m[jj] / r ** (alpha + 2.0))
        assert rounding_only[k] == pytest.approx(rounding, rel=1e-12)
        assert tol[k] == max(1e-9, 100.0 * eps * scale[k], rounding_only[k])
    # the floor holds where both other terms are smaller
    assert nbody.central_gate_stack(x, m, alphas[:, None], 1.0, 100.0)[2].tolist() == [1.0] * 3


def test_fixed_configuration_broadcasts_against_directions():
    rng = np.random.default_rng(9)
    x = random_config(rng, n=5)
    m = rng.uniform(0.5, 2.0, size=5)
    v = rng.standard_normal((7, 5, 2))
    got = nbody.hessian_on_ellipsoid_stack(x, m, 0.7, v)
    want = [nbody.hessian_on_ellipsoid(x, m, 0.7, vk) for vk in v]
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_stack_with_one_colliding_sample_raises():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1.0, 1.0, size=(6, 4, 3))
    x[4, 3] = x[4, 1]
    m, v = np.ones(4), rng.standard_normal(x.shape)
    for kernel in (nbody.potential_stack, nbody.gradient_stack, nbody.potential_gradient_stack,
                   nbody.hessian_full_stack, nbody.matrix_A_stack):
        with pytest.raises(CollisionConfiguration):
            kernel(x, m, 1.0)
    for kernel in (nbody.hessian_quadratic_stack, nbody.hessian_on_ellipsoid_stack):
        with pytest.raises(CollisionConfiguration):
            kernel(x, m, 1.0, v)
    assert np.all(np.isfinite(nbody.potential_stack(np.delete(x, 4, axis=0), m, 1.0)))


V3 = np.array([[0.1, 0.2], [-0.3, 0.1], [0.2, -0.3]])
BOUNDARY = {
    "potential": nbody.potential,
    "gradient": nbody.gradient,
    "hessian_full": nbody.hessian_full,
    "matrix_A": nbody.matrix_A,
    "hessian_quadratic": lambda x, m, a: nbody.hessian_quadratic(x, m, a, V3),
    "hessian_on_ellipsoid": lambda x, m, a: nbody.hessian_on_ellipsoid(x, m, a, V3),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_boundary_validates_masses_alpha_and_shape(name):
    fn = BOUNDARY[name]
    fn(COLLINEAR_S0, ONES3, 1.0)
    for bad_m in ([1.0, -1.0, 1.0], [1.0, 0.0, 1.0], [[1.0, 1.0, 1.0]]):
        with pytest.raises(InvalidMass):
            fn(COLLINEAR_S0, bad_m, 1.0)
    with pytest.raises(ValueError):
        fn(COLLINEAR_S0, np.ones(4), 1.0)
    for bad_alpha in (0.0, 2.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            fn(COLLINEAR_S0, ONES3, bad_alpha)
    with pytest.raises(ValueError):
        fn(np.stack([COLLINEAR_S0, COLLINEAR_S0]), ONES3, 1.0)


def reference_scatter_gradient(x, m, alpha):
    """grad U as two np.add.at scatters of the pair forces: +f onto each body i
    of a pair (i, j), then -f onto each j, in pair order."""
    ii, jj, mm, diff, dist = nbody.pair_terms(x, m)
    w = -alpha * mm * dist ** (-(alpha + 2.0))
    force = w[..., None] * diff
    grad = np.zeros(force.shape[:-2] + x.shape[-2:])
    np.add.at(grad, (..., ii, slice(None)), force)
    np.add.at(grad, (..., jj, slice(None)), -force)
    return grad


@settings(max_examples=80, deadline=None)
@given(lead=st.sampled_from([(), (0,), (1,), (5,), (2, 0), (2, 3), (3, 4)]),
       n=st.integers(2, 16), d=st.integers(1, 3), per_configuration=st.booleans(),
       flat=st.booleans(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_gathered_gradient_equals_the_scatter(lead, n, d, per_configuration, flat, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=lead + (n, d))
    if flat and d > 1:
        x[..., -1] = 0.0  # zero force components, whose signs a sum can flip
    if x.size and nbody.pair_separations(x)[3].min() < nbody.COLLISION_THRESHOLD:
        return
    m = rng.uniform(0.5, 2.0, size=n)
    if per_configuration and lead:
        alpha = rng.uniform(1e-6, 2.0, size=lead[-1])[:, None]
    else:
        alpha = float(rng.uniform(1e-6, 2.0))
    want = reference_scatter_gradient(x, m, alpha)
    for got in (nbody.gradient_stack(x, m, alpha), nbody.potential_gradient_stack(x, m, alpha)[1]):
        assert got.shape == want.shape == x.shape
        # the bytes, so that the sign of every zero matches as well
        assert got.tobytes() == want.tobytes()


def test_pair_indices_cached_and_read_only():
    ii, jj = nbody.pair_indices(5)
    assert nbody.pair_indices(5)[0] is ii
    assert list(zip(ii, jj)) == ref_pairs(5)
    with pytest.raises(ValueError):
        ii[0] = 3


# ---------------------------------------------------------------------------
# per-sample traces run on the core, never on the scalar boundary


def rotating_trajectory(cc, n_samples):
    """Synthetic shape-varying data: s0 turning at unit rate while rho decays."""
    tau = np.linspace(0.0, 6.0, n_samples)
    c, s = np.cos(tau)[:, None], np.sin(tau)[:, None]
    x0, y0 = cc.s0[:, 0], cc.s0[:, 1]
    shape = np.stack([c * x0 - s * y0, s * x0 + c * y0], axis=-1)
    velocity = np.stack([-shape[..., 1], shape[..., 0]], axis=-1)
    rho = np.exp(-0.5 * tau)
    return mcgehee.Trajectory(alpha=cc.alpha, masses=cc.masses, tau=tau, rho=rho,
                              rho_prime=-0.5 * rho, s=shape, s_prime=velocity, h=0.0)


def test_traces_never_reach_the_scalar_boundary(monkeypatch):
    cc = central.collinear3(1.0, 1.0, 1.0)
    frozen = mcgehee.homothetic_quadrature_trajectory(cc, h=1.0, tau_max=40.0)
    moving = rotating_trajectory(cc, 3000)
    assert frozen.n_samples > 2000

    def refuse(*args, **kwargs):
        raise AssertionError("per-sample call to a scalar nbody function")

    monkeypatch.setattr(nbody, "potential", refuse)
    monkeypatch.setattr(nbody, "hessian_on_ellipsoid", refuse)
    monkeypatch.setattr(weakforce, "scaled_potentials", refuse)
    for traj in (frozen, moving):
        assert traj.potential_trace().shape == (traj.n_samples,)
        assert np.all(np.isfinite(traj.energy_trace()))
        mcgehee.asymptotic_report(traj, [cc])
        weakforce.gamma_trace(traj)
        weakforce.disotto_bound(traj)
    xi = np.zeros((3, 2))
    xi[:, 1] = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
    bump = morse.BumpVariation(l1=0.5, l2=2.5, shift=1.0, xi=xi, profile_kind="bump")
    morse.homographic_blocks(frozen, morse.ScalarBump(l1=0.5, l2=2.5, shift=1.0), bump)
    assert np.isfinite(morse.quadratic_Q(moving, bump).value)
