import numpy as np
import pytest

from ncol import central, mcgehee, nbody, weakforce
from ncol.errors import NonCollapsing, NotHomographic

from references import reference_gamma_trace, reference_scaled_potentials


@pytest.fixture(scope="module")
def family():
    cc = central.collinear3(1.0, 1.0, 0.5)
    return weakforce.build_H_family(cc, tau_max=12.0)


def test_scaled_potentials_two_bodies():
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    m = np.ones(2)
    for alpha in (0.5, 0.1, 0.01):
        _, uhat, ulog = reference_scaled_potentials(x, m, alpha)
        assert uhat == pytest.approx((2.0 ** (-alpha) - 1.0) / alpha, rel=1e-12)
        assert ulog == pytest.approx(-np.log(2.0), rel=1e-14)
    # distance one: Uhat vanishes identically
    x1 = np.array([[0.0, 0.0], [1.0, 0.0]])
    for alpha in (0.5, 1.0, 1.9):
        assert reference_scaled_potentials(x1, m, alpha)[1] == pytest.approx(0.0, abs=1e-14)


def test_uhat_converges_to_log_potential():
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=(3, 2))
        if nbody.pair_separations(x)[3].min() < 0.1:
            continue
        _, uhat, ulog = reference_scaled_potentials(x, np.ones(3), 0.001)
        assert abs(uhat - ulog) < 5e-3 * (1.0 + abs(ulog))


def reference_energy_H(m, alpha) -> float:
    """Magnitude of the normalized energy, sum m_i m_j / alpha^(alpha/(alpha+2)).

    The trajectory construction fixes Uhat-energy zero, which makes the signed
    plain energy the negative of this value; see scaled_energy_for_H.
    """
    alpha = nbody.validate_alpha(alpha)
    return weakforce.pair_mass_sum(m) / alpha ** (alpha / (alpha + 2.0))


def reference_plain_from_scaled_energy(h_tilde: float, alpha: float) -> float:
    """h = alpha^(2/(alpha+2)) htilde, the inverse of the body rescaling."""
    return alpha ** (2.0 / (alpha + 2.0)) * h_tilde


def test_energy_H_values():
    assert reference_energy_H(np.ones(3), 1.0) == pytest.approx(3.0, rel=1e-14)
    # alpha -> 0 limit is the pair mass sum
    assert reference_energy_H(np.ones(3), 1e-6) == pytest.approx(3.0, rel=1e-4)
    # the zero-Uhat normalization carries the opposite sign
    h_tilde = weakforce.scaled_energy_for_H(np.ones(3), 0.5)
    assert h_tilde == pytest.approx(-6.0)
    assert abs(reference_plain_from_scaled_energy(h_tilde, 0.5)) == pytest.approx(
        reference_energy_H(np.ones(3), 0.5), rel=1e-12)


def test_family_members_satisfy_H_normalization(family):
    s_pairs = weakforce.pair_mass_sum(family.cc.masses)
    for alpha, traj in family:
        # hhat = htilde + S/alpha vanishes by construction
        assert traj.h + s_pairs / alpha == pytest.approx(0.0, abs=1e-10)
        # measured energy along the trajectory matches the stored value
        mask = traj.trusted_prefix(1e-6 * (1 + abs(traj.h)))
        drift = np.abs(traj.energy_trace()[mask] - traj.h)
        assert np.max(drift) < 1e-6 * (1.0 + abs(traj.h))


def test_family_initial_conditions(family):
    for alpha, traj in family:
        assert traj.rho[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(traj.rho_prime < 0.0)       # (IC1)
        assert np.max(np.abs(traj.s[0] - family.cc.s0)) < 1e-12  # (IC2) fixed shape
        assert np.max(np.abs(traj.s_prime[0])) == 0.0
    # initial radial speed converges as alpha -> 0: ((2-a)/4) sqrt(2(U-S)/a) bounded
    speeds = [abs(traj.rho_prime[0]) for _, traj in family]
    assert np.all(np.isfinite(speeds))


def test_uniform_collapse_measured(family):
    uc = family.uniform_collapse(sigmas=(0.5, 0.1, 0.01))
    assert all(v is not None for v in uc.values())
    assert uc[0.5] < uc[0.1] < uc[0.01]


@pytest.mark.parametrize("rho,sigma,want", [
    ([1.0, 0.4, 0.6, 0.3, 0.2], 0.5, 3.0),  # below 0.5 at tau = 1, back above at 2
    ([0.3, 0.6], 0.5, None),  # ends above sigma
    ([1.0, 0.9], 0.5, None),  # never below
    ([0.3, 0.2], 0.5, 0.0)])  # below from the start
def test_uniform_collapse_on_a_member_that_is_not_monotone(rho, sigma, want):
    cc = central.collinear3(1.0, 1.0, 0.5)
    tau = np.arange(float(len(rho)))
    member = mcgehee._frozen_trajectory(cc, tau, np.array(rho), -np.ones(tau.size), 0.0)
    fam = weakforce.ScaledFamily(cc=cc, alphas=(0.5,), trajectories=(member,))
    assert fam.uniform_collapse(sigmas=(sigma,)) == {sigma: want}


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_esplode1_finder(family, eps):
    res = weakforce.family_report(family, eps).esplode1
    assert res.satisfied
    assert res.tau_eps is not None and res.tau_eps > 0.0
    assert res.alpha_eps is not None
    # the located region really satisfies the bound
    for alpha, traj in family:
        if alpha >= res.alpha_eps:
            continue
        q = weakforce.blowup_quantity(traj)
        assert np.all(q[traj.tau >= res.tau_eps] >= 1.0 / eps - 1e-12)


def test_blowup_quantity_monotone(family):
    for _, traj in family:
        q = weakforce.blowup_quantity(traj)
        assert np.all(np.diff(q) > -1e-12)


def test_blowup_alpha_eps_structure(family):
    # the quantity is capped by (2-a)/(4a): for eps = 0.1 only alpha < 2/41 works
    res = weakforce.family_report(family, 0.1).esplode1
    for alpha, traj in family:
        cap = (2.0 - alpha) / (4.0 * alpha)
        q_end = weakforce.blowup_quantity(traj)[-1]
        assert q_end <= cap + 1e-12
        if alpha < res.alpha_eps:
            assert cap >= 10.0


def test_log_limit_of_blowup():
    # (1 - eta^gamma)/gamma -> -log(eta) as gamma -> 0
    eta = 0.37
    for gamma in (1e-3, 1e-5):
        val = (1.0 - eta**gamma) / gamma
        assert val == pytest.approx(-np.log(eta), rel=1e-3)


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_disotto_bound_on_located_region(family, eps):
    res = weakforce.family_report(family, eps).disotto
    assert res.satisfied
    assert res.table["infimum"] >= res.table["required"]
    # the proof ingredient tends to -log 2
    for alpha, entry in res.table["per_alpha"].items():
        assert entry["ingredient"] >= -np.log(2.0) - 0.3
    ing_small = (1.0 - 2.0**0.02) / (0.02 * 2.0**0.02)
    assert ing_small == pytest.approx(-np.log(2.0), abs=5e-3)


def test_disotto_pointwise_inequality():
    # (1/a)(d^-a - 1) >= (1 - 2^a)/(a 2^a) for distances d <= 2
    for alpha in (0.5, 0.2, 0.05):
        d = np.linspace(0.05, 2.0, 400)
        lhs = (d ** (-alpha) - 1.0) / alpha
        rhs = (1.0 - 2.0**alpha) / (alpha * 2.0**alpha)
        assert np.all(lhs >= rhs - 1e-12)


def test_ellipsoid_diameter_bound(family):
    # unit-mass shapes on the ellipsoid keep pair separations below 2
    for _, traj in family:
        for k in (0, traj.n_samples // 2, traj.n_samples - 1):
            _, _, _, dist = nbody.pair_separations(traj.s[k])
            assert np.all(dist <= 2.0 + 1e-12)


def test_disotto_infimum_grows_with_shrinking_eps(family):
    infs = []
    for eps in (0.5, 0.2, 0.1):
        rep = weakforce.family_report(family, eps)
        if not rep.esplode1.satisfied:
            continue
        infs.append(rep.disotto.table["infimum"])
    assert len(infs) >= 2
    assert infs == sorted(infs)


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_esplode2_finder(family, eps):
    res = weakforce.family_report(family, eps).esplode2
    assert res.satisfied          # includes positivity of -rho'/rho
    assert res.tau_eps is not None
    for alpha, entry in res.table.items():
        assert entry["tail_total"] == pytest.approx(0.0, abs=1e-15)
        assert entry["phi_min"] > 0.0
        # monitored squared-rate claim on the located members
        if alpha < res.alpha_eps:
            assert entry["phi_sq_min"] >= entry["phi_sq_required"]


def test_gamma_constant_on_homothetic_family(family):
    for _, traj in family:
        gt = reference_gamma_trace(traj)
        assert np.ptp(gt.gamma) < 1e-10 * (1.0 + np.max(np.abs(gt.gamma)))
        assert gt.dissipation_partial == pytest.approx(0.0, abs=1e-14)


def test_gamma_identity_on_perturbed_run(kicked_member):
    cc = central.collinear3(1.0, 1.0, 0.3)
    xi = np.zeros((3, 2))
    xi[:, 1] = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    traj = kicked_member(cc, 0.3, 1e-2 * xi, tau_max=1.2)
    gt = reference_gamma_trace(traj, resample_step=1e-3)
    assert gt.identity_error < 1e-6
    assert np.max(np.abs(gt.derivative_rhs)) > 1e-5  # non-vacuous comparison
    assert gt.dissipation_partial >= 0.0


def test_dissipation_partial_sums_bounded_across_grid(family):
    partials = [reference_gamma_trace(tr).dissipation_partial for _, tr in family]
    assert max(map(abs, partials)) < 1e-10  # frozen shape: exactly zero drift


def test_dissipation_uniformly_bounded_on_perturbed_grid(kicked_member):
    # perturbed members across the grid keep bounded dissipation partial sums;
    # horizons are capped below the kick-amplification time per alpha
    xi = np.zeros((3, 2))
    xi[:, 1] = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    partials = []
    for alpha in (0.5, 0.2, 0.1, 0.05):
        cc = central.collinear3(1.0, 1.0, alpha)
        u_t = cc.b / alpha
        c_rate = (2.0 - alpha) / 4.0 * np.sqrt(2.0 * u_t)
        mu1 = alpha * (cc.b - 3 * 2 ** ((alpha + 2) / 2))
        growth = c_rate + np.sqrt(max(c_rate**2 + mu1 / alpha, 0.0))
        tau_cap = np.log(0.1 / 1e-3) / growth
        gt = reference_gamma_trace(kicked_member(cc, alpha, 1e-3 * xi, tau_max=tau_cap))
        partials.append(gt.dissipation_partial)
        assert gt.dissipation_partial >= 0.0
    assert max(partials) < 0.5


def test_family_rejects_infeasible_perturbation(kicked_member):
    cc = central.collinear3(1.0, 1.0, 0.5)
    huge = np.zeros((3, 2))
    huge[:, 1] = 100.0 * np.array([1.0, -2.0, 1.0])
    with pytest.raises(NonCollapsing):
        kicked_member(cc, 0.5, huge)


def test_family_report_refuses_a_moving_member(family, kicked_member):
    cc = central.collinear3(1.0, 1.0, 0.5)
    xi = np.zeros((3, 2))
    xi[:, 1] = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    kicked = kicked_member(cc, 0.4, 1e-3 * xi, tau_max=1.0)
    alphas = family.alphas + (0.4,)
    mixed = weakforce.ScaledFamily(cc=cc, alphas=alphas,
                                   trajectories=family.trajectories + (kicked,))
    with pytest.raises(NotHomographic, match="alpha=0.4"):
        weakforce.family_report(mixed, 0.1)


def test_family_report_refuses_eps_that_is_not_positive_and_finite():
    # eps = 0 divided by zero, -0.1 passed esplode1 and Disotto, NaN failed
    # every check and inf passed every one, each without an error
    fam = weakforce.build_H_family(central.collinear3(1.0, 1.0, 0.5), alphas=(0.5, 0.1),
                                   tau_max=4.0)
    for eps in (0.0, -0.1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            weakforce.family_report(fam, eps)
    assert weakforce.family_report(fam, 0.5).esplode2.eps == 0.5


def reference_action_functional(path: np.ndarray, dt: float, m, alpha,
                                scaled: bool = False) -> float:
    """Discrete action int |xdot|_M^2/2 + U dt on a sampled path (T, N, d).

    With scaled=True the potential is Utilde = U/alpha (the rescaled system's
    action); velocities by central differences, trapezoid in time.
    """
    path = np.asarray(path, dtype=float)
    _, m, alpha = nbody.checked(path[0], m, alpha)
    vel = np.gradient(path, dt, axis=0, edge_order=2)
    kin = 0.5 * np.einsum("j,tjd,tjd->t", m, vel, vel)
    pots = nbody.potential_stack(path, m, alpha)
    if scaled:
        pots = pots / alpha
    return float(np.trapezoid(kin + pots, dx=dt))


def reference_rescale_path(path: np.ndarray, alpha: float) -> np.ndarray:
    """xtilde = alpha^(-1/(alpha+2)) x applied along a sampled path."""
    return alpha ** (-1.0 / (alpha + 2.0)) * np.asarray(path, dtype=float)


def test_action_scaling_identity():
    rng = np.random.default_rng(2)
    base = np.array([[0.5, 0.1], [-0.4, 0.3], [0.1, -0.5]])
    wiggle = 0.1 * np.sin(np.linspace(0, 3, 64))[:, None, None] \
        * rng.standard_normal((1, 3, 2))
    path = base[None, :, :] + wiggle
    for alpha in (0.5, 0.2, 0.05):
        a_plain = reference_action_functional(path, 0.01, np.ones(3), alpha)
        a_scaled = reference_action_functional(reference_rescale_path(path, alpha),
                                               0.01, np.ones(3), alpha, scaled=True)
        assert a_scaled == pytest.approx(alpha ** (-2.0 / (alpha + 2.0)) * a_plain,
                                         rel=1e-9)


def test_family_report_rows(family):
    rows = weakforce.family_report(family, 0.1).rows
    assert len(rows) == len(family.alphas)
    alphas = [r[0] for r in rows]
    assert alphas == sorted(alphas, reverse=True)
    for row in rows:
        assert len(row) == 5
        assert row[4] > 0.0  # phi_min positive
