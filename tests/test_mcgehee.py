import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncol import central, cli, mcgehee, nbody
from ncol.errors import (CollisionConfiguration, EllipsoidDrift, InsufficientHorizon,
                         NonCollapsing, StepFailure, ZeroConfiguration)


@pytest.fixture(scope="module")
def coll1():
    return central.collinear3(1.0, 1.0, 1.0)


def normal_kick(cc, eps):
    xi = np.zeros((3, 2))
    xi[:, 1] = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    return eps * xi


def zero_energy_state(cc, s_prime=None):
    sp = np.zeros_like(cc.s0) if s_prime is None else s_prime
    sp2 = float(np.sum(cc.masses * np.sum(sp * sp, axis=1)))
    u = nbody.potential(cc.s0, cc.masses, cc.alpha)
    rp = -(2.0 - cc.alpha) / 4.0 * np.sqrt(2.0 * (u - 0.5 * sp2))
    return mcgehee.McGeheeState(rho=1.0, rho_prime=rp, s=cc.s0.copy(), s_prime=sp)


def test_beta_exponent():
    assert mcgehee.beta_exponent(1.0) == pytest.approx(6.0)
    for alpha in np.linspace(0.05, 1.95, 50):
        assert mcgehee.beta_exponent(alpha) > 2.0


def test_to_mcgehee_on_ellipsoid(coll1):
    st0 = mcgehee.to_mcgehee(coll1.s0, np.zeros_like(coll1.s0), coll1.masses, 1.0)
    assert st0.rho == pytest.approx(1.0)
    assert st0.rho_prime == pytest.approx(0.0)
    assert np.allclose(st0.s_prime, 0.0)


def test_to_mcgehee_radial_power(coll1):
    x = 16.0 * coll1.s0  # r = 16
    st0 = mcgehee.to_mcgehee(x, np.zeros_like(x), coll1.masses, 1.0)
    assert st0.rho == pytest.approx(2.0, rel=1e-14)  # 16^(1/4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_mcgehee_roundtrip(seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.5, 2.0, size=3)
    x = rng.uniform(-1, 1, size=(3, 2))
    x -= nbody.center_of_mass(x, m)
    if nbody.min_distance(x) < 0.1:
        return
    xd = 0.5 * rng.standard_normal((3, 2))
    alpha = rng.uniform(0.2, 1.8)
    st0 = mcgehee.to_mcgehee(x, xd, m, alpha)
    x2, xd2 = mcgehee.from_mcgehee(st0, m, alpha)
    assert np.allclose(x2, x, atol=1e-12)
    assert np.allclose(xd2, xd, atol=1e-12)


def test_to_mcgehee_rejects_zero():
    with pytest.raises(ZeroConfiguration):
        mcgehee.to_mcgehee(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(2), 1.0)


def test_energy_matches_cartesian(coll1):
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, size=(3, 2))
    x -= nbody.center_of_mass(x, coll1.masses)
    xd = 0.4 * rng.standard_normal((3, 2))
    st0 = mcgehee.to_mcgehee(x, xd, coll1.masses, 1.0)
    h_cart = 0.5 * float(np.sum(coll1.masses[:, None] * xd * xd)) \
        - nbody.potential(x, coll1.masses, 1.0)
    assert mcgehee.energy(st0, coll1.masses, 1.0) == pytest.approx(h_cart, abs=1e-10)


def test_energy_rest_state(coll1):
    st0 = mcgehee.McGeheeState(rho=1.0, rho_prime=0.0, s=coll1.s0.copy(),
                               s_prime=np.zeros_like(coll1.s0))
    assert mcgehee.energy(st0, coll1.masses, 1.0) == pytest.approx(-coll1.b, rel=1e-14)


@pytest.mark.parametrize("alpha,tau_max", [(0.5, 3.5), (1.0, 3.0), (1.5, 2.2)])
def test_homothetic_flow_invariants(alpha, tau_max):
    cc = central.collinear3(1.0, 1.0, alpha)
    traj = mcgehee.integrate_el(zero_energy_state(cc), cc.masses, alpha, tau_max=tau_max,
                                opts=mcgehee.IntegratorOptions(rtol=1e-12))
    c = mcgehee.homothetic_decay_rate(cc)
    assert np.max(np.abs(traj.rho_prime / traj.rho + c)) < 1e-9
    assert np.max(np.abs(traj.energy_trace())) < 1e-8
    assert np.max(np.abs(-traj.beta * traj.energy_trace())) < 1e-8  # -beta h with h = 0
    assert np.all(traj.lambda2_trace() >= 0.0)
    # shape frozen along a homothetic collapse
    assert np.max(np.abs(traj.s - cc.s0[None])) < 1e-10
    drift = [abs(nbody.moment_of_inertia(traj.s[k], cc.masses) - 1.0)
             for k in range(traj.n_samples)]
    assert max(drift) < 1e-10


def test_perturbed_flow_conserves_energy(coll1):
    state = zero_energy_state(coll1, s_prime=normal_kick(coll1, 1e-3))
    traj = mcgehee.integrate_el(state, coll1.masses, 1.0, tau_max=6.0,
                                opts=mcgehee.IntegratorOptions(rtol=1e-11, max_step=0.05))
    h_tr = traj.energy_trace()
    mask = traj.trusted_prefix(1e-8)
    assert mask.sum() > 10
    assert np.max(np.abs(h_tr[mask] - traj.h)) < 1e-8 * (1.0 + abs(traj.h))
    assert np.max(np.abs(-traj.beta * h_tr[mask] + traj.beta * traj.h)) \
        < 1e-8 * (1.0 + abs(traj.beta * traj.h))
    assert np.all(traj.lambda2_trace() >= 0.0)


def assert_stopped_once(traj, tau_max, rho_min):
    """The recorded stop reason holds at the last sample and nowhere before it."""
    rho, rho_p, stop = traj.rho, traj.rho_prime, traj.meta["stop"]
    assert np.all(traj.tau[:-1] < tau_max) and np.all(rho[:-1] > rho_min)
    # a bounce is rho' >= 0 right after rho' < 0
    turns = (rho_p[1:] >= 0.0) & (rho_p[:-1] < 0.0)
    assert not turns[:-1].any()
    if stop == "tau_max":
        assert traj.tau_end == pytest.approx(tau_max, rel=1e-14, abs=0.0)
    elif stop == "rho_min":
        assert rho[-1] <= rho_min
    else:
        assert stop == "bounce" and turns[-1]


def test_integrator_stops_at_rho_floor(coll1):
    # whether the zero-energy run at alpha = 1 reaches the rho_min wall or
    # turns back just above it is decided by last-bit rounding (see README),
    # so the run must end near the wall with one of the two reasons
    traj = mcgehee.integrate_el(zero_energy_state(coll1), coll1.masses, 1.0, tau_max=80.0)
    assert traj.meta["stop"] in ("rho_min", "bounce")
    assert traj.tau_end < 80.0 and traj.rho[-1] < 1e-7
    assert_stopped_once(traj, 80.0, 1e-8)


def test_integrator_stops_at_a_bounce(coll1, monkeypatch):
    # a planar kick with angular momentum forbids total collapse, so rho turns
    # back well above rho_min whatever the rounding
    spin = np.zeros_like(coll1.s0)
    spin[:, 1] = coll1.s0[:, 0]
    for eps in (1e-1, 1e-3):
        traj = mcgehee.integrate_el(mcgehee.homothetic_initial_state(coll1, kick=eps * spin),
                                    coll1.masses, 1.0, tau_max=80.0)
        assert traj.meta == {"stop": "bounce"}
        assert traj.rho[-1] > 1e-3 and traj.tau_end < 10.0
        assert_stopped_once(traj, 80.0, 1e-8)
    # the run at the rho_min wall with a first step of 2e-3 once bottomed out
    # near 2e-8 and went on to rho = 14.5 at tau = 80 with no reason recorded
    monkeypatch.setattr(mcgehee, "FIRST_STEP", 2e-3)
    traj = mcgehee.integrate_el(zero_energy_state(coll1), coll1.masses, 1.0, tau_max=80.0)
    assert traj.meta["stop"] in ("rho_min", "bounce")
    assert traj.rho[-1] < 1e-7 and traj.tau_end < 30.0
    assert_stopped_once(traj, 80.0, 1e-8)


def test_integrator_records_the_horizon_stop(coll1):
    traj = mcgehee.integrate_el(zero_energy_state(coll1, normal_kick(coll1, 1e-3)),
                                coll1.masses, 1.0, tau_max=2.0)
    assert traj.meta == {"stop": "tau_max"}
    assert_stopped_once(traj, 2.0, 1e-8)


def test_reprojection_uses_the_mass_weighted_inertia():
    cc = central.collinear3(3.0, 0.5, 0.8)
    kick = nbody.tangent_part(cc.s0, cc.masses, np.random.default_rng(2).standard_normal((3, 2)))
    state = mcgehee.homothetic_initial_state(cc, kick=1e-3 * kick / np.linalg.norm(kick))
    traj = mcgehee.integrate_el(state, cc.masses, cc.alpha, tau_max=2.0)
    inertia = np.einsum("j,kjd,kjd->k", cc.masses, traj.s, traj.s)
    assert np.max(np.abs(inertia - 1.0)) < 1e-14
    radial = np.einsum("j,kjd,kjd->k", cc.masses, traj.s, traj.s_prime)
    assert np.max(np.abs(radial)) < 1e-14


@pytest.mark.parametrize("alpha,tau_end", [(0.2, 16.005), (0.1, 15.33)])
def test_small_alpha_runs_stop_at_the_rho_min_wall(alpha, tau_end, tmp_path):
    # near the wall a trial stage carries rho below 0, where rho ** (beta - 1)
    # is complex: `ncol simulate --alpha 0.2 --tau-max 50` died with a
    # TypeError.  The right-hand side now returns NaN there, the stepper
    # rejects the step and shrinks it, and the run stops at the wall
    cc = central.collinear3(1.0, 1.0, alpha)
    traj = mcgehee.integrate_el(mcgehee.homothetic_initial_state(cc), cc.masses, alpha,
                                tau_max=50.0)
    assert traj.meta == {"stop": "rho_min"}
    assert traj.tau_end == pytest.approx(tau_end, abs=0.01)
    assert np.all(np.isfinite(traj.rho)) and 0.0 < traj.rho[-1] <= 1e-8
    assert_stopped_once(traj, 50.0, 1e-8)
    argv = ["simulate", "--family", "collinear3", "--alpha", str(alpha), "--tau-max", "50",
            "--out", str(tmp_path / "traj.csv")]
    assert cli.main(argv) == 0


def reference_reproject(m, d, drift_abort):
    """The one-sample projection the block projection replaced, as a
    project(tau, y) that works on one flattened state in place."""
    n = m.size
    m_col = m[:, None]

    def reproject(tau, y):
        s = y[2:2 + n * d].reshape(n, d)
        u = y[2 + n * d:].reshape(n, d)
        inertia = (m * (s * s).sum(axis=1)).sum().item()
        if abs(inertia - 1.0) > drift_abort:
            raise EllipsoidDrift(f"|I(s) - 1| = {abs(inertia - 1.0):.3e} at tau = {tau}")
        s /= math.sqrt(inertia)
        u -= (m_col * s * u).sum().item() * s
        return y

    return reproject


def drifted_block(seed, k, n, d, drift):
    """Masses, k taus and a (k, 2 + 2Nd) block of states whose shapes lie off
    the ellipsoid by up to drift, and whose velocities are not tangent."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.5, 2.0, size=n)
    taus = np.sort(rng.uniform(0.0, 30.0, size=k))
    ys = rng.standard_normal((k, 2 + 2 * n * d))
    for y in ys:
        s = y[2:2 + n * d].reshape(n, d)
        s /= np.sqrt(nbody.moment_of_inertia(s, m))
        s *= np.sqrt(1.0 + rng.uniform(-drift, drift))
    return m, taus, ys


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), k=st.integers(1, 12),
       n=st.integers(2, 9), d=st.integers(1, 3))
def test_block_projection_matches_the_one_sample_route(seed, k, n, d):
    m, taus, ys = drifted_block(seed, k, n, d, 1e-7)
    want = ys.copy()
    one = reference_reproject(m, d, 1e-6)
    for tau, y in zip(taus.tolist(), want):
        one(tau, y)
    got = ys.copy()
    block = mcgehee._ellipsoid_projection(m, d, 1e-6)
    # in place, row by row bitwise the one-sample route
    assert block(taus, got) is got
    assert got.tobytes() == want.tobytes()
    # a one-row block, as the stepper passes a step end
    end = ys[-1:].copy()
    block(taus[-1:].tolist(), end)
    assert end.tobytes() == want[-1:].tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), k=st.integers(1, 12),
       n=st.integers(2, 9), d=st.integers(1, 3), data=st.data())
def test_block_projection_raises_at_the_first_drifted_row(seed, k, n, d, data):
    m, taus, ys = drifted_block(seed, k, n, d, 1e-9)
    bad = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1)))
    for i in bad:
        ys[i, 2:2 + n * d] *= 1.0 + 1e-5 * (i + 1)
    with pytest.raises(EllipsoidDrift) as want:
        one = reference_reproject(m, d, 1e-6)
        for tau, y in zip(taus.tolist(), ys.copy()):
            one(tau, y)
    before = ys.copy()
    with pytest.raises(EllipsoidDrift) as got:
        mcgehee._ellipsoid_projection(m, d, 1e-6)(taus, ys)
    # today's message, with the tau of the first drifted row
    assert str(got.value) == str(want.value)
    assert f"at tau = {taus[bad[0]].item()}" in str(got.value)
    np.testing.assert_array_equal(ys, before)


def test_integrator_drift_abort(coll1, monkeypatch):
    state = zero_energy_state(coll1)
    monkeypatch.setattr(mcgehee, "DRIFT_ABORT", 1e-18)
    with pytest.raises(EllipsoidDrift):
        mcgehee.integrate_el(state, coll1.masses, 1.0, tau_max=3.0)


def test_trajectory_interpolation_accuracy(coll1):
    traj = mcgehee.integrate_el(zero_energy_state(coll1), coll1.masses, 1.0, tau_max=3.0,
                                opts=mcgehee.IntegratorOptions(rtol=1e-12))
    c = mcgehee.homothetic_decay_rate(coll1)
    t = np.linspace(0.05, 2.95, 333)
    rho, rho_p, s, s_p = traj.evaluate(t)
    assert np.max(np.abs(rho - np.exp(-c * t)) / np.exp(-c * t)) < 1e-9
    assert np.max(np.abs(rho_p / rho + c)) < 1e-8
    assert np.max(np.abs(s - coll1.s0[None])) < 1e-9


def test_homothetic_oracle_closed_form(coll1):
    traj = mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=50.0)
    assert traj.exact_homothetic
    c = mcgehee.homothetic_decay_rate(coll1)
    t = np.linspace(0.0, 50.0, 501)
    rho, rho_p, _, _ = traj.evaluate(t)
    assert np.max(np.abs(rho_p / rho + c)) < 1e-12
    # exponential decay bound rho <= rho(0) e^(-c tau)
    assert np.all(rho <= 1.0 * np.exp(-c * t) * (1 + 1e-12))


def test_log_rate_matches_evaluate_and_survives_underflow(coll1):
    kicked = zero_energy_state(coll1, normal_kick(coll1, 1e-3))
    sampled = [
        mcgehee.integrate_el(kicked, coll1.masses, 1.0, tau_max=3.0),
        mcgehee.homothetic_oracle(coll1, h=2.0, tau_max=10.0),
        mcgehee.homothetic_quadrature_trajectory(coll1, h=0.5, tau_max=10.0),
    ]
    for traj in sampled:
        t = np.linspace(traj.tau[0], traj.tau_end, 517)
        rho, rho_p, _, _ = traj.evaluate(t)
        assert np.allclose(traj.log_rate(t), rho_p / rho, rtol=1e-13, atol=0.0)
    exact = mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=1500.0)
    c = exact.meta["decay_rate"]
    t = np.array([10.0, 745.0 / c + 1.0, 1400.0])
    rho = exact.evaluate(t)[0]
    assert rho[0] > 0.0 and np.all(rho[1:] == 0.0)
    assert np.all(exact.log_rate(t) == -c)
    with pytest.raises(ValueError):
        exact.log_rate(1501.0)


def reference_log_rho(traj, t, derivative=False):
    """The weight route the log-rho table replaced: log rho, or its
    tau-derivative, from eight Hermite weights and two logarithms per call."""
    idx = np.clip(np.searchsorted(traj.tau, t, side="right") - 1, 0, traj.n_samples - 2)
    t0, t1 = traj.tau[idx], traj.tau[idx + 1]
    h = t1 - t0
    u = (t - t0) / h
    if derivative:
        w = (6 * u * (u - 1) / h, (1 - u) * (1 - 3 * u) / h * h, -6 * u * (u - 1) / h,
             u * (3 * u - 2) / h * h)
    else:
        w = ((1 + 2 * u) * (1 - u) ** 2, u * (1 - u) ** 2 * h, u**2 * (3 - 2 * u),
             u**2 * (u - 1) * h)
    lr0, lr1 = np.log(traj.rho[idx]), np.log(traj.rho[idx + 1])
    sl0 = traj.rho_prime[idx] / traj.rho[idx]
    sl1 = traj.rho_prime[idx + 1] / traj.rho[idx + 1]
    return w[0] * lr0 + w[1] * sl0 + w[2] * lr1 + w[3] * sl1


def reference_rho_at(traj, t):
    return np.exp(reference_log_rho(traj, t))


def hermite_term_sizes(traj, t):
    """|log rho| at both ends plus |h rho'/rho| at both ends, and h, of the
    interval holding each t: the sizes of the terms both routes sum."""
    idx = np.clip(np.searchsorted(traj.tau, t, side="right") - 1, 0, traj.n_samples - 2)
    h = traj.tau[idx + 1] - traj.tau[idx]
    log_rho, rate = np.log(traj.rho), traj.rho_prime / traj.rho
    return (np.abs(log_rho[idx]) + np.abs(log_rho[idx + 1])
            + h * (np.abs(rate[idx]) + np.abs(rate[idx + 1]))), h


# the table route against the weight route, in eps of the Hermite term sizes:
# at most 1.06 for log rho and 1.52 for its derivative over 20,000 random points
# on each of 15 trajectories (collinear3 at alpha 1, 0.5 and 0.05: the h = 0
# oracle's samples, the h = 1 and h = -0.5 oracles, a kicked run and a
# quadrature trajectory); both routes round their logarithms alike, and the
# table route is the closer of the two to the long-double Hermite
LOG_RHO_GAP = 4.0 * np.finfo(float).eps


@pytest.fixture(scope="module")
def sampled_trajs(coll1):
    exact = mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=30.0)
    return {
        "oracle h = 0": dataclasses.replace(exact, exact_homothetic=False, meta={}),
        "oracle h = 1": mcgehee.homothetic_oracle(coll1, h=1.0, tau_max=30.0, phi_min=1e-6),
        "kicked": mcgehee.integrate_el(zero_energy_state(coll1, normal_kick(coll1, 1e-3)),
                                       coll1.masses, 1.0, 3.0, KICKED),
    }


@pytest.mark.parametrize("name", ["oracle h = 0", "oracle h = 1", "kicked"])
def test_log_rho_table_matches_the_weight_route(name, sampled_trajs):
    traj = sampled_trajs[name]
    t = np.sort(np.random.default_rng(9).uniform(traj.tau[0], traj.tau_end, 5000))
    size, h = hermite_term_sizes(traj, t)
    want_rho, want_rate = reference_rho_at(traj, t), reference_log_rho(traj, t, True)
    rho, rate = traj.rho_at(t), traj.log_rate(t)
    assert np.all(np.abs(np.log(rho) - np.log(want_rho)) <= LOG_RHO_GAP * size
                  + 2.0 * np.finfo(float).eps)
    assert np.all(np.abs(rate - want_rate) <= LOG_RHO_GAP * size / h)
    # evaluate's rho and rho' are rho_at and rho_at * log_rate
    got = traj.evaluate(t)
    assert got[0].tobytes() == rho.tobytes()
    assert got[1].tobytes() == (rho * rate).tobytes()
    # exact at the samples, where the weights are 0 and 1
    assert traj.rho_at(traj.tau).tobytes() == reference_rho_at(traj, traj.tau).tobytes()
    # the shape part keeps its Hermite weights, so a grid in two dimensions
    # reads the same values row by row
    grid = t[:4000].reshape(2, -1)
    np.testing.assert_array_equal(traj.rho_at(grid), rho[:4000].reshape(2, -1))
    np.testing.assert_array_equal(traj.log_rate(grid), rate[:4000].reshape(2, -1))


def test_log_rho_table_is_built_once(sampled_trajs, monkeypatch):
    traj = dataclasses.replace(sampled_trajs["kicked"])
    logs = []
    log = np.log
    monkeypatch.setattr(np, "log", lambda x: logs.append(np.size(x)) or log(x))
    t = np.linspace(0.5, 2.5, 7)
    for _ in range(3):
        traj.rho_at(t), traj.log_rate(t), traj.evaluate(t)
    # one logarithm of the samples, none per call
    assert logs == [traj.n_samples]


def test_potential_trace_is_formed_once(sampled_trajs, monkeypatch, tmp_path):
    traj = dataclasses.replace(sampled_trajs["kicked"])
    want = traj.potential_scale * nbody.potential_stack(traj.s, traj.masses, traj.alpha)
    rows = []
    stack = nbody.potential_stack
    monkeypatch.setattr(nbody, "potential_stack",
                        lambda x, m, alpha: rows.append(x.shape[:-2]) or stack(x, m, alpha))
    for _ in range(2):
        traj.to_csv(tmp_path / "t.csv")
        u, h = traj.potential_trace(), traj.energy_trace()
    # one potential of all the samples, none per call, and it is not to be changed
    assert rows == [(traj.n_samples,)]
    assert u.tobytes() == want.tobytes() and not u.flags.writeable
    assert h.tobytes() == mcgehee._energy_stack(traj.rho, traj.rho_prime, traj.s_prime,
                                                traj.masses, traj.alpha, want).tobytes()


def test_frozen_potential_trace_is_formed_at_one_row(coll1, monkeypatch):
    cc = central.embed_in_3d(central.ngon(5, 0.7))
    routes = [mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=5.0),
              mcgehee.homothetic_oracle(cc, h=-1.0, tau_max=5.0),
              mcgehee.homothetic_quadrature_trajectory(coll1, h=0.5, tau_max=5.0,
                                                       potential_scale=1.0 / 0.3)]
    # the per-sample evaluation, of every row of a writable copy of the samples
    wants = [t.potential_scale * nbody.potential_stack(t.s.copy(), t.masses, t.alpha)
             for t in routes]
    rows = []
    stack = nbody.potential_stack
    monkeypatch.setattr(nbody, "potential_stack",
                        lambda x, m, alpha: rows.append(x.shape[:-2]) or stack(x, m, alpha))
    for traj, want in zip(routes, wants):
        u = traj.potential_trace()
        assert u.shape == (traj.n_samples,) and not u.flags.writeable
        assert u.tobytes() == want.tobytes()
    assert rows == [(1,)] * len(routes)


def test_one_sample_trajectory_refuses_to_interpolate(coll1):
    # `ncol weakforce --tau-max 1e-9` builds such members; interpolating one
    # sample read the index -1 and returned NaN
    one = mcgehee.homothetic_quadrature_trajectory(coll1, h=0.5, tau_max=0.0)
    assert one.n_samples == 1
    for method in (one.evaluate, one.rho_at, one.log_rate):
        with pytest.raises(InsufficientHorizon, match="needs two samples, the trajectory has 1"):
            method(0.0)
    exact = mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=1.0)
    exact = dataclasses.replace(exact, tau=exact.tau[:1], rho=exact.rho[:1],
                                rho_prime=exact.rho_prime[:1])
    assert exact.rho_at(0.0)[0] == exact.evaluate(0.0)[0][0] == 1.0
    assert exact.log_rate(0.0)[0] == -exact.meta["decay_rate"]


def test_frozen_shape_is_read_from_the_data(coll1):
    assert mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=5.0).frozen_shape
    assert mcgehee.homothetic_oracle(coll1, h=2.0, tau_max=5.0).frozen_shape
    quad = mcgehee.homothetic_quadrature_trajectory(coll1, h=0.5, tau_max=5.0)
    assert quad.frozen_shape
    kicked = zero_energy_state(coll1, normal_kick(coll1, 1e-3))
    assert not mcgehee.integrate_el(kicked, coll1.masses, 1.0, tau_max=1.0).frozen_shape
    moved = quad.s.copy()
    moved[-1] = moved[-1, ::-1]
    assert not dataclasses.replace(quad, s=moved).frozen_shape


def assert_one_read_only_row(arr, row):
    assert arr.strides[0] == 0 and not arr.flags.writeable
    assert np.array_equal(arr[0], row)


def test_frozen_trajectories_hold_one_read_only_row(coll1):
    zero = np.zeros_like(coll1.s0)
    routes = [mcgehee.homothetic_oracle(coll1, h=h, tau_max=5.0) for h in (0.0, -1.0, 2.0)]
    routes.append(mcgehee.homothetic_quadrature_trajectory(coll1, h=0.5, tau_max=5.0))
    for traj in routes:
        assert traj.s.shape == traj.s_prime.shape == (traj.n_samples,) + coll1.s0.shape
        assert_one_read_only_row(traj.s, coll1.s0)
        assert_one_read_only_row(traj.s_prime, zero)
        with pytest.raises(ValueError, match="read-only"):
            traj.s[0, 0, 0] = 1.0
    t = np.linspace(0.0, 5.0, 101)
    _, _, s, s_p = routes[0].evaluate(t)
    assert s.shape == s_p.shape == (t.size,) + coll1.s0.shape
    assert_one_read_only_row(s, coll1.s0)
    assert_one_read_only_row(s_p, zero)


def test_probe_oracle_stores_no_copies_of_the_shape():
    # the `ncol morse --family ngon --n 8` oracle: 7,041 samples to tau = 440,
    # where K copies of s0 and K zero rows would take 2 x 1.35 MB
    import tracemalloc

    cc = central.embed_in_3d(central.ngon(8, 1.0))
    tracemalloc.start()
    try:
        traj = mcgehee.homothetic_oracle(cc, h=0.0, tau_max=440.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_samples == 7041
    assert peak < 2**19


def test_homothetic_oracle_agrees_with_flow(coll1):
    # dual check: independent physical-time route vs the tau-flow
    traj_o = mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=3.0)
    traj_f = mcgehee.integrate_el(zero_energy_state(coll1), coll1.masses, 1.0, tau_max=3.0,
                                  opts=mcgehee.IntegratorOptions(rtol=1e-12))
    t = np.linspace(0.1, 2.9, 100)
    rho_o = traj_o.evaluate(t)[0]
    rho_f = traj_f.evaluate(t)[0]
    assert np.max(np.abs(rho_o - rho_f) / rho_o) < 1e-8


def test_homothetic_oracle_positive_energy(coll1):
    traj = mcgehee.homothetic_oracle(coll1, h=2.0, tau_max=30.0, phi_min=1e-5)
    assert not traj.exact_homothetic
    assert np.all(np.diff(traj.rho) < 0.0)
    mask = traj.trusted_prefix(1e-6)
    assert np.max(np.abs(traj.energy_trace()[mask] - 2.0)) < 1e-6 * 3
    # monotone collapse of the physical radius
    phi = traj.rho ** (4.0 / (2.0 - traj.alpha))
    assert phi[-1] < 1e-4


@pytest.mark.parametrize("alpha,phi_min", [(1.9, 1e-8), (1.0, 1e-10)])
def test_homothetic_oracle_reaches_deep_phi_min(alpha, phi_min):
    # the last sample sits at the depth phi_min, however steep the collapse
    cc = central.collinear3(1.0, 1.0, alpha)
    traj = mcgehee.homothetic_oracle(cc, h=1.0, phi_min=phi_min)
    phi = traj.rho ** (4.0 / (2.0 - alpha))
    assert phi[-1] <= phi_min * (1.0 + 1e-9)
    assert np.all(np.diff(traj.rho) < 0.0)


def test_homothetic_initial_state_with_kick(coll1):
    rng = np.random.default_rng(5)
    raw = 0.3 * rng.standard_normal(coll1.s0.shape)  # neither tangent nor momentum-free
    kick = nbody.tangent_part(coll1.s0, coll1.masses, raw)
    nbody.check_tangent(coll1.s0, coll1.masses, kick, tol=1e-13)
    assert np.linalg.norm(kick) > 0.1
    for h, scale in ((0.0, 1.0), (-1.0, 1.0), (0.5, 1.0 / 0.3)):
        state = mcgehee.homothetic_initial_state(coll1, h=h, potential_scale=scale, kick=kick)
        state.validated(coll1.masses)
        assert np.array_equal(state.s_prime, kick) and state.rho_prime < 0.0
        got = mcgehee.energy(state, coll1.masses, coll1.alpha, scale)
        assert got == pytest.approx(h, rel=1e-12, abs=1e-12)
    with pytest.raises(NonCollapsing):
        mcgehee.homothetic_initial_state(coll1, h=0.0, kick=10.0 * kick)


def test_homothetic_oracle_rejects_bound_energy(coll1):
    with pytest.raises(NonCollapsing):
        mcgehee.homothetic_oracle(coll1, h=-coll1.b - 1.0)


def test_quadrature_trajectory_matches_oracle(coll1):
    h = -1.0
    qt = mcgehee.homothetic_quadrature_trajectory(coll1, h=h, tau_max=4.0)
    ot = mcgehee.homothetic_oracle(coll1, h=h, tau_max=4.0, phi_min=1e-10)
    t = np.linspace(0.05, min(qt.tau_end, ot.tau_end) * 0.98, 200)
    r1, rp1, _, _ = qt.evaluate(t)
    r2, rp2, _, _ = ot.evaluate(t)
    assert np.max(np.abs(r1 - r2) / r2) < 1e-5
    assert np.max(np.abs(rp1 - rp2) / np.abs(rp2)) < 1e-5


def reference_quadrature_trajectory(cc, h, tau_max, potential_scale=1.0, keep_every=64,
                                    chunk=1 << 14):
    """The trapezoid walk that homothetic_quadrature_trajectory replaced with
    its closed form; sigma, tau and speed at the kept grid points.

    The grid is np.linspace(0, sigma_end, n), walked in chunks of chunk
    intervals so that the fine grid (540,000 points for the alpha = 0.02
    member of `ncol weakforce`) is never held whole.  The trapezoid sums of
    1/speed are written in place, and the running clock is carried into the
    first sum of the next chunk, which adds in the order of one cumsum over
    the whole grid.  Every keep_every-th point is kept, and the last one at
    or before tau_max; the walk ends with the chunk that passes tau_max.
    """
    if not 0.0 <= tau_max < np.inf:
        raise ValueError(f"tau_max must be finite and non-negative, got {tau_max}")
    alpha = cc.alpha
    beta = mcgehee.beta_exponent(alpha)
    b = potential_scale * cc.b
    if h + b <= 0.0:
        raise NonCollapsing("energy admits no inward velocity from rho = 1")
    coef = (2.0 - alpha) / 4.0
    sigma_end = tau_max * coef * np.sqrt(2.0 * (max(h, 0.0) + b)) + 5.0
    n = int(np.ceil(sigma_end / 2e-4)) + 1
    dsigma = sigma_end / (n - 1)
    kept = []
    carry, stop = 0.0, n
    for i0 in range(0, n - 1, chunk):
        i1 = min(i0 + chunk, n - 1)
        sigma = np.arange(i0, i1 + 1, dtype=float) * dsigma
        if i1 == n - 1:
            sigma[-1] = sigma_end
        speed = coef * np.sqrt(2.0 * (h * np.exp(-(beta - 2.0) * sigma) + b))
        inv = 1.0 / speed
        tau = np.empty_like(sigma)
        tau[0] = carry
        steps = tau[1:]
        np.add(inv[1:], inv[:-1], out=steps)
        steps *= 0.5
        steps *= np.subtract(sigma[1:], sigma[:-1], out=inv[1:])
        steps[0] += carry
        np.cumsum(steps, out=steps)
        carry = tau[-1]
        count = int(np.searchsorted(tau, tau_max, side="right"))
        if count <= i1 - i0:
            stop = i0 + count
        # kept points of this chunk past its first, which the previous chunk kept
        first = 0 if i0 == 0 else i0 + 1 + (-(i0 + 1)) % keep_every
        local = np.arange(first, min(i1, stop - 1) + 1, keep_every) - i0
        done = stop < n or i1 == n - 1
        last = max(stop - 1, 0)
        if done and (last % keep_every or stop == 0):
            local = np.append(local, last - i0)
        kept.append((sigma[local], tau[local], speed[local]))
        if done:
            break
    return tuple(np.concatenate(parts) for parts in zip(*kept))


def walk_grid(cc, h, tau_max, scale):
    """The walk's grid: its point count n, its end sigma_end and its step."""
    coef = (2.0 - cc.alpha) / 4.0
    sigma_end = tau_max * coef * np.sqrt(2.0 * (max(h, 0.0) + scale * cc.b)) + 5.0
    n = int(np.ceil(sigma_end / 2e-4)) + 1
    return n, sigma_end, sigma_end / (n - 1)


def whole_grid_walk(cc, h, tau_max, scale, keep_every=64):
    """The trapezoid clock as one cumsum over the whole grid, out of place:
    sigma, tau and speed at every keep_every-th point and at the last point
    at or before tau_max."""
    alpha = cc.alpha
    beta, b, coef = mcgehee.beta_exponent(alpha), scale * cc.b, (2.0 - alpha) / 4.0
    n, sigma_end, _ = walk_grid(cc, h, tau_max, scale)
    sigma = np.linspace(0.0, sigma_end, n)
    speed = coef * np.sqrt(2.0 * (h * np.exp(-(beta - 2.0) * sigma) + b))
    inv = 1.0 / speed
    tau = np.concatenate([[0.0], np.cumsum(0.5 * (inv[1:] + inv[:-1]) * np.diff(sigma))])
    stop = np.searchsorted(tau, tau_max, side="right")
    keep = np.unique(np.concatenate([np.arange(0, stop, keep_every), [max(stop - 1, 0)]]))
    return sigma[keep], tau[keep], speed[keep]


def assert_matches_the_walk(qt, sigma, tau, speed, rtol=1e-10, next_term=0.0):
    """The walk's sample count, rho and rho' bitwise, and tau to rtol once
    next_term, what the closed form leaves out of the walk's clock, is added."""
    assert qt.n_samples == tau.size
    np.testing.assert_array_equal(qt.rho, np.exp(-sigma))
    np.testing.assert_array_equal(qt.rho_prime, -np.exp(-sigma) * speed)
    np.testing.assert_allclose(qt.tau + next_term, tau, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("alpha,h,scale", [(1.0, -1.0, 1.0), (1.0, 0.7, 1.0),
                                             (0.05, -60.0, 20.0), (1.6, 0.0, 1.0)])
def test_quadrature_clock_equals_out_of_place_formula(alpha, h, scale):
    # the closed-form clock with its trapezoid term against one cumsum over the whole grid
    cc = central.collinear3(1.0, 1.0, alpha)
    qt = mcgehee.homothetic_quadrature_trajectory(cc, h=h, tau_max=3.0, potential_scale=scale)
    assert_matches_the_walk(qt, *whole_grid_walk(cc, h, 3.0, scale))


@pytest.mark.parametrize("tau_max,keep_every,chunk", [
    (3.0, 64, 1 << 14), (3.0, 7, 1 << 14), (0.01, 5, 1 << 14), (12.0, 64, 1000),
    (12.0, 1, 999), (2.0, 3, 64), (1e-4, 4, 64)])
def test_quadrature_chunks_keep_the_whole_grid_samples(tau_max, keep_every, chunk):
    # the reference walk keeps, bitwise, the samples of one pass over the whole grid
    alpha, h, scale = 0.05, -40.0, 20.0
    cc = central.collinear3(1.0, 1.0, alpha)
    got = reference_quadrature_trajectory(cc, h, tau_max, scale, keep_every, chunk)
    for a, b in zip(got, whole_grid_walk(cc, h, tau_max, scale, keep_every)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("tau_max", [0.0, 1e-4, 0.01, 2.0, 3.0, 12.0])
def test_quadrature_trajectory_matches_the_walk(tau_max):
    alpha, h, scale = 0.05, -40.0, 20.0
    cc = central.collinear3(1.0, 1.0, alpha)
    qt = mcgehee.homothetic_quadrature_trajectory(cc, h=h, tau_max=tau_max, potential_scale=scale)
    assert_matches_the_walk(qt, *reference_quadrature_trajectory(cc, h, tau_max, scale))


def slope_changes(cc, h, scale, sigma):
    """f'(sigma) - f'(0) and f'''(sigma) - f'''(0) for f = 1/speed, the
    integrand of the frozen-shape clock.

    f = (1 + x)^(-1/2) / c with x = (h/b) e^(-k sigma), so dx/dsigma = -k x;
    b = scale U(s0) and c = ((2-alpha)/4) sqrt(2b).
    """
    k = mcgehee.beta_exponent(cc.alpha) - 2.0
    b = scale * cc.b
    c = (2.0 - cc.alpha) / 4.0 * np.sqrt(2.0 * b)
    x = h / b * np.exp(-k * np.append(0.0, sigma))
    d1 = k / (2.0 * c) * x * (1.0 + x) ** -1.5
    d3 = k**3 / (2.0 * c) * x * (1.0 - 2.5 * x + 0.25 * x**2) * (1.0 + x) ** -3.5
    return d1[1:] - d1[0], d3[1:] - d3[0]


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=1e-4, max_value=1.9),
       masses=st.sampled_from([(1.0, 1.0), (10.0, 0.1), (3.0, 1.0)]),
       tau_max=st.floats(min_value=0.0, max_value=40.0))
# rho underflows at tau ~ 5.42, inside the horizon
@example(alpha=0.0002, masses=(10.0, 0.1), tau_max=6.0)
def test_quadrature_trajectory_matches_the_walk_on_H_members(alpha, masses, tau_max):
    # (H)-normalised members as `ncol weakforce` builds them, on collapsing mass pairs
    from ncol import weakforce

    cc = central.collinear3(*masses, alpha)
    h, scale = weakforce.scaled_energy_for_H(cc.masses, alpha), 1.0 / alpha
    qt = mcgehee.homothetic_quadrature_trajectory(cc, h=h, tau_max=tau_max, potential_scale=scale)
    sigma, tau, speed = reference_quadrature_trajectory(cc, h, tau_max, scale)
    # Past 1e-10 relative, the gap is the walk's running-sum rounding, at most
    # n 2^-53 relative over its n points (3.1e-10 with n = 2.5e7), and the next
    # Euler-Maclaurin term -dsigma^4/720 (f'''(sigma) - f'''(0)), which passes
    # 1e-10 only where 1/speed is steep (3e-9 at masses (1, 1) and alpha 1.9)
    n, _, dsigma = walk_grid(cc, h, tau_max, scale)
    next_term = -dsigma**4 / 720.0 * slope_changes(cc, h, scale, sigma)[1]
    if qt.n_samples < tau.size:
        # the walk goes on to tau_max through rho = 0.0; the closed form's grid
        # stops one unit past the underflow of rho = e^(-sigma), in one last
        # sample of rho 0.0 after the walk's samples before it
        k = qt.n_samples - 1
        assert qt.rho[k] == 0.0 == np.exp(-sigma[k]) and qt.tau[k] <= tau_max
        qt = dataclasses.replace(qt, tau=qt.tau[:k], rho=qt.rho[:k],
                                 rho_prime=qt.rho_prime[:k], s=qt.s[:k], s_prime=qt.s_prime[:k])
        sigma, tau, speed, next_term = sigma[:k], tau[:k], speed[:k], next_term[:k]
    assert_matches_the_walk(qt, sigma, tau, speed, 1e-10 + n * 2.0**-53, next_term)


@pytest.mark.parametrize("alpha,gap", [(0.5, "7.03e-07"), (0.02, "6.16e-07")])
def test_trapezoid_term_is_the_gap_to_the_exact_clock(alpha, gap):
    # README's figure for `ncol weakforce`: the walk's clock is off the exact
    # one by dsigma^2/12 (f'(sigma) - f'(0)) alone, worst at the first sample
    from ncol import weakforce

    cc = central.collinear3(1.0, 1.0, alpha)
    h, scale = weakforce.scaled_energy_for_H(cc.masses, alpha), 1.0 / alpha
    sigma, tau, _ = reference_quadrature_trajectory(cc, h, 12.0, scale)
    exact = closed_form_clock(cc, h, sigma[1:], scale)
    dsigma = walk_grid(cc, h, 12.0, scale)[2]
    term = dsigma**2 / 12.0 * slope_changes(cc, h, scale, sigma[1:])[0]
    assert f"{np.max(np.abs(term) / exact):.2e}" == gap
    assert f"{np.max(np.abs(tau[1:] - exact) / exact):.2e}" == gap
    # the next term is 1.2e-12 relative at alpha = 0.5
    np.testing.assert_allclose(tau[1:], exact + term, rtol=1e-11)


@pytest.mark.parametrize("tau_max", [-1.0, np.nan, np.inf])
def test_quadrature_trajectory_rejects_a_bad_horizon(coll1, tau_max):
    with pytest.raises(ValueError, match="tau_max must be finite and non-negative"):
        mcgehee.homothetic_quadrature_trajectory(coll1, h=0.5, tau_max=tau_max)


@pytest.mark.parametrize("h", [0.0, 1.0])
@pytest.mark.parametrize("tau_max,phi_min", [(0.0, 1e-6), (np.nan, 1e-6), (np.inf, 1e-6),
                                             (30.0, 1.0), (30.0, 0.0)])
def test_homothetic_oracle_rejects_a_bad_horizon(coll1, h, tau_max, phi_min):
    with pytest.raises(ValueError, match="need 0 < tau_max < inf and 0 < phi_min < 1"):
        mcgehee.homothetic_oracle(coll1, h=h, tau_max=tau_max, phi_min=phi_min)


def test_homothetic_oracle_caps_its_samples(coll1):
    # one sample past the cap on the h = 0 grid, and a near-marginal energy
    # whose sigma grid would need about 10^8 samples
    for h, tau_max in ((0.0, mcgehee.ORACLE_MAX_TAU + 1.0 / 16.0),
                       (-coll1.b * (1.0 - 1e-10), 1e4)):
        with pytest.raises(ValueError, match=f"more than the cap of {mcgehee.ORACLE_MAX_SAMPLES}"):
            mcgehee.homothetic_oracle(coll1, h=h, tau_max=tau_max)


def test_quadrature_trajectory_never_holds_the_whole_grid():
    # the alpha = 0.02 member of `ncol weakforce`: a 540,000-point grid, 4.1 MB
    # per whole-grid array; the clock is evaluated at every 64th point only
    import tracemalloc

    from ncol import weakforce

    alpha = 0.02
    cc = central.collinear3(1.0, 1.0, alpha)
    h = weakforce.scaled_energy_for_H(cc.masses, alpha)
    tracemalloc.start()
    try:
        qt = mcgehee.homothetic_quadrature_trajectory(cc, h=h, tau_max=12.0,
                                                      potential_scale=1.0 / alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert qt.n_samples > 5000
    # 610,144 bytes measured: about nine arrays of the 8,438 points every 64th
    assert peak < 700_000


def test_asymptotic_report_needs_samples(coll1):
    from ncol.errors import InsufficientHorizon

    short = mcgehee.Trajectory(
        alpha=1.0, masses=coll1.masses.copy(), tau=np.linspace(0, 0.1, 5),
        rho=np.ones(5), rho_prime=-0.1 * np.ones(5),
        s=np.broadcast_to(coll1.s0, (5, 3, 2)).copy(),
        s_prime=np.zeros((5, 3, 2)), h=0.0)
    with pytest.raises(InsufficientHorizon):
        mcgehee.asymptotic_report(short, [coll1])


def test_asymptotic_report_homothetic(coll1):
    traj = mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=40.0)
    rep = mcgehee.asymptotic_report(traj, [coll1])
    assert rep.b_limit == pytest.approx(coll1.b, rel=1e-10)
    assert rep.rho_ratio_limit == pytest.approx(rep.rho_ratio_predicted, abs=1e-10)
    assert rep.dist_to_central < 1e-12
    assert rep.sprime_final == 0.0
    assert rep.dissipation_partial == 0.0


def test_asymptotic_report_perturbed(coll1):
    state = zero_energy_state(coll1, s_prime=normal_kick(coll1, 1e-6))
    traj = mcgehee.integrate_el(state, coll1.masses, 1.0, tau_max=10.0,
                                opts=mcgehee.IntegratorOptions(rtol=1e-11, max_step=0.05))
    with pytest.warns(UserWarning):
        triangle = central.ngon(3, 1.0)
    rep = mcgehee.asymptotic_report(traj, [coll1, triangle])
    assert rep.b_converged and rep.rho_ratio_converged
    assert abs(rep.rho_ratio_limit - rep.rho_ratio_predicted) < 1e-3
    assert abs(rep.b_limit - coll1.b) < 1e-3
    assert rep.dist_to_central < 1e-2
    assert rep.dissipation_partial >= 0.0


def test_sprime_decay_proxy_on_stable_mode(coll1):
    # a kick aligned with the decaying longitudinal mode keeps |s'| shrinking
    mu3 = spectral_top_eigenvalue = 2 * 3 * 2**1.5 + coll1.b
    c = mcgehee.homothetic_decay_rate(coll1)
    lam_minus = c - np.sqrt(c**2 + mu3)
    xi = np.zeros((3, 2))
    xi[:, 0] = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    eps = 1e-5
    m = coll1.masses
    s0p = coll1.s0 + eps * xi
    s0p -= nbody.center_of_mass(s0p, m)
    s0p /= np.sqrt(nbody.moment_of_inertia(s0p, m))
    spp = lam_minus * eps * xi
    spp -= float(np.sum(m[:, None] * s0p * spp)) * s0p
    u0 = nbody.potential(s0p, m, 1.0)
    sp2 = float(np.sum(m * np.sum(spp * spp, axis=1)))
    rp0 = -0.25 * np.sqrt(2.0 * (u0 - 0.5 * sp2))
    st0 = mcgehee.McGeheeState(rho=1.0, rho_prime=rp0, s=s0p, s_prime=spp)
    traj = mcgehee.integrate_el(st0, m, 1.0, tau_max=1.5,
                                opts=mcgehee.IntegratorOptions(rtol=1e-11, max_step=0.02))
    spn = traj.sprime_norm_trace()
    assert spn[-1] < spn[0]


def test_trajectory_csv_columns(tmp_path, coll1):
    traj = mcgehee.integrate_el(zero_energy_state(coll1), coll1.masses, 1.0, tau_max=1.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:3] == ["tau", "rho", "rho_prime"]
    assert header[-4:] == ["U_s", "h", "lambda1", "lambda2"]
    assert len(header) == 3 + 2 * 6 + 4


def test_trajectory_csv_bytes_match_savetxt(tmp_path, coll1):
    traj = mcgehee.integrate_el(zero_energy_state(coll1, normal_kick(coll1, 1e-3)),
                                coll1.masses, 1.0, tau_max=1.0)
    # non-finite and signed-zero fields format as savetxt formats them
    traj = dataclasses.replace(traj, rho_prime=np.concatenate(
        [[-0.0, np.nan, np.inf, -np.inf, 5e-324], traj.rho_prime[5:]]))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    want = io.StringIO()
    rows = np.column_stack([traj.tau, traj.rho, traj.rho_prime,
                            traj.s.reshape(traj.n_samples, -1),
                            traj.s_prime.reshape(traj.n_samples, -1), traj.potential_trace(),
                            traj.energy_trace(), -traj.beta * traj.energy_trace(),
                            traj.lambda2_trace()])
    np.savetxt(want, rows, delimiter=",")
    got = path.read_text().split("\n", 1)[1]
    assert got == want.getvalue()


# ---------------------------------------------------------------------------
# the DOP853 stepper and the tau-flow RHS against their plain forms


def test_dop853_tableau_order_conditions():
    a, c = mcgehee._DOP_A, mcgehee._DOP_C
    # every stage, the dense-output ones included, sits at its node
    np.testing.assert_allclose(a.sum(axis=1), c, rtol=0.0, atol=2e-15)
    assert np.all(a[np.triu_indices(16)] == 0.0)
    b = mcgehee._DOP_B
    for q in range(1, 9):
        assert abs(np.sum(b * c[:12] ** (q - 1)) - 1.0 / q) < 1e-14
    # the embedded estimates vanish on a constant right-hand side
    assert abs(mcgehee._DOP_E5.sum()) < 1e-14
    assert abs(mcgehee._DOP_E3.sum()) < 1e-14
    # and on the bushy trees of their own orders
    for q in range(1, 6):
        assert abs(np.sum(mcgehee._DOP_E5 * c[:12] ** (q - 1))) < 1e-13
    for q in range(1, 4):
        assert abs(np.sum(mcgehee._DOP_E3 * c[:12] ** (q - 1))) < 1e-13


def dop853_step(f, t, y, hstep):
    """One DOP853 step: its end and the dense-output coefficients over it."""
    ks = np.empty((16, y.size))
    ks[0] = f(t, y)
    incr = mcgehee._step_stages(f, t, y, hstep, ks)[0]
    y_new = y + hstep * incr
    ks[12] = f(t + hstep, y_new)
    return y_new, ks, mcgehee._dense_coefficients(f, t, y, y_new, hstep, ks)


def test_dense_output_meets_the_step_ends_with_their_slopes():
    a = np.array([[0.0, 1.0, 0.2], [-1.0, 0.1, 0.0], [0.3, 0.0, -0.5]])

    def f(t, y):
        return a @ np.tanh(y) + np.cos(t)

    y0, t0, hstep = np.array([0.4, -1.2, 0.7]), 0.3, 0.6
    y1, ks, coef = dop853_step(f, t0, y0, hstep)
    ends = mcgehee._dense_values(coef, y0, np.array([[0.0], [1.0]]))
    np.testing.assert_array_equal(ends[0], y0)
    np.testing.assert_allclose(ends[1], y1, rtol=1e-15, atol=1e-15)
    # slopes in the step fraction x: the nested form expanded per component
    x = np.polynomial.Polynomial([0.0, 1.0])
    for i in range(y0.size):
        p = coef[6, i] * x
        for r in range(5, -1, -1):
            p = (p + coef[r, i]) * (x if r % 2 == 0 else 1.0 - x)
        dp = p.deriv()
        assert dp(0.0) == pytest.approx(hstep * ks[0, i], rel=1e-13, abs=1e-15)
        assert dp(1.0) == pytest.approx(hstep * ks[12, i], rel=1e-13, abs=1e-15)


def test_dense_output_is_seventh_order():
    # exact on y' = t^k for k <= 6, and not for k = 7
    def poly(t, y):
        return t ** np.arange(8.0)

    t0, hstep = 0.3, 0.7
    y0 = np.zeros(8)
    _, _, coef = dop853_step(poly, t0, y0, hstep)
    x = np.linspace(0.05, 0.95, 7)[:, None]
    t = t0 + x * hstep
    k = np.arange(8.0)
    exact = (t ** (k + 1) - t0 ** (k + 1)) / (k + 1)
    err = np.abs(mcgehee._dense_values(coef, y0, x) - exact).max(axis=0)
    assert np.all(err[:7] < 1e-15)
    assert err[7] > 1e-9
    # on y' = -y + sin(t) the error between the step ends falls like h^8
    def f(t, y):
        return -y + np.sin(t)

    def exact_sol(t):  # y(0) = 1
        return 1.5 * np.exp(-t) + 0.5 * (np.sin(t) - np.cos(t))

    errs = []
    for hstep in (0.8, 0.4):
        _, _, coef = dop853_step(f, 0.0, np.array([1.0]), hstep)
        x = np.array([[0.3], [0.5], [0.7]])
        got = mcgehee._dense_values(coef, np.array([1.0]), x)[:, 0]
        errs.append(np.abs(got - exact_sol(x[:, 0] * hstep)).max())
    assert errs[0] / errs[1] > 2.0 ** 7


def _ref_sum(weights, ks):
    """sum_j w_j k_j added one stage after another, from the first term."""
    terms = [w * k for w, k in zip(weights, ks)]
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


_REF_DOP_A = mcgehee._DOP_A.tolist()
_REF_DOP_C = mcgehee._DOP_C.tolist()
_REF_DOP_B = mcgehee._DOP_B.tolist()
_REF_DOP_E5 = mcgehee._DOP_E5.tolist()
_REF_DOP_E3 = mcgehee._DOP_E3.tolist()
_REF_DOP_D = mcgehee._DOP_D.tolist()


def reference_dop853(f, t, y, hstep, running, *, rtol, atol, floor, project,
                     sample_gap=np.inf, t_end=np.inf, max_steps=np.inf):
    """The DOP853 stepper with its stages summed one by one in Python."""
    ts, ys = [t], [y.copy()]
    k1 = f(t, y)
    attempts = 0
    while running(t, y):
        if attempts >= max_steps:
            raise StepFailure(f"step budget spent: {attempts} attempted steps, "
                              f"{len(ts) - 1} accepted, at t = {t}")
        attempts += 1
        hstep = min(hstep, t_end - t)
        if hstep < floor(t):
            raise StepFailure(f"step size underflow at t = {t}")
        ks = [k1]
        for i in range(1, 12):
            ks.append(f(t + _REF_DOP_C[i] * hstep, y + hstep * _ref_sum(_REF_DOP_A[i][:i], ks)))
        y8 = y + hstep * _ref_sum(_REF_DOP_B, ks)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y8))
        err5 = np.sum((_ref_sum(_REF_DOP_E5, ks) / sc) ** 2)
        err3 = np.sum((_ref_sum(_REF_DOP_E3, ks) / sc) ** 2)
        deno = err5 + 0.01 * err3
        if deno <= 0.0:
            deno = 1.0
        err = hstep * err5 / np.sqrt(y.size * deno)
        if err <= 1.0:
            t_old, y_old = t, y
            t += hstep
            y = project(t, y8)
            ks.append(f(t, y))
            pieces = int(np.ceil(hstep / sample_gap))
            if pieces > 1:
                for i in range(13, 16):
                    ks.append(f(t_old + _REF_DOP_C[i] * hstep,
                                y_old + hstep * _ref_sum(_REF_DOP_A[i][:i], ks)))
                f0 = y - y_old
                f1 = hstep * ks[0] - f0
                f2 = f0 - hstep * ks[12] - f1
                f3, f4, f5, f6 = (hstep * _ref_sum(row, ks) for row in _REF_DOP_D)
                for k in range(1, pieces):
                    x = k / pieces
                    yk = y_old + x * (f0 + (1 - x) * (f1 + x * (f2 + (1 - x) * (
                        f3 + x * (f4 + (1 - x) * (f5 + x * f6))))))
                    tk = t_old + x * hstep
                    yk = project(tk, yk)
                    ts.append(tk)
                    ys.append(yk.copy())
                    if not running(tk, yk):
                        return np.array(ts), np.array(ys)
            ts.append(t)
            ys.append(y.copy())
            k1 = ks[12]
        factor = 0.9 * err ** -0.125 if err > 0 else 6.0
        hstep *= min(6.0, max(1.0 / 3.0, factor))
    return np.array(ts), np.array(ys)


def test_stage_sums_match_the_one_by_one_sums():
    # the stepper weights its stages by matrix products, which round as the
    # BLAS pleases; each sum stays within the rounding bound of its terms
    rng = np.random.default_rng(3)
    ks = rng.standard_normal((16, 7)) * 10.0 ** rng.uniform(-3, 3, size=(16, 1))
    gap = 16 * np.finfo(float).eps
    rows = [(mcgehee._DOP_STAGE_ROWS[i], ks[:i]) for i in range(1, 16)]
    rows += [(w, ks[:12]) for w in mcgehee._DOP_WEIGHTS] + [(w, ks) for w in mcgehee._DOP_D]
    for w, k in rows:
        np.testing.assert_array_less(np.abs(w @ k - _ref_sum(w, k)),
                                     gap * np.abs(w) @ np.abs(k) + 1e-300)


def rotation_problem(rng, n):
    """y' = (1 + cos(t) / 2) A y with A skew: |y| stays |y0|, and
    y(t) = exp(A (t + sin(t) / 2)) y0 in closed form."""
    b = rng.standard_normal((n, n))
    a = b - b.T
    lam, vec = np.linalg.eig(a)
    y0 = rng.standard_normal(n)
    coeff = np.linalg.solve(vec, y0)

    def f(t, y):
        return (1.0 + 0.5 * np.cos(t)) * (a @ y)

    def exact(t):
        phase = np.exp(np.multiply.outer(t + 0.5 * np.sin(t), lam))
        return (phase * coeff) @ vec.T

    return f, y0, lambda t: exact(t).real


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(2, 6))
def test_dop853_matches_reference_stepper(seed, n):
    # the error norm forms small differences of the stages, so a rounding
    # change moves every later step size (by about 1e-6 relative at rtol
    # 1e-11) and the two runs store different taus.  So the gates: the same
    # stop reason, and an error against the closed form no worse than the
    # reference stepper's.  Over 2,000 draws the ratio stayed within
    # 0.994 to 1.002 and the error below 2.2 rtol.
    rng = np.random.default_rng(seed)
    f, y0, exact = rotation_problem(rng, n)
    r0 = np.linalg.norm(y0)
    bound = np.max(np.abs(y0)) + 0.3
    rtol = 10.0 ** rng.uniform(-11, -6)

    def project(_t, y):
        y *= r0 / np.sqrt(y @ y)  # in place, as the tau-flow's reprojection
        return y

    def running(t, y):
        return t < 3.0 and np.max(np.abs(y)) < bound

    def project_block(ts, ys):
        for t, y in zip(ts, ys):
            project(t, y)
        return ys

    def stop(ts, ys):
        return next((i for i, (t, y) in enumerate(zip(ts, ys)) if not running(t, y)), None)

    kw = dict(rtol=rtol, atol=1e-12, floor=lambda t: 1e-14, sample_gap=0.1, t_end=3.0)
    got = mcgehee._dop853(f, 0.0, y0.copy(), 1e-3, project=project_block, stop=stop, **kw)
    want = reference_dop853(f, 0.0, y0.copy(), 1e-3, running, project=project, **kw)
    assert np.all(np.diff(got[0]) <= 0.1 * (1.0 + 1e-12))
    # the same stop: the horizon, or the first sample past the bound
    assert (got[0][-1] >= 3.0) == (want[0][-1] >= 3.0)
    err_got, err_want = (np.max(np.abs(ys - exact(ts))) for ts, ys in (got, want))
    assert err_got <= 2.0 * err_want + 1e-12
    assert err_got <= 10.0 * rtol * max(1.0, r0)


def horizon_stop(t_stop):
    """A stop(ts, ys) for _dop853 that ends the run at the first row at or past t_stop."""
    return lambda ts, ys: next((i for i, t in enumerate(ts) if not t < t_stop), None)


def test_dop853_step_budget():
    calls = [0]

    def f(t, y):
        calls[0] += 1
        return np.array([y[1], -y[0]])

    def solve(**budget):
        # a first step of 1 fails the error test, so some attempts are rejected
        calls[0] = 0
        return mcgehee._dop853(f, 0.0, np.array([1.0, 0.0]), 1.0, rtol=1e-10, atol=1e-12,
                               floor=lambda t: 1e-14, project=lambda ts, ys: ys,
                               stop=horizon_stop(10.0), t_end=10.0, **budget)

    ts, ys = solve()
    # accepted and rejected steps: one right-hand side to start, 11 stages an
    # attempt and one fresh f(t, y) an accepted step (no step is cut)
    steps, rest = divmod(calls[0] - 1 - (ts.size - 1), 11)
    assert rest == 0
    assert steps > ts.size - 1
    for t_got, t_want in zip(solve(max_steps=steps), (ts, ys)):
        np.testing.assert_array_equal(t_got, t_want)
    with pytest.raises(StepFailure, match=f"budget spent: {steps - 1} attempted steps"):
        solve(max_steps=steps - 1)


def test_dop853_shrinks_a_step_with_a_nan_error_norm():
    # f is NaN past t = 0.5, so the first step of 1 has a NaN error norm; it
    # is rejected and retried at 1/3 (a factor of 6 grew it without end)
    stages = []

    def f(t, y):
        stages.append(t)
        return np.array([np.nan if t > 0.5 else 1.0])

    ts, ys = mcgehee._dop853(f, 0.0, np.array([0.0]), 1.0, rtol=1e-10, atol=1e-12,
                             floor=lambda t: 1e-14, project=lambda ts, ys: ys,
                             stop=horizon_stop(0.1))
    assert max(stages[1:12]) == 1.0 and max(stages[12:23]) == 1.0 / 3.0
    np.testing.assert_array_equal(ts, [0.0, 1.0 / 3.0])
    assert ys[-1, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)


_REF_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_REF_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_REF_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_REF_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100,
                    1 / 40])


def reference_dp54(f, t, y, hstep, running, *, rtol, atol, floor, admissible):
    """Dormand-Prince 5(4) with its stages summed one by one in Python, for
    reference_physical_time: a stage or solution that is not admissible
    halves the step, and an accepted step reuses its last stage (FSAL)."""
    ts, ys = [t], [y.copy()]
    k1 = f(t, y)
    while running(t, y):
        if hstep < floor(t):
            raise StepFailure(f"step size underflow at t = {t}")
        ks = [k1]
        ok = True
        for i in range(1, 7):
            yi = y + hstep * sum(a * k for a, k in zip(_REF_A[i], ks))
            ok = admissible(yi)
            if not ok:
                break
            ks.append(f(t + _REF_C[i] * hstep, yi))
        if ok:
            ks = np.array(ks)
            y5 = y + hstep * (_REF_B5 @ ks)
            y4 = y + hstep * (_REF_B4 @ ks)
            ok = admissible(y5)
        if not ok:
            hstep *= 0.5
            continue
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = np.sqrt(np.mean(((y5 - y4) / sc) ** 2))
        if err <= 1.0:
            t += hstep
            y = y5
            ts.append(t)
            ys.append(y.copy())
            k1 = ks[6]
        factor = 0.9 * err ** (-0.2) if err > 0 else 5.0
        hstep *= min(5.0, max(0.2, factor))
    return np.array(ts), np.array(ys)


def reference_physical_time(cc, h, tau_max, phi_min):
    """The frozen-shape collapse integrated in physical time.

    Steps phidd = -alpha U(s0) phi^(-(alpha+1)) for the physical radius
    together with the clock dtau/dt = phi^(-(2+alpha)/2) at rtol 1e-11, until
    phi <= phi_min or tau >= tau_max; no stage may carry phi below phi_min / 2.
    Returns the physical times, tau, rho and rho' of the accepted steps.
    """
    alpha, b = cc.alpha, cc.b

    def f(_t, y):
        phi, v, _ = y
        return np.array([v, -alpha * b * phi ** (-(alpha + 1.0)),
                         phi ** (-(2.0 + alpha) / 2.0)])

    ts, ys = reference_dp54(f, 0.0, np.array([1.0, -np.sqrt(2.0 * (h + b)), 0.0]), 1e-4,
                            lambda _t, y: y[0] > phi_min and y[2] < tau_max,
                            rtol=1e-11, atol=1e-300, floor=lambda _t: 1e-18,
                            admissible=lambda y: y[0] > 0.5 * phi_min)
    phi, phidot, tau = ys.T
    rho = phi ** ((2.0 - alpha) / 4.0)
    rho_p = (2.0 - alpha) / 4.0 * phidot * phi ** ((2.0 + alpha) / 4.0)
    return ts, tau, rho, rho_p


def closed_form_clock(cc, h, sigma, scale=1.0):
    """tau(sigma) = [sigma + (2/k) ln((1 + v(sigma)) / (1 + v(0)))] / c along the
    frozen-shape collapse, with v = sqrt(1 + (h/b) e^(-k sigma)), b = scale U,
    k = beta - 2 and c = ((2-alpha)/4) sqrt(2b)."""
    k, b = mcgehee.beta_exponent(cc.alpha) - 2.0, scale * cc.b
    v = np.sqrt(1.0 + h / b * np.exp(-k * sigma))
    v0 = np.sqrt(1.0 + h / b)
    c = (2.0 - cc.alpha) / 4.0 * np.sqrt(2.0 * b)
    return (sigma + 2.0 / k * np.log((1.0 + v) / (1.0 + v0))) / c


def test_zero_energy_collapse_matches_physical_time(coll1):
    # the closed collapse law r(t) = k (T - t)^(2/(2+alpha)) and rho = exp(-c tau)
    ts, tau, rho, _ = reference_physical_time(coll1, 0.0, 50.0, 1e-6)
    alpha, b = coll1.alpha, coll1.b
    k = (b * (2.0 + alpha) ** 2 / 2.0) ** (1.0 / (2.0 + alpha))
    assert k**3 == pytest.approx(4.5 * b, rel=1e-12)  # k^3 = 9 U / 2 in the Newtonian case
    exact = mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=50.0)
    assert np.max(np.abs(exact.rho_at(tau) - rho) / rho) < 1e-8
    # the power law is phase sensitive near the collapse endpoint, so it is
    # checked away from it; the exponential covers the tail
    phi = rho ** (4.0 / (2.0 - alpha))
    mask = phi >= 1e-2
    t_coll = 2.0 / ((2.0 + alpha) * np.sqrt(2.0 * b))
    closed_r = k * (t_coll - ts[mask]) ** (2.0 / (2.0 + alpha))
    assert np.max(np.abs(phi[mask] - closed_r) / phi[mask]) < 1e-8


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 1.9])
@pytest.mark.parametrize("h", [-1.0, 0.0, 1.0, 2.0])
def test_homothetic_oracle_matches_physical_time(alpha, h):
    cc = central.collinear3(1.0, 1.0, alpha)
    traj = mcgehee.homothetic_oracle(cc, h=h, tau_max=30.0, phi_min=1e-6)
    _, tau, rho, rho_p = reference_physical_time(cc, h, 30.0, 1e-6)
    inside = tau <= traj.tau_end
    assert inside.sum() > 0.9 * tau.size
    got, got_p, _, _ = traj.evaluate(tau[inside])
    assert np.max(np.abs(got / rho[inside] - 1.0)) < 1e-8
    assert np.max(np.abs(got_p / rho_p[inside] - 1.0)) < 1e-7


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 1.9])
@pytest.mark.parametrize("a", [-0.99, -0.3, 0.2, 1.0])
def test_oracle_interpolant_matches_the_closed_form_between_samples(alpha, a):
    cc = central.collinear3(1.0, 1.0, alpha)
    h = a * cc.b
    traj = mcgehee.homothetic_oracle(cc, h=h, tau_max=30.0, phi_min=1e-6)
    sigma = -np.log(traj.rho)
    np.testing.assert_allclose(traj.tau, closed_form_clock(cc, h, sigma), rtol=1e-12)
    mid = 0.5 * (sigma[1:] + sigma[:-1])
    err = np.abs(traj.rho_at(closed_form_clock(cc, h, mid)) * np.exp(mid) - 1.0)
    assert np.max(err) < 1e-10
    # the samples are no sparser than the 1/16 tau step of the h = 0 grid
    assert np.max(np.diff(traj.tau)) <= 1.0 / 16.0 * (1.0 + 1e-12)


def test_frozen_shape_routes_take_no_ode_step(coll1, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a frozen-shape route called the DOP853 stepper")

    monkeypatch.setattr(mcgehee, "_dop853", refuse)
    assert mcgehee.homothetic_oracle(coll1, h=0.0, tau_max=30.0).exact_homothetic
    for h in (-1.0, 1.0):
        assert mcgehee.homothetic_oracle(coll1, h=h, tau_max=30.0).n_samples > 1
    assert mcgehee.homothetic_quadrature_trajectory(coll1, h=0.5, tau_max=10.0).n_samples > 1


def reference_flow(alpha, m, h, scale, d):
    """The tau-flow right-hand side with two pair sums and a concatenated output."""
    beta = mcgehee.beta_exponent(alpha)
    coef = ((2.0 - alpha) / 4.0) ** 2
    n = m.size

    def f(_tau, y):
        rho, p = y[0], y[1]
        s = y[2:2 + n * d].reshape(n, d)
        u = y[2 + n * d:].reshape(n, d)
        pot = scale * float(nbody.potential_stack(s, m, alpha))
        grad = scale * nbody.gradient_stack(s, m, alpha)
        sp2 = float(np.sum(m * np.sum(u * u, axis=1)))
        dp = coef * (rho * (sp2 + 2.0 * pot) + beta * h * rho ** (beta - 1.0))
        grad_tan = grad / m[:, None] + alpha * pot * s
        du = -2.0 * (p / rho) * u + grad_tan - sp2 * s
        return np.concatenate([[p, dp], u.ravel(), du.ravel()])

    return f


def reference_integrate(state, m, alpha, tau_max, opts):
    """integrate_el's run on the reference route: reference_dop853 stepping
    reference_flow, with the reprojection written out with np.sum.  Returns
    the stored taus and states and the stop reason."""
    n, d = state.s.shape

    def project(_tau, y):
        s = y[2:2 + n * d].reshape(n, d)
        u = y[2 + n * d:].reshape(n, d)
        s /= np.sqrt(float(np.sum(m * np.sum(s * s, axis=1))))
        u -= float(np.sum(m[:, None] * s * u)) * s
        return y

    collapsed = False

    def running(tau, y):
        nonlocal collapsed
        # a bounce: rho' >= 0 at a sample after one with rho' < 0
        if y[1] >= 0.0 and collapsed:
            return False
        collapsed = collapsed or y[1] < 0.0
        return tau < tau_max and y[0] > opts.rho_min

    f = reference_flow(alpha, m, mcgehee.energy(state, m, alpha), 1.0, d)
    y0 = np.concatenate([[state.rho, state.rho_prime], state.s.ravel(), state.s_prime.ravel()])
    taus, ys = reference_dop853(f, 0.0, y0, mcgehee.FIRST_STEP, running,
                                rtol=opts.rtol / 16.0, atol=1e-12 / 16.0,
                                floor=lambda tau: 1e-14 * max(1.0, tau),
                                sample_gap=0.5 * opts.max_step, t_end=tau_max, project=project)
    stop = ("tau_max" if taus[-1] >= tau_max else "rho_min" if ys[-1, 0] <= opts.rho_min
            else "bounce")
    return taus, ys, stop


KICKED = mcgehee.IntegratorOptions(rtol=1e-11, max_step=0.05)


def reference_run(name):
    """(cc, initial state, tau_max, options) of one reference-route case."""
    if name.startswith("kicked"):
        cc = central.collinear3(1.0, 1.0, float(name.split()[-1]))
        return cc, zero_energy_state(cc, normal_kick(cc, 1e-3)), 3.0, KICKED
    if name == "unequal masses":
        # masses that round m_i s_i, so the reprojection's association shows
        cc = central.collinear3(3.0, 0.5, 0.8)
        kick = nbody.tangent_part(cc.s0, cc.masses, np.random.default_rng(2).normal(size=(3, 2)))
        state = mcgehee.homothetic_initial_state(cc, kick=1e-3 * kick / np.linalg.norm(kick))
        return cc, state, 1.0, mcgehee.IntegratorOptions()
    if name == "ngon 8 in 3d":
        cc = central.embed_in_3d(central.ngon(8, 1.0))
        return cc, mcgehee.homothetic_initial_state(cc), 1.5, mcgehee.IntegratorOptions()
    cc = central.collinear3(1.0, 1.0, 1.0)
    return cc, zero_energy_state(cc), 80.0, mcgehee.IntegratorOptions()


def columns(rho, rho_p, s, s_p):
    """rho, rho' and the shape components as the columns of one (samples, 2 + 2Nd) array."""
    return np.column_stack([rho, rho_p, s.reshape(rho.size, -1), s_p.reshape(rho.size, -1)])


@pytest.mark.parametrize("run", ["kicked alpha 1", "kicked alpha 0.05", "ngon 8 in 3d",
                                 "rho_min floor", "unequal masses"])
def test_integrate_el_matches_the_reference_route(run):
    # the README's gates in place of a bitwise contract: the float right-hand
    # side and the matrix-product stage sums round differently from the
    # reference route (the right-hand side and stepper written out term by
    # term), so integrate_el must stop for the same reason and be no less
    # accurate than that route against a fine run of it
    cc, state, tau_max, opts = reference_run(run)
    traj = mcgehee.integrate_el(state, cc.masses, cc.alpha, tau_max, opts)
    taus, ys, stop = reference_integrate(state, cc.masses, cc.alpha, tau_max, opts)
    assert traj.n_samples > 50
    if run == "rho_min floor":
        # which of the two ends this run takes turns on last-bit rounding
        assert {traj.meta["stop"], stop} <= {"rho_min", "bounce"}
    else:
        assert traj.meta["stop"] == stop
    fine_opts = dataclasses.replace(opts, rtol=1e-12, max_step=opts.max_step / 8.0)
    fine_tau, fine_y, _ = reference_integrate(state, cc.masses, cc.alpha, tau_max, fine_opts)
    n, d = cc.s0.shape
    fine = mcgehee.Trajectory(
        alpha=cc.alpha, masses=cc.masses, tau=fine_tau, rho=fine_y[:, 0],
        rho_prime=fine_y[:, 1], s=fine_y[:, 2:2 + n * d].reshape(-1, n, d),
        s_prime=fine_y[:, 2 + n * d:].reshape(-1, n, d), h=traj.h)

    def error(tau, y):
        # over the trusted prefix, inside the fine run's horizon, and before
        # the first near-binary passage: the unequal-mass run passes within
        # 7e-6 of one at tau = 0.73, where s' changes by 10 in 1e-9 of tau,
        # so an error at fixed tau measures the phase of the passage (one-ulp
        # changes of the first step moved the error ratio there up to 4.4)
        keep = (tau <= fine.tau_end) & dataclasses.replace(
            traj, tau=tau, rho=y[:, 0]).trusted_prefix(1e-8)
        closest = nbody.pair_separations(y[:, 2:2 + n * d].reshape(-1, n, d))[3].min(axis=1)
        keep &= np.logical_and.accumulate(closest >= 1e-2)
        return np.max(np.abs(y[keep] - columns(*fine.evaluate(tau[keep]))), axis=0)

    got = error(traj.tau, columns(traj.rho, traj.rho_prime, traj.s, traj.s_prime))
    want = error(taus, ys)
    np.testing.assert_array_less(got, 2.0 * want + 1e-12)


def random_flow_point(seed, n, d):
    """Masses and a flattened state (rho, rho', s, s') with s on the ellipsoid,
    or None when two bodies of the draw lie closer than 1e-3."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.5, 2.0, size=n)
    s = rng.uniform(-1.0, 1.0, size=(n, d))
    if nbody.min_distance(s) < 1e-3:
        return None
    s /= np.sqrt(nbody.moment_of_inertia(s, m))
    return m, np.concatenate([[rng.uniform(1e-3, 2.0), rng.standard_normal()], s.ravel(),
                              rng.standard_normal(n * d)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(7, 9),
       d=st.sampled_from([1, 2, 3]), alpha=st.floats(0.01, 1.99),
       h=st.floats(-2.0, 2.0), scale=st.sampled_from([1.0, 0.3, 7.0]))
def test_flow_rhs_matches_reference_and_sums_pairs_once(seed, n, d, alpha, h, scale):
    # beyond FLOAT_RHS_MAX_N bodies the right-hand side is the numpy route,
    # bitwise the reference
    assert n > mcgehee.FLOAT_RHS_MAX_N
    point = random_flow_point(seed, n, d)
    if point is None:
        return
    m, y = point
    want = reference_flow(alpha, m, h, scale, d)(0.0, y)
    calls = []
    separations = nbody.pair_separations
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nbody, "pair_separations", lambda x: calls.append(1) or separations(x))
        got = mcgehee._flow(alpha, m, h, scale, d)(0.0, y)
    np.testing.assert_array_equal(got, want)
    # one pass over the pairs per call
    assert len(calls) == 1


def flow_term_sizes(alpha, m, h, scale, d, y):
    """Per component of the right-hand side, the sum of the sizes of the terms
    that form it: 0 where it copies rho' or s'."""
    n, nd = m.size, m.size * d
    rho, p = y[0], y[1]
    s, u = y[2:2 + nd].reshape(n, d), y[2 + nd:].reshape(n, d)
    ii, jj, diff, dist = nbody.pair_separations(s)
    mm = m[ii] * m[jj]
    pot = scale * np.sum(mm * dist ** -alpha)
    sp2 = np.sum(m[:, None] * u * u)
    beta = mcgehee.beta_exponent(alpha)
    sizes = np.zeros(y.size)
    sizes[1] = ((2.0 - alpha) / 4.0) ** 2 * (
        rho * (sp2 + 2.0 * pot) + abs(beta * h * rho ** (beta - 1.0)))
    force = (scale * alpha * mm * dist ** -(alpha + 2.0))[:, None] * np.abs(diff)
    pulls = np.zeros((n, d))
    np.add.at(pulls, ii, force)
    np.add.at(pulls, jj, force)
    sizes[2 + nd:] = (2.0 * abs(p / rho) * np.abs(u) + pulls / m[:, None]
                      + (alpha * pot + sp2) * np.abs(s)).ravel()
    return sizes


# the float right-hand side against the numpy one, in units of the sizes of
# the terms of each component: at most 10.1 eps over 50,000 draws of
# test_float_rhs_matches_the_numpy_route's distribution
FLOAT_RHS_GAP = 32 * np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(2, mcgehee.FLOAT_RHS_MAX_N), d=st.sampled_from([1, 2, 3]),
       alpha=st.floats(0.01, 1.99), h=st.floats(-2.0, 2.0),
       scale=st.sampled_from([1.0, 0.3, 7.0]))
def test_float_rhs_matches_the_numpy_route(seed, n, d, alpha, h, scale):
    point = random_flow_point(seed, n, d)
    if point is None:
        return
    m, y = point
    want = mcgehee._array_flow(alpha, m, h, scale, d)(0.0, y)
    got = mcgehee._flow(alpha, m, h, scale, d)(0.0, y)
    sizes = flow_term_sizes(alpha, m, h, scale, d, y)
    # rho' and s' are copied, the rest agrees to rounding
    np.testing.assert_array_equal(got[sizes == 0.0], want[sizes == 0.0])
    assert np.all(np.abs(got - want) <= FLOAT_RHS_GAP * sizes)


@pytest.mark.parametrize("n", [3, mcgehee.FLOAT_RHS_MAX_N, mcgehee.FLOAT_RHS_MAX_N + 1])
def test_both_rhs_routes_refuse_a_close_pair(n):
    m, y = random_flow_point(5, n, 2)
    # the last body a hair from the first
    y[2 + 2 * (n - 1):2 + 2 * n] = y[2:4] + [3e-13, 4e-13]
    for route in (mcgehee._float_flow, mcgehee._array_flow, mcgehee._flow):
        with pytest.raises(CollisionConfiguration, match="minimum pair distance 5.000e-13"):
            route(1.0, m, 0.0, 1.0, 2)(0.0, y)


@pytest.mark.parametrize("n", [3, mcgehee.FLOAT_RHS_MAX_N + 1])
def test_both_rhs_routes_return_nan_where_rho_is_not_positive(n):
    m, y = random_flow_point(5, n, 2)
    for rho in (0.0, -1e-9, -0.3):
        y[0] = rho
        for route in (mcgehee._float_flow, mcgehee._array_flow):
            out = route(0.2, m, 0.0, 1.0, 2)(0.0, y)
            assert out.shape == y.shape and np.all(np.isnan(out))
