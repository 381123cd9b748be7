"""Acceptance suite: every release criterion with its stated tolerance.

Each test prints a single PASS line with the measured quantities when it
succeeds, so a -v -s run reads as a checklist.
"""

import time

import numpy as np
import pytest

from ncol import central, mcgehee, morse, nbody, spectral, weakforce

from references import (reference_collinear_unequal_condition, reference_collinear_unequal_oracle,
                        reference_gamma_trace, reference_hessian_quadratic, reference_hiphop_g,
                        reference_matrix_A, reference_scaled_potentials,
                        reference_unequal_existence_boundary)

CAP = 6 - 4 * np.sqrt(2)


def report(name, detail):
    print(f"[PASS] {name}: {detail}")


# -- 1 -----------------------------------------------------------------------


def test_criterion_01_collinear_threshold():
    t0 = time.perf_counter()
    th = spectral.collinear_threshold()
    lhs, rhs, _ = spectral.collinear_equal_condition(th.alpha_star)
    elapsed = time.perf_counter() - t0
    assert th.alpha_star < CAP
    assert abs(lhs - rhs) < 1e-12
    assert elapsed < 1.0
    report("criterion 1 collinear threshold",
           f"alpha_bar={th.alpha_star:.12f} < {CAP:.7f}, |f-g|={abs(lhs - rhs):.2e}, "
           f"{elapsed * 1e3:.0f} ms")


# -- 2 -----------------------------------------------------------------------


def test_criterion_02_unequal_mass_boundary_and_newtonian_case():
    t0 = time.perf_counter()
    res = reference_unequal_existence_boundary()
    target = 33 + np.sqrt(1105)
    assert abs(res.alpha_star - target) < 1e-9
    # orientation from the solver: holds below the root, fails above
    assert reference_collinear_unequal_condition(res.alpha_star - 1e-3, 2 - 1e-12)[2]
    assert not reference_collinear_unequal_condition(res.alpha_star + 1e-3, 2 - 1e-12)[2]

    # Newtonian case of the published reduction: the correct orientation is
    # 8 m1^2 - 269 m1 - 52 < 0, satisfied for m1 = 30
    lhs30, rhs30, holds30 = reference_collinear_unequal_condition(30.0, 1.0)
    assert holds30
    m1_threshold = spectral.bisect(
        lambda ms: np.array([reference_collinear_unequal_condition(m, 1.0)[0]
                             - reference_collinear_unequal_condition(m, 1.0)[1] for m in ms]),
        1.0, 100.0, tol=1e-12)
    quad_root = (269 + np.sqrt(269**2 + 4 * 8 * 52)) / 16
    assert abs(m1_threshold - quad_root) < 1e-9

    # documented discrepancies rather than forced confirmations:
    notes = []
    if m1_threshold < 34.0:
        notes.append(
            f"published claim 'm1 < 34 is enough' overshoots: the alpha=1 threshold of "
            f"the published reduction is m1 = {m1_threshold:.6f} (= (269+sqrt(74025))/16), "
            f"so it holds for m1 <= 33 but fails on (33.82, 34)")
    lhs_o, rhs_o, holds_o = reference_collinear_unequal_oracle(30.0, 1.0)
    if holds_o != holds30:
        m1_oracle = spectral.bisect(
            lambda ms: np.array([reference_collinear_unequal_oracle(m, 1.0)[0]
                                 - reference_collinear_unequal_oracle(m, 1.0)[1] for m in ms]),
            1.0, 100.0, tol=1e-10)
        notes.append(
            f"independent matrix evaluation of the same criterion disagrees with the "
            f"published simplification: at alpha=1 it holds iff m1 < {m1_oracle:.4f} "
            f"(m1=30 fails, lhs={lhs_o:.4f} < {rhs_o:.4f}); the correct simplification "
            f"is (2^a(16 m1 - 4) - m1^2 - 2 m1)/(2^(a+1) + m1)")
    assert notes, "expected documented discrepancies"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("criterion 2 unequal-mass boundary",
           f"m1* = {res.alpha_star:.9f} = 33+sqrt(1105) +- 1e-9; m1=30 at alpha=1 "
           f"satisfied (published form); {elapsed * 1e3:.0f} ms")
    for note in notes:
        print(f"       documented: {note}")


# -- 3 -----------------------------------------------------------------------


def test_criterion_03_ngon_criterion():
    t0 = time.perf_counter()
    grid_mono = np.linspace(0.0, 2.0, 1000)
    grid_unique = np.linspace(1e-4, 1.0, 10_000)
    rhs_unique = (grid_unique + 2.0) ** 2 / (8.0 * grid_unique)
    worst_alpha_n = 0.0
    for n in range(4, 65):
        psi0, phi0 = spectral.psi_phi(n, 0.0)
        assert psi0 > 9.0 / 8.0
        assert phi0 > (n - 1) / n
        psi_mono, _ = spectral.psi_phi(n, grid_mono)
        assert np.all(np.diff(psi_mono) > 0.0)
        th = spectral.ngon_threshold(n)
        assert th.alpha_star < 1.0
        worst_alpha_n = max(worst_alpha_n, th.alpha_star)
        psi_u, _ = spectral.psi_phi(n, grid_unique)
        assert int(np.sum(np.diff(np.sign(psi_u - rhs_unique)) != 0)) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("criterion 3 polygon criterion",
           f"N=4..64 all bounds hold, max alpha_N = {worst_alpha_n:.6f} < 1, "
           f"{elapsed:.2f} s")


# -- 4 -----------------------------------------------------------------------


def test_criterion_04_hiphop_positivity():
    t0 = time.perf_counter()
    alphas = np.linspace(0.0, 2.0, 100)
    worst = np.inf
    for n in range(6, 65, 2):
        vals = np.array([reference_hiphop_g(n, a) for a in alphas])
        worst = min(worst, vals.min())
        assert np.all(vals > 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("criterion 4 hip-hop positivity",
           f"even N=6..64 x 100 alphas, min g = {worst:.6f} > 0, {elapsed:.2f} s")


# -- 5 -----------------------------------------------------------------------


def test_criterion_05_B_matrix_and_figure_data():
    t0 = time.perf_counter()
    s0 = central.collinear3(1.0, 1.0, 1.0).s0
    w1 = np.array([1.0, 0.0, -1.0])
    w2 = np.array([0.0, 1.0, -1.0])
    for alpha in np.linspace(0.05, 1.95, 191):
        A = reference_matrix_A(s0, np.ones(3), alpha)
        B = np.array([[w1 @ A @ w1, w1 @ A @ w2], [w1 @ A @ w2, w2 @ A @ w2]])
        lam_hi, lam_lo = spectral.collinear_B_eigenvalues(alpha)
        vals = np.linalg.eigvalsh(B)
        assert abs(vals[1] - lam_hi) < 1e-12 * max(1.0, lam_hi)
        assert abs(vals[0] - lam_lo) < 1e-12 * max(1.0, lam_lo)
    # figure sweep: the restricted-eigenvalue region contains the probe region
    contained = 0
    for alpha in np.linspace(0.05, 2.0 - 1e-9, 400):
        holds_eq = spectral.collinear_equal_condition(alpha)[2]
        holds_b = spectral.collinear_B_eigen_condition(alpha)[2]
        if holds_eq:
            contained += 1
            assert holds_b
    elapsed = time.perf_counter() - t0
    report("criterion 5 restricted-matrix closed form",
           f"eigenvalues match to 1e-12 on 191 alphas; containment on 400-point "
           f"figure grid ({contained} probe points), {elapsed:.2f} s")


# -- 6 -----------------------------------------------------------------------


def test_criterion_06_hessian_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 6))
        d = int(rng.integers(2, 4))
        x = rng.uniform(-1.5, 1.5, size=(n, d))
        if nbody.pair_separations(x)[3].min() < 0.35:
            continue
        m = rng.uniform(0.5, 2.0, size=n)
        alpha = float(rng.uniform(0.2, 1.8))
        # the second-difference oracle carries a roundoff floor eps*U/h^2, so
        # the relative scale includes U next to the Hessian norm
        scale = max(np.linalg.norm(nbody.hessian_full(x, m, alpha)),
                    nbody.potential(x, m, alpha))
        v = rng.standard_normal((n, d))
        v /= np.linalg.norm(v)
        h = 1e-5
        fd = (nbody.potential(x + h * v, m, alpha) - 2 * nbody.potential(x, m, alpha)
              + nbody.potential(x - h * v, m, alpha)) / h**2
        assert abs(reference_hessian_quadratic(x, m, alpha, v) - fd) < 1e-5 * scale
        checked += 1

    s0 = central.collinear3(1.0, 1.0, 1.0).s0
    for alpha in (0.5, 1.0, 1.5):
        for theta in (0.0, np.pi / 4, np.pi / 2):
            ct, st_ = np.cos(theta), np.sin(theta)
            v = np.array([[ct, st_], [0.0, -2 * st_], [-ct, st_]])
            expect = 2 * alpha * (
                ct**2 * (2 * (alpha + 10) * 2 ** (alpha / 2)
                         + (alpha + 1) * 2 ** (-alpha / 2)) - 18 * 2 ** (alpha / 2))
            got = reference_hessian_quadratic(s0, np.ones(3), alpha, v)
            assert abs(got - expect) < 1e-10 * max(1.0, abs(expect))
    elapsed = time.perf_counter() - t0
    report("criterion 6 Hessian correctness",
           f"50 random configurations within 1e-5 of second differences; planar "
           f"closed form to 1e-10 at three angles, {elapsed:.2f} s")


# -- 7 -----------------------------------------------------------------------


@pytest.mark.parametrize("alpha,tau_max", [(0.5, 3.5), (1.0, 3.0), (1.5, 2.2)])
def test_criterion_07_mcgehee_dynamics(alpha, tau_max):
    t0 = time.perf_counter()
    cc = central.collinear3(1.0, 1.0, alpha)
    state = mcgehee.homothetic_initial_state(cc, h=0.0)
    traj = mcgehee.integrate_el(state, cc.masses, alpha, tau_max=tau_max,
                                opts=mcgehee.IntegratorOptions(rtol=1e-12))
    c = mcgehee.homothetic_decay_rate(cc)
    ratio_err = float(np.max(np.abs(traj.rho_prime / traj.rho + c)))
    h_tr = traj.energy_trace()
    drift = float(np.max(np.abs(h_tr - traj.h)))
    lam1_err = float(np.max(np.abs(-traj.beta * h_tr + traj.beta * traj.h)))
    elapsed = time.perf_counter() - t0
    assert ratio_err < 1e-9
    assert drift < 1e-8 * (1.0 + abs(traj.h))
    assert lam1_err < 1e-8
    assert elapsed < 5.0
    report(f"criterion 7 collapse dynamics alpha={alpha}",
           f"|rho'/rho + c| <= {ratio_err:.2e}, energy drift {drift:.2e}, "
           f"multiplier error {lam1_err:.2e} over {traj.n_samples} states, "
           f"{elapsed:.2f} s")


# -- 8 -----------------------------------------------------------------------


def test_criterion_08_morse_witnesses():
    t0 = time.perf_counter()

    cc1 = central.collinear3(1.0, 1.0, 1.0)
    rep1 = spectral.smallest_eigenvalue(cc1)
    traj1 = mcgehee.homothetic_oracle(cc1, h=0.0, tau_max=430.0)
    w1 = morse.morse_witnesses(traj1, rep1.eigvec, 10, 20.0)
    assert w1.witnesses == 10
    assert all(q < 0 for q in w1.q_values)

    cc2 = central.collinear3(1.0, 1.0, 0.05)
    rep2 = spectral.smallest_eigenvalue(cc2)
    traj2 = mcgehee.homothetic_oracle(cc2, h=0.0, tau_max=430.0)
    w2 = morse.morse_witnesses(traj2, rep2.eigvec, 10, 20.0)
    assert w2.witnesses == 0
    assert all(q > 0 for q in w2.q_values)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("criterion 8 negative-direction count",
           f"alpha=1: 10/10 witnesses (min Q = {w1.value:.3f}); alpha=0.05: 0/10 "
           f"(min Q = {min(w2.q_values):.3f}); finite counts stand in for the "
           f"unbounded-index statement, {elapsed:.2f} s")


# -- 9 -----------------------------------------------------------------------


def test_criterion_09_homographic_blocks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)

    def admissible(cc):
        xi = nbody.tangent_part(cc.s0, cc.masses, rng.standard_normal(cc.s0.shape))
        return xi / np.linalg.norm(xi)

    cc1 = central.collinear3(1.0, 1.0, 1.0)
    traj1 = mcgehee.homothetic_oracle(cc1, h=0.0, tau_max=40.0)
    worst_mixed = 0.0
    for _ in range(100):
        l1 = 0.3 + rng.uniform(0.0, 1.0)
        width = rng.uniform(0.5, 2.5)
        sh = rng.uniform(0.0, 35.0 - l1 - width)
        v = morse.BumpVariation(l1=l1, l2=l1 + width, shift=sh, xi=admissible(cc1),
                                profile_kind="bump")
        z = morse.ScalarBump(l1=l1, l2=l1 + width, shift=sh,
                             amplitude=rng.uniform(0.2, 2.0))
        _, mixed, _ = morse.homographic_blocks(traj1, z, v)
        worst_mixed = max(worst_mixed, abs(mixed))
    assert worst_mixed < 1e-10

    cc2 = central.collinear3(1.0, 1.0, 0.05)
    traj2 = mcgehee.homothetic_oracle(cc2, h=1.0, tau_max=30.0, phi_min=1e-6)
    min_sum = np.inf
    for _ in range(100):
        l1 = 0.3 + rng.uniform(0.0, 1.0)
        width = rng.uniform(0.5, 2.0)
        sh = rng.uniform(0.0, traj2.tau_end - l1 - width - 0.3)
        v = morse.BumpVariation(l1=l1, l2=l1 + width, shift=sh, xi=admissible(cc2),
                                profile_kind="bump")
        z = morse.ScalarBump(l1=l1, l2=l1 + width, shift=sh,
                             amplitude=rng.uniform(0.2, 2.0))
        d2r, _, d2s = morse.homographic_blocks(traj2, z, v)
        min_sum = min(min_sum, d2r + d2s)
        assert d2r + d2s > 0.0
    elapsed = time.perf_counter() - t0
    report("criterion 9 homographic blocks",
           f"mixed block <= {worst_mixed:.2e} on 100 samples; positive-energy "
           f"small-alpha sum >= {min_sum:.4f} on 100 samples, {elapsed:.2f} s")


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_weak_force_suite(kicked_member):
    t0 = time.perf_counter()
    cc = central.collinear3(1.0, 1.0, 0.5)
    fam = weakforce.build_H_family(cc, tau_max=12.0)

    # Gamma-derivative identity on a perturbed member
    xi = np.zeros((3, 2))
    xi[:, 1] = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    cc3 = central.collinear3(1.0, 1.0, 0.3)
    gt = reference_gamma_trace(kicked_member(cc3, 0.3, 1e-2 * xi, tau_max=1.2),
                               resample_step=1e-3)
    assert gt.identity_error < 1e-6

    # pointwise logarithmic limit
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 25:
        x = rng.uniform(-2.0, 2.0, size=(3, 2))
        if nbody.pair_separations(x)[3].min() < 0.1:
            continue
        _, uhat, ulog = reference_scaled_potentials(x, np.ones(3), 0.001)
        assert abs(uhat - ulog) < 5e-3 * (1.0 + abs(ulog))
        checked += 1

    # finite localization pairs for both tolerance levels
    summary = []
    for eps in (0.5, 0.1):
        rep = weakforce.family_report(fam, eps)
        e1, d, e2 = rep.esplode1, rep.disotto, rep.esplode2
        assert e1.satisfied and e1.tau_eps is not None and e1.alpha_eps is not None
        assert d.satisfied
        assert e2.satisfied and e2.tau_eps is not None
        summary.append(f"eps={eps}: (tau_eps={e1.tau_eps:.3f}, alpha_eps={e1.alpha_eps}), "
                       f"inf={d.table['infimum']:.2f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion 10 weak-force suite",
           f"Gamma identity {gt.identity_error:.2e} < 1e-6; log-limit on 25 samples; "
           f"{'; '.join(summary)}; consistency checks on a finite grid, not proofs; "
           f"{elapsed:.2f} s")
