import numpy as np
import pytest

from ncol import nbody, weakforce
from ncol.errors import NonCollapsing
from ncol.mcgehee import IntegratorOptions, homothetic_initial_state, integrate_el


@pytest.fixture
def kicked_member():
    """Builder of one kicked member of the (H)-normalized weak-force family.

    build(cc, alpha, s_perturb, tau_max) starts at rho = 1 and shape cc.s0
    with the tangent part of s_perturb as shape velocity and hhat = 0, and
    integrates the rescaled tau-flow (U/alpha) to tau_max, cut at 9/c, where
    c is the collapse rate: a kicked member's reliable horizon shrinks like
    sqrt(alpha).  NonCollapsing when the kick leaves no inward radial
    velocity, or when rho' changes sign on the run.
    """
    def build(cc, alpha, s_perturb, tau_max=8.0):
        m = cc.masses
        kick = nbody.tangent_part(cc.s0, m, s_perturb)
        alpha = nbody.validate_alpha(alpha)
        cca = cc.at_alpha(alpha)
        scale = 1.0 / alpha
        try:
            state = homothetic_initial_state(cca, h=weakforce.scaled_energy_for_H(m, alpha),
                                             potential_scale=scale, kick=kick)
        except NonCollapsing as exc:
            raise NonCollapsing(f"alpha={alpha}: {exc} under the energy normalization") from exc
        c_rate = (2.0 - alpha) / 4.0 * np.sqrt(2.0 * cca.b / alpha)
        opts = IntegratorOptions(rtol=1e-11, max_step=0.01, rho_min=1e-4)
        traj = integrate_el(state, m, alpha, tau_max=min(tau_max, 9.0 / c_rate), opts=opts,
                            potential_scale=scale)
        if not np.all(traj.rho_prime < 0.0):
            raise NonCollapsing(f"alpha={alpha}: radial velocity changed sign")
        return traj

    return build


@pytest.fixture
def sampling_contract():
    """Checker of integrate_el's stored samples.

    check(tau, rho, rho_prime, s, s_prime, masses, max_step, tau_max, rho_min):
    the taus increase, no two lie more than max_step / 2 apart, every sample
    sits on the ellipsoid I(s) = 1 with a tangent velocity to 1e-14, every
    sample before the last has rho > rho_min and is no bounce (rho' >= 0
    right after rho' < 0), and the last sits at tau_max, below rho_min or at
    the first bounce, integrate_el's three stop reasons.
    """
    def check(tau, rho, rho_prime, s, s_prime, masses, max_step, tau_max, rho_min):
        gaps = np.diff(tau)
        assert np.all(gaps > 0.0)
        assert gaps.max() <= 0.5 * max_step * (1.0 + 1e-12)
        inertia = np.einsum("j,kjd,kjd->k", masses, s, s)
        assert np.max(np.abs(inertia - 1.0)) <= 1e-14
        radial = np.einsum("j,kjd,kjd->k", masses, s, s_prime)
        assert np.max(np.abs(radial)) <= 1e-14
        assert np.all(rho[:-1] > rho_min)
        bounces = (rho_prime[1:] >= 0.0) & (rho_prime[:-1] < 0.0)
        assert not bounces[:-1].any()
        assert (tau[-1] == pytest.approx(tau_max, rel=1e-14, abs=0.0) or rho[-1] <= rho_min
                or bounces[-1])

    return check


@pytest.fixture
def read_trajectory_csv():
    """Reader of a trajectory CSV (ncol simulate, the collapse probe): returns
    tau, rho, rho', s and s' of its rows, which hold the stored samples exactly."""
    def read(path):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        col = {name: k for k, name in enumerate(header)}
        bodies = [name.split("_")[1:] for name in header if name.startswith("s_")]
        n, d = (max(int(b[k]) for b in bodies) for k in (0, 1))
        s = data[:, [col[f"s_{i}_{c}"] for i in range(1, n + 1) for c in range(1, d + 1)]]
        sp = data[:, [col[f"sp_{i}_{c}"] for i in range(1, n + 1) for c in range(1, d + 1)]]
        return (data[:, col["tau"]], data[:, col["rho"]], data[:, col["rho_prime"]],
                s.reshape(-1, n, d), sp.reshape(-1, n, d))

    return read
