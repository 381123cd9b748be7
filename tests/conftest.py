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
