import pytest

from hartreekit.spectral import Grid
from hartreekit.potentials import PotentialSpec
from hartreekit.ground_state import solve_ground_state

GAMMA = 2.5


@pytest.fixture(scope="session")
def grid32():
    return Grid(3, 32, 10.0)


@pytest.fixture(scope="session")
def grid48():
    return Grid(3, 48, 10.0)


@pytest.fixture(scope="session")
def grid64():
    # half_length 10.6 sits where box-truncation and kernel-regularization
    # errors cancel: dilation identities hold to ~3e-6 there vs ~6e-5 at 10.0.
    return Grid(3, 64, 10.6)


@pytest.fixture(scope="session")
def gs48(grid48):
    gs = solve_ground_state(grid48, PotentialSpec(kind="zero"), GAMMA)
    assert gs.converged
    return gs


@pytest.fixture(scope="session")
def gs64(grid64):
    gs = solve_ground_state(grid64, PotentialSpec(kind="zero"), GAMMA)
    assert gs.converged
    return gs


def random_threshold_tuple(rng, dim=3):
    """(energy, mass, c_q, gamma, gap) with the stationary gap 16E - x0 prescribed
    first, so no identity check ever runs into catastrophic cancellation."""
    gamma = rng.uniform(2.3, min(3.7, dim - 0.2))
    gap = 10.0 ** rng.uniform(-1.0, 2.0)
    m = rng.uniform(0.3, 3.0)
    g2 = gamma - 2.0
    c_q = 4.0 / gamma * m ** (-(4.0 - gamma) / gamma) * (gap / (2.0 * g2)) ** ((2.0 - gamma) / gamma)
    e = gap * 10.0 ** rng.uniform(-1.5, 1.5) / 16.0
    return e, m, c_q, gamma, gap


def closed_form_c_q(gamma, mass_q):
    """Sharp constant from the free-state scalars alone (V- = 0, any omega via scaling):
    C_Q = 4^{2/g} (4-g)^{1-2/g} / (g * M(Q)^{2/g}), with M(Q) taken at omega = 1."""
    return 4.0 ** (2.0 / gamma) * (4.0 - gamma) ** (1.0 - 2.0 / gamma) / (gamma * mass_q ** (2.0 / gamma))
