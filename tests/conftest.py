"""Shared fixtures: canonical grids and ground states, built once."""

import pytest

from varkg import PowerKG, RadialGrid, closed_form_1d, shoot_radial

from general_g import CUBIC_QUINTIC


@pytest.fixture(scope="session")
def nl3():
    return PowerKG(3.0, 0.0)


@pytest.fixture(scope="session")
def grid_1d():
    return RadialGrid(1, 20.0, 40000)


@pytest.fixture(scope="session")
def phi_1d(grid_1d):
    return closed_form_1d(3.0, 0.0, grid_1d)


@pytest.fixture(scope="session")
def townes():
    return shoot_radial(PowerKG(3.0, 0.0), RadialGrid(2, 40.0, 4000))


@pytest.fixture(scope="session")
def townes_fine():
    return shoot_radial(PowerKG(3.0, 0.0), RadialGrid(2, 40.0, 8000))


@pytest.fixture(scope="session")
def ground_n3():
    return shoot_radial(PowerKG(3.0, 0.0), RadialGrid(3, 30.0, 3000), bracket=(3.0, 6.0))


@pytest.fixture(scope="session")
def cubic_quintic_ground():
    return shoot_radial(CUBIC_QUINTIC, RadialGrid(2, 80.0, 4000))
