import math

import numpy as np
import pytest

from spherefv import (
    build_latlon,
    make_flux,
    sphere_chart,
)

from identities import euclidean_chart


@pytest.fixture(scope="session")
def sphere():
    return sphere_chart()


@pytest.fixture(scope="session")
def plane():
    return euclidean_chart()


@pytest.fixture(scope="session")
def small_mesh():
    return build_latlon(8, 4, 0.3)


@pytest.fixture(scope="session")
def rotation_flux():
    return make_flux("solid_rotation", {"omega": 1.0})


@pytest.fixture(scope="session")
def burgers_flux():
    return make_flux("latitude_burgers", {"c_expr": "sin(theta)"})


def random_points(rng, n, theta_lo=0.35, theta_hi=None):
    """Sample (phi, theta) pairs away from the poles."""
    if theta_hi is None:
        theta_hi = math.pi - theta_lo
    return np.column_stack([rng.uniform(0.0, 2 * math.pi, n),
                            rng.uniform(theta_lo, theta_hi, n)])
