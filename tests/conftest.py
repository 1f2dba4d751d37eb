import logging

import numpy as np
import pytest

from helpers import arm_6dof, planar_2link, planar_3link


@pytest.fixture(autouse=True)
def _quiet_ik_warnings(caplog):
    # best-effort IK fallbacks are by-design behavior; keep test output readable
    logging.getLogger("real2sim.controller").setLevel(logging.ERROR)
    yield


@pytest.fixture
def two_link():
    return planar_2link()


@pytest.fixture
def three_link():
    return planar_3link()


@pytest.fixture(scope="session")
def six_dof():
    return arm_6dof()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
