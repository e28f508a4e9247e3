"""Shared fixtures."""

import numpy as np
import pytest
from hypothesis import settings

from icaprobe.contrast import build_k, logcosh, negexp
from icaprobe.quadrature import gaussian_weighted_rule

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def rule200():
    return gaussian_weighted_rule(200)


@pytest.fixture(scope="session")
def k_logcosh():
    return build_k(logcosh())


@pytest.fixture(scope="session")
def k_negexp():
    return build_k(negexp())


@pytest.fixture()
def rng():
    return np.random.default_rng(0x1CA)
