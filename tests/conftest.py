import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def rng():
    # a fresh stream per test, so a test's data does not depend on what
    # the tests before it drew
    return np.random.default_rng(20260808)
