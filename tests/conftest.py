import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")

from hgdilute.acceptance import _sample as sample_hypergraph


@pytest.fixture
def rng():
    return random.Random(0xD17)
