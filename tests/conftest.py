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

from hgdilute import dilution, hypergraph
from hgdilute.acceptance import _sample as sample_hypergraph


@pytest.fixture
def rng():
    return random.Random(0xD17)


@pytest.fixture
def empty_cert_cache(monkeypatch):
    """An empty certificate cache and reachability memo for the test, so that
    a refinement budget it pins is charged in full (a cache hit never charges
    the budget) and a reachability sweep labels every state it meets instead
    of reading its children from the class nodes of an earlier sweep.  A
    sweep keeps no other state between calls: every class node it makes,
    with the index form it expands, lives in the memo."""
    monkeypatch.setattr(hypergraph, "_cert_cache", {})
    monkeypatch.setattr(dilution, "_reach_memo", {})
