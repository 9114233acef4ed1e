"""Shared test fixtures: small clusters and catalogs."""

import pytest
from hypothesis import settings

from repro.harness.rig import counter_catalog
from repro.harness.zeus_cluster import ZeusCluster
from repro.sim.params import SimParams

#: ``pytest --hypothesis-profile=ci`` runs the properties in depth (CI does
#: so for the kernel and the reliable transport); tier-1 keeps the default.
settings.register_profile("ci", max_examples=2_000, deadline=None)


def make_catalog(num_nodes=3, objects=10, degree=3, size=64, spread=True):
    return counter_catalog(num_nodes, objects,
                           None if spread else (lambda i: 0),
                           table="t", size=size, degree=degree)


def make_cluster(num_nodes=3, objects=10, degree=3, size=64, spread=True,
                 seed=0, fast_failover=False, **params_kw):
    catalog = make_catalog(num_nodes, objects, degree, size, spread)
    kw = dict(params_kw)
    if fast_failover:
        kw.setdefault("lease_us", 2_000.0)
        kw.setdefault("heartbeat_us", 200.0)
    params = SimParams().with_(**kw) if kw else SimParams()
    cluster = ZeusCluster(num_nodes, params=params, catalog=catalog, seed=seed)
    cluster.load(init_value=0)
    return cluster


def run_app(cluster, node_id, gen, until=500_000.0, thread=0):
    """Spawn one app generator and run the simulator; returns the process."""
    proc = cluster.spawn_app(node_id, thread, gen)
    cluster.run(until=until)
    return proc


@pytest.fixture
def cluster3():
    return make_cluster(3)


@pytest.fixture
def cluster6():
    return make_cluster(6, objects=20)


@pytest.fixture(scope="session")
def place_outcome():
    """Memoized ``run_pair(name, seed=1)``: the differential gates and the
    golden pins judge the same four paired runs instead of re-running them."""
    from repro.placement import run_pair

    cache = {}

    def outcome(name):
        if name not in cache:
            cache[name] = run_pair(name, seed=1)
        return cache[name]

    return outcome
