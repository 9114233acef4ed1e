"""Dynamic object lifecycle (malloc/free) and the distributed directory."""

import pytest

from repro.harness.zeus_cluster import ZeusCluster
from repro.sim.params import SimParams
from repro.sim.rng import hash_str
from repro.store.catalog import Catalog
from tests.conftest import make_cluster, run_app


# ----------------------------------------------------------- malloc / free


def test_create_object_registers_everywhere():
    cluster = make_cluster(3, objects=0)
    handle = cluster.handles[1]
    created = []

    def app():
        oid = yield from handle.ownership.create_object("t", "fresh", value=9)
        created.append(oid)

    run_app(cluster, 1, app())
    oid = created[0]
    assert cluster.owner_of(oid) == 1
    assert handle.store.get(oid).t_data == 9
    # Readers installed with the initial value.
    readers = cluster.replicas_of(oid).readers
    for reader in readers:
        assert cluster.handles[reader].store.get(oid).t_data == 9


def test_created_object_immediately_transactable():
    cluster = make_cluster(3, objects=0)
    handle = cluster.handles[0]
    results = []

    def app():
        oid = yield from handle.ownership.create_object("t", "x", value=0)
        r = yield from handle.api.execute_write(0, [oid])
        results.append(r)

    run_app(cluster, 0, app())
    assert results[0].committed
    assert results[0].ownership_requests == 0  # creator already owns it


def test_created_object_migratable():
    cluster = make_cluster(3, objects=0)
    h0, h2 = cluster.handles[0], cluster.handles[2]
    done = []

    def creator():
        oid = yield from h0.ownership.create_object("t", "m", value=5)
        done.append(oid)

    run_app(cluster, 0, creator(), until=50_000)
    oid = done[0]

    def mover():
        outcome = yield from h2.ownership.acquire(oid)
        done.append(outcome.granted)

    run_app(cluster, 2, mover())
    assert done[1] is True
    assert cluster.owner_of(oid) == 2


def test_destroy_object_removes_replicas_and_directory():
    cluster = make_cluster(3, objects=3)
    handle = cluster.handles[0]  # owns oid 0
    done = []

    def app():
        yield from handle.ownership.destroy_object(0)
        done.append(True)

    run_app(cluster, 0, app())
    assert done == [True]
    for h in cluster.handles:
        assert not h.store.has(0)
        if h.directory is not None:
            assert h.directory.get(0) is None


def test_destroy_requires_ownership():
    cluster = make_cluster(3, objects=3)
    handle = cluster.handles[1]  # does NOT own oid 0
    with pytest.raises(PermissionError):
        next(handle.ownership.destroy_object(0))


def test_create_counts_metric():
    cluster = make_cluster(3, objects=0)
    handle = cluster.handles[0]

    def app():
        yield from handle.ownership.create_object("t", "c", value=1)

    run_app(cluster, 0, app())
    assert handle.ownership.counters["created"] == 1


# ------------------------------------------------------ hashed directory


def make_hashed_cluster(num_nodes=6, objects=30):
    catalog = Catalog(num_nodes, replication_degree=3,
                      directory_mode="hashed")
    catalog.add_table("t", 64)
    for i in range(objects):
        catalog.create_object("t", i, owner=i % num_nodes)
    params = SimParams().scaled_threads(app=2, worker=2)
    cluster = ZeusCluster(num_nodes, params=params, catalog=catalog)
    cluster.load(init_value=0)
    return cluster


def test_hashed_directory_spreads_entries():
    cluster = make_hashed_cluster()
    per_node = [len(h.directory) for h in cluster.handles]
    assert all(n > 0 for n in per_node)  # every node carries some load
    assert sum(per_node) == 30 * 3       # three replicas per object


def test_hashed_directory_stable_per_object():
    catalog = Catalog(6, directory_mode="hashed")
    catalog.add_table("t", 8)
    oid = catalog.create_object("t", 0)
    assert catalog.directory_nodes_for(oid) == catalog.directory_nodes_for(oid)
    assert len(catalog.directory_nodes_for(oid)) == 3


def test_hashed_placement_memo_is_a_fresh_ranking_before_and_after_grow():
    """Placement is ranked once per object and remembered; the memo must
    agree with ranking afresh over the frozen base for every object, old
    or created after the cluster grew."""
    catalog = Catalog(6, directory_mode="hashed")
    catalog.add_table("t", 8)

    def ranked(oid):
        order = sorted(range(6), key=lambda n: hash_str(f"dir:{oid}:{n}"))
        return tuple(sorted(order[:3]))

    before = [catalog.create_object("t", key) for key in range(300)]
    assert [catalog.directory_nodes_for(oid) for oid in before] == [
        ranked(oid) for oid in before]
    catalog.grow(3)
    after = [catalog.create_object("t", key) for key in range(300, 400)]
    everything = before + after
    assert [catalog.directory_nodes_for(oid) for oid in everything] == [
        ranked(oid) for oid in everything]
    assert catalog._hashed_dirs == {oid: ranked(oid) for oid in everything}


def test_hashed_mode_small_cluster_falls_back():
    catalog = Catalog(3, directory_mode="hashed")
    catalog.add_table("t", 8)
    oid = catalog.create_object("t", 0)
    assert catalog.directory_nodes_for(oid) == (0, 1, 2)


def test_invalid_directory_mode_rejected():
    with pytest.raises(ValueError):
        Catalog(3, directory_mode="bogus")


def test_hashed_directory_ownership_transfer_works():
    cluster = make_hashed_cluster()
    oid = 7  # owned by node 1
    handle = cluster.handles[4]
    results = []

    def app():
        outcome = yield from handle.ownership.acquire(oid)
        results.append(outcome)

    run_app(cluster, 4, app())
    assert results[0].granted
    assert cluster.owner_of(oid) == 4


def test_hashed_directory_transactions_end_to_end():
    cluster = make_hashed_cluster()
    api = cluster.handles[0].api
    results = []

    def app():
        for oid in range(10):
            r = yield from api.execute_write(0, [oid])
            results.append(r.committed)

    run_app(cluster, 0, app())
    assert all(results)
    from repro.verify.invariants import check_invariants

    check_invariants(cluster)


def test_hashed_directory_survives_owner_crash():
    cluster = make_hashed_cluster()
    cluster.params = cluster.params.with_(lease_us=2_000.0,
                                          heartbeat_us=200.0)
    # Rebuild with failover-friendly params.
    catalog = Catalog(6, replication_degree=3, directory_mode="hashed")
    catalog.add_table("t", 64)
    for i in range(12):
        catalog.create_object("t", i, owner=i % 6)
    params = SimParams(lease_us=2_000.0, heartbeat_us=200.0).scaled_threads(
        app=2, worker=2)
    cluster = ZeusCluster(6, params=params, catalog=catalog)
    cluster.load(init_value=0)
    cluster.start_membership()
    cluster.crash(5, at=100.0)
    handle = cluster.handles[0]
    results = []

    def app():
        yield 200.0
        while True:
            outcome = yield from handle.ownership.acquire(5)  # owned by 5
            if outcome.granted:
                results.append(outcome)
                return
            yield 1_000.0

    run_app(cluster, 0, app(), until=400_000)
    assert results
    assert cluster.owner_of(5) == 0
