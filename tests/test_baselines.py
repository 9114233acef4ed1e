"""Distributed-commit baseline engine: correctness and protocol shape."""

import pytest

from repro.baselines import DRTM, FARM, FASST, BaselineCluster
from repro.store.catalog import Catalog


def make_baseline(profile=FASST, num_nodes=3, objects=12):
    catalog = Catalog(num_nodes, replication_degree=3)
    catalog.add_table("t", 64)
    for i in range(objects):
        catalog.create_object("t", i, owner=i % num_nodes)
    cluster = BaselineCluster(num_nodes, profile, catalog=catalog)
    cluster.load(0)
    return cluster


def run_txn(cluster, node_id, write_set, read_set=(), until=100_000.0):
    engine = cluster.engines[node_id]
    cpu = cluster.nodes[node_id].app_cpus[0]
    results = []

    def app():
        r = yield from engine.execute_write(cpu, (node_id, 1), write_set,
                                            read_set)
        results.append(r)

    cluster.spawn_app(node_id, app())
    cluster.run(until=until)
    return results[0]


def test_local_write_commits():
    cluster = make_baseline()
    result = run_txn(cluster, 0, [0])
    assert result.committed
    assert result.remote_objects == 0
    assert cluster.engines[0].peek(0) == 1


def test_remote_write_commits_at_primary():
    cluster = make_baseline()
    result = run_txn(cluster, 0, [1])  # primary is node 1
    assert result.committed
    assert result.remote_objects == 1
    assert cluster.engines[1].peek(1) == 1


def test_remote_write_leaves_primary_unlocked():
    cluster = make_baseline()
    run_txn(cluster, 0, [1])
    rec = cluster.engines[1]._records[1]
    assert rec.locked_by is None
    assert rec.version == 1


def test_mixed_local_remote_write_set():
    cluster = make_baseline()
    result = run_txn(cluster, 0, [0, 1, 2])
    assert result.committed
    assert result.remote_objects == 2


def test_conflicting_writers_serialize():
    cluster = make_baseline()
    results = []

    def contender(node_id, tag):
        engine = cluster.engines[node_id]
        cpu = cluster.nodes[node_id].app_cpus[0]
        for i in range(10):
            r = yield from engine.execute_write(cpu, (node_id, i), [2])
            results.append(r)

    cluster.spawn_app(0, contender(0, "a"))
    cluster.spawn_app(1, contender(1, "b"))
    cluster.run(until=500_000)
    assert sum(r.committed for r in results) == 20
    assert cluster.engines[2].peek(2) == 20


def test_read_only_transaction():
    cluster = make_baseline()
    engine = cluster.engines[0]
    cpu = cluster.nodes[0].app_cpus[0]
    results = []

    def app():
        r = yield from engine.execute_read(cpu, [0, 1])
        results.append(r)

    cluster.spawn_app(0, app())
    cluster.run(until=100_000)
    assert results[0].committed
    assert results[0].remote_objects == 1


def test_remote_txn_takes_multiple_rtts():
    cluster = make_baseline()
    local = run_txn(cluster, 0, [0])
    remote = run_txn(make_baseline(), 0, [1])
    assert remote.latency_us > local.latency_us + 5.0


def test_profiles_have_expected_knobs():
    assert FASST.coroutines_per_thread > DRTM.coroutines_per_thread
    assert FARM.one_sided_reads and DRTM.one_sided_reads
    assert not FASST.one_sided_reads


def test_one_sided_reads_skip_remote_cpu():
    fasst = make_baseline(FASST)
    farm = make_baseline(FARM)
    for cluster in (fasst, farm):
        run_txn(cluster, 0, [], read_set=[1])
    # FaRM's read RPC costs no remote worker CPU (NIC-served).
    assert farm.nodes[1].pool.busy_time < fasst.nodes[1].pool.busy_time


def test_baseline_total_committed_counter():
    cluster = make_baseline()
    run_txn(cluster, 0, [0])
    assert cluster.total_committed() == 1


def test_static_sharding_never_migrates():
    cluster = make_baseline()
    run_txn(cluster, 0, [1])
    # Object 1's primary is still node 1 — there is no ownership movement.
    assert cluster.engines[0].primary_of(1) == 1


@pytest.mark.parametrize("num_nodes,degree", [(1, 1), (3, 3), (5, 2), (6, 3)])
def test_load_matches_per_engine_scan(num_nodes, degree):
    # Reference: the scan load replaced — every engine asks, per object,
    # whether it is among the object's initial replicas.
    catalog = Catalog(num_nodes, replication_degree=degree)
    catalog.add_table("t", 64)
    for i in range(40):
        catalog.create_object("t", i, owner=(i * 7) % num_nodes)
    cluster = BaselineCluster(num_nodes, FASST, catalog=catalog)
    cluster.load(5)
    for engine in cluster.engines:
        expected = [oid for oid in range(catalog.num_objects)
                    if engine.node_id
                    in catalog.initial_replicas(oid).all_nodes()]
        assert list(engine._records) == expected
        assert all((r.value, r.version, r.locked_by) == (5, 0, None)
                   for r in engine._records.values())
