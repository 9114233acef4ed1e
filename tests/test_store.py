"""Store substrate: metadata, catalog, object store, directory."""

import pytest

from repro.store.catalog import Catalog
from repro.store.directory import DirectoryTable
from repro.store.meta import AccessLevel, Ots, OState, ReplicaSet, TState
from repro.store.object_store import ObjectStore


# ----------------------------------------------------------------- meta


def test_ots_lexicographic_order():
    assert Ots(1, 2) < Ots(2, 0)
    assert Ots(2, 1) < Ots(2, 2)
    assert Ots(3, 0) > Ots(2, 9)


def test_ots_next_for_bumps_version():
    assert Ots(4, 1).next_for(2) == Ots(5, 2)


def test_replicaset_levels():
    rs = ReplicaSet(owner=0, readers=(1, 2))
    assert rs.level_of(0) == AccessLevel.OWNER
    assert rs.level_of(1) == AccessLevel.READER
    assert rs.level_of(5) == AccessLevel.NON_REPLICA


def test_replicaset_with_owner_demotes_old():
    rs = ReplicaSet(owner=0, readers=(1, 2))
    moved = rs.with_owner(3)
    assert moved.owner == 3
    assert set(moved.readers) == {0, 1, 2}


def test_replicaset_with_owner_from_reader():
    rs = ReplicaSet(owner=0, readers=(1, 2))
    moved = rs.with_owner(1)
    assert moved.owner == 1
    assert set(moved.readers) == {0, 2}
    assert moved.size() == rs.size()


def test_replicaset_with_reader_idempotent():
    rs = ReplicaSet(owner=0, readers=(1,))
    assert rs.with_reader(1) == rs
    assert rs.with_reader(0) == rs
    assert set(rs.with_reader(2).readers) == {1, 2}


def test_replicaset_without_owner_leaves_none():
    rs = ReplicaSet(owner=0, readers=(1, 2))
    assert rs.without(0).owner is None
    assert rs.without(1).readers == (2,)


def test_replicaset_all_nodes():
    rs = ReplicaSet(owner=None, readers=(1, 2))
    assert rs.all_nodes() == frozenset({1, 2})
    assert rs.size() == 2


# --------------------------------------------------------------- catalog


def test_catalog_oid_assignment_dense():
    catalog = Catalog(3)
    catalog.add_table("a", 10)
    oids = [catalog.create_object("a", i) for i in range(5)]
    assert oids == [0, 1, 2, 3, 4]
    assert catalog.num_objects == 5


def test_catalog_sizes_and_lookup():
    catalog = Catalog(3)
    catalog.add_table("a", 10)
    catalog.add_table("b", 99)
    oa = catalog.create_object("a", "k1")
    ob = catalog.create_object("b", "k1")
    assert catalog.size_of(oa) == 10
    assert catalog.size_of(ob) == 99
    assert catalog.oid("a", "k1") == oa
    assert catalog.oid("b", "k1") == ob


def test_catalog_explicit_owner_respected():
    catalog = Catalog(4)
    catalog.add_table("a", 8)
    oid = catalog.create_object("a", "x", owner=2)
    assert catalog.initial_owner(oid) == 2
    replicas = catalog.initial_replicas(oid)
    assert replicas.owner == 2
    assert set(replicas.readers) == {3, 0}  # round-robin after the owner


def test_catalog_initial_replicas_survive_grow():
    # grow() widens the universe only: an object owned by node 2 of 3 keeps
    # readers (0, 1), never the fresh nodes 3 and 4 that never held it.
    catalog = Catalog(3)
    catalog.add_table("a", 8)
    oid = catalog.create_object("a", "x", owner=2)
    late = catalog.create_object("a", "y", owner=1)
    assert catalog.initial_replicas(oid) == ReplicaSet(2, (0, 1))
    assert catalog.grow(2) == (3, 4)
    assert catalog.initial_replicas(oid) == ReplicaSet(2, (0, 1))
    # First asked after the growth: still the construction-time ring.
    assert catalog.initial_replicas(late) == ReplicaSet(1, (0, 2))


def test_catalog_placement_is_shared_per_owner():
    catalog = Catalog(4, replication_degree=2)
    catalog.add_table("a", 8)
    oids = [catalog.create_object("a", i, owner=i % 2) for i in range(6)]
    assert catalog.initial_owners() == (0, 1, 0, 1, 0, 1)
    assert catalog.initial_replicas(oids[0]) is catalog.initial_replicas(oids[2])
    assert catalog.initial_replicas(oids[1]) is catalog.placement(1)
    assert catalog.placement(3) == ReplicaSet(3, (0,))


def test_catalog_hash_placement_in_range():
    catalog = Catalog(5)
    catalog.add_table("a", 8)
    for i in range(50):
        oid = catalog.create_object("a", i)
        assert 0 <= catalog.initial_owner(oid) < 5


def test_catalog_duplicate_table_rejected():
    catalog = Catalog(3)
    catalog.add_table("a", 8)
    with pytest.raises(ValueError):
        catalog.add_table("a", 8)


def test_catalog_replication_degree_bounds():
    with pytest.raises(ValueError):
        Catalog(2, replication_degree=3)
    with pytest.raises(ValueError):
        Catalog(2, replication_degree=0)


def test_catalog_directory_nodes():
    assert Catalog(6).directory_nodes() == (0, 1, 2)
    assert Catalog(2, replication_degree=2).directory_nodes() == (0, 1)


def test_table_spec_counts():
    catalog = Catalog(3)
    spec = catalog.add_table("a", 8)
    catalog.create_object("a", 1)
    catalog.create_object("a", 2)
    assert spec.count == 2
    assert spec.first_oid == 0


# ------------------------------------------------------------ object store


def test_store_create_and_get():
    store = ObjectStore(0)
    rs = ReplicaSet(0, (1,))
    obj = store.create(5, "data", rs)
    assert store.get(5) is obj
    assert obj.t_state == TState.VALID
    assert obj.o_state == OState.VALID
    assert obj.t_version == 0


def test_store_duplicate_create_rejected():
    store = ObjectStore(0)
    store.create(1, None, None)
    with pytest.raises(ValueError):
        store.create(1, None, None)


def test_store_bulk_load_in_order():
    store = ObjectStore(0)
    rs = ReplicaSet(0, (1,))
    store.load([4, 2, 7], ["a", "b", "c"], [rs, None, rs])
    assert [(o.oid, o.t_data, o.o_replicas) for o in store] == [
        (4, "a", rs), (2, "b", None), (7, "c", rs)]
    assert store.get(2).o_ts == Ots(0, 0)


def test_store_bulk_load_duplicate_rejected_whole():
    store = ObjectStore(0)
    store.create(2, None, None)
    with pytest.raises(ValueError, match="object 2 already stored"):
        store.load([1, 2, 3], [None] * 3, [None] * 3)
    assert [o.oid for o in store] == [2]


def test_store_require_missing_raises():
    with pytest.raises(KeyError):
        ObjectStore(0).require(9)


def test_store_drop_and_len():
    store = ObjectStore(0)
    store.create(1, None, None)
    store.create(2, None, None)
    assert len(store) == 2
    store.drop(1)
    assert not store.has(1)
    assert len(store) == 1
    store.drop(1)  # idempotent


def test_store_iteration():
    store = ObjectStore(0)
    store.create(1, None, None)
    store.create(2, None, None)
    assert {o.oid for o in store} == {1, 2}


# --------------------------------------------------------------- directory


def test_directory_create_get():
    table = DirectoryTable(0)
    entry = table.create(3, ReplicaSet(1, (2,)))
    assert table.get(3) is entry
    assert table.require(3).replicas.owner == 1


def test_directory_duplicate_rejected():
    table = DirectoryTable(0)
    table.create(1, ReplicaSet(0, ()))
    with pytest.raises(ValueError):
        table.create(1, ReplicaSet(0, ()))


def test_directory_bulk_load_in_order():
    table = DirectoryTable(0)
    a, b = ReplicaSet(0, (1,)), ReplicaSet(1, ())
    table.load([3, 1], [a, b])
    assert [(oid, e.o_state, e.o_ts, e.replicas) for oid, e in table.items()] \
        == [(3, OState.VALID, Ots(0, 0), a), (1, OState.VALID, Ots(0, 0), b)]
    with pytest.raises(ValueError, match="entry for 1 already exists"):
        table.load([5, 1], [a, a])
    assert len(table) == 2


def test_directory_strip_dead():
    table = DirectoryTable(0)
    table.create(1, ReplicaSet(owner=3, readers=(1, 2)))
    table.create(2, ReplicaSet(owner=0, readers=(1,)))
    changed = table.strip_dead(frozenset({0, 1, 2}))
    assert changed == 1
    assert table.require(1).replicas.owner is None
    assert table.require(2).replicas.owner == 0


def test_directory_items_and_len():
    table = DirectoryTable(0)
    table.create(1, ReplicaSet(0, ()))
    assert len(table) == 1
    assert [oid for oid, _ in table.items()] == [1]
