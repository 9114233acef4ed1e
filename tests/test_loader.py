"""The bulk loader builds what one ``create`` per replica built.

``ZeusCluster.load`` fills every store and directory table in one bulk
insert per node.  The reference below is the per-object loop it replaced,
kept only here: each object gets a fresh round-robin replica set, its
directory entries, then its owner and reader replicas, one ``create`` at a
time.  Every node's store and directory must match it field for field and
in insertion order.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.zeus_cluster import ZeusCluster
from repro.store.catalog import Catalog
from repro.store.directory import DirectoryTable
from repro.store.meta import ReplicaSet
from repro.store.object_store import ObjectStore


def reference_load(catalog, init_value, values):
    """The per-object ``create`` loop: node -> (store, directory or None)."""
    nodes = range(catalog.num_nodes)
    stores = [ObjectStore(n) for n in nodes]
    dirs = [DirectoryTable(n) if catalog.hosts_directory(n) else None
            for n in nodes]
    for oid in range(catalog.num_objects):
        owner = catalog.initial_owner(oid)
        replicas = ReplicaSet(owner, tuple(sorted(
            (owner + i) % catalog.num_nodes
            for i in range(1, catalog.replication_degree))))
        value = values.get(oid, init_value) if values else init_value
        for dnode in catalog.directory_nodes_for(oid):
            dirs[dnode].create(oid, replicas)
        stores[owner].create(oid, value, replicas)
        for reader in replicas.readers:
            stores[reader].create(oid, value, None)
    return stores, dirs


def store_rows(store):
    return [(o.oid, o.t_state, o.t_version, o.t_data, o.o_state, o.o_ts,
             o.o_replicas, o.locked_by) for o in store]


def directory_rows(table):
    if table is None:
        return None
    return [(oid, e.o_state, e.o_ts, e.replicas) for oid, e in table.items()]


@st.composite
def catalogs(draw):
    num_nodes = draw(st.integers(1, 7))
    degree = draw(st.integers(1, min(3, num_nodes)))
    mode = draw(st.sampled_from(["single", "hashed"]))
    catalog = Catalog(num_nodes, degree, directory_mode=mode)
    catalog.add_table("t", 8)
    owners = draw(st.lists(st.integers(0, num_nodes - 1), max_size=40))
    for key, owner in enumerate(owners):
        catalog.create_object("t", key, owner=owner)
    values = draw(st.one_of(st.none(), st.dictionaries(
        st.integers(0, max(0, len(owners) - 1)), st.integers(-5, 5))))
    return catalog, values


@settings(deadline=None)
@given(catalogs(), st.integers(0, 9), st.booleans())
def test_loader_matches_per_object_create(drawn, init_value, collector_on):
    catalog, values = drawn
    stores, dirs = reference_load(catalog, init_value, values)
    cluster = ZeusCluster(catalog.num_nodes, catalog=catalog)
    was_enabled = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        cluster.load(init_value=init_value, values=values)
        assert gc.isenabled() == collector_on
        if catalog.num_objects:
            # Every object is already stored: the bulk insert refuses.
            with pytest.raises(ValueError):
                cluster.load(init_value=init_value, values=values)
            assert gc.isenabled() == collector_on
    finally:
        (gc.enable if was_enabled else gc.disable)()
    for h in cluster.handles:
        nid = h.node.node_id
        assert store_rows(h.store) == store_rows(stores[nid])
        assert directory_rows(h.directory) == directory_rows(dirs[nid])
