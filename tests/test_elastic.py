"""Elastic membership: live scale-out, graceful drain, and chaos during
rebalance.

Covers the reconfiguration subsystem end to end — ``add_nodes`` booting
joiners through quarantine under live traffic, ``drain`` retiring a node
with acquisitions in flight, the rebalancer converging around crashes and
partitions, the elastic schedule generator, the ninth (reconfig) audit,
the load balancer's scale-out support, and the analyzer's
``rebalance-blocked`` segment.
"""

import pytest

from repro.chaos import (
    AddNodesEvent,
    CampaignConfig,
    CrashEvent,
    DrainEvent,
    FaultSchedule,
    PartitionEvent,
    Recipe,
    RecoverEvent,
    campaign_schedule,
    generate_elastic_schedule,
    run_cell,
)
from repro.chaos.schedule import ClusterRestartEvent
from repro.harness.rig import Rig, counter_catalog
from repro.obs import Observability, build_timelines
from repro.recovery.manager import Phase
from repro.verify.audit import audit_reconfig
from repro.workloads.base import TxnSpec, spawn_zeus_workers


def _cfg():
    """The cell every test here runs or borrows its shape from."""
    return Recipe(duration_us=20_000.0, quiesce_us=25_000.0)


def _spec_fn(num_objects):
    def spec(node_id, thread, rng):
        oids = rng.sample(range(num_objects), rng.randrange(1, 3))
        return TxnSpec(write_set=oids, exec_us=0.3)
    return spec


def _rig(cfg, seed, obs=None):
    """The campaign's cluster for ``cfg`` (all rig-level defaults)."""
    return Rig(counter_catalog(cfg.num_nodes, cfg.num_objects), seed, obs)


def _run_with_workers(rig, cfg, stop_at, setup, seed=1):
    """Drive the counter workload on every base node while ``setup``
    schedules the reconfiguration, then converge + quiesce."""
    cluster = rig.cluster
    spawn_zeus_workers(cluster, _spec_fn(cfg.num_objects), rig.stats,
                       stop_at=stop_at, measure_from=0.0, threads=2,
                       node_ids=list(range(cfg.num_nodes)), seed=seed,
                       on_commit=rig.on_commit)
    setup()
    cluster.run(until=stop_at)
    done = rig.converge(80_000.0)
    cluster.run(until=cluster.sim.now + cfg.quiesce_us)
    return done


# ======================================================================
# Scale-out and drain under live traffic
# ======================================================================


def test_add_nodes_under_load_balances_and_audits_clean():
    cfg = _cfg()
    obs = Observability()
    rig = _rig(cfg, seed=0, obs=obs)
    cluster = rig.cluster
    cluster.start_membership()
    joined = []

    def setup():
        cluster.on_nodes_added(lambda ids: joined.extend(ids))
        cluster.sim.call_at(5_000.0, cluster.add_nodes, 2)

    done = _run_with_workers(rig, cfg, 20_000.0, setup)
    assert joined == [4, 5]
    assert done.done()
    assert rig.stats.committed > 0
    audit = rig.audit()
    assert audit.ok, audit.problems()
    assert obs.registry.counter_total("rebalance.objects_moved") > 0


def test_drain_with_inflight_acquisitions_retires_node():
    cfg = _cfg()
    obs = Observability()
    rig = _rig(cfg, seed=1, obs=obs)
    cluster = rig.cluster
    cluster.start_membership()

    def setup():
        # Workers on node 3 have acquisitions in flight when the drain
        # begins; they must wind down, not wedge the drain.
        cluster.drain(3, at=4_000.0)

    done = _run_with_workers(rig, cfg, 20_000.0, setup)
    assert done.done()
    assert 3 in cluster.retired
    assert not cluster.nodes[3].alive
    for oid in range(cfg.num_objects):
        rep = cluster.replicas_of(oid)
        if rep is not None:
            assert 3 not in rep.all_nodes()
            assert rep.owner != 3
    audit = rig.audit()
    assert audit.ok, audit.problems()
    assert obs.registry.counter_total("rebalance.drains_completed") == 1


def test_drain_of_directory_host_is_rejected():
    cfg = _cfg()
    cluster = _rig(cfg, seed=0).cluster
    with pytest.raises(ValueError, match="placement is frozen"):
        cluster.drain(0)


# ======================================================================
# Chaos during rebalance (the satellite fault scenarios)
# ======================================================================


def test_donor_crash_mid_transfer_to_joiner():
    """A directory host crashes between the joiner's SNAP_REQ and its
    SNAP_DONE: the eviction view restarts the transfer against the
    survivors, it completes, and the audits stay clean."""
    cfg = _cfg()
    rig = _rig(cfg, seed=0)
    cluster = rig.cluster
    cluster.start_membership()
    views = []

    def watch(new_ids):
        joiner = cluster.handles[new_ids[0]].recovery

        def on_view(epoch, live):
            views.append((sorted(live), joiner.phase,
                          sorted(joiner._pending_donors)))
            if len(views) == 1:
                cluster.crash(2)  # the admit view just sent the SNAP_REQs

        joiner.node.add_view_listener(on_view)

    def setup():
        cluster.on_nodes_added(watch)
        cluster.add_nodes(1, at=4_000.0)
        cluster.recover(2, at=15_000.0)

    assert _run_with_workers(rig, cfg, 20_000.0, setup).done()
    admit, evict = views[:2]
    assert admit == ([0, 1, 2, 3, 4], Phase.TRANSFER, [0, 1, 2])
    assert evict == ([0, 1, 3, 4], Phase.TRANSFER, [0, 1])
    joiner = cluster.handles[4].recovery
    assert joiner.phase is Phase.UP
    # One chunk per survivor per attempt: both survivors served twice.
    assert joiner.counters.as_dict()["transfer_chunks"] == 4
    assert rig.stats.committed > 0
    audit = rig.audit()
    assert audit.ok, audit.problems()


def test_admission_races_unhealed_partition():
    """A joiner is admitted while a base node is still partitioned away;
    the heal lands later and the rebalance must still converge."""
    cfg = _cfg()
    schedule = FaultSchedule([
        PartitionEvent(at_us=3_000.0, a_side=(3,), b_side=(0, 1, 2),
                       heal_at_us=9_000.0),
        AddNodesEvent(at_us=4_000.0, count=1),
    ], name="admit-vs-partition")
    report = run_cell(cfg.of(schedule, 0))
    assert report.ok, report.audit.problems()
    assert any(e.startswith("add(") for e in report.timeline)
    assert any(e.startswith("heal(") for e in report.timeline)


def test_elastic_campaign_cell_is_deterministic():
    cfg = CampaignConfig(cell=_cfg(), difficulty=2, elastic=True)
    recipe = cfg.cell.of(campaign_schedule(cfg, 0), 0)
    r1 = run_cell(recipe)
    r2 = run_cell(recipe)
    assert r1.digest() == r2.digest()
    assert r1.ok, r1.audit.problems()
    assert any(e.startswith("add(") for e in r1.timeline)
    assert any(e.startswith("drain(") for e in r1.timeline)


# ======================================================================
# Elastic schedule generator
# ======================================================================


def test_elastic_generator_deterministic_and_shaped():
    s1 = generate_elastic_schedule(4, 30_000.0, seed=5, difficulty=3)
    s2 = generate_elastic_schedule(4, 30_000.0, seed=5, difficulty=3)
    assert s1.signature() == s2.signature()
    kinds = {type(e) for e in s1}
    assert AddNodesEvent in kinds
    assert DrainEvent in kinds
    assert PartitionEvent in kinds  # difficulty 3 partitions the drainee
    assert CrashEvent in kinds      # difficulty >= 2 crashes the joiner

    p = generate_elastic_schedule(4, 30_000.0, seed=5, difficulty=3,
                                  power_loss=True)
    pkinds = {type(e) for e in p}
    assert ClusterRestartEvent in pkinds
    assert DrainEvent not in pkinds
    # The cold restart revives the joiner; no paired recovery is drawn.
    assert RecoverEvent not in pkinds


def test_elastic_generator_requires_four_base_nodes():
    with pytest.raises(ValueError, match=">= 4 base nodes"):
        generate_elastic_schedule(3, 30_000.0, seed=1)


# ======================================================================
# The ninth audit
# ======================================================================


def test_audit_reconfig_silent_without_reconfiguration():
    cluster = _rig(Recipe(), seed=0).cluster
    cluster.start_membership()
    cluster.run(until=2_000.0)
    assert audit_reconfig(cluster) == []


def test_audit_reconfig_flags_missing_convergence():
    cluster = _rig(Recipe(), seed=0).cluster
    cluster.start_membership()
    cluster.sim.call_at(1_000.0,
                        lambda: cluster.add_nodes(1, rebalance=False))
    cluster.run(until=30_000.0)
    problems = audit_reconfig(cluster)
    assert any("never reported convergence" in p for p in problems)


# ======================================================================
# Load balancer scale-out
# ======================================================================


def _make_lb(cluster, num_nodes):
    from repro.hermes.protocol import HermesReplica
    from repro.lb import LoadBalancer

    replicas = [HermesReplica(cluster.nodes[n], (0, 1, 2))
                for n in range(3)]
    return LoadBalancer(replicas, num_nodes=num_nodes)


def test_lb_grow_repins_fair_share():
    from tests.conftest import make_cluster

    cluster = make_cluster(6, objects=24)
    lb = _make_lb(cluster, num_nodes=4)
    keys = list(range(24))
    for k in keys:
        lb.repin(k, k % 4)
    cluster.run(until=2_000)  # let the Hermes routing writes propagate
    moved = lb.grow([4, 5], keys=keys)
    cluster.run(until=4_000)
    assert moved == 8  # 24 keys over 6 nodes: each joiner ends with 4
    assert lb.num_nodes == 6
    assert set(lb.active_nodes) == set(range(6))
    per_node = {}
    for k in keys:
        per_node.setdefault(lb.lookup(k), []).append(k)
    counts = [len(per_node.get(n, [])) for n in range(6)]
    assert max(counts) - min(counts) <= 1
    # Growing with already-active nodes is a no-op.
    assert lb.grow([4, 5], keys=keys) == 0


def test_lb_grow_without_keys_only_activates():
    from tests.conftest import make_cluster

    cluster = make_cluster(6, objects=6)
    lb = _make_lb(cluster, num_nodes=4)
    assert lb.grow([4]) == 0
    assert 4 in lb.active_nodes and lb.num_nodes == 5


# ======================================================================
# Analyzer: rebalance-blocked attribution
# ======================================================================


def test_analysis_attributes_rebalance_blocked():
    records = [
        {"type": "span", "name": "txn", "trace": 1, "parent": None,
         "start_us": 0.0, "end_us": 10.0, "node": 0, "tid": 0,
         "cat": "txn", "args": {"kind": "w", "committed": True}},
        {"type": "span", "name": "own_acquire", "trace": 1, "parent": 1,
         "start_us": 2.0, "end_us": 8.0, "node": 0, "tid": 0,
         "cat": "own", "args": {}},
        # A global migration batch (no trace id) overlapping the wait.
        {"type": "span", "name": "rebalance", "trace": None, "parent": None,
         "start_us": 4.0, "end_us": 6.0, "node": 0, "tid": 0,
         "cat": "rebalance", "args": {}},
    ]
    timelines = build_timelines(records)
    assert len(timelines) == 1
    seg = timelines[0].segments_ns
    assert seg["rebalance-blocked"] == 2_000
    assert seg["ownership-blocked"] == 4_000
    assert sum(seg.values()) == timelines[0].duration_ns


# ======================================================================
# Recovery repair backoff (jittered, capped)
# ======================================================================


def test_repair_backoff_is_jittered_exponential_and_capped():
    from repro.recovery.manager import _BACKOFF_CAP_US
    from tests.conftest import make_cluster

    recovery = make_cluster(3).handles[0].recovery
    prev_hi = 0.0
    for attempt in range(12):
        step = min(400.0 * (2.0 ** attempt), _BACKOFF_CAP_US)
        d = recovery._backoff_us(oid=7, attempt=attempt, base_us=400.0)
        assert 0.5 * step <= d <= step
        prev_hi = max(prev_hi, d)
    assert prev_hi <= _BACKOFF_CAP_US
    # Deterministic per (node, oid, attempt); decorrelated across oids.
    assert (recovery._backoff_us(7, 3, 400.0)
            == recovery._backoff_us(7, 3, 400.0))
    assert (recovery._backoff_us(7, 3, 400.0)
            != recovery._backoff_us(8, 3, 400.0))
