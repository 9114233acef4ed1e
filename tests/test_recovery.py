"""Node recovery & rejoin: restart lifecycle, state transfer, epoch
fencing, re-replication, and the audits that gate them."""

import pytest

from repro.chaos.schedule import CrashEvent, FaultSchedule, RecoverEvent
from repro.hermes.protocol import HermesReplica
from repro.net.message import Message
from repro.store.meta import Ots
from repro.verify.audit import audit_degree, audit_rejoin
from tests.conftest import make_cluster


def _recovered_cluster(num_nodes=4, objects=8, crash_node=1,
                       crash_at=3_000.0, recover_at=15_000.0, seed=0,
                       until=60_000.0):
    """A cluster that went through one full cold crash→rejoin cycle."""
    cluster = make_cluster(num_nodes, objects=objects, fast_failover=True,
                           seed=seed)
    cluster.start_membership()
    cluster.crash(crash_node, at=crash_at)
    cluster.recover(crash_node, at=recover_at)
    cluster.run(until=until)
    return cluster


# ======================================================================
# Restart lifecycle
# ======================================================================

def test_restart_requires_a_crash_first():
    cluster = make_cluster(3)
    with pytest.raises(RuntimeError, match="alive"):
        cluster.nodes[1].restart()


def test_rejoin_bumps_incarnation_and_epoch():
    cluster = _recovered_cluster()
    node = cluster.nodes[1]
    view = cluster.membership.view
    assert node.alive and not node.transport.quarantined
    assert node.incarnation == 2
    assert view.live == frozenset({0, 1, 2, 3})
    assert view.epoch == 3  # boot view + eviction + admission
    assert view.incarnations[1] == 2
    assert node.epoch == 3
    # Every peer learned the fresh incarnation from the admit view.
    for peer in (0, 2, 3):
        assert cluster.nodes[peer].peer_incarnations[1] == 2


def test_membership_prunes_state_and_ignores_nonmember_heartbeats():
    """Eviction drops the detector's per-node state, and a zombie
    heartbeat must not resurrect a lease the view no longer grants."""
    cluster = make_cluster(3, fast_failover=True)
    cluster.start_membership()
    cluster.run(until=1_000.0)
    service = cluster.membership
    assert 2 in service._last_heartbeat
    cluster.crash(2)
    cluster.run(until=30_000.0)
    assert 2 not in service.view.live
    assert 2 not in service._last_heartbeat
    epoch = service.view.epoch
    service._record_heartbeat(2)  # in-flight / zombie heartbeat
    assert 2 not in service._last_heartbeat
    cluster.run(until=60_000.0)
    assert service.view.epoch == epoch


# ======================================================================
# Fencing
# ======================================================================

def test_zombie_incarnation_traffic_is_fenced():
    cluster = _recovered_cluster()
    donor = cluster.nodes[0]
    assert donor.peer_incarnations[1] == 2
    before = donor.transport._c_fenced.value
    chan = donor.transport._recv.get(1)
    expected_before = chan.expected if chan is not None else None
    zombie = Message(1, 0, "own.recovered", (donor.epoch, 1), 16)
    zombie.inc = 1  # the dead incarnation
    zombie.seq = expected_before or 0
    donor.transport._on_wire(zombie)
    assert donor.transport._c_fenced.value == before + 1
    # Channel state untouched: the fence fires before any bookkeeping.
    chan_after = donor.transport._recv.get(1)
    assert (chan_after.expected if chan_after else None) == expected_before


def test_traffic_addressed_to_dead_incarnation_is_fenced():
    """A probe retransmit created before the sender learned of the restart
    carries the old destination incarnation and must be dropped."""
    cluster = _recovered_cluster()
    rejoiner = cluster.nodes[1]
    assert rejoiner.incarnation == 2
    before = rejoiner.transport._c_fenced.value
    chan = rejoiner.transport._recv.get(0)
    expected_before = chan.expected if chan is not None else None
    stale = Message(0, 1, "rc.val", None, 16)
    stale.inc = 1       # sender never restarted: its incarnation is fine
    stale.dst_inc = 1   # but it addressed our dead predecessor
    stale.seq = expected_before or 0
    rejoiner.transport._on_wire(stale)
    assert rejoiner.transport._c_fenced.value == before + 1
    chan_after = rejoiner.transport._recv.get(0)
    assert (chan_after.expected if chan_after else None) == expected_before


def test_restarted_node_quarantines_traffic_until_admitted():
    """Between restart and the admit view, *everything* inbound is
    dropped — in-flight traffic can only target the dead incarnation, and
    consuming it would desynchronize the fresh receive channels against
    peers that reset at the admit view."""
    cluster = make_cluster(3, fast_failover=True)
    cluster.start_membership()
    cluster.crash(2, at=2_000.0)
    cluster.run(until=20_000.0)  # eviction installed
    node = cluster.nodes[2]
    cluster.handles[2].recovery.rejoin(2_000.0)
    assert node.transport.quarantined
    stray = Message(0, 2, "rc.val", None, 16)
    stray.inc = 1
    stray.seq = 0
    node.transport._on_wire(stray)
    assert node.transport._c_quarantined.value == 1
    assert 0 not in node.transport._recv
    cluster.membership.admit(2)
    cluster.run(until=60_000.0)
    assert not node.transport.quarantined
    assert 2 in cluster.membership.view.live


# ======================================================================
# State transfer + degree repair
# ======================================================================

def test_state_transfer_rebuilds_store_directory_and_degree():
    cluster = _recovered_cluster(crash_node=1)
    handle = cluster.handles[1]
    # Every replica set naming the rejoiner is backed by a stored object,
    # and its directory shard is complete.
    assert audit_rejoin(cluster) == []
    assert audit_degree(cluster) == []
    counters = handle.recovery.counters.as_dict()
    assert counters["rejoins"] == 1
    assert counters["transfer_chunks"] > 0
    assert counters["transfer_bytes"] > 0
    assert counters["objects_repaired"] > 0
    hists = cluster.obs.registry.snapshot()["histograms"]
    assert hists["recovery.mttr_us{node=1}"]["count"] == 1
    assert hists["recovery.catchup_us{node=1}"]["count"] == 1


def test_refetch_restores_value_for_still_listed_replica():
    """A replica still listed for an object it lost re-fetches the bytes
    directly instead of a no-op ADD_READER (driven by hand: no measured
    rejoin is still listed)."""
    cluster = make_cluster(4, objects=4)
    cluster.start_membership()
    cluster.run(until=1_000.0)
    oid = 0
    replicas = cluster.replicas_of(oid)
    victim = sorted(n for n in replicas.all_nodes() if n != replicas.owner)[0]
    for h in cluster.handles:
        obj = h.store.get(oid)
        if obj is not None:
            obj.t_data, obj.t_version = 42, 7
    handle = cluster.handles[victim]
    handle.store.drop(oid)
    recovery = handle.recovery
    recovery._entries[oid] = (cluster.handles[replicas.owner].store
                              .get(oid).o_ts, replicas)
    cluster.nodes[victim].spawn(recovery._fill(oid, refetch=True))
    cluster.run(until=10_000.0)
    obj = handle.store.get(oid)
    assert obj is not None and (obj.t_data, obj.t_version) == (42, 7)
    assert recovery.counters.as_dict()["objects_refetched"] == 1


def test_rejoiner_that_cannot_fill_a_hole_alone_gets_help_from_hints():
    """Two nodes crash at once and one comes back: objects that lost both
    replicas stay one short after the rejoiner joins their sets, so the
    donors' scan hints a live bystander, which repairs itself."""
    cluster = make_cluster(4, objects=8, fast_failover=True)
    cluster.start_membership()
    cluster.crash(2, at=3_000.0)
    cluster.crash(3, at=3_000.0)
    cluster.recover(2, at=15_000.0)
    cluster.run(until=60_000.0)
    registry = cluster.obs.registry
    assert registry.counter_total("recovery.rejoins") == 1
    assert registry.counter_total("recovery.repair_hints") > 0
    # Both bystanders took a hinted repair, one from its own scan and one
    # from the other donor's REPAIR message.
    for bystander in (0, 1):
        counters = cluster.handles[bystander].recovery.counters.as_dict()
        assert counters["objects_repaired"] > 0
    assert audit_rejoin(cluster) == []
    assert audit_degree(cluster) == []


def test_rejoin_audit_detects_stale_and_missing_replicas():
    cluster = _recovered_cluster(crash_node=1)
    handle = cluster.handles[1]
    assert audit_rejoin(cluster) == []
    # A stale value on the rejoiner is flagged...
    victim_obj = next(iter(handle.store))
    victim_obj.t_version -= 1
    victim_obj.t_data = "stale"
    assert any("live replica holds" in p for p in audit_rejoin(cluster))
    victim_obj.t_version += 1
    victim_obj.t_data = 0
    # ...so is a replica-set listing with no backing copy...
    handle.store.drop(victim_obj.oid)
    assert any("stores no copy" in p for p in audit_rejoin(cluster))
    # ...and an incomplete directory shard.
    if handle.directory is not None:
        shard_oid = next(oid for oid, _e in handle.directory.items())
        handle.directory._entries.pop(shard_oid)
        assert any("state transfer incomplete" in p
                   for p in audit_rejoin(cluster))


def test_degree_audit_detects_unrepaired_replica_set():
    cluster = _recovered_cluster(crash_node=1)
    assert audit_degree(cluster) == []
    # Shrink one replica set below target on every directory host.
    oid = 0
    for h in cluster.handles:
        if h.directory is None:
            continue
        entry = h.directory.get(oid)
        if entry is not None and entry.replicas is not None:
            reader = sorted(entry.replicas.readers)[0]
            entry.replicas = entry.replicas.without(reader)
    assert any("replication degree" in p for p in audit_degree(cluster))


# ======================================================================
# Overlapping slowdown windows (satellite: window-aware restores)
# ======================================================================

def test_overlapping_slowdown_windows_nest():
    cluster = make_cluster(3)
    node = cluster.nodes[1]
    cluster.slow(1, 2.0, at=1_000.0, until=5_000.0)
    cluster.slow(1, 4.0, at=2_000.0, until=8_000.0)
    samples = {}
    for t in (1_500.0, 3_000.0, 6_000.0, 9_000.0):
        cluster.sim.call_at(t, lambda t=t: samples.__setitem__(t, node.slowdown))
    cluster.run(until=10_000.0)
    # The early window's end restores the *inner* window's factor, not 1.0.
    assert samples == {1_500.0: 2.0, 3_000.0: 4.0, 6_000.0: 4.0, 9_000.0: 1.0}


def test_slowdown_window_straddling_a_restart_is_discarded():
    cluster = make_cluster(4, fast_failover=True)
    cluster.start_membership()
    node = cluster.nodes[1]
    cluster.slow(1, 8.0, at=1_000.0, until=40_000.0)
    cluster.crash(1, at=2_000.0)
    cluster.recover(1, at=15_000.0)
    cluster.run(until=60_000.0)
    # The reboot came back at full speed and the pending end was a no-op.
    assert node.slowdown == 1.0


# ======================================================================
# Schedule + generator (satellite: crash→recover pairs)
# ======================================================================

def test_schedule_rejects_recovery_without_crash():
    with pytest.raises(ValueError, match="recovery without an earlier crash"):
        FaultSchedule([RecoverEvent(at_us=5_000.0, node=0)]).validate(3)
    with pytest.raises(ValueError, match="recovery without an earlier crash"):
        FaultSchedule([CrashEvent(at_us=5_000.0, node=0),
                       RecoverEvent(at_us=3_000.0, node=0)]).validate(3)
    with pytest.raises(ValueError, match="recovery without an earlier crash"):
        FaultSchedule([CrashEvent(at_us=1_000.0, node=0),
                       RecoverEvent(at_us=2_000.0, node=0),
                       RecoverEvent(at_us=3_000.0, node=0)]).validate(3)
    sched = FaultSchedule([CrashEvent(at_us=1_000.0, node=0),
                           RecoverEvent(at_us=2_000.0, node=0)])
    sched.validate(3)
    assert [e.node for e in sched.of(CrashEvent)] == [0]
    assert [e.node for e in sched.of(RecoverEvent)] == [0]


def test_generator_emits_crash_recover_pairs_deterministically():
    from repro.chaos.generator import generate_schedule
    horizon = 30_000.0
    seen_recovery = False
    for seed in range(20):
        sched = generate_schedule(4, horizon, seed=seed, difficulty=2,
                                  require_crash=True)
        again = generate_schedule(4, horizon, seed=seed, difficulty=2,
                                  require_crash=True)
        assert sched.signature() == again.signature()
        assert sched.of(RecoverEvent)  # difficulty >= 2 pairs every crash
        seen_recovery = True
        crash = next(e for e in sched if isinstance(e, CrashEvent))
        recover = next(e for e in sched if isinstance(e, RecoverEvent))
        assert recover.node == crash.node
        assert crash.at_us < recover.at_us
        assert recover.at_us >= horizon * 0.72  # after every partition heals
    assert seen_recovery
    # Difficulty 1 and allow_recovery=False never emit recoveries.
    for seed in range(10):
        assert not generate_schedule(4, horizon, seed=seed, difficulty=1,
                                     require_crash=True).of(RecoverEvent)
        assert not generate_schedule(4, horizon, seed=seed, difficulty=2,
                                     require_crash=True,
                                     allow_recovery=False).of(RecoverEvent)


# ======================================================================
# Hermes snapshot transfer (the same rejoin idea, baseline protocol)
# ======================================================================

def test_hermes_snapshot_bootstraps_a_reset_replica():
    cluster = make_cluster(3)
    replicas = [HermesReplica(cluster.nodes[n], (0, 1, 2)) for n in (0, 1, 2)]
    replicas[0].write("a", "v1")
    replicas[1].write("b", "v2")
    cluster.run(until=10_000.0)
    replicas[2].reset()
    assert replicas[2].read("a") is None
    applied = replicas[2].apply_snapshot(replicas[0].export_snapshot())
    assert applied == 2
    assert replicas[2].read("a") == "v1" and replicas[2].read("b") == "v2"
    # Timestamp guard: re-applying (or applying a stale snapshot) is a no-op.
    assert replicas[2].apply_snapshot(replicas[0].export_snapshot()) == 0


# ======================================================================
# End-to-end: audited chaos run with a crash→recover pair
# ======================================================================

def test_chaos_run_with_recovery_passes_all_audits():
    from repro.chaos.campaign import Recipe, run_cell
    recipe = Recipe(duration_us=20_000.0, quiesce_us=25_000.0,
                    name="rejoin-smoke",
                    events=(CrashEvent(at_us=4_000.0, node=2),
                            RecoverEvent(at_us=14_000.0, node=2)))
    r1 = run_cell(recipe)
    assert r1.ok, r1.audit.problems()
    assert any("recover" in e for e in r1.timeline)
    # The whole cycle — including rejoin — is deterministic.
    r2 = run_cell(recipe)
    assert r1.digest() == r2.digest()


# ======================================================================
# Donor selection when every listed replica is quarantined
# ======================================================================

def _listed_oid_for(cluster, node_id):
    """An object whose replica set includes ``node_id``."""
    for oid in range(cluster.catalog.num_objects):
        replicas = cluster.replicas_of(oid)
        if replicas is not None and node_id in replicas.all_nodes():
            return oid, replicas
    raise AssertionError("no object lists the node")


def test_refetch_gives_up_cleanly_when_all_listed_replicas_quarantined():
    """A still-listed node refetching a value finds every other listed
    replica quarantined: the refetch must give up without messaging the
    dead (repair_failed), not spin or crash — after a full-cluster outage
    this is the normal picture, not a corner."""
    cluster = make_cluster(4, objects=8, fast_failover=True)
    cluster.start_membership()
    cluster.run(until=1_000.0)
    me = 3
    oid, replicas = _listed_oid_for(cluster, me)
    others = sorted(n for n in replicas.all_nodes() if n != me)
    for n in others:
        cluster.crash(n)
    cluster.run(until=12_000.0)  # detection: all other replicas evicted
    h = cluster.handles[me]
    assert all(n not in h.node.live_nodes for n in others)
    rec = h.recovery
    # The post-restart picture: the entry is known, the bytes are gone.
    obj = h.store.get(oid)
    rec._entries[oid] = (obj.o_ts if obj is not None else Ots(0, 0), replicas)
    h.store.drop(oid)
    failed_before = rec.counters.get("repair_failed", 0)
    h.node.spawn(rec._fill(oid, refetch=True), name="refetch-test")
    cluster.run(until=cluster.sim.now + 30_000.0)
    assert rec.counters.get("repair_failed", 0) == failed_before + 1
    assert not h.store.has(oid)


def test_begin_transfer_without_live_donors_finishes_gracefully():
    """State transfer with zero live donors (the sole-survivor /
    everyone-quarantined case) must complete immediately and still run
    the repair pass, leaving no pending-donor state behind."""
    cluster = make_cluster(4, objects=8, fast_failover=True)
    cluster.start_membership()
    cluster.run(until=1_000.0)
    rec = cluster.handles[2].recovery
    rec._begin_transfer(frozenset({2}))
    assert not rec._pending_donors
    cluster.run(until=2_000.0)  # the spawned repair pass drains
    assert rec._transfer_span is None


def test_a_transfer_span_dies_with_its_incarnation():
    """A recipient that crashes mid-transfer leaves that transfer's span
    open — the dead incarnation's, in no export — and the next
    incarnation's transfer is a span of its own, not the old one carried
    across the crash with the first attempt's donor count."""
    from repro.harness.zeus_cluster import ZeusCluster
    from repro.obs import Observability, Tracer
    from repro.sim.params import SimParams
    from tests.conftest import make_catalog

    tracer = Tracer()
    cluster = ZeusCluster(
        4, params=SimParams().with_(lease_us=2_000.0, heartbeat_us=200.0),
        catalog=make_catalog(4, objects=400), obs=Observability(tracer=tracer))
    cluster.load(init_value=0)
    cluster.start_membership()
    cluster.crash(1, at=2_000.0)
    cluster.recover(1, at=15_000.0)

    def crash_on_admit(_epoch, live):
        # The admit view opened the transfer; crash before it completes.
        if cluster.sim.now > 15_000.0 and 1 in live and not restarts:
            restarts.append(cluster.sim.now + 12_000.0)
            cluster.crash(1, at=cluster.sim.now + 2.0)
            cluster.recover(1, at=restarts[0])

    restarts = []
    cluster.nodes[1].add_view_listener(crash_on_admit)
    cluster.run(until=60_000.0)
    assert cluster.handles[1].recovery.counters["rejoins"] == 2
    [transfer] = tracer.spans_named("recovery.transfer")
    assert transfer.start_us > restarts[0]
    assert transfer.duration_us < 1_000.0
    assert tracer.open_spans == 1  # the first attempt's, never closed
