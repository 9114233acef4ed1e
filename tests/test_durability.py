"""Durable storage tier: WAL fsync semantics, crash-consistent snapshots,
cold-start replay, and full-cluster power-loss recovery."""

import pytest

from repro.chaos.campaign import (CampaignConfig, Recipe, campaign_schedule,
                                  run_campaign, run_cell)
from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import Simulator
from repro.sim.params import DiskParams
from repro.sim.resources import DiskDevice
from repro.store.wal import ABORT, COMMIT, REDO, WalRecord, WriteAheadLog
from tests.conftest import make_cluster


def make_wal(fsync_policy="group"):
    sim = Simulator()
    params = DiskParams(enabled=True, fsync_policy=fsync_policy)
    disk = DiskDevice(sim, params.seek_us, params.write_bytes_per_us,
                      params.fsync_us, name="disk-test")
    registry = MetricsRegistry()
    wal = WriteAheadLog(sim, disk, params, registry.group("wal", node=0))
    return sim, wal


# ======================================================================
# WAL fsync policies
# ======================================================================


def test_group_policy_batches_appends_into_one_fsync():
    sim, wal = make_wal("group")
    futs = [wal.durability_future(wal.append(WalRecord(REDO, key=("k", i),
                                                       updates=[], pre=[])))
            for i in range(3)]
    # Inside the group window nothing is durable yet.
    sim.run(until=wal.params.group_window_us / 2)
    assert not any(f.done() for f in futs)
    assert wal.durable_lsn == -1
    sim.run()
    assert all(f.done() for f in futs)
    assert wal.durable_lsn == 2
    assert wal.counters.get("fsync_batches") == 1


def test_always_policy_fsyncs_without_waiting_for_the_window():
    sim, wal = make_wal("always")
    fut = wal.durability_future(wal.append(WalRecord(COMMIT, key=("k",))))
    sim.run()
    assert fut.done()
    # The record went durable well before a group window would even fire.
    assert sim.now < wal.params.group_window_us


def test_flush_now_trumps_a_waiting_group_window():
    sim, wal = make_wal("group")
    rec = wal.append(WalRecord(COMMIT, key=("k",)))
    fut = wal.flush_now()
    # Durable strictly before the pending group window would have fired.
    sim.run(until=wal.params.group_window_us - 1.0)
    assert fut.done()
    assert wal.durable_lsn == rec.lsn


# ======================================================================
# Crash semantics: the volatile tail and in-flight fsyncs die with power
# ======================================================================


def test_power_fail_discards_inflight_fsync_and_pending_futures():
    sim, wal = make_wal("always")
    rec = wal.append(WalRecord(COMMIT, key=("k",)))
    fut = wal.durability_future(rec)
    # Let the flush *start* (the fsync completion is now in flight)...
    sim.run(until=0.5)
    # ...then lose power before it lands.
    wal.power_fail()
    sim.run()
    # The completion scheduled before the crash must not be believed: the
    # record is gone and its durability ack never arrives.
    assert not fut.done()
    assert wal.durable_lsn == -1
    assert wal.durable_records() == []
    # The log keeps working after the reboot: new appends go durable.
    fut2 = wal.durability_future(wal.append(WalRecord(COMMIT, key=("k2",))))
    sim.run()
    assert fut2.done()
    assert wal.durable_records()[-1].key == ("k2",)


# ======================================================================
# Snapshot truncation
# ======================================================================


def test_install_snapshot_truncates_resolved_slots_keeps_inflight_redo():
    sim, wal = make_wal("group")
    wal.append(WalRecord(REDO, key=("k1",), updates=[], pre=[]))
    wal.append(WalRecord(COMMIT, key=("k1",)))
    inflight = wal.append(WalRecord(REDO, key=("k2",), updates=[], pre=[]))
    dropped = wal.install_snapshot({"fake": True}, cap_lsn=wal.next_lsn)
    # k1's REDO+COMMIT are covered by the snapshot; k2 is unresolved and
    # its REDO must survive so replay can still undo it.
    assert dropped == 2
    assert [r.lsn for r in wal._records] == [inflight.lsn]
    assert wal.snapshot == ({"fake": True}, 3)
    assert wal.counters.get("truncated") == 2


# ======================================================================
# Cold-start replay (snapshot restore + redo/undo + version floor)
# ======================================================================


def _durable_cluster(**disk_kw):
    kw = dict(enabled=True, fsync_policy="always")
    kw.update(disk_kw)
    return make_cluster(3, objects=6, disk=DiskParams(**kw))


def test_replay_redoes_committed_slots():
    cluster = _durable_cluster(snapshot_interval_us=0.0)
    h = cluster.handles[0]
    dur = h.node.durability
    obj = h.store.get(0)
    assert obj is not None and obj.t_version == 0
    key = dur.log_redo_coord(0, [(0, 1, "A", 8)],
                             [(0, obj.t_version, obj.t_data)])
    dur.log_commit(key)
    obj.t_version, obj.t_data = 1, "A"
    cluster.run(until=cluster.sim.now + 200.0)

    dur.power_fail()
    h.store.clear()
    if h.directory is not None:
        h.directory.clear()
    stats = dur.replay()

    back = h.store.get(0)
    assert back is not None
    assert (back.t_version, back.t_data) == (1, "A")
    assert stats.redo_applied == 1
    assert stats.undone == 0


def test_replay_undoes_inflight_slot_and_floors_its_version():
    cluster = _durable_cluster(snapshot_interval_us=0.0)
    h = cluster.handles[0]
    dur = h.node.durability
    obj = h.store.get(0)
    # Committed write v1, then an in-flight write v2 whose COMMIT never
    # reached disk; a snapshot captures the applied-but-unresolved state.
    key1 = dur.log_redo_coord(0, [(0, 1, "A", 8)], [(0, 0, obj.t_data)])
    dur.log_commit(key1)
    obj.t_version, obj.t_data = 1, "A"
    key2 = dur.log_redo_coord(0, [(0, 2, "B", 8)], [(0, 1, "A")])
    obj.t_version, obj.t_data = 2, "B"
    h.node.spawn(dur.snapshot_once(), name="snap-test")
    cluster.run(until=cluster.sim.now + 500.0)
    assert dur.wal.snapshot[1] > 0  # genesis superseded

    dur.power_fail()
    h.store.clear()
    if h.directory is not None:
        h.directory.clear()
    stats = dur.replay()

    back = h.store.get(0)
    # Data rolled back to the committed pre-image, but the version label
    # the log handed out is never reissued: the counter stays floored at
    # the undone write's version and the object is reported as such.
    assert back.t_data == "A"
    assert back.t_version == 2
    assert stats.undone == 1
    assert 0 in stats.floored
    # The undo itself is logged so a second crash replays identically.
    assert any(r.kind == ABORT and r.key == key2
               for r in dur.wal._records)


# ======================================================================
# Full-cluster power loss through the harness
# ======================================================================


def test_durable_commits_survive_full_power_loss():
    cluster = _durable_cluster()
    cluster.start_membership()
    cluster.run(until=500.0)
    api = cluster.handles[0].api
    results = []

    def app():
        for _ in range(10):
            r = yield from api.execute_write(0, [0])
            results.append(r)

    cluster.spawn_app(0, 0, app())
    cluster.run(until=5_000.0)
    assert sum(1 for r in results if r.committed) == 10
    before = max(h.store.get(0).t_version for h in cluster.handles
                 if h.store.get(0) is not None)
    data_before = next(h.store.get(0).t_data for h in cluster.handles
                       if h.store.get(0) is not None
                       and h.store.get(0).t_version == before)

    cluster.power_loss()
    view_at = cluster.cold_restart()
    cluster.run(until=view_at + 3_000.0)

    survivors = [h.store.get(0) for h in cluster.handles
                 if h.store.get(0) is not None]
    assert survivors, "durable object vanished across the power loss"
    after = max(o.t_version for o in survivors)
    assert after >= before
    assert any(o.t_data == data_before and o.t_version >= before
               for o in survivors)
    registry = cluster.obs.registry
    assert registry.counter_total("recovery.wal_replayed") > 0


def test_cold_restart_without_durability_tier_is_amnesia():
    cluster = make_cluster(3, objects=6)
    cluster.start_membership()
    cluster.run(until=500.0)
    api = cluster.handles[0].api

    def app():
        yield from api.execute_write(0, [0])

    cluster.spawn_app(0, 0, app())
    cluster.run(until=3_000.0)
    cluster.power_loss()
    cluster.cold_restart()
    # The paper's in-memory semantics: nothing survives the outage.
    assert all(h.store.get(oid) is None
               for h in cluster.handles for oid in range(6))


# ======================================================================
# Power-loss chaos campaign: the acceptance gate
# ======================================================================


def _power_loss_cfg(policy, seeds=(0, 1, 2)):
    return CampaignConfig(
        cell=Recipe(duration_us=12_000.0, quiesce_us=12_000.0,
                    check_history=True,
                    disk=DiskParams(enabled=True, fsync_policy=policy)),
        num_schedules=1, seeds=seeds, power_loss=True)


@pytest.mark.parametrize("policy", ["group", "always"])
def test_power_loss_campaign_audits_clean(policy):
    cfg = _power_loss_cfg(policy)
    result = run_campaign(cfg)
    assert result.ok, result.problems()
    for run in result.runs:
        assert any(e.startswith("power_loss") for e in run.timeline)
        assert any(e.startswith("cold_restart") for e in run.timeline)
        assert run.committed > 0
    assert result.registry.counter_total("recovery.wal_replayed") > 0


@pytest.mark.parametrize("policy", ["group", "always"])
def test_power_loss_run_is_deterministic(policy):
    cfg = _power_loss_cfg(policy, seeds=(0,))
    recipe = cfg.cell.of(campaign_schedule(cfg, 0), 0)
    first = run_cell(recipe)
    second = run_cell(recipe)
    assert first.digest() == second.digest()
    assert first.ok, list(first.audit.problems())
