"""Chaos layer: schedules, generator, engine, campaign, audits, and
recovery-under-faults coverage (commit replay / arb-replay with loss and
duplication active, membership telling lost heartbeats from crashes)."""

import pytest

from repro.chaos import (
    CampaignConfig,
    ChaosEngine,
    CrashEvent,
    FaultSchedule,
    FaultWindowEvent,
    PartitionEvent,
    Recipe,
    SlowdownEvent,
    generate_schedule,
    run_campaign,
    run_cell,
)
from repro.harness.rig import Rig, counter_catalog
from repro.sim.params import FaultParams
from repro.verify.audit import (
    CommitLedger,
    audit_exactly_once,
    audit_liveness,
    audit_run,
)
from repro.verify.invariants import check_invariants
from repro.workloads.base import TxnSpec, run_zeus_workload
from tests.conftest import make_cluster


# ======================================================================
# Schedules
# ======================================================================

def test_schedule_sorts_events_and_signature_is_stable():
    a = CrashEvent(at_us=5_000.0, node=1)
    b = PartitionEvent(at_us=2_000.0, a_side=(0,), b_side=(1, 2),
                       heal_at_us=4_000.0)
    s1 = FaultSchedule([a, b], name="x")
    s2 = FaultSchedule([b, a], name="x")
    assert [e.at_us for e in s1] == [2_000.0, 5_000.0]
    assert s1.signature() == s2.signature()
    assert s1.of(CrashEvent) == (a,)
    assert s1.of(PartitionEvent) and not s1.of(SlowdownEvent)
    assert "partition" in s1.describe()


@pytest.mark.parametrize("events,message", [
    ([CrashEvent(at_us=-1.0, node=0)], "before t=0"),
    ([CrashEvent(at_us=1.0, node=9)], "bad node"),
    ([PartitionEvent(at_us=1.0, a_side=(), b_side=(1,))], "empty side"),
    ([PartitionEvent(at_us=1.0, a_side=(0, 1), b_side=(1, 2))],
     "overlapping sides"),
    ([PartitionEvent(at_us=5.0, a_side=(0,), b_side=(1,), heal_at_us=4.0)],
     "heal before cut"),
    ([SlowdownEvent(at_us=1.0, node=0, factor=0.0)], "bad factor"),
    ([SlowdownEvent(at_us=5.0, node=0, factor=2.0, end_us=4.0)],
     "window ends early"),
    ([FaultWindowEvent(at_us=5.0, end_us=5.0, params=FaultParams())],
     "window ends early"),
    ([FaultWindowEvent(at_us=1.0, end_us=10.0, params=FaultParams()),
      FaultWindowEvent(at_us=5.0, end_us=15.0, params=FaultParams())],
     "overlapping fault windows"),
])
def test_schedule_validation_rejects(events, message):
    with pytest.raises(ValueError, match=message):
        FaultSchedule(events).validate(num_nodes=3)


def test_schedule_validation_enforces_horizon():
    sched = FaultSchedule([CrashEvent(at_us=9_000.0, node=0)])
    sched.validate(num_nodes=3, horizon_us=10_000.0)
    with pytest.raises(ValueError, match="past horizon"):
        sched.validate(num_nodes=3, horizon_us=8_000.0)


# ======================================================================
# Generator
# ======================================================================

def test_generator_is_deterministic_per_seed():
    kw = dict(num_nodes=4, horizon_us=30_000.0, difficulty=3)
    s1 = generate_schedule(seed=7, **kw)
    s2 = generate_schedule(seed=7, **kw)
    assert s1.signature() == s2.signature()
    assert s1.signature() != generate_schedule(seed=8, **kw).signature()


def test_generator_difficulty_scales_adversity():
    with pytest.raises(ValueError):
        generate_schedule(4, 30_000.0, seed=0, difficulty=4)
    # Difficulty 0 is the fault-free control cell, crash demand or not.
    assert not generate_schedule(4, 30_000.0, seed=0, difficulty=0,
                                 require_crash=True).events
    # Difficulty 3 stacks loss + partition + slowdown in every schedule.
    s3 = generate_schedule(4, 30_000.0, seed=0, difficulty=3)
    assert (s3.of(FaultWindowEvent) and s3.of(PartitionEvent)
            and s3.of(SlowdownEvent))
    # Difficulty 1 picks exactly one adversity (plus possibly a crash).
    s1 = generate_schedule(4, 30_000.0, seed=0, difficulty=1,
                           allow_crash=False)
    kinds = sum(bool(s1.of(kind)) for kind in
                (FaultWindowEvent, PartitionEvent, SlowdownEvent))
    assert kinds == 1 and not s1.of(CrashEvent)


def test_generator_require_crash_and_heal_bounds():
    for seed in range(5):
        sched = generate_schedule(4, 30_000.0, seed=seed, difficulty=3,
                                  require_crash=True)
        assert len(sched.of(CrashEvent)) == 1
        for ev in sched:
            if isinstance(ev, PartitionEvent):
                # Generated partitions always heal inside the run.
                assert ev.heal_at_us is not None
                assert ev.heal_at_us <= 30_000.0 * 0.7


# ======================================================================
# Engine
# ======================================================================

def test_engine_applies_schedule_to_cluster():
    cluster = make_cluster(3)
    burst = FaultParams(loss_prob=0.5)
    sched = FaultSchedule([
        CrashEvent(at_us=5_000.0, node=2),
        PartitionEvent(at_us=1_000.0, a_side=(0,), b_side=(1,),
                       heal_at_us=3_000.0),
        SlowdownEvent(at_us=1_000.0, node=1, factor=4.0, end_us=3_000.0),
        FaultWindowEvent(at_us=1_000.0, end_us=3_000.0, params=burst),
    ])
    engine = ChaosEngine(cluster)
    engine.install(sched)
    with pytest.raises(RuntimeError):
        engine.install(sched)

    mid, after = {}, {}

    def probe(into):
        into["partitioned"] = cluster.network.is_partitioned(0, 1)
        into["slowdown"] = cluster.nodes[1].slowdown
        into["loss"] = cluster.faults.params.loss_prob

    cluster.sim.call_at(2_000.0, probe, mid)
    cluster.sim.call_at(4_000.0, probe, after)
    cluster.run(until=6_000.0)

    assert mid == {"partitioned": True, "slowdown": 4.0, "loss": 0.5}
    assert after == {"partitioned": False, "slowdown": 1.0, "loss": 0.0}
    assert not cluster.nodes[2].alive
    assert [n for _t, n in cluster.failures.crashed] == [2]


def test_engine_rejects_schedule_for_wrong_cluster_size():
    cluster = make_cluster(3)
    sched = FaultSchedule([CrashEvent(at_us=1_000.0, node=5)])
    with pytest.raises(ValueError, match="bad node"):
        ChaosEngine(cluster).install(sched)


# ======================================================================
# Campaign
# ======================================================================

def _small_cell(**overrides):
    kw = dict(duration_us=20_000.0, quiesce_us=25_000.0)
    kw.update(overrides)
    return Recipe(**kw)


def test_single_run_is_deterministic():
    cell = _small_cell()
    sched = generate_schedule(cell.num_nodes, cell.duration_us, seed=101,
                              difficulty=3, require_crash=True)
    r1 = run_cell(cell.of(sched, 0))
    r2 = run_cell(cell.of(sched, 0))
    assert r1.digest() == r2.digest()
    assert r1.ok, r1.audit.problems()
    assert r1.committed > 0
    assert "crash" in " ".join(r1.timeline)


@pytest.mark.parametrize("layers", [dict(check_history=True),
                                    dict(placement=True)],
                         ids=["check_history", "placement"])
def test_profiler_survives_the_per_run_observability_rebuild(layers):
    """``run_cell`` layers a per-run history (or locality) recorder
    over the caller's Observability; the caller's host profiler must still
    be the one the kernel, the nodes and the network report to."""
    from repro.obs import HostProfiler, Observability
    cell = _small_cell(duration_us=6_000.0, quiesce_us=12_000.0, **layers)
    sched = generate_schedule(cell.num_nodes, cell.duration_us, seed=101,
                              difficulty=1)
    profiler = HostProfiler()
    report = run_cell(cell.of(sched, 0), Observability(profiler=profiler))
    assert report.ok, report.audit.problems()
    assert profiler.events_profiled > 0
    assert sum(profiler.handler_events.values()) > 0
    assert sum(profiler.message_counts.values()) > 0


def test_small_campaign_passes_all_audits():
    result = run_campaign(CampaignConfig(
        cell=_small_cell(), num_schedules=2, seeds=(0, 1), difficulty=2))
    assert len(result.runs) == 4
    assert result.ok, result.problems()
    # The first schedule is forced to crash a node, so every campaign
    # exercises failure detection + recovery.
    assert any("crash" in e for r in result.runs for e in r.timeline)
    assert result.registry.snapshot()["counters"]["chaos.runs"] == 4
    assert "campaign" in result.summary()


def test_unhealed_partition_fails_liveness_audit():
    """A partition that never heals must be caught, not papered over."""
    sched = FaultSchedule([
        PartitionEvent(at_us=2_000.0, a_side=(0,), b_side=(1, 2, 3),
                       heal_at_us=None),
    ], name="no-heal")
    report = run_cell(_small_cell().of(sched, 0))
    assert not report.ok
    assert any("unacked" in p for p in report.audit.liveness)


def test_exactly_once_audit_detects_ledger_mismatch():
    cfg = _small_cell()
    rig = Rig(counter_catalog(cfg.num_nodes, cfg.num_objects), seed=0)
    cluster, ledger = rig.cluster, rig.ledger
    cluster.start_membership()

    def spec_fn(node_id, thread, rng):
        return TxnSpec(write_set=[rng.randrange(cfg.num_objects)], exec_us=0.3)

    run_zeus_workload(cluster, spec_fn, duration_us=5_000.0,
                      threads=1, seed=0, on_commit=rig.on_commit)
    cluster.run(until=30_000.0)
    assert audit_exactly_once(cluster, ledger) == []
    # A commit the datastore never applied shows up as a deficit...
    ledger.record(0, [0])
    assert any("committed increments" in p
               for p in audit_exactly_once(cluster, ledger))
    # ...and a duplicated application as an excess.
    ledger.by_node[0][0] -= 2
    assert any("applied" in p for p in audit_exactly_once(cluster, ledger))


# ======================================================================
# Recovery under faults (loss + duplication active during recovery)
# ======================================================================

def _faulty_cluster(seed):
    cluster = make_cluster(4, objects=12, fast_failover=True, seed=seed,
                           faults=FaultParams(loss_prob=0.03,
                                              duplicate_prob=0.03,
                                              reorder_max_us=4.0))
    cluster.start_membership()
    return cluster


def _counter_spec(node_id, thread, rng):
    return TxnSpec(write_set=rng.sample(range(12), 2), exec_us=0.3)


def test_commit_replay_completes_with_loss_and_duplication():
    """A coordinator crash mid-pipeline forces commit replay, and the
    replay itself runs over a network that is still losing and duplicating
    messages — recovery must converge anyway."""
    cluster = _faulty_cluster(seed=3)
    cluster.crash(3, at=5_000.0)
    ledger = CommitLedger()

    def on_commit(node_id, spec, _result):
        ledger.record(node_id, spec.write_set)

    run_zeus_workload(cluster, _counter_spec, duration_us=20_000.0,
                      threads=2, seed=3, on_commit=on_commit)
    cluster.run(until=200_000.0)

    replays = sum(h.commit.counters.as_dict().get("commit_replay", 0)
                  for h in cluster.handles)
    assert replays > 0  # the recovery path actually ran
    assert cluster.nodes[0].epoch == 2
    report = audit_run(cluster, ledger)
    assert report.ok, report.problems()


def test_arb_replay_completes_with_loss_and_duplication():
    """Ownership arbitrations pending at the crash are replayed to the
    surviving arbiters while loss/duplication stays active."""
    cluster = _faulty_cluster(seed=5)
    cluster.crash(3, at=3_000.0)
    run_zeus_workload(cluster, _counter_spec, duration_us=20_000.0,
                      threads=2, seed=5)
    cluster.run(until=200_000.0)

    replays = sum(h.ownership.counters.as_dict().get("arb_replay", 0)
                  for h in cluster.handles)
    assert replays > 0
    check_invariants(cluster)
    assert audit_liveness(cluster) == []


def test_crash_rejoin_cycle_with_loss_and_duplication():
    """The full crash→rejoin cycle — commit replay for the dead
    coordinator, ownership slow path while it is gone, then re-admission,
    state transfer and degree repair — all over a network that keeps
    losing, duplicating and reordering messages."""
    cluster = _faulty_cluster(seed=7)
    cluster.crash(3, at=5_000.0)
    cluster.recover(3, at=15_000.0)
    ledger = CommitLedger()

    def on_commit(node_id, spec, _result):
        ledger.record(node_id, spec.write_set)

    run_zeus_workload(cluster, _counter_spec, duration_us=25_000.0,
                      threads=2, seed=7, on_commit=on_commit)
    cluster.run(until=250_000.0)

    node = cluster.nodes[3]
    assert node.alive and node.incarnation == 2
    assert 3 in cluster.membership.view.live
    assert cluster.handles[3].recovery.counters.as_dict()["rejoins"] == 1
    report = audit_run(cluster, ledger)
    assert report.ok, report.problems()


# ======================================================================
# Membership: lost heartbeats vs real crashes
# ======================================================================

def test_membership_tolerates_lost_heartbeats_but_detects_crash():
    """Dropping every other heartbeat never reaches the 3-heartbeat
    silence threshold, so no view change; an actual crash still does."""
    cluster = make_cluster(3, fast_failover=True)
    cluster.start_membership()
    beats = {"sent": 0, "dropped": 0}

    def drop_every_other(node_id):
        if node_id != 1:
            return False
        beats["sent"] += 1
        if beats["sent"] % 2 == 0:
            beats["dropped"] += 1
            return True
        return False

    cluster.membership.heartbeat_drop_fn = drop_every_other
    cluster.run(until=50_000.0)
    assert beats["dropped"] > 50  # the hook really was losing heartbeats
    assert cluster.membership.view.epoch == 1
    assert cluster.membership.view.live == frozenset({0, 1, 2})

    cluster.crash(1)
    cluster.run(until=80_000.0)
    assert cluster.membership.view.epoch == 2
    assert 1 not in cluster.membership.view.live
    assert cluster.nodes[0].epoch == 2
