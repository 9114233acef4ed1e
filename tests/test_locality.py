"""Locality telemetry: the Space-Saving access sketch, remote-txn cause
attribution, the migration-effectiveness ledger, and the ``repro
heatmap`` CLI.

Covers the recorder's contract with the rest of the stack — absent means
``None``, zero behavioural footprint when attached (same commits, same
outcome, recorder on or off), bounded memory under adversarial key
streams, and seed-pure byte-identical JSON reports.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.rig import Rig, counter_catalog
from repro.harness.runner import main
from repro.obs import LocalityRecorder, Observability, SpaceSaving
from repro.obs.locality import (
    CAUSE_MIGRATING,
    CAUSE_ROUTING_MISS,
    CAUSE_SHARED,
)

# ---------------------------------------------------------------------------
# Space-Saving sketch


def test_space_saving_bounded_under_adversarial_stream():
    sk = SpaceSaving(capacity=8, half_life_us=0.0)
    for i in range(1000):
        sk.add(f"k{i}", now=0.0)
    assert len(sk) <= 8
    assert sk.evictions == 1000 - 8
    assert len(sk.top(3)) == 3


def test_space_saving_newcomer_inherits_min_count():
    sk = SpaceSaving(capacity=2)
    sk.add("b", 0.0)
    sk.add("a", 0.0)
    sk.add("c", 0.0)  # evicts "a" (count tie broken on smallest key)
    assert "a" not in sk.counts
    assert sk.get("c") == 2.0  # floor 1 + its own arrival
    assert sk.errors["c"] == 1.0
    assert sk.get("b") == 1.0


def test_space_saving_half_life_decay():
    sk = SpaceSaving(capacity=8, half_life_us=1_000.0)
    for _ in range(4):
        sk.add("a", 0.0)
    sk.add("b", 2_500.0)  # two whole steps elapsed: a: 4 -> 1
    assert sk.get("a") == 1.0
    sk.decay_to(3_500.0)  # one more step: a 0.5 (kept), b 0.5 (kept)
    assert sk.get("a") == 0.5
    assert sk.get("b") == 0.5
    sk.decay_to(4_500.0)  # below 0.5: both dropped
    assert len(sk) == 0


def test_space_saving_deterministic():
    def run():
        sk = SpaceSaving(capacity=4, half_life_us=500.0)
        for i in range(100):
            sk.add(i % 7, now=float(i * 40))
        return dict(sk.counts)

    assert run() == run()


def test_space_saving_heap_holds_one_entry_per_tracked_key():
    # ``_heap`` is the eviction heap: hits must not grow it.
    sk = SpaceSaving(capacity=8, half_life_us=0.0)
    for _ in range(100_000):
        sk.add("hot", 0.0)
    assert sk.get("hot") == 100_000.0 and len(sk._heap) == 1
    sk = SpaceSaving()  # default capacity and half-life
    for i in range(200_000):
        sk.add(i % 100, now=i * 0.02)  # all inside one half-life
    assert len(sk) == 100 and len(sk._heap) == 100
    sk = SpaceSaving(capacity=8, half_life_us=0.0)
    for i in range(1_000):
        sk.add(i % 50, 0.0)
        assert len(sk._heap) == len(sk) <= 8


class _ScanSketch:
    """The Space-Saving sketch with an O(capacity) victim scan: the
    reference the heap evictor must agree with, step for step."""

    def __init__(self, capacity, half_life_us):
        self.capacity, self.half_life_us = capacity, half_life_us
        self.counts, self.errors = {}, {}
        self.last_decay_at, self.evictions = 0.0, 0

    def add_all(self, keys, now):
        hl = self.half_life_us
        steps = int((now - self.last_decay_at) // hl) if hl > 0 else 0
        if steps > 0:
            self.last_decay_at += steps * hl
            for key in list(self.counts):
                count = self.counts[key] * 0.5 ** steps
                if count < 0.5:
                    del self.counts[key], self.errors[key]
                else:
                    self.counts[key] = count
                    self.errors[key] *= 0.5 ** steps
        for key in keys:
            if key in self.counts:
                self.counts[key] += 1.0
            elif len(self.counts) < self.capacity:
                self.counts[key], self.errors[key] = 1.0, 0.0
            else:
                floor, victim = min((c, k) for k, c in self.counts.items())
                del self.counts[victim], self.errors[victim]
                self.evictions += 1
                self.counts[key], self.errors[key] = floor + 1.0, floor


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 6),
       half_life=st.sampled_from([0.0, 50.0, 200.0]),
       batches=st.lists(st.tuples(
           st.lists(st.integers(0, 12), min_size=1, max_size=4),
           st.sampled_from([0.0, 0.0, 10.0, 60.0, 300.0])), max_size=60))
def test_space_saving_evicts_what_a_linear_scan_evicts(capacity, half_life,
                                                       batches):
    sk = SpaceSaving(capacity, half_life)
    ref = _ScanSketch(capacity, half_life)
    now = 0.0
    for keys, dt in batches:
        now += dt
        sk.add_all(keys, now)
        ref.add_all(keys, now)
        assert list(sk.counts.items()) == list(ref.counts.items())
        assert list(sk.errors.items()) == list(ref.errors.items())
        assert sk.evictions == ref.evictions
        assert len(sk._heap) == len(sk.counts)


# ---------------------------------------------------------------------------
# Remote-txn classification


def _local_access(rec, node, oid, now):
    """One committed local txn (no acquisitions) touching ``oid``."""
    op = rec.begin(node, 0, now)
    rec.commit_txn(op, [oid], [], True, now)


def test_classify_routing_miss_without_evidence():
    rec = LocalityRecorder()
    op = rec.begin(1, 0, 100.0)
    rec.acquired(op, 42, "owner")
    rec.commit_txn(op, [42], [], True, 110.0)
    assert rec.remote_txns == 1
    assert rec.cause_counts[CAUSE_ROUTING_MISS] == 1


def test_classify_shared_when_two_nodes_split_an_object():
    rec = LocalityRecorder()
    for i in range(5):
        _local_access(rec, 0, 7, float(i))
        _local_access(rec, 1, 7, float(i))
    op = rec.begin(0, 0, 200.0)
    rec.acquired(op, 7, "owner")
    rec.commit_txn(op, [7], [], True, 210.0)
    assert rec.cause_counts[CAUSE_SHARED] == 1


def test_classify_migrating_after_recent_handover():
    rec = LocalityRecorder()
    rec.on_handover(9, 1, 2, version=1, now=500.0)
    op = rec.begin(2, 0, 600.0)  # handover strictly before txn start
    rec.acquired(op, 9, "owner")
    rec.commit_txn(op, [9], [], True, 650.0)
    assert rec.cause_counts[CAUSE_MIGRATING] == 1


def test_own_handover_does_not_count_as_migrating():
    rec = LocalityRecorder()
    op = rec.begin(2, 0, 400.0)
    rec.acquired(op, 9, "owner")
    rec.on_handover(9, 1, 2, version=1, now=500.0)  # this txn's own move
    rec.commit_txn(op, [9], [], True, 550.0)
    assert rec.cause_counts[CAUSE_MIGRATING] == 0
    assert rec.cause_counts[CAUSE_ROUTING_MISS] == 1


def test_classify_migrating_after_lb_repin_toward_this_node():
    rec = LocalityRecorder()
    rec.on_repin(5, node=3, now=1_000.0)
    op = rec.begin(3, 0, 2_000.0)
    rec.acquired(op, 5, "owner")
    rec.commit_txn(op, [5], [], True, 2_010.0)
    assert rec.cause_counts[CAUSE_MIGRATING] == 1
    # A repin toward a *different* node explains nothing for this one.
    op = rec.begin(4, 0, 2_100.0)
    rec.acquired(op, 6, "owner")
    rec.commit_txn(op, [6], [], True, 2_110.0)
    assert rec.cause_counts[CAUSE_ROUTING_MISS] == 1


def test_classify_migrating_when_acquirer_already_dominates():
    rec = LocalityRecorder()
    for i in range(6):
        _local_access(rec, 2, 11, float(i))
    op = rec.begin(2, 0, 50.0)  # ownership lags the access pattern
    rec.acquired(op, 11, "owner")
    rec.commit_txn(op, [11], [], True, 60.0)
    assert rec.cause_counts[CAUSE_MIGRATING] == 1


def test_remote_fraction_windows_and_timeline():
    rec = LocalityRecorder()
    rec.bin_us = 100.0
    _local_access(rec, 0, 1, 50.0)
    op = rec.begin(1, 0, 150.0)
    rec.acquired(op, 1, "owner")
    rec.commit_txn(op, [1], [], True, 160.0)
    assert rec.remote_fraction() == 0.5
    assert rec.remote_fraction(0.0, 100.0) == 0.0
    assert rec.remote_fraction(100.0, 200.0) == 1.0
    assert rec.remote_fraction(500.0, 600.0) is None
    assert rec.remote_fraction_timeline() == [(0.0, 1, 0), (100.0, 0, 1)]


# ---------------------------------------------------------------------------
# Migration-effectiveness ledger


def test_payback_and_elsewhere_tallies():
    rec = LocalityRecorder()
    rec.on_handover(3, 0, 1, version=1, now=100.0)
    _local_access(rec, 1, 3, 200.0)
    _local_access(rec, 0, 3, 250.0)  # an access *not* at the new owner
    assert rec.migration_summary()["paid_back"] == 0
    _local_access(rec, 1, 3, 300.0)  # second access at the new owner
    summary = rec.migration_summary()
    assert summary["paid_back"] == 1
    assert summary["mean_payback_us"] == 200.0
    (row,) = rec.migration_table()
    assert row["at_new_owner"] == 2
    assert row["elsewhere"] == 1
    assert row["payback_us"] == 200.0


def test_handover_supersede_and_version_dedup():
    rec = LocalityRecorder()
    rec.on_handover(3, 0, 1, version=7, now=100.0)
    rec.on_handover(3, 0, 1, version=7, now=120.0)  # dup from 2nd dir host
    assert rec.handovers == 1
    rec.on_handover(3, 1, 0, version=8, now=200.0)
    assert rec.handovers == 2
    first, second = rec.migration_table()
    assert first["superseded"] is True
    assert second["superseded"] is False
    rec.on_handover(4, 2, 2, version=1, now=300.0)  # no-op move
    assert rec.handovers == 2


def test_ping_pong_detection():
    rec = LocalityRecorder()
    rec.on_handover(7, 0, 1, version=1, now=0.0)
    rec.on_handover(7, 1, 0, version=2, now=100.0)
    assert rec.ping_pongs() == []
    rec.on_handover(7, 0, 1, version=3, now=200.0)
    assert rec.ping_pongs() == [{"oid": 7, "handovers_in_window": 3}]
    # Bounces further apart than the window never qualify.
    rec.on_handover(8, 0, 1, version=1, now=0.0)
    rec.on_handover(8, 1, 0, version=2, now=20_000.0)
    rec.on_handover(8, 0, 1, version=3, now=40_000.0)
    assert all(p["oid"] != 8 for p in rec.ping_pongs())


def test_handover_ledger_overflow_is_bounded():
    rec = LocalityRecorder()
    rec.max_handovers = 2
    for v in range(5):
        rec.on_handover(v, 0, 1, version=1, now=float(v))
    summary = rec.migration_summary()
    assert summary["handovers"] == 5
    assert summary["recorded"] == 2
    assert summary["overflow"] == 3


# ---------------------------------------------------------------------------
# Registry wiring


def test_observability_defaults_to_null_locality():
    assert Observability().locality is None
    loc = LocalityRecorder()
    assert Observability(locality=loc).locality is loc


# ---------------------------------------------------------------------------
# Recorder on == recorder off (outcome identity) on a live cluster


NODES, OBJECTS = 3, 24


def _routed_rig(obs):
    """The ``repro heatmap`` workload at test size: every object pinned to
    its initial owner, workers drawing from the keys routed to them."""
    rig = Rig(counter_catalog(NODES, OBJECTS), seed=5, obs=obs)
    rig.cluster.start_membership()
    rig.add_lb((i, i % NODES) for i in range(OBJECTS))
    return rig, rig.routed_spec(0.05)


def _run_rig(obs, stop_at=6_000.0):
    rig, spec_fn = _routed_rig(obs)
    rig.start(spec_fn, stop_at)
    rig.cluster.run(until=stop_at + 3_000.0)
    return rig


def test_recorder_does_not_change_the_run():
    bare = _run_rig(Observability())
    loc = LocalityRecorder()
    observed = _run_rig(Observability(locality=loc))
    for field in ("committed", "aborted_txns", "retries",
                  "ownership_requests", "objects_acquired"):
        assert getattr(bare.stats, field) == getattr(observed.stats, field)
    assert bare.cluster.sim.now == observed.cluster.sim.now
    assert loc.txns == loc.committed + (loc.txns - loc.committed)
    assert loc.txns > 0


def test_same_seed_same_report():
    reports = []
    for _ in range(2):
        loc = LocalityRecorder()
        _run_rig(Observability(locality=loc))
        reports.append(json.dumps(loc.report(), sort_keys=True))
    assert reports[0] == reports[1]


def test_lb_repins_counted():
    loc = LocalityRecorder()
    rig = _run_rig(Observability(locality=loc))
    reg = rig.cluster.obs.registry
    assert reg.counter_total("lb.repins") >= OBJECTS
    assert loc.route_repins == reg.counter_total("lb.repins")


def test_lb_routing_feeds_recorder_and_metrics():
    from repro.harness.zeus_cluster import ZeusCluster
    from repro.hermes.protocol import HermesReplica
    from repro.lb.balancer import LoadBalancer
    from tests.conftest import make_catalog

    loc = LocalityRecorder()
    cluster = ZeusCluster(3, catalog=make_catalog(3),
                          obs=Observability(locality=loc))
    cluster.load(init_value=0)
    replicas = [HermesReplica(cluster.nodes[n], (0, 1, 2)) for n in range(3)]
    lb = LoadBalancer(replicas, num_nodes=3)
    lb.route("k1")          # miss: first sighting pins the key
    cluster.run(until=5_000.0)
    lb.route("k1")          # hit: sticky routing
    lb.repin("k1", 2)
    reg = cluster.obs.registry
    assert loc.route_hits == reg.counter_total("lb.hits") == 1
    assert loc.route_misses == reg.counter_total("lb.misses") == 1
    assert loc.route_repins == reg.counter_total("lb.repins") == 1


def test_scale_out_marks_and_payback():
    loc = LocalityRecorder()
    rig, spec_fn = _routed_rig(Observability(locality=loc))
    stop_at = 18_000.0
    rig.start(spec_fn, stop_at)
    rig.cluster.sim.call_at(6_000.0, rig.cluster.add_nodes, 1)
    rig.cluster.run(until=stop_at)
    rig.converge(30_000.0)
    assert loc.marks("add_nodes")
    assert loc.marks("joiners_serving")
    assert loc.marks("converged")
    assert loc.migration_summary()["paid_back"] >= 1
    serving = loc.marks("joiners_serving")[0][1]
    assert serving > 6_000.0  # joiners go live after the add, not at it


# ---------------------------------------------------------------------------
# CLI


@pytest.mark.parametrize("argv", [["heatmap", "--nodes", "2", "--add", "0"],
                                  ["elastic", "--nodes", "2"]],
                         ids=["heatmap", "elastic"])
def test_lb_routed_clis_reject_fewer_than_three_nodes(argv, capsys):
    # The LB's routing table lives on three Hermes replicas; the rig
    # says so once instead of an IndexError out of the replica list.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "LB routing needs >= 3 nodes" in capsys.readouterr().err


def test_heatmap_cli_byte_identical_json(tmp_path, capsys):
    argv = ["heatmap", "--nodes", "3", "--add", "0", "--objects", "24",
            "--steady", "6000", "--after", "0", "--quiesce", "3000",
            "--seed", "5"]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(argv + ["--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "access heatmap" in out
    assert "hot keys" in out
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    assert doc["schema_version"] == 2
    assert doc["totals"]["txns"] > 0
    assert doc["hot_keys"]
    assert doc["totals"]["routes"]["repins"] >= 24
    # v2 adds the placement-controller input section.
    assert doc["placement"]["objects"]


def test_heatmap_cli_rejects_empty_run(capsys):
    rc = main(["heatmap", "--nodes", "3", "--add", "0", "--objects", "24",
               "--steady", "0", "--after", "0", "--quiesce", "0",
               "--seed", "5"])
    assert rc == 1
    assert "hot-key table is empty" in capsys.readouterr().out
