"""Workload generators: mixes, locality semantics, analyses."""

import random

import pytest

from repro.baselines import FASST, BaselineCluster
from repro.baselines.engine import BaselineResult
from repro.harness.zeus_cluster import ZeusCluster
from repro.sim.params import SimParams
from repro.txn.api import TxnResult
from repro.workloads import (
    HandoverWorkload,
    MobilityModel,
    SmallbankWorkload,
    TatpWorkload,
    TpccAnalysis,
    VenmoGraph,
    VoterWorkload,
)
from repro.workloads.base import (TxnSpec, run_baseline_workload,
                                  run_zeus_workload)


# ---------------------------------------------------------------- smallbank


def test_smallbank_mix_shares():
    wl = SmallbankWorkload(3, accounts_per_node=500)
    rng = random.Random(1)
    tags = {}
    for _ in range(20_000):
        spec = wl.spec_for(rng.randrange(3), 0, rng)
        tags[spec.tag] = tags.get(spec.tag, 0) + 1
    total = sum(tags.values())
    assert abs(tags["send_payment"] / total - 0.25) < 0.02
    assert abs(tags["balance"] / total - 0.15) < 0.02


def test_smallbank_balance_is_read_only():
    wl = SmallbankWorkload(3, accounts_per_node=100)
    rng = random.Random(2)
    for _ in range(500):
        spec = wl.spec_for(0, 0, rng)
        if spec.tag == "balance":
            assert spec.read_only
            assert len(spec.read_set) == 2
            assert not spec.write_set
        else:
            assert not spec.read_only
            assert spec.write_set


def test_smallbank_zero_remote_means_local_objects():
    wl = SmallbankWorkload(3, accounts_per_node=200, remote_frac=0.0)
    rng = random.Random(3)
    for _ in range(300):
        node = rng.randrange(3)
        spec = wl.spec_for(node, 0, rng)
        for oid in spec.write_set:
            assert wl.home[wl._account_of(oid)] == node


def test_smallbank_remote_fraction_close_to_requested():
    wl = SmallbankWorkload(3, accounts_per_node=500, remote_frac=0.2)
    measured = wl.remote_fraction_generated(samples=8_000)
    assert abs(measured - 0.2) < 0.05


def test_smallbank_migration_rehomes():
    wl = SmallbankWorkload(3, accounts_per_node=100, remote_frac=1.0)
    rng = random.Random(4)
    before = list(wl.home)
    for _ in range(200):
        wl.spec_for(0, 0, rng)
    moved = sum(1 for a, b in zip(before, wl.home) if a != b)
    assert moved > 0
    assert all(h == 0 or before[i] == wl.home[i] for i, h in enumerate(wl.home)
               if before[i] != wl.home[i] or h == 0)


def test_smallbank_hotspot_concentrates_accesses():
    wl = SmallbankWorkload(3, accounts_per_node=1000, hot_frac=0.04,
                           hot_prob=0.9)
    rng = random.Random(5)
    hot_hits = total = 0
    per_node = wl.accounts // 3
    hot_per_node = int(per_node * wl.hot_frac)
    for _ in range(3_000):
        spec = wl.spec_for(rng.randrange(3), 0, rng)
        for oid in spec.write_set or spec.read_set:
            total += 1
            if wl._account_of(oid) % per_node < hot_per_node:
                hot_hits += 1
    assert hot_hits / total > 0.6


# --------------------------------------------------------------------- tatp


def test_tatp_read_share():
    wl = TatpWorkload(3, subscribers_per_node=300)
    rng = random.Random(6)
    reads = 0
    for _ in range(5_000):
        reads += wl.spec_for(rng.randrange(3), 0, rng).read_only
    assert abs(reads / 5_000 - 0.80) < 0.03


def test_tatp_without_subscribers_is_refused():
    # ``spec_for``'s bounded draw would spin on an empty range (where
    # ``randrange(0)`` raised), so the deployment is refused up front.
    with pytest.raises(ValueError):
        TatpWorkload(2, subscribers_per_node=0)


def test_tatp_single_subscriber_objects():
    wl = TatpWorkload(3, subscribers_per_node=100)
    rng = random.Random(7)
    for _ in range(300):
        spec = wl.spec_for(0, 0, rng)
        # All oids of a spec belong to one subscriber.
        oids = list(spec.write_set) + list(spec.read_set)
        subscribers = set()
        for oid in oids:
            for row in wl.oids:
                if oid in row:
                    subscribers.add(row.index(oid))
        assert len(subscribers) == 1


def test_tatp_write_migration_rehomes_subscriber():
    wl = TatpWorkload(2, subscribers_per_node=50, remote_frac=1.0)
    rng = random.Random(8)
    for _ in range(200):
        wl.spec_for(0, 0, rng)
    assert any(h == 0 for h in wl.home[50:])  # node 1's subs stolen by 0


def test_tatp_static_mode_reads_also_remote():
    wl = TatpWorkload(2, subscribers_per_node=200, remote_frac=0.5,
                      track_migration=False)
    rng = random.Random(9)
    remote_reads = reads = 0
    for _ in range(4_000):
        spec = wl.spec_for(0, 0, rng)
        if not spec.read_only:
            continue
        reads += 1
        oid = spec.read_set[0]
        for row in wl.oids:
            if oid in row:
                remote_reads += wl.home[row.index(oid)] != 0
                break
    assert remote_reads / reads > 0.3


# ---------------------------------------------------------------- handovers


def test_handover_mix_contains_all_operations():
    wl = HandoverWorkload(3, users_per_node=300, stations_per_node=10,
                          handover_frac=0.2)
    rng = random.Random(10)
    tags = set()
    for _ in range(3_000):
        spec = wl.spec_for(rng.randrange(3), 0, rng)
        if spec is not None:
            tags.add(spec.tag)
    assert {"service_request", "release",
            "handover_start", "handover_end"} <= tags


def test_handover_start_followed_by_end_at_target():
    wl = HandoverWorkload(2, users_per_node=100, stations_per_node=5,
                          handover_frac=1.0, mobile_frac=1.0,
                          remote_handover_frac=1.0)
    rng = random.Random(11)
    start = wl.spec_for(0, 0, rng)
    assert start.tag == "handover_start"
    assert wl.pending_end[1], "end txn queued on the remote node"
    end = wl.spec_for(1, 0, rng)
    assert end.tag == "handover_end"


def test_handover_remote_fraction_tracks_mobility_model():
    wl = HandoverWorkload(6, users_per_node=200, stations_per_node=10,
                          handover_frac=0.5, mobile_frac=1.0)
    rng = random.Random(12)
    for _ in range(4_000):
        node = rng.randrange(6)
        wl.spec_for(node, 0, rng)
    frac = wl.remote_handovers / max(1, wl.handovers_started)
    assert abs(frac - wl.remote_handover_frac) < 0.03


def test_handover_400_bytes_per_service_request():
    wl = HandoverWorkload(3, users_per_node=50, stations_per_node=5)
    rng = random.Random(13)
    spec = wl._service_or_release(0, rng)
    size = sum(wl.catalog.size_of(oid) for oid in spec.write_set)
    assert 350 <= size <= 500  # "about 400B of data per transaction"


# -------------------------------------------------------------------- voter


def test_voter_votes_touch_two_objects():
    wl = VoterWorkload(3, voters=600)
    rng = random.Random(14)
    spec = wl.spec_for(0, 0, rng)
    assert spec is not None
    assert len(spec.write_set) == 2


def test_voter_move_contestant_lists_all_objects():
    wl = VoterWorkload(3, voters=600, hot_contestant_voters=100)
    moved = wl.move_contestant(0, 2)
    # contestant row + every history row of its voters
    voters_for_0 = sum(1 for c in wl.voter_choice if c == 0)
    assert len(moved) == voters_for_0 + 1
    assert wl.contestant_node[0] == 2


def _scan_move(wl, contestant, node):
    """The full voter scan ``move_contestant`` replaced (the reference)."""
    wl.contestant_node[contestant] = node
    moved = [wl.contestant_oids[contestant]]
    for v in range(wl.voters):
        if wl.voter_choice[v] == contestant:
            moved.append(wl.history_oids[v])
            wl.voters_at[node].append(v)
    return moved


@pytest.mark.parametrize("kw", [
    dict(voters=600, hot_contestant_voters=100),
    dict(voters=600, single_node_setup=True),
    dict(voters=30, contestants=40, zipf_s=2.0),
])
def test_voter_move_contestant_matches_full_scan(kw):
    wl, ref = VoterWorkload(3, **kw), VoterWorkload(3, **kw)
    idle = [c for c in range(wl.num_contestants) if c not in wl.voter_choice]
    assert idle or "contestants" not in kw  # the sparse case has some
    # Every contestant once, the first one again, then every idle one.
    moves = [(c, (c + 1) % 3) for c in range(wl.num_contestants)]
    moves += [(0, 2)] + [(c, 1) for c in idle]
    for contestant, node in moves:
        assert (wl.move_contestant(contestant, node)
                == _scan_move(ref, contestant, node))
        assert wl.voters_at == ref.voters_at
        assert wl.contestant_node == ref.contestant_node


def test_voter_single_node_setup():
    wl = VoterWorkload(3, voters=300, single_node_setup=True)
    assert set(wl.contestant_node) == {0}
    assert all(wl.catalog.initial_owner(oid) == 0
               for oid in wl.contestant_oids)


def test_voter_popularity_skew():
    wl = VoterWorkload(3, voters=5_000, zipf_s=1.2)
    counts = [0] * wl.num_contestants
    for choice in wl.voter_choice:
        counts[choice] += 1
    assert counts[0] > counts[-1] * 2


# ------------------------------------------------------------- mobility etc.


def test_mobility_analytic_matches_measured():
    model = MobilityModel(6)
    assert abs(model.analytic_remote_fraction()
               - model.measure_remote_fraction()) < 0.02


def test_mobility_single_node_no_remote():
    assert MobilityModel(1).analytic_remote_fraction() == 0.0


def test_mobility_paths_stay_on_grid():
    model = MobilityModel(3)
    path = model.commute_path(200, random.Random(1))
    for row, col in path:
        assert 0 <= row < model.rows
        assert 0 <= col < model.cols


def test_mobility_stripes_cover_all_nodes():
    model = MobilityModel(6)
    nodes = {model.cell_node(r, 0) for r in range(model.rows)}
    assert nodes == set(range(6))


def test_venmo_remote_fraction_scales_with_nodes():
    graph = VenmoGraph(users=6_000)
    r3 = graph.measure_remote_fraction(3, payments=40_000)
    r6 = graph.measure_remote_fraction(6, payments=40_000)
    assert r3 < r6 < 0.02


def test_venmo_clustering_high():
    assert VenmoGraph(users=3_000).clustering_ratio(5_000) > 0.95


def test_venmo_payment_parties_differ():
    graph = VenmoGraph(users=1_000)
    for _ in range(500):
        payer, payee = graph.payment()
        assert payer != payee


def test_tpcc_remote_fraction_near_paper():
    analysis = TpccAnalysis()
    assert 0.015 < analysis.remote_fraction(per_line=True) < 0.035


def test_tpcc_single_node_zero_remote():
    analysis = TpccAnalysis(num_nodes=1)
    assert analysis.remote_fraction(per_line=True) == 0.0


def test_tpcc_more_nodes_more_remote():
    few = TpccAnalysis(num_nodes=2).remote_fraction()
    many = TpccAnalysis(num_nodes=12).remote_fraction()
    assert many > few


# ------------------------------------------------------------------ drivers

WARMUP_US = 200.0


def _write_spec(_node, _thread, _rng):
    return TxnSpec(write_set=(0,), tag="w")


def test_zeus_driver_counts_no_warmup_abort():
    """Aborts count from ``measure_from``, as commits do: a transaction
    that fails during warm-up and one that commits during it are both
    outside the measurement."""
    wl = TatpWorkload(1, subscribers_per_node=10)
    cluster = ZeusCluster(1, params=SimParams().scaled_threads(app=1,
                                                               worker=1),
                          catalog=wl.catalog, seed=1)
    cluster.load()
    sim = cluster.sim

    def execute(thread, write_set, read_set, exec_us, compute, read_only):
        yield 10.0
        result = TxnResult()
        result.committed = sim.now >= WARMUP_US
        return result

    cluster.handles[0].api.execute = execute
    stats = run_zeus_workload(cluster, _write_spec, 1_000.0,
                              warmup_us=WARMUP_US, threads=1)
    assert stats.committed > 0 and stats.per_tag["w"] == stats.committed
    assert stats.aborted_txns == 0


def test_baseline_driver_counts_no_warmup_abort():
    wl = TatpWorkload(1, subscribers_per_node=10)
    cluster = BaselineCluster(1, FASST, catalog=wl.catalog)
    cluster.load(0)
    sim = cluster.sim

    def execute_write(cpu, tag, write_set, read_set, exec_us):
        yield 10.0
        result = BaselineResult()
        result.committed = sim.now >= WARMUP_US
        return result

    for engine in cluster.engines:
        engine.execute_write = execute_write
    stats = run_baseline_workload(cluster, _write_spec, 1_000.0,
                                  warmup_us=WARMUP_US, threads=1)
    assert stats.committed > 0 and stats.aborted_txns == 0


def test_throughput_is_committed_per_simulated_second():
    wl = TatpWorkload(1, subscribers_per_node=100)
    cluster = ZeusCluster(1, catalog=wl.catalog, seed=1)
    cluster.load()
    stats = run_zeus_workload(cluster, wl.spec_for, 500.0, warmup_us=100.0)
    assert stats.committed > 0
    assert stats.throughput_tps(400.0) == stats.committed / 400e-6
    assert stats.throughput_tps(0.0) == 0.0
