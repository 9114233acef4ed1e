"""Nodes, membership with leases/epochs, the cluster's fault verbs."""

from dataclasses import asdict

import pytest

from repro.cluster.node import Node
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.params import FaultParams, NetParams, SimParams
from tests.conftest import make_cluster


def make_nodes(n=3, **kw):
    sim = Simulator()
    params = SimParams().with_(**kw) if kw else SimParams()
    net = Network(sim, NetParams(jitter_us=0.0))
    nodes = [Node(sim, i, params, net) for i in range(n)]
    return sim, net, nodes


def test_node_handler_dispatch():
    sim, _net, nodes = make_nodes(2)
    got = []
    nodes[1].register_handler("ping", lambda m: got.append(m.payload))
    nodes[0].send(1, "ping", "hello", 16)
    sim.run(until=1_000)
    assert got == ["hello"]


def test_node_duplicate_handler_rejected():
    _sim, _net, nodes = make_nodes(1)
    nodes[0].register_handler("k", lambda m: None)
    with pytest.raises(ValueError):
        nodes[0].register_handler("k", lambda m: None)


def test_node_unknown_kind_raises():
    sim, _net, nodes = make_nodes(2)
    nodes[0].send(1, "mystery", None, 8)
    with pytest.raises(KeyError):
        sim.run(until=1_000)


def test_handler_cost_delays_dispatch():
    sim, _net, nodes = make_nodes(2)
    times = []
    nodes[1].register_handler("slow", lambda m: times.append(sim.now),
                              cost=50.0)
    nodes[1].register_handler("fast", lambda m: times.append(sim.now))
    nodes[0].send(1, "slow", None, 8)
    sim.run(until=1_000)
    assert times[0] > 50.0


def test_handler_cost_callable():
    sim, _net, nodes = make_nodes(2)
    times = []
    nodes[1].register_handler("var", lambda m: times.append(sim.now),
                              cost=lambda payload: payload * 10.0)
    nodes[0].send(1, "var", 5, 8)
    sim.run(until=1_000)
    assert times[0] > 50.0


def test_crashed_node_ignores_everything():
    sim, _net, nodes = make_nodes(2)
    got = []
    nodes[1].register_handler("k", lambda m: got.append(1))
    nodes[1].crash()
    nodes[0].send(1, "k", None, 8)
    sim.run(until=10_000)
    assert got == []
    assert not nodes[1].alive


def test_crash_kills_spawned_processes():
    sim, _net, nodes = make_nodes(1)
    seen = []

    def proc():
        yield 100.0
        seen.append("alive")

    nodes[0].spawn(proc())
    sim.call_after(10.0, nodes[0].crash)
    sim.run()
    assert seen == []


def test_view_listener_called_once_per_epoch():
    sim, _net, nodes = make_nodes(1)
    calls = []
    nodes[0].add_view_listener(lambda e, live: calls.append(e))
    nodes[0].on_view_change(2, frozenset({0}))
    nodes[0].on_view_change(2, frozenset({0}))  # duplicate ignored
    nodes[0].on_view_change(3, frozenset({0}))
    assert calls == [2, 3]


# ------------------------------------------------------------- membership


def test_membership_initial_view_everyone_live():
    cluster = make_cluster(3)
    for node in cluster.nodes:
        assert node.epoch == 1
        assert node.live_nodes == frozenset({0, 1, 2})


def test_membership_detects_crash_after_lease():
    cluster = make_cluster(4, fast_failover=True)
    cluster.start_membership()
    cluster.crash(3, at=500.0)
    cluster.run(until=500.0)
    assert cluster.membership.view.epoch == 1  # lease not yet expired
    cluster.run(until=30_000.0)
    assert cluster.membership.view.epoch == 2
    assert cluster.membership.view.live == frozenset({0, 1, 2})
    for nid in (0, 1, 2):
        assert cluster.nodes[nid].epoch == 2


def test_membership_detection_waits_for_lease():
    cluster = make_cluster(3, fast_failover=True)
    cluster.start_membership()
    cluster.crash(2, at=100.0)
    cluster.run(until=30_000.0)
    views = cluster.membership.view_history
    assert len(views) == 2
    # Installed no earlier than detection + full lease.
    detect_floor = 100.0 + cluster.params.lease_us
    assert cluster.membership.view_history[-1].epoch == 2
    assert cluster.sim.now >= detect_floor


def test_membership_two_crashes_two_epochs():
    cluster = make_cluster(5, fast_failover=True)
    cluster.start_membership()
    cluster.crash(4, at=100.0)
    cluster.crash(3, at=15_000.0)
    cluster.run(until=60_000.0)
    assert cluster.membership.view.live == frozenset({0, 1, 2})
    assert cluster.membership.view.epoch >= 2


def test_failure_injector_records():
    cluster = make_cluster(3)
    cluster.crash(1, at=50.0)
    cluster.run(until=100.0)
    assert cluster.failures.crashed == [(50.0, 1)]
    assert not cluster.nodes[1].alive


#: verb -> (its calls, the non-empty ``cluster.failures`` lists after the
#: run, the ``faults.*`` / ``chaos.*`` counter increments).
FAULT_VERBS = {
    "crash": (lambda c: c.crash(1, at=50.0),
              {"crashed": [(50.0, 1)]}, {"faults.crashes": 1}),
    "recover": (lambda c: (c.crash(1, at=50.0), c.recover(1, at=500.0)),
                {"crashed": [(50.0, 1)], "recovered": [(500.0, 1)]},
                {"faults.crashes": 1, "faults.recoveries": 1}),
    "partition": (lambda c: c.partition([0], [1, 2], at=50.0, heal_at=500.0),
                  {"partitions": [(50.0, (0,), (1, 2))],
                   "heals": [(500.0, (0,), (1, 2))]},
                  {"faults.partitions": 1, "faults.heals": 1}),
    "slow": (lambda c: c.slow(1, 3.0, at=50.0, until=500.0),
             {"slowdowns": [(50.0, 1, 3.0), (500.0, 1, 1.0)]},
             {"faults.slowdowns": 1}),
    "fault_window": (lambda c: c.fault_window(FaultParams(loss_prob=0.5),
                                              at=50.0, until=500.0),
                     {}, {"chaos.fault_windows": 1}),
    # The cold restart's view installs a 200 us boot after it begins.
    "power_loss": (lambda c: c.power_loss(at=50.0, restart_at=500.0),
                   {"power_losses": [50.0], "cold_restarts": [700.0]},
                   {"faults.power_losses": 1}),
    "add_nodes": (lambda c: c.add_nodes(1, at=50.0),
                  {"added": [(50.0, 3)]}, {"faults.node_adds": 1}),
}


def _fault_counters(cluster):
    counters = cluster.obs.registry.snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith(("faults.", "chaos."))}


@pytest.mark.parametrize("verb", list(FAULT_VERBS))
def test_fault_verb_records_counts_and_acts(verb):
    calls, records, increments = FAULT_VERBS[verb]
    cluster = make_cluster(3)
    before = _fault_counters(cluster)
    calls(cluster)
    loss = {}
    for t in (100.0, 1_000.0):
        cluster.sim.call_at(t, lambda t=t: loss.__setitem__(
            t, cluster.network.faults.params.loss_prob))
    cluster.run(until=2_000.0)
    after = _fault_counters(cluster)
    assert {kind: entries for kind, entries in asdict(cluster.failures).items()
            if entries} == records
    assert {name: value - before.get(name, 0) for name, value in after.items()
            if value != before.get(name, 0)} == increments
    mid = 0.5 if verb == "fault_window" else 0.0
    assert loss == {100.0: mid, 1_000.0: 0.0}
