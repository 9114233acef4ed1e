"""Network model and reliable messaging layer."""

import pytest

from repro.cluster.node import Node
from repro.net.fault import FaultInjector
from repro.net.message import Message
from repro.net.network import Network
from repro.net.reliable import ReliableTransport
from repro.sim.kernel import Simulator
from repro.sim.params import FaultParams, NetParams, SimParams


def make_net(sim, faults=None, jitter=False):
    params = NetParams(jitter_us=0.3 if jitter else 0.0)
    injector = FaultInjector(faults) if faults else None
    return Network(sim, params, injector)


def test_message_delivered_after_latency():
    sim = Simulator()
    net = make_net(sim)
    got = []
    net.attach(0, lambda m: None)
    net.attach(1, lambda m: got.append((sim.now, m.payload)))
    net.send(Message(0, 1, "k", "hi", 100))
    sim.run()
    assert len(got) == 1
    t, payload = got[0]
    assert payload == "hi"
    # wire latency + (header + size)/bandwidth
    assert t == pytest.approx(2.0 + 164 / 5000.0)


def test_larger_message_takes_longer():
    sim = Simulator()
    net = make_net(sim)
    assert net.latency(10_000) > net.latency(100)


def test_bandwidth_accounting():
    sim = Simulator()
    net = make_net(sim)
    net.attach(0, lambda m: None)
    net.attach(1, lambda m: None)
    net.send(Message(0, 1, "k", None, 100))
    net.send(Message(1, 0, "k", None, 50))
    sim.run()
    header = net.params.header_bytes
    assert net.total_msgs == 2
    assert net.total_bytes == 150 + 2 * header
    assert net.bytes_between(0, 1) == net.total_bytes


def test_down_node_drops_traffic_both_ways():
    sim = Simulator()
    net = make_net(sim)
    got = []
    net.attach(0, got.append)
    net.attach(1, got.append)
    net.set_down(1)
    net.send(Message(0, 1, "k", None, 10))
    net.send(Message(1, 0, "k", None, 10))
    sim.run()
    assert got == []


def test_partition_and_heal():
    sim = Simulator()
    net = make_net(sim)
    got = []
    net.attach(0, lambda m: None)
    net.attach(1, got.append)
    net.partition(0, 1)
    net.send(Message(0, 1, "k", "lost", 10))
    sim.run()
    assert got == []
    net.heal(0, 1)
    net.send(Message(0, 1, "k", "ok", 10))
    sim.run()
    assert [m.payload for m in got] == ["ok"]


def test_duplicate_attach_rejected():
    sim = Simulator()
    net = make_net(sim)
    net.attach(0, lambda m: None)
    with pytest.raises(ValueError):
        net.attach(0, lambda m: None)


def test_fault_injector_drops_messages():
    sim = Simulator()
    import random

    net = make_net(sim, faults=FaultParams(loss_prob=1.0))
    net.faults.rng = random.Random(1)
    got = []
    net.attach(0, lambda m: None)
    net.attach(1, got.append)
    for _ in range(10):
        net.send(Message(0, 1, "k", None, 10))
    sim.run()
    assert got == []
    assert net.faults.dropped == 10


def test_fault_injector_duplicates():
    sim = Simulator()
    net = make_net(sim, faults=FaultParams(duplicate_prob=1.0))
    got = []
    net.attach(0, lambda m: None)
    net.attach(1, got.append)
    net.send(Message(0, 1, "k", None, 10))
    sim.run()
    assert len(got) == 2


# ------------------------------------------------------- registry counters


def test_drop_counters_in_registry():
    sim = Simulator()
    import random

    net = make_net(sim, faults=FaultParams(loss_prob=1.0))
    net.faults.rng = random.Random(1)
    net.attach(0, lambda m: None)
    net.attach(1, lambda m: None)
    for _ in range(7):
        net.send(Message(0, 1, "k", None, 10))
    sim.run()
    counters = net.obs.registry.snapshot()["counters"]
    assert counters["net.dropped"] == 7
    assert net.msgs_dropped == 7
    assert counters["net.delivered"] == 0


def test_duplicate_and_delay_counters_in_registry():
    sim = Simulator()
    import random

    net = make_net(sim, faults=FaultParams(duplicate_prob=1.0,
                                           reorder_max_us=20.0))
    net.faults.rng = random.Random(3)
    net.attach(0, lambda m: None)
    net.attach(1, lambda m: None)
    for _ in range(5):
        net.send(Message(0, 1, "k", None, 10))
    sim.run()
    assert net.msgs_duplicated == 5
    assert net.msgs_delayed > 0
    counters = net.obs.registry.snapshot()["counters"]
    assert counters["net.duplicated"] == 5
    assert counters["net.delivered"] == 10


def test_partition_drop_counter():
    sim = Simulator()
    net = make_net(sim)
    net.attach(0, lambda m: None)
    net.attach(1, lambda m: None)
    net.partition(0, 1)
    net.send(Message(0, 1, "k", None, 10))
    sim.run()
    counters = net.obs.registry.snapshot()["counters"]
    assert counters["net.dropped_partition"] == 1


def test_retransmit_counter_in_registry():
    sim = Simulator()
    import random

    faults = FaultParams(loss_prob=0.3)
    net, a, _b, _ia, inbox_b = make_pair(sim, faults=faults)
    net.faults.rng = random.Random(42)
    for i in range(50):
        a.send(1, "k", i, 10)
    sim.run(until=100_000)
    assert [m.payload for m in inbox_b] == list(range(50))
    registry = net.obs.registry
    assert registry.counter("net.retransmits", node=0).value \
        == a.retransmissions > 0
    assert registry.counter_total("net.retransmits") >= a.retransmissions


# --------------------------------------------------------------- reliable


def make_pair(sim, faults=None):
    params = NetParams(jitter_us=0.0)
    injector = FaultInjector(faults) if faults else None
    net = Network(sim, params, injector)
    inbox_a, inbox_b = [], []
    a = ReliableTransport(sim, net, 0, params, inbox_a.append)
    b = ReliableTransport(sim, net, 1, params, inbox_b.append)
    return net, a, b, inbox_a, inbox_b


def test_reliable_delivery_in_order():
    sim = Simulator()
    _net, a, _b, _ia, inbox_b = make_pair(sim)
    for i in range(5):
        a.send(1, "k", i, 10)
    sim.run(until=1_000)
    assert [m.payload for m in inbox_b] == [0, 1, 2, 3, 4]


def test_reliable_loopback():
    """A node's message to itself is dispatched without touching the
    wire: no network message, channel, sequence number or ack."""
    sim = Simulator()
    net = make_net(sim)
    node = Node(sim, 0, SimParams(), net)
    got = []
    node.register_handler("k", lambda m: got.append(
        (m.payload, m.src, m.dst, m.inc, m.seq)))
    node.send(0, "k", "self", 10)
    sim.run(until=100)
    assert got == [("self", 0, 0, 1, None)]
    assert net.total_msgs == 0
    assert not node.transport._send and not node.transport._recv


def test_reliable_recovers_from_loss():
    sim = Simulator()
    import random

    faults = FaultParams(loss_prob=0.3)
    _net, a, _b, _ia, inbox_b = make_pair(sim, faults=faults)
    _net.faults.rng = random.Random(42)
    for i in range(50):
        a.send(1, "k", i, 10)
    sim.run(until=100_000)
    assert [m.payload for m in inbox_b] == list(range(50))
    assert a.retransmissions > 0


def test_reliable_suppresses_duplicates():
    sim = Simulator()
    faults = FaultParams(duplicate_prob=1.0)
    _net, a, _b, _ia, inbox_b = make_pair(sim, faults=faults)
    for i in range(10):
        a.send(1, "k", i, 10)
    sim.run(until=10_000)
    assert [m.payload for m in inbox_b] == list(range(10))


def test_reliable_reorders_back_in_order():
    sim = Simulator()
    faults = FaultParams(reorder_max_us=20.0)
    _net, a, _b, _ia, inbox_b = make_pair(sim, faults=faults)
    for i in range(30):
        a.send(1, "k", i, 10)
    sim.run(until=50_000)
    assert [m.payload for m in inbox_b] == list(range(30))


def test_reliable_gives_up_then_probes_slowly():
    # After max_retransmits the channel keeps its unacked buffer (the peer
    # may be partitioned, not dead) and falls back to slow probing.
    sim = Simulator()
    net, a, b, _ia, _ib = make_pair(sim)
    net.set_down(1)
    a.send(1, "k", "void", 10)
    sim.run(until=1_000_000)
    assert a.gave_up == 1
    assert a.unacked_count() == 1  # state retained for a possible heal
    # Probing is much slower than normal retransmission: about one probe
    # per probe_interval_us, not one per retransmit_timeout_us.
    params = NetParams()
    probes = a.obs.registry.counter("net.probes", node=0).value
    assert 0 < probes <= 1_000_000 / params.probe_interval_us + 1
    assert a.retransmissions <= params.max_retransmits


def test_reliable_resumes_after_partition_heals():
    # Regression for the give-up stall: a sender that exhausted its
    # retransmit budget during a partition must resynchronize and deliver
    # everything once the partition heals.
    sim = Simulator()
    net, a, _b, _ia, inbox_b = make_pair(sim)
    net.partition(0, 1)
    for i in range(5):
        a.send(1, "k", i, 10)
    # Long enough for the channel to give up (50 * 40us) and start probing.
    sim.run(until=100_000)
    assert a.gave_up == 1
    assert inbox_b == []
    net.heal(0, 1)
    a.send(1, "k", 5, 10)  # traffic after the heal must also arrive
    sim.run(until=200_000)
    assert [m.payload for m in inbox_b] == list(range(6))
    assert a.unacked_count() == 0


def test_reliable_discards_state_when_membership_removes_peer():
    sim = Simulator()
    net, a, _b, _ia, _ib = make_pair(sim)
    net.set_down(1)
    a.send(1, "k", "void", 10)
    sim.run(until=100_000)
    assert a.unacked_count() == 1
    a.on_peer_removed(1)
    assert a.unacked_count() == 0
    before = a.obs.registry.counter("net.probes", node=0).value
    sim.run(until=1_000_000)  # probe timer must be gone
    assert a.obs.registry.counter("net.probes", node=0).value == before


def test_reliable_stop_cancels_timers():
    sim = Simulator()
    net, a, _b, _ia, _ib = make_pair(sim)
    net.set_down(1)
    a.send(1, "k", "void", 10)
    a.stop()
    sim.run(until=1_000_000)
    assert a.retransmissions == 0


def test_piggybacked_acks_suppress_standalone():
    sim = Simulator()
    _net, a, b, inbox_a, inbox_b = make_pair(sim)
    # Chatty bidirectional traffic: acks should ride data messages.
    for i in range(20):
        a.send(1, "k", i, 10)
        b.send(0, "k", i, 10)
    sim.run(until=10_000)
    assert len(inbox_a) == len(inbox_b) == 20
    assert a.acks_sent + b.acks_sent <= 4
