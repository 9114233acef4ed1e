"""Property-based tests (hypothesis) on core data structures & invariants."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.obs import percentile
from repro.sim.kernel import Simulator
from repro.sim.resources import CpuPool, CpuServer
from repro.store.meta import Ots, ReplicaSet
from repro.verify.invariants import check_invariants
from tests.conftest import make_cluster

node_ids = st.integers(min_value=0, max_value=7)
ots_values = st.builds(Ots, st.integers(0, 100), node_ids)


@given(ots_values, ots_values)
def test_ots_total_order(a, b):
    assert (a < b) + (a > b) + (a == b) == 1


@given(ots_values, node_ids)
def test_ots_next_is_strictly_larger(ts, driver):
    assert ts.next_for(driver) > ts


@st.composite
def replica_sets(draw):
    owner = draw(st.one_of(st.none(), node_ids))
    readers = draw(st.lists(node_ids, max_size=5, unique=True))
    readers = tuple(r for r in readers if r != owner)
    return ReplicaSet(owner, readers)


@given(replica_sets(), node_ids)
def test_with_owner_invariants(rs, new_owner):
    moved = rs.with_owner(new_owner)
    assert moved.owner == new_owner
    assert new_owner not in moved.readers
    # Every previous replica is still a replica (data is never dropped by
    # an ownership move itself — only an explicit trim drops replicas).
    assert rs.all_nodes() <= moved.all_nodes() | {new_owner}


@given(replica_sets(), node_ids)
def test_without_removes_exactly_one(rs, victim):
    stripped = rs.without(victim)
    assert victim not in stripped.all_nodes()
    assert stripped.all_nodes() == rs.all_nodes() - {victim}


@given(replica_sets(), node_ids)
def test_with_reader_monotone(rs, reader):
    grown = rs.with_reader(reader)
    assert reader in grown.all_nodes()
    assert rs.all_nodes() <= grown.all_nodes()
    assert grown.owner == rs.owner


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200),
       st.floats(min_value=0, max_value=100))
def test_percentile_within_range(samples, p):
    value = percentile(samples, p)
    assert min(samples) <= value <= max(samples)


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                max_size=50))
def test_cpu_server_total_busy_equals_sum(costs):
    sim = Simulator()
    cpu = CpuServer(sim)
    for cost in costs:
        cpu.execute(cost)
    sim.run()
    assert abs(cpu.busy_time - sum(costs)) < 1e-6
    assert abs(sim.now - sum(costs)) < 1e-6  # serial: finishes at the sum


@given(st.integers(1, 6),
       st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1,
                max_size=40))
def test_cpu_pool_finishes_no_earlier_than_ideal(size, costs):
    sim = Simulator()
    pool = CpuPool(sim, size)
    for cost in costs:
        pool.execute(cost)
    sim.run()
    ideal = sum(costs) / size
    longest = max(costs)
    assert sim.now >= max(ideal, longest) - 1e-6


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 7),
                          st.integers(1, 3)),
                min_size=1, max_size=25))
@example(seed=0, txns=[(0, 0, 3), (2, 2, 1), (2, 2, 3)])
def test_random_workloads_preserve_invariants(seed, txns):
    """Arbitrary concurrent write mixes never violate the paper's
    invariants, and all replicas converge at quiescence."""
    cluster = make_cluster(3, objects=8, seed=seed)

    def app(node_id, writes):
        # One process per (node, thread), as ``spawn_zeus_workers`` does:
        # local locks are keyed by (node, thread), so two processes on one
        # app thread would get no isolation from each other (the pinned
        # example diverged object 2 that way).
        api = cluster.handles[node_id].api
        for oid, k in writes:
            yield from api.execute_write(0, [(oid + i) % 8 for i in range(k)])

    for node_id in range(3):
        writes = [(oid, k) for nid, oid, k in txns if nid == node_id]
        if writes:
            cluster.spawn_app(node_id, 0, app(node_id, writes))
    cluster.run(until=2_000_000)
    check_invariants(cluster)
    # Convergence: all replicas of every object agree on version & data.
    for oid in range(8):
        versions = {h.store.get(oid).t_version
                    for h in cluster.handles if h.store.has(oid)}
        datas = {h.store.get(oid).t_data
                 for h in cluster.handles if h.store.has(oid)}
        assert len(versions) == 1, (oid, versions)
        assert len(datas) == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1_000), st.integers(2, 5))
def test_hermes_replicas_converge(seed, writes):
    from repro.hermes.protocol import HermesReplica

    cluster = make_cluster(3, seed=seed)
    replicas = [HermesReplica(cluster.nodes[n], (0, 1, 2)) for n in range(3)]
    rng = cluster.rng.stream("prop")
    for i in range(writes):
        replicas[rng.randrange(3)].write("k", i)
    cluster.run(until=1_000_000)
    values = {r.read("k") for r in replicas}
    assert len(values) == 1


# ------------------------------------------------------ reliable transport


def make_transport_pair(sim, faults=None, fault_seed=0):
    import random

    from repro.net.fault import FaultInjector
    from repro.net.network import Network
    from repro.net.reliable import ReliableTransport
    from repro.sim.params import NetParams

    params = NetParams(jitter_us=0.0)
    injector = FaultInjector(faults) if faults else None
    net = Network(sim, params, injector)
    if injector is not None:
        net.faults.rng = random.Random(fault_seed)
    inbox_a, inbox_b = [], []
    a = ReliableTransport(sim, net, 0, params, inbox_a.append)
    b = ReliableTransport(sim, net, 1, params, inbox_b.append)
    return net, a, b, inbox_a, inbox_b


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000),
       st.floats(min_value=0.0, max_value=0.4),
       st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=0.0, max_value=30.0),
       st.integers(1, 40))
def test_reliable_exactly_once_in_order_under_faults(seed, loss, dup,
                                                     reorder, count):
    """Whatever mix of loss, duplication, and reordering the network
    injects, the reliable layer delivers every payload exactly once and
    in send order."""
    from repro.sim.params import FaultParams

    sim = Simulator()
    faults = FaultParams(loss_prob=loss, duplicate_prob=dup,
                         reorder_max_us=reorder)
    _net, a, _b, _ia, inbox_b = make_transport_pair(sim, faults, seed)
    for i in range(count):
        a.send(1, "k", i, 10)
    sim.run(until=2_000_000)
    assert [m.payload for m in inbox_b] == list(range(count))
    assert a.unacked_count() == 0


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000), st.integers(1, 10), st.integers(1, 5))
def test_reliable_probe_recovers_after_heal(seed, before, after):
    """A sender that exhausts its retransmit budget against a partitioned
    peer falls back to slow probing, then resynchronizes and delivers
    everything — old and new — once the partition heals."""
    sim = Simulator()
    net, a, _b, _ia, inbox_b = make_transport_pair(sim, fault_seed=seed)
    net.partition(0, 1)
    for i in range(before):
        a.send(1, "k", i, 10)
    sim.run(until=150_000)
    assert a.gave_up >= 1
    assert inbox_b == []
    assert a.unacked_count() == before  # buffer kept for the heal
    net.heal(0, 1)
    for i in range(after):
        a.send(1, "k", before + i, 10)
    sim.run(until=400_000)
    assert [m.payload for m in inbox_b] == list(range(before + after))
    assert a.unacked_count() == 0
