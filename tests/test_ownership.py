"""Reliable ownership protocol: grants, contention, trims, recovery."""


from repro.harness.rig import Rig, counter_catalog
from repro.net.message import Message
from repro.ownership.messages import (KIND_DATA, KIND_FETCH, KIND_NACK,
                                      KIND_RESP, KIND_VAL, NackReason, OwnData,
                                      OwnNack, OwnResp, ReqType)
from repro.store.meta import OState, Ots, ReplicaSet, TState
from tests.conftest import make_cluster, run_app


def acquire(cluster, node_id, oid, req_type=ReqType.ACQUIRE_OWNER,
            victim=None, until=500_000.0):
    handle = cluster.handles[node_id]
    results = []

    def app():
        outcome = yield from handle.ownership.acquire(oid, req_type, victim)
        results.append(outcome)

    run_app(cluster, node_id, app(), until=until)
    return results[0] if results else None


def test_acquire_from_reader_grants_ownership():
    cluster = make_cluster(3)
    oid = 1  # owned by node 1; node 2 is a reader
    outcome = acquire(cluster, 2, oid)
    assert outcome.granted
    assert cluster.owner_of(oid) == 2
    obj = cluster.handles[2].store.get(oid)
    assert obj.o_replicas.owner == 2
    assert obj.o_state == OState.VALID


def test_acquire_latency_about_1_5_rtt():
    cluster = make_cluster(6, objects=20)
    # Requester 4 (a reader of oid 3, owner 3), non-directory: 3 hops.
    outcome = acquire(cluster, 4, 3)
    assert outcome.granted
    assert 5.0 < outcome.latency_us < 25.0


def test_old_owner_demoted_to_reader_keeps_data():
    cluster = make_cluster(3)
    oid = 0  # owned by node 0
    outcome = acquire(cluster, 1, oid)
    assert outcome.granted
    old = cluster.handles[0].store.get(oid)
    assert old is not None  # still a replica
    assert old.o_replicas is None  # but no longer tracks ownership
    replicas = cluster.replicas_of(oid)
    assert replicas.owner == 1
    assert 0 in replicas.readers


def test_non_replica_acquisition_transfers_data():
    cluster = make_cluster(6, objects=6)
    oid = 0  # owner 0, readers 1, 2 — node 5 has nothing
    cluster.handles[0].store.get(oid).t_data = "precious"
    cluster.handles[0].store.get(oid).t_version = 7
    outcome = acquire(cluster, 5, oid)
    assert outcome.granted
    obj = cluster.handles[5].store.get(oid)
    assert obj.t_data == "precious"
    assert obj.t_version == 7


def test_non_replica_acquisition_trims_back_to_degree():
    """The trim keeps the catalog's degree, 3 or 2, however the grant
    arrives.  By ACK: object 0 starts on ``(0; 1, 2)`` or ``(0; 1)`` and
    ends on the requester plus its old owner.  By RESP: object 1 starts on
    ``(1; 2, 3)``, and directory host 0, an arbiter holding no copy,
    crashes as node 4's REQ leaves, so the arb-replay after the view change
    grants it; it ends on ``(4; 1, 2)``."""
    cases = (  # nodes, degree, oid, requester, crash node 0, final readers
        (6, 3, 0, 5, False, (0, 1)),
        (4, 2, 0, 2, False, (0,)),
        (5, 3, 1, 4, True, (1, 2)),
    )
    for nodes, degree, oid, requester, crash, readers in cases:
        cluster = make_cluster(nodes, objects=nodes, degree=degree,
                               fast_failover=crash)
        if crash:
            cluster.start_membership()
            cluster.crash(0, at=0.0)
        outcome = acquire(cluster, requester, oid, until=1_000_000.0)
        assert outcome.granted
        assert cluster.replicas_of(oid) == ReplicaSet(requester, readers)
        replays = cluster.handles[1].ownership.counters.get("arb_replay", 0)
        assert bool(replays) == crash


def test_directory_agrees_after_transfer(cluster3):
    acquire(cluster3, 2, 0)
    views = [h.directory.get(0).replicas for h in cluster3.handles
             if h.directory is not None]
    assert all(v == views[0] for v in views)
    assert views[0].owner == 2


def test_already_owner_is_noop_grant():
    cluster = make_cluster(3)
    outcome = acquire(cluster, 0, 0)  # node 0 already owns oid 0
    assert outcome.granted
    assert cluster.owner_of(0) == 0


def test_add_reader_grants_read_replica():
    cluster = make_cluster(6, objects=6)
    oid = 0  # node 4 is a non-replica
    outcome = acquire(cluster, 4, oid, ReqType.ADD_READER)
    assert outcome.granted
    assert cluster.handles[4].store.has(oid)
    assert 4 in cluster.replicas_of(oid).readers
    assert cluster.owner_of(oid) == 0  # ownership unchanged


def test_remove_reader_drops_replica():
    cluster = make_cluster(3)
    oid = 0  # owner 0, readers 1 and 2
    outcome = acquire(cluster, 0, oid, ReqType.REMOVE_READER, victim=2)
    assert outcome.granted
    assert not cluster.handles[2].store.has(oid)
    assert 2 not in cluster.replicas_of(oid).readers


def test_remove_reader_keeps_owner_valid_throughout():
    cluster = make_cluster(3)
    oid = 0
    owner_obj = cluster.handles[0].store.get(oid)
    states = []

    def watcher():
        while cluster.sim.now < 60.0:
            states.append(owner_obj.o_state)
            yield 1.0

    cluster.handles[0].node.spawn(watcher())
    acquire(cluster, 0, oid, ReqType.REMOVE_READER, victim=1, until=10_000)
    # Trim stays out of the owner's critical path: never invalidated.
    assert OState.INVALID not in states


def test_contention_single_winner_then_loser_retries():
    cluster = make_cluster(3)
    oid = 2  # owned by node 2
    outcomes = {}

    def contender(nid):
        handle = cluster.handles[nid]
        outcome = yield from handle.ownership.acquire(oid)
        outcomes[nid] = outcome

    cluster.spawn_app(0, 0, contender(0))
    cluster.spawn_app(1, 0, contender(1))
    cluster.run(until=500_000)
    granted = [nid for nid, o in outcomes.items() if o.granted]
    denied = [nid for nid, o in outcomes.items() if not o.granted]
    assert len(granted) == 1
    assert len(denied) == 1
    assert outcomes[denied[0]].reason in (NackReason.CONTENTION_LOST,
                                          NackReason.BUSY_ARBITRATION)
    assert cluster.owner_of(oid) == granted[0]


def test_owner_busy_pending_commit_nacks():
    cluster = make_cluster(3)
    oid = 0
    obj = cluster.handles[0].store.get(oid)
    obj.t_state = TState.WRITE  # simulate a pending reliable commit
    outcome = acquire(cluster, 1, oid, until=50_000)
    assert not outcome.granted
    assert outcome.reason == NackReason.BUSY_COMMIT
    # Arbitration reverted: the directory is Valid again.
    entry = cluster.handles[0].directory.get(oid)
    assert entry.o_state == OState.VALID
    assert entry.replicas.owner == 0


def test_owner_busy_locked_object_nacks():
    cluster = make_cluster(3)
    oid = 0
    cluster.handles[0].store.get(oid).locked_by = (0, 0)
    outcome = acquire(cluster, 1, oid, until=50_000)
    assert not outcome.granted
    assert outcome.reason == NackReason.BUSY_COMMIT


def test_retry_after_busy_succeeds_when_drained():
    cluster = make_cluster(3)
    oid = 0
    obj = cluster.handles[0].store.get(oid)
    obj.t_state = TState.WRITE
    cluster.sim.call_after(100.0, setattr, obj, "t_state", TState.VALID)
    handle = cluster.handles[1]
    results = []

    def app():
        while True:
            outcome = yield from handle.ownership.acquire(oid)
            if outcome.granted:
                results.append(outcome)
                return
            yield 50.0

    run_app(cluster, 1, app())
    assert results and cluster.owner_of(oid) == 1


def test_concurrent_same_node_acquires_coalesce():
    cluster = make_cluster(3)
    oid = 1
    handle = cluster.handles[0]
    outcomes = []

    def app():
        outcome = yield from handle.ownership.acquire(oid)
        outcomes.append(outcome)

    cluster.spawn_app(0, 0, app())
    cluster.spawn_app(0, 1, app())
    cluster.run(until=100_000)
    assert len(outcomes) == 2
    assert all(o.granted for o in outcomes)
    assert handle.ownership.counters.get("req.acquire_owner", 0) == 1


def test_ownership_latency_recorded():
    cluster = make_cluster(3)
    acquire(cluster, 1, 0)
    assert len(cluster.handles[1].ownership.latencies_us) == 1


# ------------------------------------------------------------- failures


def test_owner_crash_object_recoverable_from_reader():
    cluster = make_cluster(4, objects=8, fast_failover=True)
    cluster.start_membership()
    oid = 3  # owned by node 3, readers 0 and 1
    owner_api = cluster.handles[3].api

    def writer():
        # A real committed write: replicated to the readers.
        yield from owner_api.execute_write(0, [oid],
                                           compute=lambda _o, _v: "v")

    cluster.spawn_app(3, 0, writer())
    cluster.run(until=100.0)
    cluster.crash(3)
    handle = cluster.handles[0]
    results = []

    def app():
        yield 200.0
        while True:
            outcome = yield from handle.ownership.acquire(oid)
            if outcome.granted:
                results.append(outcome)
                return
            yield 500.0

    run_app(cluster, 0, app(), until=300_000)
    assert results
    assert cluster.owner_of(oid) == 0
    obj = cluster.handles[0].store.get(oid)
    assert obj.t_data == "v"
    assert obj.t_version == 1


def test_requests_gated_while_recovering():
    cluster = make_cluster(4, objects=8, fast_failover=True)
    cluster.start_membership()
    oid = 3
    cluster.crash(3, at=100.0)
    reasons = []
    handle = cluster.handles[0]

    def app():
        # Ask while node 3's lease is still running: directory still
        # believes the owner is alive, so the request times out or is
        # gated; either way it is not granted yet.
        yield 300.0
        outcome = yield from handle.ownership.acquire(oid)
        reasons.append(outcome)

    cluster.spawn_app(0, 0, app())
    cluster.run(until=1_500.0)
    assert not reasons or not reasons[0].granted


def test_driver_crash_request_recovers_or_retries():
    cluster = make_cluster(4, objects=8, fast_failover=True)
    cluster.start_membership()
    oid = 4  # owner 0; driver for node 3's request is a directory node
    handle = cluster.handles[3]
    results = []

    def app():
        while True:
            outcome = yield from handle.ownership.acquire(oid)
            if outcome.granted:
                results.append(outcome)
                return
            yield 1_000.0

    cluster.spawn_app(3, 0, app())
    # Crash directory node 1 (a possible driver) shortly after the request.
    cluster.crash(1, at=3.0)
    cluster.run(until=400_000)
    assert results
    assert cluster.owner_of(oid) == 3


def test_dead_nodes_stripped_from_replica_sets():
    cluster = make_cluster(4, objects=8, fast_failover=True)
    cluster.start_membership()
    cluster.crash(3, at=100.0)
    cluster.run(until=60_000)
    for h in cluster.handles[:3]:
        if h.directory is None:
            continue
        for oid, entry in h.directory.items():
            assert 3 not in entry.replicas.all_nodes()


def test_data_for_a_finished_request_is_ignored():
    """A DATA reply that lands after its request finished (here: denied by
    a losing driver's NACK while the value was being fetched) applies no
    grant and VALs no arbiter: the request is gone, and an arbiter VALed
    now would settle an arbitration the requester no longer holds."""
    cluster = Rig(counter_catalog(5, 1, owner_of=lambda i: 1), seed=1).cluster
    requester = 4  # owner 1, readers 2 and 3: node 4 holds no copy
    node = cluster.nodes[requester]
    ownership = cluster.handles[requester].ownership
    acquiring = ownership.acquire(0)
    next(acquiring)  # the REQ is out; the request is live
    (req_id,) = ownership._reqs
    sent = []
    node.send = lambda dst, kind, *rest, **kw: sent.append(kind)

    def deliver(src, kind, payload):
        msg = Message(src, requester, kind, payload, 0)
        msg.epoch = node.epoch
        node._handlers[kind][0](msg)

    deliver(0, KIND_RESP, OwnResp(req_id, 0, Ots(1, 0),
                                  ReplicaSet(requester, (2, 3)), (0, 1, 2), 1))
    assert sent == [KIND_FETCH]
    deliver(0, KIND_NACK, OwnNack(req_id, 0, NackReason.CONTENTION_LOST))
    assert req_id not in ownership._reqs
    del sent[:]
    deliver(1, KIND_DATA, OwnData(req_id, 0, 7, 3))
    assert KIND_VAL not in sent
    assert cluster.handles[requester].store.get(0) is None
