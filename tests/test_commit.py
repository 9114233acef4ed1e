"""Reliable commit: replication, pipelining, read-only safety, recovery."""


from repro.store.meta import TState
from tests.conftest import make_cluster, run_app


def write(cluster, node_id, oids, thread=0, value=None, until=100_000.0):
    api = cluster.handles[node_id].api
    results = []

    def app():
        compute = (lambda _o, _v: value) if value is not None else None
        r = yield from api.execute_write(thread, oids, compute=compute)
        results.append(r)

    run_app(cluster, node_id, app(), until=until, thread=thread)
    return results[0]


def test_write_replicates_to_all_readers():
    cluster = make_cluster(3)
    oid = 0
    result = write(cluster, 0, [oid], value="payload")
    assert result.committed
    for h in cluster.handles:
        obj = h.store.get(oid)
        assert obj is not None
        assert obj.t_data == "payload"
        assert obj.t_version == 1
        assert obj.t_state == TState.VALID


def test_versions_monotonic_across_commits():
    cluster = make_cluster(3)
    oid = 0
    api = cluster.handles[0].api

    def app():
        for _ in range(5):
            yield from api.execute_write(0, [oid])

    run_app(cluster, 0, app())
    for h in cluster.handles:
        assert h.store.get(oid).t_version == 5


def test_multi_object_commit_atomic_versions():
    cluster = make_cluster(3, spread=False)  # node 0 owns everything
    result = write(cluster, 0, [0, 1, 2])
    assert result.committed
    for h in cluster.handles:
        assert all(h.store.get(oid).t_version == 1 for oid in (0, 1, 2))


def test_commit_counters():
    cluster = make_cluster(3)
    write(cluster, 0, [0])
    cm = cluster.handles[0].commit
    assert cm.counters["submitted"] == 1
    assert cm.counters["committed"] == 1
    assert cluster.handles[1].commit.counters["applied"] == 1


def test_commit_latency_one_rtt_scale():
    cluster = make_cluster(3)
    write(cluster, 0, [0])
    lat = cluster.handles[0].commit.commit_latencies_us
    assert len(lat) == 1
    assert 3.0 < lat[0] < 20.0


def test_has_pending_during_commit_window():
    cluster = make_cluster(3)
    oid = 0
    api = cluster.handles[0].api
    cm = cluster.handles[0].commit
    observed = []

    def app():
        yield from api.execute_write(0, [oid])
        observed.append(cm.has_pending(oid))

    proc = cluster.spawn_app(0, 0, app())
    cluster.run(until=2.0)  # before R-ACKs can arrive
    if proc.done():
        assert observed == [True]
    cluster.run(until=100_000)
    assert not cm.has_pending(oid)


def test_pipelining_does_not_block_app_thread():
    """N back-to-back local writes take ~N * local-cost, not N * RTT."""
    cluster = make_cluster(3, objects=30, spread=False)
    api = cluster.handles[0].api
    finished = []

    def app():
        for i in range(20):
            yield from api.execute_write(0, [i])
        finished.append(cluster.sim.now)

    run_app(cluster, 0, app())
    # Blocking replication would cost >= 20 * ~7.5us RTT = 150us.
    assert finished[0] < 60.0


def test_pipeline_depth_backpressure():
    cluster = make_cluster(3, objects=40, spread=False)
    catalog_objects = 40

    deep = cluster  # default depth 32
    shallow = make_cluster(3, objects=40, spread=False)
    shallow.handles[0].commit.max_pipeline_depth = 1
    times = {}
    for tag, c in (("deep", deep), ("shallow", shallow)):
        api = c.handles[0].api
        done = []

        def app(api=api, done=done):
            for i in range(catalog_objects):
                yield from api.execute_write(0, [i])
            done.append(c.sim.now)

        run_app(c, 0, app())
        times[tag] = done[0]
    assert times["shallow"] > 2.0 * times["deep"]


def test_followers_apply_in_pipeline_order():
    cluster = make_cluster(3, objects=10, spread=False)
    api = cluster.handles[0].api
    order = []
    follower = cluster.handles[1]
    orig = follower.commit._apply_rinv

    def spy(fpipe, inv, ack_to=None):
        order.append(inv.slot)
        return orig(fpipe, inv, ack_to)

    follower.commit._apply_rinv = spy

    def app():
        for i in range(10):
            yield from api.execute_write(0, [i])

    run_app(cluster, 0, app())
    assert order == sorted(order)
    assert len(order) == 10


def test_different_threads_use_different_pipelines():
    cluster = make_cluster(3, objects=10, spread=False)
    api = cluster.handles[0].api

    def app(thread, oid):
        yield from api.execute_write(thread, [oid])

    cluster.spawn_app(0, 0, app(0, 0))
    cluster.spawn_app(0, 1, app(1, 1))
    cluster.run(until=100_000)
    follower = cluster.handles[1].commit
    assert (0, 0) in follower._follow
    assert (0, 1) in follower._follow


def test_reader_invalid_between_inv_and_val():
    """A reader must not serve the new value before validation (§5.3)."""
    cluster = make_cluster(3)
    oid = 0
    reader_obj = cluster.handles[1].store.get(oid)
    states = []

    def watcher():
        while cluster.sim.now < 40.0:
            states.append((reader_obj.t_version, reader_obj.t_state))
            yield 0.5

    cluster.handles[1].node.spawn(watcher())
    write(cluster, 0, [oid], until=50_000)
    # Once version 1 appears it is Invalid first, Valid only later.
    v1_states = [s for v, s in states if v == 1]
    assert v1_states, "watcher never saw the new version"
    assert v1_states[0] == TState.INVALID
    assert v1_states[-1] == TState.VALID


def test_replication_degree_one_commits_instantly():
    cluster = make_cluster(3, degree=1)
    result = write(cluster, 0, [0])
    assert result.committed
    assert cluster.handles[0].commit.counters["committed"] == 1
    assert not cluster.handles[1].store.has(0)


def test_a_follower_less_submit_numbers_its_slot_and_settles_at_once():
    """Degree 1 on the same pipeline as a replicated commit: the first
    submit has no live follower and an empty pipeline, so it validates
    before returning; the next one, with a follower, is slot 1."""
    cluster = make_cluster(3)
    cm = cluster.handles[0].commit
    obj = cluster.handles[0].store.get(0)

    def local_write():
        obj.t_version += 1
        obj.t_state = TState.WRITE
        return [(0, obj.t_version, "v", 64)]

    first = cm.submit(0, local_write(), set())
    assert first.done() and not cm.has_pending(0)
    assert obj.t_state == TState.VALID
    assert cm.counters["submitted"] == cm.counters["committed"] == 1
    assert cm.commit_latencies_us == [0.0]

    second = cm.submit(0, local_write(), {1})
    assert not second.done() and cm.has_pending(0)
    cluster.run(until=1_000.0)
    assert second.done() and not cm.has_pending(0)
    assert obj.t_state == TState.VALID
    pipe = cm._coord[0]
    assert (pipe.next_slot, pipe.validated_upto) == (2, 1)
    follower = cluster.handles[1].commit
    assert follower.counters["applied"] == 1
    assert follower._follow[(0, 0)].settled == 1
    assert cluster.handles[1].store.get(0).t_version == obj.t_version


# --------------------------------------------------------------- failures


def test_coordinator_crash_followers_replay_consistently():
    cluster = make_cluster(3, objects=20, spread=False, fast_failover=True)
    cluster.start_membership()
    api = cluster.handles[0].api

    def burst():
        for i in range(20):
            yield from api.execute_write(0, [i])

    cluster.spawn_app(0, 0, burst())
    cluster.crash(0, at=25.0)
    cluster.run(until=100_000)
    h1, h2 = cluster.handles[1], cluster.handles[2]
    for oid in range(20):
        o1, o2 = h1.store.get(oid), h2.store.get(oid)
        assert o1.t_version == o2.t_version
        assert o1.t_state == TState.VALID
        assert o2.t_state == TState.VALID


def test_follower_crash_does_not_block_commits():
    cluster = make_cluster(3, fast_failover=True)
    cluster.start_membership()
    cluster.crash(2, at=100.0)
    api = cluster.handles[0].api
    results = []

    def app():
        yield 50_000.0  # wait out the lease; epoch 2 installed
        r = yield from api.execute_write(0, [0])
        results.append(r)

    run_app(cluster, 0, app(), until=200_000)
    assert results[0].committed
    assert cluster.handles[1].store.get(0).t_version == 1


def test_commit_in_flight_when_follower_dies_still_completes():
    cluster = make_cluster(3, fast_failover=True)
    cluster.start_membership()
    api = cluster.handles[0].api
    results = []

    def app():
        r = yield from api.execute_write(0, [0])
        results.append(r)

    cluster.spawn_app(0, 0, app())
    cluster.crash(2, at=3.0)  # R-INV to node 2 lost forever
    cluster.run(until=200_000)
    assert results[0].committed
    obj = cluster.handles[0].store.get(0)
    assert obj.t_state == TState.VALID  # validated after the epoch change


def test_recovered_broadcast_after_drain():
    cluster = make_cluster(3, objects=10, spread=False, fast_failover=True)
    cluster.start_membership()
    api = cluster.handles[0].api

    def burst():
        for i in range(10):
            yield from api.execute_write(0, [i])

    cluster.spawn_app(0, 0, burst())
    cluster.crash(0, at=20.0)
    cluster.run(until=100_000)
    # Recovery completed: barrier lifted on the live directory nodes.
    assert cluster.handles[1].ownership.barrier_lifted
    assert cluster.handles[2].ownership.barrier_lifted
