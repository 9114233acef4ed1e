"""Transaction layer: the tr_* API, locks, opacity, read-only txns."""

import pytest

from repro.store.meta import OState, TState
from repro.txn.errors import AbortReason, TxnAborted
from tests.conftest import make_cluster, run_app


def test_interactive_write_transaction():
    cluster = make_cluster(3)
    api = cluster.handles[0].api
    results = []

    def app():
        txn = api.tr_create(thread=0)
        old = yield from txn.open_write(0)
        txn.write(0, (old or 0) + 10)
        ok = yield from txn.commit()
        results.append(ok)

    run_app(cluster, 0, app())
    assert results == [True]
    assert api.peek(0) == 10


def test_interactive_abort_rolls_back():
    cluster = make_cluster(3)
    api = cluster.handles[0].api

    def app():
        txn = api.tr_create(thread=0)
        yield from txn.open_write(0)
        txn.write(0, 999)
        txn.abort()

    run_app(cluster, 0, app())
    assert api.peek(0) == 0  # private copy discarded (opacity)
    assert cluster.handles[0].store.get(0).locked_by is None


def test_write_requires_open():
    cluster = make_cluster(3)
    txn = cluster.handles[0].api.tr_create(0)
    with pytest.raises(RuntimeError):
        txn.write(0, 5)


def test_open_write_acquires_remote_ownership():
    cluster = make_cluster(3)
    api = cluster.handles[0].api
    oid = 1  # owned by node 1
    results = []

    def app():
        r = yield from api.execute_write(0, [oid])
        results.append(r)

    run_app(cluster, 0, app())
    assert results[0].committed
    assert results[0].ownership_requests >= 1
    assert cluster.owner_of(oid) == 0


def test_local_write_needs_no_ownership_request():
    cluster = make_cluster(3)
    api = cluster.handles[0].api
    results = []

    def app():
        r = yield from api.execute_write(0, [0])
        results.append(r)

    run_app(cluster, 0, app())
    assert results[0].ownership_requests == 0


def test_lock_conflict_aborts_and_retries():
    cluster = make_cluster(3)
    api = cluster.handles[0].api
    results = []

    def slow_then_release():
        txn = api.tr_create(thread=0)
        yield from txn.open_write(0)
        yield 100.0  # hold the lock a while
        txn.write(0, 1)
        yield from txn.commit()

    def contender():
        yield 1.0  # let the first txn grab the lock
        r = yield from api.execute_write(1, [0])
        results.append(r)

    cluster.spawn_app(0, 0, slow_then_release())
    cluster.spawn_app(0, 1, contender())
    cluster.run(until=100_000)
    assert results[0].committed
    assert results[0].aborts >= 1
    assert api.peek(0) == 2  # both writes applied


def test_two_threads_disjoint_objects_no_conflict():
    cluster = make_cluster(3, spread=False)
    api = cluster.handles[0].api
    results = []

    def app(thread, oid):
        r = yield from api.execute_write(thread, [oid])
        results.append(r)

    cluster.spawn_app(0, 0, app(0, 0))
    cluster.spawn_app(0, 1, app(1, 1))
    cluster.run(until=100_000)
    assert all(r.committed and r.aborts == 0 for r in results)


def test_read_only_transaction_commits_locally():
    cluster = make_cluster(3)
    api = cluster.handles[1].api  # node 1 is a reader of oid 0
    results = []

    def app():
        r = yield from api.execute_read(0, [0])
        results.append(r)

    cluster.run(until=10_000)  # settle the initial view's barrier round
    before = cluster.network.total_msgs
    run_app(cluster, 1, app())
    assert results[0].committed
    assert cluster.network.total_msgs == before  # zero network traffic


def test_read_only_sees_committed_value_on_reader():
    cluster = make_cluster(3)
    writer = cluster.handles[0].api
    reader = cluster.handles[1].api
    seen = []

    def write_then_signal():
        yield from writer.execute_write(0, [0], compute=lambda _o, _v: 42)

    def read_later():
        yield 1_000.0
        txn = reader.tr_r_create(0)
        value = yield from txn.open_read(0)
        yield from txn.commit()
        seen.append(value)

    cluster.spawn_app(0, 0, write_then_signal())
    cluster.spawn_app(1, 0, read_later())
    cluster.run(until=100_000)
    assert seen == [42]


def test_read_only_aborts_on_invalidated_object():
    cluster = make_cluster(3)
    obj = cluster.handles[1].store.get(0)
    obj.t_state = TState.INVALID
    api = cluster.handles[1].api
    results = []

    def app():
        txn = api.tr_r_create(0)
        try:
            yield from txn.open_read(0)
        except TxnAborted as abort:
            results.append(abort.reason)

    run_app(cluster, 1, app())
    assert results == [AbortReason.OBJECT_INVALID]


def test_read_only_version_change_mid_txn_aborts_then_retries():
    cluster = make_cluster(3)
    reader = cluster.handles[1]
    obj = reader.store.get(0)
    api = reader.api
    results = []

    def app():
        r = yield from api.execute_read(0, [0], exec_us=20.0)
        results.append(r)

    # Bump the version mid-read (simulating a racing remote commit).
    def bump():
        obj.t_version += 1
        obj.t_state = TState.INVALID
        cluster.sim.call_after(5.0, restore)

    def restore():
        obj.t_state = TState.VALID

    cluster.sim.call_after(2.0, bump)
    run_app(cluster, 1, app())
    assert results[0].committed
    assert results[0].aborts >= 1


def test_write_txn_reader_level_read_validated():
    cluster = make_cluster(3)
    api = cluster.handles[0].api  # node 0 reads oid 1 (owned by node 1)
    results = []

    def app():
        r = yield from api.execute_write(0, write_set=[0], read_set=[1])
        results.append(r)

    run_app(cluster, 0, app())
    assert results[0].committed
    # Reader-level read: no ownership transfer of oid 1.
    assert cluster.owner_of(1) == 1


def test_opacity_write_never_partially_visible():
    """Concurrent readers never see a torn multi-object write."""
    cluster = make_cluster(3, spread=False)
    api = cluster.handles[0].api
    reader = cluster.handles[1].api
    torn = []

    def writer():
        for _ in range(10):
            yield from api.execute_write(
                0, [0, 1], compute=lambda _o, v: (v or 0) + 1)

    def observer():
        while cluster.sim.now < 50.0:
            r = yield from reader.execute_read(0, [0, 1])
            if r.committed:
                a = reader.peek(0)
                b = reader.peek(1)
                if a != b:
                    torn.append((a, b))
            yield 0.7

    cluster.spawn_app(0, 0, writer())
    cluster.spawn_app(1, 0, observer())
    cluster.run(until=100_000)
    assert torn == []


def test_txn_result_latency_recorded():
    cluster = make_cluster(3)
    api = cluster.handles[0].api
    results = []

    def app():
        r = yield from api.execute_write(0, [1])  # remote: has latency
        results.append(r)

    run_app(cluster, 0, app())
    assert results[0].latency_us > 1.0


def test_retries_exhausted_reports_failure():
    cluster = make_cluster(3)
    api = cluster.handles[0].api
    api.max_retries = 2
    # Permanently lock the object from another thread.
    cluster.handles[0].store.get(0).locked_by = (0, 99)
    results = []

    def app():
        r = yield from api.execute_write(0, [0])
        results.append(r)

    run_app(cluster, 0, app())
    assert not results[0].committed
    assert results[0].abort_reason == AbortReason.RETRIES_EXHAUSTED


def test_peek_missing_object_is_none():
    cluster = make_cluster(3)
    assert cluster.handles[0].api.peek(999) is None


@pytest.mark.parametrize("owned", [True, False], ids=["owned", "reader"])
@pytest.mark.parametrize("t_state", list(TState), ids=lambda s: s.name)
@pytest.mark.parametrize(
    "o_state", [OState.VALID, OState.REQUEST, OState.INVALID],
    ids=lambda s: s.name)
def test_lane_reads_by_the_interactive_rule(o_state, t_state, owned):
    """The transaction lane (``ZeusAPI.execute``) against its reference,
    the interactive transactions, on one copy at node 1 whose states are
    set directly: the lane's read-only branch commits with no ownership
    request exactly when ``ReadOnlyTransaction.open_read`` admits the copy
    without one, which is exactly when the read rule of ``StoredObject``
    holds; and once admitted, a copy that goes ``o_state`` Invalid after
    it was read fails validation on the lane and on the interactive path,
    read-only and (at reader level) read-write."""
    node, oid, own_write = 1, (1 if owned else 0), 4

    def cluster_with_copy():
        cluster = make_cluster(3)
        cluster.run(until=10_000)  # settle the initial view's barrier round
        obj = cluster.handles[node].store.get(oid)
        assert (obj.o_replicas is not None) == owned
        obj.o_state, obj.t_state = o_state, t_state
        api = cluster.handles[node].api
        api.max_retries = 1
        return cluster, api, obj

    def run(cluster, gen):
        run_app(cluster, node, gen, until=cluster.sim.now + 50_000.0)

    def lane(cluster, api, **kw):
        results = []

        def app():
            results.append((yield from api.execute(0, **kw)))

        run(cluster, app())
        return results[0]

    cluster, api, _obj = cluster_with_copy()
    result = lane(cluster, api, write_set=(), read_set=[oid], read_only=True)
    lane_admits = result.committed and result.ownership_requests == 0

    cluster, api, _obj = cluster_with_copy()
    txn = api.tr_r_create(0)
    outcome = []

    def open_read():
        try:
            yield from txn.open_read(oid)
            outcome.append(True)
        except TxnAborted:
            outcome.append(False)

    run(cluster, open_read())
    reference_admits = outcome == [True] and txn.stats.ownership_requests == 0

    readable = o_state != OState.INVALID and t_state == TState.VALID
    assert lane_admits == reference_admits == readable
    if not readable:
        return

    # The lane reads before its one batched event and validates after it.
    shapes = [dict(write_set=(), read_set=[oid], read_only=True)]
    if not owned:  # an owner-level read is locked, not validated
        shapes.append(dict(write_set=[own_write], read_set=[oid]))
    for shape in shapes:
        cluster, api, obj = cluster_with_copy()
        cluster.sim.call_after(10.0, setattr, obj, "o_state", OState.INVALID)
        assert lane(cluster, api, exec_us=50.0, **shape).aborts >= 1, shape

    interactive = [lambda api: api.tr_r_create(0)]
    if not owned:
        interactive.append(lambda api: api.tr_create(0))
    for create in interactive:
        cluster, api, obj = cluster_with_copy()
        txn = create(api)
        reasons = []

        def read_then_commit():
            yield from txn.open_read(oid)
            obj.o_state = OState.INVALID
            try:
                yield from txn.commit()
            except TxnAborted as abort:
                reasons.append(abort.reason)

        run(cluster, read_then_commit())
        assert reasons == [AbortReason.READ_CONFLICT], type(txn).__name__
