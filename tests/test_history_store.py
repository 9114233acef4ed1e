"""The history recorder's row store: what an op costs and what it gives back.

The twin of ``tests/test_trace_store.py``: deterministic object counts and
``tracemalloc`` bytes, and a round trip against the list of ``HistoryOp``
the rows replaced.
"""

import gc
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.history import (ABORTED, COMMITTED, INDETERMINATE, HistoryOp,
                               HistoryRecorder)

#: Bytes one op of the ``perf/micro.py`` shape (1 read + 1 write) may cost: a
#: 44-byte row, two 20-byte accesses and the buffers' growth slack.  The
#: ``HistoryOp`` it replaced measured ~510.
BYTES_PER_OP = 96


def _record(recorder: HistoryRecorder, n: int) -> None:
    for i in range(n):
        op = recorder.begin(0, 0, "write", 1.0)
        recorder.read(op, i, 2, 1.0)
        recorder.write(op, i, 4, 1.0)
        recorder.respond(op, True, 2.0)
        recorder.mark_durable(op, 2.5)


def test_an_op_is_no_object_and_at_most_96_bytes():
    recorder = HistoryRecorder()
    _record(recorder, 100)
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _record(recorder, 10_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    gc.collect()
    assert len(gc.get_objects()) - objects <= 4
    assert not any(isinstance(obj, HistoryOp) for obj in gc.get_objects())
    assert grown <= BYTES_PER_OP * 10_000, grown / 10_000
    assert len(recorder) == len(recorder.ops) == 10_100


# --------------------------------------------- round trip vs the list of ops

class _ListOfOps:
    """What the rows replaced, as the oracle: one mutable ``HistoryOp`` per
    transaction, which was also the handle."""

    def __init__(self):
        self.ops = []

    def begin(self, node, thread, kind, now):
        self.ops.append(HistoryOp(len(self.ops), node, thread, kind, now))
        return self.ops[-1]

    def read(self, op, oid, version, now):
        op.reads.append((oid, version, now))

    def write(self, op, oid, version, now):
        op.writes.append((oid, version, now))

    def respond(self, op, committed, now):
        op.responded_at = now
        op.outcome = COMMITTED if committed else ABORTED

    def mark_durable(self, op, now=None):
        op.durable, op.durable_at = True, now

    def mark_persisted(self, op, now=None):
        op.persisted, op.persisted_at = True, now

    def on_crash(self, node_id, now):
        for op in self.ops:
            if op.node != node_id or op.durable:
                continue
            if op.outcome == COMMITTED or op.outcome is None:
                op.outcome = INDETERMINATE
                if op.responded_at is None:
                    op.responded_at = now

    def on_power_loss(self, now):
        persisted_writes = {(oid, version)
                            for op in self.ops if op.persisted
                            for oid, version, _at in op.writes}
        lost_writes = {(oid, version)
                       for op in self.ops if not op.persisted
                       for oid, version, _at in op.writes
                       if (oid, version) not in persisted_writes}
        for op in self.ops:
            if op.outcome is None:
                op.outcome = INDETERMINATE
                op.responded_at = now
            elif op.outcome != COMMITTED:
                continue
            elif not op.persisted and op.kind == "write":
                op.outcome = INDETERMINATE
            elif any((oid, version) in lost_writes
                     for oid, version, _at in op.reads):
                op.outcome = INDETERMINATE


_which = st.integers(0, 64)                       # an op begun so far
_at = st.floats(0.0, 1e6)
_maybe_at = st.one_of(st.none(), _at)
_oid = st.integers(-2**31, 2**31 - 1)
_version = st.integers(0, 2**31 - 1)
_steps = st.lists(st.one_of(
    st.tuples(st.just("begin"), st.integers(0, 2), st.integers(0, 3),
              st.sampled_from(["read", "write"]), _at),
    st.tuples(st.sampled_from(["read", "write"]), _which, _oid, _version,
              _at),
    st.tuples(st.just("respond"), _which, st.booleans(), _at),
    st.tuples(st.sampled_from(["mark_durable", "mark_persisted"]), _which,
              _maybe_at),
    st.tuples(st.just("on_crash"), st.integers(0, 2), _at),
    st.tuples(st.just("on_power_loss"), _at),
), max_size=60)


def _fields(ops):
    return [tuple(getattr(op, slot) for slot in op.__slots__) for op in ops]


@settings(max_examples=200, deadline=None)
@given(steps=_steps)
def test_ops_round_trip_what_the_list_of_ops_held(steps):
    recorder, oracle = HistoryRecorder(), _ListOfOps()
    handles = []
    for name, *args in steps:
        if name == "begin":
            handles.append((recorder.begin(*args), oracle.begin(*args)))
        elif name in ("on_crash", "on_power_loss"):
            getattr(recorder, name)(*args)
            getattr(oracle, name)(*args)
        elif handles:
            got, want = handles[args[0] % len(handles)]
            getattr(recorder, name)(got, *args[1:])
            getattr(oracle, name)(want, *args[1:])
        # Same values is not enough for the digest in golden_txn_lane.json:
        # same types too (``True`` is not ``1``).
        assert repr(_fields(recorder.ops)) == repr(_fields(oracle.ops))
    assert [op.op_id for op in recorder.committed_ops()] == [
        op.op_id for op in oracle.ops if op.committed]
