"""The tracer's row store: what a record costs and what it gives back.

Deterministic, in the style of ``tests/test_txn_lane.py``: object counts and
``tracemalloc`` bytes are functions of the code, not of the machine.
"""

import gc
import struct
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import TID_NET, TID_SVC, Span, Tracer
from repro.sim.kernel import Simulator

#: Bytes one record may cost: a 30-byte header (38 for a span) and its
#: arguments packed inline, plus the buffer's growth slack.  A 40-byte row
#: with boxed values behind ~4 references measured ~110, the list-of-``Span``
#: store before it ~400.
BYTES_PER_RECORD = 64


def _record(tracer: Tracer, n: int) -> None:
    """``n`` instants and ``n`` spans shaped like the wire/service pair."""
    send = tracer.point("net.send", "net", False, dst=int, kind=str,
                        size=int, flow=int)
    ack = tracer.point("commit_ack", "svc", True, kind=str, src=int,
                       queue_us=float, flow=int, acked=int)
    for i in range(n):
        send(1, TID_NET, None, 2, "rc.inv", 96, i)
        ack(tracer.open(2, TID_SVC, (i + 1, i)), "rc.inv", 1, 0.25 * i, i, 2)


def test_a_record_is_no_object_and_at_most_64_bytes():
    tracer = Tracer(Simulator())
    _record(tracer, 100)  # declare the emit points, first buffer growth
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _record(tracer, 10_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    gc.collect()
    # A constant, not O(records): nothing the collector tracks was kept.
    assert len(gc.get_objects()) - objects <= 4
    assert not any(isinstance(obj, Span) for obj in gc.get_objects())
    assert grown <= BYTES_PER_RECORD * 20_000, grown / 20_000
    assert len(tracer.spans) == len(tracer.instants) == 10_100


def test_an_int_column_is_32_bit():
    tracer = Tracer(Simulator())
    probe = tracer.point("net.probe", "net", False, dst=int, seq=int)
    probe(0, TID_NET, None, 1, 2**31 - 1)
    with pytest.raises(struct.error):
        probe(0, TID_NET, None, 1, 2**31)
    assert [e.args for e in tracer.instants] == [{"dst": 1, "seq": 2**31 - 1}]


def test_open_spans_counts_what_no_export_holds():
    tracer = Tracer(Simulator())
    assert tracer.open_spans == 0
    wedged = tracer.open(0)
    tracer.end(tracer.begin("txn", pid=0))
    tracer.point("net.send", "net", False, dst=int)(0, TID_NET, None, 1)
    assert tracer.open_spans == 1 and len(tracer.spans) == 1
    tracer.point("commit_replicate", "commit", True, slot=int)(wedged, 3)
    assert tracer.open_spans == 0


def test_views_are_snapshots_rebuilt_after_new_records():
    tracer = Tracer(Simulator())
    tracer.point("a", "event", False)(0, TID_NET, None)
    first = tracer.instants
    assert tracer.instants is first            # materialised once
    tracer.point("b", "event", False, n=int)(0, TID_NET, None, 1)
    assert [e.name for e in tracer.instants] == ["a", "b"]
    assert [e.name for e in first] == ["a"]
    assert tracer.spans == [] and list(tracer.rows(True)) == []


# ------------------------------------------------- round trip vs the old store

class _ListOfSpans:
    """What the store replaced, as the oracle: one mutable record and one
    args dict per span, kept in a list in completion order."""

    def __init__(self, sim):
        self.sim, self.spans, self.instants, self.next_span = sim, [], [], 0

    def begin(self, name, pid, tid, cat, ctx):
        self.next_span += 1
        trace_id, parent_id = ctx if ctx is not None else (None, None)
        return [name, cat, pid, tid, self.sim.now, None, None,
                trace_id, self.next_span, parent_id]

    def end(self, span, args):
        span[5], span[6] = self.sim.now, args or None
        self.spans.append(tuple(span))

    def instant(self, name, pid, tid, cat, ctx, args):
        span = self.begin(name, pid, tid, cat, ctx)
        span[5], span[6] = span[4], args or None
        self.instants.append(tuple(span))


_int32 = st.integers(-2**31, 2**31 - 1)
_ids = st.integers(1, 2**31 - 1)
#: Declared type -> the values a column of it must give back exactly for a
#: byte-identical export: ``True`` is not ``1`` and ``2.0`` is not ``2``,
#: floats bit for bit, strings first seen mid-run and None, and whatever an
#: ``object`` column is handed (kept by reference: big ints, lists, pairs).
_VALUES = {
    int: _int32,
    float: st.one_of(st.floats(allow_nan=False),
                     st.sampled_from([-0.0, 2.0, 5e-324])),
    bool: st.booleans(),
    str: st.one_of(st.none(), st.text(max_size=8)),
    tuple: st.tuples(_int32, _int32),
    object: st.one_of(st.none(), st.integers(), st.text(max_size=8),
                      st.sampled_from([-2**63 - 1, 2**63]),
                      st.lists(st.integers(-2**31 - 1, 2**31), min_size=1,
                               max_size=3),
                      st.tuples(st.integers(), st.booleans())),
}


@st.composite
def _args(draw):
    """A schema — argument names in order, each with its declared type —
    and one value of each type."""
    names = draw(st.lists(st.sampled_from(
        ["kind", "flow", "oid", "granted", "reason", "pipeline"]),
        unique=True, max_size=5))
    schema = {name: draw(st.sampled_from(list(_VALUES))) for name in names}
    return schema, [draw(_VALUES[kind]) for kind in schema.values()]


def _exported(schema, values):
    """The args a record reads back as: a ``tuple`` column gives a list."""
    return {name: list(value) if kind is tuple else value
            for (name, kind), value in zip(schema.items(), values)}


_site = st.tuples(st.sampled_from(["txn", "net.send", "own_acquire"]),
                  st.integers(0, 7),                      # pid
                  st.sampled_from([0, 1, TID_SVC, TID_NET]),
                  st.sampled_from(["txn", "net", "svc"]),
                  st.one_of(st.none(), st.tuples(_ids, st.none()),
                            st.tuples(_ids, _ids)))
_steps = st.lists(st.one_of(
    st.tuples(st.just("open"), _site),
    st.tuples(st.just("instant"), _site, _args()),
    st.tuples(st.just("end"), st.integers(0, 64), _args()),
    st.tuples(st.just("tick"), st.floats(0.0, 1e6)),
), max_size=60)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=_steps)
def test_rows_round_trip_what_the_list_of_spans_held(steps):
    sim = SimpleNamespace(now=0.0)
    tracer, oracle = Tracer(sim), _ListOfSpans(sim)
    open_spans = []
    for step in steps:
        if step[0] == "tick":
            sim.now += step[1]
        elif step[0] == "end":
            if open_spans:
                got, want = open_spans.pop(step[1] % len(open_spans))
                schema, values = step[2]
                tracer.point(want[0], want[1], True, **schema)(got, *values)
                oracle.end(want, _exported(schema, values))
        elif step[0] == "instant":
            (name, pid, tid, cat, ctx), (schema, values) = step[1:]
            tracer.point(name, cat, False, **schema)(pid, tid, ctx, *values)
            oracle.instant(name, pid, tid, cat, ctx,
                           _exported(schema, values))
        else:
            name, pid, tid, cat, ctx = step[1]
            got = tracer.open(pid, tid, ctx)
            want = oracle.begin(name, pid, tid, cat, ctx)
            assert tuple(got)[2:] == tuple(want)[2:]
            open_spans.append((got, want))
    assert [tuple(s) for s in tracer.spans] == oracle.spans
    assert [tuple(e) for e in tracer.instants] == oracle.instants
    # Same values is not enough for a byte-identical export: same types and
    # same argument order too (``-0.0 == 0.0`` and ``True == 1``).
    assert repr(tracer.spans + tracer.instants) == repr(
        [Span(*row) for row in oracle.spans + oracle.instants])
    assert tracer.open_spans == len(open_spans)
