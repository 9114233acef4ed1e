"""The tracer's row store: what a record costs and what it gives back.

Deterministic, in the style of ``tests/test_txn_lane.py``: object counts and
``tracemalloc`` bytes are functions of the code, not of the machine.
"""

import gc
import tracemalloc
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import TID_NET, TID_SVC, Span, Tracer
from repro.sim.kernel import Simulator

#: Bytes one record may cost: a 40-byte row, ~4 argument references and the
#: boxed ints/floats among the values.  The list-of-``Span`` store it
#: replaced measured ~400.
BYTES_PER_RECORD = 128


def _record(tracer: Tracer, n: int) -> None:
    """``n`` instants and ``n`` spans shaped like the wire/service pair."""
    for i in range(n):
        tracer.instant("net.send", pid=1, cat="net", dst=2, kind="rc.inv",
                       size=96, flow=i)
        span = tracer.begin("commit_ack", pid=2, tid=TID_SVC, cat="svc",
                            ctx=(i + 1, i), kind="rc.inv", src=1,
                            queue_us=0.25 * i, flow=i)
        tracer.end(span, acked=2)


def test_a_record_is_no_object_and_at_most_128_bytes():
    tracer = Tracer(Simulator())
    _record(tracer, 100)  # intern the emit points, first buffer growth
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


def test_views_are_snapshots_rebuilt_after_new_records():
    tracer = Tracer(Simulator())
    tracer.instant("a", pid=0)
    first = tracer.instants
    assert tracer.instants is first            # materialised once
    tracer.instant("b", pid=0, n=1)
    assert [e.name for e in tracer.instants] == ["a", "b"]
    assert [e.name for e in first] == ["a"]
    assert tracer.spans == [] and list(tracer.rows(True)) == []


# ------------------------------------------------- round trip vs the old store

class _ListOfSpans:
    """What the store replaced, as the oracle: one mutable record and one
    args dict per span, kept in a list in completion order."""

    def __init__(self, sim):
        self.sim, self.spans, self.instants, self.next_span = sim, [], [], 0

    def begin(self, name, pid, tid=0, cat="span", ctx=None, **args):
        self.next_span += 1
        trace_id, parent_id = ctx if ctx is not None else (None, None)
        return [name, cat, pid, tid, self.sim.now, None, args or None,
                trace_id, self.next_span, parent_id]

    def end(self, span, **args):
        span[5] = self.sim.now
        if args:
            if span[6] is None:
                span[6] = args
            else:
                span[6].update(args)
        self.spans.append(tuple(span))

    def instant(self, name, pid, tid=TID_NET, cat="event", ctx=None, **args):
        span = self.begin(name, pid, tid, cat, ctx, **args)
        span[5] = span[4]
        self.instants.append(tuple(span))


_ids = st.integers(1, 2**31 - 1)
_args = st.dictionaries(
    st.sampled_from(["kind", "flow", "oid", "granted", "reason"]),
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False), st.text(max_size=8)),
    max_size=4)
_site = st.tuples(st.sampled_from(["txn", "net.send", "own_acquire"]),
                  st.integers(0, 7),                      # pid
                  st.sampled_from([0, 1, TID_SVC, TID_NET]),
                  st.sampled_from(["txn", "net", "svc"]),
                  st.one_of(st.none(), st.tuples(_ids, st.none()),
                            st.tuples(_ids, _ids)),
                  _args)
_steps = st.lists(st.one_of(
    st.tuples(st.just("begin"), _site),
    st.tuples(st.just("instant"), _site),
    st.tuples(st.just("end"), st.integers(0, 64), _args),
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
                tracer.end(got, **step[2])
                oracle.end(want, **step[2])
        else:
            name, pid, tid, cat, ctx, args = step[1]
            if step[0] == "instant":
                tracer.instant(name, pid, tid, cat, ctx, **args)
                oracle.instant(name, pid, tid, cat, ctx, **args)
            else:
                got = tracer.begin(name, pid, tid, cat, ctx, **args)
                want = oracle.begin(name, pid, tid, cat, ctx, **dict(args))
                assert tuple(got) == tuple(want)
                open_spans.append((got, want))
    assert [tuple(s) for s in tracer.spans] == oracle.spans
    assert [tuple(e) for e in tracer.instants] == oracle.instants
    # Same values is not enough for a byte-identical export: same types and
    # same argument order too.
    assert repr(tracer.spans + tracer.instants) == repr(
        [Span(*row) for row in oracle.spans + oracle.instants])
