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

#: Bytes one record may cost: a 30-byte header (38 for a span) and its
#: arguments packed inline, plus the buffer's growth slack.  A 40-byte row
#: with boxed values behind ~4 references measured ~110, the list-of-``Span``
#: store before it ~400.
BYTES_PER_RECORD = 64


def _record(tracer: Tracer, n: int) -> None:
    """``n`` instants and ``n`` spans shaped like the wire/service pair."""
    for i in range(n):
        tracer.instant("net.send", pid=1, cat="net", dst=2, kind="rc.inv",
                       size=96, flow=i)
        span = tracer.begin("commit_ack", pid=2, tid=TID_SVC, cat="svc",
                            ctx=(i + 1, i), kind="rc.inv", src=1,
                            queue_us=0.25 * i, flow=i)
        tracer.end(span, acked=2)


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


def test_positional_points_and_the_keyword_calls_share_one_writer():
    """A declared point and a keyword call of the same shape are the same
    emit point: one row format, one reader."""
    tracer = Tracer(Simulator())
    send = tracer.point("net.send", "net", False, dst=int, kind=str, size=int)
    replicate = tracer.point("commit.apply", "commit", False, pipeline=tuple)
    done = tracer.point("txn", "txn", True, kind=str, committed=bool)
    send(1, TID_NET, (7, None), 2, "rc.inv", 96)
    tracer.instant("net.send", pid=1, cat="net", ctx=(7, None), dst=2,
                   kind="rc.inv", size=96)
    replicate(1, TID_NET, None, (0, 3))
    done(tracer.open(1, 0, (7, 2)), "write", True)
    tracer.end(tracer.begin("txn", pid=1, cat="txn", ctx=(7, 2),
                            kind="write"), committed=True)
    assert len(tracer._points) == 3
    first, second, pair = tracer.instants
    assert first[:-2] == second[:-2] and first.args == {
        "dst": 2, "kind": "rc.inv", "size": 96}
    assert pair.args == {"pipeline": [0, 3]}
    positional, keyword = tracer.spans
    assert positional[:-2] == keyword[:-2]
    assert positional.args == {"kind": "write", "committed": True}


def test_open_spans_counts_what_no_export_holds():
    tracer = Tracer(Simulator())
    assert tracer.open_spans == 0
    wedged = tracer.begin("commit_replicate", pid=0, slot=3)
    tracer.end(tracer.begin("txn", pid=0))
    tracer.instant("net.send", pid=0, dst=1)
    assert tracer.open_spans == 1 and len(tracer.spans) == 1
    tracer.end(wedged)
    assert tracer.open_spans == 0


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
# The value classes the JSON exports must give back exactly: ``True`` is not
# ``1`` and ``2.0`` is not ``2``, None, ints below zero and past 2**31 and
# 2**63, floats bit for bit, strings first seen mid-run, and whatever else a
# cold call site passes (kept by reference; the int pair among it).
_args = st.dictionaries(
    st.sampled_from(["kind", "flow", "oid", "granted", "reason", "pipeline"]),
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(-2**31 - 2, 2**31 + 2),
              st.sampled_from([-2**63 - 1, -2**63, 2**63 - 1, 2**63]),
              st.floats(allow_nan=False), st.sampled_from([-0.0, 2.0, 5e-324]),
              st.text(max_size=8),
              st.lists(st.integers(-2**31 - 1, 2**31), min_size=1,
                       max_size=3),
              st.tuples(st.integers(), st.booleans())),
    max_size=5)
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
    # same argument order too (``-0.0 == 0.0`` and ``True == 1``).
    assert repr(tracer.spans + tracer.instants) == repr(
        [Span(*row) for row in oracle.spans + oracle.instants])
    assert tracer.open_spans == len(open_spans)
