"""Simulation kernel: scheduling, ordering, cancellation, clock."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.kernel import EventHandle, SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_call_after_advances_clock():
    sim = Simulator()
    seen = []
    sim.call_after(10.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [10.0]


def test_events_fire_in_time_order():
    sim = Simulator()
    seen = []
    sim.call_after(30.0, seen.append, "c")
    sim.call_after(10.0, seen.append, "a")
    sim.call_after(20.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    seen = []
    for tag in "abcde":
        sim.call_after(5.0, seen.append, tag)
    sim.run()
    assert seen == list("abcde")


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    seen = []
    sim.call_after(7.0, lambda: sim.call_soon(lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [7.0]


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.call_after(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().call_after(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    handle = sim.call_after(10.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.call_after(10.0, seen.append, "early")
    sim.call_after(100.0, seen.append, "late")
    sim.run(until=50.0)
    assert seen == ["early"]
    assert sim.now == 50.0  # clock advanced exactly to the bound


def test_run_until_resumes_where_left_off():
    sim = Simulator()
    seen = []
    sim.call_after(10.0, seen.append, "a")
    sim.call_after(60.0, seen.append, "b")
    sim.run(until=50.0)
    sim.run(until=100.0)
    assert seen == ["a", "b"]


def test_run_max_events_budget():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.call_after(float(i + 1), seen.append, i)
    sim.run(max_events=0)
    assert seen == [] and sim.events_executed == 0 and sim.now == 0.0
    sim.run(max_events=3)
    assert seen == [0, 1, 2]
    sim.run(until=100.0, max_events=0)
    assert seen == [0, 1, 2]


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.call_after(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_step_executes_one_event():
    sim = Simulator()
    seen = []
    sim.call_after(1.0, seen.append, "a")
    sim.call_after(2.0, seen.append, "b")
    assert sim.step() is True
    assert seen == ["a"]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    h1 = sim.call_after(1.0, lambda: None)
    sim.call_after(2.0, lambda: None)
    h1.cancel()
    assert sim.peek_time() == 2.0


def test_peek_time_empty():
    assert Simulator().peek_time() is None


def test_nested_scheduling_during_run():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.call_after(5.0, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.call_after(10.0, outer)
    sim.run()
    assert seen == [("outer", 10.0), ("inner", 15.0)]


def test_exception_in_handler_propagates():
    sim = Simulator()

    def boom():
        raise ValueError("boom")

    sim.call_after(1.0, boom)
    with pytest.raises(ValueError):
        sim.run()


def test_posted_events_share_the_order_and_return_no_handle():
    sim = Simulator()
    seen = []
    assert sim.post_after(5.0, seen.append, "a") is None
    sim.call_after(5.0, seen.append, "b")
    assert sim.post_at(5.0, seen.append, "c") is None
    sim.call_at(5.0, seen.append, "d")
    sim.call_after(1.0, lambda: (sim.post_soon(seen.append, "soon"),
                                 seen.append("first")))
    sim.run()
    assert seen == ["first", "soon", "a", "b", "c", "d"]
    assert sim.heap_pushes == 6 and sim.events_executed == 6


def _pending(sim):
    return sim.stats()["pending_events"]


def test_rearm_later_moves_the_entry_in_place():
    sim = Simulator()
    seen = []
    handle = sim.call_after(5.0, seen.append, "old")
    sim.call_after(6.0, seen.append, "tie")
    again = sim.rearm(handle, 6.0, seen.append, "new")
    assert again is handle and _pending(sim) == 2 and sim.heap_pushes == 3
    assert sim.peek_time() == 6.0 and _pending(sim) == 2
    sim.run()
    # Same (time, seq) as cancel + call_after: after the tie, not before.
    assert seen == ["tie", "new"] and sim.now == 6.0
    assert sim.events_executed == 2 and sim.cancelled_skipped == 0


def test_rearm_earlier_pushes_a_fresh_entry_and_retires_the_old():
    sim = Simulator()
    seen = []
    handle = sim.call_after(400.0, seen.append, "probe")
    again = sim.rearm(handle, 40.0, seen.append, "timeout")
    assert again is not handle and handle.cancelled and _pending(sim) == 2
    sim.run()
    assert seen == ["timeout"] and sim.cancelled_skipped == 1
    assert sim.now == 40.0  # the retired entry popped without moving time


def test_rearm_revives_a_cancelled_entry_still_queued():
    sim = Simulator()
    seen = []
    handle = sim.call_after(5.0, seen.append, "first")
    handle.cancel()
    sim.run(until=2.0)
    again = sim.rearm(handle, 5.0, seen.append, "revived")
    assert again is handle and not handle.cancelled and _pending(sim) == 1
    sim.run()
    assert seen == ["revived"] and sim.now == 7.0
    assert sim.cancelled_skipped == 0 and sim.heap_pushes == 2


def test_rearm_after_the_entry_popped_schedules_afresh():
    sim = Simulator()
    seen = []
    handle = sim.call_after(1.0, seen.append, "a")
    sim.run()
    handle = sim.rearm(handle, 1.0, seen.append, "b")  # fired: reused
    skipped = sim.call_after(1.0, seen.append, "x")
    skipped.cancel()
    sim.run()
    handle = sim.rearm(skipped, 1.0, seen.append, "c")  # popped cancelled
    sim.run()
    assert seen == ["a", "b", "c"] and sim.now == 3.0
    assert sim.cancelled_skipped == 1 and _pending(sim) == 0
    # Moved, then cancelled, then popped: the move is forgotten.
    handle = sim.rearm(handle, 1.0, seen.append, "moved")
    handle = sim.rearm(handle, 2.0, seen.append, "moved again")
    handle.cancel()
    sim.run(until=4.5)
    handle = sim.rearm(handle, 1.0, seen.append, "d")
    sim.run()
    assert seen == ["a", "b", "c", "d"] and sim.now == 5.5


def test_rearm_rejects_a_negative_delay():
    sim = Simulator()
    handle = sim.call_after(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.rearm(handle, -1.0, lambda: None)


def test_posted_events_reject_the_past():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(SimulationError):
        sim.post_at(5.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_after(-1.0, lambda: None)


# Delays repeat so that ties on the timestamp are common; a re-arm draws
# from the same set, so it lands earlier than, at or after the entry it
# re-arms, and re-arms of cancelled handles are common.
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5])
_OP = st.one_of(
    st.tuples(st.sampled_from(["call_at", "post_at", "call_after",
                               "post_after"]), _DELAYS),
    st.tuples(st.sampled_from(["call_soon", "post_soon"]), st.just(0.0)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("rearm"), st.integers(0, 50), _DELAYS),
)
#: Each top-level op carries the ops its event issues when it fires, so
#: schedules, ``*_soon`` at the current time, cancels and re-arms also
#: happen mid-run.
_PROGRAM = st.lists(st.tuples(_OP, st.lists(_OP, max_size=4)), max_size=25)


@given(program=_PROGRAM, stepwise=st.booleans())
def test_any_interleaving_fires_in_time_then_scheduling_order(program,
                                                             stepwise):
    sim = Simulator()
    scheduled = []  # one record per event scheduled, in scheduling order
    handles = []    # (index into scheduled, handle) of the cancellable ones
    fired = []      # (sim.now, index into scheduled)

    def fire(index, children):
        fired.append((sim.now, index))
        scheduled[index]["fired"] = True
        for op in children:
            apply(op, ())

    def cancel(index):
        if not scheduled[index]["fired"]:
            scheduled[index]["cancelled"] = True

    def apply(op, children):
        name, arg = op[:2]
        if name == "cancel":
            if handles:
                index, handle = handles[arg % len(handles)]
                handle.cancel()
                cancel(index)
            return
        if name == "rearm":
            # The old record is cancelled and a new one scheduled, in
            # scheduling order; the returned handle replaces the old one.
            if handles:
                slot = arg % len(handles)
                index, handle = handles[slot]
                cancel(index)
                delay = op[2]
                handles[slot] = (len(scheduled), sim.rearm(
                    handle, delay, fire, len(scheduled), children))
                scheduled.append({"time": sim.now + delay, "fired": False,
                                  "cancelled": False})
            return
        index = len(scheduled)
        when = sim.now + arg
        scheduled.append({"time": when, "fired": False, "cancelled": False})
        schedule = getattr(sim, name)
        if name.endswith("_at"):
            handle = schedule(when, fire, index, children)
        elif name.endswith("_after"):
            handle = schedule(arg, fire, index, children)
        else:
            handle = schedule(fire, index, children)
        if name.startswith("call_"):
            assert isinstance(handle, EventHandle)
            handles.append((index, handle))
        else:
            assert handle is None

    for op, children in program:
        apply(op, children)

    if stepwise:
        while True:
            pending = [event["time"] for event in scheduled
                       if not (event["fired"] or event["cancelled"])]
            assert sim.peek_time() == (min(pending) if pending else None)
            if not pending:
                break
            assert sim.step() is True
        assert sim.step() is False
    else:
        sim.run()

    live = [i for i, event in enumerate(scheduled) if not event["cancelled"]]
    assert sorted(index for _now, index in fired) == live
    assert all(now == scheduled[index]["time"] for now, index in fired)
    assert fired == sorted(fired)  # (time, scheduling order)
    assert sim.events_executed == len(fired)
    assert sim.heap_pushes == len(scheduled)
    # peek_time() discards cancelled heads uncounted, and a moved entry is
    # not counted at all.
    assert sim.cancelled_skipped <= len(scheduled) - len(live)
