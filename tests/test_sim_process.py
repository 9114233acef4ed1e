"""Processes, futures, events: the cooperative-concurrency layer."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.process import Event, Future, Process, all_of


def test_process_sleeps_for_yielded_duration():
    sim = Simulator()
    seen = []

    def proc():
        yield 10.0
        seen.append(sim.now)
        yield 5.0
        seen.append(sim.now)

    Process(sim, proc())
    sim.run()
    assert seen == [10.0, 15.0]


def test_process_result_is_return_value():
    sim = Simulator()

    def proc():
        yield 1.0
        return 42

    p = Process(sim, proc())
    sim.run()
    assert p.done() and p.result() == 42


def test_process_awaits_future():
    sim = Simulator()
    fut = Future(sim)
    seen = []

    def proc():
        value = yield fut
        seen.append((sim.now, value))

    Process(sim, proc())
    sim.call_after(20.0, fut.set_result, "hello")
    sim.run()
    assert seen == [(20.0, "hello")]


def test_process_awaits_another_process():
    sim = Simulator()

    def child():
        yield 5.0
        return "child-done"

    def parent():
        result = yield Process(sim, child())
        return result

    p = Process(sim, parent())
    sim.run()
    assert p.result() == "child-done"


def test_yield_from_subgenerator_composes():
    sim = Simulator()

    def helper():
        yield 3.0
        return 7

    def proc():
        value = yield from helper()
        return value * 2

    p = Process(sim, proc())
    sim.run()
    assert p.result() == 14


def test_yield_from_completed_future():
    sim = Simulator()
    fut = Future(sim)
    fut.set_result(9)

    def proc():
        value = yield from fut
        return value

    p = Process(sim, proc())
    sim.run()
    assert p.result() == 9


def test_future_exception_raises_in_process():
    sim = Simulator()
    fut = Future(sim)
    seen = []

    def proc():
        try:
            yield fut
        except RuntimeError as err:
            seen.append(str(err))

    Process(sim, proc())
    sim.call_after(1.0, fut.set_exception, RuntimeError("bad"))
    sim.run()
    assert seen == ["bad"]


def test_unobserved_process_exception_fails_fast():
    sim = Simulator()

    def proc():
        yield 1.0
        raise ValueError("lost worker")

    Process(sim, proc())
    with pytest.raises(ValueError):
        sim.run()


def test_observed_process_exception_is_delivered_not_raised():
    sim = Simulator()

    def child():
        yield 1.0
        raise ValueError("delivered")

    caught = []

    def parent():
        try:
            yield Process(sim, child())
        except ValueError as err:
            caught.append(str(err))

    Process(sim, parent())
    sim.run()
    assert caught == ["delivered"]


def test_process_kill_stops_execution():
    sim = Simulator()
    seen = []

    def proc():
        yield 10.0
        seen.append("should not happen")

    p = Process(sim, proc())
    sim.call_after(5.0, p.kill)
    sim.run()
    assert seen == []
    assert p.done()


def test_future_double_completion_rejected():
    sim = Simulator()
    fut = Future(sim)
    fut.set_result(1)
    with pytest.raises(RuntimeError):
        fut.set_result(2)


def test_future_result_before_done_raises():
    sim = Simulator()
    with pytest.raises(RuntimeError):
        Future(sim).result()


def test_future_callback_after_done_still_fires():
    sim = Simulator()
    fut = Future(sim)
    fut.set_result("x")
    seen = []
    fut.add_done_callback(lambda f: seen.append(f.result()))
    sim.run()
    assert seen == ["x"]


def test_all_of_collects_results_in_order():
    sim = Simulator()
    futs = [Future(sim) for _ in range(3)]
    combined = all_of(sim, futs)
    sim.call_after(3.0, futs[2].set_result, "c")
    sim.call_after(1.0, futs[0].set_result, "a")
    sim.call_after(2.0, futs[1].set_result, "b")
    sim.run()
    assert combined.result() == ["a", "b", "c"]


def test_all_of_empty_completes_immediately():
    sim = Simulator()
    combined = all_of(sim, [])
    assert combined.done() and combined.result() == []


def test_all_of_propagates_exception():
    sim = Simulator()
    futs = [Future(sim), Future(sim)]
    combined = all_of(sim, futs)
    sim.call_after(1.0, futs[0].set_exception, RuntimeError("x"))
    sim.run()
    assert isinstance(combined.exception(), RuntimeError)


def test_event_wakes_all_waiters():
    sim = Simulator()
    event = Event(sim)
    seen = []

    def waiter(tag):
        yield event.wait()
        seen.append((tag, sim.now))

    Process(sim, waiter("a"))
    Process(sim, waiter("b"))
    sim.call_after(10.0, event.set)
    sim.run()
    assert sorted(seen) == [("a", 10.0), ("b", 10.0)]


def test_event_already_set_does_not_block():
    sim = Simulator()
    event = Event(sim)
    event.set()
    seen = []

    def waiter():
        yield event.wait()
        seen.append(sim.now)

    Process(sim, waiter())
    sim.run()
    assert seen == [0.0]


def test_event_clear_reblocks():
    sim = Simulator()
    event = Event(sim)
    event.set()
    event.clear()
    assert not event.is_set()


def test_invalid_yield_type_errors():
    sim = Simulator()

    def proc():
        yield "nonsense"

    Process(sim, proc())
    with pytest.raises(TypeError):
        sim.run()


# ------------------------------------------------- bad sleeps (negative, NaN)

BAD_SLEEPS = [-1.0, -3, float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", BAD_SLEEPS, ids=repr)
def test_bad_sleep_raises_inside_the_generator(bad):
    sim = Simulator()
    seen = []

    def proc():
        yield 2.0
        try:
            yield bad
        except ValueError as err:
            seen.append((sim.now, str(err)))
        yield 3.0
        return sim.now

    p = Process(sim, proc(), name="sleeper")
    sim.run()
    # Caught where it was made, at the time it was made; the process goes on.
    assert p.result() == 5.0
    assert len(seen) == 1 and seen[0][0] == 2.0
    assert "sleeper" in seen[0][1] and repr(float(bad)) in seen[0][1]


@pytest.mark.parametrize("bad", BAD_SLEEPS, ids=repr)
def test_uncaught_bad_sleep_fails_the_process_and_reaches_its_awaiter(bad):
    sim = Simulator()
    ticks = []

    def child():
        yield 1.0
        yield bad

    def parent():
        try:
            yield Process(sim, child())
        except ValueError:
            return ("child failed", sim.now)

    def bystander():
        for _ in range(4):
            yield 1.0
            ticks.append(sim.now)

    awaiting = Process(sim, parent())
    Process(sim, bystander())
    sim.run()  # nothing escapes the kernel loop
    assert awaiting.result() == ("child failed", 1.0)
    assert ticks == [1.0, 2.0, 3.0, 4.0]  # other processes keep running
    assert sim.now == 4.0  # and no NaN/inf timestamp reached the heap


def test_unobserved_bad_sleep_fails_fast_like_any_process_error():
    sim = Simulator()

    def proc():
        yield -1.0

    p = Process(sim, proc())
    with pytest.raises(ValueError):
        sim.run()
    assert p.done() and isinstance(p.exception(), ValueError)
