"""Discrete-event simulation kernel.

The kernel is a classic event-heap scheduler with a simulated clock measured
in **microseconds** (float).  Everything else in this repository — the
network, the cluster nodes, the Zeus protocols, the workloads — runs on top
of it, which is what makes a protocol-faithful reproduction of a DPDK-speed
system feasible in Python: latency and CPU costs are *model parameters*, not
wall-clock artifacts.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), and all
randomness flows through :mod:`repro.sim.rng`, so a run is a pure function
of its seed and parameters.
"""

from __future__ import annotations

from heapq import (heappop as _heappop, heappush as _heappush,
                   heapreplace as _heapreplace)
from math import inf as _INF
from sys import maxsize as _NO_BUDGET
from time import perf_counter_ns as _perf_ns
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Simulator", "EventHandle", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    ``_due`` is the time of the handle's heap entry while that entry is
    queued (None once it popped); ``_moved`` is ``(time, seq, fn, args)``
    when :meth:`Simulator.rearm` moved the event later without pushing, and
    the entry re-enters the heap under that key when it pops."""

    __slots__ = ("cancelled", "_due", "_moved")

    def __init__(self) -> None:
        self.cancelled = False
        self._due: Optional[float] = None
        self._moved = None

    def cancel(self) -> None:
        """Mark the event so the kernel skips it; O(1), lazily removed."""
        self.cancelled = True


#: One heap entry: ``(time, seq, fn, args, handle)``.  ``seq`` is unique, so
#: comparisons never reach ``fn``; ``handle`` is None for posted events.
_Entry = Tuple[float, int, Callable[..., Any], Tuple[Any, ...],
               Optional[EventHandle]]


class Simulator:
    """Event-heap simulator with a microsecond clock.

    Typical use::

        sim = Simulator()
        sim.call_after(10.0, handler, arg)
        sim.run(until=1_000_000)   # one simulated second

    Two families of scheduling calls share one heap and one tie-break
    order: ``call_at``/``call_after``/``call_soon`` return an
    :class:`EventHandle` so the event can be cancelled (timers);
    ``post_at``/``post_after``/``post_soon`` are fire-and-forget — no handle
    is allocated — for the hops nobody ever cancels (message delivery,
    handler dispatch, process resumption).  ``rearm(handle, delay, fn,
    *args)`` is ``handle.cancel()`` followed by ``call_after`` for a timer
    that is pushed back on every hop: same sequence number, same order,
    but usually no new heap entry (see :meth:`rearm`).
    """

    def __init__(self) -> None:
        #: Current simulated time in microseconds.  Read-only for everyone
        #: but the run loop (a plain attribute: it is read on every hot path).
        self.now: float = 0.0
        self._heap: List[_Entry] = []
        self._seq: int = 0
        self._events_executed: int = 0
        self._cancelled_skipped: int = 0
        self._stats_hook: Optional[Callable[[dict], None]] = None
        self._stats_every: int = 0
        self._stats_countdown: int = 0
        #: Host profiler (``repro.obs.profile.HostProfiler``) or None.
        #: When None the run loop takes the untimed path — a run without
        #: profiling pays nothing per event beyond one ``is not None``.
        self._profiler = None

    # ------------------------------------------------------------------ time

    @property
    def events_executed(self) -> int:
        """Total events fired so far (useful for budget checks in tests)."""
        return self._events_executed

    @property
    def cancelled_skipped(self) -> int:
        """Events popped from the heap but skipped because cancelled.  An
        entry that :meth:`rearm` moved is neither fired nor cancelled when
        it pops: it goes back in under its new key, uncounted."""
        return self._cancelled_skipped

    # ------------------------------------------------------------ statistics

    def stats(self) -> dict:
        """Event-loop statistics: clock, events fired, heap backlog.

        ``pending_events`` counts the entries in the heap now: a moved
        timer is one entry, a cancelled one stays until it pops."""
        return {
            "now_us": self.now,
            "events_executed": self._events_executed,
            "pending_events": len(self._heap),
        }

    def set_stats_hook(self, fn: Optional[Callable[[dict], None]],
                       every_events: int = 10_000) -> None:
        """Invoke ``fn(self.stats())`` every ``every_events`` executed events.

        The observability layer uses this to refresh event-loop gauges.
        The hook must not schedule simulator events (it runs between
        events, and determinism depends on it staying passive); pass
        ``None`` to uninstall.  Call this between runs, not from an event:
        the run loop reads the hook once per batch of events up to its
        next firing.
        """
        if fn is not None and every_events <= 0:
            raise SimulationError(f"bad stats interval {every_events}")
        self._stats_hook = fn
        self._stats_every = every_events if fn is not None else 0
        self._stats_countdown = self._stats_every

    def set_profiler(self, profiler) -> None:
        """Install (or remove, with ``None``) a host profiler.

        The profiler times every event callback in wall-clock nanoseconds
        and classifies it by subsystem; it observes the host only, never
        the simulation, so scheduling and outcomes are unaffected.
        """
        self._profiler = profiler

    @property
    def heap_pushes(self) -> int:
        """Total events ever scheduled (= sequence counter).  Every
        ``call_*``/``post_*``/``rearm`` issues one, whether or not it pushed
        a heap entry."""
        return self._seq

    # ------------------------------------------------------------- scheduling

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        handle = EventHandle()
        handle._due = time
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (time, seq, fn, args, handle))
        return handle

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        handle = EventHandle()
        handle._due = time
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (time, seq, fn, args, handle))
        return handle

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current time (after pending events)."""
        time = self.now
        handle = EventHandle()
        handle._due = time
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (time, seq, fn, args, handle))
        return handle

    def rearm(self, handle: EventHandle, delay: float,
              fn: Callable[..., Any], *args: Any) -> EventHandle:
        """``handle.cancel(); return self.call_after(delay, fn, *args)``,
        without the dead entry.

        The sequence number is issued here, exactly as ``call_after`` would
        issue it, so the event fires at the same ``(time, seq)`` and
        :attr:`heap_pushes` counts it.  While the handle's entry is queued
        and due no later than the new time, nothing is pushed: the new key
        is recorded on the handle, and when the old entry pops it goes back
        in under that key — before anything with a larger key can pop, so
        the order is the one ``call_after`` gives.  A cancelled entry that
        is still queued is revived that way.  A new time earlier than the
        queued entry gets a fresh entry (and a fresh handle) and the old
        one is retired as cancelled.

        ``handle`` is consumed: keep the returned handle (often the same
        object) and use it for any later ``cancel`` or ``rearm``.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        self._seq = seq = self._seq + 1
        due = handle._due
        if due is None:  # its entry popped: reuse the handle for a new one
            handle.cancelled = False
            handle._moved = None
        elif due <= time:
            handle.cancelled = False
            handle._moved = (time, seq, fn, args)
            return handle
        else:
            handle.cancelled = True
            handle = EventHandle()
        handle._due = time
        _heappush(self._heap, (time, seq, fn, args, handle))
        return handle

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`call_at` without a handle: the event cannot be cancelled."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (time, seq, fn, args, None))

    def post_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`call_after` without a handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (self.now + delay, seq, fn, args, None))

    def post_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`call_soon` without a handle."""
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (self.now, seq, fn, args, None))

    # -------------------------------------------------------------- execution

    def _dispatch(self, until: float, budget: int) -> int:
        """Fire events in ``(time, scheduling order)`` while the next one is
        due by ``until`` and fewer than ``budget`` have fired; returns how
        many fired.  The one dispatch body behind :meth:`run` and
        :meth:`step`."""
        heap = self._heap
        prof = self._profiler
        fired = 0
        while True:
            # The stats hook fires after every `_stats_every`-th executed
            # event, counted across calls: fire the events up to the next
            # firing as one batch, so the per-event loop never looks at it.
            hook = self._stats_hook
            stop = budget
            if hook is not None and fired + self._stats_countdown < budget:
                stop = fired + self._stats_countdown
            start = fired
            while heap and fired < stop:
                if heap[0][0] > until:
                    break
                time, _seq, fn, args, handle = _heappop(heap)
                if handle is not None:
                    if handle.cancelled:
                        handle._due = None
                        self._cancelled_skipped += 1
                        continue
                    moved = handle._moved
                    if moved is not None:
                        # Re-armed while queued: back in under the key
                        # rearm() issued.  Neither fired nor cancelled;
                        # `now` stays.
                        handle._moved = None
                        handle._due = moved[0]
                        _heappush(heap, moved + (handle,))
                        continue
                    handle._due = None
                self.now = time
                self._events_executed += 1
                fired += 1
                if prof is None:
                    fn(*args)
                else:
                    t0 = _perf_ns()
                    fn(*args)
                    prof.event(fn, _perf_ns() - t0)
            if hook is None:
                return fired
            self._stats_countdown -= fired - start
            if self._stats_countdown > 0:
                return fired
            self._stats_countdown = self._stats_every
            hook(self.stats())

    def step(self) -> bool:
        """Execute the next event.  Returns False when the heap is empty."""
        return self._dispatch(_INF, 1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so rate computations based on
        ``sim.now`` are exact.
        """
        budget = _NO_BUDGET if max_events is None else max_events
        if until is None:
            self._dispatch(_INF, budget)
        elif self._dispatch(until, budget) < budget and self.now < until:
            self.now = until

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next non-cancelled event, or None.  Cancelled
        heads are discarded and moved ones re-queued, as :meth:`run` would."""
        heap = self._heap
        while heap:
            time, _seq, _fn, _args, handle = heap[0]
            if handle is None:
                return time
            if handle.cancelled:
                handle._due = None
                _heappop(heap)
            elif handle._moved is not None:
                moved = handle._moved
                handle._moved = None
                handle._due = moved[0]
                _heapreplace(heap, moved + (handle,))
            else:
                return time
        return None
