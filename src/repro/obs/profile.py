"""Host-side self-profiling: what does the *simulator* cost to run?

Everything else under ``obs/`` measures the simulated system in simulated
time.  This module measures the simulator itself in **wall-clock** time —
host CPU nanoseconds per subsystem and per message/handler kind, event and
heap-op counts, and peak RSS — so the benchmark of record (``perf/``,
whose ``LayerRecorder`` subclasses :class:`HostProfiler`) can attribute
every speedup or regression to the layer that caused it.

An absent profiler is ``None`` (``Observability().profiler``, and
``Simulator._profiler``): call sites guard with ``if prof is not None:``
and the kernel skips timing entirely when none is installed — an
unprofiled run costs one identity test per call site and **zero** per
simulator event.

Crucially, profiling never touches simulated state: it reads
``time.perf_counter_ns`` and accumulates host-side dicts, schedules no
events, and consumes no model RNG, so a profiled run is event-for-event
identical to an unprofiled one (asserted by ``tests/test_bench.py``).

Attribution model
-----------------

* **Per subsystem** — each executed event's callback is classified by its
  defining module (``repro.net.* → net``, ``repro.commit.* → commit``, …).
  Application-thread process steps (``repro.sim.process``) are classified
  ``app``: that is where workload/transaction generator code actually
  burns host CPU.  The gap between the profiled window's wall time and
  the sum of event callback time is the event loop's own cost — heap
  pops, cancellation checks, dispatch.
* **Per handler kind** — :class:`~repro.cluster.node.Node` times each
  protocol-message handler body and reports it under the message kind
  (``own.req``, ``rc.inv``, …); a finer-grained view *inside* the
  ``cluster`` subsystem bucket.
* **Counts** — named counters for work that matters by volume rather than
  by time at the call site: wire messages per kind, retransmit scans and
  scanned-window sizes, heap pushes/pops.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, Optional

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

__all__ = ["HostProfiler", "peak_rss_kb"]

_perf_ns = time.perf_counter_ns


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unavailable).

    Note: ``ru_maxrss`` is a process-lifetime high-water mark — it only
    ever grows across successive scenarios in one process.
    """
    if _resource is None:  # pragma: no cover - non-POSIX
        return 0
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        rss //= 1024
    return int(rss)


def _subsystem_of(module: str) -> str:
    """Map a callback's defining module to a subsystem bucket."""
    if module.startswith("repro.sim.process"):
        # Process steps execute application/workload generator code.
        return "app"
    if module.startswith("repro."):
        return module.split(".", 2)[1]
    return "other"


class HostProfiler:
    """Accumulates host-CPU attribution for one profiled window.

    The kernel calls :meth:`event` around every executed event;
    :meth:`start` / :meth:`stop` bracket the measured window (wall clock
    + peak RSS).  All state is plain dicts — safe to read at any time.
    """

    __slots__ = ("_fn_cache", "subsys_ns", "subsys_events", "handler_ns",
                 "handler_events", "message_counts", "counts",
                 "_wall_start_ns", "wall_ns", "events_profiled")

    def __init__(self) -> None:
        #: callback function object -> subsystem
        self._fn_cache: Dict[Any, str] = {}
        self.subsys_ns: Dict[str, int] = {}
        self.subsys_events: Dict[str, int] = {}
        self.handler_ns: Dict[str, int] = {}
        self.handler_events: Dict[str, int] = {}
        self.message_counts: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self._wall_start_ns: Optional[int] = None
        self.wall_ns = 0
        self.events_profiled = 0

    # ---------------------------------------------------------------- window

    def start(self) -> None:
        """Open the measured wall-clock window."""
        self._wall_start_ns = _perf_ns()

    def stop(self) -> None:
        """Close the window; accumulates into :attr:`wall_ns`."""
        if self._wall_start_ns is not None:
            self.wall_ns += _perf_ns() - self._wall_start_ns
            self._wall_start_ns = None

    # ------------------------------------------------------------- recording

    def event(self, fn: Callable[..., Any], ns: int) -> None:
        """Attribute ``ns`` host-nanoseconds to the subsystem owning ``fn``
        (called by the kernel for every executed event)."""
        key = getattr(fn, "__func__", fn)
        subsys = self._fn_cache.get(key)
        if subsys is None:
            subsys = _subsystem_of(getattr(key, "__module__", "") or "")
            self._fn_cache[key] = subsys
        self.subsys_ns[subsys] = self.subsys_ns.get(subsys, 0) + ns
        self.subsys_events[subsys] = self.subsys_events.get(subsys, 0) + 1
        self.events_profiled += 1

    def handler(self, kind: str, ns: int) -> None:
        """Attribute ``ns`` to a protocol-message handler kind."""
        self.handler_ns[kind] = self.handler_ns.get(kind, 0) + ns
        self.handler_events[kind] = self.handler_events.get(kind, 0) + 1

    def message(self, kind: str) -> None:
        """Count one wire message of ``kind`` entering the network."""
        self.message_counts[kind] = self.message_counts.get(kind, 0) + 1

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named host-side counter (heap ops, retransmit scans...)."""
        self.counts[name] = self.counts.get(name, 0) + n
