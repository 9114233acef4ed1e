"""Shared-resource models: CPU servers/pools and the disk device.

The paper's testbed pins application threads and datastore worker threads to
dedicated cores (Section 7).  We model a pinned thread as a
:class:`CpuServer` — a serial, non-preemptive queue of work items — and the
per-node datastore worker pool as a :class:`CpuPool` of such servers.
Charging a cost to a server advances its "busy until" horizon; the returned
future completes when the work would have finished on real hardware.
"""

from __future__ import annotations

import heapq
from typing import List

from .kernel import Simulator
from .process import Future

__all__ = ["CpuServer", "CpuPool", "DiskDevice"]


class CpuServer:
    """A single serial execution resource (one pinned core/thread).

    ``execute(cost)`` queues ``cost`` microseconds of work behind whatever is
    already queued and returns a future completing when it is done.
    """

    __slots__ = ("sim", "name", "_free_at", "busy_time", "speed_factor")

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self._free_at = 0.0
        self.busy_time = 0.0  # total work charged, for utilization metrics
        #: Cost multiplier (>1 = degraded core; chaos gray-failure knob).
        self.speed_factor = 1.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent busy (can exceed 1 if overloaded)."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def execute(self, cost: float) -> Future:
        """Charge ``cost`` µs of work; future completes at finish time."""
        if cost < 0:
            raise ValueError(f"negative cost {cost}")
        cost *= self.speed_factor
        start = max(self.sim.now, self._free_at)
        end = start + cost
        self._free_at = end
        self.busy_time += cost
        fut = Future(self.sim)
        self.sim.post_at(end, fut.set_result, None)
        return fut

    def charge(self, cost: float) -> float:
        """Charge work without a completion future; returns finish time.

        Used for fire-and-forget message handling where nothing waits on the
        handler but the worker's queueing delay must still accrue.
        """
        cost *= self.speed_factor
        start = max(self.sim.now, self._free_at)
        self._free_at = start + cost
        self.busy_time += cost
        return self._free_at


class CpuPool:
    """``k`` identical servers fed FIFO from a single queue.

    Models the datastore worker-thread pool of a node: an incoming protocol
    message is handled by whichever worker frees first.
    """

    __slots__ = ("sim", "name", "_free_heap", "busy_time", "size",
                 "speed_factor")

    def __init__(self, sim: Simulator, size: int, name: str = "pool"):
        if size < 1:
            raise ValueError("pool needs at least one server")
        self.sim = sim
        self.name = name
        self.size = size
        self._free_heap: List[float] = [0.0] * size
        heapq.heapify(self._free_heap)
        self.busy_time = 0.0
        #: Cost multiplier (>1 = degraded node; chaos gray-failure knob).
        self.speed_factor = 1.0

    def utilization(self, elapsed: float) -> float:
        total = elapsed * self.size
        return self.busy_time / total if total > 0 else 0.0

    def execute(self, cost: float) -> Future:
        """Charge ``cost`` to the earliest-free worker; future at finish."""
        fut = Future(self.sim)
        self.sim.post_at(self.charge(cost), fut.set_result, None)
        return fut

    def charge(self, cost: float) -> float:
        """Charge ``cost`` to the earliest-free worker without a future;
        returns the finish time."""
        if cost < 0:
            raise ValueError(f"negative cost {cost}")
        cost *= self.speed_factor
        free = self._free_heap
        now = self.sim.now
        earliest = free[0]
        end = (earliest if earliest > now else now) + cost
        # The earliest-free worker takes the job: one sift swaps its horizon
        # for the new one (the same horizons as a pop followed by a push).
        heapq.heapreplace(free, end)
        self.busy_time += cost
        return end

    def queue_delay(self) -> float:
        """How long a job arriving *now* would wait before any worker frees.

        Zero when some worker is idle; otherwise the gap until the
        earliest-free worker.  Read-only — used by tracing to split a
        handler's latency into queue wait vs. service time.
        """
        return max(0.0, self._free_heap[0] - self.sim.now)


class DiskDevice:
    """A serial storage device (one WAL stream per node).

    Same horizon model as :class:`CpuServer`: writes and flush barriers
    queue behind each other on a single ``_free_at`` timeline.  ``write``
    charges positioning plus throughput cost and returns the finish time;
    ``flush`` charges the fsync barrier and returns the time at which
    everything written so far is durable.  The device never schedules
    events itself — callers schedule completion callbacks at the returned
    times, so an idle disk costs nothing.
    """

    __slots__ = ("sim", "name", "seek_us", "write_bytes_per_us", "fsync_us",
                 "_free_at", "busy_time", "bytes_written", "speed_factor")

    def __init__(self, sim: Simulator, seek_us: float,
                 write_bytes_per_us: float, fsync_us: float,
                 name: str = "disk"):
        self.sim = sim
        self.name = name
        self.seek_us = seek_us
        self.write_bytes_per_us = write_bytes_per_us
        self.fsync_us = fsync_us
        self._free_at = 0.0
        self.busy_time = 0.0
        #: Cost multiplier (>1 = degraded device; chaos gray-failure knob).
        self.speed_factor = 1.0

    def write(self, nbytes: int) -> float:
        """Charge a sequential append of ``nbytes``; returns finish time."""
        cost = (self.seek_us + nbytes / self.write_bytes_per_us) * self.speed_factor
        start = max(self.sim.now, self._free_at)
        self._free_at = start + cost
        self.busy_time += cost
        return self._free_at

    def flush(self) -> float:
        """Charge an fsync barrier; returns the durability time."""
        cost = self.fsync_us * self.speed_factor
        start = max(self.sim.now, self._free_at)
        self._free_at = start + cost
        self.busy_time += cost
        return self._free_at

    def utilization(self, elapsed: float) -> float:
        return self.busy_time / elapsed if elapsed > 0 else 0.0
