"""Open-loop request driving for the application experiments.

The legacy-application figures (13-15) are driven by external load
generators (a signalling generator, iperf3, an HTTP client), not by
saturating co-located clients; an :class:`OpenLoopSource` models that —
including its capacity limits, which is how the paper explains the 2-node
gateway result ("we are not able to scale beyond three nodes due to
limitations of our signal generator").
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional

from ..obs import ThroughputMeter
from ..sim.kernel import Simulator

__all__ = ["RequestQueue", "OpenLoopSource", "serve_queue"]

#: How long an idle worker thread waits before polling its queue again.
_IDLE_POLL_US = 2.0


class RequestQueue:
    """A FIFO of pending requests feeding one node's worker threads."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._queue: Deque[Any] = deque()
        self.enqueued = 0
        self.dropped = 0
        #: Requests are dropped beyond this backlog (overload behaviour).
        self.max_backlog = 10_000

    def push(self, item: Any) -> None:
        if len(self._queue) >= self.max_backlog:
            self.dropped += 1
            return
        self._queue.append(item)
        self.enqueued += 1

    def pop(self) -> Optional[Any]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class OpenLoopSource:
    """Poisson arrivals at ``rate_tps``, sprayed across target queues.

    ``make_request`` produces the payload; a deterministic RNG stream keeps
    runs reproducible.  The source has finite capacity by construction —
    whatever rate it is configured with is all it can offer.
    """

    def __init__(self, sim: Simulator, rate_tps: float,
                 queues: List[RequestQueue],
                 make_request: Callable[[random.Random], Any],
                 rng: Optional[random.Random] = None):
        self.sim = sim
        self.rate_tps = rate_tps
        self.queues = queues
        self.make_request = make_request
        self.rng = rng or random.Random(42)
        self._stopped = False

    def start(self) -> None:
        self.sim.call_soon(self._arrival)

    def stop(self) -> None:
        self._stopped = True

    def set_queues(self, queues: List[RequestQueue]) -> None:
        self.queues = queues

    def _arrival(self) -> None:
        if self._stopped or self.rate_tps <= 0:
            return
        queue = self.queues[self.rng.randrange(len(self.queues))]
        queue.push(self.make_request(self.rng))
        gap_us = self.rng.expovariate(self.rate_tps) * 1e6
        self.sim.call_after(gap_us, self._arrival)


def serve_queue(sim: Simulator, queue: RequestQueue,
                handler: Callable[[Any], Generator],
                meter: Optional[ThroughputMeter] = None,
                stop_at: Optional[float] = None) -> Generator:
    """Worker-thread loop: pop a request, run its (generator) handler.

    The handler generator models the request's CPU and blocking profile;
    when it completes the request counts as served.
    """
    while stop_at is None or sim.now < stop_at:
        item = queue.pop()
        if item is None:
            yield _IDLE_POLL_US
            continue
        yield from handler(item)
        if meter is not None:
            meter.record(sim.now)
