"""Generator-based processes and futures on top of the event kernel.

A *process* is a Python generator driven by the simulator.  Yield values:

* ``float | int`` — sleep that many simulated microseconds (a negative or
  non-finite sleep raises :class:`ValueError` inside the generator);
* :class:`Future` (including another :class:`Process`) — suspend until it
  completes, receiving its result (or raising its exception);
* ``None`` — reschedule immediately (yield the scheduler).

Blocking *helpers* (e.g. "acquire ownership of object X") are written as
generators and invoked with ``yield from``, so the call stack composes the
way ordinary blocking code does — this is exactly the property Zeus exploits
to run legacy applications unchanged, and we get to model it literally.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from math import inf as _INF
from typing import Any, Callable, Generator, Iterable, List, Optional

from .kernel import Simulator

__all__ = ["Future", "Process", "Event", "all_of"]


class _Unset:
    __repr__ = lambda self: "<unset>"  # noqa: E731


_UNSET = _Unset()
#: The arguments of a plain resumption, ``_step(None, None)``.
_RESUME = (None, None)


class Future:
    """A single-assignment result container with completion callbacks."""

    __slots__ = ("sim", "_value", "_exc", "_callbacks")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._value: Any = _UNSET
        self._exc: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []

    def done(self) -> bool:
        return self._value is not _UNSET or self._exc is not None

    def result(self) -> Any:
        if self._exc is not None:
            raise self._exc
        if self._value is _UNSET:
            raise RuntimeError("future not completed")
        return self._value

    def exception(self) -> Optional[BaseException]:
        return self._exc

    def set_result(self, value: Any = None) -> None:
        if self._value is not _UNSET or self._exc is not None:
            raise RuntimeError("future already completed")
        self._value = value
        if self._callbacks:
            self._fire()

    def set_exception(self, exc: BaseException) -> None:
        if self.done():
            raise RuntimeError("future already completed")
        self._exc = exc
        self._fire()

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        if self.done():
            self.sim.post_soon(fn, self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.sim.post_soon(fn, self)

    # Allow ``yield from future`` inside process generators.
    def __iter__(self):
        if not self.done():
            yield self
            return self.result()
        return self.result()


class Process(Future):
    """A running generator; completes with the generator's return value."""

    __slots__ = ("gen", "name")

    def __init__(self, sim: Simulator, gen: Generator, name: str = "proc"):
        super().__init__(sim)
        self.gen = gen
        self.name = name
        sim.post_soon(self._step, None, None)

    def _step(self, send_value: Any, exc: Optional[BaseException]) -> None:
        if self._value is not _UNSET or self._exc is not None:
            return  # interrupted / killed
        try:
            if exc is None:
                yielded = self.gen.send(send_value)
            else:
                yielded = self.gen.throw(exc)
        except StopIteration as stop:
            self.set_result(stop.value)
            return
        except BaseException as err:
            # Deliver to whoever awaits the process; if nobody does, fail
            # fast — a silently-dead worker looks exactly like an idle one
            # and poisons every measurement downstream.
            had_observers = bool(self._callbacks)
            self.set_exception(err)
            if not had_observers:
                raise
            return
        # A float sleep — a CPU charge — is what a process yields nearly
        # every time, so it goes straight through to the kernel.
        if yielded.__class__ is not float:
            if yielded is None:
                self.sim.post_soon(self._step, None, None)
                return
            if isinstance(yielded, Future):
                yielded.add_done_callback(self._on_future)
                return
            if not isinstance(yielded, (int, float)):
                self._step(None, TypeError(
                    f"process {self.name!r} yielded {yielded!r}"))
                return
            yielded = float(yielded)
        if 0.0 <= yielded < _INF:
            # ``sim.post_after(yielded, self._step, None, None)``, inline:
            # the same sequence number and heap entry, one frame fewer.
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            _heappush(sim._heap, (sim.now + yielded, seq, self._step, _RESUME,
                                  None))
        else:
            # Negative, NaN or infinite: the process's own bug, so it is
            # raised where the process can see it, not in the kernel loop.
            self._step(None, ValueError(
                f"process {self.name!r} yielded a sleep of {yielded!r}"))

    def _on_future(self, fut: Future) -> None:
        err = fut.exception()
        if err is not None:
            self._step(None, err)
        else:
            self._step(fut.result(), None)

    def kill(self, exc: Optional[BaseException] = None) -> None:
        """Terminate the process; it never resumes.

        Used by the failure injector to crash-stop a node's threads.
        """
        if not self.done():
            self.gen.close()
            if exc is not None:
                self.set_exception(exc)
            else:
                self.set_result(None)


class Event:
    """A level-triggered condition: waiters block until :meth:`set`."""

    __slots__ = ("sim", "_set", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._set = False
        self._waiters: List[Future] = []

    def is_set(self) -> bool:
        return self._set

    def set(self) -> None:
        if self._set:
            return
        self._set = True
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            fut.set_result(None)

    def clear(self) -> None:
        self._set = False

    def wait(self) -> Future:
        fut = Future(self.sim)
        if self._set:
            fut.set_result(None)
        else:
            self._waiters.append(fut)
        return fut


def all_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """A future that completes (with a list of results) when all inputs do."""
    futures = list(futures)
    out = Future(sim)
    if not futures:
        out.set_result([])
        return out
    remaining = [len(futures)]
    results: List[Any] = [None] * len(futures)

    def make_cb(i: int):
        def cb(fut: Future) -> None:
            if out.done():
                return
            err = fut.exception()
            if err is not None:
                out.set_exception(err)
                return
            results[i] = fut.result()
            remaining[0] -= 1
            if remaining[0] == 0:
                out.set_result(results)

        return cb

    for i, fut in enumerate(futures):
        fut.add_done_callback(make_cb(i))
    return out
