"""The metrics registry: named counters, gauges and histograms.

Every protocol layer registers its instruments here instead of keeping
private ``_count`` dicts, so one ``registry.snapshot()`` captures the whole
cluster's counters — ownership NACK breakdowns, commit pipeline depth,
network drops, retransmissions — in a single JSON-able structure.

Instruments are identified by ``(name, labels)``; asking twice returns the
same instrument, so wiring code never needs to thread instrument objects
around.  :class:`CounterGroup` is a dict-like *live view* over all counters
sharing a name prefix and label set; protocol managers expose it as their
``counters`` attribute, which keeps the pre-registry API (``counters.get``,
``counters["committed"]``) working unchanged.

All instruments are plain in-memory accumulators: incrementing a counter is
one attribute add, and nothing here ever schedules simulator events, so the
registry is safe to leave enabled in every run.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .stats import percentile

__all__ = [
    "Counter",
    "Gauge",
    "LatencyRecorder",
    "ThroughputMeter",
    "CounterGroup",
    "MetricsRegistry",
    "Observability",
]

Labels = Tuple[Tuple[str, object], ...]


def _labels_of(labels: Dict[str, object]) -> Labels:
    return tuple(sorted(labels.items()))


def _qualified(name: str, labels: Labels) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({_qualified(self.name, self.labels)}={self.value})"


class Gauge:
    """A point-in-time value (pipeline depth, heap size, sim clock)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Gauge({_qualified(self.name, self.labels)}={self.value})"


class LatencyRecorder:
    """Histogram of latency samples; summarizes mean/percentiles.

    (The registry's histogram instrument; the name predates the registry
    and is kept because every figure script reads it.)
    """

    __slots__ = ("name", "labels", "samples")

    _SUMMARY_KEYS = ("mean_us", "p50_us", "p99_us", "p999_us", "max_us")

    def __init__(self, name: str = "", labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.samples: List[float] = []

    def record(self, latency_us: float) -> None:
        self.samples.append(latency_us)

    def extend(self, samples: Iterable[float]) -> None:
        self.samples.extend(samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def p(self, pct: float) -> float:
        return percentile(self.samples, pct)

    def summary(self) -> Dict[str, float]:
        if not self.samples:
            # Full key set, zeroed: callers serialize summaries to JSON and
            # index them without guarding against idle nodes.
            out = {"count": 0}
            out.update({key: 0.0 for key in self._SUMMARY_KEYS})
            return out
        return {
            "count": len(self.samples),
            "mean_us": self.mean(),
            "p50_us": self.p(50),
            "p99_us": self.p(99),
            "p999_us": self.p(99.9),
            "max_us": max(self.samples),
        }


class ThroughputMeter:
    """Counts events into fixed time bins; yields a tps timeline."""

    __slots__ = ("name", "labels", "bin_us", "bins", "total",
                 "first_us", "last_us")

    def __init__(self, bin_us: float = 100_000.0, name: str = "",
                 labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.bin_us = bin_us
        self.bins: Dict[int, int] = {}
        self.total = 0
        self.first_us: Optional[float] = None
        self.last_us: Optional[float] = None

    def record(self, now_us: float, n: int = 1) -> None:
        idx = int(now_us // self.bin_us)
        self.bins[idx] = self.bins.get(idx, 0) + n
        self.total += n
        if self.first_us is None:
            self.first_us = now_us
        self.last_us = now_us

    def timeline(self) -> List[Tuple[float, float]]:
        """(bin start time in seconds, throughput in tps) pairs."""
        if not self.bins:
            return []
        out = []
        for idx in range(min(self.bins), max(self.bins) + 1):
            count = self.bins.get(idx, 0)
            tps = count / (self.bin_us / 1e6)
            out.append((idx * self.bin_us / 1e6, tps))
        return out

    def rate_tps(self, elapsed_us: float) -> float:
        """Mean throughput over ``elapsed_us`` of simulated time."""
        if elapsed_us <= 0:
            return 0.0
        return self.total / (elapsed_us / 1e6)


class CounterGroup(Mapping):
    """Dict-like live view over ``<prefix>.<key>`` counters in a registry.

    ``group.inc("committed")`` bumps the registry counter
    ``<prefix>.committed`` with the group's labels; reading
    ``group["committed"]`` / ``group.get(...)`` / ``dict(group)`` sees the
    current values, so code written against plain counter dicts keeps
    working on top of the registry.
    """

    __slots__ = ("_registry", "_prefix", "_labels", "_members")

    def __init__(self, registry: "MetricsRegistry", prefix: str,
                 labels: Labels):
        self._registry = registry
        self._prefix = prefix
        self._labels = labels
        self._members: Dict[str, Counter] = {}

    def inc(self, key: str, n: int = 1) -> None:
        counter = self._members.get(key)
        if counter is None:
            counter = self._registry.counter(f"{self._prefix}.{key}",
                                             **dict(self._labels))
            self._members[key] = counter
        counter.value += n

    # ------------------------------------------------------ Mapping protocol

    def __getitem__(self, key: str) -> int:
        return self._members[key].value

    def __iter__(self) -> Iterator[str]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def as_dict(self) -> Dict[str, int]:
        return {key: c.value for key, c in sorted(self._members.items())}

    def __repr__(self) -> str:  # pragma: no cover
        return f"CounterGroup({self._prefix}, {self.as_dict()})"


class MetricsRegistry:
    """Holds every instrument of one simulated cluster."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_groups")

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._gauges: Dict[Tuple[str, Labels], Gauge] = {}
        self._histograms: Dict[Tuple[str, Labels], LatencyRecorder] = {}
        self._groups: Dict[Tuple[str, Labels], CounterGroup] = {}

    # ---------------------------------------------------------- instruments

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _labels_of(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = Counter(name, key[1])
            self._counters[key] = inst
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _labels_of(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = Gauge(name, key[1])
            self._gauges[key] = inst
        return inst

    def histogram(self, name: str, **labels) -> LatencyRecorder:
        key = (name, _labels_of(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = LatencyRecorder(name, key[1])
            self._histograms[key] = inst
        return inst

    def group(self, prefix: str, **labels) -> CounterGroup:
        key = (prefix, _labels_of(labels))
        grp = self._groups.get(key)
        if grp is None:
            grp = CounterGroup(self, prefix, key[1])
            self._groups[key] = grp
        return grp

    # -------------------------------------------------------------- queries

    def counter_total(self, name: str) -> int:
        """Sum of one counter name across all label sets."""
        return sum(c.value for (n, _l), c in self._counters.items()
                   if n == name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able view of every instrument, deterministically ordered."""
        counters = {_qualified(n, l): c.value
                    for (n, l), c in self._counters.items()}
        gauges = {_qualified(n, l): g.value
                  for (n, l), g in self._gauges.items()}
        histograms = {_qualified(n, l): h.summary()
                      for (n, l), h in self._histograms.items()}
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }


class Observability:
    """A registry, tracer, history recorder, host profiler, and locality
    recorder for the whole stack.

    The registry is always live.  Each of the four instruments is the
    instrument or ``None`` — absent means ``None`` — so a recording site
    reads it into a local and guards with ``is not None`` (never
    truthiness: a recorder with ``__len__`` is falsy while empty).
    """

    __slots__ = ("registry", "tracer", "history", "profiler", "locality")

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer=None, history=None, profiler=None, locality=None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.history = history
        self.profiler = profiler
        self.locality = locality

    def replace(self, **instruments) -> "Observability":
        """A copy with the named instruments swapped and the rest shared —
        how a per-run recorder is layered over a campaign-wide registry,
        tracer and profiler without leaking across runs."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(instruments)
        return Observability(**fields)
