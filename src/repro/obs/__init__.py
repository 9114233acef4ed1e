"""Unified observability: metrics registry, instruments, exporters.

One :class:`Observability` object (a :class:`MetricsRegistry` plus four
optional instruments) is created per simulated cluster and threaded
through the network, nodes, and protocol managers.  The registry is always
live (plain in-memory accumulators).  The instruments — ``tracer``,
``history``, ``locality``, ``profiler`` — are each the instrument or
``None``: absent means ``None``, and every recording site guards with
``is not None`` on a local.  Attach one by passing it, e.g.
``Observability(tracer=Tracer())`` — see ``python -m repro trace`` for the
end-to-end flow.
"""

from .analysis import (
    SEGMENTS,
    AnalysisReport,
    TxnTimeline,
    analyze,
    build_timelines,
    folded_stacks,
    load_jsonl,
)
from .export import (
    chrome_trace_events,
    phase_report,
    trace_records,
    write_chrome_trace,
    write_metrics,
    write_trace_jsonl,
)
from .history import HistoryOp, HistoryRecorder
from .locality import LocalityOp, LocalityRecorder, SpaceSaving
from .profile import HostProfiler, peak_rss_kb
from .registry import (
    Counter,
    CounterGroup,
    Gauge,
    LatencyRecorder,
    MetricsRegistry,
    Observability,
    ThroughputMeter,
)
from .stats import cdf_points, percentile
from .trace import TID_NET, TID_REPLICATION, TID_SVC, Span, Tracer

__all__ = [
    "Counter",
    "CounterGroup",
    "Gauge",
    "LatencyRecorder",
    "MetricsRegistry",
    "Observability",
    "ThroughputMeter",
    "HistoryOp",
    "HistoryRecorder",
    "LocalityOp",
    "LocalityRecorder",
    "SpaceSaving",
    "HostProfiler",
    "peak_rss_kb",
    "Span",
    "Tracer",
    "TID_NET",
    "TID_REPLICATION",
    "TID_SVC",
    "cdf_points",
    "percentile",
    "chrome_trace_events",
    "phase_report",
    "trace_records",
    "write_chrome_trace",
    "write_metrics",
    "write_trace_jsonl",
    "SEGMENTS",
    "AnalysisReport",
    "TxnTimeline",
    "analyze",
    "build_timelines",
    "folded_stacks",
    "load_jsonl",
]
