"""Trace and metrics exporters.

Three consumers, three formats:

* **Chrome trace-event JSON** — load in ``chrome://tracing`` or Perfetto to
  *see* where transaction time goes (spans nest per node/thread track;
  timestamps are simulated microseconds, which is exactly the unit the
  trace-event format expects).
* **JSONL** — one span/event per line for ad-hoc ``jq``/pandas analysis.
* **Phase breakdown report** — a text table of p50/p99/mean per span name,
  the "where did the microseconds go" summary the paper's figures imply.

All output is deterministically ordered (sim-time, then track, then name),
so identical seeds yield byte-identical files.

Causality: spans recorded with a trace context carry
``trace_id``/``span_id``/``parent_id``.  The Chrome export synthesizes
**flow events** (``ph:"s"``/``ph:"f"``) for every service span that was
caused by a traced wire message, so Perfetto draws an arrow from the
sending span (e.g. a coordinator ``txn``) to the remote handler span
(e.g. ``own_acquire.serve`` on the directory node).  The JSONL export
carries the raw ids for ``repro analyze``.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .registry import MetricsRegistry
from .stats import percentile
from .trace import TID_NET, TID_REPLICATION, TID_SVC, Span, Tracer

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "trace_records",
    "write_trace_jsonl",
    "phase_report",
    "write_metrics",
]


def _track_name(tid: int) -> str:
    if tid == TID_NET:
        return "net"
    if tid >= TID_REPLICATION:
        return f"replication.{tid - TID_REPLICATION}"
    if tid == TID_SVC:
        return "svc"
    return f"app.{tid}"


def _sort_key(span: Span):
    return (span.start_us, span.pid, span.tid, span.name)


def chrome_trace_events(tracer: Tracer) -> List[Dict]:
    """The ``traceEvents`` list: metadata + complete + instant events."""
    events: List[Dict] = []
    spans = sorted(tracer.rows(True), key=_sort_key)
    instants = sorted(tracer.rows(False), key=_sort_key)
    tracks = sorted({(r.pid, r.tid) for r in spans + instants})
    for pid in sorted({pid for pid, _tid in tracks}):
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name",
                       "args": {"name": f"node{pid}"}})
    for pid, tid in tracks:
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name",
                       "args": {"name": _track_name(tid)}})
    for span in spans:
        ev = {"ph": "X", "name": span.name, "cat": span.cat,
              "pid": span.pid, "tid": span.tid,
              "ts": span.start_us, "dur": span.duration_us}
        if span.args:
            ev["args"] = span.args
        events.append(ev)
    for inst in instants:
        ev = {"ph": "i", "s": "t", "name": inst.name, "cat": inst.cat,
              "pid": inst.pid, "tid": inst.tid, "ts": inst.start_us}
        if inst.args:
            ev["args"] = inst.args
        events.append(ev)
    events.extend(_flow_events(spans, instants))
    return events


def _flow_events(spans: List[Span], instants: List[Span]) -> List[Dict]:
    """Flow (``ph:"s"``/``ph:"f"``) pairs for message-caused spans.

    For every span created on delivery of a traced wire message (it has a
    ``flow`` arg and a recorded parent span), emit a flow *start* on the
    parent's track at the first wire send of that message and a binding
    flow *finish* at the handler span's start — Perfetto then draws the
    arrow across nodes.  By construction every ``s`` has its ``f``.
    Both lists arrive in export (time) order.
    """
    spans_by_id = {s.span_id: s for s in spans}
    first_send: Dict[int, float] = {}
    for inst in instants:
        if inst.name == "net.send" and inst.args:
            flow = inst.args.get("flow")
            if flow is not None:
                first_send.setdefault(flow, inst.start_us)
    events: List[Dict] = []
    for span in spans:
        if span.parent_id is None or not span.args:
            continue
        flow = span.args.get("flow")
        if flow is None:
            continue
        parent = spans_by_id.get(span.parent_id)
        if parent is None:
            continue
        # Anchor the start inside the parent slice (a handler may send
        # after its own span technically closed under clock granularity).
        ts = first_send.get(flow, parent.start_us)
        ts = min(max(ts, parent.start_us), parent.end_us)
        events.append({"ph": "s", "id": flow, "name": span.name,
                       "cat": "flow", "pid": parent.pid, "tid": parent.tid,
                       "ts": ts})
        events.append({"ph": "f", "bp": "e", "id": flow, "name": span.name,
                       "cat": "flow", "pid": span.pid, "tid": span.tid,
                       "ts": span.start_us})
    return events


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write a ``chrome://tracing``/Perfetto-loadable trace file."""
    doc = {"displayTimeUnit": "ms", "traceEvents": chrome_trace_events(tracer)}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return path


def trace_records(tracer: Tracer) -> List[Dict]:
    """The tracer's content as plain, time-ordered record dicts.

    This is the one schema shared by the JSONL export and
    :mod:`repro.obs.analysis` — a JSONL file read back line-by-line yields
    exactly these records.
    """
    records = [{"type": kind, "name": r.name, "cat": r.cat, "node": r.pid,
                "tid": r.tid, "start_us": r.start_us, "end_us": r.end_us,
                "trace": r.trace_id, "span": r.span_id,
                "parent": r.parent_id, "args": r.args or {}}
               for kind, spans in (("span", True), ("instant", False))
               for r in tracer.rows(spans)]
    records.sort(key=lambda r: (r["start_us"], r["node"], r["tid"], r["name"]))
    return records


def write_trace_jsonl(tracer: Tracer, path: str) -> str:
    """One JSON object per span/instant, time-ordered."""
    records = trace_records(tracer)
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")))
            fh.write("\n")
    return path


def phase_report(tracer: Tracer) -> str:
    """Text table: per-phase count / mean / p50 / p99 / max (µs)."""
    by_name = tracer.durations_by_name()
    if not by_name:
        return "phase breakdown: (no spans recorded)"
    header = f"{'phase':<18} {'count':>7} {'mean_us':>9} {'p50_us':>9} " \
             f"{'p99_us':>9} {'max_us':>9}"
    lines = ["phase breakdown (simulated µs)", header, "-" * len(header)]
    for name in sorted(by_name):
        durs = by_name[name]
        lines.append(
            f"{name:<18} {len(durs):>7} "
            f"{sum(durs) / len(durs):>9.2f} "
            f"{percentile(durs, 50):>9.2f} "
            f"{percentile(durs, 99):>9.2f} "
            f"{max(durs):>9.2f}"
        )
    return "\n".join(lines)


def write_metrics(registry: MetricsRegistry, path: str) -> str:
    """Dump a registry snapshot as (deterministic) JSON."""
    with open(path, "w") as fh:
        json.dump(registry.snapshot(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path
