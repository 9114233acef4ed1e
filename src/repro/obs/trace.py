"""Structured tracing in simulated time.

A :class:`Tracer` records **spans** (named intervals with a start and end)
and **instants** (point events), both stamped exclusively with the
simulator clock — never wall time — so a trace is a pure function of seed
and parameters and two runs with the same seed produce byte-identical
output.

Track layout (mapped to Chrome trace-event pid/tid):

* ``pid``   — the node id;
* ``tid``   — the application thread for ``txn`` / ``execute`` /
  ``own_acquire`` spans, :data:`TID_SVC` for datastore-worker service
  spans, :data:`TID_REPLICATION`\\ ``+ thread`` for the pipelined
  ``commit_replicate`` spans (they outlive their transaction, so they get
  their own track), and :data:`TID_NET` for wire-level events.

Causal linkage: every span carries a ``span_id`` (unique, monotonically
assigned) and optionally a ``trace_id``/``parent_id`` pair — the *trace
context*.  A context is a plain ``(trace_id, span_id)`` tuple; passing one
as ``ctx=`` to :meth:`Tracer.begin` links the new span under that parent,
across nodes.  Protocol messages carry the sender's context so spans on
remote nodes join the originating transaction's trace (see
``repro.net.message.Message`` and ``repro.obs.analysis`` for the
consumers).  Wire messages additionally get a ``flow`` id (one per
message) so the exporter can pair ``net.send``/``net.deliver`` instants
into Chrome flow arrows and the analyzer can measure wire time and
retransmit stalls.

Storage: a finished span or an instant is one packed :data:`_ROW` plus its
argument values in one flat list — no per-record object for the collector
to walk (DESIGN.md §5, "Anatomy of a trace record"); a :class:`Span` exists
only as an open span's handle and in views rebuilt on demand.

An absent tracer is ``None`` (``Observability().tracer``): call sites
fetch it into a local and guard with ``if tracer is not None:``, so an
untraced run pays one identity test per site — no allocations, no
simulator events (DESIGN.md §5, "Absent means None").
"""

from __future__ import annotations

from struct import Struct
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["Span", "Tracer", "TraceCtx",
           "TID_REPLICATION", "TID_NET", "TID_SVC"]

#: tid for datastore-worker-pool service spans (message handling).
TID_SVC = 500
#: tid base for reliable-commit pipeline spans (one track per app thread).
TID_REPLICATION = 1000
#: tid for wire-level network events.
TID_NET = 9999

#: A trace context: ``(trace_id, parent_span_id)``.  ``parent_span_id``
#: may be None for a trace root.
TraceCtx = Tuple[int, Optional[int]]

#: One record: emit point, pid, tid, trace / span / parent id (-1 = None),
#: start and end in simulated microseconds.  40 bytes, no padding.
_ROW = Struct("<iiiiiidd")
_UNBOUND = ("tracer used before sim bound: pass the Simulator to "
            "Tracer(sim) or set tracer.sim before recording (the "
            "cluster builder binds it automatically)")
_new = tuple.__new__


class Span(NamedTuple):
    """One named interval (or instant, when ``end_us == start_us``)."""

    name: str
    cat: str
    pid: int
    tid: int
    start_us: float
    #: None on the handle :meth:`Tracer.begin` returns, until it is ended.
    end_us: Optional[float]
    args: Optional[Dict[str, Any]]
    #: Trace this span belongs to (None = untraced/standalone).
    trace_id: Optional[int]
    #: Unique id of this span within its tracer.
    span_id: int
    #: span_id of the causal parent (possibly on another node).
    parent_id: Optional[int]

    @property
    def duration_us(self) -> float:
        return (self.end_us or self.start_us) - self.start_us

    @property
    def ctx(self) -> Optional[TraceCtx]:
        """This span as a trace context for children/messages."""
        return None if self.trace_id is None else (self.trace_id, self.span_id)


class Tracer:
    """Records spans and instant events against a simulator clock.

    ``sim`` may be bound after construction (the cluster builder owns the
    simulator); recording before binding raises a clear error.
    """

    __slots__ = ("sim", "_rows", "_values", "_points", "_views",
                 "_next_span", "_next_trace", "_next_flow")

    def __init__(self, sim=None):
        self.sim = sim
        #: Packed :data:`_ROW` records — finished spans in completion order
        #: interleaved with instants in emission order (deterministic).
        self._rows = bytearray()
        #: Every row's argument values, end to end in row order; a row owns
        #: as many as its emit point has argument names.
        self._values: List[Any] = []
        #: Interned emit points ``(is_span, name, cat, *arg names)`` -> index.
        self._points: Dict[tuple, int] = {}
        #: ``is_span -> (len(_rows) when built, materialised records)``.
        self._views: Dict[bool, Tuple[int, List[Span]]] = {}
        self._next_span = 0
        self._next_trace = 0
        self._next_flow = 0

    # -------------------------------------------------------------- contexts

    def new_trace(self) -> int:
        """Allocate a fresh trace id (one per logical transaction)."""
        self._next_trace += 1
        return self._next_trace

    def next_flow(self) -> int:
        """Allocate a fresh flow id (one per traced wire message)."""
        self._next_flow += 1
        return self._next_flow

    # ------------------------------------------------------------ recording

    def begin(self, name: str, pid: int, tid: int = 0, cat: str = "span",
              ctx: Optional[TraceCtx] = None, **args: Any) -> Span:
        """Open a span at the current simulated time.

        ``ctx`` links the span into an existing trace as a child of the
        given parent span (which may live on another node).  The handle
        returned is all there is of the span until :meth:`end` records it.
        """
        try:
            now = self.sim.now
        except AttributeError:
            raise RuntimeError(_UNBOUND) from None
        self._next_span = span_id = self._next_span + 1
        trace_id, parent_id = ctx if ctx is not None else (None, None)
        return _new(Span, (name, cat, pid, tid, now, None, args or None,
                           trace_id, span_id, parent_id))

    def end(self, span: Span, **args: Any) -> None:
        """Close ``span`` now and record it."""
        (name, cat, pid, tid, start, _end, merged, trace_id, span_id,
         parent_id) = span
        if merged is None:
            merged = args
        elif args:
            merged.update(args)
        points = self._points
        self._rows += _ROW.pack(points.setdefault((True, name, cat, *merged),
                                                  len(points)), pid, tid,
                                -1 if trace_id is None else trace_id, span_id,
                                -1 if parent_id is None else parent_id,
                                start, self.sim.now)
        if merged:
            self._values.extend(merged.values())

    def instant(self, name: str, pid: int, tid: int = TID_NET,
                cat: str = "event", ctx: Optional[TraceCtx] = None,
                **args: Any) -> None:
        """Record a point event at the current simulated time."""
        try:
            now = self.sim.now
        except AttributeError:
            raise RuntimeError(_UNBOUND) from None
        self._next_span = span_id = self._next_span + 1
        trace_id, parent_id = ctx if ctx is not None else (None, None)
        points = self._points
        self._rows += _ROW.pack(points.setdefault((False, name, cat, *args),
                                                  len(points)), pid, tid,
                                -1 if trace_id is None else trace_id, span_id,
                                -1 if parent_id is None else parent_id,
                                now, now)
        if args:
            self._values.extend(args.values())

    # -------------------------------------------------------------- queries

    def rows(self, spans: bool) -> Iterator[Span]:
        """The finished spans (``spans=True``, completion order) or the
        instants (emission order), each rebuilt from its row."""
        points = [(key[0], key[1], key[2], key[3:]) for key in self._points]
        values, at = self._values, 0
        for (point, pid, tid, trace_id, span_id, parent_id, start,
             end) in _ROW.iter_unpack(self._rows):
            is_span, name, cat, keys = points[point]
            upto = at + len(keys)
            if is_span is spans:
                yield _new(Span, (
                    name, cat, pid, tid, start, end,
                    dict(zip(keys, values[at:upto])) if keys else None,
                    None if trace_id < 0 else trace_id, span_id,
                    None if parent_id < 0 else parent_id))
            at = upto

    def _view(self, spans: bool) -> List[Span]:
        view = self._views.get(spans)
        if view is None or view[0] != len(self._rows):
            view = self._views[spans] = (len(self._rows),
                                         list(self.rows(spans)))
        return view[1]

    #: Finished spans in completion order / instants in emission order:
    #: snapshots, built on first use and again only after a new record.
    spans = property(lambda self: self._view(True))
    instants = property(lambda self: self._view(False))

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def durations_by_name(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for span in self.rows(True):
            out.setdefault(span.name, []).append(span.duration_us)
        return out
