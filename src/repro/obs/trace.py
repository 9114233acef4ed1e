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
to :meth:`Tracer.open` links the new span under that parent,
across nodes.  Protocol messages carry the sender's context so spans on
remote nodes join the originating transaction's trace (see
``repro.net.message.Message`` and ``repro.obs.analysis`` for the
consumers).  Wire messages additionally get a ``flow`` id (one per
message) so the exporter can pair ``net.send``/``net.deliver`` instants
into Chrome flow arrows and the analyzer can measure wire time and
retransmit stalls.

Storage: a record is its emit point's struct — a fixed header and the
arguments packed inline in one ``bytearray``, no Python object per record or
argument (DESIGN.md §5, "Anatomy of a trace record"); a :class:`Span` exists
only as an open span's handle and in views rebuilt on demand.  Every record
comes from a declared emit point: a call site declares its point
(:meth:`Tracer.point`: name, category, span or instant, each argument with
its type) and calls the writer positionally; a span's arguments are all
written when it closes.  The declared column is the record's type — no value
is typed at record time.  ``begin`` / ``end`` remain only as an
argument-free span pair.

An absent tracer is ``None`` (``Observability().tracer``): call sites
fetch it into a local and guard with ``if tracer is not None:``, so an
untraced run pays one identity test per site — no allocations, no
simulator events (DESIGN.md §5, "Absent means None").
"""

from __future__ import annotations

from functools import lru_cache
from struct import Struct
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple)

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

#: A record: emit point, pid, tid, trace / span / parent id (-1 = None), start
#: in simulated microseconds (30 bytes), a span's end, the point's arguments.
_HEADER = "<H5id"
#: Argument type -> (struct code, what its writer packs).  Points are declared
#: over ``int`` (32-bit), ``float``, ``bool``, ``str`` (an interned symbol or
#: None), ``tuple`` (two ints, read back as a list) and ``object`` (kept by
#: reference in the symbol table: a variable-length list of node ids).
_CODECS = {int: ("i", "{0}"), float: ("d", "{0}"), bool: ("?", "{0}"),
           tuple: ("ii", "*{0}"), object: ("I", "sym({0})"),
           str: ("I", "ids[{0}] if {0} in ids else sym({0})")}
#: The two writers.  An instant takes its span id and the clock itself; a
#: span closes the handle :meth:`Tracer.open` returned.
_WRITERS = {False: """def emit(pid, tid, ctx{params}):
    now = tracer.sim.now
    trace_id, parent_id = ctx if ctx is not None else (-1, -1)
    tracer._next_span = span_id = tracer._next_span + 1
    extend(pack(point, pid, tid, -1 if trace_id is None else trace_id,
                span_id, -1 if parent_id is None else parent_id, now{values}))
""", True: """def emit(span{params}):
    (_name, _cat, pid, tid, start, _end, _args, trace_id, span_id,
     parent_id) = span
    extend(pack(point, pid, tid, -1 if trace_id is None else trace_id,
                span_id, -1 if parent_id is None else parent_id, start,
                tracer.sim.now{values}))
"""}
_UNBOUND = ("tracer used before sim bound: pass the Simulator to "
            "Tracer(sim) or set tracer.sim before recording (the "
            "cluster builder binds it automatically)")
_new = tuple.__new__


@lru_cache(maxsize=None)
def _writer_code(span: bool, types: tuple):
    """The writer for one shape of record, compiled once per process (the
    29 service spans of a cluster share a shape)."""
    return compile(_WRITERS[span].format(
        params="".join(f", a{i}" for i in range(len(types))),
        values="".join(", " + _CODECS[kind][1].format(f"a{i}")
                       for i, kind in enumerate(types))), "<emit point>", "exec")


class Span(NamedTuple):
    """One named interval (or instant, when ``end_us == start_us``)."""

    #: Like ``cat``, None on the handle of :meth:`Tracer.open`.
    name: Optional[str]
    cat: Optional[str]
    pid: int
    tid: int
    start_us: float
    #: None on an open span's handle, until it is ended.
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
    simulator); declaring an emit point before binding raises a clear
    error.
    """

    __slots__ = ("sim", "_rows", "_points", "_writers",
                 "_symbols", "_symbol_ids", "_views", "_next_span",
                 "_next_trace", "_next_flow")

    def __init__(self, sim=None):
        self.sim = sim
        #: The records — finished spans in completion order interleaved
        #: with instants in emission order (deterministic).
        self._rows = bytearray()
        #: Emit point id (declaration order) -> ``(is_span, name, cat, arg
        #: names, arg types, row struct)``.
        self._points: List[tuple] = []
        #: ``(is_span, name, cat, *arg names, *arg types)`` -> its writer.
        self._writers: Dict[tuple, Callable] = {}
        #: Symbol index -> value: strings and None interned in first-seen
        #: order, anything else one entry per occurrence.
        self._symbols: List[Any] = []
        self._symbol_ids: Dict[Optional[str], int] = {}
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

    # ---------------------------------------------------------- emit points

    def point(self, name: str, cat: str, span: bool, /,
              **schema: Any) -> Callable[..., None]:
        """The writer of one emit point, declared on first use: ``schema``
        is its arguments in order, each with its type (:data:`_CODECS`).  An
        instant's writer is called ``(pid, tid, ctx, *arguments)``, a span's
        ``(handle of open(), *arguments)``; either appends one record.
        Declaring a point before ``sim`` is bound raises."""
        key = (span, name, cat, *schema, *schema.values())
        emit = self._writers.get(key)
        if emit is None:
            if self.sim is None:
                raise RuntimeError(_UNBOUND)
            types = tuple(schema.values())
            row = Struct(_HEADER + "d" * span
                         + "".join(_CODECS[kind][0] for kind in types))
            scope = {"tracer": self, "point": len(self._points),
                     "extend": self._rows.extend, "pack": row.pack,
                     "ids": self._symbol_ids, "sym": self._symbol}
            exec(_writer_code(span, types), scope)
            emit = self._writers[key] = scope["emit"]
            self._points.append((span, name, cat, tuple(schema), types, row))
        return emit

    def _symbol(self, value: Any) -> int:
        index = len(self._symbols)
        self._symbols.append(value)
        if value.__class__ is str or value is None:
            self._symbol_ids[value] = index
        return index

    # ------------------------------------------------------------ recording

    def open(self, pid: int, tid: int = 0,
             ctx: Optional[TraceCtx] = None) -> Span:
        """Open a span now: the handle a span point's writer names, fills
        in and closes — until then it is all there is of the span.  ``ctx``
        links it into a trace as a child of that span (which may live on
        another node)."""
        self._next_span = span_id = self._next_span + 1
        trace_id, parent_id = ctx if ctx is not None else (None, None)
        return _new(Span, (None, None, pid, tid, self.sim.now, None, None,
                           trace_id, span_id, parent_id))

    def begin(self, name: str, pid: int, tid: int = 0, cat: str = "span",
              ctx: Optional[TraceCtx] = None) -> Span:
        """:meth:`open` a span that :meth:`end` closes as a point of its
        own, with no arguments."""
        self._next_span = span_id = self._next_span + 1
        trace_id, parent_id = ctx if ctx is not None else (None, None)
        return _new(Span, (name, cat, pid, tid, self.sim.now, None, None,
                           trace_id, span_id, parent_id))

    def end(self, span: Span) -> None:
        """Close a :meth:`begin` span now and record it."""
        (self._writers.get((True, span[0], span[1]))
         or self.point(span[0], span[1], True))(span)

    # -------------------------------------------------------------- queries

    def _walk(self) -> Iterator[Tuple[int, tuple]]:
        """Every record's offset and emit point, in the order written."""
        rows, points, at = self._rows, self._points, 0
        while at < len(rows):
            point = points[rows[at] | rows[at + 1] << 8]
            yield at, point
            at += point[-1].size

    def rows(self, spans: bool) -> Iterator[Span]:
        """The finished spans (``spans=True``, completion order) or the
        instants (emission order), each rebuilt from its row."""
        symbols = self._symbols
        for at, (is_span, name, cat, keys, types, row) in self._walk():
            if is_span is not spans:
                continue
            (_point, pid, tid, trace_id, span_id, parent_id, start,
             *values) = row.unpack_from(self._rows, at)
            values.reverse()
            end = values.pop() if is_span else start
            args = {} if keys else None
            for key, kind in zip(keys, types):
                value = values.pop()
                if kind is str or kind is object:
                    value = symbols[value]
                elif kind is tuple:
                    value = [value, values.pop()]
                args[key] = value
            yield _new(Span, (name, cat, pid, tid, start, end, args,
                              None if trace_id < 0 else trace_id, span_id,
                              None if parent_id < 0 else parent_id))

    @property
    def open_spans(self) -> int:
        """Spans begun and not (yet) ended — ids issued minus records
        written: they are in no row and reach no export."""
        return self._next_span - sum(1 for _ in self._walk())

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
