"""Client-observable transaction history recording.

A :class:`HistoryRecorder` captures, for every transaction the workload
layer runs, the *externally visible* facts a strict-serializability
checker needs: the invocation/response window in simulated time, the
read set with the versions actually observed, the write set with the
versions installed, and the outcome.  Nothing protocol-internal is
recorded — the checker (``repro.verify.history``) must reconstruct a
serial order from exactly what a client could see, the same way Elle
checks Jepsen histories.

Outcomes
--------

``"committed"``
    The transaction responded success to its caller.
``"aborted"``
    The transaction responded failure; its writes never became visible.
``"indeterminate"``
    The coordinator crashed while the outcome was still in flight — the
    transaction had installed writes locally (Zeus's commit point) but
    replication had not been acknowledged by every live follower, or it
    never responded at all.  The checker must treat these as
    *maybe-committed*: their writes may or may not be observed by later
    readers, and neither is a violation.

Durability is tracked separately from commit: a Zeus write transaction
responds at **local commit** (the irrevocable point under no-crash
operation), while :meth:`mark_durable` flips once every live follower
acked the reliable-commit pipeline.  :meth:`on_crash` downgrades
committed-but-not-yet-durable ops on the crashed node to indeterminate.

The durability instant (:attr:`HistoryOp.durable_at`) doubles as the
write's *visibility point* for real-time ordering: under Zeus's early
commit ack (§5.2) the client hears "committed" at local commit, while
remote replicas serve the old Valid version until the in-flight R-INVs
land — by design, not by bug.  The checker therefore anchors a write's
real-time obligations at ``durable_at`` when one was recorded.

An absent recorder is ``None`` (``Observability().history``): call sites
guard with ``if hist is not None:`` — never truthiness, which
:meth:`HistoryRecorder.__len__` would make false for a recorder that has
not recorded yet.

Timestamps are passed explicitly (``now=``) rather than read from a
simulator binding, which keeps the recorder trivially usable for
hand-built histories in tests.
"""

from __future__ import annotations

from struct import Struct
from typing import Any, List, Optional, Tuple

__all__ = ["HistoryOp", "HistoryRecorder",
           "COMMITTED", "ABORTED", "INDETERMINATE"]

COMMITTED = "committed"
ABORTED = "aborted"
INDETERMINATE = "indeterminate"

#: One op: node, thread, kind and outcome (indices into the tuples below),
#: durable, persisted, invoked / responded / durable / persisted at (NaN =
#: None).  44 bytes; ``_OUTCOME`` .. ``_PERSISTED_AT`` are offsets into it.
_OP = Struct("<iiBB??dddd")
_OP_BYTES, _pack_op = _OP.size, _OP.pack
_KIND_OF = {"write": 0, "read": 1}
_KINDS = tuple(_KIND_OF)
_OUTCOMES = (None, COMMITTED, ABORTED, INDETERMINATE)
_PENDING, _COMMITTED, _ABORTED, _INDETERMINATE = range(4)
_OUTCOME, _DURABLE, _PERSISTED = 9, 10, 11
_RESPONDED_AT, _DURABLE_AT, _PERSISTED_AT = 20, 28, 36
_set_at = Struct("<d").pack_into
_NAN = float("nan")
#: One read or write: op, oid, version, at.  20 bytes: object ids and
#: versions are 32-bit ints in every catalog (anything else raises).
_ACCESS = Struct("<iiid")
_pack_access = _ACCESS.pack


class HistoryOp:
    """One recorded transaction: window, read set, write set, outcome."""

    __slots__ = ("op_id", "node", "thread", "kind", "invoked_at",
                 "responded_at", "reads", "writes", "outcome", "durable",
                 "durable_at", "persisted", "persisted_at")

    def __init__(self, op_id: int, node: int, thread: int, kind: str,
                 invoked_at: float):
        self.op_id = op_id
        self.node = node
        self.thread = thread
        self.kind = kind                  # "write" | "read"
        self.invoked_at = invoked_at
        self.responded_at: Optional[float] = None
        #: ``(oid, observed_version, observed_at)`` per read.
        self.reads: List[Tuple[Any, int, float]] = []
        #: ``(oid, installed_version, installed_at)`` per write.
        self.writes: List[Tuple[Any, int, float]] = []
        self.outcome: Optional[str] = None
        self.durable = False
        #: When replication fully acked (the write's visibility point
        #: under early commit ack); ``None`` until then.
        self.durable_at: Optional[float] = None
        #: Disk durability: flipped when the coordinator's WAL COMMIT
        #: record is fsynced.  Stays False/None when the WAL is disabled —
        #: replication-durable is then the strongest guarantee on offer
        #: (today's semantics), and a *full-cluster* power loss may lose
        #: the op even though :attr:`durable` was set.
        self.persisted = False
        self.persisted_at: Optional[float] = None

    @property
    def committed(self) -> bool:
        return self.outcome == COMMITTED

    def __repr__(self) -> str:  # pragma: no cover
        return (f"HistoryOp(#{self.op_id} n{self.node}/t{self.thread} "
                f"{self.kind} [{self.invoked_at:.1f},"
                f"{self.responded_at if self.responded_at is None else round(self.responded_at, 1)}] "
                f"r={self.reads} w={self.writes} {self.outcome})")


class HistoryRecorder:
    """One simulated run's transactions as packed rows: an op is an
    :data:`_OP` row (:meth:`begin` returns its opaque handle), a read or write
    an :data:`_ACCESS` row, and a :class:`HistoryOp` exists only in the
    snapshot :attr:`ops` rebuilds (DESIGN.md §5, "Anatomy of a trace record").
    """

    __slots__ = ("_ops", "_reads", "_writes")

    def __init__(self) -> None:
        self._ops = bytearray()
        self._reads = bytearray()
        self._writes = bytearray()

    def __bool__(self) -> bool:
        # ``perf/`` tests ``cluster.obs.history`` for truthiness; without
        # this, ``__len__`` would make an empty recorder read as absent.
        return True

    # ------------------------------------------------------------- recording

    def begin(self, node: int, thread: int, kind: str, now: float) -> int:
        rows = self._ops
        rows += _pack_op(node, thread, _KIND_OF[kind], _PENDING, False, False,
                         now, _NAN, _NAN, _NAN)
        return len(rows) // _OP_BYTES - 1

    def read(self, op: int, oid: int, version: int, now: float) -> None:
        self._reads += _pack_access(op, oid, version, now)

    def write(self, op: int, oid: int, version: int, now: float) -> None:
        self._writes += _pack_access(op, oid, version, now)

    def respond(self, op: int, committed: bool, now: float) -> None:
        base = op * _OP_BYTES
        self._ops[base + _OUTCOME] = _COMMITTED if committed else _ABORTED
        _set_at(self._ops, base + _RESPONDED_AT, now)

    def mark_durable(self, op: int, now: Optional[float] = None) -> None:
        """Replication fully acked — the op can no longer be lost."""
        base = op * _OP_BYTES
        self._ops[base + _DURABLE] = True
        _set_at(self._ops, base + _DURABLE_AT, _NAN if now is None else now)

    def mark_persisted(self, op: int, now: Optional[float] = None) -> None:
        """The op's COMMIT record reached disk — it survives power loss."""
        base = op * _OP_BYTES
        self._ops[base + _PERSISTED] = True
        _set_at(self._ops, base + _PERSISTED_AT, _NAN if now is None else now)

    # ---------------------------------------------------------------- faults

    def on_crash(self, node_id: int, now: float) -> None:
        """Downgrade this node's non-durable outcomes to indeterminate.

        Two classes become maybe-committed: ops that responded
        "committed" but whose reliable-commit pipeline had not drained
        (their writes die with the coordinator unless a follower already
        applied them), and ops still in flight (no response at all).
        Aborted and durable ops are untouched — their fate is settled.
        """
        for op, (node, _thread, _kind, outcome, durable, _persisted, _at,
                 responded_at, *_) in enumerate(_OP.iter_unpack(self._ops)):
            if (node == node_id and not durable
                    and outcome in (_PENDING, _COMMITTED)):
                self._ops[op * _OP_BYTES + _OUTCOME] = _INDETERMINATE
                if responded_at != responded_at:
                    _set_at(self._ops, op * _OP_BYTES + _RESPONDED_AT, now)

    def on_power_loss(self, now: float) -> None:
        """Full-cluster power loss: only *disk*-durable outcomes survive.

        Replication-durable ops (every live follower acked, but the WAL
        COMMIT record had not been fsynced — or there is no WAL) lose
        their memory-only copies along with everyone else's; cold-start
        replay may or may not resurrect them from a follower's durable
        tail, so they become maybe-committed.  Ops with ``persisted_at``
        set are untouched: replay guarantees them (the no-lost-durable-
        commit audit holds it to that).

        Reads get the same treatment transitively: a committed op that
        *observed* a version whose writer never persisted observed state
        the outage may have erased — if replay undoes that write, the
        version label can be reissued for a different value after the
        restart, and the old observation belongs to a discarded branch.
        Such ops become maybe-committed too.  Observations of versions no
        recorded op wrote (the pre-loaded initial state) are safe: the
        genesis snapshot persists them.
        """
        rows = list(_OP.iter_unpack(self._ops))
        written = [(rows[op][5], (oid, version)) for op, oid, version, _at
                   in _ACCESS.iter_unpack(self._writes)]
        lost_writes = ({key for persisted, key in written if not persisted}
                       - {key for persisted, key in written if persisted})
        read_lost = {op for op, oid, version, _at
                     in _ACCESS.iter_unpack(self._reads)
                     if (oid, version) in lost_writes}
        for op, (_node, _thread, kind, outcome, _durable,
                 persisted, *_) in enumerate(rows):
            base = op * _OP_BYTES
            if outcome == _PENDING:
                self._ops[base + _OUTCOME] = _INDETERMINATE
                _set_at(self._ops, base + _RESPONDED_AT, now)
            elif outcome == _COMMITTED and (
                    not persisted and _KINDS[kind] == "write"
                    or op in read_lost):
                self._ops[base + _OUTCOME] = _INDETERMINATE

    # ------------------------------------------------------------- inspection

    @property
    def ops(self) -> List[HistoryOp]:
        """The recorded ops in ``op_id`` order — a snapshot rebuilt from the
        rows on every read, so take it once."""
        ops = []
        for (node, thread, kind, outcome, durable, persisted, invoked_at,
             *times) in _OP.iter_unpack(self._ops):
            op = HistoryOp(len(ops), node, thread, _KINDS[kind], invoked_at)
            op.outcome, op.durable, op.persisted = (
                _OUTCOMES[outcome], durable, persisted)
            op.responded_at, op.durable_at, op.persisted_at = (
                None if at != at else at for at in times)
            ops.append(op)
        for op, *read in _ACCESS.iter_unpack(self._reads):
            ops[op].reads.append(tuple(read))
        for op, *write in _ACCESS.iter_unpack(self._writes):
            ops[op].writes.append(tuple(write))
        return ops

    def committed_ops(self) -> List[HistoryOp]:
        return [op for op in self.ops if op.outcome == COMMITTED]

    def __len__(self) -> int:
        return len(self._ops) // _OP_BYTES
