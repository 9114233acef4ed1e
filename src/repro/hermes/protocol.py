"""A compact Hermes replication protocol (Katsarakis et al., ASPLOS '20).

Zeus's application-level load balancer stores its key→node routing table in
"a distributed, replicated key-value store based on Hermes" (Section 3.1).
Hermes is the single-object ancestor of Zeus's reliable commit: any replica
may coordinate a write by broadcasting an INV (with a logical timestamp and
the new value), collecting ACKs from all live replicas, then broadcasting a
VAL; reads are local and linearizable because an invalidated key cannot be
read until validated.

This implementation keeps Hermes's essential structure — invalidation-based
writes from any replica, per-key logical timestamps ``(version, node_id)``
for conflict resolution, local reads — over the same simulated network the
rest of the system uses.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from ..cluster.node import Node
from ..net.message import Message, NodeId
from ..sim.process import Future

__all__ = ["HermesReplica", "HermesKey"]

KIND_HINV = "hermes.inv"
KIND_HACK = "hermes.ack"
KIND_HVAL = "hermes.val"

HermesKey = Any

_VALID = 0
_INVALID = 1
_WRITE = 2


class _Entry:
    __slots__ = ("state", "ts", "value")

    def __init__(self, value: Any, ts: Tuple[int, int]):
        self.state = _VALID
        self.ts = ts
        self.value = value


class _WriteCtx:
    __slots__ = ("key", "ts", "value", "acks", "future", "span")

    def __init__(self, key: HermesKey, ts: Tuple[int, int], value: Any,
                 future: Future):
        self.key = key
        self.ts = ts
        self.value = value
        self.acks: Set[NodeId] = set()
        self.future = future
        self.span = None


class HermesReplica:
    """One replica of the Hermes-replicated KV store.

    All replicas hold all keys (the LB's routing table is small); any
    replica coordinates writes for any key.
    """

    def __init__(self, node: Node, replica_ids: Tuple[NodeId, ...],
                 value_size: int = 24):
        if node.node_id not in replica_ids:
            raise ValueError("node must be one of the replicas")
        self.node = node
        self.sim = node.sim
        self.node_id = node.node_id
        self.replica_ids = tuple(replica_ids)
        self.value_size = value_size
        self._table: Dict[HermesKey, _Entry] = {}
        self._writes: Dict[Tuple[HermesKey, Tuple[int, int]], _WriteCtx] = {}
        self.tracer = node.obs.tracer
        self.counters = node.obs.registry.group("hermes", node=node.node_id)

        node.register_handler(KIND_HINV, self._on_inv, cost=0.15,
                              span_name="hermes_inv.serve")
        node.register_handler(KIND_HACK, self._on_ack)
        node.register_handler(KIND_HVAL, self._on_val)

    # ------------------------------------------------------------------ API

    def read(self, key: HermesKey) -> Optional[Any]:
        """Local linearizable read; None while invalidated or missing."""
        entry = self._table.get(key)
        if entry is None or entry.state != _VALID:
            return None
        return entry.value

    def has(self, key: HermesKey) -> bool:
        entry = self._table.get(key)
        return entry is not None and entry.state == _VALID

    def write(self, key: HermesKey, value: Any) -> Future:
        """Coordinate a replicated write; the future completes when the
        write is validated cluster-wide (from this replica's view)."""
        entry = self._table.get(key)
        base_version = entry.ts[0] if entry is not None else 0
        ts = (base_version + 1, self.node_id)
        future = Future(self.sim)
        ctx = _WriteCtx(key, ts, value, future)
        self._writes[(key, ts)] = ctx
        self.counters.inc("writes")
        tracer = self.tracer
        if tracer is not None:
            # Each write roots a trace: the INVs carry the span's context
            # so remote apply/ack service spans link back to the write.
            ctx.span = tracer.open(self.node_id, 0,
                                   (tracer.new_trace(), None))
        self._apply_inv(key, ts, value)
        live = self.node.live_nodes or frozenset(self.replica_ids)
        peers = [r for r in self.replica_ids if r != self.node_id and r in live]
        if not peers:
            self._finish_write(ctx)
            return future
        inv_ctx = ctx.span.ctx if ctx.span is not None else None
        for peer in peers:
            self.node.send(peer, KIND_HINV, (key, ts, value, self.node_id),
                           16 + self.value_size, ctx=inv_ctx)
        return future

    # ------------------------------------------------------------ protocol

    def _apply_inv(self, key: HermesKey, ts: Tuple[int, int], value: Any) -> bool:
        entry = self._table.get(key)
        if entry is None:
            entry = _Entry(value, ts)
            entry.state = _INVALID
            self._table[key] = entry
            return True
        if ts <= entry.ts:
            return False  # stale or already seen
        entry.ts = ts
        entry.value = value
        entry.state = _INVALID
        return True

    def _on_inv(self, msg: Message) -> None:
        key, ts, value, coordinator = msg.payload
        self._apply_inv(key, ts, value)
        # Hermes acks INVs unconditionally (idempotent by timestamp).
        self.node.send(coordinator, KIND_HACK, (key, ts), 24)

    def _on_ack(self, msg: Message) -> None:
        key, ts = msg.payload
        ctx = self._writes.get((key, ts))
        if ctx is None:
            return
        ctx.acks.add(msg.src)
        live = self.node.live_nodes or frozenset(self.replica_ids)
        needed = {r for r in self.replica_ids if r != self.node_id and r in live}
        if needed <= ctx.acks:
            self._finish_write(ctx)

    def _finish_write(self, ctx: _WriteCtx) -> None:
        self._writes.pop((ctx.key, ctx.ts), None)
        self.counters.inc("validated")
        if ctx.span is not None:
            self.tracer.point("hermes_write", "hermes", True, key=str,
                              ts=tuple, acks=int)(
                ctx.span, repr(ctx.key), ctx.ts, len(ctx.acks))
            ctx.span = None
        entry = self._table.get(ctx.key)
        if entry is not None and entry.ts == ctx.ts:
            entry.state = _VALID
        live = self.node.live_nodes or frozenset(self.replica_ids)
        for peer in self.replica_ids:
            if peer != self.node_id and peer in live:
                self.node.send(peer, KIND_HVAL, (ctx.key, ctx.ts), 24)
        if not ctx.future.done():
            ctx.future.set_result(None)

    def _on_val(self, msg: Message) -> None:
        key, ts = msg.payload
        entry = self._table.get(key)
        if entry is not None and entry.ts == ts and entry.state == _INVALID:
            entry.state = _VALID

    # ---------------------------------------------------------- state xfer

    def export_snapshot(self):
        """All validated entries as ``(key, ts, value)`` triples, for
        bootstrapping a rejoining replica (Hermes §4: a reset node replays
        state from live replicas).  In-flight (invalidated) entries are
        skipped — their writes will re-reach the rejoiner via INV/VAL."""
        return [(key, entry.ts, entry.value)
                for key, entry in sorted(self._table.items(),
                                         key=lambda kv: repr(kv[0]))
                if entry.state == _VALID]

    def apply_snapshot(self, snapshot) -> int:
        """Install snapshot entries, timestamp-guarded so a stale snapshot
        can never regress a newer local value.  Returns entries applied."""
        applied = 0
        for key, ts, value in snapshot:
            entry = self._table.get(key)
            if entry is None:
                fresh = _Entry(value, tuple(ts))
                self._table[key] = fresh
                applied += 1
            elif tuple(ts) > entry.ts:
                entry.ts = tuple(ts)
                entry.value = value
                entry.state = _VALID
                applied += 1
        return applied

    def reset(self) -> None:
        """Crash wiped this replica: drop the table and in-flight writes."""
        self._table.clear()
        self._writes.clear()

    def __len__(self) -> int:
        return len(self._table)
