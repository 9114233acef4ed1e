"""The reliable commit protocol (Section 5).

Coordinator side — invoked by the transaction layer right after a local
commit.  The application thread is **not** blocked: the slot enters the
thread's pipeline, the R-INV broadcast goes out, and the thread moves on
(Section 5.2's non-blocking pipelining).  A slot reliably commits when all
its followers acked *and* its pipeline predecessor committed; the
coordinator then validates locally (t_state Write→Valid iff the object's
version is unchanged) and broadcasts (batched) R-VALs.

Follower side — applies R-INVs in pipeline order under the partial-stream
rule: slot *n* may be applied only when slot *n−1* was applied here or is
known validated (prev-VAL bit or an R-VAL).  Applying updates data and
version (skipping objects whose local version is already newer — the
idempotence that recovery leans on) and leaves objects Invalid until the
R-VAL, which is what keeps read-only transactions on readers strictly
serializable (Section 5.3).

Recovery — on a membership epoch change: a live coordinator re-broadcasts
its unvalidated slots under the new epoch; a follower of a *dead*
coordinator replays every R-INV it has applied-but-not-validated (and only
those — the paper's rule) to the remaining followers, then validates with
exact-slot (non-cumulative) R-VALs.  When a node has no pending commits
from dead coordinators left, it reports recovery to the ownership layer,
which lifts the per-epoch barrier.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..cluster.node import Node
from ..net.message import Message, NodeId
from ..obs import TID_REPLICATION
from ..sim.process import Event, Future
from ..store.catalog import Catalog, ObjectId
from ..store.meta import TState
from ..store.object_store import ObjectStore
from .messages import (
    KIND_RACK,
    KIND_RINV,
    KIND_RVAL,
    PipelineId,
    RAck,
    RInv,
    RVal,
    Update,
)

__all__ = ["CommitManager"]

_VAL_FLUSH_DELAY_US = 3.0
_ACK_FLUSH_DELAY_US = 2.0


class _Slot:
    """Coordinator-side state of one pending reliable commit."""

    __slots__ = ("inv", "needed", "acked", "extras", "future", "submitted_at",
                 "span", "wal_key", "hop")

    def __init__(self, inv: RInv, submitted_at: float):
        self.inv = inv
        self.needed: Set[NodeId] = set(inv.followers)
        self.acked: Set[NodeId] = set()
        #: Followers of the *next* slot that must be included in this
        #: slot's R-VAL broadcast (partial-stream rule).
        self.extras: Set[NodeId] = set()
        self.future: Optional[Future] = None
        self.submitted_at = submitted_at
        #: Open ``commit_replicate`` tracer span (None when tracing is off).
        self.span = None
        #: WAL key of this slot's REDO record (None when the WAL is off).
        self.wal_key = None
        #: The transaction's history op (None when no history is recorded):
        #: stamped durable / persisted where the slot's outcome is settled.
        self.hop = None


class _CoordPipeline:
    """One per application thread (Section 7: per-thread pipelines)."""

    __slots__ = ("next_slot", "validated_upto", "slots", "room")

    def __init__(self):
        self.next_slot = 0
        self.validated_upto = -1
        self.slots: Dict[int, _Slot] = {}
        self.room: Optional[Event] = None


class _FollowerPipeline:
    """Follower-side view of one remote pipeline."""

    __slots__ = ("settled", "buffer", "applied")

    def __init__(self):
        #: Highest slot we may build on (applied here or known validated).
        self.settled = -1
        #: Received but not yet appliable R-INVs, by slot.
        self.buffer: Dict[int, RInv] = {}
        #: Applied but not yet validated: slot -> (inv, [(oid, version)]).
        self.applied: Dict[int, Tuple[RInv, List[Tuple[ObjectId, int]]]] = {}


class CommitManager:
    """Reliable-commit endpoint on one node (coordinator + follower)."""

    def __init__(self, node: Node, store: ObjectStore, catalog: Catalog,
                 max_pipeline_depth: int = 32):
        self.node = node
        self.sim = node.sim
        self.node_id = node.node_id
        self.store = store
        self.catalog = catalog
        self.params = node.params
        self.max_pipeline_depth = max_pipeline_depth
        self.ownership = None  # wired by the cluster builder

        self._coord: Dict[int, _CoordPipeline] = {}
        self._follow: Dict[PipelineId, _FollowerPipeline] = {}
        self._pending_by_oid: Dict[ObjectId, int] = {}
        self._val_buffer: Dict[NodeId, List[Tuple[PipelineId, int, bool]]] = {}
        self._val_flush_scheduled = False
        #: Follower-side cumulative ack coalescing: coordinator -> pipeline
        #: -> highest applied slot, flushed every _ACK_FLUSH_DELAY_US.
        self._ack_buffer: Dict[NodeId, Dict[PipelineId, int]] = {}
        self._ack_flush_scheduled = False
        #: Replays this node is driving after a coordinator death:
        #: (pipeline, slot) -> set of followers still to ack.
        self._replays: Dict[Tuple[PipelineId, int], Set[NodeId]] = {}
        self._recovering_epoch: Optional[int] = None
        #: Live set of the previous view, for spotting re-admitted peers.
        self._prev_live: frozenset = frozenset()

        obs = node.obs
        self.tracer = obs.tracer
        self.history = obs.history
        if self.tracer is not None:
            point = self.tracer.point
            self._t_replicate = point("commit_replicate", "commit", True,
                                      slot=int, followers=int, acked=int)
            self._t_apply = point("commit.apply", "commit", False,
                                  pipeline=tuple, slot=int, updates=int)
            self._t_val = point("commit.val", "commit", False, entries=int)
        #: Registry-backed counter view (``commit.*``, labeled by node).
        self.counters = obs.registry.group("commit", node=self.node_id)
        self._latency = obs.registry.histogram("commit.latency_us",
                                               node=self.node_id)

        node.register_handler(KIND_RINV, self._on_rinv, cost=self._rinv_cost,
                              span_name="commit_ack")
        node.register_handler(KIND_RACK, self._on_rack)
        node.register_handler(KIND_RVAL, self._on_rval)
        node.add_view_listener(self._on_view_change)

    @property
    def commit_latencies_us(self) -> List[float]:
        """Submit→validated latency samples (registry histogram view)."""
        return self._latency.samples

    def _rinv_cost(self, payload: RInv) -> float:
        p = self.params
        return (len(payload.updates) * p.rcommit_apply_us
                + payload.data_bytes * p.apply_us_per_byte)

    # ======================================================================
    # Coordinator side
    # ======================================================================

    def pipeline_depth(self, thread: int) -> int:
        pipe = self._coord.get(thread)
        return len(pipe.slots) if pipe else 0

    def wait_for_room(self, thread: int, ctx=None):
        """Generator: blocks while the thread's pipeline is at max depth
        (back-pressure; the only time replication stalls the app).

        ``ctx`` (a trace context) attributes any actual stall to the
        blocked transaction as a ``commit_wait_room`` span."""
        pipe = self._coord.setdefault(thread, _CoordPipeline())
        span = None
        tracer = self.tracer
        while len(pipe.slots) >= self.max_pipeline_depth:
            if span is None and tracer is not None:
                span = tracer.open(self.node_id, thread, ctx)
                depth = len(pipe.slots)
            if pipe.room is None or pipe.room.is_set():
                pipe.room = Event(self.sim)
            yield pipe.room.wait()
        if span is not None:
            tracer.point("commit_wait_room", "commit", True,
                         depth=int)(span, depth)
        return None

    def submit(self, thread: int, updates: List[Update],
               followers: Set[NodeId], ctx=None, wal_key=None,
               hop=None) -> Future:
        """Begin the reliable commit of a locally-committed transaction.

        Non-blocking.  Returns a future completing when the transaction is
        durably committed — at the replication point, or, under the WAL's
        ``ack_policy="persist"``, when the coordinator's COMMIT record is
        fsynced (tests and durability-sensitive apps may wait on it; normal
        workloads do not).

        ``ctx`` links the slot's ``commit_replicate`` span (and therefore
        every R-INV and remote ``commit_ack`` service span) to the
        submitting transaction's trace.  ``wal_key`` is the REDO record key
        the transaction layer logged at local commit (where pre-images were
        still at hand); callers that skip it get a pre-image-free REDO
        logged here.  ``hop`` is the transaction's history op: it rides on
        the slot and is marked durable (and persisted) at the instants this
        manager settles the slot, so recording schedules nothing.
        """
        pipe = self._coord.get(thread)
        if pipe is None:
            pipe = self._coord[thread] = _CoordPipeline()
        slot_no = pipe.next_slot
        pipe.next_slot += 1
        node_id = self.node_id
        pipeline_id: PipelineId = (node_id, thread)
        follower_set: Tuple[NodeId, ...] = ()
        if followers:
            live = self.node.live_nodes
            follower_set = tuple(sorted([f for f in followers
                                         if f != node_id and f in live]))
        if (not follower_set and not pipe.slots and self.tracer is None
                and self.node.durability is None):
            # No live follower, nothing ahead of it in the pipeline, no span
            # or WAL record to carry: the slot would validate before this
            # call returned, so it never becomes one.  The same counters,
            # latency sample (0 µs), CPU charge, t_state flips, history
            # stamp and slot number as the slot path; ``_pending_by_oid``
            # would go up and back down.
            pipe.validated_upto = slot_no
            counters = self.counters
            counters.inc("submitted")
            self.node.pool.charge(self.params.rcommit_coord_us)
            get = self.store.get
            for oid, version, _data, _size in updates:
                obj = get(oid)
                if obj is not None and obj.t_version == version:
                    obj.t_state = TState.VALID
            self._latency.record(0.0)
            counters.inc("committed")
            future = Future(self.sim)
            future.set_result(None)
            if hop is not None:
                self.history.mark_durable(hop, self.sim.now)
            if pipe.room is not None and self.max_pipeline_depth > 0:
                pipe.room.set()
            return future

        prev_done = pipe.validated_upto >= slot_no - 1
        inv = RInv(pipeline_id, slot_no, follower_set, tuple(updates),
                   prev_done)
        slot = _Slot(inv, self.sim.now)
        slot.future = Future(self.sim)
        slot.hop = hop
        dur = self.node.durability
        if dur is not None:
            if wal_key is None:
                wal_key = dur.log_redo_coord(thread, updates, pre=[])
            slot.wal_key = wal_key
        pipe.slots[slot_no] = slot
        for oid, _ver, _data, _size in updates:
            self._pending_by_oid[oid] = self._pending_by_oid.get(oid, 0) + 1
        self.counters.inc("submitted")
        tracer = self.tracer
        if tracer is not None:
            # RInv broadcast starts here; the span closes when all RACKs
            # are in and the slot validates (RVAL broadcast).
            slot.span = tracer.open(self.node_id, TID_REPLICATION + thread,
                                    ctx)

        if not prev_done and slot_no > 0:
            prev_slot = pipe.slots.get(slot_no - 1)
            if prev_slot is not None:
                # Followers of this slot that were not followers of the
                # previous one must be told when it validates (§5.2).
                for f in follower_set:
                    if f not in prev_slot.needed:
                        prev_slot.extras.add(f)

        self.node.pool.charge(self.params.rcommit_coord_us)
        inv_ctx = slot.span.ctx if slot.span is not None else None
        for f in follower_set:
            self.node.send(f, KIND_RINV, inv, inv.size, ctx=inv_ctx)
        if not follower_set:
            # Replication degree 1 or all followers dead: commit instantly.
            self._try_validate(pipe, pipeline_id)
        return slot.future

    def has_pending(self, oid: ObjectId) -> bool:
        """True when ``oid`` has an unfinished reliable commit here — the
        owner-busy condition the ownership protocol checks before agreeing
        to migrate an object."""
        return self._pending_by_oid.get(oid, 0) > 0

    def _on_rack(self, msg: Message) -> None:
        ack: RAck = msg.payload
        if msg.epoch != self.node.epoch:
            return
        for pipeline, slot in ack.entries:
            replay_key = (pipeline, slot)
            if replay_key in self._replays:
                self._on_replay_ack(replay_key, msg.src)
                continue
            if pipeline[0] != self.node_id:
                continue
            pipe = self._coord.get(pipeline[1])
            if pipe is None:
                continue
            # Cumulative: an ack for slot n acks every earlier slot this
            # follower participates in (Section 5.2).
            # ``slots`` fills in ascending slot order and empties only
            # from the front, so it iterates sorted.
            for slot_no, pending in pipe.slots.items():
                if slot_no > slot:
                    break
                pending.acked.add(msg.src)
            self._try_validate(pipe, pipeline)

    def _try_validate(self, pipe: _CoordPipeline, pipeline_id: PipelineId) -> None:
        """Validate in slot order every slot whose followers all acked."""
        while True:
            nxt = pipe.validated_upto + 1
            slot = pipe.slots.get(nxt)
            if slot is None or not (slot.needed <= slot.acked):
                break
            pipe.validated_upto = nxt
            del pipe.slots[nxt]
            self._validate_local(slot)
            recipients = slot.inv.followers
            if slot.extras or len(recipients) > 1:
                # Set order, not tuple order: it fixes the R-VAL send order.
                recipients = set(recipients) | slot.extras
            for f in recipients:
                self._queue_val(f, pipeline_id, nxt, cumulative=True)
            self._latency.record(self.sim.now - slot.submitted_at)
            self.counters.inc("committed")
            if slot.span is not None:
                self._t_replicate(slot.span, nxt, len(slot.inv.followers),
                                  len(slot.acked))
            dur = self.node.durability
            if dur is not None and slot.wal_key is not None:
                self._persist_slot(dur, slot, pipeline_id)
            elif not slot.future.done():
                # _ack(), inline: one frame fewer on every plain commit.
                slot.future.set_result(None)
                if slot.hop is not None:
                    self.history.mark_durable(slot.hop, self.sim.now)
            if pipe.room is not None and len(pipe.slots) < self.max_pipeline_depth:
                pipe.room.set()

    def _ack(self, slot: _Slot) -> None:
        """Resolve the slot's commit ack; its history op is durable now."""
        if not slot.future.done():
            slot.future.set_result(None)
            if slot.hop is not None:
                self.history.mark_durable(slot.hop, self.sim.now)

    def _persist_slot(self, dur, slot: _Slot, pipeline_id: PipelineId) -> None:
        """Log the slot's COMMIT record and settle its outcome.

        The commit ack (``slot.future``) resolves now under
        ``ack_policy="replication"`` (the paper's semantics; disk
        persistence is asynchronous), or only when the COMMIT record's
        fsync completes under ``"persist"``.  The history op is always
        stamped ``persisted_at`` at the fsync.  A crash in the window kills
        the fsync (token discard), the ack stays pending under
        ``"persist"``, and the op is audited as maybe-committed.
        """
        pf = dur.log_commit(slot.wal_key, want_future=True)
        ack_persist = dur.ack_persist
        if not ack_persist:
            self._ack(slot)
        pspan = None
        if slot.span is not None and not pf.done():
            pspan = self.tracer.open(self.node_id,
                                     TID_REPLICATION + pipeline_id[1],
                                     slot.span.ctx)

        def _done(_f):
            if pspan is not None:
                self.tracer.point("commit_persist", "commit", True,
                                  slot=int)(pspan, slot.inv.slot)
            if slot.hop is not None:
                self.history.mark_persisted(slot.hop, self.sim.now)
            if ack_persist:
                self._ack(slot)

        pf.add_done_callback(_done)

    def _validate_local(self, slot: _Slot) -> None:
        for oid, version, _data, _size in slot.inv.updates:
            count = self._pending_by_oid.get(oid, 0) - 1
            if count <= 0:
                self._pending_by_oid.pop(oid, None)
            else:
                self._pending_by_oid[oid] = count
            obj = self.store.get(oid)
            if obj is not None and obj.t_version == version:
                obj.t_state = TState.VALID

    # ------------------------------------------------------- R-VAL batching

    def _queue_val(self, follower: NodeId, pipeline: PipelineId, slot: int,
                   cumulative: bool) -> None:
        if follower == self.node_id:
            return
        self._val_buffer.setdefault(follower, []).append((pipeline, slot, cumulative))
        if not self._val_flush_scheduled:
            self._val_flush_scheduled = True
            self.sim.call_after(_VAL_FLUSH_DELAY_US, self._flush_vals)

    def _flush_vals(self) -> None:
        self._val_flush_scheduled = False
        buffer, self._val_buffer = self._val_buffer, {}
        for follower, entries in buffer.items():
            cumulative_max: Dict[PipelineId, int] = {}
            exact: Set[Tuple[PipelineId, int]] = set()
            for pipeline, slot, cumulative in entries:
                if cumulative:
                    cumulative_max[pipeline] = max(
                        cumulative_max.get(pipeline, -1), slot)
                else:
                    exact.add((pipeline, slot))
            out = [(pipeline, slot, True)
                   for pipeline, slot in cumulative_max.items()]
            out.extend((pipeline, slot, False) for pipeline, slot in exact)
            val = RVal(tuple(out))
            self.node.send(follower, KIND_RVAL, val, val.size)

    # ======================================================================
    # Follower side
    # ======================================================================

    def _on_rinv(self, msg: Message) -> None:
        inv: RInv = msg.payload
        if msg.epoch != self.node.epoch:
            return
        fpipe = self._follow.setdefault(inv.pipeline, _FollowerPipeline())
        if inv.slot in fpipe.applied or inv.slot <= fpipe.settled:
            # Duplicate (re-broadcast after epoch change, or replay of a
            # slot we already applied): just re-ack.
            self._send_rack(msg.src if inv.replay else inv.pipeline[0], inv)
            return
        if inv.prev_val or inv.replay:
            # The previous slot's VAL rode along; a recovery replay bypasses
            # the settled gate (version monotonicity makes out-of-order
            # application safe and reads are frozen).
            fpipe.settled = max(fpipe.settled, inv.slot - 1)
        if inv.slot == fpipe.settled + 1:
            self._apply_rinv(fpipe, inv, ack_to=msg.src if inv.replay else None)
            if fpipe.buffer:
                self._drain_buffer(fpipe)
        else:
            fpipe.buffer[inv.slot] = inv

    def _drain_buffer(self, fpipe: _FollowerPipeline) -> None:
        while fpipe.settled + 1 in fpipe.buffer:
            inv = fpipe.buffer.pop(fpipe.settled + 1)
            self._apply_rinv(fpipe, inv, ack_to=None)

    def _apply_rinv(self, fpipe: _FollowerPipeline, inv: RInv,
                    ack_to: Optional[NodeId]) -> None:
        dur = self.node.durability
        pre: List[Tuple[ObjectId, int, object]] = []
        records: List[Tuple[ObjectId, int]] = []
        for oid, version, data, _size in inv.updates:
            obj = self.store.get(oid)
            if obj is None:
                own = self.ownership
                if own is None or not own.claim_provisional(oid):
                    continue  # no longer a replica (trimmed mid-flight)
                # Our own acquisition of ``oid`` is in flight: either we are
                # listed already and the grant is slower than this write, or
                # we follow another object of this write and are not listed
                # yet.  Adopt the value as a provisional first copy: a late
                # grant's stale version then loses the monotonicity guard,
                # and a grant carrying a newer one replaces this copy.
                obj = self.store.create(oid, None, None)
                obj.t_version = -1
            if obj.t_version >= version:
                continue  # newer value already applied: idempotence
            if dur is not None:
                pre.append((oid, obj.t_version, obj.t_data))
            obj.t_data = data
            obj.t_version = version
            obj.t_state = TState.INVALID
            records.append((oid, version))
        if dur is not None and records:
            dur.log_redo(("f",) + inv.pipeline + (inv.slot,),
                         inv.updates, pre)
        fpipe.applied[inv.slot] = (inv, records)
        fpipe.settled = max(fpipe.settled, inv.slot)
        self.counters.inc("applied")
        if self.tracer is not None:
            self._t_apply(self.node_id, TID_REPLICATION, None, inv.pipeline,
                          inv.slot, len(inv.updates))
        self._send_rack(ack_to if ack_to is not None else inv.pipeline[0], inv)

    def _send_rack(self, to: NodeId, inv: RInv) -> None:
        if inv.replay or to != inv.pipeline[0]:
            # Recovery acks are rare and latency-critical: send immediately.
            ack = RAck(((inv.pipeline, inv.slot),))
            self.node.send(to, KIND_RACK, ack, ack.size)
            return
        per_coord = self._ack_buffer.setdefault(to, {})
        prev = per_coord.get(inv.pipeline, -1)
        per_coord[inv.pipeline] = max(prev, inv.slot)
        if not self._ack_flush_scheduled:
            self._ack_flush_scheduled = True
            self.sim.call_after(_ACK_FLUSH_DELAY_US, self._flush_acks)

    def _flush_acks(self) -> None:
        self._ack_flush_scheduled = False
        buffer, self._ack_buffer = self._ack_buffer, {}
        for coordinator, per_pipe in buffer.items():
            ack = RAck(tuple(per_pipe.items()))
            self.node.send(coordinator, KIND_RACK, ack, ack.size)

    def _on_rval(self, msg: Message) -> None:
        val: RVal = msg.payload
        if msg.epoch != self.node.epoch:
            return
        if self.tracer is not None:
            self._t_val(self.node_id, TID_REPLICATION, None,
                        len(val.entries))
        for pipeline, slot, cumulative in val.entries:
            fpipe = self._follow.get(pipeline)
            if fpipe is None:
                fpipe = self._follow.setdefault(pipeline, _FollowerPipeline())
            if cumulative:
                targets = [s for s in fpipe.applied if s <= slot]
                fpipe.settled = max(fpipe.settled, slot)
            else:
                targets = [slot] if slot in fpipe.applied else []
            dur = self.node.durability
            for s in sorted(targets):
                _inv, records = fpipe.applied.pop(s)
                for oid, version in records:
                    obj = self.store.get(oid)
                    if obj is not None and obj.t_version == version:
                        obj.t_state = TState.VALID
                if dur is not None and records:
                    dur.log_commit(("f",) + pipeline + (s,))
            if cumulative and fpipe.buffer:
                self._drain_buffer(fpipe)
        if self._recovering_epoch is not None:
            self._maybe_done_recovering()

    # ======================================================================
    # Recovery
    # ======================================================================

    def reset_for_restart(self) -> None:
        """Wipe volatile pipeline state after a crash-restart.

        Coordinator pipelines restart at slot 0 (peers symmetrically drop
        their follower view of our dead incarnation on the admit view);
        follower views of remote pipelines are rebuilt from the R-INVs the
        live coordinators send once we rejoin their follower sets."""
        self._coord.clear()
        self._follow.clear()
        self._pending_by_oid.clear()
        self._val_buffer.clear()
        self._ack_buffer.clear()
        self._val_flush_scheduled = False
        self._ack_flush_scheduled = False
        self._replays.clear()
        self._recovering_epoch = None
        self._prev_live = frozenset()

    def _forget_peer_pipelines(self, peer: NodeId) -> None:
        """A peer rejoined as a fresh incarnation: its coordinator pipelines
        restart at slot 0, so our follower view of the old incarnation
        (``settled`` at the pre-crash high-water mark) would silently
        re-ack-and-drop every new slot as a duplicate.  Forget it all."""
        for pipeline in [p for p in self._follow if p[0] == peer]:
            del self._follow[pipeline]
        for key in [k for k in self._replays if k[0][0] == peer]:
            del self._replays[key]
        self._ack_buffer.pop(peer, None)
        self._val_buffer.pop(peer, None)

    def _on_view_change(self, epoch: int, live: frozenset) -> None:
        prev_live, self._prev_live = self._prev_live, live
        if prev_live:
            for peer in live - prev_live:
                if peer != self.node_id:
                    self._forget_peer_pipelines(peer)
        # 1. Coordinator: drop dead followers from pending slots and
        #    re-broadcast unvalidated slots under the new epoch.
        for thread, pipe in self._coord.items():
            pipeline_id = (self.node_id, thread)
            for slot in pipe.slots.values():
                slot.needed &= live
                inv = slot.inv
                for f in sorted(slot.needed - slot.acked):
                    self.node.send(f, KIND_RINV, inv, inv.size)
            self._try_validate(pipe, pipeline_id)
            # Re-announce the validated high-water mark.  A cumulative VAL
            # in flight across the epoch bump is delivered stamped with the
            # old epoch and discarded by the receiver, and nothing per-slot
            # ever repeats it: a follower waiting on that VAL to bridge a
            # gap in its slot sequence (it was not a follower of the gap
            # slots) would otherwise buffer the pipeline's head forever —
            # and a wedged head keeps ``has_pending`` true, vetoing every
            # ownership migration of the affected objects.
            if pipe.validated_upto >= 0:
                for f in sorted(live):
                    self._queue_val(f, pipeline_id, pipe.validated_upto,
                                    cumulative=True)

        # 2. Follower: discard buffered-but-unapplied R-INVs from dead
        #    coordinators; replay applied-but-unvalidated ones.
        self._recovering_epoch = epoch
        for pipeline, fpipe in self._follow.items():
            coord = pipeline[0]
            if coord in live:
                continue
            fpipe.buffer.clear()
            for slot_no in sorted(fpipe.applied):
                inv, _records = fpipe.applied[slot_no]
                self._start_replay(pipeline, slot_no, inv, live)
        self._maybe_done_recovering()

    def _start_replay(self, pipeline: PipelineId, slot_no: int, inv: RInv,
                      live: frozenset) -> None:
        others = {f for f in inv.followers if f in live and f != self.node_id}
        key = (pipeline, slot_no)
        if key in self._replays:
            return
        self.counters.inc("commit_replay")
        if not others:
            # We are the only live follower: validate immediately.
            self._finish_replay(key, pipeline, slot_no)
            return
        self._replays[key] = set(others)
        replay_inv = inv._replace(replay=True)
        for f in others:
            self.node.send(f, KIND_RINV, replay_inv, replay_inv.size)

    def _on_replay_ack(self, key: Tuple[PipelineId, int], src: NodeId) -> None:
        waiting = self._replays.get(key)
        if waiting is None:
            return
        waiting.discard(src)
        if not waiting:
            pipeline, slot_no = key
            inv, _records = self._follow[pipeline].applied.get(slot_no, (None, None))
            live_followers = []
            if inv is not None:
                live_followers = [f for f in inv.followers
                                  if f in self.node.live_nodes and f != self.node_id]
            for f in live_followers:
                self._queue_val(f, pipeline, slot_no, cumulative=False)
            self._finish_replay(key, pipeline, slot_no)

    def _finish_replay(self, key: Tuple[PipelineId, int],
                       pipeline: PipelineId, slot_no: int) -> None:
        self._replays.pop(key, None)
        fpipe = self._follow.get(pipeline)
        if fpipe is not None and slot_no in fpipe.applied:
            _inv, records = fpipe.applied.pop(slot_no)
            for oid, version in records:
                obj = self.store.get(oid)
                if obj is not None and obj.t_version == version:
                    obj.t_state = TState.VALID
            dur = self.node.durability
            if dur is not None and records:
                dur.log_commit(("f",) + pipeline + (slot_no,))
        self._maybe_done_recovering()

    def _maybe_done_recovering(self) -> None:
        """Report recovery once no pending commits from dead coordinators
        remain (the ownership barrier's per-node condition)."""
        if self._recovering_epoch is None:
            return
        live = self.node.live_nodes
        for pipeline, fpipe in self._follow.items():
            if pipeline[0] in live:
                continue
            if fpipe.applied:
                return
            if any(key[0] == pipeline for key in self._replays):
                return
        epoch = self._recovering_epoch
        self._recovering_epoch = None
        if self.ownership is not None:
            self.ownership.broadcast_recovered(epoch)
