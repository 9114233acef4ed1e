"""The reliable ownership protocol (Section 4).

One :class:`OwnershipManager` per node plays every role the paper defines:

* **requester** — an application thread needs an access level it does not
  hold; ``acquire()`` blocks the thread (the paper's deliberate trade-off)
  for 1.5 round-trips in the common case;
* **driver** — the directory node a REQ lands on; stamps the request with a
  fresh ``o_ts`` and invalidates the other arbiters;
* **arbiter** — directory nodes and the current owner; they serialize
  contending requests by processing only lexicographically larger ``o_ts``;
* **recovery driver** — after a membership epoch change, any blocked
  arbiter replays the stored idempotent INV (*arb-replay*) to finish or
  abort the pending request.

Engineering completions of under-specified corners (documented in
DESIGN.md): an owner-busy NACK is followed by a requester-sent ABORT that
reverts already-invalidated arbiters; aborts keep the bumped ``o_ts`` (the
version number is burned) so a retried request can never collide with the
aborted one; REMOVE_READER arbitration involves the directory nodes and the
victim but not the owner, keeping the trim out of the write critical path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..cluster.node import Node
from ..net.message import Message, NodeId
from ..sim.process import Future
from ..store.catalog import Catalog, ObjectId
from ..store.directory import DirectoryTable
from ..store.meta import Ots, OState, ReplicaSet, TState
from ..store.object_store import ObjectStore, StoredObject
from .messages import (
    KIND_ABORT,
    KIND_ACK,
    KIND_DATA,
    KIND_FETCH,
    KIND_INV,
    KIND_NACK,
    KIND_REQ,
    KIND_RESP,
    KIND_VAL,
    NackReason,
    OwnAbort,
    OwnAck,
    OwnData,
    OwnFetch,
    OwnInv,
    OwnNack,
    OwnReq,
    OwnResp,
    OwnVal,
    ReqId,
    ReqType,
)

__all__ = ["OwnershipManager", "AcquireOutcome"]

KIND_RECOVERED = "own.recovered"
KIND_LIFTED = "own.lifted"
KIND_DIR_SYNC = "own.dir_sync"

# Counter-key strings, precomputed so the acquire/deny hot paths don't
# build an f-string (plus .name.lower()) per request.
_REQ_COUNTER_KEY = {t: f"req.{t.name.lower()}" for t in ReqType}
_DENY_COUNTER_KEY = {r: f"denied.{r.name.lower()}" for r in NackReason}


class AcquireOutcome:
    """Result of one ownership request."""

    __slots__ = ("granted", "reason", "latency_us")

    def __init__(self, granted: bool, reason: Optional[NackReason], latency_us: float):
        self.granted = granted
        self.reason = reason
        self.latency_us = latency_us

    def __repr__(self) -> str:  # pragma: no cover
        status = "GRANTED" if self.granted else f"DENIED({self.reason.name})"
        return f"AcquireOutcome({status}, {self.latency_us:.1f}us)"


class _ReqCtx:
    """Requester-side state for one in-flight request."""

    __slots__ = ("req_id", "oid", "req_type", "victim", "future", "acks",
                 "arbiters", "o_ts", "new_replicas", "data", "data_version",
                 "started_at", "timeout_handle")

    def __init__(self, req_id: ReqId, oid: ObjectId, req_type: ReqType,
                 victim: Optional[NodeId], future: Future, started_at: float):
        self.req_id = req_id
        self.oid = oid
        self.req_type = req_type
        self.victim = victim
        self.future = future
        self.acks: Set[NodeId] = set()
        self.arbiters: Optional[Tuple[NodeId, ...]] = None
        self.o_ts: Optional[Ots] = None
        self.new_replicas: Optional[ReplicaSet] = None
        self.data: Any = None
        self.data_version: Optional[int] = None
        self.started_at = started_at
        self.timeout_handle = None


class _ReplayCtx:
    """Recovery-driver state for one arb-replay: the replayed INV (its
    arbiters are the live ones) and who has re-ACKed it."""

    __slots__ = ("inv", "acks")

    def __init__(self, inv: OwnInv):
        self.inv = inv
        self.acks: Set[NodeId] = set()


from .lifecycle import LifecycleMixin


class OwnershipManager(LifecycleMixin):
    """Ownership protocol endpoint on one node."""

    def __init__(self, node: Node, store: ObjectStore, catalog: Catalog,
                 directory: Optional[DirectoryTable]):
        self.node = node
        self.sim = node.sim
        self.node_id = node.node_id
        self.store = store
        self.catalog = catalog
        self.directory = directory
        self.params = node.params
        #: Set by the wiring layer; used for the owner-busy check and
        #: recovery sequencing.
        self.commit_mgr = None
        #: Nodes being drained (set cluster-wide by the rebalancer): when a
        #: post-acquisition trim must discard a reader, prefer one of
        #: these, so every ownership move during a drain doubles as the
        #: draining node's eviction from that replica set.
        self.trim_preferred: Set[NodeId] = set()
        #: Per-object replication-degree overrides (set cluster-wide by the
        #: placement controller): a read-hot object widened beyond the
        #: configured degree keeps its extra readers across ownership
        #: moves instead of losing one to every post-acquire trim.
        self.degree_overrides: Dict[ObjectId, int] = {}

        self._next_req_id = 0
        self._reqs: Dict[ReqId, _ReqCtx] = {}
        self._req_by_oid: Dict[ObjectId, _ReqCtx] = {}
        #: Objects created from an R-INV that raced our acquisition; kept
        #: only if the acquisition is granted (see :meth:`acquiring`).
        self._provisional: Set[ObjectId] = set()
        #: Arbiter-side pending arbitration, one per object (the stored INV
        #: is what arb-replay re-transmits).
        self._pending_arb: Dict[ObjectId, OwnInv] = {}
        self._replays: Dict[ReqId, _ReplayCtx] = {}
        #: Recovery barrier (directory nodes): epoch -> nodes recovered.
        self._recovered: Dict[int, Set[NodeId]] = {}
        self._lifted_epoch = 1

        # ------ observability
        obs = node.obs
        self.tracer = obs.tracer
        if self.tracer is not None:
            point = self.tracer.point
            self._t_acquire = point("own_acquire", "ownership", True, oid=int,
                                    type=str, granted=bool, reason=str)
            self._t_coalesced = point(
                "own_acquire", "ownership", True, oid=int, type=str,
                coalesced=bool, granted=bool, reason=str)
        #: Registry-backed counter view (``ownership.*``, labeled by node).
        self.counters = obs.registry.group("ownership", node=self.node_id)
        self._latency = obs.registry.histogram("ownership.latency_us",
                                               node=self.node_id)

        cost = self.params.own_arbitrate_us
        node.register_handler(KIND_REQ, self._on_req, cost=cost,
                              span_name="own_acquire.serve")
        node.register_handler(KIND_INV, self._on_inv, cost=cost,
                              span_name="own_inv.serve")
        node.register_handler(KIND_ACK, self._on_ack)
        node.register_handler(KIND_NACK, self._on_nack)
        node.register_handler(KIND_VAL, self._on_val)
        node.register_handler(KIND_RESP, self._on_resp)
        node.register_handler(KIND_ABORT, self._on_abort)
        node.register_handler(KIND_FETCH, self._on_fetch)
        node.register_handler(KIND_DATA, self._on_data)
        node.register_handler(KIND_RECOVERED, self._on_recovered)
        node.register_handler(KIND_LIFTED, self._on_lifted)
        node.register_handler(KIND_DIR_SYNC, self._on_dir_sync)
        node.add_view_listener(self._on_view_change)
        self._init_lifecycle()

    # ------------------------------------------------------------- helpers

    @property
    def latencies_us(self) -> List[float]:
        """Granted-acquire latency samples (registry histogram view)."""
        return self._latency.samples

    def _live_dir_nodes(self, oid: ObjectId) -> Tuple[NodeId, ...]:
        """The live directory replicas arbitrating this object (§6.2: a
        single replicated directory by default, consistent hashing when
        the deployment out-scales it)."""
        dirs = self.catalog.directory_nodes_for(oid)
        live = self.node.live_nodes
        if live.issuperset(dirs):
            return dirs
        return tuple([d for d in dirs if d in live])

    def _choose_driver(self, oid: ObjectId) -> NodeId:
        """Prefer self if co-located with the directory (2-hop fast path,
        Section 4.2), else pick a live directory node by object hash so the
        driver load spreads across the directory replicas."""
        dirs = self._live_dir_nodes(oid)
        if not dirs:
            # No quorum; will time out.
            return self.catalog.directory_nodes_for(oid)[0]
        if self.node_id in dirs:
            return self.node_id
        return dirs[oid % len(dirs)]

    def _req_timeout_us(self) -> float:
        return max(3 * self.params.lease_us, 2_000.0)

    @property
    def barrier_lifted(self) -> bool:
        return self._lifted_epoch >= self.node.epoch

    # ======================================================================
    # Requester role
    # ======================================================================

    def acquire(self, oid: ObjectId, req_type: ReqType = ReqType.ACQUIRE_OWNER,
                victim: Optional[NodeId] = None, thread: int = 0, ctx=None):
        """Blocking ownership request (generator; use with ``yield from``).

        Returns an :class:`AcquireOutcome`.  Concurrent requests for the
        same object on this node coalesce onto one in-flight request; the
        caller re-checks its access level afterwards and retries if needed.
        ``thread`` only labels the trace span's track; ``ctx`` is the
        caller's trace context (the transaction span) — the REQ carries the
        acquire span's context so the driver/arbiter service spans link
        back to this transaction across the wire.
        """
        tracer = self.tracer
        existing = self._req_by_oid.get(oid)
        if existing is not None:
            span = (tracer.open(self.node_id, thread, ctx)
                    if tracer is not None else None)
            outcome = yield existing.future
            if span is not None:
                self._t_coalesced(
                    span, oid, req_type.name, True, outcome.granted,
                    outcome.reason.name if outcome.reason else None)
            return outcome

        req_id = (self.node_id, self._next_req_id)
        self._next_req_id += 1
        rctx = _ReqCtx(req_id, oid, req_type, victim, Future(self.sim), self.sim.now)
        self._reqs[req_id] = rctx
        self._req_by_oid[oid] = rctx
        self.counters.inc(_REQ_COUNTER_KEY[req_type])
        span = (tracer.open(self.node_id, thread, ctx)
                if tracer is not None else None)

        obj = self.store.get(oid)
        if obj is not None and obj.o_state == OState.VALID:
            obj.o_state = OState.REQUEST

        driver = self._choose_driver(oid)
        rctx.timeout_handle = self.sim.call_after(
            self._req_timeout_us(), self._on_timeout, req_id
        )
        req = OwnReq(req_id, oid, self.node_id, req_type, victim)
        self.node.send(driver, KIND_REQ, req, OwnReq.size,
                       ctx=span.ctx if span is not None else None)
        outcome = yield rctx.future
        if span is not None:
            # NACK/timeout annotations ride on the span for retry analysis.
            self._t_acquire(
                span, oid, req_type.name, outcome.granted,
                outcome.reason.name if outcome.reason else None)
        return outcome

    def _complete(self, ctx: _ReqCtx, granted: bool,
                  reason: Optional[NackReason]) -> None:
        if ctx.timeout_handle is not None:
            ctx.timeout_handle.cancel()
            ctx.timeout_handle = None
        self._reqs.pop(ctx.req_id, None)
        if self._req_by_oid.get(ctx.oid) is ctx:
            del self._req_by_oid[ctx.oid]
        if (not granted and reason is NackReason.TIMEOUT
                and ctx.arbiters is not None and ctx.o_ts is not None):
            # Abandoning mid-arbitration: the arbiters are invalidated
            # waiting on our VAL and nobody else will ever send it (the
            # stale-RESP rollback only covers a RESP that arrives *after*
            # the watchdog; when the RESP came first — e.g. the requester
            # is itself a directory host — a straggler ACK is silently
            # ignored and the entry strands in Drive, livelocking every
            # later request on BUSY_ARBITRATION).  Roll it back.
            self._send_abort(ctx.req_id, ctx.oid, ctx.o_ts, ctx.arbiters)
            self.counters.inc("timeout_abort")
        obj = self.store.get(ctx.oid)
        if ctx.oid in self._provisional:
            self._provisional.discard(ctx.oid)
            if (not granted and obj is not None
                    and (obj.o_replicas is None
                         or obj.o_replicas.owner != self.node_id)):
                # Provisional copy (adopted from a racing R-INV, or a
                # settled arbitration told us we are evicted) and the
                # acquisition that would have re-listed us failed: we are
                # not durably listed, so keeping the copy would serve
                # ever-staler reads.
                self.store.drop(ctx.oid)
                obj = None
        if obj is not None and obj.o_state == OState.REQUEST:
            obj.o_state = OState.VALID
        latency = self.sim.now - ctx.started_at
        if granted:
            self._latency.record(latency)
            self.counters.inc("granted")
        else:
            self.counters.inc(_DENY_COUNTER_KEY[reason])
        ctx.future.set_result(AcquireOutcome(granted, reason, latency))

    def _on_timeout(self, req_id: ReqId) -> None:
        ctx = self._reqs.get(req_id)
        if ctx is not None:
            ctx.timeout_handle = None
            self._complete(ctx, False, NackReason.TIMEOUT)

    # ------------------------------------------------------------ ACK path

    def _on_ack(self, msg: Message) -> None:
        ack: OwnAck = msg.payload
        if msg.epoch != self.node.epoch:
            return
        replay = self._replays.get(ack.req_id)
        if replay is not None:
            replay.acks.add(msg.src)
            self._check_replay_done(replay)
            return
        ctx = self._reqs.get(ack.req_id)
        if ctx is None:
            return
        ctx.acks.add(msg.src)
        ctx.o_ts = ack.o_ts
        ctx.new_replicas = ack.new_replicas
        ctx.arbiters = ack.arbiters
        if ack.data_version is not None:
            ctx.data = ack.data
            ctx.data_version = ack.data_version
        if ctx.arbiters is not None and set(ctx.arbiters) <= ctx.acks:
            self._apply_and_validate(ctx)

    def claim_provisional(self, oid: ObjectId) -> bool:
        """Approve adopting an R-INV's value as our first copy of ``oid``.

        The commit layer calls this when an R-INV arrives for an object we
        do not hold while an inbound acquisition (owner or reader) for it
        is in flight.  Either the directory already lists us and the grant
        is merely slower than the write — then the value must be adopted,
        or the late grant would install an older version over nothing and
        serve stale reads — or we are only a follower of *another* object
        of a multi-object write (an R-INV goes to the union of its objects'
        readers) and the next write of ``oid`` will not reach us; the grant
        then carries the newer value and ``_apply_locally`` adopts it over
        this copy.  The object is tracked as *provisional*: kept if the
        acquisition is granted, dropped if it fails (an unlisted copy never
        sees another invalidation and would serve ever-staler reads)."""
        ctx = self._req_by_oid.get(oid)
        if (ctx is None
                or ctx.req_type not in (ReqType.ACQUIRE_OWNER,
                                        ReqType.ADD_READER)):
            return False
        self._provisional.add(oid)
        return True

    def _apply_and_validate(self, ctx: _ReqCtx) -> None:
        """Finish a grant — every arbiter ACKed, or a RESP (after its FETCH,
        if the value was missing) said the arb-replay did: apply locally
        *first* (paper: the requester must apply before any arbiter), then
        VAL every arbiter."""
        if (ctx.req_type in (ReqType.ACQUIRE_OWNER, ReqType.ADD_READER)
                and ctx.data_version is None
                and not self.store.has(ctx.oid)):
            # The grant carries no value (the designated data source lost
            # its copy after the directory read, or a RESP named no live
            # source): installing a fresh version-0 copy here would fork
            # the object's history.  Roll the arbitration back instead.
            self._send_abort(ctx.req_id, ctx.oid, ctx.o_ts, ctx.arbiters)
            self.counters.inc("ack_no_data_abort")
            self._complete(ctx, False, NackReason.NO_DATA)
            return
        installed = self._apply_locally(ctx.oid, ctx.req_type, ctx.o_ts,
                                        ctx.new_replicas, ctx.data,
                                        ctx.data_version)
        val = OwnVal(ctx.req_id, ctx.oid, ctx.o_ts)
        for arb in ctx.arbiters:
            self.node.send(arb, KIND_VAL, val, OwnVal.size)
        self._complete(ctx, True, None)
        self._maybe_trim(ctx.oid, ctx.req_type, installed)

    def _send_abort(self, req_id: ReqId, oid: ObjectId, o_ts: Ots,
                    arbiters: Iterable[NodeId]) -> None:
        """Roll an arbitration back at ``arbiters``."""
        abort = OwnAbort(req_id, oid, o_ts)
        for arb in arbiters:
            self.node.send(arb, KIND_ABORT, abort, OwnAbort.size)

    def _apply_locally(self, oid: ObjectId, req_type: ReqType, o_ts: Ots,
                       new_replicas: ReplicaSet, data: Any,
                       data_version: Optional[int]) -> ReplicaSet:
        """Install the grant; returns the live replica set it installed."""
        stripped = new_replicas.restricted_to(self.node.live_nodes)
        obj = self.store.get(oid)
        if req_type == ReqType.ACQUIRE_OWNER:
            if obj is None:
                obj = self.store.create(oid, data, stripped, o_ts)
                obj.t_version = data_version or 0
            else:
                obj.o_ts = o_ts
                obj.o_replicas = stripped
                obj.o_state = OState.VALID
                if data_version is not None and data_version > obj.t_version:
                    obj.t_data = data
                    obj.t_version = data_version
            obj.t_state = TState.VALID
        elif req_type == ReqType.ADD_READER:
            if obj is None:
                obj = self.store.create(oid, data, None, o_ts)
                obj.t_version = data_version or 0
            elif data_version is not None and data_version > obj.t_version:
                obj.t_data = data
                obj.t_version = data_version
                obj.t_state = TState.VALID
            obj.o_state = OState.VALID
        else:  # REMOVE_READER — requester is the owner updating its view
            if obj is not None:
                obj.o_ts = o_ts
                obj.o_replicas = stripped
                obj.o_state = OState.VALID
        dur = self.node.durability
        if obj is not None and dur is not None:
            self._log_store(dur, obj)
        return stripped

    def _maybe_trim(self, oid: ObjectId, req_type: ReqType,
                    replicas: ReplicaSet) -> None:
        """Keep the configured replication degree: after a non-replica
        acquisition the replica count grew by one, so discard a reader out
        of the critical path (Section 6.2).  ``replicas`` is the live set
        the grant installed: a replayed grant's drive-time set can still
        name a node that has since died."""
        if req_type != ReqType.ACQUIRE_OWNER:
            return
        degree = self.degree_overrides.get(oid,
                                           self.catalog.replication_degree)
        if replicas.size() <= degree:
            return
        victim = self._pick_trim_victim(replicas)
        if victim is None:
            return

        def trim():
            outcome = yield from self.acquire(oid, ReqType.REMOVE_READER, victim)
            if not outcome.granted:
                self.counters.inc("trim_failed")
            return outcome

        self.node.spawn(trim(), name=f"trim-{oid}")

    def _pick_trim_victim(self, replicas: ReplicaSet) -> Optional[NodeId]:
        readers = [r for r in replicas.readers if r != self.node_id]
        if not readers:
            return None
        draining = [r for r in readers if r in self.trim_preferred]
        return draining[0] if draining else readers[-1]

    # ----------------------------------------------------------- NACK path

    def _on_nack(self, msg: Message) -> None:
        nack: OwnNack = msg.payload
        if msg.epoch != self.node.epoch:
            return
        ctx = self._reqs.get(nack.req_id)
        if ctx is None:
            return
        if nack.reason == NackReason.ALREADY_GRANTED:
            obj = self.store.get(ctx.oid)
            if ctx.req_type == ReqType.ACQUIRE_OWNER and (
                obj is None or obj.o_replicas is None
                or obj.o_replicas.owner != self.node_id
            ):
                # Directory believes we own it but we do not have it; only
                # possible under bugs — fail the request so the caller
                # retries rather than looping on a phantom grant.
                self.counters.inc("already_granted_mismatch")
                self._complete(ctx, False, NackReason.BUSY_ARBITRATION)
            else:
                self._complete(ctx, True, None)
            return
        if (nack.reason in (NackReason.BUSY_COMMIT, NackReason.NO_DATA)
                and nack.arbiters):
            # Directory arbiters already invalidated; revert them (the
            # refusing arbiter never invalidated).
            self._send_abort(nack.req_id, nack.oid, nack.o_ts,
                             [a for a in nack.arbiters if a != msg.src])
        self._complete(ctx, False, nack.reason)

    # ======================================================================
    # Driver role (directory nodes)
    # ======================================================================

    def _on_req(self, msg: Message) -> None:
        req: OwnReq = msg.payload
        if msg.epoch != self.node.epoch or self.directory is None:
            return
        entry = self.directory.get(req.oid)
        if entry is None:
            self._nack(req.requester, req, NackReason.BUSY_ARBITRATION)
            return
        replicas = entry.replicas
        live = self.node.live_nodes

        # Recovery gate: objects whose owner died are frozen until every
        # live node drained the dead coordinators' pending commits (§5.1).
        owner_dead = replicas.owner is None or replicas.owner not in live
        if owner_dead and not self.barrier_lifted:
            self._nack(req.requester, req, NackReason.RECOVERING)
            return
        if entry.o_state != OState.VALID or req.oid in self._pending_arb:
            self._nack(req.requester, req, NackReason.BUSY_ARBITRATION)
            return

        # No-op grants.
        level_holder = (
            (req.req_type == ReqType.ACQUIRE_OWNER and replicas.owner == req.requester)
            or (req.req_type == ReqType.ADD_READER
                and (req.requester == replicas.owner
                     or req.requester in replicas.readers))
            or (req.req_type == ReqType.REMOVE_READER
                and req.victim not in replicas.readers)
        )
        if level_holder:
            self._nack(req.requester, req, NackReason.ALREADY_GRANTED)
            return

        new_ts = entry.o_ts.next_for(self.node_id)
        if req.req_type == ReqType.ACQUIRE_OWNER:
            new_replicas = replicas.with_owner(req.requester)
        elif req.req_type == ReqType.ADD_READER:
            new_replicas = replicas.with_reader(req.requester)
        else:
            new_replicas = replicas.without(req.victim)

        arbiters, data_source = self._arbiters_for(req, replicas, live)
        if arbiters is None:
            self._nack(req.requester, req, NackReason.NO_DATA)
            return

        # The driver may simultaneously be the current owner, the victim,
        # or the designated data source.  Its own ACK then *is* that
        # facet's arbitration, so the same rules apply here: the owner
        # facet must pass the busy check and be invalidated — skipping
        # this would let the driver-as-owner keep committing while the
        # object migrates away (caught by the schedule explorer).
        obj = self.store.get(req.oid)
        self_is_owner = (obj is not None and obj.o_replicas is not None
                         and obj.o_replicas.owner == self.node_id
                         and req.req_type != ReqType.REMOVE_READER)
        if self_is_owner and self._owner_busy(obj):
            # Nothing invalidated yet, so a plain NACK suffices (no ABORT).
            self._nack(req.requester, req, NackReason.BUSY_COMMIT)
            self.counters.inc("owner_busy_nack")
            return

        inv = OwnInv(req.req_id, req.oid, new_ts, new_replicas, req.requester,
                     req.req_type, arbiters, data_source,
                     prev_replicas=replicas, prev_ts=entry.o_ts)
        entry.o_state = OState.DRIVE
        entry.o_ts = new_ts
        self._pending_arb[req.oid] = inv
        self_arbitrates = obj is not None and (
            self_is_owner or data_source == self.node_id
            or (req.req_type == ReqType.REMOVE_READER
                and req.victim == self.node_id))
        if self_arbitrates:
            obj.o_state = OState.INVALID
            obj.o_ts = new_ts
        size = inv.size
        for arb in arbiters:
            if arb != self.node_id:
                self.node.send(arb, KIND_INV, inv, size)
        # The driver is itself an arbiter; it stays in Drive state and acks
        # the requester right away.
        self._send_ack(inv, req.requester)

    def _arbiters_for(self, req: OwnReq, replicas: ReplicaSet,
                      live: frozenset):
        """The arbiter set and the node whose ACK must carry the value.

        Returns ``(None, None)`` when the value is unreachable (owner and
        all readers dead — more failures than the replication degree).
        """
        arbiters = set(self._live_dir_nodes(req.oid))
        data_source: Optional[NodeId] = None
        owner = replicas.owner
        if req.req_type == ReqType.REMOVE_READER:
            # Keep the owner out of the critical path: dirs + victim only.
            if req.victim in live:
                arbiters.add(req.victim)
        else:
            requester_has_data = (req.requester == owner
                                  or req.requester in replicas.readers)
            if owner is not None and owner in live:
                arbiters.add(owner)
                if not requester_has_data:
                    data_source = owner
            elif not requester_has_data or req.req_type == ReqType.ACQUIRE_OWNER:
                # Owner dead: a live reader substitutes as the data source
                # (and is arbitrated so it cannot serve stale reads
                # mid-transfer).
                live_readers = [r for r in replicas.readers if r in live
                                and r != req.requester]
                if not requester_has_data:
                    if not live_readers:
                        return None, None
                    data_source = live_readers[0]
                    arbiters.add(data_source)
        return tuple(sorted(arbiters)), data_source

    def _nack(self, to: NodeId, req: OwnReq | OwnInv, reason: NackReason,
              arbiters: Tuple[NodeId, ...] = (), o_ts: Optional[Ots] = None) -> None:
        """Refuse ``req``; a NACK naming ``arbiters`` and ``o_ts`` asks
        ``to`` to ABORT them (they were already invalidated)."""
        nack = OwnNack(req.req_id, req.oid, reason, arbiters, o_ts)
        self.node.send(to, KIND_NACK, nack, OwnNack.size)

    # ======================================================================
    # Arbiter role (directory nodes + current owner + designated reader)
    # ======================================================================

    def _on_inv(self, msg: Message) -> None:
        inv: OwnInv = msg.payload
        if msg.epoch != self.node.epoch:
            return
        oid = inv.oid
        # An arb-replay is answered to its replaying driver.
        reply_to = msg.src if inv.replay else inv.requester
        current = self._pending_arb.get(oid)
        if current is not None and current.o_ts == inv.o_ts:
            # Duplicate or arb-replay of what we already hold: just re-ACK.
            self._send_ack(inv, reply_to)
            return

        entry = self.directory.get(oid) if self.directory is not None else None
        obj = self.store.get(oid)
        if current is not None:
            ref_ts = current.o_ts
        else:  # the newest o_ts this node holds for the object, if any
            ref_ts = entry.o_ts if entry is not None else None
            if obj is not None and (ref_ts is None or obj.o_ts > ref_ts):
                ref_ts = obj.o_ts
        if ref_ts is not None and inv.o_ts <= ref_ts:
            return  # stale or smaller contender: ignore (no ACK)

        # Losing driver: we were driving a smaller-o_ts request; the larger
        # contender wins, our requester gets a NACK (Section 4.1).
        if (current is not None and entry is not None
                and entry.o_state == OState.DRIVE
                and current.o_ts.node_id == self.node_id):
            self._nack(current.requester, current, NackReason.CONTENTION_LOST)
            self.counters.inc("drive_lost")

        # Owner-busy check: an owner must not give up an object with a
        # pending reliable commit or an executing local transaction.
        if (obj is not None and obj.o_replicas is not None
                and obj.o_replicas.owner == self.node_id
                and inv.req_type != ReqType.REMOVE_READER):
            if self._owner_busy(obj):
                self._nack(reply_to, inv, NackReason.BUSY_COMMIT,
                           inv.arbiters, inv.o_ts)
                self.counters.inc("owner_busy_nack")
                return

        # Data-source check: the driver routed the value transfer through
        # us, but our copy is gone (dropped after a timed-out migration,
        # or reconciled away while the directory still listed us).  A
        # plain ACK would complete the grant with no value and let the
        # requester install a fresh version-0 fork of the object's
        # history — refuse instead, so the requester rolls the
        # arbitration back and retries against a repaired directory.
        if (inv.data_source == self.node_id and obj is None
                and inv.req_type in (ReqType.ACQUIRE_OWNER,
                                     ReqType.ADD_READER)):
            self._nack(reply_to, inv, NackReason.NO_DATA,
                       inv.arbiters, inv.o_ts)
            self.counters.inc("data_source_gone_nack")
            return

        # Accept: invalidate and ACK.
        self._pending_arb[oid] = inv
        if entry is not None:
            entry.o_state = OState.INVALID
            entry.o_ts = inv.o_ts
        if obj is not None:
            obj.o_state = OState.INVALID
            obj.o_ts = inv.o_ts
        self._send_ack(inv, reply_to)

    def _owner_busy(self, obj: StoredObject) -> bool:
        if obj.locked_by is not None:
            return True
        if obj.t_state != TState.VALID:
            return True
        if self.commit_mgr is not None and self.commit_mgr.has_pending(obj.oid):
            return True
        return False

    def _send_ack(self, inv: OwnInv, to: NodeId) -> None:
        data = None
        version = None
        if inv.data_source == self.node_id:
            obj = self.store.get(inv.oid)
            if obj is not None:
                data = obj.t_data
                version = obj.t_version
        ack = OwnAck(inv.req_id, inv.oid, inv.o_ts, inv.arbiters,
                     inv.new_replicas, data, version)
        size = ack.size_with(self.catalog.size_of(inv.oid))
        self.node.send(to, KIND_ACK, ack, size)

    def _on_val(self, msg: Message) -> None:
        val: OwnVal = msg.payload
        cur = self._pending_arb.get(val.oid)
        if cur is None or cur.o_ts != val.o_ts:
            return
        self._settle(cur, True)

    def _on_abort(self, msg: Message) -> None:
        abort: OwnAbort = msg.payload
        cur = self._pending_arb.get(abort.oid)
        if cur is None or cur.o_ts != abort.o_ts:
            return
        self._settle(cur, False)

    # ------------------------------------------------------ durability hooks
    #
    # Only settled ownership state is logged, and only with a WAL (the
    # caller tests ``node.durability is not None``): an OWN record
    # (``dur.log_own``) per settled directory entry on a directory host —
    # in-flight arbitration state is never persisted, an interrupted
    # arbitration is settled by arb-replay, not by disk — and a GRANT
    # record per settled change on the store side.

    def _log_store(self, dur, obj: StoredObject) -> None:
        """WAL a GRANT record.  The value rides along only when
        transactionally Valid — an in-flight reliable commit's WRITE-state
        data must reach disk via its own REDO/COMMIT records, never via an
        ownership grant."""
        ok = obj.t_state == TState.VALID
        dur.log_grant(obj.oid, obj.o_ts, obj.o_replicas,
                      obj.t_version if ok else None,
                      obj.t_data if ok else None,
                      self.catalog.size_of(obj.oid) if ok else 0)

    def _settle(self, inv: OwnInv, granted: bool) -> None:
        """End the pending arbitration ``inv`` at this arbiter: install its
        new view (VAL) or restore the previous one (ABORT)."""
        oid = inv.oid
        self._pending_arb.pop(oid, None)
        view = (inv.new_replicas if granted else inv.prev_replicas
                ).restricted_to(self.node.live_nodes)
        dur = self.node.durability

        entry = self.directory.get(oid) if self.directory is not None else None
        if (entry is None and self.directory is not None
                and self.node_id in self.catalog.directory_nodes_for(oid)):
            # A rejoining directory host can receive the INV before the
            # state-transfer snapshot covers this object; materialize the
            # entry now so the settled arbitration is not lost.
            entry = self.directory.create(oid, view, inv.o_ts)
        if entry is not None:
            entry.replicas = view
            entry.o_state = OState.VALID
            # An ABORT leaves o_ts bumped: the aborted version number is
            # burned so a retry can never collide with the aborted request.
            if granted:
                entry.o_ts = inv.o_ts
            if dur is not None:
                dur.log_own(oid, entry.o_ts, view)
            loc = self.node.obs.locality
            if (granted and loc is not None
                    and inv.req_type == ReqType.ACQUIRE_OWNER):
                # Settled ownership handover: feed the migration ledger.
                # Every directory host reports it; the recorder dedups on
                # the (monotonic per-object) o_ts version.
                loc.on_handover(oid, inv.prev_replicas.owner, view.owner,
                                inv.o_ts.obj_ver, self.sim.now)
        self._sync_absent_dir_hosts(inv)

        obj = self.store.get(oid)
        if (granted and obj is not None and self.node_id != view.owner
                and self.node_id not in view.readers):
            # The settled view excludes us, so our copy is garbage: an
            # unlisted replica never receives another invalidation, and
            # re-blessing it Valid here would let it serve ever-staler
            # reads.  This must cover *every* req_type, not just our own
            # REMOVE_READER eviction — a lost VAL leaves the eviction
            # unapplied, and the next settled arbitration (any type) is
            # then the only messenger telling us we are out.  With an
            # acquisition of our own in flight the copy may be about to
            # become listed again, so it is demoted to *provisional*
            # instead: kept if that acquisition is granted, dropped when
            # it fails (see claim_provisional).
            if oid not in self._req_by_oid:
                self.store.drop(oid)
                self.counters.inc("replica_dropped")
                return
            self._provisional.add(oid)
            # A provisional copy must not serve reads while the acquisition
            # is pending: we are unlisted, so writers stop invalidating us
            # and every local read gets staler.  A grant re-blesses the
            # copy Valid via _apply_locally; a denial drops it in
            # _complete.
            obj.o_state = OState.INVALID
            obj.o_ts = inv.o_ts
            obj.o_replicas = None
            if dur is not None:
                self._log_store(dur, obj)
            return
        if obj is not None and (granted or obj.o_state == OState.INVALID):
            obj.o_state = OState.VALID
            if granted:
                obj.o_ts = inv.o_ts
            # An ABORT adopts the authoritative pre-arbitration view: a node
            # whose own demotion VAL was superseded by the (now aborted)
            # larger request must not resurrect a stale self-as-owner view.
            obj.o_replicas = view if view.owner == self.node_id else None
            if dur is not None:
                self._log_store(dur, obj)
        if not granted:
            self.counters.inc("arb_aborted")

    # ----------------------------------------------------- directory repair

    def _sync_absent_dir_hosts(self, inv: OwnInv) -> None:
        """Forward the settled entry to directory hosts the arbitration
        missed.

        An arbitration's participant set is frozen at drive time, so a
        directory host admitted mid-arbitration never sees the VAL (or
        ABORT) and would keep a pre-crash view of the entry forever.  The
        minimum live arbiting directory node forwards the now-settled entry
        state; the receiver's timestamp guard makes this safe under any
        reordering with the state-transfer snapshot.
        """
        if self.directory is None:
            return
        dir_hosts = self.catalog.directory_nodes_for(inv.oid)
        if set(inv.arbiters).issuperset(dir_hosts):
            return  # every directory host arbitrated: nobody to forward to
        live = self.node.live_nodes
        absent = [d for d in dir_hosts if d in live and d not in inv.arbiters]
        if not absent:
            return
        senders = [a for a in inv.arbiters if a in live and a in dir_hosts]
        if not senders or min(senders) != self.node_id:
            return
        entry = self.directory.get(inv.oid)
        if entry is None:
            return
        payload = (inv.oid, entry.o_ts, entry.replicas)
        for dnode in absent:
            self.node.send(dnode, KIND_DIR_SYNC, payload, 40)
        self.counters.inc("dir_sync_sent")

    def _on_dir_sync(self, msg: Message) -> None:
        if self.directory is None:
            return
        oid, o_ts, replicas = msg.payload
        if self.node_id not in self.catalog.directory_nodes_for(oid):
            return
        replicas = replicas.restricted_to(self.node.live_nodes)
        if self.directory.merge(oid, o_ts, replicas):
            dur = self.node.durability
            if dur is not None:
                dur.log_own(oid, o_ts, replicas)
            self.counters.inc("dir_sync_applied")

    # ======================================================================
    # Recovery: view changes, barrier, arb-replay
    # ======================================================================

    def reset_for_restart(self) -> None:
        """Wipe volatile protocol state after a crash-restart.

        The store/directory are cleared by the recovery manager; here we
        drop every in-flight request, pending arbitration, replay, and
        barrier record from the dead incarnation.  ``_next_req_id`` is NOT
        reset: req-ids must stay unique across incarnations so a replay of
        a pre-crash request at a peer can never alias a fresh one.
        """
        self._reqs.clear()
        self._req_by_oid.clear()
        self._provisional.clear()
        self._pending_arb.clear()
        self._replays.clear()
        self._recovered.clear()
        self._lifecycle.clear()
        # Barrier re-arms: the rejoiner must hear LIFTED for the admit
        # epoch (or a later one) before serving ownerless objects.
        self._lifted_epoch = 0

    def _on_view_change(self, epoch: int, live: frozenset) -> None:
        if self.directory is not None:
            self.directory.strip_dead(live)
        for obj in self.store:
            if obj.o_replicas is not None and obj.o_replicas.owner == self.node_id:
                obj.o_replicas = obj.o_replicas.restricted_to(live)

    def broadcast_recovered(self, epoch: int) -> None:
        """Called by the commit manager once this node has drained all
        pending reliable commits of dead coordinators."""
        live = self.node.live_nodes
        for dnode in self.catalog.directory_nodes():
            if dnode in live:
                self.node.send(dnode, KIND_RECOVERED,
                               (epoch, self.node_id), 16)

    def _on_recovered(self, msg: Message) -> None:
        epoch, node_id = msg.payload
        if epoch != self.node.epoch or self.directory is None:
            return
        done = self._recovered.setdefault(epoch, set())
        done.add(node_id)
        if done >= self.node.live_nodes:
            for nid in self.node.live_nodes:
                self.node.send(nid, KIND_LIFTED, epoch, 16)

    def _on_lifted(self, msg: Message) -> None:
        epoch = msg.payload
        if epoch != self.node.epoch or epoch <= self._lifted_epoch:
            return
        self._lifted_epoch = epoch
        self._initiate_replays()

    def _initiate_replays(self) -> None:
        """Arb-replay every pending arbitration the epoch bump interrupted.

        Two cases need a replay (Section 4.1, failure recovery):

        * participants include dead nodes — any surviving arbiter replays
          so the arbitration can settle without them;
        * *all* participants survived but the view still changed (a node
          was admitted or gracefully retired).  The epoch fence dropped
          every in-flight INV/ACK of the old epoch, so nobody will
          finish the arbitration either — the **driver** re-drives it in
          the new epoch.  Without this, an admission view can strand a
          directory entry in Drive state forever, and every later request
          for the object livelocks on BUSY_ARBITRATION NACKs.
        """
        live = self.node.live_nodes
        for oid, inv in list(self._pending_arb.items()):
            participants = set(inv.arbiters) | {inv.requester}
            if participants <= live and inv.o_ts.node_id != self.node_id:
                continue  # all live and someone else drives: theirs to fix
            self._start_replay(inv)

    def _start_replay(self, inv: OwnInv) -> None:
        live = self.node.live_nodes
        live_arbiters = tuple(a for a in inv.arbiters if a in live)
        replay_inv = inv._replace(arbiters=live_arbiters, replay=True)
        ctx = _ReplayCtx(replay_inv)
        self._replays[inv.req_id] = ctx
        self.counters.inc("arb_replay")
        for arb in live_arbiters:
            if arb != self.node_id:
                self.node.send(arb, KIND_INV, replay_inv, replay_inv.size)
        # We hold the same pending arbitration ourselves: self-ACK.
        ctx.acks.add(self.node_id)
        self._check_replay_done(ctx)

    def _check_replay_done(self, ctx: _ReplayCtx) -> None:
        inv = ctx.inv
        if not ctx.acks.issuperset(inv.arbiters):
            return
        del self._replays[inv.req_id]
        live = self.node.live_nodes
        if inv.requester in live:
            data_source = inv.data_source if inv.data_source in live else None
            if data_source is None and inv.data_source is not None:
                # Re-pick a live reader that can supply the value.
                candidates = [r for r in inv.prev_replicas.readers if r in live]
                owner = inv.prev_replicas.owner
                if owner is not None and owner in live:
                    data_source = owner
                elif candidates:
                    data_source = candidates[0]
            resp = OwnResp(inv.req_id, inv.oid, inv.o_ts, inv.new_replicas,
                           inv.arbiters, data_source)
            self.node.send(inv.requester, KIND_RESP, resp, OwnResp.size)
        else:
            # Dead requester: the driver validates directly; the applied
            # replica set is stripped of dead nodes at every arbiter, so
            # the object simply ends up owner-less until the next write.
            val = OwnVal(inv.req_id, inv.oid, inv.o_ts)
            for arb in inv.arbiters:
                self.node.send(arb, KIND_VAL, val, OwnVal.size)

    # --------------------------------------------------- RESP + data fetch

    def _on_resp(self, msg: Message) -> None:
        resp: OwnResp = msg.payload
        if msg.epoch != self.node.epoch:
            return
        ctx = self._reqs.get(resp.req_id)
        if ctx is None:
            # The request is gone (watchdog fired, or an arb-replay after
            # an epoch bump re-offered an acquisition we abandoned).  The
            # arbiters are all invalidated waiting on our VAL; nobody else
            # will ever send it, so roll the arbitration back.
            self._send_abort(resp.req_id, resp.oid, resp.o_ts, resp.arbiters)
            self.counters.inc("stale_resp_abort")
            return
        # The arb-replay settled our request: finish it as if our own ACKs
        # had arrived, with the value fetched first if we hold none.
        ctx.o_ts = resp.o_ts
        ctx.new_replicas = resp.new_replicas
        ctx.arbiters = resp.arbiters
        ctx.data = ctx.data_version = None
        if (resp.data_source is not None
                and ctx.req_type in (ReqType.ACQUIRE_OWNER, ReqType.ADD_READER)
                and not self.store.has(ctx.oid)):
            self.node.send(resp.data_source, KIND_FETCH,
                           OwnFetch(resp.req_id, ctx.oid), OwnFetch.size)
            return
        self._apply_and_validate(ctx)

    def _on_fetch(self, msg: Message) -> None:
        fetch: OwnFetch = msg.payload
        obj = self.store.get(fetch.oid)
        if obj is None:
            # Our copy is gone (trimmed or reconciled away since the RESP
            # named us as the source): reply with an empty DATA so the
            # requester fails fast with NO_DATA instead of stalling until
            # its watchdog fires.
            empty = OwnData(fetch.req_id, fetch.oid, None, None)
            self.node.send(msg.src, KIND_DATA, empty, empty.size_with(0))
            self.counters.inc("fetch_source_gone")
            return
        data = OwnData(fetch.req_id, fetch.oid, obj.t_data, obj.t_version)
        self.node.send(msg.src, KIND_DATA, data,
                       data.size_with(self.catalog.size_of(fetch.oid)))

    def _on_data(self, msg: Message) -> None:
        payload: OwnData = msg.payload
        ctx = self._reqs.get(payload.req_id)
        if ctx is None:
            return  # the request finished while its value was in flight
        # An empty DATA (the source lost its copy) leaves data_version
        # None, and _apply_and_validate rolls the grant back.
        ctx.data = payload.data
        ctx.data_version = payload.data_version
        self._apply_and_validate(ctx)
