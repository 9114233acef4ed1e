"""Rejoin protocol: snapshot transfer + degree repair for restarted nodes.

The paper treats node recovery operationally ("a recovered or new node
... gets up-to-date by state transfer from the object replicas" — §6.1);
this module pins down the mechanism:

* **State transfer** — on the admit view, the rejoiner asks every live
  directory host for a snapshot of its directory shard.  Donors stream
  ``(oid, o_ts, replicas)`` entries in chunks; the rejoiner applies them
  under a strict ``o_ts >`` guard (a racing arbitration that already
  produced a newer entry locally always wins) and re-creates its own
  directory shard if it hosts one.  A donor dying mid-transfer just
  restarts the transfer against the survivors.

* **Catch-up / re-replication** — object *values* never ride the
  snapshot.  Instead the rejoiner walks the transferred entries and, for
  every replica set below target degree that it does not already belong
  to, issues an ordinary ``ADD_READER`` acquisition.  The ownership
  protocol's FETCH/DATA leg delivers the current value, and once the VAL
  lands the rejoiner is in the replica set — so any write racing the
  transfer reaches it through the normal reliable-commit path, guarded
  by version monotonicity.  Entries that *still list* the rejoiner (the
  directory never saw it leave, so an ``ADD_READER`` would no-op-grant
  without data) instead re-fetch the value directly from a live replica
  — membership in the set was never revoked, only the bytes were lost,
  and subsequent commits stream to the rejoiner anyway because it is
  listed.  Finally the rejoiner asks the donors to *scan* for residual
  deficits (multiple simultaneous crashes can leave holes one rejoiner
  cannot fill alone); donors hint the lowest-id candidate nodes, which
  repair themselves the same way.

Metrics: ``recovery.rejoins`` / ``transfer_chunks`` / ``transfer_bytes``
/ ``objects_repaired`` counters, ``recovery.catchup_us`` (admit →
transfer done) and ``recovery.mttr_us`` (crash → fully repaired)
histograms, and ``recovery.transfer`` / ``recovery.repair`` trace spans.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from ..cluster.node import Node
from ..net.message import Message, NodeId
from ..obs import TID_NET
from ..ownership.manager import KIND_DIR_SYNC, OwnershipManager
from ..ownership.messages import ReqType
from ..store.catalog import Catalog, ObjectId
from ..store.directory import DirectoryTable
from ..store.meta import Ots, OState, ReplicaSet, TState
from ..store.object_store import ObjectStore

__all__ = ["RecoveryManager"]

KIND_SNAP_REQ = "rec.snap_req"
KIND_SNAP_CHUNK = "rec.snap_chunk"
KIND_SNAP_DONE = "rec.snap_done"
KIND_REPAIR = "rec.repair"
KIND_REPAIR_SCAN = "rec.repair_scan"
KIND_FETCH = "rec.fetch"
KIND_DATA = "rec.data"
KIND_TAIL = "rec.tail"
KIND_TAIL_VER = "rec.tail_ver"
KIND_TAIL_DATA = "rec.tail_data"

#: Directory entries per snapshot chunk.
_CHUNK_ENTRIES = 32
#: Modeled wire size of one ``(oid, o_ts, replicas)`` snapshot entry.
_ENTRY_BYTES = 24
#: Pacing gap between chunks so the transfer does not monopolize a donor.
_CHUNK_GAP_US = 5.0
#: Degree-repair acquisition retry budget (arbitration can be busy).
_REPAIR_ATTEMPTS = 60
#: Repair retry backoff: exponential from the per-path base, capped here.
#: Jitter is a deterministic hash of (node, oid, attempt) — it spreads
#: herds of concurrent repairers without consuming any shared rng stream,
#: so adding a retry on one node never perturbs another node's schedule.
_BACKOFF_CAP_US = 3200.0
#: Convergence pause between cold-reconcile phases (a few wire round
#: trips; every reconcile message is on the reliable transport, so this
#: only needs to cover delivery, not loss).
_COLD_SETTLE_US = 400.0


class RecoveryManager:
    """Rejoin endpoint on one node: snapshot donor *and* recipient."""

    def __init__(self, node: Node, store: ObjectStore, catalog: Catalog,
                 directory: Optional[DirectoryTable],
                 ownership: OwnershipManager, commit) -> None:
        self.node = node
        self.sim = node.sim
        self.node_id = node.node_id
        self.store = store
        self.catalog = catalog
        self.directory = directory
        self.ownership = ownership
        self.commit = commit
        self.params = node.params

        #: Restarted and waiting for the admit view.
        self._awaiting = False
        self._crash_time: Optional[float] = None
        self._admitted_at: Optional[float] = None
        #: Donors whose SNAP_DONE is still outstanding (empty = no transfer).
        self._pending_donors: Set[NodeId] = set()
        #: Everything the snapshot taught us, for the repair pass.
        self._entries: Dict[ObjectId, Tuple[Ots, ReplicaSet]] = {}
        #: Objects a repair acquisition is already in flight for.
        self._repairing: Set[ObjectId] = set()
        #: Cold-restart reconcile state: armed flag, objects confirmed
        #: listed by the converged directory, and reader tail versions
        #: that arrived before the driver's TAIL did.
        self._cold_awaiting = False
        self._listed: Set[ObjectId] = set()
        self._tail_vers: Dict[ObjectId, Tuple[int, object, bool]] = {}
        #: Objects replay *floored* (version label kept, data is a
        #: pre-image) — a real tail at the same version outranks ours.
        self._floored: Set[ObjectId] = set()
        #: Open ``recovery.transfer`` span and its donor count.
        self._transfer_span = None
        #: Open ``recovery.quarantine`` span: restart → admit view.
        self._quarantine_span = None

        obs = node.obs
        self.tracer = obs.tracer
        self.counters = obs.registry.group("recovery", node=self.node_id)
        self._h_mttr = obs.registry.histogram("recovery.mttr_us",
                                              node=self.node_id)
        self._h_catchup = obs.registry.histogram("recovery.catchup_us",
                                                 node=self.node_id)

        node.register_handler(KIND_SNAP_REQ, self._on_snap_req)
        node.register_handler(KIND_SNAP_CHUNK, self._on_snap_chunk,
                              cost=0.2)
        node.register_handler(KIND_SNAP_DONE, self._on_snap_done)
        node.register_handler(KIND_REPAIR, self._on_repair)
        node.register_handler(KIND_REPAIR_SCAN, self._on_repair_scan)
        node.register_handler(KIND_FETCH, self._on_fetch)
        node.register_handler(KIND_DATA, self._on_data, cost=0.1)
        node.register_handler(KIND_TAIL, self._on_tail)
        node.register_handler(KIND_TAIL_VER, self._on_tail_ver)
        node.register_handler(KIND_TAIL_DATA, self._on_tail_data)
        node.add_view_listener(self._on_view_change)

    # ------------------------------------------------------------- restart

    def on_restart(self, crash_time_us: float) -> None:
        """Wipe all datastore + protocol state and arm the rejoin.

        Called by the cluster right after :meth:`Node.restart`, *before*
        membership re-admits the node — the node must look blank by the
        time the first post-admit message arrives.
        """
        self.store.clear()
        if self.directory is not None:
            self.directory.clear()
        self.ownership.reset_for_restart()
        self.commit.reset_for_restart()
        self._crash_time = crash_time_us
        self._admitted_at = None
        self._pending_donors.clear()
        self._entries.clear()
        self._repairing.clear()
        self._awaiting = True
        # The dead incarnation's spans stay open: they reach no export.
        self._transfer_span = self._quarantine_span = None
        tracer = self.tracer
        if tracer is not None:
            tracer.point("recovery.restart", "recovery", False, inc=int)(
                self.node_id, TID_NET, None, self.node.incarnation)
            # Quarantine window: the reboot drops all inbound traffic until
            # membership re-admits us (span closed at the admit view).
            self._quarantine_span = tracer.open(self.node_id)

    def on_join(self) -> None:
        """Arm the rejoin machinery for a *brand-new* node (live scale-out).

        Unlike :meth:`on_restart` there is no pre-crash state to wipe and
        no MTTR clock to start: the node is blank by construction.  It
        rides the same admit-view → snapshot-transfer → repair path as a
        restarted node, so a joiner learns the directory map — and, once
        the rebalancer moves replicas its way, the data — through the
        exact mechanism the rejoin audits already cover.
        """
        self._crash_time = None
        self._admitted_at = None
        self._pending_donors.clear()
        self._entries.clear()
        self._repairing.clear()
        self._awaiting = True
        self._transfer_span = self._quarantine_span = None
        self.counters.inc("joins")
        tracer = self.tracer
        if tracer is not None:
            tracer.point("recovery.join", "recovery", False, inc=int)(
                self.node_id, TID_NET, None, self.node.incarnation)
            self._quarantine_span = tracer.open(self.node_id)

    def on_cold_restart(self, outage_time_us: float,
                        floored: Iterable[ObjectId] = ()) -> None:
        """Arm the post-replay reconcile pass (cold start after power loss).

        Unlike :meth:`on_restart`, the replayed store/directory are *kept*
        — they are the durable truth the WAL replay just rebuilt.  What
        remains is cross-node reconciliation: each node's durable tail may
        be a few commits ahead of or behind its peers' (fsync batching is
        independent per node), and ownership records that straddled the
        outage can leave directory shards divergent.  The reconcile runs
        once the reformed membership view lands.

        ``floored`` names objects whose replay advanced the version counter
        past an undone write (see ``ReplayStats.floored``): their version
        label is authoritative but their *data* is a pre-image, so during
        the tail exchange a real surviving write at the same version wins.
        """
        self._crash_time = outage_time_us
        self._awaiting = False
        self._cold_awaiting = True
        self._admitted_at = None
        self._pending_donors.clear()
        self._entries.clear()
        self._repairing.clear()
        self._listed.clear()
        self._tail_vers.clear()
        self._floored = set(floored)
        tracer = self.tracer
        if tracer is not None:
            tracer.point("recovery.cold_restart", "recovery", False, inc=int)(
                self.node_id, TID_NET, None, self.node.incarnation)

    def _on_view_change(self, epoch: int, live: frozenset) -> None:
        if self._cold_awaiting and self.node_id in live:
            self._cold_awaiting = False
            self._admitted_at = self.sim.now
            self.counters.inc("cold_restarts")
            self.node.spawn(self._cold_reconcile(), name="cold-reconcile")
            return
        if self._awaiting and self.node_id in live:
            # The admit view: membership took us back — start catching up.
            self._awaiting = False
            self._admitted_at = self.sim.now
            self.counters.inc("rejoins")
            if self._quarantine_span is not None:
                self.tracer.point("recovery.quarantine", "recovery", True,
                                  inc=int, epoch=int)(
                    self._quarantine_span, self.node.incarnation, epoch)
                self._quarantine_span = None
            self._begin_transfer(live)
            return
        if self._pending_donors and not (self._pending_donors <= live):
            # A donor died mid-transfer; restart against the survivors
            # (re-applied chunks are harmless under the o_ts guard).
            self._begin_transfer(live)

    # ======================================================================
    # State transfer — recipient side
    # ======================================================================

    def _donors(self, live: frozenset) -> Tuple[NodeId, ...]:
        return tuple(d for d in range(self.catalog.num_nodes)
                     if d != self.node_id and d in live
                     and self.catalog.hosts_directory(d))

    def _begin_transfer(self, live: frozenset) -> None:
        donors = self._donors(live)
        tracer = self.tracer
        if tracer is not None and self._transfer_span is None:
            self._transfer_span = (tracer.open(self.node_id), len(donors))
        if not donors:
            # Nothing to learn from (single live node): repair is moot too.
            self._finish_transfer()
            return
        self._pending_donors = set(donors)
        for donor in donors:
            self.node.send(donor, KIND_SNAP_REQ, None, 16)

    def _on_snap_chunk(self, msg: Message) -> None:
        if not self._pending_donors:
            return  # late chunk from an aborted transfer
        entries = msg.payload
        self.counters.inc("transfer_chunks")
        self.counters.inc("transfer_bytes", len(entries) * _ENTRY_BYTES)
        live = self.node.live_nodes
        for oid, o_ts, replicas in entries:
            replicas = replicas.restricted_to(live)
            known = self._entries.get(oid)
            if known is None or o_ts > known[0]:
                self._entries[oid] = (o_ts, replicas)
            if (self.directory is not None
                    and self.catalog.hosts_directory(self.node_id)
                    and self.node_id in self.catalog.directory_nodes_for(oid)):
                entry = self.directory.get(oid)
                if entry is None:
                    self.directory.create(oid, replicas, o_ts)
                elif entry.o_state == OState.VALID and o_ts > entry.o_ts:
                    # Strict ``>``: an arbitration that settled here after
                    # the admit view is newer than any snapshot of the
                    # pre-crash past, and must not be regressed.
                    entry.o_ts = o_ts
                    entry.replicas = replicas

    def _on_snap_done(self, msg: Message) -> None:
        if msg.src not in self._pending_donors:
            return
        self._pending_donors.discard(msg.src)
        if not self._pending_donors:
            self._finish_transfer()

    def _finish_transfer(self) -> None:
        self._pending_donors.clear()
        if self._admitted_at is not None:
            self._h_catchup.record(self.sim.now - self._admitted_at)
        if self._transfer_span is not None:
            self.tracer.point("recovery.transfer", "recovery", True,
                              donors=int, entries=int)(
                *self._transfer_span, len(self._entries))
            self._transfer_span = None
        self.node.spawn(self._repair_pass(), name="recovery-repair")

    # ======================================================================
    # Re-replication (degree repair)
    # ======================================================================

    def _target_degree(self) -> int:
        live = self.node.live_nodes or frozenset({self.node_id})
        return min(self.catalog.replication_degree, len(live))

    def _current_replicas(self, oid: ObjectId) -> Optional[ReplicaSet]:
        if self.directory is not None:
            entry = self.directory.get(oid)
            if entry is not None:
                return entry.replicas
        known = self._entries.get(oid)
        return known[1] if known is not None else None

    def _repair_pass(self):
        tracer = self.tracer
        span = tracer.open(self.node_id) if tracer is not None else None
        for oid in sorted(self._entries):
            replicas = self._current_replicas(oid)
            if replicas is None:
                continue
            if self.node_id in replicas.all_nodes():
                # Still listed from before the crash: we are a valid member
                # of the set that merely lost its bytes (ADD_READER would
                # no-op-grant without data), so re-fetch the value.
                if not self.store.has(oid):
                    yield from self._refetch_with_retry(oid)
                continue
            if replicas.size() >= self._target_degree():
                continue
            yield from self._acquire_with_retry(oid)
        # Residual deficits (several simultaneous crashes leave holes one
        # rejoiner cannot fill): ask the donors to scan and hint.
        live = self.node.live_nodes
        for donor in self._donors(live):
            self.node.send(donor, KIND_REPAIR_SCAN, None, 16)
        if span is not None:
            tracer.point("recovery.repair", "recovery", True)(span)
        dur = self.node.durability
        if dur is not None:
            # The rejoin rebuilt the volatile state from donors; bring the
            # disk image up to date without waiting out a snapshot interval.
            dur.snapshot_soon()
        if self._crash_time is not None:
            self._h_mttr.record(self.sim.now - self._crash_time)
            self._crash_time = None
        if tracer is not None:
            tracer.point("recovery.complete", "recovery", False, inc=int)(
                self.node_id, TID_NET, None, self.node.incarnation)

    def _backoff_us(self, oid: ObjectId, attempt: int,
                    base_us: float) -> float:
        """Jittered exponential backoff for repair retries, capped at
        :data:`_BACKOFF_CAP_US`.  Jitter keeps 50–100% of the exponential
        step, derived from a deterministic hash so the schedule is
        reproducible and per-(node, oid) decorrelated."""
        from ..sim.rng import hash_str

        step = min(base_us * (2.0 ** attempt), _BACKOFF_CAP_US)
        jitter = (hash_str(f"repair-backoff/{self.node_id}/{oid}/{attempt}")
                  % 1024) / 1024.0
        return step * (0.5 + 0.5 * jitter)

    def _acquire_with_retry(self, oid: ObjectId):
        """Join ``oid``'s replica set via ADD_READER, retrying through
        transient NACKs (busy arbitration, recovery barrier) with jittered
        exponential backoff."""
        self._repairing.add(oid)
        try:
            for attempt in range(_REPAIR_ATTEMPTS):
                if self.store.has(oid):
                    break
                outcome = yield from self.ownership.acquire(
                    oid, ReqType.ADD_READER)
                if outcome.granted and self.store.has(oid):
                    break
                self.counters.inc("repair_retries")
                yield self._backoff_us(oid, attempt, 400.0)
            if self.store.has(oid):
                self.counters.inc("objects_repaired")
            else:
                self.counters.inc("repair_failed")
        finally:
            self._repairing.discard(oid)

    def _refetch_with_retry(self, oid: ObjectId):
        """Recover the value of an object we are still listed for,
        rotating through the live replicas until one answers."""
        self._repairing.add(oid)
        try:
            for attempt in range(_REPAIR_ATTEMPTS):
                if self.store.has(oid):
                    break
                replicas = self._current_replicas(oid)
                live = self.node.live_nodes
                sources = sorted(
                    n for n in (replicas.all_nodes() if replicas else ())
                    if n != self.node_id and n in live)
                if not sources:
                    break  # sole surviving member: the value died with us
                self.node.send(sources[attempt % len(sources)],
                               KIND_FETCH, oid, 16)
                if attempt:
                    self.counters.inc("repair_retries")
                yield self._backoff_us(oid, attempt, 300.0)
            if self.store.has(oid):
                self.counters.inc("objects_refetched")
            else:
                self.counters.inc("repair_failed")
        finally:
            self._repairing.discard(oid)

    def _on_data(self, msg: Message) -> None:
        oid, data, version = msg.payload
        if oid not in self._repairing:
            return  # late reply for a refetch that already completed
        obj = self.store.get(oid)
        if obj is None:
            o_ts, _snap_replicas = self._entries[oid]
            replicas = self._current_replicas(oid)
            if replicas is not None and replicas.owner == self.node_id:
                obj = self.store.create(oid, data, replicas, o_ts)
            else:
                obj = self.store.create(oid, data, None, o_ts)
            obj.t_version = version
        elif version > obj.t_version:
            obj.t_data = data
            obj.t_version = version

    # ======================================================================
    # Donor side
    # ======================================================================

    def _on_snap_req(self, msg: Message) -> None:
        requester = msg.src
        if self.directory is None:
            self.node.send(requester, KIND_SNAP_DONE, 0, 16)
            return
        self.counters.inc("snapshots_served")
        self.node.spawn(self._send_snapshot(requester),
                        name=f"snapshot-to-{requester}")

    def _send_snapshot(self, requester: NodeId):
        # Deterministic order; include non-VALID entries too — the o_ts
        # guard at the recipient makes a mid-arbitration value harmless,
        # and the settled arbitration follows via VAL or dir_sync.
        items = sorted(self.directory.items())
        for start in range(0, len(items), _CHUNK_ENTRIES):
            chunk = tuple([(oid, entry.o_ts, entry.replicas) for oid, entry
                           in items[start:start + _CHUNK_ENTRIES]])
            self.node.send(requester, KIND_SNAP_CHUNK, chunk,
                           len(chunk) * _ENTRY_BYTES)
            yield _CHUNK_GAP_US
        self.node.send(requester, KIND_SNAP_DONE, len(items), 16)

    def _on_fetch(self, msg: Message) -> None:
        obj = self.store.get(msg.payload)
        if obj is None:
            return  # the requester's retry loop will try another replica
        self.node.send(msg.src, KIND_DATA,
                       (obj.oid, obj.t_data, obj.t_version),
                       self.catalog.size_of(obj.oid) + 16)

    def _on_repair_scan(self, msg: Message) -> None:
        """Hint under-replicated objects to candidate nodes.

        The hint fan-out is deterministic (lowest-id candidates first) and
        idempotent: a hinted node that already replicates the object, or
        already has a repair in flight, drops the hint.
        """
        if self.directory is None:
            return
        live = self.node.live_nodes
        target = self._target_degree()
        for oid, entry in sorted(self.directory.items()):
            replicas = entry.replicas
            deficit = target - replicas.size()
            if deficit <= 0:
                continue
            candidates = sorted(live - replicas.all_nodes())
            for candidate in candidates[:deficit]:
                self.counters.inc("repair_hints")
                if candidate == self.node_id:
                    if not self.store.has(oid) and oid not in self._repairing:
                        self.node.spawn(self._acquire_with_retry(oid),
                                        name=f"repair-{oid}")
                else:
                    self.node.send(candidate, KIND_REPAIR, oid, 16)

    def _on_repair(self, msg: Message) -> None:
        oid: ObjectId = msg.payload
        if self.store.has(oid) or oid in self._repairing:
            return
        self.node.spawn(self._acquire_with_retry(oid),
                        name=f"repair-{oid}")

    # ======================================================================
    # Cold-restart reconcile (full-cluster power loss)
    # ======================================================================
    #
    # Replay restores each node to its own durable prefix; the prefixes
    # need not agree (per-node group fsync).  Three phases heal the gap:
    #
    # 1. **Directory convergence** — every directory host broadcasts its
    #    replayed shard, and every owner its replica-set view, to the other
    #    directory hosts; all merge under the usual ``o_ts >=`` guard, so
    #    all shards converge to the freshest durable ownership state.
    # 2. **Tail exchange** — per object, the minimum-id directory host
    #    sends the converged entry to every listed replica; readers report
    #    their durable (version, value) to the owner, which adopts the max
    #    and redistributes it.  This settles both divergence directions: a
    #    coordinator whose commit was undone at replay while a follower
    #    persisted it, and vice versa.  Adopted tails are re-logged
    #    (GRANT) so the reconcile itself is durable.
    # 3. **Stale drop** — objects replayed from an old image but absent
    #    from the converged directory (the node had been trimmed out of
    #    the replica set pre-outage) are dropped: they would never receive
    #    invalidations and would serve stale reads forever.

    def _cold_reconcile(self):
        tracer = self.tracer
        span = tracer.open(self.node_id) if tracer is not None else None
        preexisting = sorted(obj.oid for obj in self.store)
        live = self.node.live_nodes
        sent = 0
        if self.directory is not None:
            for oid, entry in sorted(self.directory.items()):
                for d in self.catalog.directory_nodes_for(oid):
                    if d != self.node_id and d in live:
                        self.node.send(d, KIND_DIR_SYNC,
                                       (oid, entry.o_ts, entry.replicas), 40)
                        sent += 1
                        if sent % 16 == 0:
                            yield 1.0
        for obj in sorted(self.store, key=lambda o: o.oid):
            rs = obj.o_replicas
            if rs is None or rs.owner != self.node_id:
                continue
            self._merge_dir_local(obj.oid, obj.o_ts, rs)
            for d in self.catalog.directory_nodes_for(obj.oid):
                if d != self.node_id and d in live:
                    self.node.send(d, KIND_DIR_SYNC, (obj.oid, obj.o_ts, rs),
                                   40)
                    sent += 1
                    if sent % 16 == 0:
                        yield 1.0
        yield _COLD_SETTLE_US
        if self.directory is not None:
            for oid, entry in sorted(self.directory.items()):
                hosts = [d for d in self.catalog.directory_nodes_for(oid)
                         if d in live]
                if not hosts or min(hosts) != self.node_id:
                    continue  # exactly one driver per object
                for nid in sorted(entry.replicas.all_nodes()):
                    if nid == self.node_id:
                        self._apply_tail(oid, entry.o_ts, entry.replicas)
                    else:
                        self.node.send(nid, KIND_TAIL,
                                       (oid, entry.o_ts, entry.replicas), 40)
                    sent += 1
                    if sent % 16 == 0:
                        yield 1.0
        yield _COLD_SETTLE_US
        for oid in preexisting:
            if oid not in self._listed and self.store.has(oid):
                self.store.drop(oid)
                self.counters.inc("stale_dropped")
        dur = self.node.durability
        if dur is not None:
            # Fold the reconciled state into a fresh disk image promptly.
            dur.snapshot_soon()
        if span is not None:
            tracer.point("recovery.cold_reconcile", "recovery", True,
                         listed=int)(span, len(self._listed))
        if self._admitted_at is not None:
            self._h_catchup.record(self.sim.now - self._admitted_at)
        if self._crash_time is not None:
            self._h_mttr.record(self.sim.now - self._crash_time)
            self._crash_time = None
        if tracer is not None:
            tracer.point("recovery.cold_complete", "recovery", False, inc=int)(
                self.node_id, TID_NET, None, self.node.incarnation)

    def _merge_dir_local(self, oid: ObjectId, o_ts: Ots,
                         replicas: ReplicaSet) -> None:
        """Apply an owner's replica-set view to our own shard (same
        ``o_ts >=`` guard the DIR_SYNC handler uses for remote views)."""
        if (self.directory is None
                or self.node_id not in self.catalog.directory_nodes_for(oid)):
            return
        entry = self.directory.get(oid)
        if entry is None:
            self.directory.create(oid, replicas, o_ts)
        elif entry.o_state == OState.VALID and o_ts >= entry.o_ts:
            entry.o_ts = o_ts
            entry.replicas = replicas

    def _apply_tail(self, oid: ObjectId, o_ts: Ots,
                    replicas: ReplicaSet) -> None:
        self._listed.add(oid)
        mine = replicas.owner == self.node_id
        obj = self.store.get(oid)
        if obj is not None and o_ts >= obj.o_ts:
            obj.o_ts = o_ts
            obj.o_replicas = replicas if mine else None
            obj.o_state = OState.VALID
        if not mine:
            # Report our durable tail to the owner (value rides along so
            # the owner can adopt a newer follower-persisted commit).  The
            # floored bit says "my version label is a replay floor over a
            # pre-image" — a real write at the same version beats it.
            size = (self.catalog.size_of(oid) if obj is not None else 0) + 24
            self.node.send(replicas.owner, KIND_TAIL_VER,
                           (oid, obj.t_version if obj is not None else -1,
                            obj.t_data if obj is not None else None,
                            oid in self._floored), size)
            return
        if obj is None:
            # Owner lost its copy (image predated the grant); readers'
            # TAIL_VER replies below carry the value back.
            obj = self.store.create(oid, None, replicas, o_ts)
            obj.t_version = -1
        pend = self._tail_vers.pop(oid, None)
        if pend is not None:
            self._adopt_tail(obj, pend[0], pend[1], pend[2])

    def _outranked(self, oid: ObjectId, mine: int, theirs: int,
                   theirs_floored: bool) -> bool:
        """True when a reported tail (version, floored-bit) beats ours."""
        if theirs > mine:
            return True
        return (theirs == mine and not theirs_floored
                and oid in self._floored)

    def _adopt_tail(self, obj, version: int, data,
                    floored: bool = False) -> None:
        if not self._outranked(obj.oid, obj.t_version, version, floored):
            return
        obj.t_data = data
        obj.t_version = version
        obj.t_state = TState.VALID
        if floored:
            self._floored.add(obj.oid)
        else:
            self._floored.discard(obj.oid)
        dur = self.node.durability
        if dur is not None:
            dur.log_grant(obj.oid, obj.o_ts, obj.o_replicas, version, data,
                          self.catalog.size_of(obj.oid))
        self.counters.inc("tail_reconciled")

    def _on_tail(self, msg: Message) -> None:
        oid, o_ts, replicas = msg.payload
        self._apply_tail(oid, o_ts, replicas)

    def _on_tail_ver(self, msg: Message) -> None:
        oid, version, data, flr = msg.payload
        obj = self.store.get(oid)
        if obj is None:
            # The driver's TAIL has not landed here yet; stash the
            # freshest report and apply it when it does.
            best = self._tail_vers.get(oid)
            if best is None or (version > best[0]
                                or (version == best[0] and best[2]
                                    and not flr)):
                self._tail_vers[oid] = (version, data, flr)
            return
        if self._outranked(oid, obj.t_version, version, flr):
            self._adopt_tail(obj, version, data, flr)
            rs = obj.o_replicas
            for nid in (sorted(rs.readers) if rs is not None else ()):
                self.node.send(nid, KIND_TAIL_DATA,
                               (oid, obj.t_version, obj.t_data, obj.o_ts,
                                oid in self._floored),
                               self.catalog.size_of(oid) + 24)
        elif version < obj.t_version or (version == obj.t_version
                                         and flr
                                         and oid not in self._floored):
            self.node.send(msg.src, KIND_TAIL_DATA,
                           (oid, obj.t_version, obj.t_data, obj.o_ts,
                            oid in self._floored),
                           self.catalog.size_of(oid) + 24)

    def _on_tail_data(self, msg: Message) -> None:
        oid, version, data, o_ts, flr = msg.payload
        self._listed.add(oid)
        obj = self.store.get(oid)
        if obj is None:
            obj = self.store.create(oid, data, None, o_ts)
            obj.t_version = version
            if flr:
                self._floored.add(oid)
            self.counters.inc("tail_reconciled")
        else:
            self._adopt_tail(obj, version, data, flr)
