"""The one way back for a node: every reboot, join and cold restart.

The paper treats node recovery operationally ("a recovered or new node
... gets up-to-date by state transfer from the object replicas" — §6.1);
this module pins down the mechanism.  A node comes back one of three ways,
each one entry that runs the whole sequence: :meth:`RecoveryManager.rejoin`
(a crashed node reboots and wipes its store, directory shard, disk image
and protocol state), :meth:`~RecoveryManager.join` (a brand-new node of a
live scale-out) and :meth:`~RecoveryManager.cold_restart` (after a
full-cluster power loss: replay the durable image, then reconcile with
the peers).  Where a node is on its way back is one field,
:attr:`RecoveryManager.phase`.  The admit view of a rejoin or join starts:

* **State transfer** — the rejoiner asks every live directory host for a
  snapshot of its directory shard.  Donors stream ``(oid, o_ts,
  replicas)`` entries in chunks; the rejoiner applies them under a strict
  ``o_ts >`` guard (a racing arbitration that already produced a newer
  entry locally always wins) and re-creates its own directory shard if it
  hosts one.  A donor dying mid-transfer restarts the transfer against
  the survivors.

* **Catch-up / re-replication** — object *values* never ride the
  snapshot.  Instead the rejoiner walks the transferred entries and, for
  every replica set below target degree that it does not already belong
  to, issues an ordinary ``ADD_READER`` acquisition.  The ownership
  protocol's FETCH/DATA leg delivers the current value, and once the VAL
  lands the rejoiner is in the replica set — so any write racing the
  transfer reaches it through the normal reliable-commit path, guarded
  by version monotonicity.  An entry that *still lists* the rejoiner
  instead has the value re-fetched directly from a live replica (an
  ``ADD_READER`` would no-op-grant without data).  No measured run has
  taken that branch: membership admits a rejoiner only after its eviction
  view, on which every live directory host drops it from every replica
  set, and what else could list it is not known.  Finally the rejoiner
  asks the donors to *scan* for residual deficits (several simultaneous
  crashes can leave holes one rejoiner cannot fill alone); donors hint the
  lowest-id candidate nodes, which repair themselves the same way.

Metrics: ``recovery.rejoins`` / ``joins`` / ``cold_restarts`` /
``transfer_chunks`` / ``transfer_bytes`` / ``objects_repaired`` /
``objects_refetched`` / ``repair_hints`` counters, ``recovery.catchup_us``
(admit → transfer done) and ``recovery.mttr_us`` (crash → fully repaired)
histograms, and ``recovery.transfer`` / ``recovery.repair`` trace spans.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Optional, Set, Tuple

from ..cluster.node import Node
from ..net.message import Message, NodeId
from ..obs import TID_NET
from ..ownership.manager import KIND_DIR_SYNC, OwnershipManager
from ..ownership.messages import ReqType
from ..store.catalog import Catalog, ObjectId
from ..store.directory import DirectoryTable
from ..sim.rng import hash_str
from ..store.meta import Ots, OState, ReplicaSet, TState
from ..store.object_store import ObjectStore
from ..store.wal import ReplayStats

__all__ = ["Phase", "RecoveryManager"]

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


class Phase(Enum):
    """Where a node is on its way back."""

    UP = "up"                # serving: nothing to recover
    ADMIT = "admit"          # rebooted or joining: quarantined until admitted
    REFORM = "reform"        # cold-started: waiting for the reformed view
    TRANSFER = "transfer"    # pulling directory snapshots from the donors
    REPAIR = "repair"        # restoring degree, re-fetching lost values
    RECONCILE = "reconcile"  # cold restart: exchanging durable tails


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

        self.phase = Phase.UP
        self._crash_time: Optional[float] = None
        self._admitted_at: Optional[float] = None
        #: Donors whose SNAP_DONE is still outstanding (empty = no transfer).
        self._pending_donors: Set[NodeId] = set()
        #: Everything the snapshot taught us, for the repair pass.
        self._entries: Dict[ObjectId, Tuple[Ots, ReplicaSet]] = {}
        #: Objects a repair acquisition is already in flight for.
        self._repairing: Set[ObjectId] = set()
        #: Cold-restart reconcile state: objects confirmed listed by the
        #: converged directory, and reader tail versions that arrived
        #: before the driver's TAIL did.
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

    # ------------------------------------------------------ ways back in

    def rejoin(self, crash_time_us: float) -> None:
        """Reboot a crashed node and arm its state transfer.

        Runs before membership re-admits the node: it must look blank by
        the time the first post-admit message arrives.  The old disk image
        is retired too — the node rebuilds from live donors, and the
        snapshot loop captures the transferred state.
        """
        self.node.restart()
        self._wipe(replay=False)
        self._arm(Phase.ADMIT, crash_time_us, "recovery.restart")

    def join(self, loaded: bool) -> None:
        """Quarantine a brand-new node (live scale-out) until admitted.

        There is no pre-crash state to wipe and no MTTR clock to start:
        the node is blank by construction.  It rides the same admit-view →
        snapshot-transfer → repair path as a rejoiner, so a joiner learns
        the directory map — and, once the rebalancer moves replicas its
        way, the data — through the mechanism the rejoin audits cover.
        A durable joiner of a ``loaded`` cluster installs its genesis
        snapshot now (``ZeusCluster.load`` starts the others).
        """
        self.node.begin_join()
        dur = self.node.durability
        if loaded and dur is not None:
            dur.start()
        self.counters.inc("joins")
        self._arm(Phase.ADMIT, None, "recovery.join")

    def cold_restart(self, outage_time_us: float) -> Optional[ReplayStats]:
        """Reboot after a full power loss and replay the durable image.

        Unlike :meth:`rejoin`, the replayed store/directory are *kept* —
        they are the durable truth.  What remains is cross-node
        reconciliation: each node's durable tail may be a few commits
        ahead of or behind its peers' (fsync batching is independent per
        node), and ownership records that straddled the outage can leave
        directory shards divergent.  The reconcile runs once the reformed
        view lands.  Returns the replay stats (``None`` without a
        durability tier: the node comes back empty).

        Objects whose replay advanced the version counter past an undone
        write (``ReplayStats.floored``) keep an authoritative version label
        over pre-image *data*, so during the tail exchange a real
        surviving write at the same version wins.
        """
        self.node.restart()
        stats = self._wipe(replay=True)
        self._arm(Phase.REFORM, outage_time_us, "recovery.cold_restart",
                  stats.floored if stats is not None else ())
        return stats

    def _wipe(self, replay: bool) -> Optional[ReplayStats]:
        """Forget the dead incarnation's datastore and protocol state;
        with ``replay``, rebuild the datastore from the disk image,
        otherwise retire the image."""
        self.store.clear()
        if self.directory is not None:
            self.directory.clear()
        stats = None
        dur = self.node.durability
        if dur is not None:
            if replay:
                stats = dur.replay()
            dur.on_restart(wipe=not replay)
        self.ownership.reset_for_restart()
        self.commit.reset_for_restart()
        return stats

    def _arm(self, phase: Phase, crash_time: Optional[float], point: str,
             floored: Iterable[ObjectId] = ()) -> None:
        """Reset every per-incarnation field and wait in ``phase``."""
        self.phase = phase
        self._crash_time = crash_time
        self._admitted_at = None
        self._pending_donors.clear()
        self._entries.clear()
        self._repairing.clear()
        self._listed.clear()
        self._tail_vers.clear()
        self._floored = set(floored)
        # The dead incarnation's spans stay open: they reach no export.
        self._transfer_span = self._quarantine_span = None
        tracer = self.tracer
        if tracer is not None:
            tracer.point(point, "recovery", False, inc=int)(
                self.node_id, TID_NET, None, self.node.incarnation)
            if phase is Phase.ADMIT:
                # Quarantine window: all inbound traffic is dropped until
                # membership admits us (span closed at the admit view).
                self._quarantine_span = tracer.open(self.node_id)

    def _on_view_change(self, epoch: int, live: frozenset) -> None:
        phase = self.phase
        if phase is Phase.TRANSFER:
            if not (self._pending_donors <= live):
                # A donor died mid-transfer; restart against the survivors
                # (re-applied chunks are harmless under the o_ts guard).
                self._begin_transfer(live)
            return
        if self.node_id not in live:
            return
        if phase is Phase.REFORM:
            self.phase = Phase.RECONCILE
            self._admitted_at = self.sim.now
            self.counters.inc("cold_restarts")
            self.node.spawn(self._cold_reconcile(), name="cold-reconcile")
        elif phase is Phase.ADMIT:
            # The admit view: membership took us back — start catching up.
            self._admitted_at = self.sim.now
            self.counters.inc("rejoins")
            if self._quarantine_span is not None:
                self.tracer.point("recovery.quarantine", "recovery", True,
                                  inc=int, epoch=int)(
                    self._quarantine_span, self.node.incarnation, epoch)
                self._quarantine_span = None
            self._begin_transfer(live)

    def _complete(self, point: str) -> None:
        """Shared tail of the repair pass and the cold reconcile."""
        self.phase = Phase.UP
        dur = self.node.durability
        if dur is not None:
            # The pass rebuilt the volatile state; bring the disk image up
            # to date without waiting out a snapshot interval.
            dur.snapshot_soon()
        if self._crash_time is not None:
            self._h_mttr.record(self.sim.now - self._crash_time)
            self._crash_time = None
        tracer = self.tracer
        if tracer is not None:
            tracer.point(point, "recovery", False, inc=int)(
                self.node_id, TID_NET, None, self.node.incarnation)

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
        self.phase = Phase.TRANSFER
        self._pending_donors = set(donors)
        for donor in donors:
            self.node.send(donor, KIND_SNAP_REQ, None, 16)

    def _on_snap_chunk(self, msg: Message) -> None:
        if self.phase is not Phase.TRANSFER:
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
                # Strict: an arbitration that settled here after the admit
                # view is newer than any snapshot of the pre-crash past,
                # and must not be regressed.
                self.directory.merge(oid, o_ts, replicas, strict=True)

    def _on_snap_done(self, msg: Message) -> None:
        if msg.src not in self._pending_donors:
            return
        self._pending_donors.discard(msg.src)
        if not self._pending_donors:
            self._finish_transfer()

    def _finish_transfer(self) -> None:
        self.phase = Phase.REPAIR
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
                # Still listed: we are a valid member of the set that
                # merely lost its bytes, so re-fetch the value.
                if not self.store.has(oid):
                    yield from self._fill(oid, refetch=True)
                continue
            if replicas.size() >= self._target_degree():
                continue
            yield from self._fill(oid, refetch=False)
        # Residual deficits (several simultaneous crashes leave holes one
        # rejoiner cannot fill): ask the donors to scan and hint.
        live = self.node.live_nodes
        for donor in self._donors(live):
            self.node.send(donor, KIND_REPAIR_SCAN, None, 16)
        if span is not None:
            tracer.point("recovery.repair", "recovery", True)(span)
        self._complete("recovery.complete")

    def _backoff_us(self, oid: ObjectId, attempt: int,
                    base_us: float) -> float:
        """Jittered exponential backoff for repair retries, capped at
        :data:`_BACKOFF_CAP_US`.  Jitter keeps 50–100% of the exponential
        step, derived from a deterministic hash so the schedule is
        reproducible and per-(node, oid) decorrelated."""
        step = min(base_us * (2.0 ** attempt), _BACKOFF_CAP_US)
        jitter = (hash_str(f"repair-backoff/{self.node_id}/{oid}/{attempt}")
                  % 1024) / 1024.0
        return step * (0.5 + 0.5 * jitter)

    def _fill(self, oid: ObjectId, refetch: bool):
        """Get a copy of ``oid``, retrying with jittered exponential
        backoff until the store has it.

        ``refetch`` re-fetches the value of an object we are still listed
        for, rotating through the live replicas until one answers.
        Otherwise we join the replica set via ADD_READER, retrying through
        transient NACKs (busy arbitration, recovery barrier)."""
        self._repairing.add(oid)
        try:
            for attempt in range(_REPAIR_ATTEMPTS):
                if self.store.has(oid):
                    break
                if refetch:
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
                else:
                    outcome = yield from self.ownership.acquire(
                        oid, ReqType.ADD_READER)
                    if outcome.granted and self.store.has(oid):
                        break
                    self.counters.inc("repair_retries")
                yield self._backoff_us(oid, attempt,
                                       300.0 if refetch else 400.0)
            if not self.store.has(oid):
                self.counters.inc("repair_failed")
            else:
                self.counters.inc("objects_refetched" if refetch
                                  else "objects_repaired")
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
            if replicas is not None and replicas.owner != self.node_id:
                replicas = None  # a reader keeps no replica set
            obj = self.store.create(oid, data, replicas, o_ts)
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
                        self.node.spawn(self._fill(oid, refetch=False),
                                        name=f"repair-{oid}")
                else:
                    self.node.send(candidate, KIND_REPAIR, oid, 16)

    def _on_repair(self, msg: Message) -> None:
        oid: ObjectId = msg.payload
        if self.store.has(oid) or oid in self._repairing:
            return
        self.node.spawn(self._fill(oid, refetch=False),
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
        directory = self.directory
        sent = 0
        if directory is not None:
            for oid, entry in sorted(directory.items()):
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
            dirs = self.catalog.directory_nodes_for(obj.oid)
            if directory is not None and self.node_id in dirs:
                directory.merge(obj.oid, obj.o_ts, rs)
            for d in dirs:
                if d != self.node_id and d in live:
                    self.node.send(d, KIND_DIR_SYNC, (obj.oid, obj.o_ts, rs),
                                   40)
                    sent += 1
                    if sent % 16 == 0:
                        yield 1.0
        yield _COLD_SETTLE_US
        if directory is not None:
            for oid, entry in sorted(directory.items()):
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
        if span is not None:
            tracer.point("recovery.cold_reconcile", "recovery", True,
                         listed=int)(span, len(self._listed))
        if self._admitted_at is not None:
            self._h_catchup.record(self.sim.now - self._admitted_at)
        self._complete("recovery.cold_complete")

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

    def _adopt_tail(self, obj, version: int, data,
                    floored: bool = False) -> None:
        if not _beats(version, floored, obj.t_version,
                      obj.oid in self._floored):
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
            if best is None or _beats(version, flr, best[0], best[2]):
                self._tail_vers[oid] = (version, data, flr)
            return
        ours = (obj.t_version, oid in self._floored)
        if _beats(version, flr, *ours):
            # The reader's tail wins: adopt it and push it to every reader.
            self._adopt_tail(obj, version, data, flr)
            rs = obj.o_replicas
            to = sorted(rs.readers) if rs is not None else ()
        elif _beats(*ours, version, flr):
            to = (msg.src,)  # ours wins: send it back to the reporter
        else:
            return
        for nid in to:
            self.node.send(nid, KIND_TAIL_DATA,
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


def _beats(version: int, floored: bool, other: int,
           other_floored: bool) -> bool:
    """Whether a durable tail outranks another: the higher version, or at
    the same version a real write over a replay floor."""
    return version > other or (version == other and not floored
                               and other_floored)
