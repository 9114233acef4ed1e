"""Interactive transactions: the ``tr_*`` API of Section 7.

A :class:`Transaction` mirrors the paper's transactional-memory API:
``tr_create`` … ``tr_open_read`` / ``tr_open_write`` … ``tr_commit`` /
``tr_abort``.  All potentially blocking steps are generators (used with
``yield from`` inside an application-thread process):

* ``open_write`` requires the node to *own* the object; if it does not,
  the ownership protocol runs and the application thread stalls — the only
  blocking point in Zeus (Section 3.2's deliberate trade-off).
* ``open_read`` requires at least *reader* level; reads at the owner take
  the local thread lock, reads at a reader pass the read rule of
  :class:`~repro.store.object_store.StoredObject` when opened and again at
  commit, at the version read (the invalidation-based scheme of Section
  5.3 makes this sufficient).
* ``commit`` performs the local commit (irrevocable, so write transactions
  have opacity: any abort happens before it) and then hands the update set
  to the reliable-commit pipeline without blocking.

Local multi-thread isolation follows Section 7: each executing thread must
become the *local* owner of every object it touches, implemented with
per-object thread locks; conflicts abort-and-retry with back-off rather
than block, which keeps the per-thread pipelines independent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from ..commit.manager import CommitManager
from ..ownership.manager import OwnershipManager
from ..ownership.messages import ReqType
from ..store.catalog import Catalog, ObjectId
from ..store.meta import OState, TState
from ..store.object_store import ObjectStore, StoredObject
from .errors import AbortReason, TxnAborted

__all__ = ["Transaction", "ReadOnlyTransaction", "TxnStats"]

#: Version increment applied at local commit.  Test-only hook: the history
#: checker's self-test (``tests/test_history.py``) sets this to 0 to model
#: a broken commit path where concurrent writers silently install the same
#: version — a lost update the strict-serializability checker must catch.
#: Always 1 in production; read through the module at commit time so
#: monkeypatching takes effect.
VERSION_BUMP = 1


class TxnStats:
    """Per-transaction bookkeeping surfaced to workload drivers."""

    __slots__ = ("ownership_requests", "acquired_objects")

    def __init__(self) -> None:
        self.ownership_requests = 0
        self.acquired_objects = 0


class _TxnBase:
    __slots__ = ("node", "store", "catalog", "ownership", "commit_mgr",
                 "thread", "params", "stats", "ctx", "hop", "lop",
                 "_h_reads")

    def __init__(self, node, store: ObjectStore, catalog: Catalog,
                 ownership: OwnershipManager, commit_mgr: CommitManager,
                 thread: int):
        self.node = node
        self.store = store
        self.catalog = catalog
        self.ownership = ownership
        self.commit_mgr = commit_mgr
        self.thread = thread
        self.params = node.params
        self.stats = TxnStats()
        #: Trace context of the enclosing transaction span (set by the API
        #: layer when tracing); threaded into ownership acquires and the
        #: reliable-commit submit so remote work links back to this txn.
        self.ctx = None
        #: History op of the enclosing logical transaction (set by the API
        #: layer when history recording is on).  Reads are staged per
        #: attempt and only flushed at commit, so aborted attempts leave
        #: no trace in the client-observable history.
        self.hop = None
        #: Locality op of the enclosing logical transaction (set by the
        #: API layer when the locality recorder is on); granted ownership
        #: acquisitions are appended so commit-time classification knows
        #: which objects made this transaction remote.
        self.lop = None
        self._h_reads: List[Tuple[ObjectId, int, float]] = []


class Transaction(_TxnBase):
    """A write transaction (``tr_create``)."""

    __slots__ = ("_locked", "_private", "_write_set", "_read_versions",
                 "_finished")

    def __init__(self, node, store, catalog, ownership, commit_mgr, thread):
        super().__init__(node, store, catalog, ownership, commit_mgr, thread)
        self._locked: List[StoredObject] = []
        self._private: Dict[ObjectId, Any] = {}
        self._write_set: List[StoredObject] = []
        self._read_versions: List[Tuple[StoredObject, int]] = []
        self._finished = False

    # ------------------------------------------------------------- opening

    def open_write(self, oid: ObjectId):
        """Generator: open ``oid`` for writing; returns its private copy."""
        obj = yield from self._ensure_owner(oid)
        self._lock(obj)
        size = self.catalog.size_of(oid)
        yield self.params.open_write_us + size * self.params.copy_us_per_byte
        if oid not in self._private:
            self._private[oid] = obj.t_data
            self._write_set.append(obj)
        return self._private[oid]

    def open_read(self, oid: ObjectId):
        """Generator: open ``oid`` for reading; returns its value."""
        if oid in self._private:
            return self._private[oid]
        obj = yield from self._ensure_replica(oid)
        yield self.params.open_read_us
        if obj.o_replicas is not None and obj.o_replicas.owner == self.node.node_id:
            self._lock(obj)
            if self.hop is not None:
                self._h_reads.append((oid, obj.t_version, self.node.sim.now))
            return obj.t_data
        # Reader-level read: the read rule now (StoredObject), again at
        # commit at the version read.
        if obj.o_state == OState.INVALID or obj.t_state != TState.VALID:
            self._abort_now(AbortReason.OBJECT_INVALID)
        self._read_versions.append((obj, obj.t_version))
        if self.hop is not None:
            self._h_reads.append((oid, obj.t_version, self.node.sim.now))
        return obj.t_data

    def write(self, oid: ObjectId, value: Any) -> None:
        """Update the private copy of a write-opened object."""
        if oid not in self._private:
            raise RuntimeError(f"object {oid} not opened for write")
        self._private[oid] = value

    # ----------------------------------------------------------- lifecycle

    def commit(self):
        """Generator: local commit, then pipelined reliable commit.

        Returns True.  Raises :class:`TxnAborted` when read validation
        fails; the caller retries with back-off.  Never blocks on
        replication unless the thread's pipeline is at max depth.
        """
        p = self.params
        yield p.local_commit_us + len(self._write_set) * p.local_commit_per_obj_us
        # Validate reader-level reads: the invalidation-based commit means
        # a consistent snapshot iff every read copy still passes the read
        # rule at the same version.
        for obj, version in self._read_versions:
            if (obj.o_state == OState.INVALID or obj.t_state != TState.VALID
                    or obj.t_version != version):
                self._abort_now(AbortReason.READ_CONFLICT)

        updates = []
        pre = []
        followers: Set[int] = set()
        hop = self.hop
        hist = self.node.obs.history if hop is not None else None
        dur = self.node.durability
        install_at = self.node.sim.now
        for obj in self._write_set:
            if dur is not None:
                pre.append((obj.oid, obj.t_version, obj.t_data))
            obj.t_data = self._private[obj.oid]
            obj.t_version += VERSION_BUMP
            obj.t_state = TState.WRITE
            size = self.catalog.size_of(obj.oid)
            updates.append((obj.oid, obj.t_version, obj.t_data, size))
            if obj.o_replicas is not None:
                followers.update(obj.o_replicas.readers)
            if hist is not None:
                hist.write(hop, obj.oid, obj.t_version, install_at)
        if hist is not None:
            # Local commit is the irrevocable point: reads and writes enter
            # the history here, before replication (which may outlive us).
            for oid, version, at in self._h_reads:
                hist.read(hop, oid, version, at)
        self._release_locks()
        self._finished = True
        if updates:
            # The REDO record (with pre-images) is logged *before* the
            # wait-for-room yield: a snapshot captured while we block must
            # already hold the undo information for our installed writes.
            wal_key = (dur.log_redo_coord(self.thread, updates, pre)
                       if dur is not None else None)
            yield from self.commit_mgr.wait_for_room(self.thread, ctx=self.ctx)
            self.commit_mgr.submit(self.thread, updates, followers,
                                   ctx=self.ctx, wal_key=wal_key, hop=hop)
        elif hist is not None:
            hist.mark_durable(hop)
        return True

    def abort(self) -> None:
        """Roll back: private copies vanish, locks release (opacity)."""
        self._release_locks()
        self._private.clear()
        self._write_set.clear()
        self._read_versions.clear()
        self._h_reads.clear()
        self._finished = True

    # ------------------------------------------------------------ internal

    def _abort_now(self, reason: str) -> None:
        self.abort()
        raise TxnAborted(reason)

    def _lock(self, obj: StoredObject) -> None:
        if obj.locked_by is None:
            obj.locked_by = (self.node.node_id, self.thread)
            self._locked.append(obj)
        elif obj.locked_by != (self.node.node_id, self.thread):
            # Local contention: abort immediately and let the caller back
            # off — blocking would stall the whole pipeline.
            self._abort_now(AbortReason.LOCK_CONFLICT)

    def _release_locks(self) -> None:
        me = (self.node.node_id, self.thread)
        for obj in self._locked:
            if obj.locked_by == me:
                obj.locked_by = None
        self._locked.clear()

    def _ensure_owner(self, oid: ObjectId):
        """Generator: block until this node owns ``oid`` (Prepare phase)."""
        for _attempt in range(64):
            obj = self.store.get(oid)
            if (obj is not None and obj.o_state == OState.VALID
                    and obj.o_replicas is not None
                    and obj.o_replicas.owner == self.node.node_id):
                return obj
            self.stats.ownership_requests += 1
            outcome = yield from self.ownership.acquire(
                oid, ReqType.ACQUIRE_OWNER, thread=self.thread, ctx=self.ctx)
            if outcome.granted:
                self.stats.acquired_objects += 1
                if self.lop is not None:
                    self.node.obs.locality.acquired(self.lop, oid, "owner")
                continue  # re-check level (coalesced requests may differ)
            self._abort_now(AbortReason.OWNERSHIP_DENIED)
        self._abort_now(AbortReason.OWNERSHIP_DENIED)

    def _ensure_replica(self, oid: ObjectId):
        """Generator: block until this node holds at least reader level."""
        for _attempt in range(64):
            obj = self.store.get(oid)
            if obj is not None and obj.o_state != OState.INVALID:
                return obj
            self.stats.ownership_requests += 1
            outcome = yield from self.ownership.acquire(
                oid, ReqType.ADD_READER, thread=self.thread, ctx=self.ctx)
            if outcome.granted:
                self.stats.acquired_objects += 1
                if self.lop is not None:
                    self.node.obs.locality.acquired(self.lop, oid, "reader")
                continue
            self._abort_now(AbortReason.OWNERSHIP_DENIED)
        self._abort_now(AbortReason.OWNERSHIP_DENIED)


class ReadOnlyTransaction(_TxnBase):
    """A read-only transaction (``tr_r_create``, Section 5.3).

    Executes locally on **any** replica — owner or reader — with no network
    traffic: buffer version+value per read, then commit iff every copy
    still passes the read rule (:class:`StoredObject`) at the buffered
    version.
    """

    __slots__ = ("_buffer", "values")

    def __init__(self, node, store, catalog, ownership, commit_mgr, thread):
        super().__init__(node, store, catalog, ownership, commit_mgr, thread)
        self._buffer: List[Tuple[StoredObject, int]] = []
        self.values: Dict[ObjectId, Any] = {}

    def open_read(self, oid: ObjectId):
        """Generator: read one object into the snapshot buffer."""
        obj = self.store.get(oid)
        if obj is not None and obj.o_state == OState.INVALID:
            # The read rule's o_state clause (StoredObject): not a replica
            # writers still invalidate.  Its t_state clause is tested once
            # the read is charged, and commit tests both.
            obj = None
        if obj is None:
            # Not a replica: acquire reader level (rare; the load balancer
            # routes read-only transactions to replicas).
            self.stats.ownership_requests += 1
            outcome = yield from self.ownership.acquire(
                oid, ReqType.ADD_READER, thread=self.thread, ctx=self.ctx)
            if not outcome.granted:
                raise TxnAborted(AbortReason.OWNERSHIP_DENIED)
            if self.lop is not None:
                self.node.obs.locality.acquired(self.lop, oid, "reader")
            obj = self.store.get(oid)
            if obj is None:
                raise TxnAborted(AbortReason.OWNERSHIP_DENIED)
        yield self.params.open_read_us
        if obj.t_state != TState.VALID:
            raise TxnAborted(AbortReason.OBJECT_INVALID)
        self._buffer.append((obj, obj.t_version))
        if self.hop is not None:
            self._h_reads.append((oid, obj.t_version, self.node.sim.now))
        self.values[oid] = obj.t_data
        return obj.t_data

    def commit(self):
        """Generator: verify the snapshot (the read rule at each buffered
        version) and commit."""
        yield self.params.local_commit_us
        for obj, version in self._buffer:
            if (obj.o_state == OState.INVALID or obj.t_state != TState.VALID
                    or obj.t_version != version):
                raise TxnAborted(AbortReason.READ_CONFLICT)
        hop = self.hop
        if hop is not None:
            hist = self.node.obs.history
            for oid, version, at in self._h_reads:
                hist.read(hop, oid, version, at)
            hist.mark_durable(hop)
        return True
