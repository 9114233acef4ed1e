"""Durable storage tier: per-node write-ahead log + crash-consistent snapshots.

The paper's Zeus is in-memory: "durable" means replicated, and a power loss
of every replica of a shard loses all of it.  This module adds the missing
tier.  Each node appends :class:`WalRecord`\\ s to an append-only
:class:`WriteAheadLog` served by a simulated :class:`~repro.sim.resources.DiskDevice`:

* ``REDO`` — a reliable-commit slot's updates *plus pre-images* (the undo
  information), written by the coordinator at local commit and by each
  follower when it applies the R-INV;
* ``COMMIT`` / ``ABORT`` — slot resolution (coordinator: all R-ACKs in;
  follower: R-VAL received; ABORT is only written by replay when it undoes
  an in-flight slot);
* ``GRANT`` — a settled ownership application at the requester (the store
  side of a migration: value, version, replica set, o_ts);
* ``OWN`` — a settled directory-entry update at a directory node;
* ``EPOCH`` — a membership epoch the node has observed.

Appends are volatile until an fsync barrier covers them.  ``fsync_policy
"group"`` batches appends for up to ``group_window_us`` before issuing one
barrier (group commit); ``"always"`` issues a barrier per append.  A crash
or power loss discards the un-fsynced tail and — via a token bump, the same
pattern as the cluster's slowdown windows — guarantees an in-flight
fsync completion scheduled before the crash can never resolve a durability
future after it (see ``Node.crash``).

Snapshots are crash-consistent: capture the state at one instant, *flush
the log past the capture point*, write the snapshot, and only then install
it and truncate.  Truncation keeps every record at or after the capture
point plus the REDO records of slots unresolved at capture (their pre-images
are the undo information replay needs).  A crash anywhere in the procedure
leaves the previous snapshot intact.

Replay (cold start) follows the classic redo→undo recovery of the
tippers-commit exemplar: restore the snapshot, redo every durably-committed
slot's updates (version-guarded, so records already reflected in the
snapshot are no-ops), re-apply durable ownership/directory records, then
undo in-flight slots in reverse log order from their pre-images, logging an
ABORT for each so the undo itself is durable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim.process import Future
from ..sim.resources import DiskDevice
from ..store.meta import OState, Ots, ReplicaSet, TState

__all__ = ["WalRecord", "WriteAheadLog", "DurabilityManager", "ReplayStats",
           "REDO", "COMMIT", "ABORT", "GRANT", "OWN", "EPOCH"]

REDO = "redo"
COMMIT = "commit"
ABORT = "abort"
GRANT = "grant"
OWN = "own"
EPOCH = "epoch"


class WalRecord:
    """One log record.  ``key`` identifies a reliable-commit slot
    (coordinator: ``("c", node, thread, seq)``; follower: ``("f", pipeline,
    slot)``) and ties its REDO to its COMMIT/ABORT."""

    __slots__ = ("lsn", "kind", "key", "updates", "pre", "oid", "o_ts",
                 "replicas", "version", "data", "epoch", "size")

    def __init__(self, kind: str, key=None, updates=None, pre=None,
                 oid=None, o_ts: Optional[Ots] = None,
                 replicas: Optional[ReplicaSet] = None, version=None,
                 data=None, epoch: Optional[int] = None, size: int = 0):
        self.lsn = -1
        self.kind = kind
        self.key = key
        #: REDO: the slot's updates as ``(oid, new_version, new_data, size)``.
        self.updates = updates
        #: REDO: pre-images as ``(oid, old_version, old_data)`` — undo info.
        self.pre = pre
        self.oid = oid
        self.o_ts = o_ts
        self.replicas = replicas
        self.version = version
        self.data = data
        self.epoch = epoch
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover
        what = self.key if self.key is not None else (self.oid, self.epoch)
        return f"WalRecord({self.lsn} {self.kind} {what})"


class ReplayStats:
    """Outcome of one cold-start replay."""

    __slots__ = ("records", "redo_applied", "undone", "grants", "own_applied",
                 "epoch", "replay_us", "snapshot_lsn", "floored")

    def __init__(self) -> None:
        self.records = 0
        self.redo_applied = 0
        self.undone = 0
        self.grants = 0
        self.own_applied = 0
        self.epoch = 0
        self.replay_us = 0.0
        self.snapshot_lsn = 0
        #: Objects whose version counter was advanced past an *undone*
        #: write's version so the label is never reissued for a different
        #: value.  Their data is the restored pre-image; a surviving real
        #:  tail at the same version (on another node) outranks them.
        self.floored: set = set()


class WriteAheadLog:
    """Append-only log with group-fsync batching and a snapshot anchor."""

    def __init__(self, sim, disk: DiskDevice, params, counters):
        self.sim = sim
        self.disk = disk
        self.params = params
        self.counters = counters
        #: All surviving records in LSN order: durable prefix + volatile tail.
        self._records: List[WalRecord] = []
        self._next_lsn = 0
        self._durable_lsn = -1
        self._pending: List[Tuple[int, Future]] = []
        self._flush_scheduled = False
        self._flush_inflight = False
        self._unflushed_bytes = 0
        #: Crash token: bumped by ``power_fail`` so fsync completions
        #: scheduled before a crash are discarded after it.
        self._token = 0
        #: ``(blob, capture_lsn)`` of the installed snapshot, or None.
        self.snapshot: Optional[Tuple[dict, int]] = None

    # ------------------------------------------------------------- appending

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def durable_lsn(self) -> int:
        return self._durable_lsn

    def append(self, rec: WalRecord) -> WalRecord:
        rec.lsn = self._next_lsn
        self._next_lsn += 1
        rec.size += self.params.record_header_bytes
        self._records.append(rec)
        self._unflushed_bytes += rec.size
        self.counters.inc("appends")
        self.counters.inc("bytes", rec.size)
        window = 0.0 if self.params.fsync_policy == "always" \
            else self.params.group_window_us
        self._schedule_flush(window)
        return rec

    def durability_future(self, rec: WalRecord) -> Future:
        """A future resolving when ``rec`` is covered by a completed fsync."""
        fut = Future(self.sim)
        if rec.lsn <= self._durable_lsn:
            fut.set_result(None)
        else:
            self._pending.append((rec.lsn, fut))
        return fut

    def flush_now(self) -> Future:
        """Force an immediate fsync of everything appended so far."""
        fut = Future(self.sim)
        upto = self._next_lsn - 1
        if upto <= self._durable_lsn:
            fut.set_result(None)
            return fut
        self._pending.append((upto, fut))
        self._schedule_flush(0.0)
        return fut

    # ------------------------------------------------------- fsync machinery

    def _schedule_flush(self, delay: float) -> None:
        if self._flush_inflight or self._flush_scheduled:
            if delay == 0.0 and not self._flush_inflight:
                # A forced flush trumps a waiting group window; the later
                # fire no-ops once everything is durable.
                self.sim.call_after(0.0, self._fire_flush, self._token)
            return
        self._flush_scheduled = True
        self.sim.call_after(delay, self._fire_flush, self._token)

    def _fire_flush(self, token: int) -> None:
        if token != self._token:
            return  # scheduled before a crash: the tail it covered is gone
        self._flush_scheduled = False
        if self._flush_inflight:
            return  # completion handler restarts the cycle
        upto = self._next_lsn - 1
        if upto <= self._durable_lsn:
            return
        self._flush_inflight = True
        self.disk.write(self._unflushed_bytes)
        self._unflushed_bytes = 0
        done_at = self.disk.flush()
        self.counters.inc("fsync_batches")
        self.sim.call_at(done_at, self._fsync_done, token, upto)

    def _fsync_done(self, token: int, upto: int) -> None:
        if token != self._token:
            return
        self._flush_inflight = False
        self._durable_lsn = upto
        still = []
        for lsn, fut in self._pending:
            if lsn <= upto:
                if not fut.done():
                    fut.set_result(None)
            else:
                still.append((lsn, fut))
        self._pending = still
        if self._next_lsn - 1 > upto:
            # Records arrived during the barrier: open the next window.
            window = 0.0 if self.params.fsync_policy == "always" \
                else self.params.group_window_us
            self._schedule_flush(window)

    # ------------------------------------------------------- crash semantics

    def power_fail(self) -> None:
        """Lose the volatile tail; neutralize in-flight fsyncs (token bump).

        Pending durability futures are *dropped unresolved* — a durability
        ack must never arrive for a record the crash erased.
        """
        self._token += 1
        self._records = [r for r in self._records if r.lsn <= self._durable_lsn]
        self._pending = []
        self._flush_scheduled = False
        self._flush_inflight = False
        self._unflushed_bytes = 0

    def reset(self) -> None:
        """Discard the whole image (records *and* snapshot).

        Used on a warm rejoin: the node rebuilds from live donors, which
        supersedes anything the old disk image knew — keeping it would let
        a later cold start resurrect state from before the rejoin.
        """
        self._token += 1
        self._records = []
        self._pending = []
        self._next_lsn = 0
        self._durable_lsn = -1
        self._flush_scheduled = False
        self._flush_inflight = False
        self._unflushed_bytes = 0
        self.snapshot = None

    # ------------------------------------------------------------- snapshots

    def install_snapshot(self, blob: dict, cap_lsn: int) -> int:
        """Adopt ``blob`` (captured at ``cap_lsn``) and truncate the log.

        Keeps records at/after the capture point, plus REDO records of slots
        unresolved as of it.  Returns how many records were dropped.
        """
        resolved = {r.key for r in self._records
                    if r.lsn < cap_lsn and r.kind in (COMMIT, ABORT)}
        kept = [r for r in self._records
                if r.lsn >= cap_lsn
                or (r.kind == REDO and r.key not in resolved)]
        dropped = len(self._records) - len(kept)
        self._records = kept
        self.snapshot = (blob, cap_lsn)
        self.counters.inc("truncated", dropped)
        return dropped

    def durable_records(self) -> List[WalRecord]:
        """The records a cold start can see (fsync-covered prefix only)."""
        return [r for r in self._records if r.lsn <= self._durable_lsn]


class DurabilityManager:
    """Per-node durability: owns the node's WAL, disk, and snapshot loop.

    Only constructed when ``DiskParams.enabled``; other layers keep a
    ``durability`` attribute that is ``None`` when the tier is off, so the
    hot path pays a single ``is not None`` test (absent means ``None``,
    the same rule as the ``obs`` instruments).
    """

    def __init__(self, node, store, directory, params, registry):
        self.node = node
        self.sim = node.sim
        self.store = store
        self.directory = directory
        self.params = params
        self.disk = DiskDevice(node.sim, params.seek_us,
                               params.write_bytes_per_us, params.fsync_us,
                               name=f"disk{node.node_id}")
        self.counters = registry.group("wal", node=node.node_id)
        self.snap_counters = registry.group("snapshot", node=node.node_id)
        self.rec_counters = registry.group("recovery", node=node.node_id)
        self._replay_us = registry.histogram("recovery.replay_us",
                                             node=node.node_id)
        self.wal = WriteAheadLog(node.sim, self.disk, params, self.counters)
        self._seq = 0

    @property
    def ack_persist(self) -> bool:
        return self.params.ack_policy == "persist"

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Install the genesis snapshot and arm the snapshot loop."""
        self.wal.snapshot = (self._capture(), 0)
        self._arm_snapshots()

    def _arm_snapshots(self) -> None:
        if self.params.snapshot_interval_us > 0:
            self.node.spawn(self._snapshot_loop(), name="wal-snap")

    def on_restart(self, wipe: bool = False) -> None:
        """Re-arm after a reboot (node processes died with the crash).

        ``wipe=True`` is the warm-rejoin path: the in-memory state was
        cleared and will be rebuilt from live donors, so the old disk
        image is retired and a fresh genesis snapshot (of the now-empty
        state) takes its place.  Cold restarts pass ``wipe=False`` — the
        image was just replayed and remains the anchor."""
        self.disk = DiskDevice(self.sim, self.params.seek_us,
                               self.params.write_bytes_per_us,
                               self.params.fsync_us,
                               name=f"disk{self.node.node_id}")
        self.wal.disk = self.disk
        if wipe:
            self.wal.reset()
            self.wal.snapshot = (self._capture(), 0)
        self._arm_snapshots()

    def power_fail(self) -> None:
        self.wal.power_fail()

    # ------------------------------------------------------------ log hooks

    def _upd_bytes(self, updates, pre) -> int:
        nbytes = 16 * len(updates) + sum(u[3] for u in updates)
        if pre:
            nbytes += 16 * len(pre) + sum(u[3] for u in updates)
        return nbytes

    def log_redo_coord(self, thread: int, updates, pre):
        """Coordinator REDO at local commit; returns the slot's WAL key."""
        key = ("c", self.node.node_id, thread, self._seq)
        self._seq += 1
        self.wal.append(WalRecord(REDO, key=key, updates=updates, pre=pre,
                                  size=self._upd_bytes(updates, pre)))
        return key

    def log_redo(self, key, updates, pre) -> None:
        """Follower REDO at R-INV application."""
        self.wal.append(WalRecord(REDO, key=key, updates=updates, pre=pre,
                                  size=self._upd_bytes(updates, pre)))

    def log_commit(self, key, want_future: bool = False) -> Optional[Future]:
        rec = self.wal.append(WalRecord(COMMIT, key=key))
        if want_future:
            return self.wal.durability_future(rec)
        return None

    def log_abort(self, key) -> None:
        self.wal.append(WalRecord(ABORT, key=key))

    def log_grant(self, oid, o_ts: Ots, replicas: Optional[ReplicaSet],
                  version, data, size: int) -> None:
        self.wal.append(WalRecord(GRANT, oid=oid, o_ts=o_ts,
                                  replicas=replicas, version=version,
                                  data=data, size=size + 24))

    def log_own(self, oid, o_ts: Ots, replicas: Optional[ReplicaSet]) -> None:
        self.wal.append(WalRecord(OWN, oid=oid, o_ts=o_ts, replicas=replicas,
                                  size=24))

    def log_epoch(self, epoch: int) -> None:
        self.wal.append(WalRecord(EPOCH, epoch=epoch))

    # ------------------------------------------------------------ snapshots

    def _capture(self) -> dict:
        store_rows = [(obj.oid, obj.t_state, obj.t_version, obj.t_data,
                       obj.o_state, obj.o_ts, obj.o_replicas)
                      for obj in sorted(self.store, key=lambda o: o.oid)]
        dir_rows = ([] if self.directory is None else
                    [(oid, e.o_ts, e.replicas)
                     for oid, e in sorted(self.directory.items())])
        transport = self.node.transport
        marks = transport.watermarks() if hasattr(transport, "watermarks") else {}
        return {"store": store_rows, "dir": dir_rows,
                "epoch": self.node.epoch, "watermarks": marks}

    def _blob_bytes(self, blob: dict) -> int:
        return (64 + 48 * len(blob["store"]) + 24 * len(blob["dir"])
                + 8 * len(blob["watermarks"]))

    def _snapshot_loop(self):
        while True:
            yield self.params.snapshot_interval_us
            yield from self.snapshot_once()

    def snapshot_once(self):
        """Generator: one crash-consistent snapshot + truncation."""
        cap_lsn = self.wal.next_lsn
        blob = self._capture()
        fut = self.wal.flush_now()
        if not fut.done():
            yield fut
        nbytes = self._blob_bytes(blob)
        done_at = self.disk.write(nbytes)
        f2 = Future(self.sim)
        self.sim.call_at(done_at, f2.set_result, None)
        yield f2
        # Reaching here means no crash interrupted the write: install.
        self.wal.install_snapshot(blob, cap_lsn)
        self.snap_counters.inc("writes")
        self.snap_counters.inc("bytes", nbytes)

    def snapshot_soon(self) -> None:
        """Fire-and-forget snapshot (after a donor-based rejoin refreshed
        the volatile state, the disk image should catch up promptly)."""
        self.node.spawn(self.snapshot_once(), name="wal-snap-now")

    # --------------------------------------------------------------- replay

    def replay(self) -> ReplayStats:
        """Cold-start recovery: snapshot restore + redo/undo of the log.

        Mutates ``store`` and ``directory`` in place (caller wipes them
        first) and returns stats; ``stats.replay_us`` is the simulated time
        reading the image back costs (charged by the caller as reboot
        delay).
        """
        stats = ReplayStats()
        blob, cap_lsn = self.wal.snapshot if self.wal.snapshot else (None, 0)
        stats.snapshot_lsn = cap_lsn
        read_bytes = self._blob_bytes(blob) if blob else 0
        if blob is not None:
            stats.epoch = blob["epoch"]
            for oid, t_state, t_version, t_data, o_state, o_ts, o_replicas \
                    in blob["store"]:
                obj = self.store.create(oid, t_data, o_replicas, o_ts)
                obj.t_state = t_state
                obj.t_version = t_version
                obj.o_state = o_state
            if self.directory is not None:
                for oid, o_ts, replicas in blob["dir"]:
                    self.directory.create(oid, replicas, o_ts)

        records = self.wal.durable_records()
        stats.records = len(records)
        committed = {r.key for r in records if r.kind == COMMIT}
        aborted = {r.key for r in records if r.kind == ABORT}

        for r in records:
            read_bytes += r.size
            if r.kind == REDO and r.key in committed:
                for oid, version, data, _size in r.updates:
                    obj = self.store.get(oid)
                    if obj is None:
                        continue
                    if version > obj.t_version:
                        obj.t_data = data
                        obj.t_version = version
                        stats.redo_applied += 1
                    if version >= obj.t_version:
                        obj.t_state = TState.VALID
            elif r.kind == GRANT:
                obj = self.store.get(r.oid)
                if obj is None:
                    obj = self.store.create(r.oid, r.data, r.replicas, r.o_ts)
                    obj.t_version = r.version or 0
                else:
                    if r.o_ts >= obj.o_ts:
                        obj.o_ts = r.o_ts
                        obj.o_replicas = r.replicas
                    if r.version is not None and r.version > obj.t_version:
                        obj.t_data = r.data
                        obj.t_version = r.version
                obj.o_state = OState.VALID
                obj.t_state = TState.VALID
                stats.grants += 1
            elif r.kind == OWN:
                if self.directory is None:
                    continue
                # Every replayed entry is Valid, so the merge rule's
                # in-flight guard never holds one back here.
                self.directory.merge(r.oid, r.o_ts, r.replicas)
                stats.own_applied += 1
            elif r.kind == EPOCH:
                stats.epoch = max(stats.epoch, r.epoch)

        # Undo in-flight slots (REDO without durable resolution), newest
        # first, from their pre-images; log the undo as a durable ABORT.
        undo_aborts = []
        for r in reversed(records):
            if r.kind != REDO or r.key in committed or r.key in aborted:
                continue
            new_ver = {oid: version for oid, version, _d, _s in r.updates}
            for oid, old_version, old_data in reversed(r.pre or []):
                obj = self.store.get(oid)
                if obj is not None and obj.t_version == new_ver.get(oid):
                    obj.t_data = old_data
                    obj.t_version = old_version
                    obj.t_state = TState.VALID
                    stats.undone += 1
            undo_aborts.append(r.key)
        for key in undo_aborts:
            self.log_abort(key)

        # Version floor: never reissue a version number this log ever
        # handed out.  An undone write's (oid, version) label may have been
        # observed by a client before the outage; if a post-restart write
        # reused it for a different value, version-based readers (and the
        # strict-serializability checker) could no longer tell the two
        # apart.  Relabel the restored pre-image with the highest logged
        # version instead — the data is unchanged, only the counter jumps —
        # and report the object as *floored* so the cold-restart tail
        # exchange lets a real surviving write at that version win.
        max_logged: dict = {}
        for r in records:
            if r.kind == REDO:
                for oid, version, _data, _size in r.updates:
                    if version > max_logged.get(oid, -1):
                        max_logged[oid] = version
        for oid, floor in max_logged.items():
            obj = self.store.get(oid)
            if obj is not None and obj.t_version < floor:
                obj.t_version = floor
                stats.floored.add(oid)

        # Whatever survived is consistent now; clear residual write marks.
        for obj in self.store:
            obj.locked_by = None
            if obj.t_state != TState.VALID:
                obj.t_state = TState.VALID
            obj.o_state = OState.VALID

        stats.replay_us = (self.params.seek_us
                           + read_bytes / self.params.write_bytes_per_us)
        self._replay_us.record(stats.replay_us)
        self.rec_counters.inc("wal_replayed", stats.records)
        self.rec_counters.inc("wal_redo_applied", stats.redo_applied)
        self.rec_counters.inc("wal_undone", stats.undone)
        return stats
