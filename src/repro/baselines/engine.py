"""Static-sharding distributed-commit baseline engine (Section 6.1).

The traditional design Zeus argues against: objects never move; a
transaction touching remote objects (a) fetches them over the network
during execution and (b) runs a multi-round-trip distributed atomic commit
(lock → validate → log to backups → commit primaries) because any
participant may abort it.  The coordinator's coroutine blocks across every
round-trip; throughput is recovered by multiplexing coroutines per thread —
the user-mode threading that makes porting legacy applications onto these
systems hard (Section 2.1).

The engine keeps its own primary/backup storage (same initial placement as
Zeus's catalog) with per-object versions and txn locks, giving serializable
optimistic commit faithful to FaRM/FaSST's OCC structure.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster.node import Node
from ..net.message import Message, NodeId
from ..sim.process import Future, all_of
from ..sim.resources import CpuServer
from ..store.catalog import Catalog, ObjectId
from .profiles import BaselineProfile

__all__ = ["BaselineEngine", "BaselineResult"]

KIND_RPC = "bl.rpc"
KIND_REPLY = "bl.reply"

_META = 8
#: Attempts before a baseline transaction gives up (as ``ZeusAPI``).
_MAX_RETRIES = 100


class BaselineResult:
    __slots__ = ("committed", "aborts", "remote_objects", "latency_us")

    def __init__(self) -> None:
        self.committed = False
        self.aborts = 0
        self.remote_objects = 0
        self.latency_us = 0.0


class _Record:
    """One object at its primary or backup."""

    __slots__ = ("value", "version", "locked_by")

    def __init__(self, value: Any):
        self.value = value
        self.version = 0
        self.locked_by: Optional[Tuple[int, int]] = None


class BaselineEngine:
    """One node of the distributed-commit baseline."""

    def __init__(self, node: Node, catalog: Catalog, profile: BaselineProfile,
                 rng: Optional[random.Random] = None):
        self.node = node
        self.sim = node.sim
        self.node_id = node.node_id
        self.catalog = catalog
        self.profile = profile
        self.params = node.params
        self.rng = rng or random.Random(node.node_id)
        self._records: Dict[ObjectId, _Record] = {}
        self._next_rpc = 0
        self._pending: Dict[int, Future] = {}
        self.counters = node.obs.registry.group("baseline",
                                                node=node.node_id)
        self.hist = node.obs.history

        node.register_handler(KIND_RPC, self._on_rpc, cost=self._rpc_cost)
        node.register_handler(KIND_REPLY, self._on_reply)

    # ------------------------------------------------------------- storage

    def load(self, oids: Sequence[ObjectId], value: Any) -> None:
        """Install a record for each of ``oids`` (this node is primary or
        backup of each), in order."""
        self._records.update((oid, _Record(value)) for oid in oids)

    def primary_of(self, oid: ObjectId) -> NodeId:
        return self.catalog.initial_owner(oid)

    def peek(self, oid: ObjectId) -> Any:
        rec = self._records.get(oid)
        return rec.value if rec is not None else None

    # ----------------------------------------------------------- RPC server

    def _rpc_cost(self, payload) -> float:
        op = payload[1]
        if op == "read" and self.profile.one_sided_reads:
            # One-sided RDMA read: the NIC serves it, no remote CPU.
            return 0.0
        return 0.25

    def _on_rpc(self, msg: Message) -> None:
        rpc_id, op, args = msg.payload
        result: Any = None
        if op == "read":
            oid = args
            rec = self._records.get(oid)
            result = (rec.value, rec.version) if rec is not None else (None, -1)
            size = _META * 3 + self.catalog.size_of(oid)
        elif op == "lock":
            oid, txn = args
            rec = self._records.get(oid)
            if rec is None or rec.locked_by not in (None, txn):
                result = False
            else:
                rec.locked_by = txn
                result = True
            size = _META * 3
        elif op == "validate":
            oid, version = args
            rec = self._records.get(oid)
            result = rec is not None and rec.version == version and rec.locked_by is None
            size = _META * 3
        elif op == "unlock":
            oid, txn = args
            rec = self._records.get(oid)
            if rec is not None and rec.locked_by == txn:
                rec.locked_by = None
            result = True
            size = _META * 3
        elif op == "log":
            # Backup log write: durability only, applied at commit.
            size = _META * 3
            result = True
        elif op == "commit":
            oid, txn, new_version = args
            rec = self._records.get(oid)
            if rec is not None:
                rec.value = (rec.value + 1) if isinstance(rec.value, int) else rec.value
                rec.version = max(rec.version, new_version)
                if rec.locked_by == txn:
                    rec.locked_by = None
            result = True
            size = _META * 3
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown rpc {op!r}")
        self.node.send(msg.src, KIND_REPLY, (rpc_id, result), size)

    def _on_reply(self, msg: Message) -> None:
        rpc_id, result = msg.payload
        fut = self._pending.pop(rpc_id, None)
        if fut is not None and not fut.done():
            fut.set_result(result)

    def _rpc(self, dst: NodeId, op: str, args: Any, size: int) -> Future:
        rpc_id = self._next_rpc
        self._next_rpc += 1
        fut = Future(self.sim)
        self._pending[rpc_id] = fut
        self.node.send(dst, KIND_RPC, (rpc_id, op, args), size)
        return fut

    # ------------------------------------------------------ coordinator side

    def execute_write(self, cpu: CpuServer, txn_tag: Tuple[int, int],
                      write_set: Sequence[ObjectId],
                      read_set: Sequence[ObjectId] = (),
                      exec_us: float = 0.0):
        """Generator: one serializable write transaction, OCC-style.

        ``cpu`` is the application thread's core — several coroutines share
        it, so CPU costs serialize while network waits overlap.
        """
        result = BaselineResult()
        start = self.sim.now
        p = self.params
        hist = self.hist
        hop = (hist.begin(self.node_id, txn_tag[-1], "write", start)
               if hist is not None else None)
        backoff = p.own_backoff_us
        fetch_at = start
        for _attempt in range(_MAX_RETRIES):
            n_access = len(write_set) + len(read_set)
            yield cpu.execute(p.txn_setup_us + self.profile.coord_overhead_us
                              + n_access * self.profile.per_access_cpu_us)
            # ---- Execute: fetch every remote object (parallel, 1 RTT).
            versions: Dict[ObjectId, int] = {}
            remote_reads = []
            for oid in list(write_set) + list(read_set):
                primary = self.primary_of(oid)
                if primary == self.node_id:
                    rec = self._records[oid]
                    versions[oid] = rec.version
                    yield cpu.execute(p.open_read_us)
                else:
                    remote_reads.append((oid, self._rpc(primary, "read", oid,
                                                        _META * 3)))
            if remote_reads:
                result.remote_objects += len(remote_reads)
                replies = yield all_of(self.sim, [f for _o, f in remote_reads])
                for (oid, _f), (_value, version) in zip(remote_reads, replies):
                    versions[oid] = version
            fetch_at = self.sim.now
            if exec_us > 0:
                yield cpu.execute(exec_us)

            ok = yield from self._commit_phase(cpu, txn_tag, write_set,
                                               read_set, versions)
            if ok:
                result.committed = True
                if hist is not None:
                    commit_at = self.sim.now
                    for oid in read_set:
                        hist.read(hop, oid, versions[oid], fetch_at)
                    for oid in write_set:
                        hist.write(hop, oid, versions.get(oid, 0) + 1,
                                   commit_at)
                break
            result.aborts += 1
            self.counters.inc("aborts")
            yield backoff * (0.5 + self.rng.random())
            backoff = min(backoff * 2, p.own_backoff_max_us)
        result.latency_us = self.sim.now - start
        if hist is not None:
            hist.respond(hop, result.committed, self.sim.now)
            # The baseline's blocking commit is durable when it responds.
            hist.mark_durable(hop)
        if result.committed:
            self.counters.inc("committed")
        return result

    def _commit_phase(self, cpu: CpuServer, txn_tag, write_set, read_set,
                      versions: Dict[ObjectId, int]):
        """Lock → validate → log → commit.  Returns False on abort."""
        p = self.params
        prof = self.profile
        # ---- Lock write set at primaries (parallel, 1 RTT for remote).
        locked: List[ObjectId] = []
        lock_futs = []
        failed = False
        for oid in write_set:
            primary = self.primary_of(oid)
            if primary == self.node_id:
                rec = self._records[oid]
                if rec.locked_by not in (None, txn_tag):
                    failed = True
                    break
                rec.locked_by = txn_tag
                locked.append(oid)
            else:
                lock_futs.append((oid, self._rpc(primary, "lock",
                                                 (oid, txn_tag), _META * 3)))
        if not failed and lock_futs:
            replies = yield all_of(self.sim, [f for _o, f in lock_futs])
            for (oid, _f), granted in zip(lock_futs, replies):
                if granted:
                    locked.append(oid)
                else:
                    failed = True
        # ---- Validate read set (parallel, 1 RTT for remote).
        if not failed and prof.validate_phase and read_set:
            val_futs = []
            for oid in read_set:
                primary = self.primary_of(oid)
                if primary == self.node_id:
                    rec = self._records[oid]
                    if rec.version != versions[oid] or rec.locked_by not in (None, txn_tag):
                        failed = True
                else:
                    val_futs.append(self._rpc(primary, "validate",
                                              (oid, versions[oid]), _META * 3))
            if not failed and val_futs:
                replies = yield all_of(self.sim, val_futs)
                failed = not all(replies)
        if failed:
            yield from self._unlock(locked, txn_tag)
            return False

        # ---- Log new values to every backup (parallel, 1 RTT).
        if prof.log_phase:
            log_futs = []
            for oid in write_set:
                size = self.catalog.size_of(oid) + 3 * _META
                for backup in self.catalog.initial_replicas(oid).readers:
                    if backup == self.node_id:
                        continue
                    log_futs.append(self._rpc(backup, "log", oid, size))
            if log_futs:
                yield all_of(self.sim, log_futs)

        # ---- Commit at primaries (apply + unlock); backups async.
        commit_futs = []
        for oid in write_set:
            primary = self.primary_of(oid)
            new_version = versions.get(oid, 0) + 1
            if primary == self.node_id:
                rec = self._records[oid]
                rec.version = new_version
                rec.value = (rec.value + 1) if isinstance(rec.value, int) else rec.value
                rec.locked_by = None
                yield cpu.execute(p.local_commit_per_obj_us)
            else:
                size = self.catalog.size_of(oid) + 3 * _META
                fut = self._rpc(primary, "commit",
                                (oid, txn_tag, new_version), size)
                commit_futs.append(fut)
        if commit_futs and prof.commit_phase_blocking:
            yield all_of(self.sim, commit_futs)
        return True

    def _unlock(self, locked: List[ObjectId], txn_tag) -> Any:
        futs = []
        for oid in locked:
            primary = self.primary_of(oid)
            if primary == self.node_id:
                rec = self._records[oid]
                if rec.locked_by == txn_tag:
                    rec.locked_by = None
            else:
                futs.append(self._rpc(primary, "unlock", (oid, txn_tag),
                                      _META * 3))
        if futs:
            yield all_of(self.sim, futs)
        return None

    # ------------------------------------------------------------ read txns

    def execute_read(self, cpu: CpuServer, read_set: Sequence[ObjectId],
                     exec_us: float = 0.0):
        """Generator: serializable read-only transaction.

        Parallel reads (one RTT for remote objects) plus a validation
        round-trip when the read set spans several objects.
        """
        result = BaselineResult()
        start = self.sim.now
        p = self.params
        hist = self.hist
        hop = (hist.begin(self.node_id, 0, "read", start)
               if hist is not None else None)
        backoff = p.own_backoff_us
        fetch_at = start
        for _attempt in range(_MAX_RETRIES):
            yield cpu.execute(p.txn_setup_us
                              + len(read_set) * self.profile.per_access_cpu_us)
            versions: Dict[ObjectId, int] = {}
            futs = []
            for oid in read_set:
                primary = self.primary_of(oid)
                if primary == self.node_id:
                    versions[oid] = self._records[oid].version
                    yield cpu.execute(p.open_read_us)
                else:
                    futs.append((oid, self._rpc(primary, "read", oid, _META * 3)))
            if futs:
                result.remote_objects += len(futs)
                replies = yield all_of(self.sim, [f for _o, f in futs])
                for (oid, _f), (_value, version) in zip(futs, replies):
                    versions[oid] = version
            fetch_at = self.sim.now
            if exec_us > 0:
                yield cpu.execute(exec_us)
            # Result assembly / version re-check (cost parity with Zeus's
            # read-only commit verification).
            yield cpu.execute(p.local_commit_us)
            ok = True
            if len(read_set) > 1 and self.profile.validate_phase:
                val_futs = []
                for oid in read_set:
                    primary = self.primary_of(oid)
                    if primary == self.node_id:
                        rec = self._records[oid]
                        if rec.version != versions[oid]:
                            ok = False
                    else:
                        val_futs.append(self._rpc(primary, "validate",
                                                  (oid, versions[oid]),
                                                  _META * 3))
                if ok and val_futs:
                    replies = yield all_of(self.sim, val_futs)
                    ok = all(replies)
            if ok:
                result.committed = True
                self.counters.inc("committed_ro")
                if hist is not None:
                    for oid in read_set:
                        hist.read(hop, oid, versions[oid], fetch_at)
                break
            result.aborts += 1
            yield backoff * (0.5 + self.rng.random())
            backoff = min(backoff * 2, p.own_backoff_max_us)
        result.latency_us = self.sim.now - start
        if hist is not None:
            hist.respond(hop, result.committed, self.sim.now)
            hist.mark_durable(hop)
        return result
