"""High-level transaction API: retry loops, back-off, result accounting.

Workload drivers call :meth:`ZeusAPI.execute_write` /
:meth:`ZeusAPI.execute_read` with declarative read/write sets — both are
:meth:`ZeusAPI.execute`, one generator frame per logical transaction;
applications that need interactivity use :meth:`tr_create` /
:meth:`tr_r_create` and the ``Transaction`` object directly (the paper's
API shape).

Retry policy (Section 6.2, "Deadlocks"): an aborted attempt — ownership
denied, local lock conflict, read validation failure — is retried after an
exponential randomized back-off, which is how Zeus sidesteps distributed
deadlock during the Prepare phase.

Instruments: the tracer, history and locality recorders of ``node.obs`` are
each the instrument or ``None`` (absent means ``None``);
:meth:`ZeusAPI.execute` tests one ``_instrumented`` flag per transaction and
guards each recording with ``is not None``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, Sequence

from ..commit.manager import CommitManager
from ..ownership.manager import OwnershipManager
from ..store.catalog import Catalog, ObjectId
from ..store.meta import OState, TState
from . import transaction as _txn_mod
from .errors import AbortReason, TxnAborted
from .transaction import ReadOnlyTransaction, Transaction

__all__ = ["ZeusAPI", "TxnResult"]

_O_VALID, _O_INVALID = OState.VALID, OState.INVALID
_T_VALID, _T_WRITE = TState.VALID, TState.WRITE

#: compute(oid, old_value) -> new_value; default is a version-ish bump.
ComputeFn = Callable[[ObjectId, Any], Any]


def _default_compute(oid: ObjectId, old: Any) -> Any:
    return (((old or 0) + 1)
            if isinstance(old, (int, float)) or old is None else old)


class TxnResult:
    """Outcome of one logical transaction (including its retries).

    The fields are class-level defaults, not an ``__init__``: one result is
    made per transaction, and most keep every default but two.
    """

    committed = False
    aborts = 0
    ownership_requests = 0
    acquired_objects = 0
    latency_us = 0.0
    abort_reason: Optional[str] = None


class ZeusAPI:
    """Per-node transaction facade (the ``tr_*`` API surface)."""

    #: Attempts before a transaction reports ``RETRIES_EXHAUSTED``.
    max_retries = 100

    def __init__(self, node, store, catalog: Catalog,
                 ownership: OwnershipManager, commit_mgr: CommitManager,
                 rng: Optional[random.Random] = None):
        self.node = node
        self.sim = node.sim
        self.node_id = node.node_id
        self.store = store
        self.catalog = catalog
        self.ownership = ownership
        self.commit_mgr = commit_mgr
        self.params = node.params
        self.rng = rng or random.Random(node.node_id)
        # The instruments (absent = None); a run without any pays one
        # attribute test per transaction.
        obs = node.obs
        self._tracer = obs.tracer
        self._history = obs.history
        self._locality = obs.locality
        self._instrumented = not (obs.tracer is None and obs.history is None
                                  and obs.locality is None)
        if obs.tracer is not None:
            point = obs.tracer.point
            self._t_txn_fast = point("txn", "txn", True, kind=str,
                                     committed=bool, fast=bool)
            self._t_txn = point("txn", "txn", True, kind=str, committed=bool,
                                aborts=int)
            self._t_execute = point("execute", "txn", True, attempt=int,
                                    committed=bool)
            self._t_execute_abort = point("execute", "txn", True, attempt=int,
                                          committed=bool, abort=str)

    # ------------------------------------------------------ paper-shaped API

    def tr_create(self, thread: int = 0) -> Transaction:
        """Begin a write transaction (paper: ``tr_create``)."""
        return Transaction(self.node, self.store, self.catalog,
                           self.ownership, self.commit_mgr, thread)

    def tr_r_create(self, thread: int = 0) -> ReadOnlyTransaction:
        """Begin a read-only transaction (paper: ``tr_r_create``)."""
        return ReadOnlyTransaction(self.node, self.store, self.catalog,
                                   self.ownership, self.commit_mgr, thread)

    # -------------------------------------------------------- driver helpers

    def execute_write(self, thread: int, write_set: Sequence[ObjectId],
                      read_set: Sequence[ObjectId] = (),
                      exec_us: float = 0.0,
                      compute: Optional[ComputeFn] = None):
        """Generator: run one write transaction to commit (with retries).

        Returns a :class:`TxnResult`; see :meth:`execute`.
        """
        return self.execute(thread, write_set, read_set, exec_us, compute)

    def execute_read(self, thread: int, read_set: Sequence[ObjectId],
                     exec_us: float = 0.0):
        """Generator: run one read-only transaction to commit (retries).

        Returns a :class:`TxnResult`; see :meth:`execute`.
        """
        return self.execute(thread, (), read_set, exec_us, read_only=True)

    def execute(self, thread: int, write_set: Sequence[ObjectId],
                read_set: Sequence[ObjectId], exec_us: float = 0.0,
                compute: Optional[ComputeFn] = None,
                read_only: bool = False):
        """Generator: one logical transaction, start to :class:`TxnResult`.

        Fully-local conflict-free transactions — the common case Zeus is
        built around — take the *fast lane*: a pre-check, one simulator
        event carrying every CPU charge, and a post-validation, all in
        this frame.  It takes the interactive path's locks and its
        reliable-commit hand-off, and admits and validates a read by the
        rule in :class:`~repro.store.object_store.StoredObject`'s
        docstring, spelled inline; ``tests/test_txn.py::
        test_lane_reads_by_the_interactive_rule`` holds the two paths to
        the same decision on every ``o_state`` x ``t_state``.  It leaves
        no side effect beyond an abort count when it gives up.  Anything
        it cannot serve — ownership acquisition, a lock wait, pipeline
        back-pressure, an unreadable copy — falls back to the interactive
        ``Transaction`` with randomized exponential back-off.
        """
        sim = self.sim
        node_id = self.node_id
        compute = compute or _default_compute
        result = TxnResult()
        start = sim.now
        hist = loc = tracer = hop = lop = tspan = tctx = None
        if self._instrumented:
            hist, loc, tracer = self._history, self._locality, self._tracer
            if hist is not None:
                hop = hist.begin(node_id, thread,
                                 "read" if read_only else "write", start)
            if loc is not None:
                lop = loc.begin(node_id, thread, start)
            if tracer is not None:
                # Each logical transaction roots a fresh trace; everything
                # it causes — acquires, remote arbitration, replication —
                # links back.
                tspan = tracer.open(node_id, thread,
                                    (tracer.new_trace(), None))
                tctx = tspan.ctx

        # ------------------------------------------------------- fast lane
        p = self.params
        get = self.store.get
        fast = True
        if read_only:
            # Buffer versions, sleep the combined CPU cost, re-verify.
            write_set = ()
            snapshot = []
            for oid in read_set:
                obj = get(oid)
                if (obj is None or obj.o_state == _O_INVALID
                        or obj.t_state != _T_VALID):
                    fast = False
                    break
                snapshot.append((obj, obj.t_version))
            if fast:
                yield (p.txn_setup_us + len(snapshot) * p.open_read_us
                       + exec_us + p.local_commit_us)
                for obj, ver in snapshot:
                    if (obj.o_state == _O_INVALID or obj.t_state != _T_VALID
                            or obj.t_version != ver):
                        fast = False
                        result.aborts += 1
                        break
                if fast and hop is not None:
                    for obj, ver in snapshot:
                        hist.read(hop, obj.oid, ver, start)
                    hist.mark_durable(hop)
        else:
            me = (node_id, thread)
            cm = self.commit_mgr
            writes = []
            for oid in write_set:
                obj = get(oid)
                if (obj is None or obj.o_state != _O_VALID
                        or obj.o_replicas is None
                        or obj.o_replicas.owner != node_id
                        or (obj.locked_by is not None
                            and obj.locked_by != me)):
                    fast = False
                    break
                writes.append(obj)
            reads = []        # reader-level: validate by version at commit
            owner_reads = []  # owner-level: lock like the interactive path
            if fast:
                for oid in read_set:
                    obj = get(oid)
                    if obj is None or obj.o_state == _O_INVALID:
                        fast = False
                        break
                    if (obj.o_replicas is not None
                            and obj.o_replicas.owner == node_id):
                        # The owner's thread lock stands in for the t_state
                        # clause (its Write copy is the newest value).
                        if obj.locked_by is not None and obj.locked_by != me:
                            fast = False
                            break
                        owner_reads.append(obj)
                    elif obj.t_state != _T_VALID:
                        fast = False
                        break
                    else:
                        reads.append((obj, obj.t_version))
            if (fast and writes
                    and cm.pipeline_depth(thread) >= cm.max_pipeline_depth):
                fast = False
            if fast:
                size_of = self.catalog.size_of
                sizes = []
                cost = p.txn_setup_us + exec_us + p.local_commit_us
                per_write_us = p.open_write_us + p.local_commit_per_obj_us
                for obj in writes:
                    obj.locked_by = me
                    size = size_of(obj.oid)
                    sizes.append(size)
                    cost += per_write_us + size * p.copy_us_per_byte
                for obj in owner_reads:
                    obj.locked_by = me
                cost += (len(reads) + len(owner_reads)) * p.open_read_us
                yield cost

                for obj, ver in reads:
                    if (obj.o_state == _O_INVALID or obj.t_state != _T_VALID
                            or obj.t_version != ver):
                        fast = False
                        result.aborts += 1
                        break
                if not fast:
                    for obj in writes + owner_reads:
                        if obj.locked_by == me:
                            obj.locked_by = None
                else:
                    dur = self.node.durability
                    install_at = sim.now
                    bump = _txn_mod.VERSION_BUMP
                    updates = []
                    pre = []
                    followers = set()
                    for obj, size in zip(writes, sizes):
                        oid = obj.oid
                        if dur is not None:
                            pre.append((oid, obj.t_version, obj.t_data))
                        obj.t_data = data = compute(oid, obj.t_data)
                        obj.t_version = ver = obj.t_version + bump
                        obj.t_state = _T_WRITE
                        updates.append((oid, ver, data, size))
                        followers.update(obj.o_replicas.readers)
                        obj.locked_by = None
                        if hop is not None:
                            hist.write(hop, oid, ver, install_at)
                    for obj in owner_reads:
                        if obj.locked_by == me:
                            obj.locked_by = None
                        if hop is not None:
                            # Locked since before the snapshot, so the
                            # version is stable across the batched event.
                            hist.read(hop, obj.oid, obj.t_version, start)
                    if hop is not None:
                        for obj, ver in reads:
                            hist.read(hop, obj.oid, ver, start)
                    if updates:
                        wal_key = (dur.log_redo_coord(thread, updates, pre)
                                   if dur is not None else None)
                        cm.submit(thread, updates, followers, ctx=tctx,
                                  wal_key=wal_key, hop=hop)
                    elif hop is not None:
                        hist.mark_durable(hop)

        # ----------------------------------------- interactive path, retries
        if fast:
            result.committed = True
        else:
            backoff = p.own_backoff_us
            for attempt in range(self.max_retries):
                txn = (self.tr_r_create(thread) if read_only
                       else self.tr_create(thread))
                txn.ctx = tctx
                txn.hop = hop
                txn.lop = lop
                espan = (tracer.open(node_id, thread, tctx)
                         if tracer is not None else None)
                try:
                    yield p.txn_setup_us
                    for oid in write_set:
                        old = yield from txn.open_write(oid)
                        txn.write(oid, compute(oid, old))
                    for oid in read_set:
                        yield from txn.open_read(oid)
                    if exec_us > 0:
                        yield exec_us
                    yield from txn.commit()
                    result.committed = True
                    if espan is not None:
                        self._t_execute(espan, attempt, True)
                    break
                except TxnAborted as abort:
                    result.aborts += 1
                    result.abort_reason = abort.reason
                    if espan is not None:
                        self._t_execute_abort(espan, attempt, False,
                                              abort.reason)
                    yield backoff * (0.5 + self.rng.random())
                    backoff = min(backoff * 2, p.own_backoff_max_us)
                finally:
                    result.ownership_requests += txn.stats.ownership_requests
                    result.acquired_objects += txn.stats.acquired_objects
            else:
                result.abort_reason = AbortReason.RETRIES_EXHAUSTED

        now = sim.now
        result.latency_us = now - start
        if hop is not None:
            hist.respond(hop, result.committed, now)
        if lop is not None:
            loc.commit_txn(lop, write_set, read_set, result.committed, now)
        if tspan is not None:
            kind = "read" if read_only else "write"
            if fast:
                self._t_txn_fast(tspan, kind, True, True)
            else:
                self._t_txn(tspan, kind, result.committed, result.aborts)
        return result

    # --------------------------------------------------------- direct reads

    def peek(self, oid: ObjectId) -> Any:
        """Non-transactional read of the local replica (tests/debugging)."""
        obj = self.store.get(oid)
        return obj.t_data if obj is not None else None
