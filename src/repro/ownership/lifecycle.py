"""Object lifecycle: the ``malloc`` / ``free`` half of the §7 API.

The paper's transactional-memory API "consists of primitives to create and
manage memory objects of different sizes", i.e. objects are created and
destroyed at runtime, not only pre-sharded.  Creation needs no
arbitration — a fresh object has no competing owner — but it must be
*reliable*: the directory entries and the read replicas must exist before
the creator may commit transactions on it (otherwise a crash could lose an
object the application believes exists).

Protocol (1 round-trip):

* the creator picks the replica set (itself as owner + ``degree-1``
  readers round-robin), installs the object locally, and sends
  ``own.register`` (with the initial value) to every directory node and
  reader;
* each recipient installs the entry/replica and ACKs; the creator's future
  completes when all ACKs are in.

``free`` is symmetric (``own.unregister``) and requires ownership — the
same exclusivity that makes Zeus commits single-node makes destruction
race-free.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from ..net.message import Message, NodeId
from ..sim.process import Future
from ..store.catalog import ObjectId
from ..store.meta import Ots, ReplicaSet

__all__ = ["LifecycleMixin", "KIND_REGISTER", "KIND_REG_ACK",
           "KIND_UNREGISTER", "KIND_UNREG_ACK"]

KIND_REGISTER = "own.register"
KIND_REG_ACK = "own.register_ack"
KIND_UNREGISTER = "own.unregister"
KIND_UNREG_ACK = "own.unregister_ack"

_META = 8


class _LifecycleCtx:
    __slots__ = ("oid", "waiting", "future")

    def __init__(self, oid: ObjectId, waiting: Set[NodeId], future: Future):
        self.oid = oid
        self.waiting = waiting
        self.future = future


class LifecycleMixin:
    """Mixed into :class:`OwnershipManager`; shares its node/store/dir."""

    def _init_lifecycle(self) -> None:
        self._lifecycle: Dict[ObjectId, _LifecycleCtx] = {}
        self.node.register_handler(KIND_REGISTER, self._on_register, cost=0.2)
        self.node.register_handler(KIND_REG_ACK, self._on_reg_ack)
        self.node.register_handler(KIND_UNREGISTER, self._on_unregister,
                                   cost=0.2)
        self.node.register_handler(KIND_UNREG_ACK, self._on_reg_ack)

    # ------------------------------------------------------------- create

    def create_object(self, table: str, key: Any, value: Any = None):
        """Generator: reliably create an object owned by this node.

        Returns the new oid once the directory and all read replicas have
        installed it (1 round-trip).
        """
        catalog = self.catalog
        oid = catalog.create_object(table, key, owner=self.node_id)
        degree = catalog.replication_degree
        readers = tuple(sorted(
            (self.node_id + i) % catalog.num_nodes for i in range(1, degree)))
        replicas = ReplicaSet(self.node_id, readers)
        o_ts = Ots(0, self.node_id)

        obj = self.store.create(oid, value, replicas, o_ts)
        if self.directory is not None:
            self.directory.create(oid, replicas, o_ts)

        targets = (set(catalog.directory_nodes_for(oid)) | set(readers))
        targets &= self.node.live_nodes
        targets.discard(self.node_id)
        future = Future(self.sim)
        if not targets:
            future.set_result(oid)
            self.counters.inc("created")
            return (yield future)
        self._lifecycle[oid] = _LifecycleCtx(oid, set(targets), future)
        size = 6 * _META + catalog.size_of(oid)
        payload = (oid, replicas, value)
        for target in targets:
            self.node.send(target, KIND_REGISTER, payload, size)
        result = yield future
        self.counters.inc("created")
        return result

    def _on_register(self, msg: Message) -> None:
        if msg.epoch != self.node.epoch:
            return
        oid, replicas, value = msg.payload
        if self.directory is not None and self.directory.get(oid) is None:
            self.directory.create(oid, replicas, Ots(0, replicas.owner))
        if (self.node_id in replicas.readers
                and not self.store.has(oid)):
            self.store.create(oid, value, None, Ots(0, replicas.owner))
        self.node.send(msg.src, KIND_REG_ACK, oid, 2 * _META)

    def _on_reg_ack(self, msg: Message) -> None:
        ctx = self._lifecycle.get(msg.payload)
        if ctx is None:
            return
        ctx.waiting.discard(msg.src)
        if not ctx.waiting:
            del self._lifecycle[ctx.oid]
            if not ctx.future.done():
                ctx.future.set_result(ctx.oid)

    # ------------------------------------------------------------ destroy

    def destroy_object(self, oid: ObjectId):
        """Generator: reliably destroy an object this node owns.

        Raises PermissionError when not the owner (acquire first — the
        exclusive write access is what makes destruction race-free).
        """
        obj = self.store.get(oid)
        if (obj is None or obj.o_replicas is None
                or obj.o_replicas.owner != self.node_id):
            raise PermissionError(
                f"node {self.node_id} does not own object {oid}")
        replicas = obj.o_replicas
        targets = set(self.catalog.directory_nodes_for(oid)) | set(replicas.readers)
        targets &= self.node.live_nodes
        targets.discard(self.node_id)
        self.store.drop(oid)
        if self.directory is not None:
            self.directory._entries.pop(oid, None)
        future = Future(self.sim)
        if not targets:
            future.set_result(oid)
            self.counters.inc("destroyed")
            return (yield future)
        self._lifecycle[oid] = _LifecycleCtx(oid, set(targets), future)
        for target in targets:
            self.node.send(target, KIND_UNREGISTER, oid, 3 * _META)
        result = yield future
        self.counters.inc("destroyed")
        return result

    def _on_unregister(self, msg: Message) -> None:
        if msg.epoch != self.node.epoch:
            return
        oid = msg.payload
        self.store.drop(oid)
        if self.directory is not None:
            self.directory._entries.pop(oid, None)
        self._pending_arb.pop(oid, None)
        self.node.send(msg.src, KIND_UNREG_ACK, oid, 2 * _META)
