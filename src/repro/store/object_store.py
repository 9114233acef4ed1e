"""Per-node in-memory object store.

A node stores a :class:`StoredObject` for every object it replicates (as
owner or reader) — non-replicas store nothing, per Table 1.  The object
carries both metadata planes:

* transactional: ``t_state`` / ``t_version`` / ``t_data`` (Section 5),
* ownership:    ``o_state`` / ``o_ts`` / ``o_replicas`` (Section 4), kept
  authoritative at the owner and the directory nodes.

It also carries the *local* ownership used by the multi-threaded local
commit (Section 7): a lightweight per-object thread lock.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Sequence

from ..net.message import NodeId
from .catalog import ObjectId
from .meta import Ots, OState, ReplicaSet, TState

__all__ = ["StoredObject", "ObjectStore"]

#: The initial states, read once: an enum member is a class-attribute
#: lookup (~0.1 µs), paid per replica by the initial load.
_T_VALID = TState.VALID
_O_VALID = OState.VALID


class StoredObject:
    """One object replica on one node.

    **The read rule.**  A copy may serve a read when ``o_state !=
    OState.INVALID and t_state == TState.VALID``, and the read still holds
    at commit when the same test passes at the ``t_version`` it read.  The
    ``t_state`` clause is Section 5.3's: a copy is Valid until a writer's
    R-INV reaches it.  That is evidence only while writers still send it
    R-INVs, which is what the ``o_state`` clause adds: an ``o_state``
    Invalid copy is mid-arbitration or unlisted (an eviction victim, or
    provisional after a settled arbitration dropped this node), and an
    unlisted copy gets no more R-INVs, so its Valid ``t_state`` can stay
    Valid at a version long overwritten.  An owner-level read locks the
    copy instead of testing ``t_state`` (the owner's Write copy is the
    newest value) and keeps the ``o_state`` clause.  Every read site in
    ``repro.txn`` spells the test inline as ``o_state == INVALID or
    t_state != VALID`` (refuse), on the lane and on the interactive path,
    at admission and at validation; ``ReadOnlyTransaction.open_read``
    tests ``o_state`` where it picks the copy (or acquires one) and
    ``t_state`` once the read is charged.
    """

    __slots__ = (
        "oid",
        "t_state",
        "t_version",
        "t_data",
        "o_state",
        "o_ts",
        "o_replicas",
        "locked_by",
    )

    def __init__(self, oid: ObjectId, data: Any = None,
                 replicas: Optional[ReplicaSet] = None,
                 o_ts: Ots = Ots(0, 0)):
        self.oid = oid
        self.t_state = _T_VALID
        self.t_version = 0
        self.t_data = data
        self.o_state = _O_VALID
        self.o_ts = o_ts
        self.o_replicas = replicas
        #: Local-commit thread ownership (Section 7); None when free.
        self.locked_by: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"StoredObject({self.oid} t={self.t_state.name}/v{self.t_version} "
            f"o={self.o_state.name}/{self.o_ts} r={self.o_replicas})"
        )


class ObjectStore:
    """All replicas held by one node."""

    def __init__(self, node_id: NodeId):
        self.node_id = node_id
        self._objects: Dict[ObjectId, StoredObject] = {}
        #: ``get(oid)`` -> the replica or None.  The dict's own bound method:
        #: every protocol looks objects up per message and per transaction,
        #: and a wrapper would be one Python frame per lookup.
        self.get = self._objects.get
        #: ``has(oid)`` -> whether the replica is here (same reason).
        self.has = self._objects.__contains__

    def create(self, oid: ObjectId, data: Any,
               replicas: ReplicaSet, o_ts: Ots = Ots(0, 0)) -> StoredObject:
        if oid in self._objects:
            raise ValueError(f"object {oid} already stored on node {self.node_id}")
        obj = StoredObject(oid, data, replicas, o_ts)
        self._objects[oid] = obj
        return obj

    def load(self, oids: Sequence[ObjectId], data: Iterable[Any],
             replicas: Iterable[Optional[ReplicaSet]]) -> None:
        """Store fresh replicas in bulk, in ``oids`` order (the initial load):
        ``oids[i]`` holds the ``i``-th of ``data`` and of ``replicas``.

        ``oids`` must be distinct; one already stored raises ``ValueError``
        and stores nothing.
        """
        objects = self._objects
        if not objects.keys().isdisjoint(oids):
            oid = next(oid for oid in oids if oid in objects)
            raise ValueError(f"object {oid} already stored on node {self.node_id}")
        objects.update(zip(oids, map(StoredObject, oids, data, replicas)))

    def require(self, oid: ObjectId) -> StoredObject:
        obj = self._objects.get(oid)
        if obj is None:
            raise KeyError(f"node {self.node_id} does not replicate object {oid}")
        return obj

    def drop(self, oid: ObjectId) -> None:
        """Discard the replica (reader trim / non-replica demotion)."""
        self._objects.pop(oid, None)

    def clear(self) -> None:
        """Forget every replica (crash wiped the node's memory)."""
        self._objects.clear()

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[StoredObject]:
        return iter(self._objects.values())
