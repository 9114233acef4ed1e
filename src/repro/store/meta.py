"""Object metadata: ownership and transactional state machines.

Mirrors Table 1 of the paper.  Every replica keeps per-object transactional
state (``t_state``, ``t_version``, ``t_data``); the owner and the directory
nodes additionally keep ownership state (``o_state``, ``o_ts``,
``o_replicas``).
"""

from __future__ import annotations

from enum import IntEnum
from typing import FrozenSet, NamedTuple, Optional, Tuple

from ..net.message import NodeId

__all__ = ["OState", "TState", "Ots", "ReplicaSet", "AccessLevel"]


class OState(IntEnum):
    """Ownership state of an object at a node (Section 4)."""

    VALID = 0
    INVALID = 1
    REQUEST = 2
    DRIVE = 3


class TState(IntEnum):
    """Transactional state of an object replica (Section 5)."""

    VALID = 0
    INVALID = 1
    WRITE = 2


class AccessLevel(IntEnum):
    """What a node may do with an object."""

    NON_REPLICA = 0
    READER = 1
    OWNER = 2


class Ots(NamedTuple):
    """Ownership timestamp: lexicographically ordered (version, node id).

    Drivers stamp contending requests with ``(obj_ver + 1, driver_id)``;
    lexicographic comparison yields exactly one winner per contention round
    (Section 4.1).
    """

    obj_ver: int
    node_id: NodeId

    def next_for(self, driver: NodeId) -> "Ots":
        return Ots(self.obj_ver + 1, driver)


class ReplicaSet(NamedTuple):
    """The owner and readers of an object (``o_replicas``).

    ``owner`` may be None transiently after its node died; the next write
    transaction's ownership request installs a new owner (Section 4.1,
    failure recovery).
    """

    owner: Optional[NodeId]
    readers: Tuple[NodeId, ...]

    def all_nodes(self) -> FrozenSet[NodeId]:
        nodes = set(self.readers)
        if self.owner is not None:
            nodes.add(self.owner)
        return frozenset(nodes)

    def level_of(self, node_id: NodeId) -> AccessLevel:
        if node_id == self.owner:
            return AccessLevel.OWNER
        if node_id in self.readers:
            return AccessLevel.READER
        return AccessLevel.NON_REPLICA

    def with_owner(self, new_owner: NodeId, demote_old: bool = True) -> "ReplicaSet":
        """Replica set after ``new_owner`` takes ownership.

        The old owner is demoted to reader (it retains the data); the new
        owner leaves the reader set if it was in it.
        """
        readers = set(self.readers)
        readers.discard(new_owner)
        if demote_old and self.owner is not None and self.owner != new_owner:
            readers.add(self.owner)
        return ReplicaSet(new_owner, tuple(sorted(readers)))

    def with_reader(self, reader: NodeId) -> "ReplicaSet":
        if reader == self.owner or reader in self.readers:
            return self
        return ReplicaSet(self.owner, tuple(sorted(set(self.readers) | {reader})))

    def without(self, node_id: NodeId) -> "ReplicaSet":
        """Replica set with ``node_id`` stripped (dead-node cleanup or
        reader trim)."""
        owner = None if self.owner == node_id else self.owner
        readers = tuple(r for r in self.readers if r != node_id)
        return ReplicaSet(owner, readers)

    def restricted_to(self, live: FrozenSet[NodeId]) -> "ReplicaSet":
        """Replica set with every non-``live`` node stripped (``self`` when
        nothing is dead)."""
        owner = self.owner
        if (owner is None or owner in live) and live.issuperset(self.readers):
            return self
        replicas = self
        for node_id in self.all_nodes() - live:
            replicas = replicas.without(node_id)
        return replicas

    def size(self) -> int:
        return len(self.readers) + (1 if self.owner is not None else 0)
