"""The replicated ownership directory.

"Zeus maintains an ownership directory where it stores ownership metadata
about each object.  This directory is replicated across three nodes for
reliability" (Section 4).  Each directory node holds a
:class:`DirectoryTable`: per-object ownership state, timestamp, and replica
set.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

from ..net.message import NodeId
from .catalog import ObjectId
from .meta import Ots, OState, ReplicaSet

__all__ = ["DirEntry", "DirectoryTable"]

#: Read once (an enum member is a class-attribute lookup, ~0.1 µs, paid
#: per entry by the initial load).
_O_VALID = OState.VALID


class DirEntry:
    """Ownership metadata for one object at one directory node."""

    __slots__ = ("o_state", "o_ts", "replicas")

    def __init__(self, replicas: ReplicaSet, o_ts: Ots = Ots(0, 0)):
        self.o_state = _O_VALID
        self.o_ts = o_ts
        self.replicas = replicas

    def __repr__(self) -> str:  # pragma: no cover
        return f"DirEntry({self.o_state.name} {self.o_ts} {self.replicas})"


class DirectoryTable:
    """All directory entries held by one directory node."""

    def __init__(self, node_id: NodeId):
        self.node_id = node_id
        self._entries: Dict[ObjectId, DirEntry] = {}
        #: ``get(oid)`` -> the entry or None: the dict's own bound method,
        #: as ``ObjectStore.get`` (every ownership message looks one up).
        self.get = self._entries.get

    def create(self, oid: ObjectId, replicas: ReplicaSet,
               o_ts: Ots = Ots(0, 0)) -> DirEntry:
        if oid in self._entries:
            raise ValueError(f"directory entry for {oid} already exists")
        entry = DirEntry(replicas, o_ts)
        self._entries[oid] = entry
        return entry

    def load(self, oids: Sequence[ObjectId],
             replicas: Iterable[ReplicaSet]) -> None:
        """Create entries in bulk, in ``oids`` order (the initial load):
        ``oids[i]`` gets the ``i``-th of ``replicas``.

        ``oids`` must be distinct; one already present raises ``ValueError``
        and creates nothing.
        """
        entries = self._entries
        if not entries.keys().isdisjoint(oids):
            oid = next(oid for oid in oids if oid in entries)
            raise ValueError(f"directory entry for {oid} already exists")
        entries.update(zip(oids, map(DirEntry, replicas)))

    def merge(self, oid: ObjectId, o_ts: Ots, replicas: ReplicaSet,
              strict: bool = False) -> bool:
        """Apply a settled ``(o_ts, replicas)`` view of ``oid``; returns
        whether it took.

        An absent entry is created.  A Valid entry is overwritten unless
        its ``o_ts`` is newer — ``>=``, because an abort keeps the bumped
        ``o_ts`` but reverts the replica set, so an equal-ts view can still
        carry news; ``strict`` demands a strictly older entry.  An entry
        mid-arbitration is never clobbered: its own VAL/ABORT/arb-replay
        settles it.
        """
        entry = self._entries.get(oid)
        if entry is None:
            self._entries[oid] = DirEntry(replicas, o_ts)
            return True
        if (entry.o_state is not _O_VALID
                or o_ts < entry.o_ts or (strict and o_ts == entry.o_ts)):
            return False
        entry.o_ts = o_ts
        entry.replicas = replicas
        return True

    def require(self, oid: ObjectId) -> DirEntry:
        entry = self._entries.get(oid)
        if entry is None:
            raise KeyError(f"directory node {self.node_id} has no entry for {oid}")
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[ObjectId, DirEntry]]:
        return iter(self._entries.items())

    def clear(self) -> None:
        """Forget every entry (crash wiped the node's memory)."""
        self._entries.clear()

    def strip_dead(self, live: frozenset) -> int:
        """Remove non-live nodes from every replica set (view change).

        Returns how many entries changed.  Objects whose owner died keep
        ``owner=None`` until the next write transaction re-acquires them.
        """
        changed = 0
        for entry in self._entries.values():
            if entry.replicas is None:
                continue
            replicas = entry.replicas.restricted_to(live)
            if replicas is not entry.replicas:
                entry.replicas = replicas
                changed += 1
        return changed
