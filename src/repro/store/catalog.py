"""Global object naming: tables, keys, object ids, sizes, initial placement.

The catalog is deployment-wide static configuration (which tables exist,
how big their rows are, where objects start out).  It deliberately carries
no *dynamic* state — current ownership lives in the directory and moves at
runtime via the ownership protocol.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..net.message import NodeId
from ..sim.rng import hash_str
from .meta import ReplicaSet

__all__ = ["Catalog", "TableSpec", "ObjectId"]

#: Objects are identified by dense integers for speed.
ObjectId = int


class TableSpec:
    """A table: a named collection of fixed-size objects."""

    __slots__ = ("name", "obj_size", "table_id", "first_oid", "count")

    def __init__(self, name: str, obj_size: int, table_id: int):
        self.name = name
        self.obj_size = obj_size
        self.table_id = table_id
        self.first_oid: Optional[ObjectId] = None
        self.count = 0


class Catalog:
    """Assigns dense object ids and remembers per-object size + placement."""

    def __init__(self, num_nodes: int, replication_degree: int = 3,
                 directory_mode: str = "single"):
        if replication_degree < 1:
            raise ValueError("replication degree must be >= 1")
        if replication_degree > num_nodes:
            raise ValueError(
                f"replication degree {replication_degree} exceeds cluster size {num_nodes}"
            )
        if directory_mode not in ("single", "hashed"):
            raise ValueError(f"unknown directory mode {directory_mode!r}")
        self.num_nodes = num_nodes
        self.replication_degree = replication_degree
        #: "single": one directory replicated on the first three nodes
        #: (the paper's default).  "hashed": per-object directory triplets
        #: by rendezvous hashing — the distributed-directory scheme §6.2
        #: prescribes for large deployments or limited locality.
        self.directory_mode = directory_mode
        #: Initial and directory placement are frozen at the
        #: construction-time cluster size: nodes added later by :meth:`grow`
        #: never host directory entries and are no object's initial replica.
        #: Re-sharding the arbiters onto state-less fresh nodes mid-run
        #: would hand the recovery barrier to nodes with no entries to
        #: arbitrate; keeping placement pinned preserves the §4 fencing
        #: argument across elastic membership changes.
        self._base = num_nodes
        self._dir_nodes = tuple(range(min(3, num_nodes)))
        #: Hashed mode: oid -> its directory triplet, ranked on first use
        #: (placement is frozen at ``_base``, so it never goes stale).
        #: It lives here, not on the protocol managers: the exhaustive
        #: explorer keys its states on the managers' attributes.
        self._hashed_dirs: Dict[ObjectId, Tuple[NodeId, ...]] = {}
        self.tables: Dict[str, TableSpec] = {}
        self._sizes: List[int] = []
        #: ``size_of(oid)`` -> the object's size in bytes: the list's own
        #: bound ``__getitem__`` (every ownership ACK and grant asks).
        self.size_of = self._sizes.__getitem__
        self._initial_owner: List[NodeId] = []
        #: owner -> the one shared initial :class:`ReplicaSet` of every
        #: object it starts out owning (frozen at ``_base``, like the
        #: directory, so it never goes stale).
        self._placements: Dict[NodeId, ReplicaSet] = {}
        self._key_index: Dict[Tuple[str, object], ObjectId] = {}

    # -------------------------------------------------------------- schema

    def add_table(self, name: str, obj_size: int) -> TableSpec:
        if name in self.tables:
            raise ValueError(f"table {name!r} already exists")
        spec = TableSpec(name, obj_size, table_id=len(self.tables))
        self.tables[name] = spec
        return spec

    def create_object(self, table: str, key: object,
                      owner: Optional[NodeId] = None) -> ObjectId:
        """Register one object; returns its oid.

        ``owner`` fixes initial placement; default hashes the key across
        nodes (static sharding, the baseline's only placement mechanism).
        """
        spec = self.tables[table]
        oid = len(self._sizes)
        if spec.first_oid is None:
            spec.first_oid = oid
        spec.count += 1
        self._sizes.append(spec.obj_size)
        if owner is None:
            owner = self._hash_place(table, key)
        self._initial_owner.append(owner)
        self._key_index[(table, key)] = oid
        return oid

    def grow(self, count: int) -> Tuple[NodeId, ...]:
        """Extend the placement universe by ``count`` fresh node ids.

        Returns the new ids (dense, following the existing ones).  Only
        the *universe* grows: directory placement stays frozen at the
        construction-time base (see ``_base``) and existing objects
        keep their initial placement — moving data onto the new nodes is
        the rebalancer's job, via the ownership protocol's normal
        handover path.
        """
        if count < 1:
            raise ValueError("must grow by at least one node")
        first = self.num_nodes
        self.num_nodes += count
        return tuple(range(first, first + count))

    def _hash_place(self, table: str, key: object) -> NodeId:
        return hash_str(f"{table}:{key}") % self.num_nodes

    # -------------------------------------------------------------- lookup

    def oid(self, table: str, key: object) -> ObjectId:
        return self._key_index[(table, key)]

    def initial_owner(self, oid: ObjectId) -> NodeId:
        return self._initial_owner[oid]

    def initial_owners(self) -> Tuple[NodeId, ...]:
        """Every object's initial owner, indexed by oid."""
        return tuple(self._initial_owner)

    def initial_replicas(self, oid: ObjectId) -> ReplicaSet:
        """Owner plus the next ``degree - 1`` nodes round-robin."""
        return self.placement(self._initial_owner[oid])

    def placement(self, owner: NodeId) -> ReplicaSet:
        """The initial replica set of every object ``owner`` starts out
        owning: one shared immutable value per owner, the readers taken
        round-robin over the construction-time nodes."""
        replicas = self._placements.get(owner)
        if replicas is None:
            readers = tuple(sorted((owner + i) % self._base
                                   for i in range(1, self.replication_degree)))
            replicas = self._placements[owner] = ReplicaSet(owner, readers)
        return replicas

    @property
    def num_objects(self) -> int:
        return len(self._sizes)

    def directory_nodes(self) -> Tuple[NodeId, ...]:
        """The (up to) three nodes hosting cluster-wide directory duties
        (the recovery barrier always lives here, whatever the mode)."""
        return self._dir_nodes

    def directory_nodes_for(self, oid: ObjectId) -> Tuple[NodeId, ...]:
        """The directory replicas arbitrating ``oid``.

        Single mode: the fixed first-three nodes.  Hashed mode: the top
        three nodes by rendezvous hash of (oid, node) — stable per object,
        uniformly spread, and minimally disturbed by membership changes.
        Rendezvous ranking runs over the frozen base, so :meth:`grow`
        never reshuffles arbiters.
        """
        if self.directory_mode == "single" or self._base <= 3:
            return self._dir_nodes
        dirs = self._hashed_dirs.get(oid)
        if dirs is None:
            ranked = sorted(range(self._base),
                            key=lambda n: hash_str(f"dir:{oid}:{n}"))
            dirs = self._hashed_dirs[oid] = tuple(sorted(ranked[:3]))
        return dirs

    def hosts_directory(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` may hold directory entries at all."""
        if self.directory_mode == "hashed" and self._base > 3:
            return node_id < self._base
        return node_id in self._dir_nodes
