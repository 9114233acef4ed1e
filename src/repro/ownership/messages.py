"""Ownership-protocol wire messages (Section 4, Figure 3).

Message kinds:

* ``own.req``    requester → driver (an arbitrarily chosen directory node)
* ``own.inv``    driver → remaining arbiters (directory nodes + owner);
                 also used by arb-replay with ``replay=True``
* ``own.ack``    arbiter → requester (normal) or → replay driver
* ``own.nack``   driver/owner → requester (contention, busy, recovering)
* ``own.val``    requester (or replay driver) → arbiters: apply the request
* ``own.resp``   replay driver → requester: you won, apply then VAL
* ``own.abort``  requester/replay driver → arbiters: revert a NACKed request
* ``own.fetch`` / ``own.data``  recovery-path object-value transfer

Sizes are modeled analytically (metadata fields ≈ 8B each) so bandwidth
accounting stays meaningful; an owner ACK to a non-replica requester also
carries the object value (Section 6.2: "the value is included in a single
ownership message").

Every message is a ``NamedTuple``: what a node sends is fixed when it is
sent, so a replayed or duplicated copy is the original.  None carries an
epoch: REQ, INV, ACK, NACK and RESP are dropped where ``msg.epoch`` is not
the node's; VAL, ABORT, FETCH and DATA match their arbitration by
``o_ts`` or ``req_id``, which a view change does not rename.  Sizes count
the epoch word.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any, NamedTuple, Optional, Tuple

from ..net.message import NodeId
from ..store.catalog import ObjectId
from ..store.meta import Ots, ReplicaSet

__all__ = [
    "ReqId",
    "ReqType",
    "NackReason",
    "OwnReq",
    "OwnInv",
    "OwnAck",
    "OwnNack",
    "OwnVal",
    "OwnResp",
    "OwnAbort",
    "OwnFetch",
    "OwnData",
    "KIND_REQ",
    "KIND_INV",
    "KIND_ACK",
    "KIND_NACK",
    "KIND_VAL",
    "KIND_RESP",
    "KIND_ABORT",
    "KIND_FETCH",
    "KIND_DATA",
]

KIND_REQ = "own.req"
KIND_INV = "own.inv"
KIND_ACK = "own.ack"
KIND_NACK = "own.nack"
KIND_VAL = "own.val"
KIND_RESP = "own.resp"
KIND_ABORT = "own.abort"
KIND_FETCH = "own.fetch"
KIND_DATA = "own.data"

_META = 8  # modeled bytes per metadata field

#: (requester, per-requester counter)
ReqId = Tuple[NodeId, int]


class ReqType(IntEnum):
    """Sharding request types (Sections 4 and 6.2)."""

    ACQUIRE_OWNER = 0
    ADD_READER = 1
    REMOVE_READER = 2


class NackReason(IntEnum):
    BUSY_ARBITRATION = 0   # directory entry already mid-arbitration
    BUSY_COMMIT = 1        # owner has a pending reliable commit / open txn
    CONTENTION_LOST = 2    # a larger-o_ts contender won
    RECOVERING = 3         # owner dead, recovery barrier not lifted yet
    ALREADY_GRANTED = 4    # requester already holds the level (success no-op)
    NO_DATA = 5            # owner and all readers dead (beyond f failures)
    TIMEOUT = 6            # requester-side watchdog fired


class OwnReq(NamedTuple):
    req_id: ReqId
    oid: ObjectId
    requester: NodeId
    req_type: ReqType
    #: Reader to discard, for REMOVE_READER.
    victim: Optional[NodeId] = None

    size = 5 * _META


class OwnInv(NamedTuple):
    """Driver → arbiters.  An arb-replay re-sends the same INV to the live
    arbiter set (``inv._replace(arbiters=..., replay=True)``) in the new
    epoch: every other field is the original's."""

    req_id: ReqId
    oid: ObjectId
    o_ts: Ots
    new_replicas: ReplicaSet
    requester: NodeId
    req_type: ReqType
    #: All arbiters of this request (directory nodes + current owner).
    arbiters: Tuple[NodeId, ...]
    #: Node whose ACK must carry the object value (None if requester
    #: already stores it).
    data_source: Optional[NodeId]
    #: Pre-arbitration metadata, retained so an abort can revert.
    prev_replicas: ReplicaSet
    prev_ts: Ots
    replay: bool = False

    @property
    def size(self) -> int:
        return (8 + len(self.arbiters) + self.new_replicas.size()) * _META


class OwnAck(NamedTuple):
    req_id: ReqId
    oid: ObjectId
    o_ts: Ots
    arbiters: Tuple[NodeId, ...]
    new_replicas: ReplicaSet
    data: Any = None
    data_version: Optional[int] = None

    def size_with(self, obj_size: int) -> int:
        base = (6 + len(self.arbiters)) * _META
        return base + (obj_size if self.data_version is not None else 0)


class OwnNack(NamedTuple):
    req_id: ReqId
    oid: ObjectId
    reason: NackReason
    #: Arbiters the requester must ABORT (owner-busy NACKs only).
    arbiters: Tuple[NodeId, ...] = ()
    o_ts: Optional[Ots] = None

    size = 5 * _META


class OwnVal(NamedTuple):
    req_id: ReqId
    oid: ObjectId
    o_ts: Ots

    size = 4 * _META


class OwnResp(NamedTuple):
    """Replay driver → live requester: the arb-replay settled, so finish
    the grant as if every ACK had arrived — FETCH the value from
    ``data_source`` first if the requester holds no copy, then apply and
    VAL ``arbiters`` (the live ones)."""

    req_id: ReqId
    oid: ObjectId
    o_ts: Ots
    new_replicas: ReplicaSet
    arbiters: Tuple[NodeId, ...]
    data_source: Optional[NodeId]

    size = 8 * _META


class OwnAbort(NamedTuple):
    req_id: ReqId
    oid: ObjectId
    o_ts: Ots

    size = 4 * _META


class OwnFetch(NamedTuple):
    req_id: ReqId
    oid: ObjectId

    size = 3 * _META


class OwnData(NamedTuple):
    req_id: ReqId
    oid: ObjectId
    data: Any
    data_version: int

    def size_with(self, obj_size: int) -> int:
        return 4 * _META + obj_size
