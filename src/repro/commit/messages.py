"""Reliable-commit wire messages (Section 5, Figure 4).

* ``rc.inv`` — coordinator → followers: idempotent invalidation carrying
  the transaction id ``(pipeline, slot)``, the follower set, and
  per-object ``(oid, t_version, t_data)``.  The ``prev_val`` bit tells a
  follower that every earlier slot of this pipeline is already validated
  (the partial-stream rule of Section 5.2).
* ``rc.ack`` — follower → coordinator, cumulative per pipeline.
* ``rc.val`` — coordinator → followers; entries are ``(pipeline, slot,
  cumulative)``; several validations to the same follower are batched into
  one message (the paper's piggybacking optimization).

A *pipeline* is ``(node_id, thread_idx)`` — Zeus pipelines per thread, not
per node (Section 7), which is what lets the local commit's thread
ownership double as pipeline separation.

Every message is a tuple, fixed when it is sent, and none carries an
epoch: a handler drops a message whose ``msg.epoch`` is not its node's.
A view change re-sends a pending R-INV unchanged; a copy still in flight
keeps the epoch it was sent in.  Sizes count the epoch word.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, NamedTuple, Tuple

from ..net.message import NodeId
from ..store.catalog import ObjectId

__all__ = ["RInv", "RAck", "RVal", "KIND_RINV", "KIND_RACK", "KIND_RVAL",
           "PipelineId", "Update"]

KIND_RINV = "rc.inv"
KIND_RACK = "rc.ack"
KIND_RVAL = "rc.val"

_META = 8

#: (node_id, thread_idx)
PipelineId = Tuple[NodeId, int]
#: (oid, new_version, new_data, size_bytes)
Update = Tuple[ObjectId, int, Any, int]


class RInv(namedtuple("RInv", ("pipeline", "slot", "followers", "updates",
                               "prev_val", "replay", "data_bytes", "size"))):
    """One slot's invalidation.  A follower replaying it after the
    coordinator died sends ``inv._replace(replay=True)``.  Both sizes are
    summed here once, not on every follower send and every apply."""

    __slots__ = ()

    def __new__(cls, pipeline: PipelineId, slot: int,
                followers: Tuple[NodeId, ...], updates: Tuple[Update, ...],
                prev_val: bool) -> "RInv":
        data = 0
        for update in updates:
            data += update[3]
        return tuple.__new__(cls, (
            pipeline, slot, followers, updates, prev_val, False, data,
            (5 + len(followers) + 2 * len(updates)) * _META + data))


class RAck(NamedTuple):
    """Batched cumulative acks: entries are (pipeline, highest slot).

    Acking slot *n* implies successful reception and processing of every
    earlier slot of that pipeline this follower participates in (§5.2);
    a follower coalesces acks within a short window, as a DPDK
    implementation batches packets per peer.
    """

    entries: Tuple[Tuple[PipelineId, int], ...]

    @property
    def size(self) -> int:
        return (1 + 3 * len(self.entries)) * _META


class RVal(NamedTuple):
    """Batched validations: each entry is (pipeline, slot, cumulative)."""

    entries: Tuple[Tuple[PipelineId, int, bool], ...]

    @property
    def size(self) -> int:
        return (1 + 3 * len(self.entries)) * _META
