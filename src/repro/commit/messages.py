"""Reliable-commit wire messages (Section 5, Figure 4).

* ``rc.inv`` — coordinator → followers: idempotent invalidation carrying
  the transaction id ``(pipeline, slot)``, the epoch, the follower set, and
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

``RAck`` and ``RVal`` are ``NamedTuple`` values.  ``RInv`` is the one
mutable payload: a view change re-stamps a pending slot's epoch in place
(``CommitManager._on_view_change``) before re-broadcasting it.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Tuple

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


class RInv:
    __slots__ = ("pipeline", "slot", "epoch", "followers", "updates",
                 "prev_val", "replay", "data_bytes", "size")

    def __init__(self, pipeline: PipelineId, slot: int, epoch: int,
                 followers: Tuple[NodeId, ...], updates: List[Update],
                 prev_val: bool, replay: bool = False):
        self.pipeline = pipeline
        self.slot = slot
        self.epoch = epoch
        self.followers = followers
        self.updates = updates
        self.prev_val = prev_val
        self.replay = replay
        # Followers and updates never change once the slot is built (a
        # view change re-stamps only the epoch), so both sizes are summed
        # here once, not on every follower send and every apply.
        data = 0
        for update in updates:
            data += update[3]
        #: Payload bytes of the updated objects.
        self.data_bytes = data
        #: Wire size: metadata words plus the payload.
        self.size = (5 + len(followers) + 2 * len(updates)) * _META + data


class RAck(NamedTuple):
    """Batched cumulative acks: entries are (pipeline, highest slot).

    Acking slot *n* implies successful reception and processing of every
    earlier slot of that pipeline this follower participates in (§5.2);
    a follower coalesces acks within a short window, as a DPDK
    implementation batches packets per peer.
    """

    entries: Tuple[Tuple[PipelineId, int], ...]
    epoch: int

    @property
    def size(self) -> int:
        return (1 + 3 * len(self.entries)) * _META


class RVal(NamedTuple):
    """Batched validations: each entry is (pipeline, slot, cumulative)."""

    entries: Tuple[Tuple[PipelineId, int, bool], ...]
    epoch: int

    @property
    def size(self) -> int:
        return (1 + 3 * len(self.entries)) * _META
