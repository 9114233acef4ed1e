"""Node recovery: every way a node comes back, as one phase machine.

A crashed node that restarts comes back *empty* — crash-stop wiped its
store, directory shard, and every in-flight protocol context; a node a
scale-out adds starts empty.  :class:`RecoveryManager` turns either into
a full replica:

1. membership admits it under a bumped epoch and a fresh incarnation
   (pre-crash traffic is fenced at every peer);
2. a state-transfer protocol streams directory snapshots from live
   directory hosts (chunked, timestamp-guarded, restartable if a donor
   dies mid-transfer);
3. a re-replication pass restores every degraded replica set to the
   target degree through the ordinary ownership protocol, which also
   carries the object values — so writes racing the transfer are handled
   by the same idempotence rules as any other replication traffic.

After a full-cluster power loss it instead replays the durable image and
reconciles the nodes' diverging durable tails.
"""

from .manager import Phase, RecoveryManager

__all__ = ["Phase", "RecoveryManager"]
