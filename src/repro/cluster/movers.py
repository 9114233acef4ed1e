"""Batched, rate-limited ownership movers shared by reconfiguration loops.

Both background control loops that migrate data — the scale-out/drain
:class:`~repro.cluster.rebalance.Rebalancer` and the locality-driven
:class:`~repro.placement.PlacementController` — express their work as the
same primitive: a list of ``(dst, oid, req_type, victim)`` move ops, each
executed as an ordinary ownership acquisition spawned *on the destination
node* so it dies with that node like any in-flight acquire.  The
:class:`MoveExecutor` owns the shared mechanics: batching, a per-batch
completion poll with timeout, and a duty-cycle pause (a floor plus half
the batch's wall time, so a struggling cluster automatically gets a
gentler migration rate).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..obs import TID_NET
from ..ownership.messages import ReqType
from ..store.catalog import ObjectId

__all__ = ["MoveOp", "MoveExecutor"]

NodeId = int

#: One planned migration: (dst node, object, request type, trim victim).
MoveOp = Tuple[NodeId, ObjectId, ReqType, Optional[NodeId]]

#: Concurrent moves per batch, and how long a batch may take to settle.
_BATCH_SIZE = 4
_MOVE_TIMEOUT_US = 4000.0


class MoveExecutor:
    """Executes move ops in rate-limited batches for one cluster.

    ``pause_us`` is the floor of the duty-cycle pause between batches;
    ``counter_group`` names the registry group the executor reports into
    (``rebalance`` for the scale-out loop, ``placement`` for the locality
    controller), so each loop's migration volume stays separately
    attributable.
    """

    def __init__(self, cluster, pause_us: float, counter_group: str):
        self.cluster = cluster
        self.sim = cluster.sim
        self.obs = cluster.obs
        self.pause_us = pause_us
        self.trace_cat = counter_group
        registry = self.obs.registry
        self.c_moved = registry.counter(f"{counter_group}.objects_moved")
        self.c_bytes = registry.counter(f"{counter_group}.bytes")
        self.c_aborts = registry.counter(f"{counter_group}.inflight_aborts")
        self.h_pause = registry.histogram(f"{counter_group}.pause_us")

    def barrier_up(self) -> bool:
        """False while any live node is still mid-recovery (its join
        barrier up): a loop generates no ownership traffic until the
        transfer finishes."""
        return all(h.ownership.barrier_lifted
                   for h in self.cluster.handles if h.node.alive)

    def execute(self, ops: List[MoveOp]):
        """Generator: run ``ops`` in batches, pausing between batches."""
        tracer = self.obs.tracer
        for start in range(0, len(ops), _BATCH_SIZE):
            batch = ops[start:start + _BATCH_SIZE]
            began = self.sim.now
            span = tracer.open(0, TID_NET) if tracer is not None else None
            done: List[bool] = []
            for op in batch:
                self.spawn_mover(op, done)
            deadline = self.sim.now + _MOVE_TIMEOUT_US
            while len(done) < len(batch) and self.sim.now < deadline:
                yield 50.0
            if span is not None:
                tracer.point(self.trace_cat, self.trace_cat, True, ops=int,
                             moved=int, timed_out=int)(
                    span, len(batch), sum(1 for ok in done if ok),
                    len(batch) - len(done))
            # Duty-cycle pause: floor plus half the batch's wall time, so a
            # struggling cluster gets proportionally more breathing room.
            pause = self.pause_us + 0.5 * (self.sim.now - began)
            self.h_pause.record(pause)
            yield pause

    def spawn_mover(self, op: MoveOp, done: List[bool]) -> None:
        dst, oid, req_type, victim = op
        cluster = self.cluster
        handle = cluster.handles[dst]
        if not handle.node.alive:
            done.append(False)
            return
        size = cluster.catalog.size_of(oid)

        def mover():
            outcome = yield from handle.ownership.acquire(oid, req_type,
                                                          victim=victim)
            if outcome.granted:
                if req_type == ReqType.ACQUIRE_OWNER:
                    self.c_moved.inc()
                    self.c_bytes.inc(size)
                elif req_type == ReqType.ADD_READER:
                    self.c_bytes.inc(size)
            else:
                self.c_aborts.inc()
            done.append(outcome.granted)

        # Tied to the destination node: if it dies mid-move the request dies
        # with it, exactly like any in-flight acquire.
        handle.node.spawn(mover(), name=f"{self.trace_cat[:5]}.{oid}")
