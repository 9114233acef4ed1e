"""Live reconfiguration: rate-limited ownership rebalancing and drains.

Zeus's locality protocol already contains everything needed to move data
while transactions run: ownership acquisition is the *normal* path for
shifting an object between nodes, and the recovery machinery re-replicates
under-replicated objects.  The :class:`Rebalancer` composes those existing
primitives into a background control loop:

* **scale-out** — after :meth:`ZeusCluster.add_nodes` admits fresh nodes
  through the quarantine path, the rebalancer migrates ownership toward
  them in small batches until the per-node owned-object counts are level;
* **graceful drain** — :meth:`drain` moves every duty off a node (owned
  objects away, replica copies re-created elsewhere, then the node's own
  copies trimmed), waits for its in-flight commit work to finish, and only
  then halts and retires it with an epoch bump.

Every migration is a plain ``ACQUIRE_OWNER`` / ``ADD_READER`` /
``REMOVE_READER`` request, so all of the protocol's safety machinery
(per-object timestamps, directory arbitration, busy-commit back-off)
applies unchanged — a crash mid-rebalance is just a crash, handled by the
same recovery paths as any other.

Rate limiting is a duty cycle: after each batch of concurrent moves the
loop pauses for the configured floor *plus* half the time the batch took,
so a slow cluster automatically gets a gentler rebalance.  The loop runs
as a **raw simulator process** (not tied to any node), so it survives
crashes and even a full power loss: after a cold restart it simply picks
up where the directory state says it left off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..obs import TID_NET
from ..ownership.messages import ReqType
from ..sim.process import Future, Process
from ..store.catalog import ObjectId
from .movers import MoveExecutor, MoveOp

__all__ = ["Rebalancer", "MoveOp"]

NodeId = int

#: Control-loop period.
_POLL_US = 200.0
#: Consecutive idle polls a draining node must stay quiet before its
#: process is halted (covers transactions past their ownership phase but
#: not yet in the commit pipeline).
_QUIET_POLLS = 3


class Rebalancer:
    """Background ownership/replica migration driver for one cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.obs = cluster.obs
        #: Shared batched-mover machinery (also used by the placement
        #: controller, under its own counter group).
        self.executor = MoveExecutor(cluster, pause_us=150.0,
                                     counter_group="rebalance")

        self._c_drains = self.obs.registry.counter(
            "rebalance.drains_completed")

        #: Nodes currently being drained (removed once retired): the
        #: cluster's set, which workload workers test on every transaction.
        self.draining: Set[NodeId] = cluster.draining
        self._quiet: Dict[NodeId, int] = {}
        self._drain_waiters: Dict[NodeId, List[Future]] = {}
        self._converge_waiters: List[Future] = []
        self._proc: Optional[Process] = None

    # ------------------------------------------------------------ public API

    def request(self) -> None:
        """Ensure the background loop is running (idempotent)."""
        if self._proc is None or self._proc.done():
            self._proc = Process(self.sim, self._loop(), name="rebalancer")

    def converge(self) -> Future:
        """Future resolved the next time the cluster is balanced and no
        drain is outstanding (sets ``cluster.last_converge_at``)."""
        fut = Future(self.sim)
        self._converge_waiters.append(fut)
        self.request()
        return fut

    def drain(self, node_id: NodeId) -> Future:
        """Begin a graceful drain; the future resolves once the node has
        been halted and retired (its id leaves the membership view)."""
        cluster = self.cluster
        fut = Future(self.sim)
        if node_id in cluster.retired:
            fut.set_result(node_id)
            return fut
        members = {n for n in cluster.membership.view.live
                   if n not in self.draining and n not in cluster.retired}
        if len(members - {node_id}) < 1:
            raise RuntimeError("cannot drain the last live member")
        self.draining.add(node_id)
        self._quiet[node_id] = 0
        self._drain_waiters.setdefault(node_id, []).append(fut)
        # Bias every node's replica-trim choice toward the leaver, so the
        # ordinary post-acquire trim evicts its copies as a side effect.
        for h in cluster.handles:
            h.ownership.trim_preferred.add(node_id)
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("rebalance.drain_begin", "rebalance", False)(
                node_id, TID_NET, None)
        self.request()
        return fut

    # ---------------------------------------------------------- control loop

    def _loop(self):
        idle_rounds = 0
        while True:
            yield _POLL_US
            cluster = self.cluster
            if not any(n.alive for n in cluster.nodes):
                # Power loss mid-rebalance: the loop itself survives (it is
                # not tied to a node); wait for the cold restart.
                idle_rounds = 0
                yield _POLL_US * 10
                continue
            if not self.executor.barrier_up():
                # A node is mid-recovery; let the transfer finish before
                # generating extra ownership traffic.
                idle_rounds = 0
                continue
            ops = self._plan_balance()
            for x in sorted(self.draining):
                ops.extend(self._plan_drain(x))
            if ops:
                idle_rounds = 0
                yield from self.executor.execute(ops)
                continue
            if self._maybe_finalize_drains():
                idle_rounds = 0
                continue
            if self.draining:
                # Waiting on a draining node to go quiet (or to come back
                # from a mid-drain crash); keep polling.
                idle_rounds = 0
                continue
            if not self._cluster_quiet():
                # Application acquires are still in flight (e.g. requests a
                # joiner's quarantine stalled until its watchdog); settling
                # now would declare balance that those grants immediately
                # skew.  Wait them out, then re-plan.
                idle_rounds = 0
                continue
            idle_rounds += 1
            if idle_rounds >= 2:
                self._settle()
                return

    def _cluster_quiet(self) -> bool:
        # Arbiter-side pending arbitrations count too: an abandoned
        # request's rollback (or a straggler VAL behind a healing channel)
        # will still rewrite directory entries when it lands — settling
        # before that re-skews the declared balance.
        return not any(h.ownership._reqs or h.ownership._pending_arb
                       for h in self.cluster.handles if h.node.alive)

    def _settle(self) -> None:
        self.cluster.last_converge_at = self.sim.now
        loc = self.cluster.obs.locality
        if loc is not None:
            loc.mark("converged", self.sim.now)
        waiters, self._converge_waiters = self._converge_waiters, []
        for fut in waiters:
            if not fut.done():
                fut.set_result(self.sim.now)

    # ------------------------------------------------------------- planning

    def _members(self) -> List[NodeId]:
        cluster = self.cluster
        return sorted(n for n in cluster.membership.view.live
                      if n not in self.draining and n not in cluster.retired
                      and cluster.nodes[n].alive)

    def _plan_balance(self) -> List[MoveOp]:
        """Greedy ownership leveling: move from the most- to the least-owning
        member until the spread is at most one object."""
        cluster = self.cluster
        members = self._members()
        if len(members) < 2:
            return []
        owned: Dict[NodeId, List[ObjectId]] = {m: [] for m in members}
        for oid in range(cluster.catalog.num_objects):
            rep = cluster.replicas_of(oid)
            if rep is None or rep.owner is None:
                continue
            if rep.owner in owned:
                owned[rep.owner].append(oid)
        ops: List[MoveOp] = []
        while True:
            hi = max(members, key=lambda m: (len(owned[m]), m))
            lo = min(members, key=lambda m: (len(owned[m]), m))
            if len(owned[hi]) - len(owned[lo]) <= 1:
                break
            oid = owned[hi].pop()
            ops.append((lo, oid, ReqType.ACQUIRE_OWNER, None))
            owned[lo].append(oid)
        return ops

    def _plan_drain(self, leaver: NodeId) -> List[MoveOp]:
        """Everything still anchoring ``leaver``: owned objects to move
        away, under-replicated sets to repair, lingering copies to trim."""
        cluster = self.cluster
        if not cluster.nodes[leaver].alive:
            return []  # crashed mid-drain; recovery must bring it back first
        members = self._members()
        if not members:
            return []
        target = min(cluster.catalog.replication_degree, len(members))
        load = {m: 0 for m in members}
        moves: List[MoveOp] = []
        adds: List[MoveOp] = []
        removes: List[MoveOp] = []
        for oid in range(cluster.catalog.num_objects):
            rep = cluster.replicas_of(oid)
            if rep is None:
                continue
            if rep.owner in load:
                load[rep.owner] += 1
            if rep.owner == leaver:
                dst = min(members, key=lambda m: (load[m], m))
                load[dst] += 1
                moves.append((dst, oid, ReqType.ACQUIRE_OWNER, None))
                continue
            if leaver not in rep.readers:
                continue
            others = rep.all_nodes() - {leaver}
            if len(others) < target:
                spare = [m for m in members if m not in others]
                if spare:
                    dst = min(spare, key=lambda m: (load[m], m))
                    adds.append((dst, oid, ReqType.ADD_READER, None))
                    continue
            if rep.owner is not None and rep.owner != leaver:
                removes.append((rep.owner, oid, ReqType.REMOVE_READER, leaver))
        return moves + adds + removes

    # ---------------------------------------------------------------- drain

    def _maybe_finalize_drains(self) -> bool:
        finalized = False
        for leaver in sorted(self.draining):
            if not self.cluster.nodes[leaver].alive:
                continue  # crashed mid-drain; wait for its recovery
            if self._node_busy(leaver):
                self._quiet[leaver] = 0
                continue
            self._quiet[leaver] = self._quiet.get(leaver, 0) + 1
            if self._quiet[leaver] >= _QUIET_POLLS:
                self._finalize_drain(leaver)
                finalized = True
        return finalized

    def _node_busy(self, node_id: NodeId) -> bool:
        """True while the draining node still has protocol work in flight."""
        h = self.cluster.handles[node_id]
        own, commit = h.ownership, h.commit
        return bool(own._reqs or own._pending_arb
                    or any(v > 0 for v in commit._pending_by_oid.values())
                    or any(p.slots for p in commit._coord.values()))

    def _finalize_drain(self, leaver: NodeId) -> None:
        cluster = self.cluster
        self.draining.discard(leaver)
        self._quiet.pop(leaver, None)
        for h in cluster.handles:
            h.ownership.trim_preferred.discard(leaver)
        cluster.retire(leaver)
        self._c_drains.inc()
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("rebalance.drain_done", "rebalance", False)(
                leaver, TID_NET, None)
        for fut in self._drain_waiters.pop(leaver, []):
            if not fut.done():
                fut.set_result(leaver)
