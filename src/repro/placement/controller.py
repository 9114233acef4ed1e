"""The background placement control loop.

Runs as a **raw simulator process** (like the rebalancer: not tied to any
node, so it survives crashes and power loss), waking every ``period_us``
to

1. snapshot the locality recorder (:meth:`LocalityRecorder.
   placement_snapshot`) and the cluster's placement view (owners, replica
   sets, LB pins, degree overrides);
2. run the pure :class:`~repro.placement.policy.PlacementPolicy` over
   them;
3. execute the actuations through existing primitives — ownership moves
   via the same rate-limited batched movers the rebalancer uses
   (:class:`~repro.cluster.movers.MoveExecutor`, under the ``placement.*``
   counter group), re-pins via the load balancer, and degree overrides
   installed on every node's ownership manager so post-acquire trims
   honor them.

Every cycle appends a decision record ``{cycle, now_us, snapshot, view,
actuations}`` to :attr:`PlacementController.decisions`.  The record holds
*everything* the policy saw, so (a) the log serialized with sorted keys
is byte-identical across same-seed runs, and (b) replaying any record's
``(snapshot, view, now_us)`` through the policy offline reproduces its
``actuations`` exactly — the differential harness gates on both.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..cluster.movers import MoveExecutor, MoveOp
from ..ownership.messages import ReqType
from ..sim.process import Process
from .policy import PlacementPolicy

__all__ = ["PlacementController"]


class PlacementController:
    """Adaptive replica-provision loop for one cluster."""

    def __init__(self, cluster, lb=None,
                 policy: Optional[PlacementPolicy] = None,
                 period_us: float = 600.0):
        self.cluster = cluster
        self.sim = cluster.sim
        self.obs = cluster.obs
        self.lb = lb
        self.policy = policy or PlacementPolicy()
        self.period_us = period_us
        self.executor = MoveExecutor(cluster, pause_us=100.0,
                                     counter_group="placement")
        registry = self.obs.registry
        self._c_cycles = registry.counter("placement.cycles")
        self._c_acts = registry.counter("placement.actuations")
        self._c_repins = registry.counter("placement.repins")
        self._c_degrees = registry.counter("placement.degree_sets")
        #: One record per control cycle (see module docstring).
        self.decisions: List[Dict[str, Any]] = []
        self.cycles = 0
        self._proc: Optional[Process] = None
        self._stopped = False
        # Joiners must honor degree overrides installed before they
        # existed, or their first post-acquire trim undoes a widening.
        cluster.on_nodes_added(self._on_nodes_added)

    def _on_nodes_added(self, new_ids) -> None:
        overrides = dict(self.cluster.handles[0].ownership.degree_overrides)
        for nid in new_ids:
            self.cluster.handles[nid].ownership.degree_overrides.update(
                overrides)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Ensure the control loop is running (idempotent)."""
        self._stopped = False
        if self._proc is None or self._proc.done():
            self._proc = Process(self.sim, self._loop(), name="placement")

    def stop(self) -> None:
        """Stop issuing actuations (the loop exits at its next wake-up).

        Chaos runs call this before the final rebalancer convergence so
        the reconfig audit's balance clause is judged on a leveled state
        the controller no longer perturbs."""
        self._stopped = True

    @property
    def running(self) -> bool:
        return self._proc is not None and not self._proc.done()

    def decision_log_json(self) -> str:
        """The decision log as canonical JSON (sorted keys, compact
        separators) — byte-identical across same-seed runs."""
        return json.dumps(self.decisions, sort_keys=True,
                          separators=(",", ":"))

    # ------------------------------------------------------------ the loop

    def _loop(self):
        while not self._stopped:
            yield self.period_us
            if self._stopped:
                return
            cluster = self.cluster
            if not any(n.alive for n in cluster.nodes):
                yield self.period_us * 10  # power loss; wait for restart
                continue
            if not self.executor.barrier_up():
                continue  # recovery transfer in progress; stay out
            loc = self.obs.locality
            snapshot = (loc.placement_snapshot() if loc is not None
                        else {})
            view = self._view()
            # The policy sees the *rounded* clock, so a recorded decision
            # replays offline bit-for-bit from its JSON record.
            now = round(self.sim.now, 3)
            actuations = self.policy.decide(snapshot, view, now)
            self.decisions.append({
                "cycle": self.cycles,
                "now_us": now,
                "snapshot": snapshot,
                "view": view,
                "actuations": actuations,
            })
            self.cycles += 1
            self._c_cycles.inc()
            if actuations:
                self._c_acts.inc(len(actuations))
                yield from self._apply(actuations, view)

    # ------------------------------------------------------------- the view

    def _view(self) -> Dict[str, Any]:
        """The cluster's placement state, as JSON-stable values (string
        object keys, sorted lists) so decision records replay offline."""
        cluster = self.cluster
        overrides = cluster.handles[0].ownership.degree_overrides
        objects: Dict[str, Any] = {}
        for oid in range(cluster.catalog.num_objects):
            rep = cluster.replicas_of(oid)
            if rep is None:
                continue
            pin = self.lb.lookup(oid) if self.lb is not None else None
            objects[str(oid)] = {
                "owner": rep.owner,
                "replicas": sorted(rep.all_nodes()),
                "pin": pin,
                "override": overrides.get(oid),
            }
        live = sorted(n for n in cluster.membership.view.live
                      if n < len(cluster.nodes) and cluster.nodes[n].alive
                      and n not in cluster.retired
                      and not cluster.is_draining(n))
        return {
            "objects": objects,
            "live": live,
            "base_degree": cluster.params.replication_degree,
        }

    # ----------------------------------------------------------- actuation

    def _apply(self, actuations: List[Dict[str, Any]],
               view: Dict[str, Any]):
        cluster = self.cluster
        moves: List[MoveOp] = []
        for act in actuations:
            kind = act["kind"]
            if kind == "repin":
                if self.lb is not None:
                    self.lb.repin(act["key"], act["dst"])
                    self._c_repins.inc()
            elif kind == "set_degree":
                oid, degree = act["oid"], act["degree"]
                self._c_degrees.inc()
                for h in cluster.handles:
                    if degree == cluster.params.replication_degree:
                        h.ownership.degree_overrides.pop(oid, None)
                    else:
                        h.ownership.degree_overrides[oid] = degree
            elif kind == "migrate":
                moves.append((act["dst"], act["oid"],
                              ReqType.ACQUIRE_OWNER, None))
            elif kind == "add_reader":
                moves.append((act["dst"], act["oid"],
                              ReqType.ADD_READER, None))
            elif kind == "remove_reader":
                vo = view["objects"].get(str(act["oid"]))
                owner = vo.get("owner") if vo else None
                if owner is not None:
                    moves.append((owner, act["oid"],
                                  ReqType.REMOVE_READER, act["victim"]))
        if moves:
            yield from self.executor.execute(moves)
