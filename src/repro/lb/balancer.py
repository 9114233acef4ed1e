"""The application-level load balancer (Section 3.1).

"External requests issued to Zeus are issued through a load balancer [that]
can extract the application level information, locate relevant object keys
and always forwards requests with the same set of keys to the same server.
... We extract a key from each request and look it up in the key-value
store.  If not found, we pick a destination Zeus node at random, store it
... and forward the request."

Two usage modes:

* **In-path** (:meth:`route_request`): a generator that performs the real
  lookup on the local Hermes replica — including the replicated write on a
  miss — and charges forwarding latency.  The Nginx and gateway experiments
  use this.
* **Table** (:meth:`route`): a synchronous lookup used by OLTP workload
  drivers to partition generated requests across nodes.  It models the
  steady state of the in-path LB without two extra simulated messages per
  transaction, which keeps multi-million-transaction sweeps tractable; the
  routing *decisions* are identical.

The LB also supports explicit :meth:`repin`, which is how workloads model
locality shifts and how operators spread load (the Voter experiments).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..hermes.protocol import HermesReplica
from ..net.message import NodeId

__all__ = ["LoadBalancer"]


class LoadBalancer:
    """Key→node affinity over a Hermes-replicated routing table."""

    def __init__(self, replicas: List[HermesReplica],
                 num_nodes: int, rng: Optional[random.Random] = None,
                 placement: Optional[Callable[[Any], NodeId]] = None):
        if not replicas:
            raise ValueError("need at least one Hermes replica")
        self.replicas = replicas
        self.by_node: Dict[NodeId, HermesReplica] = {
            r.node_id: r for r in replicas
        }
        self.num_nodes = num_nodes
        self.rng = rng or random.Random(0)
        #: Default placement for unknown keys (paper: random node).
        self.placement = placement or (lambda key: self.rng.randrange(self.num_nodes))
        #: Nodes currently accepting new keys (scale-in/out experiments).
        self.active_nodes: List[NodeId] = list(range(num_nodes))
        self.obs = replicas[0].node.obs
        self.sim = replicas[0].node.sim
        self.counters = self.obs.registry.group("lb")
        self.counters.inc("hits", 0)
        self.counters.inc("misses", 0)
        self.counters.inc("repins", 0)

    # ------------------------------------------------------------ table mode

    def route(self, key: Any) -> NodeId:
        """Synchronous routing decision (steady-state model).

        Reads any replica's table (they converge); on a miss, places the
        key and writes the mapping through Hermes.
        """
        replica = self.replicas[0]
        loc = self.obs.locality
        dest = replica.read(key)
        if dest is not None and dest in self.active_nodes:
            self.counters.inc("hits")
            if loc is not None:
                loc.on_route(key, dest, True, self.sim.now)
            return dest
        self.counters.inc("misses")
        dest = self.placement(key)
        if dest not in self.active_nodes:
            dest = self.rng.choice(self.active_nodes)
        replica.write(key, dest)
        if loc is not None:
            loc.on_route(key, dest, False, self.sim.now)
        return dest

    def repin(self, key: Any, node: NodeId) -> None:
        """Explicitly re-route a key (locality shift / load spreading)."""
        self.replicas[0].write(key, node)
        self.counters.inc("repins")
        loc = self.obs.locality
        if loc is not None:
            loc.on_repin(key, node, self.sim.now)

    def lookup(self, key: Any) -> Optional[NodeId]:
        return self.replicas[0].read(key)

    # ---------------------------------------------------------- in-path mode

    def route_request(self, ingress_node: NodeId, key: Any):
        """Generator: the real request path through one LB instance.

        The request arrives at the LB instance co-located with
        ``ingress_node``, performs a local Hermes read (write-through on a
        miss), and returns the destination node.  The caller charges the
        forwarding hop.
        """
        replica = self.by_node.get(ingress_node, self.replicas[0])
        loc = self.obs.locality
        yield 0.3  # key extraction + table lookup CPU
        dest = replica.read(key)
        if dest is not None and dest in self.active_nodes:
            self.counters.inc("hits")
            if loc is not None:
                loc.on_route(key, dest, True, self.sim.now)
            return dest
        self.counters.inc("misses")
        dest = self.placement(key)
        if dest not in self.active_nodes:
            dest = self.rng.choice(self.active_nodes)
        yield replica.write(key, dest)  # replicated write-through
        if loc is not None:
            loc.on_route(key, dest, False, self.sim.now)
        return dest

    # ------------------------------------------------------------- scaling

    def set_active(self, nodes: List[NodeId]) -> None:
        """Scale the serving set in or out (Figure 15's experiment).

        Keys pinned to now-inactive nodes are re-placed on their next
        request (route() treats them as misses).
        """
        if not nodes:
            raise ValueError("at least one active node required")
        self.active_nodes = list(nodes)

    def grow(self, new_nodes: Iterable[NodeId],
             keys: Optional[Iterable[Any]] = None) -> int:
        """Admit freshly added cluster nodes and shift load onto them.

        ``set_active`` alone is enough for scale-*in*; for scale-*out*
        every existing key stays pinned to an old node, so the joiners
        would only ever see traffic for keys first requested after the
        add.  Passing ``keys`` (the live key population) additionally
        re-pins a fair share onto the joiners — the operator-driven load
        spread of the Voter experiments, applied to a grown serving set —
        after which Zeus's locality protocol migrates the objects behind
        those keys to their new access point.  Returns how many keys were
        re-pinned.  Deterministic: surplus keys move in table order.
        """
        joiners = [n for n in sorted(set(new_nodes))
                   if n not in self.active_nodes]
        self.active_nodes.extend(joiners)
        self.num_nodes = max(self.num_nodes, max(self.active_nodes) + 1)
        if not joiners or keys is None:
            return 0
        pinned: Dict[NodeId, List[Any]] = {n: [] for n in self.active_nodes}
        all_keys = list(keys)
        for key in all_keys:
            cur = self.lookup(key)
            if cur in pinned:
                pinned[cur].append(key)
        target = -(-len(all_keys) // len(self.active_nodes))  # ceil
        surplus = [key for _n, ks in sorted(pinned.items())
                   for key in ks[target:]]
        moved = 0
        for joiner in joiners:
            take = max(0, target - len(pinned[joiner]))
            for key in surplus[:take]:
                self.repin(key, joiner)  # repin() counts lb.repins
                moved += 1
            surplus = surplus[take:]
        return moved
