"""Baseline cluster assembly (mirror of :class:`ZeusCluster`).

Same simulator, same network model, same catalog and initial placement —
the only difference is the engine running on the nodes, so throughput
comparisons isolate the protocol difference (Section 6.1).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..cluster.node import Node
from ..net.fault import FaultInjector
from ..net.network import Network
from ..sim.kernel import Simulator
from ..sim.params import SimParams
from ..sim.process import Process
from ..sim.rng import RngRegistry
from ..store.catalog import Catalog
from .engine import BaselineEngine
from .profiles import BaselineProfile

__all__ = ["BaselineCluster"]


class BaselineCluster:
    """A static-sharding distributed-commit deployment."""

    def __init__(self, num_nodes: int, profile: BaselineProfile,
                 params: Optional[SimParams] = None,
                 catalog: Optional[Catalog] = None,
                 seed: int = 0):
        from dataclasses import replace

        base = params or SimParams()
        # The baselines run on RDMA and do not implement Zeus's reliable
        # messaging layer ("unlike FaSST, Zeus implements reliable
        # messaging with its overheads" — Section 8.2), so they do not pay
        # its per-message CPU tax.
        self.params = base.with_(net=replace(base.net,
                                             reliable_overhead_us=0.0))
        self.profile = profile
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.catalog = catalog or Catalog(num_nodes)
        faults = FaultInjector(self.params.faults, self.rng.stream("net.faults"))
        self.network = Network(self.sim, self.params.net, faults,
                               jitter_rng=self.rng.stream("net.jitter"))
        self.nodes: List[Node] = []
        self.engines: List[BaselineEngine] = []
        for nid in range(num_nodes):
            node = Node(self.sim, nid, self.params, self.network)
            engine = BaselineEngine(node, self.catalog, profile,
                                    rng=self.rng.stream(f"bl.{nid}"))
            self.nodes.append(node)
            self.engines.append(engine)

    def load(self, init_value: Any = 0) -> None:
        """Install every object on its primary and backups, one placement
        lookup per object."""
        held: List[List[int]] = [[] for _ in self.engines]
        catalog = self.catalog
        for oid in range(catalog.num_objects):
            replicas = catalog.initial_replicas(oid)
            held[replicas.owner].append(oid)
            for backup in replicas.readers:
                held[backup].append(oid)
        for engine, oids in zip(self.engines, held):
            engine.load(oids, init_value)

    def spawn_app(self, node_id: int, gen: Generator,
                  name: str = "app") -> Process:
        return self.nodes[node_id].spawn(gen, name=name)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def total_committed(self) -> int:
        return sum(e.counters.get("committed", 0)
                   + e.counters.get("committed_ro", 0) for e in self.engines)
