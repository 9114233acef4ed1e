"""Per-layer attribution, measured from outside the program.

Two sources feed the ledger of one run:

* :class:`LayerRecorder` — a :class:`~repro.obs.HostProfiler` installed
  through the public ``Observability(profiler=…)`` hook in the *traced*
  run.  The kernel reports every event callback with its host time, the
  node reports every protocol handler body, the network every wire
  message; a timing shim around the ``spec_fn`` the benchmark passes in
  separates the workload generator.  :meth:`LayerRecorder.shares` folds
  that into one share of the window's wall time per ``src/repro`` package.
* :func:`sim_counts` — deterministic counts read after the window from
  the registry, the network and the CPU models.  They are collected in
  every run (timed or traced) and must agree exactly between them.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, Dict, List

from repro.obs import HostProfiler

__all__ = ["LAYERS", "LayerRecorder", "sim_counts", "quantile"]

#: Layers with a host-time share; names are the ``src/repro`` packages.
LAYERS = ("sim", "txn", "workloads", "net", "cluster", "commit", "ownership",
          "recovery")

#: Protocol that owns a message kind, by kind prefix.  Handler bodies run
#: inside ``Node._run_handler`` (a ``cluster`` callback) and are re-billed.
_PROTOCOL_OF = {"rc": "commit", "own": "ownership", "rec": "recovery"}


def quantile(ordered: List[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted sample list.

    The benchmark owns its definitions: a change to the program's own
    ``repro.obs.percentile`` must not move the numbers it is judged by.
    """
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class LayerRecorder(HostProfiler):
    """HostProfiler plus the spec_fn shim; aggregates in memory only."""

    def __init__(self) -> None:
        super().__init__()
        self.spec_ns = 0

    def wrap_spec(self, spec_fn: Callable) -> Callable:
        """Time every call of the workload generator."""
        def timed(node_id, thread, rng):
            t0 = perf_counter_ns()
            spec = spec_fn(node_id, thread, rng)
            self.spec_ns += perf_counter_ns() - t0
            return spec
        return timed

    def shares(self) -> Dict[str, float]:
        """Share of the window's wall time per layer, plus ``unattributed``.

        Event callbacks are billed to their defining package; handler
        bodies move from ``cluster`` to the protocol owning the message
        kind; ``repro.sim.process`` steps minus the spec shim are ``txn``
        (generator switching cannot be told apart from the txn API from
        outside); the wall time no callback covers is the kernel's own
        dispatch loop and lands in ``sim``.
        """
        ns = dict.fromkeys(LAYERS, 0)
        unattributed = 0
        for subsys, spent in self.subsys_ns.items():
            if subsys == "app":
                ns["txn"] += spent - self.spec_ns
                ns["workloads"] += self.spec_ns
            elif subsys in ns:
                ns[subsys] += spent
            else:
                unattributed += spent
        for kind, spent in self.handler_ns.items():
            owner = _PROTOCOL_OF.get(kind.split(".", 1)[0])
            if owner is not None:
                ns[owner] += spent
                ns["cluster"] -= spent
        ns["sim"] += self.wall_ns - sum(self.subsys_ns.values())
        wall = self.wall_ns or 1
        out = {layer: ns[layer] / wall for layer in LAYERS}
        out["unattributed"] = unattributed / wall
        return out


def _merged(registry, name: str, nodes: int) -> List[float]:
    samples: List[float] = []
    for nid in range(nodes):
        samples.extend(registry.histogram(name, node=nid).samples)
    samples.sort()
    return samples


def sim_counts(rig, outcome: Dict[str, float]) -> Dict[str, float]:
    """Deterministic per-layer numbers of a finished window."""
    cluster = rig.cluster
    sim = cluster.sim
    reg = cluster.obs.registry
    nodes = len(cluster.handles)
    ops = max(1, outcome["ops"])
    elapsed = outcome["sim_elapsed_us"]
    counters = reg.snapshot()["counters"]

    def total(prefix: str) -> int:
        """Sum over label sets of every counter named ``prefix*``."""
        return sum(value for key, value in counters.items()
                   if key.split("{", 1)[0].startswith(prefix))

    sent = max(1, total("net.sent"))
    requests = total("ownership.req.")
    commit_lat = _merged(reg, "commit.latency_us", nodes)
    own_lat = _merged(reg, "ownership.latency_us", nodes)
    mttr = _merged(reg, "recovery.mttr_us", nodes)
    app_cpus = [cpu for node in cluster.nodes for cpu in node.app_cpus]
    return {
        "sim.heap_pushes_per_op": sim.heap_pushes / ops,
        "sim.cancelled_share": sim.cancelled_skipped / max(
            1, sim.events_executed + sim.cancelled_skipped),
        "txn.retries_per_op": outcome["retries"] / ops,
        "net.msgs_per_op": cluster.network.total_msgs / ops,
        "net.bytes_per_op": cluster.network.total_bytes / ops,
        "net.retransmit_share": total("net.retransmits") / sent,
        "net.acks_per_msg": total("net.acks_sent") / sent,
        "net.dropped_share": total("net.dropped") / sent,
        "cluster.pool_util": sum(n.pool.utilization(elapsed)
                                 for n in cluster.nodes) / nodes,
        "cluster.app_cpu_util": sum(cpu.utilization(elapsed)
                                    for cpu in app_cpus) / len(app_cpus),
        "commit.sim_lat_p50_us": quantile(commit_lat, 0.50),
        "commit.sim_lat_p99_us": quantile(commit_lat, 0.99),
        "commit.samples": len(commit_lat),
        "ownership.reqs_per_op": requests / ops,
        "ownership.grant_share": (total("ownership.granted") / requests
                                  if requests else 0.0),
        "ownership.requests": requests,
        "ownership.sim_lat_p50_us": quantile(own_lat, 0.50),
        "ownership.sim_lat_p99_us": quantile(own_lat, 0.99),
        "ownership.samples": len(own_lat),
        "recovery.mttr_p50_us": quantile(mttr, 0.50),
        "recovery.samples": len(mttr),
        "commit.commits": total("commit.committed"),
    }
