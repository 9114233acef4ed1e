"""The one cluster builder, the one steady-state point, and the one audited
rig: counter cluster + workload + ledger + settle + audit.

Every gated experiment here is the paper's single request path (§3.1, §7)
— the LB pins a key to a node, the node runs a local transaction,
ownership follows the pin — under a different access pattern.  The one
fault cell (``chaos.campaign.run_cell``: campaigns, the randomized sweep,
the shrinker), ``elastic``/``heatmap`` and ``place`` all build their run
from these pieces; each keeps only its access pattern, its fault or
scale-out timeline and its report.

The rig is *steps*, not one constructor: the order of RNG-stream creation,
``sim.call_*`` scheduling and ``spawn_app`` calls is part of a run's event
order, so callers keep theirs (build → engine/membership → LB → workers →
run → settle → audit) and same-seed digests stay byte-identical
(DESIGN.md, "The rig").
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..baselines.cluster import BaselineCluster
from ..hermes.protocol import HermesReplica
from ..lb import LoadBalancer
from ..obs import Observability
from ..sim.params import DiskParams, FaultParams, SimParams
from ..sim.process import Future
from ..store.catalog import Catalog
from ..workloads.base import (RunStats, SpecFn, TxnSpec,
                              run_baseline_workload, run_zeus_workload,
                              spawn_zeus_workers)
from .zeus_cluster import ZeusCluster

__all__ = ["Rig", "counter_catalog", "loaded_cluster", "steady_state"]


def counter_catalog(num_nodes: int, num_objects: int,
                    owner_of: Optional[Callable[[int], int]] = None,
                    table: str = "counter", size: int = 64,
                    degree: Optional[int] = None) -> Catalog:
    """``num_objects`` fixed-size counters; object ``i`` starts on node
    ``owner_of(i)`` (default: round-robin), replicated ``min(3, n)``-fold."""
    catalog = Catalog(num_nodes, replication_degree=(
        min(3, num_nodes) if degree is None else degree))
    catalog.add_table(table, size)
    for i in range(num_objects):
        catalog.create_object(
            table, i, owner=i % num_nodes if owner_of is None else owner_of(i))
    return catalog


def loaded_cluster(catalog: Catalog, threads: int, init_value: int = 0,
                   profile=None, params: Optional[SimParams] = None,
                   seed: int = 0, obs: Optional[Observability] = None,
                   max_pipeline_depth: int = 32):
    """Where every experiment's cluster is built: ``catalog`` on a fresh
    Zeus cluster — or, given a baseline cost ``profile``, a
    :class:`BaselineCluster` — with ``threads`` app and worker threads per
    node, every object loaded with ``init_value``."""
    params = (params or SimParams()).scaled_threads(app=threads,
                                                    worker=threads)
    if profile is None:
        cluster = ZeusCluster(catalog.num_nodes, params=params,
                              catalog=catalog, seed=seed, obs=obs,
                              max_pipeline_depth=max_pipeline_depth)
    else:
        cluster = BaselineCluster(catalog.num_nodes, profile, params=params,
                                  catalog=catalog, seed=seed)
    cluster.load(init_value=init_value)
    return cluster


def steady_state(wl, init_value: int, threads: int, duration_us: float,
                 warmup_us: float = 0.0, profile=None, cluster_seed: int = 0,
                 seed: int = 1, **cluster_args):
    """The steady-state point every throughput figure, both steady-state
    scenario cells and ``repro smallbank`` / ``trace`` / ``analyze``
    measure: ``wl`` on its :func:`loaded_cluster`, driven closed-loop for
    ``warmup_us + duration_us``.  Only commits after the warm-up count, so
    the point is ``stats.throughput_tps(duration_us)``.  The seed defaults
    are the clusters' and the drivers' own.  Returns ``(cluster, stats)``."""
    cluster = loaded_cluster(wl.catalog, threads, init_value, profile,
                             seed=cluster_seed, **cluster_args)
    drive = run_zeus_workload if profile is None else run_baseline_workload
    stats = drive(cluster, wl.spec_for, duration_us=warmup_us + duration_us,
                  warmup_us=warmup_us, threads=threads, seed=seed)
    return cluster, stats


class Rig:
    """One loaded cluster with the bookkeeping every audited run shares.

    ``ledger`` records each committed write set (the exactly-once audit's
    input), ``stats`` aggregates every worker wave, ``keys_of`` is the
    routing snapshot (serving node -> pinned keys) once :meth:`add_lb` ran.
    """

    def __init__(self, catalog: Catalog, seed: int,
                 obs: Optional[Observability] = None, threads: int = 2,
                 faults: Optional[FaultParams] = None,
                 disk: Optional[DiskParams] = None,
                 lease_us: float = 1_500.0, heartbeat_us: float = 150.0):
        params = SimParams(
            faults=faults if faults is not None else FaultParams(),
            disk=disk if disk is not None else DiskParams(),
            lease_us=lease_us, heartbeat_us=heartbeat_us)
        self.seed = seed
        self.threads = threads
        #: Base cluster size (joiners are reached via ``cluster.nodes``).
        self.num_nodes = catalog.num_nodes
        self.cluster = loaded_cluster(catalog, threads, params=params,
                                      seed=seed, obs=obs)
        # ``repro.verify`` is imported where it is used: its package
        # ``__init__`` pulls in the shrinker and with it the chaos
        # campaign, which imports this module.
        from ..verify.audit import CommitLedger
        self.ledger = CommitLedger()
        self.stats = RunStats()
        self.lb: Optional[LoadBalancer] = None
        self.keys_of: Dict[Optional[int], List[int]] = {}
        self._pinned: List[int] = []
        self._rerouted: frozenset = frozenset()

    # ---------------------------------------------------------- LB routing

    def add_lb(self, pins: Iterable[Tuple[int, int]]) -> None:
        """Attach a Hermes-backed LB and pin each ``(key, node)``.

        The pins are Hermes-replicated writes: they only validate a few
        simulated microseconds into the run, so a t=0 routing snapshot
        would see an empty table.  Poll until the pins have settled."""
        if len(self.cluster.nodes) < 3:
            raise ValueError("LB routing needs >= 3 nodes")
        replicas = [HermesReplica(self.cluster.nodes[n], (0, 1, 2))
                    for n in range(3)]
        self.lb = LoadBalancer(replicas, num_nodes=self.num_nodes,
                               rng=self.cluster.rng.stream("lb"))
        for key, node in pins:
            self.lb.repin(key, node)
            self._pinned.append(key)
        self.cluster.sim.call_at(50.0, self._settle_routing)

    def _settle_routing(self) -> None:
        """Snapshot routing, re-polling while any pin is still in flight
        (``lookup`` returns ``None`` until its replicated write VALs)."""
        self.refresh_routing()
        if None in self.keys_of:
            self.cluster.sim.call_after(50.0, self._settle_routing)

    def refresh_routing(self) -> None:
        self.keys_of.clear()
        for key in self._pinned:
            self.keys_of.setdefault(self.lb.lookup(key), []).append(key)

    def routed_spec(self, remote: float, read_frac: float = 0.2) -> SpecFn:
        """The LB-routed access pattern: a worker draws from the keys
        routed to *its* node, and with probability ``remote`` — or while
        nothing is routed there, so always without an LB — from all keys;
        ``read_frac`` of the transactions are read-only."""
        keys_of, num_objects = self.keys_of, self.cluster.catalog.num_objects

        def spec_fn(node_id: int, thread: int, rng) -> TxnSpec:
            local = keys_of.get(node_id)
            if local and rng.random() >= remote:
                oids = [rng.choice(local)]
                if len(local) > 1 and rng.random() < 0.5:
                    other = rng.choice(local)
                    if other != oids[0]:
                        oids.append(other)
            else:
                oids = rng.sample(range(num_objects), rng.randrange(1, 3))
            if read_frac > 0 and rng.random() < read_frac:
                return TxnSpec(read_set=oids, read_only=True, exec_us=0.3)
            return TxnSpec(write_set=oids, exec_us=0.3)

        return spec_fn

    # ------------------------------------------------------------- workers

    def on_commit(self, node_id: int, spec: TxnSpec, _result) -> None:
        if node_id in self._rerouted:
            # First commit served by a joiner the LB shifted keys onto:
            # the churn era (remote txns while ownership chases the
            # re-pinned keys) starts here, well after add_nodes itself
            # (quarantine + join barrier + first leases clear first).
            self._rerouted = frozenset()
            loc = self.cluster.obs.locality
            if loc is not None:
                loc.mark("joiners_serving", self.cluster.sim.now,
                         node=node_id)
        if not spec.read_only:
            self.ledger.record(node_id, spec.write_set)

    def start(self, spec_fn: SpecFn, stop_at: float) -> None:
        """Closed-loop workers on every base node until ``stop_at`` — and
        on joiners too: every ``add_nodes`` gets a fresh worker set feeding
        the shared stats/ledger, after the LB (if any) shifted a fair share
        of keys onto the newcomers."""
        def spawn(node_ids, seed: int) -> None:
            spawn_zeus_workers(self.cluster, spec_fn, self.stats,
                               stop_at=stop_at, measure_from=0.0,
                               threads=self.threads, node_ids=node_ids,
                               seed=seed, on_commit=self.on_commit)

        def on_added(new_ids) -> None:
            if self.lb is not None:
                self.lb.grow(new_ids, keys=self._pinned)
                self._settle_routing()  # re-pins VAL asynchronously too
                self._rerouted = frozenset(new_ids)
            spawn(new_ids, self.seed + 7777)

        spawn(list(range(self.num_nodes)), self.seed)
        self.cluster.on_nodes_added(on_added)

    # ------------------------------------------------------ settle + audit

    def converge(self, bound_us: float) -> Future:
        """Wait (at most ``bound_us``) for the rebalancer to report a
        balanced membership with every drain retired.  A run that cannot
        converge falls through to the audit and fails there."""
        cluster = self.cluster
        done = cluster.rebalancer.converge()
        deadline = cluster.sim.now + bound_us
        while not done.done() and cluster.sim.now < deadline:
            cluster.run(until=min(cluster.sim.now + 2_000.0, deadline))
        return done

    def settle(self, quiesce_us: float,
               converge: bool = True) -> Optional[Future]:
        """Let the rebalancer converge (bounded at four quiesce windows),
        then drain in-flight work for one quiesce window.  Returns the
        converge future (``None`` when ``converge`` is off)."""
        done = self.converge(4 * quiesce_us) if converge else None
        self.cluster.run(until=self.cluster.sim.now + quiesce_us)
        return done

    def audit(self, history=None):
        """All audits against the drained cluster (plus the strict-
        serializability check when a ``history`` recorder is given)."""
        from ..verify.audit import audit_run
        return audit_run(self.cluster, self.ledger, initial_value=0,
                         history=history)
