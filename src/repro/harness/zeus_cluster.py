"""Cluster assembly: wires simulator, network, nodes, protocols, and data.

This is the entry point almost every example, test, and benchmark uses::

    catalog = Catalog(num_nodes=3, replication_degree=3)
    oid = catalog.create_object("accounts", "alice", owner=0)
    cluster = ZeusCluster(num_nodes=3, catalog=catalog)
    cluster.load()
    h = cluster.handles[0]
    cluster.spawn_app(0, 0, my_txn_generator(h))
    cluster.run(until=1_000_000)
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from itertools import repeat
from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Set, Tuple)

from ..cluster.membership import MembershipService
from ..cluster.node import Node
from ..cluster.rebalance import Rebalancer
from ..commit.manager import CommitManager
from ..net.fault import FaultInjector
from ..net.network import Network
from ..obs import TID_NET, Observability
from ..ownership.manager import OwnershipManager
from ..recovery.manager import RecoveryManager
from ..sim.kernel import Simulator
from ..sim.params import FaultParams, SimParams
from ..sim.process import Process
from ..sim.rng import RngRegistry
from ..store.catalog import Catalog, ObjectId
from ..store.directory import DirectoryTable
from ..store.object_store import ObjectStore
from ..store.wal import DurabilityManager
from ..txn.api import ZeusAPI

__all__ = ["ZeusCluster", "ZeusHandle", "FaultRecord"]

#: The shortest cold restart: the reboot delay when no WAL replay is
#: longer.
_BOOT_US = 200.0


@dataclass
class FaultRecord:
    """Every fault a cluster took, per kind, in firing order (the chaos
    timeline and the audits read it)."""

    crashed: List[Tuple[float, int]] = field(default_factory=list)
    recovered: List[Tuple[float, int]] = field(default_factory=list)
    #: Planned membership changes (elastic reconfiguration), kept apart
    #: from ``crashed`` so the audits can hold graceful drains to a
    #: stricter standard than crash-stops.
    drained: List[Tuple[float, int]] = field(default_factory=list)
    added: List[Tuple[float, int]] = field(default_factory=list)
    #: Instants the whole cluster lost power / completed a cold restart.
    power_losses: List[float] = field(default_factory=list)
    cold_restarts: List[float] = field(default_factory=list)
    partitions: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = \
        field(default_factory=list)
    heals: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = \
        field(default_factory=list)
    slowdowns: List[Tuple[float, int, float]] = field(default_factory=list)


class ZeusHandle:
    """Everything attached to one node, bundled for convenient access."""

    __slots__ = ("node", "store", "directory", "ownership", "commit", "api",
                 "recovery")

    def __init__(self, node: Node, store: ObjectStore,
                 directory: Optional[DirectoryTable],
                 ownership: OwnershipManager, commit: CommitManager,
                 api: ZeusAPI, recovery: RecoveryManager):
        self.node = node
        self.store = store
        self.directory = directory
        self.ownership = ownership
        self.commit = commit
        self.api = api
        self.recovery = recovery

    @property
    def node_id(self) -> int:
        return self.node.node_id


def wire_protocol(node, catalog: Catalog, max_pipeline_depth: int = 32
                  ) -> Tuple[ObjectStore, Optional[DirectoryTable],
                             OwnershipManager, CommitManager]:
    """Build one node's protocol stack on ``node``: its store, its
    directory shard (on a directory host), and the ownership and commit
    managers, linked to each other.  ``node`` is a ``Node`` or anything
    offering what the managers use of one (the schedule explorer's fake)."""
    store = ObjectStore(node.node_id)
    directory = (DirectoryTable(node.node_id)
                 if catalog.hosts_directory(node.node_id) else None)
    ownership = OwnershipManager(node, store, catalog, directory)
    commit = CommitManager(node, store, catalog,
                           max_pipeline_depth=max_pipeline_depth)
    ownership.commit_mgr = commit
    commit.ownership = ownership
    return store, directory, ownership, commit


class ZeusCluster:
    """A complete simulated Zeus deployment."""

    def __init__(self, num_nodes: int = 3,
                 params: Optional[SimParams] = None,
                 catalog: Optional[Catalog] = None,
                 seed: int = 0,
                 max_pipeline_depth: int = 32,
                 obs: Optional[Observability] = None):
        self.params = params or SimParams()
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.catalog = catalog or Catalog(num_nodes)
        if self.catalog.num_nodes != num_nodes:
            raise ValueError("catalog was built for a different cluster size")

        self.obs = obs if obs is not None else Observability()
        tracer = self.obs.tracer
        if tracer is not None and tracer.sim is None:
            # Tracers are built before any Simulator exists; bind here so
            # spans are stamped with this cluster's simulated clock.
            tracer.sim = self.sim
        # Host self-profiling: the kernel times every event callback
        # (wall clock only — scheduling and outcomes are unaffected).
        self.sim.set_profiler(self.obs.profiler)
        self._install_stats_hook()

        faults = FaultInjector(self.params.faults, self.rng.stream("net.faults"),
                               registry=self.obs.registry)
        self.network = Network(self.sim, self.params.net, faults,
                               jitter_rng=self.rng.stream("net.jitter"),
                               obs=self.obs)
        self.faults = faults

        self._max_pipeline_depth = max_pipeline_depth
        self.handles: List[ZeusHandle] = []
        for nid in range(num_nodes):
            self.handles.append(self._build_handle(nid))

        self.nodes = [h.node for h in self.handles]
        self.membership = MembershipService(self.sim, self.params, self.nodes)
        self.failures = FaultRecord()
        registry = self.obs.registry
        self._c_crashes = registry.counter("faults.crashes")
        self._c_partitions = registry.counter("faults.partitions")
        self._c_heals = registry.counter("faults.heals")
        self._c_slowdowns = registry.counter("faults.slowdowns")
        self._c_recoveries = registry.counter("faults.recoveries")
        self._c_power_losses = registry.counter("faults.power_losses")
        self._c_drains = registry.counter("faults.drains")
        self._c_node_adds = registry.counter("faults.node_adds")
        # Open slowdown windows per node, in application order: (token,
        # factor).  Ending a window removes *its* token and applies the
        # latest window still open, so overlapping windows nest instead of
        # an early end resetting a later window's factor to 1.0.
        self._slow_windows: Dict[int, List[Tuple[int, float]]] = {}
        self._slow_token = 0
        self._loaded = False
        #: Nodes that completed a graceful drain (gone for good; skipped by
        #: cold restarts and excluded from rebalance targets).
        self.retired: Set[int] = set()
        #: Nodes in a graceful drain (the rebalancer's own set): their
        #: workload workers stop generating load.
        self.draining: Set[int] = set()
        #: Sim time of the rebalancer's most recent convergence.
        self.last_converge_at: Optional[float] = None
        self._rebalancer: Optional[Rebalancer] = None
        self._placement = None
        self._nodes_added_listeners: List[Callable[[Tuple[int, ...]], None]] = []

    def _build_handle(self, nid: int) -> ZeusHandle:
        node = Node(self.sim, nid, self.params, self.network, obs=self.obs)
        store, directory, ownership, commit = wire_protocol(
            node, self.catalog, self._max_pipeline_depth)
        api = ZeusAPI(node, store, self.catalog, ownership, commit,
                      rng=self.rng.stream(f"api.{nid}"))
        recovery = RecoveryManager(node, store, self.catalog, directory,
                                   ownership, commit)
        if self.params.disk.enabled:
            node.durability = DurabilityManager(
                node, store, directory, self.params.disk,
                self.obs.registry)
        return ZeusHandle(node, store, directory, ownership, commit, api,
                          recovery)

    def _install_stats_hook(self) -> None:
        """Mirror event-loop health into registry gauges as the sim runs."""
        registry = self.obs.registry
        g_now = registry.gauge("sim.now_us")
        g_exec = registry.gauge("sim.events_executed")
        g_pend = registry.gauge("sim.pending_events")

        def on_stats(stats: Dict[str, float]) -> None:
            g_now.set(stats["now_us"])
            g_exec.set(stats["events_executed"])
            g_pend.set(stats["pending_events"])

        self._on_stats = on_stats
        self.sim.set_stats_hook(on_stats, every_events=20_000)

    # ------------------------------------------------------------ data load

    def load(self, init_value: Any = 0,
             values: Optional[Dict[ObjectId, Any]] = None) -> None:
        """Materialize every catalog object on its replicas and register it
        in the directory (the paper's pre-sharded initial state).

        The catalog's owners are read once.  Every object an owner starts
        with shares that owner's :meth:`Catalog.placement`, and each store
        and directory table takes its objects in one bulk insert, in oid
        order.  The burst allocates only live, acyclic objects, so the
        cyclic collector is paused for it (a pass would re-walk every
        replica loaded so far).  Loading a non-empty catalog twice raises
        ``ValueError``.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._load(init_value, values)
        finally:
            if enabled:
                gc.enable()
        self._loaded = True
        for h in self.handles:
            if h.node.durability is not None:
                # Genesis snapshot covers the loaded state; armed here so a
                # power loss before the first periodic snapshot still
                # recovers the initial placement.
                h.node.durability.start()

    def _load(self, init_value: Any,
              values: Optional[Dict[ObjectId, Any]]) -> None:
        catalog = self.catalog
        owners = catalog.initial_owners()
        # One int object per oid, shared by every store and directory key
        # (a fresh ``range`` or ``enumerate`` per node would allocate one
        # per replica).
        every_oid = list(range(len(owners)))
        placements = {owner: catalog.placement(owner) for owner in set(owners)}
        data = ([values.get(oid, init_value) for oid in every_oid]
                if values else None)
        for h in self.handles:
            nid = h.node.node_id
            # owner -> what ``nid`` keeps of its objects: the replica set
            # at the owner, None at a reader.
            held = {owner: replicas if owner == nid else None
                    for owner, replicas in placements.items()
                    if owner == nid or nid in replicas.readers}
            if not held:
                continue
            oids = [oid for oid, owner in zip(every_oid, owners)
                    if owner in held]
            h.store.load(oids,
                         repeat(init_value) if data is None
                         else map(data.__getitem__, oids),
                         [held[owner] for owner in owners if owner in held])
        replicas = [placements[owner] for owner in owners]
        for dnode, oids in self._directory_oids(every_oid).items():
            self.handles[dnode].directory.load(
                oids, map(replicas.__getitem__, oids))

    def _directory_oids(self, every_oid: List[ObjectId]
                        ) -> Dict[int, List[ObjectId]]:
        """Directory node -> the oids it arbitrates, ascending."""
        catalog = self.catalog
        if catalog.directory_mode == "single":
            return {dnode: every_oid for dnode in catalog.directory_nodes()}
        arbiters: Dict[int, List[ObjectId]] = {}
        for oid in every_oid:
            for dnode in catalog.directory_nodes_for(oid):
                arbiters.setdefault(dnode, []).append(oid)
        return arbiters

    # ------------------------------------------------------------ execution

    def start_membership(self) -> None:
        """Enable heartbeats + failure detection (only needed by failure
        experiments; fault-free runs skip the heartbeat event load)."""
        self.membership.start()

    def spawn_app(self, node_id: int, thread: int,
                  gen: Generator, name: Optional[str] = None) -> Process:
        """Run ``gen`` as an application-thread process on a node."""
        label = name or f"app{thread}"
        return self.handles[node_id].node.spawn(gen, name=label)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        self.sim.run(until=until, max_events=max_events)
        self._on_stats(self.sim.stats())  # exact end-of-run gauge values

    # ---------------------------------------------------------- fault verbs
    #
    # Every fault verb acts now, or at simulated time ``at`` when given; a
    # scheduled verb resolves its node id when it fires, so a schedule may
    # aim at a node an earlier ``add_nodes`` has yet to create.  Each firing
    # appends to :attr:`failures`, bumps its ``faults.*`` counter and emits
    # its ``chaos.*`` trace point.

    def crash(self, node_id: int, at: Optional[float] = None) -> None:
        """Crash-stop a node (the paper's failure model, Section 3.1)."""
        if at is not None:
            self.sim.call_at(at, self.crash, node_id)
            return
        node = self.nodes[node_id]
        if not node.alive:
            return
        node.crash()
        now = self.sim.now
        self.failures.crashed.append((now, node_id))
        self._c_crashes.inc()
        hist = self.obs.history
        if hist is not None:
            hist.on_crash(node_id, now)
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.crash", "chaos", False)(node_id, TID_NET, None)

    def recover(self, node_id: int, at: Optional[float] = None) -> None:
        """Reboot a crashed node under a fresh incarnation and re-admit it;
        the recovery manager then transfers its state from live donors."""
        if at is not None:
            self.sim.call_at(at, self.recover, node_id)
            return
        node = self.nodes[node_id]
        if node.alive:
            return
        # A reboot comes back at full speed: discard any slowdown windows
        # that straddled the crash (their pending ends become no-ops).
        self._slow_windows.pop(node_id, None)
        crash_time = max((t for t, n in self.failures.crashed
                          if n == node_id), default=self.sim.now)
        self.handles[node_id].recovery.rejoin(crash_time)
        self.membership.admit(node_id)
        self.failures.recovered.append((self.sim.now, node_id))
        self._c_recoveries.inc()
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.recover", "chaos", False, inc=int)(
                node_id, TID_NET, None, node.incarnation)

    def partition(self, a_side: Sequence[int], b_side: Sequence[int],
                  at: Optional[float] = None,
                  heal_at: Optional[float] = None) -> None:
        """Sever every (a, b) link between two node groups; unlike a
        crash, the cut heals at ``heal_at`` when given."""
        a_side, b_side = tuple(a_side), tuple(b_side)
        if heal_at is not None and heal_at <= (self.sim.now if at is None
                                               else at):
            raise ValueError("heal must come after the partition")
        if at is None:
            self._cut(a_side, b_side)
        else:
            self.sim.call_at(at, self._cut, a_side, b_side)
        if heal_at is not None:
            self.sim.call_at(heal_at, self._heal, a_side, b_side)

    def _cut(self, a_side: Tuple[int, ...], b_side: Tuple[int, ...]) -> None:
        for a in a_side:
            for b in b_side:
                self.network.partition(a, b)
        self.failures.partitions.append((self.sim.now, a_side, b_side))
        self._c_partitions.inc()
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.partition", "chaos", False, a=object,
                         b=object)(
                min(a_side), TID_NET, None, list(a_side), list(b_side))

    def _heal(self, a_side: Tuple[int, ...], b_side: Tuple[int, ...]) -> None:
        for a in a_side:
            for b in b_side:
                self.network.heal(a, b)
        self.failures.heals.append((self.sim.now, a_side, b_side))
        self._c_heals.inc()
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.heal", "chaos", False, a=object, b=object)(
                min(a_side), TID_NET, None, list(a_side), list(b_side))

    def slow(self, node_id: int, factor: float, at: Optional[float] = None,
             until: Optional[float] = None) -> None:
        """Gray failure: run a node at ``factor``x CPU cost, restored at
        ``until`` when given.  Overlapping windows nest: when one ends, the
        node drops back to the latest still-open window's factor (or full
        speed), not unconditionally to 1.0."""
        if until is not None and until <= (self.sim.now if at is None
                                           else at):
            raise ValueError("slowdown end must come after its start")
        self._slow_token += 1
        token = self._slow_token
        if at is None:
            self._open_slow(node_id, token, factor)
        else:
            self.sim.call_at(at, self._open_slow, node_id, token, factor)
        if until is not None:
            self.sim.call_at(until, self._close_slow, node_id, token)

    def _open_slow(self, node_id: int, token: int, factor: float) -> None:
        self._slow_windows.setdefault(node_id, []).append((token, factor))
        self._set_speed(node_id, factor)

    def _close_slow(self, node_id: int, token: int) -> None:
        windows = self._slow_windows.get(node_id, [])
        remaining = [(t, f) for t, f in windows if t != token]
        if len(remaining) == len(windows):
            return  # window already discarded (the node restarted fresh)
        self._slow_windows[node_id] = remaining
        self._set_speed(node_id, remaining[-1][1] if remaining else 1.0)

    def _set_speed(self, node_id: int, factor: float) -> None:
        self.nodes[node_id].set_slowdown(factor)
        self.failures.slowdowns.append((self.sim.now, node_id, factor))
        if factor != 1.0:
            self._c_slowdowns.inc()
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.slow", "chaos", False, factor=float)(
                node_id, TID_NET, None, factor)

    def fault_window(self, params: FaultParams, at: Optional[float] = None,
                     until: Optional[float] = None) -> None:
        """Run the network under ``params`` (burst loss / duplication /
        reordering), then restore the cluster's own :class:`FaultParams`
        at ``until`` when given."""
        self.obs.registry.counter("chaos.fault_windows").inc()
        if at is None:
            self._swap_faults(params)
        else:
            self.sim.call_at(at, self._swap_faults, params)
        if until is not None:
            self.sim.call_at(until, self._swap_faults, None)

    def _swap_faults(self, params: Optional[FaultParams]) -> None:
        tracer = self.obs.tracer
        if params is None:
            self.faults.params = self.params.faults
            if tracer is not None:
                tracer.point("chaos.fault_window_close", "chaos", False)(
                    0, TID_NET, None)
        else:
            self.faults.params = params
            if tracer is not None:
                tracer.point("chaos.fault_window_open", "chaos", False,
                             loss=float, dup=float, reorder=float)(
                    0, TID_NET, None, params.loss_prob,
                    params.duplicate_prob, params.reorder_max_us)

    def power_loss(self, at: Optional[float] = None,
                   restart_at: Optional[float] = None) -> None:
        """Power off the entire cluster in one instant, then cold-start it
        at ``restart_at`` when given (:meth:`cold_restart`).  Unlike a
        rolling set of crashes, replication cannot save an op here, so only
        ops whose WAL COMMIT record had been fsynced keep a settled outcome
        (:meth:`~repro.obs.history.HistoryRecorder.on_power_loss`)."""
        if at is not None:
            self.sim.call_at(at, self.power_loss)
        else:
            now = self.sim.now
            for node in self.nodes:
                node.crash()
            self.failures.power_losses.append(now)
            self._c_power_losses.inc()
            hist = self.obs.history
            if hist is not None:
                hist.on_power_loss(now)
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.point("chaos.power_loss", "chaos", False, nodes=int)(
                    0, TID_NET, None, len(self.nodes))
        if restart_at is not None:
            self.sim.call_at(restart_at, self.cold_restart)

    def cold_restart(self) -> float:
        """Cold-start the whole cluster after :meth:`power_loss`.

        Every node reboots, replays its durable image (snapshot restore,
        then WAL redo of committed slots and undo of in-flight ones), and
        the membership service re-forms under an epoch strictly above any
        epoch persisted in a WAL.  The reformed view installs once the
        slowest replay has finished (replay time is the reboot delay);
        the per-node reconcile pass then runs off that view.  Returns the
        view-install time.  Without a durability tier, a cold restart is
        total amnesia — the cluster comes back empty, which is exactly
        the paper's in-memory semantics."""
        if any(n.alive for n in self.nodes):
            raise RuntimeError("cold_restart requires a full power loss first")
        outage_at = (self.failures.power_losses[-1]
                     if self.failures.power_losses else self.sim.now)
        max_replay = 0.0
        epoch_floor = 0
        for h in self.handles:
            if h.node.node_id in self.retired:
                continue  # drained for good; a cold restart does not resurrect
            stats = h.recovery.cold_restart(outage_at)
            if stats is not None:
                epoch_floor = max(epoch_floor, stats.epoch)
                max_replay = max(max_replay, stats.replay_us)
        view_at = self.sim.now + max(_BOOT_US, max_replay)
        self.membership.reform(epoch_floor, at=view_at)
        self.failures.cold_restarts.append(view_at)
        return view_at

    def add_nodes(self, count: int = 1, rebalance: bool = True,
                  at: Optional[float] = None) -> Optional[Tuple[int, ...]]:
        """Live scale-out: boot ``count`` fresh nodes and admit them.

        Each joiner is built cold (empty store, no directory — directory
        placement is frozen at the initial cluster size), quarantined until
        its admission view installs, and then bulk-fed by the recovery
        subsystem's chunked state transfer exactly like a rejoining crashed
        node — except there is nothing to transfer, so its recovery barrier
        lifts as soon as the transfer scan completes.  With ``rebalance``
        (the default) the background rebalancer then starts migrating
        ownership toward the newcomers.  Returns the new ids (``None`` when
        scheduled via ``at``).
        """
        if at is not None:
            self.sim.call_at(at, self.add_nodes, count, rebalance)
            return None
        new_ids = self.catalog.grow(count)
        for nid in new_ids:
            handle = self._build_handle(nid)
            self.handles.append(handle)
            self.nodes.append(handle.node)
            handle.recovery.join(loaded=self._loaded)
            self.membership.register(handle.node)
            self.membership.join(nid)
        now = self.sim.now
        self.failures.added.extend((now, nid) for nid in new_ids)
        self._c_node_adds.inc(len(new_ids))
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.add_nodes", "chaos", False, nodes=object)(
                min(new_ids), TID_NET, None, list(new_ids))
        loc = self.obs.locality
        if loc is not None:
            loc.mark("add_nodes", now, nodes=list(new_ids))
        for fn in self._nodes_added_listeners:
            fn(new_ids)
        if rebalance:
            self.rebalancer.request()
        return new_ids

    def drain(self, node_id: int, at: Optional[float] = None):
        """Gracefully remove a node: migrate its duties, then retire it.

        Returns the rebalancer's drain future (``None`` when scheduled via
        ``at``).  Directory hosts cannot be drained — directory placement
        is frozen, so the paper's answer to losing one is crash recovery,
        not planned removal.
        """
        if self.catalog.hosts_directory(node_id):
            raise ValueError(f"node {node_id} hosts a directory partition; "
                             "placement is frozen, so it cannot be drained")
        if at is not None:
            self.sim.call_at(at, self.rebalancer.drain, node_id)
            return None
        return self.rebalancer.drain(node_id)

    def retire(self, node_id: int) -> None:
        """End a drain: halt the node (a crash-stop, recorded apart in
        ``failures.drained`` — its duties already moved away, so the audits
        may demand that *no* commit it coordinated is lost), then retire it
        under the epoch bump that fences its stragglers."""
        node = self.nodes[node_id]
        if node.alive:
            node.crash()
            self.failures.drained.append((self.sim.now, node_id))
            self._c_drains.inc()
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.point("chaos.drain", "chaos", False)(
                    node_id, TID_NET, None)
        self.membership.retire(node_id)
        self.retired.add(node_id)

    # ------------------------------------------------------------ elasticity

    @property
    def rebalancer(self) -> Rebalancer:
        """The (lazily created) background migration driver."""
        if self._rebalancer is None:
            self._rebalancer = Rebalancer(self)
        return self._rebalancer

    @property
    def placement(self):
        """The (lazily created) adaptive placement controller.  Needs the
        locality recorder to see anything — attach one via ``obs`` — and
        an LB (``placement.lb``) for re-pin actuations.  It acts only once
        started, so an unstarted controller leaves a run byte-identical."""
        if self._placement is None:
            from ..placement import PlacementController
            self._placement = PlacementController(self)
        return self._placement

    def on_nodes_added(self,
                       fn: Callable[[Tuple[int, ...]], None]) -> None:
        """Register a callback fired with the new node ids after each
        :meth:`add_nodes` (workload drivers use it to spawn workers on the
        joiners)."""
        self._nodes_added_listeners.append(fn)

    # ------------------------------------------------------------- queries

    def owner_of(self, oid: ObjectId) -> Optional[int]:
        """Current owner per the (first live) directory node for ``oid``."""
        replicas = self.replicas_of(oid)
        return replicas.owner if replicas is not None else None

    def replicas_of(self, oid: ObjectId):
        for dnode in self.catalog.directory_nodes_for(oid):
            h = self.handles[dnode]
            if h.directory is not None and h.node.alive:
                entry = h.directory.get(oid)
                return entry.replicas if entry is not None else None
        return None

    def total_committed(self) -> int:
        return sum(h.commit.counters.get("committed", 0) for h in self.handles)
