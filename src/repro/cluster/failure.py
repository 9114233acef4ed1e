"""Fault injection at the cluster level: crashes, partitions, slowdowns.

Crash-stop is the paper's failure model (Section 3.1) — crashed nodes never
return; the membership service's lease machinery detects the failure and
installs a new epoch, which triggers the Zeus recovery paths (ownership
arb-replay, reliable-commit replay).

The chaos layer extends this with the adversities the paper's network model
admits but the seed code never injected systematically:

* **link-level partitions** that, unlike crashes, *heal* — every cross pair
  between two node groups is severed at the network and later restored;
* **gray failures** — a node (or link) keeps running but slowly, via the
  CPU ``speed_factor`` / link latency multipliers.

Every verb acts *now*; a caller that wants it later schedules it with
``sim.call_at`` (``ZeusCluster.crash(n, at=)``, ``ChaosEngine.install``), so
a fault timeline is as deterministic as everything else in a run.  Only
``partition_at`` / ``slow_at`` schedule themselves: they own the heal /
window-nesting logic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..net.network import Network
from ..obs import Observability, TID_NET
from ..sim.kernel import Simulator
from .node import Node

__all__ = ["FailureInjector"]

NodeGroup = Sequence[int]


class FailureInjector:
    """Deterministic crash / partition / slowdown scheduler."""

    def __init__(self, sim: Simulator, network: Network, obs: Observability):
        self.sim = sim
        self.network = network
        self.obs = obs
        registry = obs.registry
        self._c_crashes = registry.counter("faults.crashes")
        self._c_partitions = registry.counter("faults.partitions")
        self._c_heals = registry.counter("faults.heals")
        self._c_slowdowns = registry.counter("faults.slowdowns")
        self._c_recoveries = registry.counter("faults.recoveries")
        self._c_power_losses = registry.counter("faults.power_losses")
        self._c_drains = registry.counter("faults.drains")
        self._c_node_adds = registry.counter("faults.node_adds")
        self.crashed: List[Tuple[float, int]] = []
        self.recovered: List[Tuple[float, int]] = []
        #: Planned membership changes (elastic reconfiguration), kept apart
        #: from ``crashed`` so the audits can hold graceful drains to a
        #: stricter standard than crash-stops.
        self.drained: List[Tuple[float, int]] = []
        self.added: List[Tuple[float, int]] = []
        #: Instants the whole cluster lost power / completed a cold restart.
        self.power_losses: List[float] = []
        self.cold_restarts: List[float] = []
        self.partitions: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = []
        self.heals: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = []
        self.slowdowns: List[Tuple[float, int, float]] = []
        #: Hook performing the actual restart + readmit + state transfer.
        #: The harness (:class:`ZeusCluster`) installs this; without it,
        #: :meth:`recover` raises (crash-stop only, no rejoin path).
        self.recover_fn: Optional[Callable[[Node], None]] = None
        # Active slowdown windows per node, in application order.  Each entry
        # is (token, factor); ending a window removes *its* token and applies
        # whatever window remains, so overlapping windows nest instead of an
        # early end clobbering a later window's factor with 1.0.
        self._slow_windows: Dict[int, List[Tuple[int, float]]] = {}
        self._slow_token = 0

    # -------------------------------------------------------------- crashes

    def crash(self, node: Node) -> None:
        if node.alive:
            node.crash()
            dur = node.durability
            if dur is not None:
                # The crash loses the volatile WAL tail, and any fsync
                # completion already in flight must never resolve a
                # durability future for the dead incarnation (token bump).
                dur.power_fail()
            self.crashed.append((self.sim.now, node.node_id))
            self._c_crashes.inc()
            hist = self.obs.history
            if hist is not None:
                hist.on_crash(node.node_id, self.sim.now)
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.point("chaos.crash", "chaos", False)(
                    node.node_id, TID_NET, None)

    # -------------------------------------------------------------- elastic

    def drain_now(self, node: Node) -> None:
        """Graceful stop of a drained node (the planned dual of a crash).

        The process halt is mechanically the same as a crash-stop — the
        node's generators die and its transport detaches — but it is
        recorded separately: a drain happens only after the rebalancer has
        moved the node's duties away, so the audits may demand that *no*
        commit it coordinated is lost, with none of the crash slack."""
        if node.alive:
            node.crash()
            dur = node.durability
            if dur is not None:
                dur.power_fail()
            self.drained.append((self.sim.now, node.node_id))
            self._c_drains.inc()
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.point("chaos.drain", "chaos", False)(
                    node.node_id, TID_NET, None)

    def note_added(self, node_ids: Sequence[int]) -> None:
        """Record a live scale-out (for timelines and the reconfig audit)."""
        now = self.sim.now
        for nid in node_ids:
            self.added.append((now, nid))
            self._c_node_adds.inc()
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.add_nodes", "chaos", False, nodes=object)(
                min(node_ids), TID_NET, None, list(node_ids))

    # ----------------------------------------------------------- power loss

    def power_loss(self, nodes: Sequence[Node]) -> None:
        """Full-cluster power loss: every node dies in the same instant.

        Unlike a rolling set of crashes, the *cluster-wide* history
        downgrade applies: replication cannot save an op when every replica
        loses its memory at once, so only ops whose WAL COMMIT record had
        been fsynced keep a settled outcome (see
        :meth:`~repro.obs.history.HistoryRecorder.on_power_loss`)."""
        now = self.sim.now
        for node in nodes:
            if node.alive:
                node.crash()
                dur = node.durability
                if dur is not None:
                    dur.power_fail()
        self.power_losses.append(now)
        self._c_power_losses.inc()
        hist = self.obs.history
        if hist is not None:
            hist.on_power_loss(now)
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.power_loss", "chaos", False, nodes=int)(
                0, TID_NET, None, len(nodes))

    # ------------------------------------------------------------- recovery

    def recover(self, node: Node) -> None:
        """Restart a crashed ``node`` and begin its rejoin."""
        if node.alive:
            return
        if self.recover_fn is None:
            raise RuntimeError("no recover_fn installed (harness not wired "
                               "for rejoin)")
        # A reboot comes back at full speed: discard any slowdown windows
        # that straddled the crash (their pending ends become no-ops).
        self._slow_windows.pop(node.node_id, None)
        self.recover_fn(node)
        self.recovered.append((self.sim.now, node.node_id))
        self._c_recoveries.inc()
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.recover", "chaos", False, inc=int)(
                node.node_id, TID_NET, None, node.incarnation)

    # ----------------------------------------------------------- partitions

    def partition(self, a_side: NodeGroup, b_side: NodeGroup) -> None:
        """Sever every (a, b) link between the two groups, now."""
        for a in a_side:
            for b in b_side:
                self.network.partition(a, b)
        self.partitions.append((self.sim.now, tuple(a_side), tuple(b_side)))
        self._c_partitions.inc()
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.partition", "chaos", False, a=object,
                         b=object)(
                min(a_side), TID_NET, None, list(a_side), list(b_side))

    def heal(self, a_side: NodeGroup, b_side: NodeGroup) -> None:
        """Restore every (a, b) link between the two groups, now."""
        for a in a_side:
            for b in b_side:
                self.network.heal(a, b)
        self.heals.append((self.sim.now, tuple(a_side), tuple(b_side)))
        self._c_heals.inc()
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.heal", "chaos", False, a=object, b=object)(
                min(a_side), TID_NET, None, list(a_side), list(b_side))

    def partition_at(self, a_side: NodeGroup, b_side: NodeGroup,
                     time_us: float, heal_at_us: Optional[float] = None) -> None:
        """Schedule a partition (and, optionally, its heal)."""
        a_side, b_side = tuple(a_side), tuple(b_side)
        self.sim.call_at(time_us, self.partition, a_side, b_side)
        if heal_at_us is not None:
            if heal_at_us <= time_us:
                raise ValueError("heal must come after the partition")
            self.sim.call_at(heal_at_us, self.heal, a_side, b_side)

    # ----------------------------------------------------------- slowdowns

    def slow(self, node: Node, factor: float) -> None:
        """Gray failure: run ``node`` at ``factor``× CPU cost, now."""
        node.set_slowdown(factor)
        self.slowdowns.append((self.sim.now, node.node_id, factor))
        if factor != 1.0:
            self._c_slowdowns.inc()
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.slow", "chaos", False, factor=float)(
                node.node_id, TID_NET, None, factor)

    def slow_at(self, node: Node, factor: float, time_us: float,
                until_us: Optional[float] = None) -> None:
        """Schedule a slowdown window (restored at ``until_us`` when given).

        Windows are tracked per node so overlaps nest: when one window ends,
        the node drops back to the most recent *still-open* window's factor
        (or 1.0 if none), instead of an early end unconditionally resetting
        a later-applied slowdown."""
        if until_us is not None and until_us <= time_us:
            raise ValueError("slowdown end must come after its start")
        self._slow_token += 1
        token = self._slow_token
        self.sim.call_at(time_us, self._begin_window, node, token, factor)
        if until_us is not None:
            self.sim.call_at(until_us, self._end_window, node, token)

    def _begin_window(self, node: Node, token: int, factor: float) -> None:
        self._slow_windows.setdefault(node.node_id, []).append((token, factor))
        self.slow(node, factor)

    def _end_window(self, node: Node, token: int) -> None:
        windows = self._slow_windows.get(node.node_id, [])
        remaining = [(t, f) for t, f in windows if t != token]
        if len(remaining) == len(windows):
            return  # window already discarded (e.g. node restarted fresh)
        self._slow_windows[node.node_id] = remaining
        self.slow(node, remaining[-1][1] if remaining else 1.0)
