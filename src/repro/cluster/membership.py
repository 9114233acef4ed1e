"""Reliable membership with leases and epochs.

Zeus "uses a reliable membership with leases to deal with the uncertainty
of detecting node failures.  Each membership update is tagged with a
monotonically increasing epoch id and is performed across the deployment
only after all node leases have expired" (Section 3.1) — i.e. a
ZooKeeper-with-leases design.

We model the membership service as a logical, always-available entity (as
the paper does: it is infrastructure, not one of the six datastore nodes).
Nodes renew leases via periodic heartbeats; the service declares a node
failed only after its lease lapses, then waits a full lease interval before
installing the new epoch — guaranteeing that by the time any live node acts
on the new view, the dead node can no longer be acting on the old one.

Rejoin is symmetric: :meth:`MembershipService.admit` waits for the crashed
node's eviction view plus a full lease interval before installing a view
that re-adds it under a bumped **incarnation number**, so every live node
learns the fresh incarnation (and fences the old one) before the rejoiner
may participate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..net.message import NodeId
from ..sim.kernel import Simulator
from ..sim.params import SimParams
from .node import Node

__all__ = ["MembershipService", "View"]


class View:
    """An installed membership view."""

    __slots__ = ("epoch", "live", "incarnations")

    def __init__(self, epoch: int, live: frozenset,
                 incarnations: Optional[Dict[NodeId, int]] = None):
        self.epoch = epoch
        self.live = live
        #: Incarnation number of each live member at install time.
        self.incarnations: Dict[NodeId, int] = dict(incarnations or {})

    def __repr__(self) -> str:  # pragma: no cover
        return f"View(e={self.epoch}, live={sorted(self.live)})"


class MembershipService:
    """Lease-based failure detection + epoch-tagged view installation."""

    def __init__(self, sim: Simulator, params: SimParams, nodes: List[Node]):
        self.sim = sim
        self.params = params
        self.nodes: Dict[NodeId, Node] = {n.node_id: n for n in nodes}
        self.view = View(1, frozenset(self.nodes),
                         {n.node_id: n.incarnation for n in nodes})
        #: Optional fault hook: ``fn(node_id) -> True`` drops that
        #: heartbeat in flight.  Lets chaos tests exercise the detector's
        #: ability to distinguish lost heartbeats from real crashes (a node
        #: is only suspected after ``3 * heartbeat_us`` of silence).
        self.heartbeat_drop_fn: Optional[Callable[[NodeId], bool]] = None
        self._last_heartbeat: Dict[NodeId, float] = {nid: 0.0 for nid in self.nodes}
        self._suspected: Dict[NodeId, float] = {}  # node -> lease-expiry time
        self._pending_install: Optional[float] = None
        self._started = False
        self.view_history: List[View] = [self.view]
        for node in nodes:
            node.on_view_change(self.view.epoch, self.view.live,
                                self.view.incarnations)

    def start(self) -> None:
        """Begin heartbeat collection and the detector scan loop."""
        self._started = True
        for node in self.nodes.values():
            node.spawn(self._heartbeat_loop(node), name="heartbeat")
        self.sim.call_after(self.params.heartbeat_us, self._scan)

    # ---------------------------------------------------------- heartbeats

    def _heartbeat_loop(self, node: Node):
        wire = self.params.net.wire_latency_us
        while node.alive:
            # Heartbeat reaches the service one wire latency later (unless
            # the fault hook loses it on the way).
            if self.heartbeat_drop_fn is None or not self.heartbeat_drop_fn(node.node_id):
                self.sim.call_after(wire, self._record_heartbeat, node.node_id)
            yield self.params.heartbeat_us

    def _record_heartbeat(self, node_id: NodeId) -> None:
        # Fence at the detector too: a heartbeat from an evicted node (in
        # flight at eviction, or a zombie that has not noticed it is dead)
        # must not resurrect detector state for a non-member.
        if node_id not in self.view.live:
            return
        self._last_heartbeat[node_id] = self.sim.now

    # ------------------------------------------------------------ detector

    def _scan(self) -> None:
        now = self.sim.now
        timeout = 3 * self.params.heartbeat_us
        for nid in self.view.live:
            if nid in self._suspected:
                continue
            if now - self._last_heartbeat[nid] > timeout:
                # Suspected: its lease must fully expire before we may act.
                self._suspected[nid] = now + self.params.lease_us
        if self._suspected and self._pending_install is None:
            install_at = max(self._suspected.values())
            self._pending_install = install_at
            self.sim.call_at(install_at, self._install_view)
        self.sim.call_after(self.params.heartbeat_us, self._scan)

    def _install_view(self) -> None:
        self._pending_install = None
        expired = {nid for nid, t in self._suspected.items() if t <= self.sim.now}
        if not expired:
            return
        for nid in expired:
            del self._suspected[nid]
        live = frozenset(self.view.live - expired)
        # Prune per-node detector state for evicted members; stale entries
        # would otherwise accumulate forever and (worse) a later heartbeat
        # from a zombie would refresh a lease the view no longer grants.
        for nid in expired:
            self._last_heartbeat.pop(nid, None)
        self._install(live)

    def _install(self, live: frozenset) -> None:
        self.view = View(self.view.epoch + 1, live,
                         {nid: self.nodes[nid].incarnation for nid in live})
        self.view_history.append(self.view)
        wire = self.params.net.wire_latency_us
        for nid in live:
            node = self.nodes[nid]
            self.sim.call_after(wire, node.on_view_change, self.view.epoch,
                                live, self.view.incarnations)

    # --------------------------------------------------------------- rejoin

    def admit(self, node_id: NodeId) -> None:
        """Re-admit a restarted node with an epoch bump.

        Symmetric with removal: we wait until the node's *eviction* view has
        been installed (it may still be pending if the restart raced the
        detector), then wait a full lease interval so every live node has
        acted on the eviction — and fenced the old incarnation — before any
        of them can see the rejoiner in a view."""
        node = self.nodes[node_id]
        if not node.alive:
            raise RuntimeError(f"node {node_id} is not restarted; cannot admit")
        if node_id in self.view.live:
            # Eviction not installed yet: retry once the detector catches up.
            self.sim.call_after(self.params.heartbeat_us, self.admit, node_id)
            return
        self.sim.call_after(self.params.lease_us, self._admit_now, node_id)

    def _admit_now(self, node_id: NodeId) -> None:
        node = self.nodes[node_id]
        if not node.alive or node_id in self.view.live:
            return
        self._last_heartbeat[node_id] = self.sim.now
        self._suspected.pop(node_id, None)
        node.spawn(self._heartbeat_loop(node), name="heartbeat")
        self._install(frozenset(self.view.live | {node_id}))

    # ----------------------------------------------------------- elasticity

    def register(self, node: Node) -> None:
        """Register a freshly booted node (live scale-out) with the
        service.  The node is known but not yet a member — it joins no
        view until :meth:`join` installs one."""
        if node.node_id in self.nodes:
            raise ValueError(f"node {node.node_id} is already registered")
        self.nodes[node.node_id] = node
        self._last_heartbeat[node.node_id] = self.sim.now

    def join(self, node_id: NodeId) -> None:
        """Admit a brand-new node with an epoch bump.

        Unlike :meth:`admit` there is no lease dance: a node that never
        held a lease has no dead incarnation anyone could confuse with
        the new one, so the view may install immediately.  The joiner
        stays quarantined (``transport.quarantined``) until the install
        reaches it."""
        node = self.nodes[node_id]
        if not node.alive:
            raise RuntimeError(f"node {node_id} is not booted; cannot join")
        if node_id in self.view.live:
            return
        self._admit_now(node_id)

    def retire(self, node_id: NodeId) -> None:
        """Remove a *drained* node with an epoch bump.

        The caller guarantees the node has been cleanly stopped after its
        duties were moved away — the fence here is proof-of-stop rather
        than lease expiry: a provably halted node cannot act on the old
        view, which is the only thing the lease wait buys for a crash.
        The node is deregistered entirely so a later :meth:`reform`
        (cold restart) re-forms the cluster without it."""
        node = self.nodes.get(node_id)
        if node is not None and node.alive:
            raise RuntimeError(
                f"node {node_id} is still running; stop it before retiring")
        self.nodes.pop(node_id, None)
        self._last_heartbeat.pop(node_id, None)
        self._suspected.pop(node_id, None)
        if node_id in self.view.live:
            self._install(frozenset(self.view.live - {node_id}))

    # ---------------------------------------------------------- cold restart

    def reform(self, epoch_floor: int = 0,
               at: Optional[float] = None) -> None:
        """Re-form the cluster after a full power loss + cold restart.

        Every node is live again; the new epoch is strictly above both the
        service's own last epoch *and* ``epoch_floor`` (the highest epoch
        any node's WAL persisted), so no pre-outage message — however it
        survived — can carry the reformed epoch.  There is no lease dance:
        with every node provably down there is no old incarnation left to
        fence.  Heartbeat loops are respawned (the old ones died with
        their nodes) when the detector had been started."""
        if at is not None:
            self.sim.call_at(at, self.reform, epoch_floor)
            return
        epoch = max(self.view.epoch, epoch_floor) + 1
        live = frozenset(self.nodes)
        now = self.sim.now
        self._suspected.clear()
        self._pending_install = None
        for nid in self.nodes:
            self._last_heartbeat[nid] = now
        self.view = View(epoch, live,
                         {nid: n.incarnation for nid, n in self.nodes.items()})
        self.view_history.append(self.view)
        wire = self.params.net.wire_latency_us
        for nid, node in self.nodes.items():
            if self._started:
                node.spawn(self._heartbeat_loop(node), name="heartbeat")
            self.sim.call_after(wire, node.on_view_change, epoch, live,
                                self.view.incarnations)
