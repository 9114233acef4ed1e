"""A Zeus server node.

Each node owns (Section 7):

* a pool of pinned **datastore worker threads** (modeled as a
  :class:`~repro.sim.resources.CpuPool`) that handle protocol messages,
* a set of pinned **application threads** (one :class:`CpuServer` each) on
  which workload transactions execute, and
* a :class:`~repro.net.reliable.ReliableTransport` endpoint.

Protocol modules register message handlers by kind; the node charges
per-message CPU to the worker pool and dispatches the handler once the
modeled work would have completed, so worker-pool saturation shows up as
protocol latency exactly as on real hardware.
"""

from __future__ import annotations

from time import perf_counter_ns as _perf_ns
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..net.message import Message, NodeId
from ..net.network import Network
from ..obs import TID_SVC, Observability
from ..sim.kernel import Simulator
from ..sim.params import SimParams
from ..sim.process import Process
from ..sim.resources import CpuPool, CpuServer

__all__ = ["Node"]

HandlerFn = Callable[[Message], None]
CostFn = Union[float, Callable[[Any], float]]


class Node:
    """One server: transport endpoint + worker pool + app threads."""

    def __init__(self, sim: Simulator, node_id: NodeId, params: SimParams,
                 network: Network, obs: Optional[Observability] = None):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.network = network
        #: Observability context, shared cluster-wide via the network.
        self.obs = obs if obs is not None else network.obs
        self.pool = CpuPool(sim, params.worker_threads, name=f"n{node_id}.pool")
        self.app_cpus: List[CpuServer] = [
            CpuServer(sim, name=f"n{node_id}.app{i}") for i in range(params.app_threads)
        ]
        from ..net.reliable import ReliableTransport  # local import: avoid cycle

        self.transport = ReliableTransport(sim, network, node_id, params.net, self._dispatch)
        #: kind -> (handler, extra worker-CPU cost, service span: its emit
        #: point when there is a tracer, else its name).
        self._handlers: Dict[str, Tuple[HandlerFn, CostFn, Any]] = {}
        #: Worker CPU every message costs at either end (send or receive).
        self._msg_cpu_us = (params.net.msg_cpu_us
                            + params.net.reliable_overhead_us)
        self.alive = True
        #: Current membership epoch as known by this node.
        self.epoch = 1
        #: Incarnation number: bumped on every restart.  Stamped onto every
        #: outgoing message so peers can fence pre-crash ("zombie") traffic.
        self.incarnation = 1
        #: Latest incarnation of each peer as announced by membership views
        #: (the transport's dict: it stamps them as ``msg.dst_inc``).
        self.peer_incarnations = self.transport.peer_incarnations
        #: Live-node view as known by this node.
        self.live_nodes: frozenset = frozenset()
        self._processes: List[Process] = []
        self._view_listeners: List[Callable[[int, frozenset], None]] = []
        #: Registry-backed counter view (``node.*`` metrics, labeled by id).
        self.counters = self.obs.registry.group("node", node=node_id)
        #: Durable-storage tier (:class:`~repro.store.wal.DurabilityManager`)
        #: or None when the WAL is disabled — absent means None, as for
        #: the ``obs`` instruments; protocol layers guard ``is not None``.
        self.durability = None
        #: Trace context of the message handler currently running, if any.
        #: Handlers run synchronously at their dispatch time (the sim is
        #: single-threaded), so sends issued inside a handler inherit the
        #: handler's service-span context automatically.
        self._handler_ctx = None

    # ------------------------------------------------------------ plumbing

    def register_handler(self, kind: str, fn: HandlerFn, cost: CostFn = 0.0,
                         span_name: Optional[str] = None) -> None:
        """Route messages of ``kind`` to ``fn``; ``cost`` is extra worker
        CPU per message (a float, or ``fn(payload) -> float``).

        ``span_name`` names the service span recorded for traced messages
        of this kind (default ``svc.<kind>``) — protocols pick meaningful
        names like ``own_acquire.serve`` so traces read well."""
        if kind in self._handlers:
            raise ValueError(f"handler for {kind!r} already registered")
        span = span_name or f"svc.{kind}"
        tracer = self.obs.tracer
        if tracer is not None:
            span = tracer.point(span, "svc", True, kind=str, src=int,
                                queue_us=float, service_us=float, flow=int)
        self._handlers[kind] = (fn, cost, span)

    def send(self, dst: NodeId, kind: str, payload: Any, size_bytes: int,
             ctx=None) -> None:
        """Reliably send a protocol message, charging send-side CPU.

        ``ctx`` is an optional trace context; when omitted and the send
        happens inside a message handler, the handler's service-span
        context is propagated so cross-node causality is preserved without
        every protocol threading contexts by hand."""
        if not self.alive:
            return
        self.pool.charge(self._msg_cpu_us)
        if ctx is None:
            ctx = self._handler_ctx
        if dst != self.node_id:
            self.transport.send(dst, kind, payload, size_bytes, ctx)
            return
        # Loopback: dispatched at the current time, never on the wire (no
        # channel, sequence number or ack), stamped as the transport
        # stamps a message.
        msg = Message(dst, dst, kind, payload, size_bytes)
        msg.inc = self.incarnation
        msg.epoch = self.epoch
        tracer = self.obs.tracer
        if ctx is not None and tracer is not None:
            msg.trace_id, msg.parent_span = ctx
            msg.flow_id = tracer.next_flow()
        self.sim.post_soon(self._dispatch, msg)

    def _dispatch(self, msg: Message) -> None:
        if not self.alive:
            return
        entry = self._handlers.get(msg.kind)
        if entry is None:
            raise KeyError(f"node {self.node_id}: no handler for {msg.kind!r}")
        fn, cost, svc = entry
        extra = cost(msg.payload) if callable(cost) else cost
        tracer = self.obs.tracer
        traced = tracer is not None and msg.trace_id is not None
        # queue_delay() feeds only the service span's queue/service split;
        # read it (before charge() moves the pool) only when traced.
        queue_us = self.pool.queue_delay() if traced else 0.0
        ready_at = self.pool.charge(self._msg_cpu_us + extra)
        if traced:
            # Service span: [arrival, handler-done] on the worker-pool
            # track, split into queue wait and service time, linked under
            # the sender's span so the trace crosses the wire.
            self.sim.post_at(
                ready_at, self._run_handler, fn, msg, svc,
                tracer.open(self.node_id, TID_SVC,
                            (msg.trace_id, msg.parent_span)),
                queue_us, ready_at - self.sim.now - queue_us)
        else:
            self.sim.post_at(ready_at, self._run_handler, fn, msg)

    def _run_handler(self, fn: HandlerFn, msg: Message, svc=None, span=None,
                     queue_us: float = 0.0, service_us: float = 0.0) -> None:
        if not self.alive:
            return
        # The handler runs synchronously; anything it sends inherits this
        # context (the service span when traced, else the message's own).
        if span is not None:
            self._handler_ctx = span.ctx
        elif msg.trace_id is not None:
            self._handler_ctx = (msg.trace_id, msg.parent_span)
        prof = self.obs.profiler
        t0 = _perf_ns() if prof is not None else 0
        try:
            fn(msg)
        finally:
            if prof is not None:
                # Per-message-kind host time: the fine-grained view inside
                # the kernel profiler's `cluster` subsystem bucket.
                prof.handler(msg.kind, _perf_ns() - t0)
            if span is not None:
                svc(span, msg.kind, msg.src, queue_us, service_us,
                    msg.flow_id)
            self._handler_ctx = None

    # ----------------------------------------------------------- processes

    def spawn(self, gen, name: str = "proc") -> Process:
        """Run a generator as a process tied to this node's lifetime."""
        proc = Process(self.sim, gen, name=f"n{self.node_id}.{name}")
        self._processes.append(proc)
        return proc

    # ------------------------------------------------------------ liveness

    def crash(self) -> None:
        """Crash-stop: the node stops sending, receiving and executing."""
        if not self.alive:
            return
        self.alive = False
        self.transport.stop()
        self.network.set_down(self.node_id)
        for proc in self._processes:
            proc.kill()
        self._processes.clear()
        if self.durability is not None:
            # The crash loses the volatile WAL tail, and any fsync
            # completion already in flight must never resolve a
            # durability future for the dead incarnation (token bump).
            self.durability.power_fail()

    def restart(self) -> None:
        """Reboot a crashed node under a fresh incarnation.

        All volatile state is rebuilt: worker pool and app CPUs (a reboot
        forgets queued work and any gray slowdown), transport channels
        (sequence numbers restart at 0), and the view (cleared so the admit
        view installs unconditionally).  Until the admit view installs, the
        transport is quarantined: a rebooting node must not engage in the
        protocols, and everything in flight can only be addressed to its
        dead incarnation.  Datastore state is *not* restored here — the
        recovery manager transfers it from live replicas once membership
        re-admits the node."""
        if self.alive:
            raise RuntimeError(f"node {self.node_id} is alive; cannot restart")
        self.incarnation += 1
        self.alive = True
        self.pool = CpuPool(self.sim, self.params.worker_threads,
                            name=f"n{self.node_id}.pool")
        self.app_cpus = [
            CpuServer(self.sim, name=f"n{self.node_id}.app{i}")
            for i in range(self.params.app_threads)
        ]
        self.transport.incarnation = self.incarnation
        self.transport.restart()
        self.transport.quarantined = True
        self.live_nodes = frozenset()
        self.peer_incarnations.clear()
        self.network.set_down(self.node_id, False)
        self.counters.inc("restarts")

    def begin_join(self) -> None:
        """Quarantine a freshly built node (live scale-out) until admitted.

        A joiner must not engage in the protocols before its join view
        installs: a peer could otherwise observe it mid-handshake under an
        epoch that does not list it.  Reuses the reboot quarantine — the
        first view install lifts it (:meth:`on_view_change` clears the
        transport's ``quarantined``)."""
        self.transport.quarantined = True

    def set_slowdown(self, factor: float) -> None:
        """Gray failure: multiply every CPU cost on this node by ``factor``
        (1.0 restores full speed).  The node stays alive and correct — just
        slow — which is exactly the failure mode lease-based detection has
        the hardest time with."""
        if factor <= 0:
            raise ValueError(f"bad slowdown factor {factor}")
        self.pool.speed_factor = factor
        for cpu in self.app_cpus:
            cpu.speed_factor = factor

    @property
    def slowdown(self) -> float:
        return self.pool.speed_factor

    # --------------------------------------------------------- view change

    def add_view_listener(self, fn: Callable[[int, frozenset], None]) -> None:
        self._view_listeners.append(fn)

    def on_view_change(self, epoch: int, live: frozenset,
                       incarnations: Optional[Dict[NodeId, int]] = None) -> None:
        """Called by the membership service when a new view is installed."""
        if not self.alive:
            return
        if self.live_nodes and epoch <= self.epoch:
            return
        self.transport.quarantined = False  # admitted: the quarantine lifts
        removed = self.live_nodes - live
        added = (live - self.live_nodes) if self.live_nodes else frozenset()
        self.epoch = self.transport.epoch = epoch
        self.live_nodes = live
        if self.durability is not None:
            self.durability.log_epoch(epoch)
        if incarnations:
            for peer, inc in incarnations.items():
                if peer != self.node_id:
                    self.peer_incarnations[peer] = inc
        # Only once membership has spoken may the reliable layer discard
        # channel state toward a peer (a give-up alone might be a partition).
        for peer in removed:
            self.transport.on_peer_removed(peer)
        # A re-admitted peer is a fresh incarnation: reset channels so both
        # sides restart from seq 0 (the rejoiner's transport already did).
        for peer in added:
            if peer != self.node_id:
                self.transport.on_peer_added(peer)
        for fn in self._view_listeners:
            fn(epoch, live)

