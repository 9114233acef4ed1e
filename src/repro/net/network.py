"""The simulated datacenter network.

Single-switch topology with full bisection bandwidth, matching the paper's
testbed (six servers behind one Dell S6100-ON switch, 40 Gbps links).

Latency model per message::

    one_way = wire_latency + (header + size) / bandwidth + U(0, jitter)

Per-(src, dst) and aggregate byte counters support the paper's bandwidth
claims.  A :class:`FaultInjector` can drop/duplicate/delay messages; a
*partition* set can sever pairs entirely (used by failure tests).

Observability: every fate a message can meet — sent, delivered, dropped by
the injector / a partition / a down endpoint, duplicated, delayed — is
counted in the cluster's :class:`~repro.obs.MetricsRegistry` under
``net.*``, and emitted as wire-level trace events when a tracer is attached.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from ..obs import Observability, TID_NET
from ..sim.kernel import Simulator
from ..sim.params import NetParams
from .fault import FaultInjector
from .message import Message, NodeId

__all__ = ["Network"]

DeliverFn = Callable[[Message], None]


class _Link:
    """Traffic accounted to one directed (src, dst) link."""

    __slots__ = ("bytes", "msgs")

    def __init__(self) -> None:
        self.bytes = 0
        self.msgs = 0


class Network:
    """Connects node endpoints and models the wire."""

    def __init__(self, sim: Simulator, params: NetParams,
                 fault_injector: Optional[FaultInjector] = None,
                 jitter_rng=None, obs: Optional[Observability] = None):
        self.sim = sim
        self.params = params
        self.faults = fault_injector
        self._jitter_rng = jitter_rng
        self.obs = obs if obs is not None else Observability()
        self._endpoints: Dict[NodeId, DeliverFn] = {}
        self._down: Set[NodeId] = set()
        self._partitioned: Set[Tuple[NodeId, NodeId]] = set()
        # --------- accounting
        self._links: Dict[Tuple[NodeId, NodeId], _Link] = {}
        self.total_bytes = 0
        self.total_msgs = 0
        registry = self.obs.registry
        self._c_sent = registry.counter("net.sent")
        self._c_delivered = registry.counter("net.delivered")
        self._c_dropped_fault = registry.counter("net.dropped")
        self._c_dropped_partition = registry.counter("net.dropped_partition")
        self._c_dropped_down = registry.counter("net.dropped_down")
        self._c_duplicated = registry.counter("net.duplicated")
        self._c_delayed = registry.counter("net.delayed")
        tracer = self.obs.tracer
        if tracer is not None:
            # Emit points, declared once: two thirds of a trace's records.
            self._t_drop = tracer.point("net.drop", "net", False,
                                        dst=int, kind=str, why=str)
            self._t_send = tracer.point("net.send", "net", False,
                                        dst=int, kind=str, size=int)
            self._t_send_flow = tracer.point(
                "net.send", "net", False, dst=int, kind=str, size=int,
                flow=int)
            self._t_deliver = tracer.point("net.deliver", "net", False,
                                           src=int, kind=str)
            self._t_deliver_flow = tracer.point(
                "net.deliver", "net", False, src=int, kind=str, flow=int)

    # ----------------------------------------------------------- topology

    def attach(self, node_id: NodeId, deliver: DeliverFn) -> None:
        if node_id in self._endpoints:
            raise ValueError(f"node {node_id} already attached")
        self._endpoints[node_id] = deliver

    def set_down(self, node_id: NodeId, down: bool = True) -> None:
        """Crash-stop (or revive) a node at the network level: nothing in,
        nothing out."""
        if down:
            self._down.add(node_id)
        else:
            self._down.discard(node_id)

    def partition(self, a: NodeId, b: NodeId) -> None:
        """Sever the (a, b) pair in both directions."""
        self._partitioned.add((a, b))
        self._partitioned.add((b, a))

    def heal(self, a: NodeId, b: NodeId) -> None:
        self._partitioned.discard((a, b))
        self._partitioned.discard((b, a))

    def is_partitioned(self, a: NodeId, b: NodeId) -> bool:
        return (a, b) in self._partitioned

    # ------------------------------------------------------------- sending

    def latency(self, size_bytes: int) -> float:
        p = self.params
        lat = p.wire_latency_us + (p.header_bytes + size_bytes) / p.bandwidth_bytes_per_us
        if p.jitter_us > 0 and self._jitter_rng is not None:
            lat += self._jitter_rng.random() * p.jitter_us
        return lat

    def send(self, msg: Message) -> None:
        """Inject ``msg``; it is delivered (or not) after the modeled
        latency.  Sending from/to a down node or across a partition
        silently drops — exactly what crash-stop + lossy links look like to
        the layers above."""
        src = msg.src
        dst = msg.dst
        link_key = (src, dst)
        tracer = self.obs.tracer
        if self._down and (src in self._down or dst in self._down):
            self._c_dropped_down.inc()
            return
        if self._partitioned and link_key in self._partitioned:
            self._c_dropped_partition.inc()
            if tracer is not None:
                self._t_drop(src, TID_NET, None, dst, msg.kind, "partition")
            return
        wire_bytes = self.params.header_bytes + msg.size_bytes
        link = self._links.get(link_key)
        if link is None:
            link = self._links[link_key] = _Link()
        link.bytes += wire_bytes
        link.msgs += 1
        self.total_bytes += wire_bytes
        self.total_msgs += 1
        self._c_sent.value += 1  # not inc(): a Python frame per message
        prof = self.obs.profiler
        if prof is not None:
            prof.message(msg.kind)

        duplicates = 0
        extra_delay = 0.0
        faults = self.faults
        if faults is not None and faults.active:
            decision = faults.decide()
            if decision.drop:
                self._c_dropped_fault.inc()
                if tracer is not None:
                    self._t_drop(src, TID_NET, None, dst, msg.kind, "loss")
                return
            if decision.duplicates:
                self._c_duplicated.inc(decision.duplicates)
            if decision.extra_delay_us > 0:
                self._c_delayed.inc()
            duplicates = decision.duplicates
            extra_delay = decision.extra_delay_us

        if tracer is not None:
            if msg.flow_id is not None:
                self._t_send_flow(src, TID_NET,
                                  (msg.trace_id, msg.parent_span), dst,
                                  msg.kind, msg.size_bytes, msg.flow_id)
            else:
                self._t_send(src, TID_NET, None, dst, msg.kind,
                             msg.size_bytes)
        delay = self.latency(msg.size_bytes) + extra_delay
        for i in range(duplicates + 1):
            # Duplicates trail the original slightly.
            self.sim.post_after(delay + i * 0.5, self._deliver, msg)

    def _deliver(self, msg: Message) -> None:
        dst = msg.dst
        if self._down and dst in self._down:
            self._c_dropped_down.inc()
            return
        endpoint = self._endpoints.get(dst)
        if endpoint is not None:
            self._c_delivered.value += 1
            tracer = self.obs.tracer
            if tracer is not None:
                if msg.flow_id is not None:
                    self._t_deliver_flow(dst, TID_NET,
                                         (msg.trace_id, msg.parent_span),
                                         msg.src, msg.kind, msg.flow_id)
                else:
                    self._t_deliver(dst, TID_NET, None, msg.src, msg.kind)
            endpoint(msg)

    # ---------------------------------------------------------- accounting

    def bytes_between(self, a: NodeId, b: NodeId) -> int:
        """Wire bytes sent over the (a, b) pair, both directions."""
        links = self._links
        return sum(links[key].bytes for key in ((a, b), (b, a))
                   if key in links)

    @property
    def msgs_dropped(self) -> int:
        """Messages lost to the fault injector (below the reliable layer)."""
        return self._c_dropped_fault.value

    @property
    def msgs_duplicated(self) -> int:
        return self._c_duplicated.value

    @property
    def msgs_delayed(self) -> int:
        return self._c_delayed.value
