"""Reliable messaging on top of the lossy network.

Zeus does not use RDMA; it implements "a reliable messaging protocol with
low-level retransmission to recover lost messages" (Sections 3.1, 7) over
DPDK.  This module is that layer: per-(sender, receiver) channels with

* sequence-numbered sends and an unacked buffer,
* cumulative acknowledgements, piggybacked on reverse data traffic and
  otherwise flushed by a delayed-ack timer,
* go-back-N retransmission driven by a per-channel timeout,
* in-order delivery with an out-of-order reassembly buffer,
* duplicate suppression (re-acking so the sender can advance), and
* an incarnation fence: traffic from or to a dead incarnation of a
  restarted node is dropped before it touches any channel.

Unlike FaSST — which must kill and recover a node on any lost packet — this
lets Zeus ride out loss at the cost of the ``reliable_overhead_us`` CPU tax
and ack traffic, a trade-off Section 8.2 calls out explicitly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..obs import TID_NET
from ..sim.kernel import EventHandle, Simulator
from ..sim.params import NetParams
from .message import Message, NodeId
from .network import Network

__all__ = ["ReliableTransport", "ACK_KIND"]

ACK_KIND = "__ack__"
_ACK_SIZE = 16
_ACK_DELAY_US = 5.0

DeliverFn = Callable[[Message], None]


class _SendChannel:
    """Sender-side state toward one peer."""

    __slots__ = ("next_seq", "unacked", "timer", "retries", "probing")

    def __init__(self) -> None:
        self.next_seq = 0
        self.unacked: Dict[int, Message] = {}
        self.timer: Optional[EventHandle] = None
        self.retries = 0
        #: Retransmit budget exhausted: the peer is either dead (membership
        #: will remove it) or unreachable (a partition that may heal).  We
        #: keep the unacked buffer and probe slowly until one or the other
        #: resolves; clearing state here would permanently desynchronize the
        #: channel if the peer was merely partitioned.
        self.probing = False


class _RecvChannel:
    """Receiver-side state from one peer."""

    __slots__ = ("expected", "buffer", "ack_timer")

    def __init__(self) -> None:
        self.expected = 0
        self.buffer: Dict[int, Message] = {}
        #: The delayed-ack timer.  A piggybacked ack cancels it but keeps
        #: the handle, so the next arrival can revive it in place.
        self.ack_timer: Optional[EventHandle] = None


class ReliableTransport:
    """One per node.  ``deliver`` receives application messages in order."""

    def __init__(self, sim: Simulator, network: Network, node_id: NodeId,
                 params: NetParams, deliver: DeliverFn):
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.params = params
        self.deliver = deliver
        self._send: Dict[NodeId, _SendChannel] = {}
        self._recv: Dict[NodeId, _RecvChannel] = {}
        self.stopped = False
        #: Our incarnation number, stamped on every outgoing message.  The
        #: owning :class:`~repro.cluster.node.Node` bumps it on restart.
        self.incarnation = 1
        #: Our membership epoch, stamped on every outgoing message.  The
        #: owning node keeps it equal to its ``epoch`` on every view change.
        self.epoch = 1
        #: Set by the owning node from a reboot (or a live join) until the
        #: view that admits it installs: every arrival is fenced.
        self.quarantined = False
        #: The incarnation we believe each peer runs (absent = unknown, 0);
        #: stamped as ``msg.dst_inc`` so a peer that has since restarted can
        #: drop traffic addressed to its dead incarnation; an arrival from
        #: an older incarnation than this is fenced.  The owning node shares
        #: this dict as its ``peer_incarnations``.
        self.peer_incarnations: Dict[NodeId, int] = {}
        # metrics (registry-backed; shared with the network's registry)
        self.obs = network.obs
        registry = self.obs.registry
        self._c_retransmissions = registry.counter("net.retransmits",
                                                   node=node_id)
        self._c_acks_sent = registry.counter("net.acks_sent", node=node_id)
        self._c_gave_up = registry.counter("net.gave_up", node=node_id)
        self._c_probes = registry.counter("net.probes", node=node_id)
        self._c_resets = registry.counter("net.channel_resets", node=node_id)
        self._c_fenced = registry.counter("recovery.fenced", node=node_id)
        self._c_quarantined = registry.counter("recovery.quarantined",
                                               node=node_id)
        network.attach(node_id, self._on_wire)

    def watermarks(self) -> Dict[NodeId, Tuple[int, int]]:
        """Per-peer ``(next_seq_out, expected_in)`` sequence watermarks.

        Read-only introspection captured into crash-consistent snapshots;
        a cold start never restores them (fresh incarnations reset every
        channel), but they document where each stream stood on disk."""
        peers = set(self._send) | set(self._recv)
        return {p: (self._send[p].next_seq if p in self._send else 0,
                    self._recv[p].expected if p in self._recv else 0)
                for p in sorted(peers)}

    @property
    def retransmissions(self) -> int:
        return self._c_retransmissions.value

    @property
    def acks_sent(self) -> int:
        return self._c_acks_sent.value

    @property
    def gave_up(self) -> int:
        return self._c_gave_up.value

    # ---------------------------------------------------------------- send

    def send(self, dst: NodeId, kind: str, payload: Any, size_bytes: int,
             ctx=None) -> None:
        """Reliably send an application message to peer ``dst`` (fire and
        forget; the layer retries until acked or ``max_retransmits`` is
        exhausted).  A node's messages to itself never reach the
        transport: ``Node.send`` dispatches them directly.

        ``ctx`` is an optional trace context ``(trace_id, parent_span_id)``
        stamped on the message so receiver-side spans join the sender's
        trace; retransmits reuse the stored message and therefore keep the
        original context and flow id."""
        if self.stopped:
            return
        msg = Message(self.node_id, dst, kind, payload, size_bytes)
        msg.inc = self.incarnation
        msg.epoch = self.epoch
        if ctx is not None:
            self._stamp_ctx(msg, ctx)
        chan = self._send.get(dst)
        if chan is None:
            chan = self._send[dst] = _SendChannel()
        msg.dst_inc = self.peer_incarnations.get(dst, 0)
        msg.seq = seq = chan.next_seq
        chan.next_seq = seq + 1
        chan.unacked[seq] = msg
        self.network.send(msg)
        if chan.timer is None:
            self._arm_retransmit(dst, chan)
        # Piggyback our cumulative ack for dst's channel on this data
        # message, suppressing the standalone delayed ack.
        rchan = self._recv.get(dst)
        if rchan is not None:
            msg.ack = rchan.expected
            timer = rchan.ack_timer
            if timer is not None:
                timer.cancelled = True

    def _stamp_ctx(self, msg: Message, ctx) -> None:
        tracer = self.obs.tracer
        if tracer is None:
            return
        msg.trace_id, msg.parent_span = ctx
        msg.flow_id = tracer.next_flow()

    def _arm_retransmit(self, dst: NodeId, chan: _SendChannel) -> None:
        if chan.timer is None and chan.unacked:
            interval = (self.params.probe_interval_us if chan.probing
                        else self.params.retransmit_timeout_us)
            chan.timer = self.sim.call_after(interval, self._retransmit, dst)

    def _retransmit(self, dst: NodeId) -> None:
        chan = self._send.get(dst)
        if chan is None or self.stopped:
            return
        chan.timer = None
        if not chan.unacked:
            chan.retries = 0
            chan.probing = False
            return
        chan.retries += 1
        prof = self.obs.profiler
        if prof is not None:
            # Retransmit scans walk (and re-send) the whole unacked window;
            # their host cost scales with window size, so the profiler
            # tracks both the scan count and the total entries scanned.
            prof.count("retransmit.scans")
            prof.count("retransmit.window_entries", len(chan.unacked))
        if chan.retries > self.params.max_retransmits and not chan.probing:
            # Retransmit budget exhausted.  If the peer is dead, membership
            # failure detection removes it and :meth:`on_peer_removed`
            # discards this state; if it is merely partitioned, the slow
            # probe below re-establishes the channel once the link heals.
            self._c_gave_up.inc()
            chan.probing = True
        tracer = self.obs.tracer
        if chan.probing:
            # Probe with only the lowest outstanding message: enough for the
            # peer to (re-)ack and resynchronize, without blasting the whole
            # go-back-N window into a black hole every interval.
            seq = min(chan.unacked)
            self._c_probes.inc()
            if tracer is not None:
                tracer.point("net.probe", "net", False, dst=int, seq=int)(
                    self.node_id, TID_NET, None, dst, seq)
            self.network.send(chan.unacked[seq])
        else:
            for seq in sorted(chan.unacked):
                self._c_retransmissions.inc()
                if tracer is not None:
                    tracer.point("net.retransmit", "net", False, dst=int,
                                 seq=int, attempt=int)(
                        self.node_id, TID_NET, None, dst, seq, chan.retries)
                self.network.send(chan.unacked[seq])
        self._arm_retransmit(dst, chan)

    # ------------------------------------------------------------- receive

    def _on_wire(self, msg: Message) -> None:
        if self.stopped:
            return
        src = msg.src
        # The fence: traffic of a dead incarnation touches no channel or
        # protocol state.  A higher-than-known sender incarnation passes:
        # the rejoined peer may legitimately reach us before its admit
        # view does.
        if self.quarantined:
            # Rebooted, not yet admitted: in-flight traffic can only be
            # addressed to our dead incarnation, and letting it advance
            # fresh receive channels would desynchronize them against
            # peers that reset at the admit view.
            self._c_quarantined.inc()
            return
        if 0 < msg.dst_inc < self.incarnation:
            # Addressed to our dead incarnation (e.g. a probe retransmit
            # created before the sender learned we restarted).
            self._c_fenced.inc()
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.point("recovery.fence", "recovery", False, src=int,
                             dst_inc=int, kind=str)(
                    self.node_id, TID_NET, None, src, msg.dst_inc, msg.kind)
            return
        known = self.peer_incarnations.get(src)
        if known is not None and msg.inc < known:
            # Sent by a dead incarnation of ``src`` (accepted by the
            # network before it crashed, or a probe retransmit).
            self._c_fenced.inc()
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.point("recovery.fence", "recovery", False, src=int,
                             inc=int, expected=int, kind=str)(
                    self.node_id, TID_NET, None, src, msg.inc, known,
                    msg.kind)
            return
        # The cumulative ack for our channel to ``src``: a standalone ack's
        # payload, or piggybacked on a data message.
        kind = msg.kind
        cumulative = msg.payload if kind == ACK_KIND else msg.ack
        if cumulative is not None:
            schan = self._send.get(src)
            if schan is not None:
                # Sequence numbers are handed out in order and acks are
                # cumulative, so everything acked sits at the front of the
                # (insertion-ordered) window: pop from there, stop at the
                # first survivor.
                unacked = schan.unacked
                while unacked:
                    first = next(iter(unacked))
                    if first >= cumulative:
                        break
                    del unacked[first]
                schan.retries = 0
                schan.probing = False  # the peer is reachable again
                timer = schan.timer
                if unacked:
                    # Push the deadline back: in place, not a dead entry
                    # per ack.
                    timeout = self.params.retransmit_timeout_us
                    if timer is None:
                        schan.timer = self.sim.call_after(
                            timeout, self._retransmit, src)
                    else:
                        schan.timer = self.sim.rearm(
                            timer, timeout, self._retransmit, src)
                elif timer is not None:
                    timer.cancelled = True
                    schan.timer = None
        if kind == ACK_KIND:
            return
        seq = msg.seq
        chan = self._recv.get(src)
        if chan is None:
            chan = self._recv[src] = _RecvChannel()
        if seq is None:
            self.deliver(msg)
            return
        if seq == chan.expected and not chan.buffer:
            # In order, nothing waiting behind a gap: straight through.
            chan.expected = seq + 1
            self.deliver(msg)
        elif seq >= chan.expected and seq not in chan.buffer:
            chan.buffer[seq] = msg
            while chan.expected in chan.buffer:
                ready = chan.buffer.pop(chan.expected)
                chan.expected += 1
                self.deliver(ready)
        # Anything else is a duplicate (the original ack was lost or the
        # injector duplicated): re-ack so the sender can advance.
        timer = chan.ack_timer
        if timer is None:
            chan.ack_timer = self.sim.call_after(_ACK_DELAY_US,
                                                 self._flush_ack, src)
        elif timer.cancelled:
            chan.ack_timer = self.sim.rearm(timer, _ACK_DELAY_US,
                                            self._flush_ack, src)

    def _flush_ack(self, src: NodeId) -> None:
        chan = self._recv.get(src)
        if chan is None or self.stopped:
            return
        chan.ack_timer = None
        self._c_acks_sent.inc()
        ack = Message(self.node_id, src, ACK_KIND, chan.expected, _ACK_SIZE)
        ack.inc = self.incarnation
        ack.dst_inc = self.peer_incarnations.get(src, 0)
        self.network.send(ack)

    # ----------------------------------------------------------- lifecycle

    def on_peer_removed(self, peer: NodeId) -> None:
        """Membership removed ``peer``: only now is it safe to discard the
        channel (the peer is crash-stop gone, never coming back)."""
        chan = self._send.pop(peer, None)
        if chan is not None:
            if chan.timer is not None:
                chan.timer.cancel()
            if chan.unacked:
                self._c_resets.inc()
            chan.unacked.clear()
        rchan = self._recv.pop(peer, None)
        if rchan is not None and rchan.ack_timer is not None:
            rchan.ack_timer.cancel()

    def on_peer_added(self, peer: NodeId) -> None:
        """Membership re-admitted ``peer`` under a fresh incarnation: any
        channel state we still hold targets its dead predecessor (stale
        sequence numbers, unacked traffic it will never ack), so discard it
        and let both directions restart from seq 0."""
        self.on_peer_removed(peer)

    def restart(self) -> None:
        """Rejoin after a crash-stop: all channels restart from scratch.

        :meth:`stop` already cancelled timers and dropped buffers; here we
        also forget the channel objects themselves so sequence numbers
        restart at 0 — peers symmetrically reset via :meth:`on_peer_added`
        when the new incarnation is admitted."""
        self._send.clear()
        self._recv.clear()
        self.stopped = False

    def stop(self) -> None:
        """Crash-stop: cancel all timers, drop all state."""
        self.stopped = True
        for chan in self._send.values():
            if chan.timer is not None:
                chan.timer.cancel()
                chan.timer = None
            chan.unacked.clear()
        for rchan in self._recv.values():
            if rchan.ack_timer is not None:
                rchan.ack_timer.cancel()
                rchan.ack_timer = None

    def unacked_count(self) -> int:
        return sum(len(c.unacked) for c in self._send.values())
