"""Wire messages.

A :class:`Message` is deliberately generic: a ``kind`` string routes it to a
handler on the destination node and ``payload`` carries a protocol-specific
object.  ``size_bytes`` is the *application* payload size; the network adds
header bytes on the wire.  Protocols compute sizes from their own payload
classes so bandwidth accounting (Section 8.2's "less network bandwidth"
claim) is meaningful.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Message", "NodeId"]

#: Nodes are identified by small integers throughout the system.
NodeId = int


class Message:
    """A single message on the simulated network."""

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "seq", "ack",
                 "inc", "dst_inc", "epoch", "trace_id", "parent_span", "flow_id")

    def __init__(self, src: NodeId, dst: NodeId, kind: str, payload: Any, size_bytes: int):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        #: Reliable-layer sequence number (None for raw/ack traffic).
        self.seq = None
        #: Piggybacked cumulative ack for the reverse channel (or None).
        self.ack = None
        #: Sender incarnation number: bumped each restart so receivers can
        #: fence in-flight "zombie" traffic from a pre-crash incarnation.
        self.inc = 1
        #: The *destination* incarnation the sender believed at send time
        #: (0 = no claim).  A receiver that restarted since then drops the
        #: message: it was addressed to its dead predecessor.  Retransmits
        #: re-send the stored message, so the stamp ages with the intent.
        self.dst_inc = 0
        #: The sender's membership epoch at send time (0 on a transport
        #: ack); retransmits keep it.  No payload carries an epoch: the
        #: handlers that fence compare this one with their node's.
        self.epoch = 0
        #: Trace context (set only when tracing): the trace this message
        #: belongs to and the span that caused the send, so the receiver's
        #: handler span can link back across the wire.
        self.trace_id = None
        self.parent_span = None
        #: Per-message flow id (unique per traced send, shared by
        #: retransmits of the same message) — pairs ``net.send`` with
        #: ``net.deliver`` for wire-time and retransmit-stall attribution.
        self.flow_id = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.src}->{self.dst} {self.kind} seq={self.seq} "
            f"{self.size_bytes}B)"
        )
