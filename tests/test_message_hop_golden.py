"""Golden message hop: send -> wire -> reliable receive -> dispatch -> handler.

A fixed 3-node exchange over a lossy, duplicating, reordering network must
reproduce, event for event, what the commit *before* the message fast lane
produced: every handler's (time, node, src, kind, payload), every ``net.*``
counter, the event count and the final clock — with the tracer off (the
straight-through path) and on (the span/instant path), which must agree.  The golden file was
recorded from that parent commit with::

    PYTHONPATH=src python tests/test_message_hop_golden.py --record

and must only ever be re-recorded by a change that means to alter the model.
(One edit since: when the reliable transport began re-arming its timers in
place, ``cancelled`` fell 256 -> 149 — a moved timer entry pops neither
executed nor cancelled; no other field moved.)
"""

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.cluster.node import Node
from repro.net.fault import FaultInjector
from repro.net.network import Network
from repro.obs import Observability, Tracer
from repro.sim.kernel import Simulator
from repro.sim.params import FaultParams, SimParams

GOLDEN = Path(__file__).with_name("golden_message_hop.json")
ROUNDS = 40


def exchange(traced: bool) -> dict:
    """Run the exchange; returns the JSON-able record compared to the golden."""
    sim = Simulator()
    tracer = Tracer(sim) if traced else None
    obs = Observability(tracer=tracer)
    faults = FaultInjector(
        FaultParams(loss_prob=0.08, duplicate_prob=0.08, reorder_max_us=12.0),
        rng=random.Random(7), registry=obs.registry)
    params = SimParams().scaled_threads(app=1, worker=2)
    net = Network(sim, params.net, faults, jitter_rng=random.Random(3), obs=obs)
    nodes = [Node(sim, i, params, net) for i in range(3)]
    log = []

    def handler(node):
        def on_msg(msg):
            log.append(f"{sim.now!r} n{node.node_id}<-n{msg.src} {msg.kind} "
                       f"{msg.payload}")
            if msg.kind == "hop.ping":
                # Reply over the wire, and note it to ourselves (loopback).
                node.send(msg.src, "hop.pong", msg.payload, 48)
                node.send(node.node_id, "hop.note", msg.payload, 8)
            elif msg.kind == "hop.pong" and msg.payload < ROUNDS:
                peer = (node.node_id + 1 + msg.payload % 2) % 3
                node.send(peer, "hop.ping", msg.payload + 3, 64 + msg.payload)
        return on_msg

    for node in nodes:
        on_msg = handler(node)
        node.register_handler("hop.ping", on_msg, cost=0.2)
        node.register_handler("hop.pong", on_msg,
                              cost=lambda payload: 0.01 * payload)
        node.register_handler("hop.note", on_msg)
    # Three interleaved ping-pong chains, one started inside a trace.
    for start, node in enumerate(nodes):
        ctx = (tracer.new_trace(), None) if traced and start == 0 else None
        for burst in range(2):
            node.send((start + 1) % 3, "hop.ping", start + 3 * burst, 64,
                      ctx=ctx)
    sim.run()

    counters = obs.registry.snapshot()["counters"]
    record = {
        "log": log,
        "counters": {key: value for key, value in sorted(counters.items())
                     if key.startswith(("net.", "faults."))},
        "events": sim.events_executed,
        "heap_pushes": sim.heap_pushes,
        "cancelled": sim.cancelled_skipped,
        "end": repr(sim.now),
        "total_msgs": net.total_msgs,
        "total_bytes": net.total_bytes,
        "busy": [repr(node.pool.busy_time) for node in nodes],
    }
    if traced:
        record["spans"] = dict(sorted(Counter(
            span.name for span in tracer.spans).items()))
        record["instants"] = dict(sorted(Counter(
            inst.name for inst in tracer.instants).items()))
    return record


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_message_hop_matches_parent_golden(traced):
    want = json.loads(GOLDEN.read_text())
    # The golden itself shows the faults fired, so every receive path ran.
    for fate in ("net.dropped", "net.duplicated", "net.delayed"):
        assert want["exchange"]["counters"][fate] > 0
    assert sum(value for key, value in want["exchange"]["counters"].items()
               if key.startswith("net.retransmits")) > 0
    record = exchange(traced)
    if traced:
        # The tracer sees the hop but may never move it: same exchange.
        assert record.pop("spans") == want["spans"]
        assert record.pop("instants") == want["instants"]
    for key, value in want["exchange"].items():
        assert record[key] == value, key
    assert record.keys() == want["exchange"].keys()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_message_hop_golden.py --record")
    traced = exchange(True)
    golden = {"spans": traced.pop("spans"), "instants": traced.pop("instants"),
              "exchange": exchange(False)}
    assert traced == golden["exchange"], "tracer moved the exchange"
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
