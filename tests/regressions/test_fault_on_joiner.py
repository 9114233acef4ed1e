"""A scheduled fault aimed at a node that an earlier ``AddNodesEvent``
creates.

``FaultSchedule.validate`` walks the timeline with a running node count, so
it accepts a slowdown of node 4 once a 4-node cluster has grown by one.
The engine used to look the node up when the schedule was installed —
before the joiner existed — and raised ``IndexError``.  A cluster fault
verb resolves its node id when it fires.
"""

from repro.chaos import (AddNodesEvent, ChaosEngine, FaultSchedule,
                         SlowdownEvent)
from repro.harness.rig import Rig, counter_catalog


def test_slowdown_of_a_joiner_fires_once_it_has_joined():
    cluster = Rig(counter_catalog(4, 8), seed=0).cluster
    ChaosEngine(cluster).install(FaultSchedule([
        AddNodesEvent(1_000.0, 1),
        SlowdownEvent(3_000.0, node=4, factor=3.0, end_us=6_000.0),
    ]))
    cluster.start_membership()
    factor_at_4ms = []
    cluster.sim.call_at(
        4_000.0, lambda: factor_at_4ms.append(cluster.nodes[4].slowdown))
    cluster.run(until=8_000.0)
    assert factor_at_4ms == [3.0]
    assert cluster.failures.slowdowns == [(3000.0, 4, 3.0), (6000.0, 4, 1.0)]
