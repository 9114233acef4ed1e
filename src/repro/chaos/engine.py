"""Applies a :class:`FaultSchedule` to a live :class:`ZeusCluster`.

Crashes, partitions and slowdowns route through the cluster's
:class:`~repro.cluster.failure.FailureInjector` (which records them and
emits ``chaos.*`` tracer instants); fault windows swap the network
injector's :class:`FaultParams` in and out at the window edges, restoring
the baseline captured at install time.  Everything is scheduled on the
simulator clock before the run starts, so the fault timeline is part of
the run's deterministic event order.
"""

from __future__ import annotations

from ..harness.zeus_cluster import ZeusCluster
from ..obs import TID_NET
from ..sim.params import FaultParams
from .schedule import (
    AddNodesEvent,
    ClusterRestartEvent,
    CrashEvent,
    DrainEvent,
    FaultSchedule,
    FaultWindowEvent,
    PartitionEvent,
    RecoverEvent,
    SlowdownEvent,
)

__all__ = ["ChaosEngine"]


class ChaosEngine:
    """Schedules one fault timeline onto one cluster (install once)."""

    def __init__(self, cluster: ZeusCluster):
        self.cluster = cluster
        self.obs = cluster.obs
        self._baseline: FaultParams = cluster.faults.params
        self._installed = False
        registry = self.obs.registry
        self._c_events = registry.counter("chaos.events_scheduled")
        self._c_windows = registry.counter("chaos.fault_windows")

    def install(self, schedule: FaultSchedule) -> None:
        """Validate ``schedule`` against the cluster and schedule it all."""
        if self._installed:
            raise RuntimeError("a schedule is already installed")
        self._installed = True
        cluster = self.cluster
        schedule.validate(num_nodes=len(cluster.nodes))
        failures = cluster.failures
        for ev in schedule:
            self._c_events.inc()
            if isinstance(ev, CrashEvent):
                # By id, resolved when it fires: an elastic schedule may
                # crash a node an earlier AddNodesEvent has yet to create.
                cluster.sim.call_at(ev.at_us, cluster.crash, ev.node)
            elif isinstance(ev, RecoverEvent):
                cluster.sim.call_at(ev.at_us, cluster.recover, ev.node)
            elif isinstance(ev, PartitionEvent):
                failures.partition_at(ev.a_side, ev.b_side, ev.at_us,
                                      ev.heal_at_us)
            elif isinstance(ev, SlowdownEvent):
                failures.slow_at(cluster.nodes[ev.node], ev.factor,
                                 ev.at_us, ev.end_us)
            elif isinstance(ev, FaultWindowEvent):
                self._c_windows.inc()
                cluster.sim.call_at(ev.at_us, self._open_window, ev.params)
                cluster.sim.call_at(ev.end_us, self._close_window)
            elif isinstance(ev, ClusterRestartEvent):
                # Likewise: after an elastic scale-out the node list at
                # power-loss time is longer than at install time.
                cluster.sim.call_at(ev.at_us, cluster.power_loss)
                cluster.sim.call_at(ev.at_us + ev.outage_us,
                                    cluster.cold_restart)
            elif isinstance(ev, AddNodesEvent):
                cluster.sim.call_at(ev.at_us, cluster.add_nodes, ev.count)
            elif isinstance(ev, DrainEvent):
                cluster.drain(ev.node, at=ev.at_us)

    # -------------------------------------------------------- fault windows

    def _open_window(self, params: FaultParams) -> None:
        self.cluster.faults.params = params
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.fault_window_open", "chaos", False,
                         loss=float, dup=float, reorder=float)(
                0, TID_NET, None, params.loss_prob, params.duplicate_prob,
                params.reorder_max_us)

    def _close_window(self) -> None:
        self.cluster.faults.params = self._baseline
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.point("chaos.fault_window_close", "chaos", False)(
                0, TID_NET, None)
