"""Applies a :class:`FaultSchedule` to a live :class:`ZeusCluster`.

Every event is one call of a cluster fault verb (``crash``, ``recover``,
``partition``, ``slow``, ``fault_window``, ``power_loss``, ``add_nodes``,
``drain``) with the event's ``at=``: the verb records the fault in
``cluster.failures``, counts it and emits its ``chaos.*`` trace point when
it fires.  Everything is scheduled on the simulator clock before the run
starts, so the fault timeline is part of the run's deterministic event
order.
"""

from __future__ import annotations

from ..harness.zeus_cluster import ZeusCluster
from .schedule import FaultSchedule

__all__ = ["ChaosEngine"]


class ChaosEngine:
    """Schedules one fault timeline onto one cluster (install once)."""

    def __init__(self, cluster: ZeusCluster):
        self.cluster = cluster
        self._installed = False
        registry = cluster.obs.registry
        self._c_events = registry.counter("chaos.events_scheduled")
        # Bumped by ``cluster.fault_window``; a chaos run's dump lists it at 0.
        registry.counter("chaos.fault_windows")

    def install(self, schedule: FaultSchedule) -> None:
        """Validate ``schedule`` against the cluster and schedule it all."""
        if self._installed:
            raise RuntimeError("a schedule is already installed")
        self._installed = True
        schedule.validate(num_nodes=len(self.cluster.nodes))
        for ev in schedule:
            self._c_events.inc()
            ev.inject(self.cluster)
