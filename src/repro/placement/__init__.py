"""Locality-aware placement: adaptive replica provision over telemetry.

Zeus reacts to access locality one request at a time — ownership moves to
whoever writes.  The Lion line of work goes further: continuously learn
the access graph and adapt per-object *placement* and *replication
degree* to minimize distributed transactions.  This package closes the
loop PR 9 opened: the :class:`~repro.obs.locality.LocalityRecorder`'s
report is the input, and the :class:`PlacementController` (a background
control loop like the rebalancer) turns it into three actuations through
existing protocol primitives — proactive ownership migration, per-object
replication-degree adaptation, and LB re-pins.

* :mod:`.policy` — :class:`PlacementPolicy`, a *pure* decision function
  ``(snapshot, view, now) -> actuations`` with hysteresis (payback
  thresholds, re-migration cooldowns, the ping-pong guard).
* :mod:`.controller` — :class:`PlacementController`, the background sim
  process that snapshots telemetry, applies the policy, executes the
  actuations, and keeps a deterministic decision log.
* :mod:`.differential` — the static-vs-adaptive differential harness
  behind ``repro place``: same-seed paired runs per workload with audit
  gating.
"""

from .controller import PlacementController
from .differential import DIFF_WORKLOADS, DiffOutcome, run_pair
from .policy import PlacementPolicy

__all__ = ["PlacementPolicy", "PlacementController", "DIFF_WORKLOADS",
           "DiffOutcome", "run_pair"]
