"""The paper's model-checked invariants, evaluated over a live cluster.

Section 8 lists the key invariants verified in TLA+:

* live nodes in ``t_state=Valid`` always have consistent data;
* all live arbiters in ``o_state=Valid`` agree and correctly reflect the
  owner and reader nodes of the object;
* at any time there is at most one owner, and that owner stores the most
  up-to-date value of the object.

These checkers evaluate the same properties over a running
:class:`~repro.harness.zeus_cluster.ZeusCluster` — at any instant for the
state-machine invariants, at quiescence for convergence — or anything
shaped like one (``.catalog``, and ``.handles`` with ``node.alive``,
``store``, ``directory``, ``ownership``, ``commit``).  The randomized
sweep (:func:`repro.chaos.campaign.explore`) calls them every 200 us of
every cell, the exhaustive explorer (:mod:`repro.verify.exhaustive`) in
every reachable state of the real managers on small scenarios.
"""

from __future__ import annotations

from typing import List, Optional

from ..harness.zeus_cluster import ZeusCluster
from ..store.meta import OState, TState

__all__ = ["check_invariants", "InvariantViolation", "check_quiescent",
           "quiescence_problems"]


class InvariantViolation(AssertionError):
    """An invariant failed; the message carries the evidence."""


def _live_handles(cluster: ZeusCluster):
    return [h for h in cluster.handles if h.node.alive]


def check_single_owner(cluster: ZeusCluster) -> None:
    """≤1 owner per object among live nodes' *validated* views."""
    for oid in range(cluster.catalog.num_objects):
        owners = []
        for h in _live_handles(cluster):
            obj = h.store.get(oid)
            if (obj is not None and obj.o_state == OState.VALID
                    and obj.o_replicas is not None
                    and obj.o_replicas.owner == h.node_id):
                owners.append(h.node_id)
        if len(owners) > 1:
            raise InvariantViolation(
                f"object {oid} has multiple owners: {owners}")


def check_valid_consistency(cluster: ZeusCluster) -> None:
    """All live replicas of an object in t_state=Valid hold the same
    version -> same data (invalidation-based commit's core guarantee)."""
    for oid in range(cluster.catalog.num_objects):
        seen = {}
        for h in _live_handles(cluster):
            obj = h.store.get(oid)
            if obj is None or obj.t_state != TState.VALID:
                continue
            if obj.t_version in seen and seen[obj.t_version] != obj.t_data:
                raise InvariantViolation(
                    f"object {oid} v{obj.t_version}: divergent data "
                    f"{seen[obj.t_version]!r} vs {obj.t_data!r} at node {h.node_id}")
            seen[obj.t_version] = obj.t_data


def check_owner_freshness(cluster: ZeusCluster) -> None:
    """The owner's version is >= every Valid replica's version."""
    for oid in range(cluster.catalog.num_objects):
        owner_version: Optional[int] = None
        max_valid = -1
        for h in _live_handles(cluster):
            obj = h.store.get(oid)
            if obj is None:
                continue
            if (obj.o_replicas is not None and obj.o_replicas.owner == h.node_id
                    and obj.o_state == OState.VALID):
                owner_version = obj.t_version
            if obj.t_state == TState.VALID:
                max_valid = max(max_valid, obj.t_version)
        if owner_version is not None and owner_version < max_valid:
            raise InvariantViolation(
                f"object {oid}: owner at v{owner_version} behind a Valid "
                f"replica at v{max_valid}")


def check_directory_agreement(cluster: ZeusCluster,
                              require_valid: bool = True) -> None:
    """Live directory nodes whose entry is Valid agree on the replica set
    (the paper's arbiter-agreement invariant)."""
    dir_handles = [h for h in _live_handles(cluster) if h.directory is not None]
    for oid in range(cluster.catalog.num_objects):
        views = []
        for h in dir_handles:
            entry = h.directory.get(oid)
            if entry is None:
                continue
            if require_valid and entry.o_state != OState.VALID:
                continue
            views.append((h.node_id, entry.o_ts, entry.replicas))
        if len(views) < 2:
            continue
        # Valid entries at the same o_ts must be identical.
        by_ts = {}
        for node_id, o_ts, replicas in views:
            if o_ts in by_ts and by_ts[o_ts][1] != replicas:
                raise InvariantViolation(
                    f"object {oid}: directory disagreement at {o_ts}: "
                    f"node {by_ts[o_ts][0]} says {by_ts[o_ts][1]}, "
                    f"node {node_id} says {replicas}")
            by_ts[o_ts] = (node_id, replicas)


def check_invariants(cluster: ZeusCluster) -> None:
    """All any-time invariants (safe to call at any simulated instant)."""
    check_single_owner(cluster)
    check_valid_consistency(cluster)
    check_owner_freshness(cluster)
    check_directory_agreement(cluster)


def check_quiescent(cluster: ZeusCluster) -> List[str]:
    """Convergence checks once the event heap has drained: everything
    Valid, directories fully agreed, no pending arbitration or commits.

    Returns a list of problems (empty = fully converged); raising is left
    to the caller because some experiments legitimately end non-quiescent.
    """
    problems = quiescence_problems(cluster)
    check_invariants(cluster)
    return problems


def quiescence_problems(cluster: ZeusCluster) -> List[str]:
    """The :func:`check_quiescent` problem list without the (raising)
    invariant checks — chaos audits evaluate liveness and safety
    separately."""
    problems: List[str] = []
    for h in _live_handles(cluster):
        if h.ownership._pending_arb:
            problems.append(
                f"node {h.node_id}: pending arbitrations "
                f"{sorted(h.ownership._pending_arb)}")
        for pipe_key, fpipe in h.commit._follow.items():
            if fpipe.applied:
                problems.append(
                    f"node {h.node_id}: unvalidated commits from {pipe_key}")
        for thread, pipe in h.commit._coord.items():
            if pipe.slots:
                problems.append(
                    f"node {h.node_id}: coordinator slots pending on thread {thread}")
        for obj in h.store:
            if obj.t_state != TState.VALID:
                problems.append(
                    f"node {h.node_id}: object {obj.oid} stuck {obj.t_state.name}")
                break
    return problems
