"""Post-run invariant audits: the one judge of every audited run.

Every cell of ``repro.chaos.campaign.run_cell`` — campaign, randomized
sweep or shrinker re-run — and every other rig consumer ends in
:func:`audit_run`.  After a run drains, six independent audits decide
whether the history was correct *and* the system recovered:

1. **safety** — the paper's state invariants (single owner, valid-replica
   consistency, owner freshness, directory agreement), via the existing
   :mod:`repro.verify.invariants` checkers;
2. **exactly-once** — committed counter increments are applied exactly
   once: with no crash, every object's final value equals the number of
   committed increments the driver recorded for it (a lost application
   shows up as a deficit, a duplicated one as an excess); with a crash,
   commits recorded by *surviving* coordinators are a hard lower bound
   (replication degree ≥ 2 keeps them reachable), while the crashed node's
   own last in-flight pipeline slots may be lost before any follower
   applied them — the paper's stated semantics for coordinator failure;
3. **epoch** — every live node agrees with the membership service on the
   current epoch and live set, and directory replicas agree;
4. **liveness** — nothing is wedged at quiesce: no reliable channel from a
   live node to a live peer still holds unacked messages, no coordinator
   pipeline slot is pending, no applied-but-unvalidated follower state
   remains, no object is stuck in a non-Valid t_state.  (A pending
   arbitration whose requester gave up and aborted is tolerated — the
   transaction itself is not stuck.  :func:`audit_liveness` is the only
   place that decides which quiescence findings a drained cell may keep.)
5. **rejoin** — every node that crashed *and recovered* within the run is
   equivalent to the live replicas at quiesce: each object it stores
   carries the freshest (version, value) any live replica holds, every
   directory entry listing it as a replica is backed by an actual stored
   object, and (if it hosts a directory shard) that shard is complete;
6. **degree** — when every crashed node recovered, no replica set is left
   degraded: each object's replication factor is back to
   ``min(replication_degree, |live|)``.

A seventh, opt-in audit — **history** — checks the run's client-observable
transaction history for strict serializability via
:mod:`repro.verify.history` (enable with ``repro chaos --check-history``).

An eighth — **durability** — runs when the cluster suffered a full power
loss: every op whose WAL COMMIT record was fsynced (``persisted_at`` set)
must have each of its writes reflected at the surviving replicas at no
lower a version — the *no-lost-durable-commit* guarantee the durable
storage tier makes.  Non-persisted commits may legitimately vanish in a
full power loss (they were only replication-durable) and are downgraded
to indeterminate by the history recorder, so the strict-serializability
check treats them as maybe-committed across the restart.

A ninth — **reconfig** — runs when the run reconfigured membership (a
live scale-out or a graceful drain): every retired node must be out of
the installed view, dead, and absent from every replica set; every added
node that was not deliberately taken down again must be a live,
first-class member; and once the rebalancer reported convergence *after*
the last disturbance, the owned-object spread across members must be at
most one.  Drains are additionally held to a stricter exactly-once
standard than crash-stops: a *graceful* removal may not lose a single
recorded commit, so drained coordinators keep counting toward the strict
equality check rather than the crashed-coordinator slack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..harness.zeus_cluster import ZeusCluster
from .history import check_history
from .invariants import check_invariants, quiescence_problems

__all__ = ["CommitLedger", "AuditReport", "audit_run",
           "audit_safety", "audit_exactly_once", "audit_epochs",
           "audit_liveness", "audit_rejoin", "audit_degree",
           "audit_history", "audit_durability", "audit_reconfig"]


class CommitLedger:
    """Driver-side record of committed increments, per coordinator node.

    The workload records every commit it observed; the exactly-once audit
    compares the record against the final datastore state.
    """

    __slots__ = ("by_node",)

    def __init__(self) -> None:
        #: coordinator node -> oid -> committed increments
        self.by_node: Dict[int, Dict[int, int]] = {}

    def record(self, node_id: int, write_set: Sequence[int]) -> None:
        per = self.by_node.setdefault(node_id, {})
        for oid in write_set:
            per[oid] = per.get(oid, 0) + 1

    def total(self, oid: int) -> int:
        return sum(per.get(oid, 0) for per in self.by_node.values())

    def total_from(self, oid: int, nodes) -> int:
        return sum(per.get(oid, 0) for nid, per in self.by_node.items()
                   if nid in nodes)

    @property
    def committed(self) -> int:
        return sum(sum(per.values()) for per in self.by_node.values())


class AuditReport:
    """Outcome of all audits for one run."""

    __slots__ = ("safety", "exactly_once", "epoch", "liveness", "rejoin",
                 "degree", "history", "durability", "reconfig")

    _NAMES = ("safety", "exactly_once", "epoch", "liveness", "rejoin",
              "degree", "history", "durability", "reconfig")

    def __init__(self, safety: List[str], exactly_once: List[str],
                 epoch: List[str], liveness: List[str],
                 rejoin: Optional[List[str]] = None,
                 degree: Optional[List[str]] = None,
                 history: Optional[List[str]] = None,
                 durability: Optional[List[str]] = None,
                 reconfig: Optional[List[str]] = None):
        self.safety = safety
        self.exactly_once = exactly_once
        self.epoch = epoch
        self.liveness = liveness
        self.rejoin = rejoin if rejoin is not None else []
        self.degree = degree if degree is not None else []
        self.history = history if history is not None else []
        self.durability = durability if durability is not None else []
        self.reconfig = reconfig if reconfig is not None else []

    @property
    def ok(self) -> bool:
        return not any(getattr(self, name) for name in self._NAMES)

    def problems(self) -> List[Tuple[str, str]]:
        out: List[Tuple[str, str]] = []
        for name in self._NAMES:
            out.extend((name, p) for p in getattr(self, name))
        return out

    def __repr__(self) -> str:  # pragma: no cover
        status = "OK" if self.ok else f"{len(self.problems())} problems"
        return f"AuditReport({status})"


def _final_value(cluster: ZeusCluster, oid: int):
    """The freshest value any live replica holds for ``oid``."""
    best_version, best_value = -1, None
    for h in cluster.handles:
        if not h.node.alive:
            continue
        obj = h.store.get(oid)
        if obj is not None and obj.t_version > best_version:
            best_version, best_value = obj.t_version, obj.t_data
    return best_value


def audit_safety(cluster: ZeusCluster) -> List[str]:
    try:
        check_invariants(cluster)
    except AssertionError as err:
        return [str(err)]
    return []


def audit_exactly_once(cluster: ZeusCluster, ledger: CommitLedger,
                       initial_value: int = 0) -> List[str]:
    problems: List[str] = []
    crashed = {nid for _t, nid in cluster.failures.crashed}
    if cluster.failures.power_losses:
        # A full power loss may lose any non-persisted commit from *any*
        # coordinator; the per-op guarantee is the durability audit's job.
        crashed = {h.node_id for h in cluster.handles}
    live = {h.node_id for h in cluster.handles if h.node.alive}
    # The hard lower bound only counts coordinators that *never* crashed:
    # a recovered node is alive again, but commits it recorded just before
    # its crash may have died with its in-flight pipeline slots.  A
    # *drained* coordinator is the opposite case: the graceful removal
    # waited out its in-flight work before halting it, so its recorded
    # commits are held to the same zero-loss standard as a live node's.
    drained = {nid for _t, nid in cluster.failures.drained}
    survivors = (live | drained) - crashed
    # Unrecorded commits can only come from a crashed coordinator's app
    # threads, at most one per thread (the window between local commit and
    # the driver recording it).
    slack = len(crashed) * cluster.params.app_threads
    for oid in range(cluster.catalog.num_objects):
        value = _final_value(cluster, oid)
        if not isinstance(value, int):
            problems.append(f"object {oid}: non-counter value {value!r}")
            continue
        applied = value - initial_value
        recorded = ledger.total(oid)
        if not crashed:
            if applied != recorded:
                problems.append(
                    f"object {oid}: {recorded} committed increments but "
                    f"{applied} applied")
            continue
        floor = ledger.total_from(oid, survivors)
        if applied < floor:
            problems.append(
                f"object {oid}: {floor} increments committed by surviving "
                f"coordinators but only {applied} applied")
        elif applied > recorded + slack:
            problems.append(
                f"object {oid}: {applied} applied exceeds {recorded} "
                f"recorded + crash slack {slack} (duplicate application)")
    return problems


def audit_epochs(cluster: ZeusCluster) -> List[str]:
    problems: List[str] = []
    view = cluster.membership.view
    for h in cluster.handles:
        node = h.node
        if not node.alive:
            continue
        if node.epoch != view.epoch:
            problems.append(
                f"node {node.node_id}: epoch {node.epoch} != installed "
                f"view epoch {view.epoch}")
        if node.live_nodes != view.live:
            problems.append(
                f"node {node.node_id}: live set {sorted(node.live_nodes)} "
                f"!= view {sorted(view.live)}")
    # A cold restart revives every node, including earlier crash victims.
    restarts = cluster.failures.cold_restarts
    crashed = {nid for t, nid in cluster.failures.crashed
               if not any(r >= t for r in restarts)}
    recovered = {nid for _t, nid in cluster.failures.recovered}
    stale = (crashed - recovered) & set(view.live)
    if stale:
        problems.append(
            f"crashed nodes {sorted(stale)} still in the installed view "
            f"(epoch {view.epoch})")
    return problems


def audit_liveness(cluster: ZeusCluster) -> List[str]:
    problems: List[str] = []
    alive = {h.node_id for h in cluster.handles if h.node.alive}
    for h in cluster.handles:
        if h.node_id not in alive:
            continue
        transport = h.node.transport
        for peer, chan in transport._send.items():
            if chan.unacked and peer in alive:
                problems.append(
                    f"node {h.node_id}: {len(chan.unacked)} unacked "
                    f"messages stuck toward live peer {peer}")
    for p in quiescence_problems(cluster):
        # A lingering arbitration whose requester aborted is not a stuck
        # transaction; everything else is a wedged protocol state.
        if "pending arbitrations" not in p:
            problems.append(p)
    return problems


def audit_rejoin(cluster: ZeusCluster) -> List[str]:
    """Recovered nodes must be full, up-to-date replicas at quiesce."""
    problems: List[str] = []
    recovered = {nid for _t, nid in cluster.failures.recovered}
    view = cluster.membership.view
    catalog = cluster.catalog
    for nid in sorted(recovered):
        h = cluster.handles[nid]
        if not h.node.alive or nid not in view.live:
            continue  # evicted again after rejoining: nothing to audit
        # 1. Every object the rejoiner stores is byte-equivalent to the
        #    freshest live replica (stale value = catch-up failed).
        for obj in h.store:
            best_version, best_value = obj.t_version, obj.t_data
            for other in cluster.handles:
                if other.node_id == nid or not other.node.alive:
                    continue
                peer = other.store.get(obj.oid)
                if peer is not None and peer.t_version > best_version:
                    best_version, best_value = peer.t_version, peer.t_data
            if (obj.t_version, obj.t_data) != (best_version, best_value):
                problems.append(
                    f"rejoined node {nid}, object {obj.oid}: holds "
                    f"v{obj.t_version}={obj.t_data!r} but a live replica "
                    f"holds v{best_version}={best_value!r}")
        # 2. Directory entries naming the rejoiner must be backed by a
        #    stored object, and its own directory shard must be complete.
        for oid in range(catalog.num_objects):
            replicas = cluster.replicas_of(oid)
            if (replicas is not None and nid in replicas.all_nodes()
                    and not h.store.has(oid)):
                problems.append(
                    f"rejoined node {nid} is in object {oid}'s replica set "
                    f"but stores no copy")
            if (h.directory is not None
                    and nid in catalog.directory_nodes_for(oid)
                    and h.directory.get(oid) is None):
                problems.append(
                    f"rejoined directory host {nid} has no entry for "
                    f"object {oid} (state transfer incomplete)")
    return problems


def audit_degree(cluster: ZeusCluster) -> List[str]:
    """With every crashed node recovered, replication degree is restored."""
    crashed = {nid for _t, nid in cluster.failures.crashed}
    recovered = {nid for _t, nid in cluster.failures.recovered}
    if crashed != recovered:
        return []  # permanently dead nodes: degraded sets are expected
    view = cluster.membership.view
    if not recovered <= set(view.live):
        return []  # a rejoiner was evicted again (late partition etc.)
    target = min(cluster.catalog.replication_degree, len(view.live))
    problems: List[str] = []
    for oid in range(cluster.catalog.num_objects):
        replicas = cluster.replicas_of(oid)
        if replicas is None:
            problems.append(f"object {oid}: no directory entry survives")
        elif replicas.size() < target:
            problems.append(
                f"object {oid}: replication degree {replicas.size()} < "
                f"target {target} ({replicas})")
    return problems


def audit_durability(cluster: ZeusCluster, history) -> List[str]:
    """No lost durable commits across a full-cluster power loss.

    Every history op whose WAL COMMIT record was fsynced before the
    lights went out (``persisted_at`` set) must have each of its writes
    reflected at the surviving replicas at a version no lower than the
    one it installed — cold-start replay plus tail reconcile are held to
    exactly what the disk promised.  A higher surviving version is fine:
    the write took effect and was later overwritten."""
    if not cluster.failures.power_losses or history is None:
        return []
    ops = getattr(history, "ops", history)
    best: Dict[int, int] = {}
    for h in cluster.handles:
        if not h.node.alive:
            continue
        for obj in h.store:
            if obj.t_version > best.get(obj.oid, -1):
                best[obj.oid] = obj.t_version
    problems: List[str] = []
    for op in ops:
        if not getattr(op, "persisted", False):
            continue
        for oid, version, _at in op.writes:
            if best.get(oid, -1) < version:
                problems.append(
                    f"op #{op.op_id} (node {op.node}): durable write "
                    f"{oid}@v{version} lost — freshest surviving version "
                    f"is v{best.get(oid, -1)}")
    return problems


def audit_reconfig(cluster: ZeusCluster) -> List[str]:
    """Post-reconfiguration placement: retired nodes hold no duties,
    joiners are first-class members, and ownership ends up balanced.

    Runs only when the cluster was reconfigured (an :class:`AddNodesEvent`
    scale-out or a graceful drain).  The balance clause applies only when
    the rebalancer reported convergence *after* the last disturbance — a
    run whose tail fault outlived the rebalance is audited for safety by
    the other eight, not for a balance nobody re-established."""
    failures = cluster.failures
    drained = {nid for _t, nid in failures.drained}
    added = {nid for _t, nid in failures.added}
    if not drained and not added:
        return []
    problems: List[str] = []
    view = cluster.membership.view
    catalog = cluster.catalog

    # 1. Retired nodes are gone for good: out of the view, halted, and in
    #    no surviving replica set.
    for nid in sorted(drained):
        if nid in view.live:
            problems.append(
                f"drained node {nid} still in the installed view "
                f"(epoch {view.epoch})")
        if cluster.nodes[nid].alive:
            problems.append(f"drained node {nid} still alive at quiesce")
    for oid in range(catalog.num_objects):
        replicas = cluster.replicas_of(oid)
        if replicas is None:
            continue  # the degree audit reports missing entries
        holders = set(replicas.all_nodes()) & drained
        if holders:
            problems.append(
                f"object {oid}: retired node(s) {sorted(holders)} still "
                f"in replica set {replicas}")

    # 2. Every added node that was not deliberately taken down again
    #    (drained, or crashed without recovery or a reviving cold restart)
    #    is a live first-class member of the installed view.
    restarts = failures.cold_restarts
    crashed_final = {nid for t, nid in failures.crashed
                     if not any(r >= t for r in restarts)}
    recovered = {nid for _t, nid in failures.recovered}
    dead_ok = (crashed_final - recovered) | drained
    for nid in sorted(added - dead_ok):
        if nid >= len(cluster.handles):
            problems.append(f"added node {nid} was never constructed")
        elif not cluster.nodes[nid].alive:
            problems.append(f"added node {nid} not alive at quiesce")
        elif nid not in view.live:
            problems.append(
                f"added node {nid} missing from the installed view "
                f"(epoch {view.epoch})")

    # 3. Balance: once the rebalancer settled after the final disturbance,
    #    owned-object counts across live members may differ by at most 1.
    disturbances = ([t for t, _n in failures.crashed]
                    + [t for t, _n in failures.recovered]
                    + [t for t, _n in failures.added]
                    + [t for t, _n in failures.drained]
                    + list(failures.power_losses)
                    + list(failures.cold_restarts))
    converged_at = cluster.last_converge_at
    if converged_at is None:
        problems.append(
            "membership was reconfigured but the rebalancer never "
            "reported convergence")
    elif converged_at > max(disturbances):
        owned = {nid: 0 for nid in view.live
                 if nid < len(cluster.handles) and cluster.nodes[nid].alive}
        for oid in range(catalog.num_objects):
            replicas = cluster.replicas_of(oid)
            if replicas is not None and replicas.owner in owned:
                owned[replicas.owner] += 1
        if owned:
            spread = max(owned.values()) - min(owned.values())
            if spread > 1:
                problems.append(
                    f"ownership imbalance after convergence: {owned} "
                    f"(spread {spread} > 1)")
    return problems


def audit_history(history) -> List[str]:
    """Strict-serializability check over a recorded history.

    ``history`` is a :class:`~repro.obs.history.HistoryRecorder` (or op
    sequence); returns one problem line per violation.
    """
    check = check_history(history)
    return [v.describe() for v in check.violations]


def audit_run(cluster: ZeusCluster, ledger: CommitLedger,
              initial_value: int = 0, history=None) -> AuditReport:
    """Run all audits against a drained cluster.

    When ``history`` (a recorder or op list) is provided, the run's
    client-observable history is additionally checked for strict
    serializability.
    """
    return AuditReport(
        safety=audit_safety(cluster),
        exactly_once=audit_exactly_once(cluster, ledger, initial_value),
        epoch=audit_epochs(cluster),
        liveness=audit_liveness(cluster),
        rejoin=audit_rejoin(cluster),
        degree=audit_degree(cluster),
        history=audit_history(history) if history is not None else [],
        durability=audit_durability(cluster, history),
        reconfig=audit_reconfig(cluster),
    )
