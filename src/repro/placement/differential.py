"""The static-vs-adaptive differential harness behind ``repro place``.

The question the tentpole must answer experimentally: does closing the
telemetry loop *help*, and does it ever *hurt*?  The harness answers it
the only honest way — paired runs.  For each workload it runs the exact
same seeded cluster + workload twice: once **static** (no controller, the
seed repo's behavior) and once **adaptive** (a
:class:`~repro.placement.PlacementController` live), and compares the
locality recorder's remote-transaction fraction over the measured window.

Four workloads, two of each kind:

* ``smallbank`` — node-local hotspots, a small uniform remote fraction.
  Placement is already right; the policy's evidence thresholds should
  keep it (nearly) idle.  Gate: **no reduction claim**, adaptive within
  tolerance of static.
* ``tpcc`` — per-node warehouses/districts plus fully-replicated shared
  items; the remote fraction is *inherent* (remote-warehouse payments),
  no placement fixes it.  Gate: no claim, within tolerance.
* ``venmo`` — community-structured payments sharded by user id, i.e.
  deliberately misaligned with the payment graph (the paper's §8 Venmo
  study).  The controller must discover the communities from co-access
  telemetry and consolidate them.  Gate: **adaptive must win**.
* ``mobility`` — user sessions handing over between serving nodes on a
  schedule (the paper's cellular-mobility pattern).  The LB re-pin is a
  *leading* signal: the controller migrates ownership inside the
  handover gap, before traffic resumes.  Gate: **adaptive must win**.

Every run is audited (:func:`~repro.verify.audit.audit_run`, optionally
with a strict-serializability history check), the adaptive run is
repeated to prove the decision log byte-identical, and every logged
decision is replayed offline through a fresh policy to prove the policy
pure.  :class:`DiffOutcome.ok` folds all of that into one verdict.

All four rigs drive counter objects with increment transactions — what
differs between workloads is the *access pattern*, which is the only
thing placement can see anyway — so the exactly-once/safety audits apply
to every rig identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..harness.rig import Rig, counter_catalog
from ..obs import HistoryRecorder, LocalityRecorder, Observability
from ..store.catalog import Catalog
from ..verify.audit import AuditReport
from ..workloads.base import TxnSpec
from .controller import PlacementController
from .policy import PlacementPolicy

__all__ = ["DIFF_WORKLOADS", "DiffOutcome", "run_pair"]

#: Differential workload names, in reporting order.
DIFF_WORKLOADS = ("smallbank", "tpcc", "venmo", "mobility")


# --------------------------------------------------------------------------
# workload rigs
# --------------------------------------------------------------------------


class _DiffRig(Rig):
    """One seeded cluster + workload, built identically for both modes.

    Subclasses define the catalog, the access pattern, initial LB pins
    (none = no LB), and the controller tuning the adaptive run uses.
    Nothing here may depend on whether a controller is attached — the
    pairing is only honest if the two runs differ by exactly that."""

    name = "?"
    must_win = False
    nodes = 4
    duration_us = 14_000.0
    quiesce_us = 8_000.0
    #: Fraction of the run warmed up before the remote-fraction window
    #: opens (covers lease warmup and, adaptively, convergence).
    measure_frac = 0.4
    #: Non-default controller arguments.
    controller_tuning: Dict[str, Any] = {}

    def __init__(self, seed: int, obs: Observability):
        super().__init__(self.catalog(), seed, obs)
        self.cluster.start_membership()
        pins = self.initial_pins()
        if pins:
            self.add_lb(pins)

    # ---- per-workload surface

    def catalog(self) -> Catalog:
        raise NotImplementedError

    def initial_pins(self):
        return []

    def spec_fn(self, node_id: int, thread: int, rng):
        raise NotImplementedError

    def schedule_events(self) -> None:
        """Hook for rigs with scripted events (mobility handovers)."""

    # ---- shared machinery

    def _refresh_loop(self) -> None:
        """Keep the routing snapshot fresh while the run lasts (the
        adaptive controller re-pins mid-run; the static run performs the
        same refreshes so the two simulations stay comparable)."""
        self.refresh_routing()
        if self.cluster.sim.now < self.duration_us:
            self.cluster.sim.call_after(250.0, self._refresh_loop)

    def run(self) -> None:
        """Drive the workload for ``duration_us``."""
        if self.lb is not None:
            self.cluster.sim.call_at(300.0, self._refresh_loop)
        self.schedule_events()
        self.start(self.spec_fn, self.duration_us)
        self.cluster.run(until=self.duration_us)


class _SmallbankRig(_DiffRig):
    """Uniform control: per-node account shards with node-local hotspots
    and a small random remote fraction.  Placement is already correct —
    the policy's thresholds must keep the controller (nearly) idle."""

    name = "smallbank"
    nodes = 3
    accounts_per_node = 40
    hot = 4
    remote_frac = 0.05

    def catalog(self) -> Catalog:
        return counter_catalog(self.nodes, self.nodes * self.accounts_per_node,
                               lambda i: i // self.accounts_per_node)

    def _local_pick(self, node: int, rng) -> int:
        base = node * self.accounts_per_node
        if rng.random() < 0.8:
            return base + rng.randrange(self.hot)
        return base + rng.randrange(self.accounts_per_node)

    def spec_fn(self, node_id: int, thread: int, rng):
        if rng.random() < self.remote_frac:
            other = rng.choice([n for n in range(self.nodes)
                                if n != node_id])
            oids = [other * self.accounts_per_node
                    + rng.randrange(self.accounts_per_node)]
        else:
            oids = [self._local_pick(node_id, rng)]
            second = self._local_pick(node_id, rng)
            if rng.random() < 0.5 and second != oids[0]:
                oids.append(second)
        if rng.random() < 0.2:
            return TxnSpec(read_set=oids, read_only=True, exec_us=0.3)
        return TxnSpec(write_set=oids, exec_us=0.3)


class _TpccRig(_DiffRig):
    """Inherent-remoteness control: per-node warehouse + districts, a
    shared item table replicated on every node, and remote-warehouse
    payments.  The residual remote fraction is the workload's, not the
    placement's — the adaptive run must not claim to fix it (and must
    not wreck it by consolidating the whole co-access graph: the item
    table links everything, which is exactly what the policy's
    community-size cap exists for)."""

    name = "tpcc"
    nodes = 3
    districts = 10
    items = 60
    remote_wh_frac = 0.15

    def catalog(self) -> Catalog:
        owners = list(range(self.nodes))  # warehouse rows: oid == node
        owners += [n for n in range(self.nodes)
                   for _d in range(self.districts)]
        self.item_base = len(owners)
        owners += [i % self.nodes for i in range(self.items)]
        return counter_catalog(self.nodes, len(owners), owners.__getitem__)

    def _district(self, wh: int, rng) -> int:
        return self.nodes + wh * self.districts + rng.randrange(
            self.districts)

    def spec_fn(self, node_id: int, thread: int, rng):
        r = rng.random()
        if r < 0.45:  # new-order: home district + 3 item reads
            d = self._district(node_id, rng)
            picks = rng.sample(range(self.item_base,
                                     self.item_base + self.items), 3)
            return TxnSpec(write_set=[d], read_set=picks, exec_us=0.5)
        if r < 0.88:  # payment: warehouse + district, sometimes remote
            wh = node_id
            if rng.random() < self.remote_wh_frac:
                wh = rng.choice([n for n in range(self.nodes)
                                 if n != node_id])
            return TxnSpec(write_set=[wh, self._district(wh, rng)],
                           exec_us=0.4)
        picks = rng.sample(range(self.item_base,
                                 self.item_base + self.items), 2)
        return TxnSpec(read_set=picks, read_only=True, exec_us=0.3)


class _VenmoRig(_DiffRig):
    """Community-misalignment workload: payment clusters sharded by user
    id, so every cluster's members are spread round-robin across all
    nodes and most payments span two nodes.  The fix is not any single
    migration — no user has a dominant accessor — but community
    consolidation from co-access telemetry.  A few read-hot celebrity
    keys ride along to exercise degree widening."""

    name = "venmo"
    must_win = True
    nodes = 4
    clusters = 8
    cluster_size = 12
    celebrities = 4
    stray_frac = 0.02

    def catalog(self) -> Catalog:
        self.users = self.clusters * self.cluster_size
        self.celeb_base = self.users
        # Celebrity i starts where user i does: round-robin by own index.
        return counter_catalog(self.nodes, self.users + self.celebrities,
                               lambda i: i % self.users % self.nodes)

    def initial_pins(self):
        # Sharded by user id — each cluster's consecutive ids land
        # round-robin on every node, misaligned with the payment graph.
        return [(u, u % self.nodes) for u in range(self.users)]

    def spec_fn(self, node_id: int, thread: int, rng):
        local = self.keys_of.get(node_id)
        r = rng.random()
        if r < 0.78 and local:
            payer = rng.choice(local)
            c = payer // self.cluster_size
            if rng.random() < self.stray_frac:
                payee = rng.randrange(self.users)
            else:
                payee = c * self.cluster_size + rng.randrange(
                    self.cluster_size)
            if payee == payer:
                payee = (c * self.cluster_size
                         + (payer + 1 - c * self.cluster_size)
                         % self.cluster_size)
            return TxnSpec(write_set=[payer, payee], exec_us=0.4)
        if r < 0.93:
            celeb = self.celeb_base + rng.randrange(self.celebrities)
            return TxnSpec(read_set=[celeb], read_only=True, exec_us=0.3)
        if r < 0.95:
            celeb = self.celeb_base + rng.randrange(self.celebrities)
            return TxnSpec(write_set=[celeb], exec_us=0.3)
        if local:
            return TxnSpec(read_set=[rng.choice(local)], read_only=True,
                           exec_us=0.3)
        return None


class _MobilityRig(_DiffRig):
    """Scheduled session handovers: each user's traffic moves to the next
    node every ``dwell_us``, announced by an LB re-pin, with a
    ``gap_us`` radio silence before traffic resumes there.  The re-pin
    is a leading indicator — the adaptive controller migrates ownership
    inside the gap, so the first post-handover access is already local;
    the static run pays remote accesses until ownership follows
    reactively."""

    name = "mobility"
    must_win = True
    nodes = 4
    users = 24
    dwell_us = 3_000.0
    gap_us = 700.0
    #: spec_fn idles at this rate so each dwell sees tens (not hundreds)
    #: of transactions per user — the per-handover remote cost stays
    #: visible instead of being diluted by closed-loop saturation.
    idle_frac = 0.8
    # Wake often enough to catch a re-pin within the handover gap.
    controller_tuning = {"period_us": 300.0}

    def catalog(self) -> Catalog:
        return counter_catalog(self.nodes, self.users)

    def initial_pins(self):
        return [(u, u % self.nodes) for u in range(self.users)]

    def schedule_events(self) -> None:
        self.home = {u: u % self.nodes for u in range(self.users)}
        self.resume_at = {u: 0.0 for u in range(self.users)}
        for u in range(self.users):
            first = 1_000.0 + (u * 437.0) % self.dwell_us
            self.cluster.sim.call_at(first, self._handover, u)

    def _handover(self, u: int) -> None:
        now = self.cluster.sim.now
        if now >= self.duration_us:
            return
        nxt = (self.home[u] + 1) % self.nodes
        self.home[u] = nxt
        self.resume_at[u] = now + self.gap_us
        self.lb.repin(u, nxt)
        self.cluster.sim.call_after(self.dwell_us, self._handover, u)

    def spec_fn(self, node_id: int, thread: int, rng):
        if rng.random() < self.idle_frac:
            return None
        now = self.cluster.sim.now
        eligible = [u for u in range(self.users)
                    if self.home[u] == node_id and now >= self.resume_at[u]]
        if not eligible:
            return None
        u = rng.choice(eligible)
        if rng.random() < 0.3:
            return TxnSpec(read_set=[u], read_only=True, exec_us=0.3)
        return TxnSpec(write_set=[u], exec_us=0.3)


_RIGS = {rig.name: rig
         for rig in (_SmallbankRig, _TpccRig, _VenmoRig, _MobilityRig)}


# --------------------------------------------------------------------------
# paired execution
# --------------------------------------------------------------------------


@dataclass
class _RunResult:
    remote: Optional[float]
    committed: int
    audit: AuditReport
    decision_log: str
    decisions: Optional[List[Dict[str, Any]]]
    migrations: int
    repins: int
    degree_sets: int


def _run_one(name: str, seed: int, adaptive: bool,
             check_history: bool) -> _RunResult:
    rig_cls = _RIGS[name]
    loc = LocalityRecorder(pair_top_k=2_048)
    history = HistoryRecorder() if check_history else None
    obs = Observability(locality=loc, history=history)
    rig = rig_cls(seed, obs)
    cluster = rig.cluster

    controller = None
    if adaptive:
        controller = PlacementController(cluster, lb=rig.lb,
                                         policy=PlacementPolicy(),
                                         **rig.controller_tuning)
        controller.start()

    rig.run()
    if controller is not None:
        controller.stop()
    rig.settle(rig.quiesce_us, converge=False)

    # placement.* counters exist once a controller ran; static reads zero.
    count = obs.registry.counter_total
    return _RunResult(
        remote=loc.remote_fraction(rig.measure_frac * rig.duration_us,
                                   rig.duration_us),
        committed=rig.ledger.committed,
        audit=rig.audit(history=history),
        decision_log=controller.decision_log_json() if controller else "",
        decisions=controller.decisions if controller else None,
        migrations=int(count("placement.objects_moved")),
        repins=int(count("placement.repins")),
        degree_sets=int(count("placement.degree_sets")),
    )


def _replay_ok(decisions: List[Dict[str, Any]]) -> bool:
    """Offline purity proof: every logged cycle, replayed through a fresh
    policy from its JSON-round-tripped record, must reproduce the live
    actuation list exactly."""
    policy = PlacementPolicy()
    for rec in decisions:
        snapshot = json.loads(json.dumps(rec["snapshot"]))
        view = json.loads(json.dumps(rec["view"]))
        if policy.decide(snapshot, view, rec["now_us"]) != rec["actuations"]:
            return False
    return True


@dataclass
class DiffOutcome:
    """One workload's paired static-vs-adaptive verdict."""

    workload: str
    seed: int
    must_win: bool
    static_remote: Optional[float]
    adaptive_remote: Optional[float]
    static_committed: int
    adaptive_committed: int
    static_audit: AuditReport
    adaptive_audit: AuditReport
    migrations: int
    repins: int
    degree_sets: int
    #: sha256 of the adaptive run's canonical decision-log JSON.
    decision_digest: str
    #: Second same-seed adaptive run produced a byte-identical log.
    deterministic: bool
    #: Every logged decision replayed offline to the same actuations.
    replay_ok: bool

    #: A no-claim workload's adaptive remote fraction may exceed static
    #: by at most this much (sampling noise between two distinct runs).
    tolerance = 0.05

    @property
    def reduction(self) -> Optional[float]:
        if self.static_remote is None or self.adaptive_remote is None:
            return None
        return self.static_remote - self.adaptive_remote

    @property
    def claimed(self) -> bool:
        """True only for a *meaningful* locality win: a static remote
        fraction worth fixing, reduced by at least a fifth."""
        red = self.reduction
        return (red is not None and self.static_remote >= 0.01
                and red >= 0.2 * self.static_remote)

    @property
    def ok(self) -> bool:
        return not self.problems()

    def problems(self) -> List[Tuple[str, str]]:
        """Every failed gate of the pair as ``(gate, problem)``."""
        out = [(f"static audit: {name}", p)
               for name, p in self.static_audit.problems()]
        out += [(f"adaptive audit: {name}", p)
                for name, p in self.adaptive_audit.problems()]
        if not self.deterministic:
            out.append(("determinism",
                        "decision log differs between same-seed runs"))
        if not self.replay_ok:
            out.append(("replay", "offline policy replay diverged from the "
                                  "live decision log"))
        static, adaptive = self.static_remote, self.adaptive_remote
        if self.must_win:
            if not self.claimed:
                out.append(("claim", "adaptive placement did not cut the "
                                     "remote fraction by a fifth"))
        elif static is None or adaptive is None:
            if static is not None or adaptive is not None:
                out.append(("claim", "only one of the runs measured a remote "
                                     "fraction"))
        elif adaptive > static + self.tolerance:
            out.append(("claim", f"adaptive remote fraction {adaptive:.1%} "
                                 f"exceeds static {static:.1%} past tolerance"))
        return out

    def row(self) -> str:
        pct = (lambda f: "   n/a" if f is None else f"{f:6.1%}")
        gate = "win required" if self.must_win else "no-claim"
        verdict = "ok" if self.ok else "FAILED"
        return (f"{self.workload:<10} {pct(self.static_remote)} -> "
                f"{pct(self.adaptive_remote)}  "
                f"{'claimed' if self.claimed else 'no claim':<9} "
                f"[{gate:<12}] moves={self.migrations:<3} "
                f"repins={self.repins:<3} degree={self.degree_sets:<2} "
                f"{verdict}")


def run_pair(name: str, seed: int = 1, check_history: bool = False,
             verify_determinism: bool = True) -> DiffOutcome:
    """Run one workload's static/adaptive pair (plus an adaptive repeat
    for the byte-identity proof) and fold the comparison."""
    if name not in _RIGS:
        raise ValueError(f"unknown differential workload {name!r} "
                         f"(known: {', '.join(sorted(_RIGS))})")
    static = _run_one(name, seed, adaptive=False,
                      check_history=check_history)
    adaptive = _run_one(name, seed, adaptive=True,
                        check_history=check_history)
    deterministic = True
    if verify_determinism:
        repeat = _run_one(name, seed, adaptive=True, check_history=False)
        deterministic = repeat.decision_log == adaptive.decision_log
    digest = hashlib.sha256(
        adaptive.decision_log.encode("utf-8")).hexdigest()
    return DiffOutcome(
        workload=name,
        seed=seed,
        must_win=_RIGS[name].must_win,
        static_remote=static.remote,
        adaptive_remote=adaptive.remote,
        static_committed=static.committed,
        adaptive_committed=adaptive.committed,
        static_audit=static.audit,
        adaptive_audit=adaptive.audit,
        migrations=adaptive.migrations,
        repins=adaptive.repins,
        degree_sets=adaptive.degree_sets,
        decision_digest=digest,
        deterministic=deterministic,
        replay_ok=_replay_ok(adaptive.decisions or []),
    )
