"""The static-vs-adaptive differential harness behind ``repro place``.

The question the tentpole must answer experimentally: does closing the
telemetry loop *help*, and does it ever *hurt*?  The harness answers it
the only honest way — paired runs.  For each workload it runs the exact
same seeded cluster + workload twice: once **static** (no controller, the
seed repo's behavior) and once **adaptive** (a
:class:`~repro.placement.PlacementController` live), and compares the
locality recorder's remote-transaction fraction over the measured window.

Four workloads, two of each kind, each one :class:`_Row`:

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

All four rows drive counter objects with increment transactions — what
differs between workloads is the *access pattern*, which is the only
thing placement can see anyway — so the exactly-once/safety audits apply
to every run identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..harness.rig import Rig, counter_catalog
from ..obs import HistoryRecorder, LocalityRecorder, Observability
from ..store.catalog import Catalog
from ..verify.audit import AuditReport
from ..workloads.base import SpecFn, TxnSpec
from .controller import PlacementController
from .policy import PlacementPolicy

__all__ = ["DIFF_WORKLOADS", "DiffOutcome", "run_pair"]

#: Every run drives its workload this long, then drains for the quiesce.
DURATION_US = 14_000.0
QUIESCE_US = 8_000.0
#: Fraction of the run warmed up before the remote-fraction window opens
#: (covers lease warmup and, adaptively, convergence).
MEASURE_FRAC = 0.4


# --------------------------------------------------------------------------
# workloads: access patterns over counter catalogs
# --------------------------------------------------------------------------


#: smallbank: per-node account shards, each with a few hot accounts.
_ACCOUNTS, _HOT = 40, 4


def _smallbank_spec(rig: Rig, _script) -> SpecFn:
    """Uniform control: per-node account shards with node-local hotspots
    and a small random remote fraction.  Placement is already correct —
    the policy's thresholds must keep the controller (nearly) idle."""
    nodes = rig.num_nodes

    def local_pick(node: int, rng) -> int:
        base = node * _ACCOUNTS
        if rng.random() < 0.8:
            return base + rng.randrange(_HOT)
        return base + rng.randrange(_ACCOUNTS)

    def spec_fn(node_id: int, thread: int, rng):
        if rng.random() < 0.05:
            other = rng.choice([n for n in range(nodes) if n != node_id])
            oids = [other * _ACCOUNTS + rng.randrange(_ACCOUNTS)]
        else:
            oids = [local_pick(node_id, rng)]
            second = local_pick(node_id, rng)
            if rng.random() < 0.5 and second != oids[0]:
                oids.append(second)
        if rng.random() < 0.2:
            return TxnSpec(read_set=oids, read_only=True, exec_us=0.3)
        return TxnSpec(write_set=oids, exec_us=0.3)

    return spec_fn


#: tpcc: districts per warehouse and shared items (after them in oid order).
_DISTRICTS, _ITEMS = 10, 60


def _tpcc_catalog(nodes: int) -> Catalog:
    owners = list(range(nodes))  # warehouse rows: oid == node
    owners += [n for n in range(nodes) for _d in range(_DISTRICTS)]
    owners += [i % nodes for i in range(_ITEMS)]
    return counter_catalog(nodes, len(owners), owners.__getitem__)


def _tpcc_spec(rig: Rig, _script) -> SpecFn:
    """Inherent-remoteness control: per-node warehouse + districts, a
    shared item table replicated on every node, and remote-warehouse
    payments.  The residual remote fraction is the workload's, not the
    placement's — the adaptive run must not claim to fix it (and must
    not wreck it by consolidating the whole co-access graph: the item
    table links everything, which is exactly what the policy's
    community-size cap exists for)."""
    nodes = rig.num_nodes
    items = range(nodes + nodes * _DISTRICTS,
                  nodes + nodes * _DISTRICTS + _ITEMS)

    def district(wh: int, rng) -> int:
        return nodes + wh * _DISTRICTS + rng.randrange(_DISTRICTS)

    def spec_fn(node_id: int, thread: int, rng):
        r = rng.random()
        if r < 0.45:  # new-order: home district + 3 item reads
            d = district(node_id, rng)
            return TxnSpec(write_set=[d], read_set=rng.sample(items, 3),
                           exec_us=0.5)
        if r < 0.88:  # payment: warehouse + district, sometimes remote
            wh = node_id
            if rng.random() < 0.15:
                wh = rng.choice([n for n in range(nodes) if n != node_id])
            return TxnSpec(write_set=[wh, district(wh, rng)], exec_us=0.4)
        return TxnSpec(read_set=rng.sample(items, 2), read_only=True,
                       exec_us=0.3)

    return spec_fn


#: venmo: payment clusters of users, plus read-hot celebrity keys.
_CLUSTERS, _CLUSTER_SIZE, _CELEBRITIES = 8, 12, 4
_USERS = _CLUSTERS * _CLUSTER_SIZE


def _venmo_catalog(nodes: int) -> Catalog:
    # Celebrity i starts where user i does: round-robin by own index.
    return counter_catalog(nodes, _USERS + _CELEBRITIES,
                           lambda i: i % _USERS % nodes)


def _venmo_spec(rig: Rig, _script) -> SpecFn:
    """Community-misalignment workload: payment clusters sharded by user
    id, so every cluster's members are spread round-robin across all
    nodes and most payments span two nodes.  The fix is not any single
    migration — no user has a dominant accessor — but community
    consolidation from co-access telemetry.  A few read-hot celebrity
    keys ride along to exercise degree widening."""
    keys_of = rig.keys_of

    def spec_fn(node_id: int, thread: int, rng):
        local = keys_of.get(node_id)
        r = rng.random()
        if r < 0.78 and local:
            payer = rng.choice(local)
            base = payer // _CLUSTER_SIZE * _CLUSTER_SIZE
            if rng.random() < 0.02:  # a stray payment outside the cluster
                payee = rng.randrange(_USERS)
            else:
                payee = base + rng.randrange(_CLUSTER_SIZE)
            if payee == payer:
                payee = base + (payer + 1 - base) % _CLUSTER_SIZE
            return TxnSpec(write_set=[payer, payee], exec_us=0.4)
        if r < 0.93:
            celeb = _USERS + rng.randrange(_CELEBRITIES)
            return TxnSpec(read_set=[celeb], read_only=True, exec_us=0.3)
        if r < 0.95:
            celeb = _USERS + rng.randrange(_CELEBRITIES)
            return TxnSpec(write_set=[celeb], exec_us=0.3)
        if local:
            return TxnSpec(read_set=[rng.choice(local)], read_only=True,
                           exec_us=0.3)
        return None

    return spec_fn


#: mobility: users, how long each stays on a node, and the radio silence
#: before its traffic resumes on the next one.
_MOBILE_USERS, _DWELL_US, _GAP_US = 24, 3_000.0, 700.0


def _mobility_events(rig: Rig) -> Tuple[Dict[int, int], Dict[int, float]]:
    """Scheduled session handovers: each user's traffic moves to the next
    node every dwell, announced by an LB re-pin, with a gap of radio
    silence before traffic resumes there.  Returns ``(home, resume_at)``
    per user, the state the spec reads."""
    sim, nodes = rig.cluster.sim, rig.num_nodes
    home = {u: u % nodes for u in range(_MOBILE_USERS)}
    resume_at = {u: 0.0 for u in range(_MOBILE_USERS)}

    def handover(u: int) -> None:
        if sim.now >= DURATION_US:
            return
        home[u] = (home[u] + 1) % nodes
        resume_at[u] = sim.now + _GAP_US
        rig.lb.repin(u, home[u])
        sim.call_after(_DWELL_US, handover, u)

    for u in range(_MOBILE_USERS):
        sim.call_at(1_000.0 + (u * 437.0) % _DWELL_US, handover, u)
    return home, resume_at


def _mobility_spec(rig: Rig, script) -> SpecFn:
    """Traffic of the users homed on the worker's node and past their
    handover gap.  The re-pin is a leading indicator — the adaptive
    controller migrates ownership inside the gap, so the first
    post-handover access is already local; the static run pays remote
    accesses until ownership follows reactively."""
    home, resume_at = script
    sim = rig.cluster.sim

    def spec_fn(node_id: int, thread: int, rng):
        # Idle most of the time, so each dwell sees tens (not hundreds)
        # of transactions per user — the per-handover remote cost stays
        # visible instead of being diluted by closed-loop saturation.
        if rng.random() < 0.8:
            return None
        now = sim.now
        eligible = [u for u in range(_MOBILE_USERS)
                    if home[u] == node_id and now >= resume_at[u]]
        if not eligible:
            return None
        u = rng.choice(eligible)
        if rng.random() < 0.3:
            return TxnSpec(read_set=[u], read_only=True, exec_us=0.3)
        return TxnSpec(write_set=[u], exec_us=0.3)

    return spec_fn


@dataclass(frozen=True)
class _Row:
    """One differential workload.  Nothing here may depend on whether a
    controller is attached — the pairing is only honest if the two runs
    differ by exactly that."""

    name: str
    must_win: bool
    nodes: int
    catalog: Callable[[int], Catalog]
    #: Initial LB pins ``(key, node)``; none = no LB.
    pins: Tuple[Tuple[int, int], ...]
    #: ``spec(rig, script)`` -> the workers' spec function; ``script`` is
    #: what ``events`` returned (``None`` without events).
    spec: Callable[[Rig, Any], SpecFn]
    #: Schedules the row's scripted events on the built rig and returns
    #: the state of them that ``spec`` reads.
    events: Optional[Callable[[Rig], Any]] = None
    #: The adaptive run's controller period.
    period_us: float = 600.0


#: The differential workloads, in reporting order.
_ROWS = {row.name: row for row in (
    _Row("smallbank", False, 3,
         lambda n: counter_catalog(n, n * _ACCOUNTS, lambda i: i // _ACCOUNTS),
         (), _smallbank_spec),
    _Row("tpcc", False, 3, _tpcc_catalog, (), _tpcc_spec),
    # Sharded by user id — each cluster's consecutive ids land round-robin
    # on every node, misaligned with the payment graph.
    _Row("venmo", True, 4, _venmo_catalog,
         tuple((u, u % 4) for u in range(_USERS)), _venmo_spec),
    # Wake often enough to catch a re-pin within the handover gap.
    _Row("mobility", True, 4, lambda n: counter_catalog(n, _MOBILE_USERS),
         tuple((u, u % 4) for u in range(_MOBILE_USERS)), _mobility_spec,
         events=_mobility_events, period_us=300.0),
)}
DIFF_WORKLOADS = tuple(_ROWS)


# --------------------------------------------------------------------------
# paired execution
# --------------------------------------------------------------------------


def _build(row: _Row, seed: int, obs: Observability) -> Rig:
    """The row's seeded cluster: membership started, pins on the LB."""
    rig = Rig(row.catalog(row.nodes), seed, obs)
    rig.cluster.start_membership()
    if row.pins:
        rig.add_lb(row.pins)
    return rig


def _refresh_loop(rig: Rig) -> None:
    """Keep the routing snapshot fresh while the run lasts (the adaptive
    controller re-pins mid-run; the static run performs the same
    refreshes so the two simulations stay comparable)."""
    rig.refresh_routing()
    if rig.cluster.sim.now < DURATION_US:
        rig.cluster.sim.call_after(250.0, _refresh_loop, rig)


@dataclass
class _RunResult:
    remote: Optional[float]
    committed: int
    audit: AuditReport
    decision_log: str = ""
    decisions: Optional[List[Dict[str, Any]]] = None
    migrations: int = 0
    repins: int = 0
    degree_sets: int = 0


def _run_one(row: _Row, seed: int, adaptive: bool,
             check_history: bool) -> _RunResult:
    loc = LocalityRecorder(pair_top_k=2_048)
    history = HistoryRecorder() if check_history else None
    obs = Observability(locality=loc, history=history)
    rig = _build(row, seed, obs)
    sim = rig.cluster.sim

    controller = None
    if adaptive:
        controller = PlacementController(rig.cluster, lb=rig.lb,
                                         period_us=row.period_us)
        controller.start()
    if rig.lb is not None:
        sim.call_at(300.0, _refresh_loop, rig)
    script = row.events(rig) if row.events is not None else None
    rig.start(row.spec(rig, script), DURATION_US)
    rig.cluster.run(until=DURATION_US)
    if controller is not None:
        controller.stop()
    rig.settle(QUIESCE_US, converge=False)

    result = _RunResult(
        remote=loc.remote_fraction(MEASURE_FRAC * DURATION_US, DURATION_US),
        committed=rig.ledger.committed,
        audit=rig.audit(history=history))
    if controller is not None:
        count = obs.registry.counter_total
        result.decision_log = controller.decision_log_json()
        result.decisions = controller.decisions
        result.migrations = int(count("placement.objects_moved"))
        result.repins = int(count("placement.repins"))
        result.degree_sets = int(count("placement.degree_sets"))
    return result


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
    static: _RunResult
    adaptive: _RunResult
    #: Second same-seed adaptive run produced a byte-identical log.
    deterministic: bool
    #: Every logged decision replayed offline to the same actuations.
    replay_ok: bool

    #: A no-claim workload's adaptive remote fraction may exceed static
    #: by at most this much (sampling noise between two distinct runs).
    tolerance = 0.05

    @property
    def decision_digest(self) -> str:
        """sha256 of the adaptive run's canonical decision-log JSON."""
        return hashlib.sha256(
            self.adaptive.decision_log.encode("utf-8")).hexdigest()

    @property
    def reduction(self) -> Optional[float]:
        if self.static.remote is None or self.adaptive.remote is None:
            return None
        return self.static.remote - self.adaptive.remote

    @property
    def claimed(self) -> bool:
        """True only for a *meaningful* locality win: a static remote
        fraction worth fixing, reduced by at least a fifth."""
        red = self.reduction
        return (red is not None and self.static.remote >= 0.01
                and red >= 0.2 * self.static.remote)

    @property
    def ok(self) -> bool:
        return not self.problems()

    def problems(self) -> List[Tuple[str, str]]:
        """Every failed gate of the pair as ``(gate, problem)``."""
        out = [(f"{arm} audit: {name}", p)
               for arm, run in (("static", self.static),
                                ("adaptive", self.adaptive))
               for name, p in run.audit.problems()]
        if not self.deterministic:
            out.append(("determinism",
                        "decision log differs between same-seed runs"))
        if not self.replay_ok:
            out.append(("replay", "offline policy replay diverged from the "
                                  "live decision log"))
        static, adaptive = self.static.remote, self.adaptive.remote
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
        run = self.adaptive
        return (f"{self.workload:<10} {pct(self.static.remote)} -> "
                f"{pct(run.remote)}  "
                f"{'claimed' if self.claimed else 'no claim':<9} "
                f"[{gate:<12}] moves={run.migrations:<3} "
                f"repins={run.repins:<3} degree={run.degree_sets:<2} "
                f"{verdict}")


def run_pair(name: str, seed: int = 1,
             check_history: bool = False) -> DiffOutcome:
    """Run one workload's static/adaptive pair (plus an adaptive repeat
    for the byte-identity proof) and fold the comparison."""
    row = _ROWS.get(name)
    if row is None:
        raise ValueError(f"unknown differential workload {name!r} "
                         f"(known: {', '.join(sorted(_ROWS))})")
    static = _run_one(row, seed, adaptive=False, check_history=check_history)
    adaptive = _run_one(row, seed, adaptive=True, check_history=check_history)
    repeat = _run_one(row, seed, adaptive=True, check_history=False)
    return DiffOutcome(
        workload=name, seed=seed, must_win=row.must_win,
        static=static, adaptive=adaptive,
        deterministic=repeat.decision_log == adaptive.decision_log,
        replay_ok=_replay_ok(adaptive.decisions or []))
