"""The one fault cell and its judge; campaigns and sweeps are grids of it.

A :class:`Recipe` is everything one fault-injected, audited run is a pure
function of; :func:`run_cell` is the only way this package runs one:

1. build a fresh :class:`~repro.harness.rig.Rig` (counter objects spread
   across nodes, the recipe's fault baseline, disk tier, lease);
2. install the recipe's events via :class:`ChaosEngine`, start membership;
3. drive the rig's closed-loop counter load for the window while the
   schedule fires (and a second wave after a power loss) — optionally
   stopping every ``check_every_us`` to check the any-time invariants;
4. drain well past the last fault, wait out a rebalance, then run every
   audit (:func:`repro.verify.audit.audit_run`, plus the history check
   when the recipe asks for it).

The verdict is the ``(gate, problem)`` list of the report's
:class:`~repro.verify.audit.AuditReport`, and its :meth:`RunReport.digest`
is reproducible bit-for-bit from the recipe.  :func:`run_campaign` (a
schedule x seed grid), :func:`explore` (a randomized sweep: lossy baseline,
a seeded crash draw) and :func:`repro.verify.shrink.shrink` (delta-debug a
failing cell) all run recipes through it and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

from ..harness.rig import Rig, counter_catalog
from ..obs import (HistoryRecorder, LocalityRecorder, MetricsRegistry,
                   Observability)
from ..sim.params import DiskParams, FaultParams
from ..workloads.base import spawn_zeus_workers
from .engine import ChaosEngine
from .generator import (generate_elastic_schedule, generate_schedule,
                        generate_sweep_schedule)
from .schedule import (AddNodesEvent, ChaosEventType, ClusterRestartEvent,
                       DrainEvent, FaultSchedule, FaultWindowEvent,
                       RecoverEvent)

if TYPE_CHECKING:  # ``repro.verify`` imports this module (the shrinker)
    from ..verify.audit import AuditReport

__all__ = ["Recipe", "RunReport", "CampaignConfig", "CampaignResult",
           "SWEEP_CELL", "campaign_schedule", "run_cell", "run_campaign",
           "explore"]


@dataclass(frozen=True)
class Recipe:
    """One cell: a frozen, committable description that reproduces its
    run — and so its verdict — byte for byte."""

    seed: int = 0
    events: Tuple[ChaosEventType, ...] = ()
    #: Label of the schedule ``events`` came from (reports only).
    name: str = "recipe"
    num_nodes: int = 4
    num_objects: int = 8
    #: Workload window (generated schedules place all faults inside it).
    duration_us: float = 30_000.0
    #: Extra drain time after the workload stops, before the audit.
    quiesce_us: float = 30_000.0
    app_threads: int = 2
    #: Fraction of transactions that are read-only.
    read_frac: float = 0.2
    #: Network fault baseline (constant outside fault-window events).
    faults: FaultParams = field(default_factory=FaultParams)
    #: Durable-storage-tier parameters for each node (fsync policy etc.).
    disk: DiskParams = field(default_factory=DiskParams)
    lease_us: float = 1_500.0
    heartbeat_us: float = 150.0
    #: Run with the adaptive placement controller live (a per-run locality
    #: recorder is attached to feed it).  The controller is stopped before
    #: the final convergence + quiesce, so the audits judge a state it no
    #: longer perturbs.
    placement: bool = False
    #: Record the transaction history and audit it for strict
    #: serializability (``repro chaos --check-history``).
    check_history: bool = False

    @property
    def schedule(self) -> FaultSchedule:
        return FaultSchedule(self.events, name=self.name)

    def of(self, schedule: FaultSchedule, seed: int) -> "Recipe":
        """This cell under ``schedule`` and run-seed ``seed``."""
        return replace(self, seed=seed, events=schedule.events,
                       name=schedule.name)

    def describe(self) -> str:
        return (f"recipe: seed={self.seed} nodes={self.num_nodes} "
                f"objects={self.num_objects} window={self.duration_us:.0f}us "
                f"quiesce={self.quiesce_us:.0f}us\n"
                + self.schedule.describe())


@dataclass
class CampaignConfig:
    """A schedule x seed grid of one cell shape."""

    #: The cell every grid slot runs (its seed and events are the slot's).
    cell: Recipe = field(default_factory=Recipe)
    num_schedules: int = 3
    seeds: Tuple[int, ...] = (0, 1, 2)
    #: Scenario severity (0..3); 0 is fault-free, 3 stacks loss +
    #: partition + slowdown.
    difficulty: int = 3
    #: First schedule-seed; schedule i uses ``schedule_seed_base + i``.
    schedule_seed_base: int = 100
    #: Power-loss mode: every schedule powers off the whole cluster
    #: mid-run and cold-starts it; a second workload wave runs after the
    #: restart.  Requires ``cell.disk.enabled`` for anything to survive.
    power_loss: bool = False
    #: Elastic mode: every schedule scales the cluster out mid-run (the
    #: background rebalancer migrates ownership toward the joiners under
    #: live traffic) and then either gracefully drains a base node or —
    #: on alternating schedules, when the durable tier is on — powers the
    #: whole cluster off mid-rebalance.
    elastic: bool = False
    #: How many nodes each elastic schedule adds.
    elastic_add: int = 2


@dataclass
class RunReport:
    """Outcome of one cell."""

    recipe: Recipe
    committed: int
    aborted: int
    #: Injected-fault record, in simulated-time order.
    timeline: List[str]
    audit: "AuditReport"
    #: Simulator events executed over the whole run (a deterministic
    #: cost/size measure).
    events_executed: int = 0

    @property
    def schedule_name(self) -> str:
        return self.recipe.name

    @property
    def seed(self) -> int:
        return self.recipe.seed

    @property
    def ok(self) -> bool:
        return self.audit.ok

    def digest(self) -> str:
        """A stable fingerprint: same recipe ⇒ byte-identical digest."""
        audits = ";".join(f"{name}:{problem}"
                          for name, problem in self.audit.problems())
        return (f"{self.recipe.schedule.signature()}|seed={self.seed}"
                f"|committed={self.committed}|aborted={self.aborted}"
                f"|timeline={','.join(self.timeline)}"
                f"|audit={'OK' if self.audit.ok else audits}")


#: A fault path the grid schedules must show up in the campaign's own
#: counters — (event class, counter, what it means when it is zero).
_EXERCISED = (
    (RecoverEvent, "recovery.rejoins",
     "a schedule recovers a crashed node but no rejoin ran"),
    (DrainEvent, "rebalance.drains_completed",
     "a schedule drains a node but no drain completed"),
    (AddNodesEvent, "rebalance.objects_moved",
     "a schedule adds nodes but the rebalancer moved no ownership"),
    (ClusterRestartEvent, "recovery.wal_replayed",
     "a schedule powers the cluster off but no WAL record was replayed"),
)


@dataclass
class CampaignResult:
    """The cells of one campaign or sweep and the registry they share."""

    runs: List[RunReport] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def ok(self) -> bool:
        return not self.problems()

    def problems(self) -> List[Tuple[str, str]]:
        """Every failed gate as ``(gate, problem)``: each cell's audit
        problems, then — derived from the cells' schedules — every fault
        path that was scheduled but never actually exercised."""
        if not self.runs:
            return [("campaign", "no runs")]
        out = [(f"{run.schedule_name} seed {run.seed}: {name}", problem)
               for run in self.runs for name, problem in run.audit.problems()]
        schedules = [run.recipe.schedule for run in self.runs]
        for kind, counter, problem in _EXERCISED:
            if (any(s.of(kind) for s in schedules)
                    and self.registry.counter_total(counter) == 0):
                out.append(("exercised", f"{problem} ({counter} == 0)"))
        return out

    @property
    def committed(self) -> int:
        return sum(run.committed for run in self.runs)

    @property
    def coverage(self) -> set:
        """Which fault classes the campaign actually exercised."""
        kinds = set()
        for run in self.runs:
            for entry in run.timeline:
                kinds.add(entry.split("(", 1)[0])
        return kinds

    def summary(self) -> str:
        total = len(self.runs)
        failed = sum(not r.ok for r in self.runs)
        return (f"chaos campaign: {total} runs, {total - failed} passed, "
                f"{failed} failed; {self.committed} txns committed\n"
                f"fault coverage: {', '.join(sorted(self.coverage)) or 'none'}")


def run_cell(recipe: Recipe, obs: Optional[Observability] = None,
             check_every_us: Optional[float] = None) -> RunReport:
    """Execute and audit one cell.

    With ``check_every_us`` the clock is stepped and the any-time
    invariants are checked after every step; the first violation is
    reported under the ``safety`` gate as ``@t=...`` and the run still
    drains and audits.  Raises ``ValueError`` if ``recipe.events`` is not
    a well-formed schedule (e.g. a recovery whose crash was pruned)."""
    schedule = recipe.schedule
    obs = obs or Observability()
    recorder: Optional[HistoryRecorder] = None
    if recipe.check_history:
        # Per-run recorder layered over the (possibly shared) campaign
        # registry/tracer: histories must not leak across runs.
        recorder = HistoryRecorder()
        obs = obs.replace(history=recorder)
    if recipe.placement and obs.locality is None:
        # The controller is blind without telemetry: layer a per-run
        # locality recorder the same way check_history layers histories.
        obs = obs.replace(locality=LocalityRecorder())
    rig = Rig(counter_catalog(recipe.num_nodes, recipe.num_objects),
              recipe.seed, obs, threads=recipe.app_threads,
              faults=recipe.faults, disk=recipe.disk,
              lease_us=recipe.lease_us, heartbeat_us=recipe.heartbeat_us)
    cluster = rig.cluster
    ChaosEngine(cluster).install(schedule)
    cluster.start_membership()
    if recipe.placement:
        cluster.placement.start()

    from ..verify.invariants import check_invariants
    midflight: List[str] = []

    def advance(until: float) -> None:
        while check_every_us and not midflight and cluster.sim.now < until:
            cluster.run(until=min(cluster.sim.now + check_every_us, until))
            try:
                check_invariants(cluster)
            except AssertionError as err:
                midflight.append(f"@t={cluster.sim.now:.0f}: {err}")
        cluster.run(until=until)

    # No LB: every worker draws one or two counters uniformly.
    spec_fn = rig.routed_spec(0.0, recipe.read_frac)
    stop_at = cluster.sim.now + recipe.duration_us
    rig.start(spec_fn, stop_at)
    advance(stop_at)
    if schedule.of(ClusterRestartEvent):
        # The first wave died with the power loss; drive a second wave of
        # traffic, half a window long, against the cold-started cluster
        # (the reformed view and the reconcile pass are long settled by
        # now — the restart lands well before ``duration_us``).
        stop_at += recipe.duration_us / 2
        spawn_zeus_workers(cluster, spec_fn, rig.stats, stop_at=stop_at,
                           measure_from=cluster.sim.now,
                           threads=recipe.app_threads,
                           node_ids=list(range(len(cluster.handles))),
                           seed=recipe.seed + 9999, on_commit=rig.on_commit)
        advance(stop_at)
    if recipe.placement:
        # Stop actuating before convergence: the reconfig audit's balance
        # clause judges the post-converge spread, which must not be
        # re-skewed by a placement move issued after leveling.
        cluster.placement.stop()
    # Drain: retransmissions, probes across healed partitions, failure
    # detection, commit replay, arb-replay AND the tail of in-flight
    # application transactions all finish in this window.  This runs
    # *before* the converge wait — a transaction between ownership-retry
    # attempts holds no pending request, slips past the rebalancer's
    # quiet check, and its next acquisition would re-skew a balance the
    # rebalancer already declared.
    advance(cluster.sim.now + recipe.quiesce_us)
    if schedule.of(AddNodesEvent, DrainEvent):
        rig.converge(4 * recipe.quiesce_us)

    audit = rig.audit(history=recorder)
    audit.safety[:0] = midflight
    failures = cluster.failures
    timed = [(t, f"crash(t={t:.0f},n{n})") for t, n in failures.crashed]
    timed += [(t, f"recover(t={t:.0f},n{n})") for t, n in failures.recovered]
    timed += [(t, f"partition(t={t:.0f},{list(a)}|{list(b)})")
              for t, a, b in failures.partitions]
    timed += [(t, f"heal(t={t:.0f},{list(a)}|{list(b)})")
              for t, a, b in failures.heals]
    timed += [(t, f"slow(t={t:.0f},n{n},x{f:g})")
              for t, n, f in failures.slowdowns]
    timed += [(t, f"power_loss(t={t:.0f})") for t in failures.power_losses]
    timed += [(t, f"cold_restart(t={t:.0f})")
              for t in failures.cold_restarts]
    timed += [(t, f"add(t={t:.0f},n{n})") for t, n in failures.added]
    timed += [(t, f"drain(t={t:.0f},n{n})") for t, n in failures.drained]
    # Stable: events at one instant keep the kind order above.
    timed.sort(key=lambda pair: pair[0])
    timeline = [label for _t, label in timed]
    if schedule.of(FaultWindowEvent):
        timeline.append("loss_burst")

    return RunReport(
        recipe=recipe,
        committed=rig.ledger.committed,
        aborted=rig.stats.aborted_txns,
        timeline=timeline,
        audit=audit,
        events_executed=cluster.sim.events_executed,
    )


ProgressFn = Callable[[RunReport], None]


def campaign_schedule(cfg: CampaignConfig, index: int) -> FaultSchedule:
    """The schedule grid cell ``index`` of a campaign under ``cfg``.

    The single source of truth for which timeline each grid slot gets —
    :func:`run_campaign` and ``--show-schedules`` both derive schedules
    from here, so they can never disagree.
    """
    cell = cfg.cell
    if cfg.elastic:
        # Alternate the two exits from a rebalance so one campaign covers
        # both: drain schedules retire a base node; power-loss schedules
        # (odd cells, durable tier on) kill the cluster mid-migration and
        # cold-start it.
        power = cfg.power_loss or (cell.disk.enabled and index % 2 == 1)
        return generate_elastic_schedule(
            cell.num_nodes, cell.duration_us,
            seed=cfg.schedule_seed_base + index,
            difficulty=cfg.difficulty,
            add_count=cfg.elastic_add,
            power_loss=power,
        )
    return generate_schedule(
        cell.num_nodes, cell.duration_us,
        seed=cfg.schedule_seed_base + index,
        difficulty=cfg.difficulty,
        # The first schedule always crashes a node so every campaign
        # exercises detection + replay, whatever the rng picked.
        require_crash=(index == 0 and not cfg.power_loss),
        power_loss=cfg.power_loss,
    )


def _run_cells(recipes: Iterable[Recipe],
               progress: Optional[ProgressFn] = None,
               check_every_us: Optional[float] = None) -> CampaignResult:
    result = CampaignResult()
    registry = result.registry
    # Every run's cluster reports into the campaign registry, so the
    # --metrics-out dump aggregates net/ownership/recovery.* counters
    # across the whole grid, not just the chaos.* bookkeeping below.
    obs = Observability(registry=registry)
    c_runs = registry.counter("chaos.runs")
    c_ok = registry.counter("chaos.runs_ok")
    c_failed = registry.counter("chaos.runs_failed")
    c_problems = registry.counter("chaos.audit_problems")
    c_committed = registry.counter("chaos.committed")

    for recipe in recipes:
        report = run_cell(recipe, obs, check_every_us)
        result.runs.append(report)
        c_runs.inc()
        c_committed.inc(report.committed)
        if report.ok:
            c_ok.inc()
        else:
            c_failed.inc()
            c_problems.inc(len(report.audit.problems()))
        if progress is not None:
            progress(report)
    return result


def run_campaign(cfg: Optional[CampaignConfig] = None,
                 progress: Optional[ProgressFn] = None) -> CampaignResult:
    """Run the full schedule × seed grid and aggregate the audits."""
    cfg = cfg or CampaignConfig()
    return _run_cells((cfg.cell.of(schedule, seed)
                       for schedule in (campaign_schedule(cfg, i)
                                        for i in range(cfg.num_schedules))
                       for seed in cfg.seeds), progress)


#: The randomized sweep's cell: a short window under constant loss,
#: duplication and reordering, history audit on.
SWEEP_CELL = Recipe(
    num_objects=6, duration_us=5_000.0, quiesce_us=10_000.0,
    faults=FaultParams(loss_prob=0.02, duplicate_prob=0.02,
                       reorder_max_us=6.0),
    check_history=True)


def explore(seeds: int = 20) -> CampaignResult:
    """The randomized sweep: :data:`SWEEP_CELL` under run-seeds
    ``0..seeds-1``, each with its own crash draw
    (:func:`generate_sweep_schedule` — about half the seeds stay crash-free
    and are audited with strict exactly-once equality), the any-time
    invariants checked every 200 us mid-flight."""
    return _run_cells(
        (SWEEP_CELL.of(generate_sweep_schedule(SWEEP_CELL.num_nodes, seed),
                       seed) for seed in range(seeds)),
        check_every_us=200.0)
