"""Chaos campaigns: workload × schedule × seed grids with post-run audits.

One campaign run:

1. builds a fresh cluster (counter objects spread across nodes, membership
   heartbeats on, a clean fault baseline);
2. installs a generated :class:`FaultSchedule` via :class:`ChaosEngine`;
3. drives a closed-loop counter-increment workload while the schedule
   fires;
4. drains the run well past the last fault, then audits safety,
   exactly-once application, epoch agreement, and liveness
   (:func:`repro.verify.audit.audit_run`).

Everything — workload, jitter, fault timeline — derives from the (schedule
seed, run seed) pair, so a run's :meth:`RunReport.digest` is reproducible
bit-for-bit: the campaign's determinism is itself auditable (and audited,
in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..harness.rig import Rig, counter_catalog
from ..obs import (HistoryRecorder, LocalityRecorder, MetricsRegistry,
                   Observability)
from ..sim.params import DiskParams, FaultParams
from ..verify.audit import AuditReport
from ..workloads.base import run_zeus_workload
from .engine import ChaosEngine
from .generator import generate_elastic_schedule, generate_schedule
from .schedule import FaultSchedule

__all__ = ["CampaignConfig", "RunReport", "CampaignResult",
           "campaign_schedule", "run_chaos_once", "run_campaign"]


@dataclass
class CampaignConfig:
    num_nodes: int = 4
    num_objects: int = 8
    #: Workload window (schedules place all faults inside it).
    duration_us: float = 30_000.0
    #: Extra drain time after the workload stops, before the audit.
    quiesce_us: float = 30_000.0
    app_threads: int = 2
    #: Fraction of transactions that are read-only.
    read_frac: float = 0.2
    num_schedules: int = 3
    seeds: Tuple[int, ...] = (0, 1, 2)
    #: Scenario severity (1..3); 3 stacks loss + partition + slowdown.
    difficulty: int = 3
    #: First schedule-seed; schedule i uses ``schedule_seed_base + i``.
    schedule_seed_base: int = 100
    lease_us: float = 1_500.0
    heartbeat_us: float = 150.0
    faults_baseline: FaultParams = field(default_factory=FaultParams)
    #: Record each run's transaction history and audit it for strict
    #: serializability (``repro chaos --check-history``).
    check_history: bool = False
    #: Power-loss mode: every schedule powers off the whole cluster
    #: mid-run and cold-starts it; a second workload wave runs after the
    #: restart.  Requires ``disk.enabled`` for anything to survive.
    power_loss: bool = False
    #: Durable-storage-tier parameters for each node (fsync policy etc.).
    disk: DiskParams = field(default_factory=DiskParams)
    #: Post-restart workload window (power-loss mode only).
    restart_wave_us: float = 15_000.0
    #: Elastic mode: every schedule scales the cluster out mid-run (the
    #: background rebalancer migrates ownership toward the joiners under
    #: live traffic) and then either gracefully drains a base node or —
    #: on alternating schedules, when the durable tier is on — powers the
    #: whole cluster off mid-rebalance.
    elastic: bool = False
    #: How many nodes each elastic schedule adds.
    elastic_add: int = 2
    #: Run every cell with the adaptive placement controller live (a
    #: per-run locality recorder is attached to feed it).  The controller
    #: is stopped before the final convergence + quiesce, so the audits
    #: judge a state it no longer perturbs.
    placement: bool = False


@dataclass
class RunReport:
    """Outcome of one (schedule, seed) cell."""

    schedule_name: str
    schedule_signature: str
    seed: int
    committed: int
    aborted: int
    #: Injected-fault record, in simulated-time order.
    timeline: List[str]
    audit: AuditReport
    #: Simulator events executed over the whole run (a deterministic
    #: cost/size measure).
    events_executed: int = 0

    @property
    def ok(self) -> bool:
        return self.audit.ok

    def digest(self) -> str:
        """A stable fingerprint: same seeds ⇒ byte-identical digest."""
        audits = ";".join(f"{name}:{problem}"
                          for name, problem in self.audit.problems())
        return (f"{self.schedule_signature}|seed={self.seed}"
                f"|committed={self.committed}|aborted={self.aborted}"
                f"|timeline={','.join(self.timeline)}"
                f"|audit={'OK' if self.audit.ok else audits}")


#: A fault path the grid schedules must show up in the campaign's own
#: counters — (schedule property, counter, what it means when it is zero).
_EXERCISED = (
    ("has_recovery", "recovery.rejoins",
     "a schedule recovers a crashed node but no rejoin ran"),
    ("drain_nodes", "rebalance.drains_completed",
     "a schedule drains a node but no drain completed"),
    ("added_count", "rebalance.objects_moved",
     "a schedule adds nodes but the rebalancer moved no ownership"),
    ("has_power_loss", "recovery.wal_replayed",
     "a schedule powers the cluster off but no WAL record was replayed"),
)


@dataclass
class CampaignResult:
    runs: List[RunReport] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: The grid's schedules, in cell order (one per schedule index).
    schedules: List[FaultSchedule] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems()

    def problems(self) -> List[Tuple[str, str]]:
        """Every failed gate as ``(gate, problem)``: each cell's audit
        problems, then — derived from the grid's schedules — every fault
        path that was scheduled but never actually exercised."""
        if not self.runs:
            return [("campaign", "no runs")]
        out = [(f"{run.schedule_name} seed {run.seed}: {name}", problem)
               for run in self.runs for name, problem in run.audit.problems()]
        for prop, counter, problem in _EXERCISED:
            if (any(getattr(s, prop) for s in self.schedules)
                    and self.registry.counter_total(counter) == 0):
                out.append(("exercised", f"{problem} ({counter} == 0)"))
        return out

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
        committed = sum(r.committed for r in self.runs)
        return (f"chaos campaign: {total} runs, {total - failed} passed, "
                f"{failed} failed; {committed} txns committed\n"
                f"fault coverage: {', '.join(sorted(self.coverage)) or 'none'}")


def run_chaos_once(schedule: FaultSchedule, seed: int, cfg: CampaignConfig,
                   obs: Optional[Observability] = None) -> RunReport:
    """Execute one audited run of ``schedule`` under run-seed ``seed``."""
    obs = obs or Observability()
    recorder: Optional[HistoryRecorder] = None
    if cfg.check_history:
        # Per-run recorder layered over the (possibly shared) campaign
        # registry/tracer: histories must not leak across runs.
        recorder = HistoryRecorder()
        obs = obs.replace(history=recorder)
    if cfg.placement and not obs.locality:
        # The controller is blind without telemetry: layer a per-run
        # locality recorder the same way check_history layers histories.
        obs = obs.replace(locality=LocalityRecorder())
    rig = Rig(counter_catalog(cfg.num_nodes, cfg.num_objects), seed, obs,
              threads=cfg.app_threads, faults=cfg.faults_baseline,
              disk=cfg.disk, lease_us=cfg.lease_us,
              heartbeat_us=cfg.heartbeat_us)
    cluster = rig.cluster
    ChaosEngine(cluster).install(schedule)
    cluster.start_membership()
    if cfg.placement:
        cluster.placement.start()

    # No LB: every worker draws one or two counters uniformly.
    spec_fn = rig.routed_spec(0.0, cfg.read_frac)
    stop_at = cluster.sim.now + cfg.duration_us
    rig.start(spec_fn, stop_at)
    cluster.run(until=stop_at)
    if schedule.has_power_loss:
        # The first wave died with the power loss; drive a second wave of
        # traffic against the cold-started cluster (the reformed view and
        # the reconcile pass are long settled by now — the restart lands
        # well before ``duration_us``).
        run_zeus_workload(cluster, spec_fn, duration_us=cfg.restart_wave_us,
                          threads=cfg.app_threads, seed=seed + 9999,
                          on_commit=rig.on_commit, stats=rig.stats)
    if cfg.placement:
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
    cluster.run(until=cluster.sim.now + cfg.quiesce_us)
    if schedule.has_elastic:
        rig.converge(4 * cfg.quiesce_us)

    audit = rig.audit(history=recorder)
    failures = cluster.failures
    timeline = [f"crash(t={t:.0f},n{n})" for t, n in failures.crashed]
    timeline += [f"recover(t={t:.0f},n{n})" for t, n in failures.recovered]
    timeline += [f"partition(t={t:.0f},{list(a)}|{list(b)})"
                 for t, a, b in failures.partitions]
    timeline += [f"heal(t={t:.0f},{list(a)}|{list(b)})"
                 for t, a, b in failures.heals]
    timeline += [f"slow(t={t:.0f},n{n},x{f:g})"
                 for t, n, f in failures.slowdowns]
    timeline += [f"power_loss(t={t:.0f})" for t in failures.power_losses]
    timeline += [f"cold_restart(t={t:.0f})" for t in failures.cold_restarts]
    timeline += [f"add(t={t:.0f},n{n})" for t, n in failures.added]
    timeline += [f"drain(t={t:.0f},n{n})" for t, n in failures.drained]
    timeline.sort(key=lambda s: float(s.split("t=", 1)[1].split(",", 1)[0].rstrip(")")))
    if schedule.has_fault_window:
        timeline.append("loss_burst")

    return RunReport(
        schedule_name=schedule.name,
        schedule_signature=schedule.signature(),
        seed=seed,
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
    :func:`run_campaign`, ``--show-schedules``, and the worst-cell trace
    re-run all derive schedules from here, so they can never disagree.
    """
    if cfg.elastic:
        # Alternate the two exits from a rebalance so one campaign covers
        # both: drain schedules retire a base node; power-loss schedules
        # (odd cells, durable tier on) kill the cluster mid-migration and
        # cold-start it.
        power = cfg.power_loss or (cfg.disk.enabled and index % 2 == 1)
        return generate_elastic_schedule(
            cfg.num_nodes, cfg.duration_us,
            seed=cfg.schedule_seed_base + index,
            difficulty=cfg.difficulty,
            add_count=cfg.elastic_add,
            power_loss=power,
        )
    return generate_schedule(
        cfg.num_nodes, cfg.duration_us,
        seed=cfg.schedule_seed_base + index,
        difficulty=cfg.difficulty,
        # The first schedule always crashes a node so every campaign
        # exercises detection + replay, whatever the rng picked.
        require_crash=(index == 0 and not cfg.power_loss),
        power_loss=cfg.power_loss,
    )


def run_campaign(cfg: Optional[CampaignConfig] = None,
                 progress: Optional[ProgressFn] = None) -> CampaignResult:
    """Run the full schedule × seed grid and aggregate the audits."""
    cfg = cfg or CampaignConfig()
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

    for i in range(cfg.num_schedules):
        schedule = campaign_schedule(cfg, i)
        result.schedules.append(schedule)
        for seed in cfg.seeds:
            report = run_chaos_once(schedule, seed, cfg, obs)
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
