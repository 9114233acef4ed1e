"""The five pinned scenario cells: fixed-seed runs whose outcome digests
are committed in ``tests/golden_scenario_digests.json``.

Each scenario is a named, deterministic simulation run sized so the whole
set finishes in seconds: a Smallbank steady state, a TATP read-heavy
steady state, a Voter run with a mid-run contestant migration
(ownership-protocol churn), one chaos campaign cell (difficulty-2 fault
schedule + audits) and one elastic cell (scale-out + drain under chaos).
A scenario's :class:`ScenarioOutcome` — committed/aborted transactions,
final simulated clock, scenario-specific extras — is a pure function of
the seed: the same on any machine and interpreter, with or without
instruments attached.  Host-side cost is the business of ``perf/``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from ..obs import Observability
from ..workloads import (SmallbankWorkload, TatpWorkload, VoterWorkload,
                         migrate_objects, run_zeus_workload)
from .rig import loaded_cluster, steady_state

__all__ = ["ScenarioOutcome", "SCENARIOS"]


@dataclass
class ScenarioOutcome:
    """Deterministic results of one scenario run."""

    committed: int
    aborted: int
    events_executed: int
    sim_now_us: float
    #: Scenario-specific deterministic fields (migrated objects, audit
    #: verdicts, ...) folded into the digest.
    extra: Dict[str, Any] = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over the canonical JSON of the deterministic *outcome*
        fields: same seed ⇒ same digest, on any machine, profiled or not,
        observability on or off.

        ``events_executed`` is deliberately excluded: the event count
        measures what the run cost the kernel, not what it decided.
        """
        payload = {
            "committed": self.committed,
            "aborted": self.aborted,
            "sim_now_us": self.sim_now_us,
            "extra": self.extra,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


RunFn = Callable[[int, Observability], ScenarioOutcome]


def _steady_state(wl, init_value: int, seed: int,
                  obs: Observability) -> ScenarioOutcome:
    """``wl`` on its 3-node cluster, closed-loop for 8 ms with two threads
    per node."""
    cluster, stats = steady_state(wl, init_value, 2, 8_000.0,
                                  cluster_seed=seed, seed=seed, obs=obs)
    return ScenarioOutcome(stats.committed, stats.aborted_txns,
                           cluster.sim.events_executed, cluster.sim.now,
                           extra={"retries": stats.retries,
                                  "ownership_requests": stats.ownership_requests})


def _run_smallbank(seed: int, obs: Observability) -> ScenarioOutcome:
    wl = SmallbankWorkload(3, accounts_per_node=400, remote_frac=0.1, seed=7)
    return _steady_state(wl, 100, seed, obs)


def _run_tatp(seed: int, obs: Observability) -> ScenarioOutcome:
    wl = TatpWorkload(3, subscribers_per_node=600, remote_frac=0.05, seed=11)
    return _steady_state(wl, 0, seed, obs)


def _run_voter_migration(seed: int, obs: Observability) -> ScenarioOutcome:
    nodes, duration = 3, 9_000.0
    wl = VoterWorkload(nodes, voters=1_500, contestants=12, seed=17)
    cluster = loaded_cluster(wl.catalog, 2, seed=seed, obs=obs)

    migrated: List[int] = []
    progress: List[float] = []

    def churn():
        # Mid-run the LB re-pins the most popular contestant (0) to another
        # node; its row plus every follower's history row must migrate
        # while votes keep flowing — the Figure 10/11 shape.
        yield duration * 0.33
        target = 1 % nodes
        oids = wl.move_contestant(0, target)
        migrated.extend(oids)
        migrate_objects(cluster, target, oids, threads=6, progress=progress)

    cluster.spawn_app(0, 0, churn(), name="churn")
    stats = run_zeus_workload(cluster, wl.spec_for, duration_us=duration,
                              threads=2, seed=seed)
    # Drain the migration tail past the vote window.
    cluster.run(until=duration + 6_000.0)
    return ScenarioOutcome(stats.committed, stats.aborted_txns,
                           cluster.sim.events_executed, cluster.sim.now,
                           extra={"objects_to_migrate": len(migrated),
                                  "objects_migrated": len(progress)})


def _chaos_cell(recipe, obs: Observability) -> ScenarioOutcome:
    """One audited campaign cell."""
    from ..chaos.campaign import run_cell
    from ..chaos.schedule import AddNodesEvent, DrainEvent

    report = run_cell(recipe, obs)
    schedule = recipe.schedule
    extra = {"audit_ok": report.ok,
             "schedule": schedule.signature(),
             "timeline_events": len(report.timeline),
             "run_digest": hashlib.sha256(
                 report.digest().encode()).hexdigest()[:16]}
    if schedule.of(AddNodesEvent, DrainEvent):
        for name in ("objects_moved", "drains_completed"):
            extra[name] = obs.registry.counter_total(f"rebalance.{name}")
    return ScenarioOutcome(report.committed, report.aborted,
                           report.events_executed,
                           recipe.duration_us + recipe.quiesce_us, extra=extra)


def _run_chaos2(seed: int, obs: Observability) -> ScenarioOutcome:
    from ..chaos.campaign import Recipe
    from ..chaos.generator import generate_schedule

    cell = Recipe(duration_us=12_000.0, quiesce_us=12_000.0)
    # Not campaign cell 0: that one forces a crash (a different rng draw).
    return _chaos_cell(cell.of(generate_schedule(
        cell.num_nodes, cell.duration_us, seed=104, difficulty=2), seed), obs)


def _run_elastic(seed: int, obs: Observability) -> ScenarioOutcome:
    from ..chaos.campaign import CampaignConfig, Recipe, campaign_schedule

    cfg = CampaignConfig(cell=Recipe(duration_us=14_000.0,
                                     quiesce_us=14_000.0),
                         difficulty=3, elastic=True, elastic_add=2)
    return _chaos_cell(cfg.cell.of(campaign_schedule(cfg, 0), seed), obs)


#: name -> ``run(seed, obs)``; the golden test iterates this.
SCENARIOS: Dict[str, RunFn] = {
    "smallbank": _run_smallbank,
    "tatp": _run_tatp,
    "voter_migration": _run_voter_migration,
    "chaos2": _run_chaos2,
    "elastic": _run_elastic,
}
