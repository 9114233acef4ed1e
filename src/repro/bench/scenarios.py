"""The standard bench scenarios: fixed-seed cells of the perf trajectory.

Each scenario is a named, deterministic simulation run sized so the whole
suite finishes in tens of seconds: a Smallbank steady state, a TATP
read-heavy steady state, a Voter run with a mid-run contestant migration
(ownership-protocol churn), and one chaos campaign cell (difficulty-2
fault schedule + audits).  Scenario *outcomes* — committed/aborted
transactions, events executed, final simulated clock, scenario-specific
extras — are pure functions of the seed; only the host-side measurements
(wall time, events/sec, RSS) vary between machines and runs.

``scale`` shrinks a scenario proportionally (accounts, duration) so tests
can re-run cells cheaply; committed ``BENCH_*.json`` files always use
``scale=1.0`` and record the resolved config.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Optional

from ..harness.zeus_cluster import ZeusCluster
from ..obs import Observability
from ..sim.params import SimParams

__all__ = ["ScenarioOutcome", "Scenario", "SCENARIOS", "get_scenario"]


class ScenarioOutcome:
    """Deterministic results of one scenario run (host timing lives in the
    profiler, not here)."""

    __slots__ = ("committed", "aborted", "events_executed", "sim_now_us",
                 "extra")

    def __init__(self, committed: int, aborted: int, events_executed: int,
                 sim_now_us: float, extra: Optional[Dict[str, Any]] = None):
        self.committed = committed
        self.aborted = aborted
        self.events_executed = events_executed
        self.sim_now_us = sim_now_us
        #: Scenario-specific deterministic fields (migrated objects,
        #: audit verdicts, ...) folded into the digest.
        self.extra = extra or {}

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "committed": self.committed,
            "aborted": self.aborted,
            "events_executed": self.events_executed,
            "sim_now_us": self.sim_now_us,
        }
        if self.extra:
            doc["extra"] = self.extra
        doc["digest"] = self.digest()
        return doc

    def digest(self) -> str:
        """sha256 over the canonical JSON of the deterministic *outcome*
        fields: same seed ⇒ same digest, on any machine, profiled or not,
        observability on or off.

        ``events_executed`` is deliberately excluded: history recording
        legitimately schedules extra bookkeeping events (durability-future
        callbacks via ``sim.call_soon``) that never touch model state, so
        the event count measures cost, not outcome.
        """
        payload = {
            "committed": self.committed,
            "aborted": self.aborted,
            "sim_now_us": self.sim_now_us,
            "extra": self.extra,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


RunFn = Callable[[int, float, Observability], ScenarioOutcome]


class Scenario:
    """A registered bench scenario."""

    __slots__ = ("name", "description", "run", "config")

    def __init__(self, name: str, description: str, run: RunFn,
                 config: Dict[str, Any]):
        self.name = name
        self.description = description
        self.run = run
        #: Resolved scale-1.0 parameters, recorded into the BENCH file.
        self.config = config


def _scaled(n: int, scale: float, lo: int = 1) -> int:
    return max(lo, int(round(n * scale)))


# --------------------------------------------------------------- smallbank

_SB = dict(nodes=3, accounts_per_node=400, remote_frac=0.1,
           duration_us=8_000.0, threads=2)


def _steady_state(cfg: Dict[str, Any], wl, init_value: int, seed: int,
                  scale: float, obs: Observability) -> ScenarioOutcome:
    """Load ``wl``'s catalog on a fresh cluster and drive it closed-loop
    for the scenario's (scaled) duration."""
    from ..workloads.base import run_zeus_workload

    params = SimParams().scaled_threads(app=cfg["threads"], worker=2)
    cluster = ZeusCluster(cfg["nodes"], params=params, catalog=wl.catalog,
                          seed=seed, obs=obs)
    cluster.load(init_value=init_value)
    stats = run_zeus_workload(cluster, wl.spec_for,
                              duration_us=cfg["duration_us"] * scale,
                              threads=cfg["threads"], seed=seed)
    return ScenarioOutcome(stats.committed, stats.aborted_txns,
                           cluster.sim.events_executed, cluster.sim.now,
                           extra={"retries": stats.retries,
                                  "ownership_requests": stats.ownership_requests})


def _run_smallbank(seed: int, scale: float, obs: Observability) -> ScenarioOutcome:
    from ..workloads.smallbank import SmallbankWorkload

    wl = SmallbankWorkload(_SB["nodes"],
                           accounts_per_node=_scaled(_SB["accounts_per_node"],
                                                     scale, lo=50),
                           remote_frac=_SB["remote_frac"], seed=7)
    return _steady_state(_SB, wl, 100, seed, scale, obs)


# -------------------------------------------------------------------- tatp

_TATP = dict(nodes=3, subscribers_per_node=600, remote_frac=0.05,
             duration_us=8_000.0, threads=2)


def _run_tatp(seed: int, scale: float, obs: Observability) -> ScenarioOutcome:
    from ..workloads.tatp import TatpWorkload

    wl = TatpWorkload(_TATP["nodes"],
                      subscribers_per_node=_scaled(
                          _TATP["subscribers_per_node"], scale, lo=50),
                      remote_frac=_TATP["remote_frac"], seed=11)
    return _steady_state(_TATP, wl, 0, seed, scale, obs)


# --------------------------------------------------- voter + migration churn

_VOTER = dict(nodes=3, voters=1_500, contestants=12, duration_us=9_000.0,
              threads=2, move_at_frac=0.33, mover_threads=6)


def _run_voter_migration(seed: int, scale: float,
                         obs: Observability) -> ScenarioOutcome:
    from ..workloads.voter import VoterWorkload, migrate_objects
    from ..workloads.base import run_zeus_workload

    params = SimParams().scaled_threads(app=_VOTER["threads"], worker=2)
    wl = VoterWorkload(_VOTER["nodes"],
                       voters=_scaled(_VOTER["voters"], scale, lo=100),
                       contestants=_VOTER["contestants"], seed=17)
    cluster = ZeusCluster(_VOTER["nodes"], params=params, catalog=wl.catalog,
                          seed=seed, obs=obs)
    cluster.load(init_value=0)

    duration = _VOTER["duration_us"] * scale
    migrated: List[int] = []
    progress: List[float] = []

    def churn():
        # Mid-run the LB re-pins the most popular contestant (0) to another
        # node; its row plus every follower's history row must migrate
        # while votes keep flowing — the Figure 10/11 shape.
        yield duration * _VOTER["move_at_frac"]
        target = 1 % _VOTER["nodes"]
        oids = wl.move_contestant(0, target)
        migrated.extend(oids)
        migrate_objects(cluster, target, oids,
                        threads=_VOTER["mover_threads"], progress=progress)

    cluster.spawn_app(0, 0, churn(), name="churn")
    stats = run_zeus_workload(cluster, wl.spec_for, duration_us=duration,
                              threads=_VOTER["threads"], seed=seed)
    # Drain the migration tail past the vote window.
    cluster.run(until=duration + 6_000.0 * scale)
    return ScenarioOutcome(stats.committed, stats.aborted_txns,
                           cluster.sim.events_executed, cluster.sim.now,
                           extra={"objects_to_migrate": len(migrated),
                                  "objects_migrated": len(progress)})


# ---------------------------------------------------------- chaos cell (d2)

_CHAOS = dict(nodes=4, objects=8, duration_us=12_000.0, quiesce_us=12_000.0,
              difficulty=2, schedule_seed=104, threads=2)


def _chaos_cell(spec: Dict[str, Any], schedule_for, seed: int, scale: float,
                obs: Observability, **mode) -> ScenarioOutcome:
    """One audited campaign cell at ``spec``'s sizes under the schedule
    ``schedule_for(cfg)``; ``mode`` carries the elastic switches."""
    from ..chaos.campaign import CampaignConfig, run_chaos_once

    cfg = CampaignConfig(num_nodes=spec["nodes"],
                         num_objects=spec["objects"],
                         duration_us=spec["duration_us"] * scale,
                         quiesce_us=spec["quiesce_us"] * scale,
                         app_threads=spec["threads"],
                         difficulty=spec["difficulty"],
                         schedule_seed_base=spec["schedule_seed"], **mode)
    report = run_chaos_once(schedule_for(cfg), seed, cfg, obs=obs)
    extra = {"audit_ok": report.ok,
             "schedule": report.schedule_signature,
             "timeline_events": len(report.timeline),
             "run_digest": hashlib.sha256(
                 report.digest().encode()).hexdigest()[:16]}
    if cfg.elastic:
        for name in ("objects_moved", "drains_completed"):
            extra[name] = obs.registry.counter_total(f"rebalance.{name}")
    return ScenarioOutcome(report.committed, report.aborted,
                           report.events_executed,
                           cfg.duration_us + cfg.quiesce_us, extra=extra)


def _run_chaos2(seed: int, scale: float, obs: Observability) -> ScenarioOutcome:
    from ..chaos.generator import generate_schedule

    # Not campaign cell 0: that one forces a crash (a different rng draw).
    return _chaos_cell(_CHAOS, lambda cfg: generate_schedule(
        cfg.num_nodes, cfg.duration_us, seed=cfg.schedule_seed_base,
        difficulty=cfg.difficulty), seed, scale, obs)


# ------------------------------------------------- elastic reconfiguration

_ELASTIC = dict(nodes=4, objects=8, duration_us=14_000.0,
                quiesce_us=14_000.0, difficulty=3, schedule_seed=100,
                threads=2, add=2)


def _run_elastic(seed: int, scale: float, obs: Observability) -> ScenarioOutcome:
    from ..chaos.campaign import campaign_schedule

    return _chaos_cell(_ELASTIC, lambda cfg: campaign_schedule(cfg, 0),
                       seed, scale, obs,
                       elastic=True, elastic_add=_ELASTIC["add"])


SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in [
        Scenario("smallbank",
                 "Smallbank steady state (3 nodes, 10% remote)",
                 _run_smallbank, dict(_SB)),
        Scenario("tatp",
                 "TATP read-heavy steady state (3 nodes, 5% remote)",
                 _run_tatp, dict(_TATP)),
        Scenario("voter_migration",
                 "Voter with mid-run contestant migration churn",
                 _run_voter_migration, dict(_VOTER)),
        Scenario("chaos2",
                 "One audited chaos campaign cell (difficulty 2)",
                 _run_chaos2, dict(_CHAOS)),
        Scenario("elastic",
                 "Scale-out + drain under chaos (one audited d3 cell)",
                 _run_elastic, dict(_ELASTIC)),
    ]
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
