"""Randomized schedule exploration over the full stack.

:mod:`repro.verify.exhaustive` enumerates *every* interleaving, but only
of the two protocol managers on one-object scenarios.  This explorer
trades exhaustiveness for reach: it runs many short histories of the
whole cluster (transport, membership, recovery, transactions) under
randomized message jitter, reordering, duplication, contention, and
crash-stop faults, and evaluates the same invariants during and after
each history.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..chaos.schedule import CrashEvent
from ..harness.rig import Rig, counter_catalog
from ..obs import HistoryRecorder, Observability
from ..sim.params import FaultParams
from .history import check_history
from .invariants import check_invariants, check_quiescent

__all__ = ["ExplorerConfig", "ExplorationResult", "explore", "seed_crash",
           "spawn_writers"]


@dataclass
class ExplorerConfig:
    num_nodes: int = 4
    num_objects: int = 6
    txns_per_node: int = 25
    #: Probability each history crashes one node mid-run.
    crash_prob: float = 0.5
    #: Network fault severity for the runs.
    faults: FaultParams = field(default_factory=lambda: FaultParams(
        loss_prob=0.02, duplicate_prob=0.02, reorder_max_us=6.0))
    #: How often (simulated µs) to re-check invariants mid-flight.
    check_interval_us: float = 200.0
    horizon_us: float = 400_000.0
    #: Record each history and check it for strict serializability.
    check_history: bool = True


@dataclass
class ExplorationResult:
    seeds_run: int = 0
    histories_with_crash: int = 0
    committed_total: int = 0
    violations: List[str] = field(default_factory=list)
    nonquiescent: List[str] = field(default_factory=list)
    #: Strict-serializability violations found by the history checker.
    history_violations: List[str] = field(default_factory=list)
    #: Per-seed history fingerprints (determinism regression surface).
    history_digests: List[str] = field(default_factory=list)

    def problems(self) -> List[Tuple[str, str]]:
        """Every finding as ``(gate, problem)``; empty means clean."""
        return ([("violation", v) for v in self.violations]
                + [("nonquiescent", n) for n in self.nonquiescent]
                + [("history", h) for h in self.history_violations])

    def digest(self) -> str:
        """Stable fingerprint of the whole exploration (same-seed runs
        must produce byte-identical digests)."""
        return "|".join([
            f"seeds={self.seeds_run}",
            f"crashes={self.histories_with_crash}",
            f"committed={self.committed_total}",
            f"violations={self.violations!r}",
            f"nonquiescent={self.nonquiescent!r}",
            f"hist_violations={self.history_violations!r}",
            "hist=" + ";".join(self.history_digests),
        ])


def spawn_writers(rig, txns_per_node: int) -> None:
    """The explorer/shrinker load: two app threads per node, each running
    ``txns_per_node`` one-or-two-object write transactions with random
    think time, all drawn from an RNG keyed by (seed, node, thread)."""
    cluster = rig.cluster
    num_objects = cluster.catalog.num_objects

    def app(node_id: int, thread: int):
        api = cluster.handles[node_id].api
        arng = random.Random((rig.seed, node_id, thread).__repr__())
        for _ in range(txns_per_node):
            k = arng.randrange(1, 3)
            write_set = arng.sample(range(num_objects), min(k, num_objects))
            r = yield from api.execute_write(thread, write_set)
            if r.committed:
                rig.stats.committed += 1
            yield arng.random() * 10.0

    for node_id in range(rig.num_nodes):
        for thread in range(2):
            cluster.spawn_app(node_id, thread, app(node_id, thread))


def seed_crash(seed: int, cfg: ExplorerConfig) -> Optional[CrashEvent]:
    """The crash history ``seed`` draws, if any — a pure function of its
    arguments, so a ``ReproRecipe`` can replay the history."""
    rng = random.Random(seed * 7919 + 13)
    if rng.random() < cfg.crash_prob:
        victim = rng.randrange(cfg.num_nodes)
        return CrashEvent(20.0 + rng.random() * 400.0, victim)
    return None


def _history(rig, seed: int, cfg: ExplorerConfig,
             result: ExplorationResult) -> None:
    cluster = rig.cluster
    spawn_writers(rig, cfg.txns_per_node)
    cluster.start_membership()
    crash = seed_crash(seed, cfg)
    if crash is not None:
        cluster.crash(crash.node, at=crash.at_us)
        result.histories_with_crash += 1

    now = 0.0
    while now < cfg.horizon_us:
        now += cfg.check_interval_us
        cluster.run(until=now)
        try:
            check_invariants(cluster)
        except AssertionError as err:
            result.violations.append(f"seed {seed} @t={now}: {err}")
            return
        if cluster.sim.peek_time() is None:
            break
    # Drain whatever remains (retransmits, recovery) and check quiescence.
    cluster.run(until=cfg.horizon_us * 2)
    problems = check_quiescent(cluster)
    # A pending arbitration whose requester timed out may legitimately
    # linger if nothing retries it; filter only hard failures.
    hard = [p for p in problems if "stuck" in p or "unvalidated" in p]
    if hard:
        result.nonquiescent.append(f"seed {seed}: {hard[:3]}")
    result.committed_total += rig.stats.committed


def explore(seeds: int = 20,
            cfg: Optional[ExplorerConfig] = None) -> ExplorationResult:
    """Run ``seeds`` randomized histories; returns aggregate findings."""
    cfg = cfg or ExplorerConfig()
    result = ExplorationResult()
    for seed in range(seeds):
        recorder = HistoryRecorder() if cfg.check_history else None
        obs = Observability(history=recorder) if recorder else None
        rig = Rig(counter_catalog(cfg.num_nodes, cfg.num_objects), seed, obs,
                  faults=cfg.faults)
        _history(rig, seed, cfg, result)
        result.seeds_run += 1
        if recorder is not None:
            check = check_history(recorder)
            result.history_digests.append(f"seed {seed}: {check.digest()}")
            for v in check.violations:
                result.history_violations.append(
                    f"seed {seed}: {v.describe()}")
    return result
