"""Seeded scenario generation: randomized-but-deterministic schedules.

``generate_schedule(seed=...)`` derives every choice from one
``random.Random`` seeded with a stable string, so the same (seed,
difficulty, cluster shape) always yields the same timeline — the property
the campaign runner's determinism audit depends on.

The **difficulty** knob (0..3) scales how many adversities stack up and
how severe each is:

* difficulty 0 — none: the empty schedule (the fault-free control cell);
* difficulty 1 — one adversity (a burst-loss window, a healing partition,
  *or* a gray slowdown);
* difficulty 2 — two of them, possibly plus a crash;
* difficulty 3 — all of them, with higher loss rates, longer windows, a
  likely crash, and a degraded link during the partition's aftermath.

Crashes are placed in the first 40% of the horizon and partitions always
heal by 70%, leaving the tail for failure detection (3 heartbeats + a full
lease) and the recovery protocols to finish before the audit runs.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..sim.params import FaultParams
from .schedule import (
    AddNodesEvent,
    ChaosEventType,
    ClusterRestartEvent,
    CrashEvent,
    DrainEvent,
    FaultSchedule,
    FaultWindowEvent,
    PartitionEvent,
    RecoverEvent,
    SlowdownEvent,
)

__all__ = ["generate_schedule", "generate_elastic_schedule",
           "generate_sweep_schedule"]


def _split(rng: random.Random, nodes: List[int]):
    """A random two-group split with a small minority side."""
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    cut = rng.randrange(1, max(2, len(nodes) // 2 + 1))
    return tuple(sorted(shuffled[:cut])), tuple(sorted(shuffled[cut:]))


def generate_schedule(num_nodes: int, horizon_us: float, seed: int,
                      difficulty: int = 2,
                      allow_crash: bool = True,
                      require_crash: bool = False,
                      allow_recovery: bool = True,
                      power_loss: bool = False,
                      name: Optional[str] = None) -> FaultSchedule:
    """Produce a validated, deterministic schedule for one run.

    ``power_loss=True`` switches to the durability scenario: a single
    :class:`ClusterRestartEvent` powers off the whole cluster mid-run and
    cold-starts it.  Other adversities are confined to *before* the
    outage — the reconcile pass after the cold restart must converge over
    a clean network for the post-restart audits to be meaningful (and
    deterministic); crash/recover pairs are skipped entirely because the
    restart revives every node anyway."""
    if not 0 <= difficulty <= 3:
        raise ValueError(f"difficulty must be 0..3, got {difficulty}")
    if difficulty == 0:
        return FaultSchedule([], name=name or f"gen-s{seed}-d0")
    rng = random.Random(f"chaos-schedule/{seed}/{difficulty}/{num_nodes}")
    nodes = list(range(num_nodes))
    events: List[ChaosEventType] = []

    if power_loss:
        if difficulty >= 2:
            start = horizon_us * rng.uniform(0.05, 0.15)
            events.append(FaultWindowEvent(
                at_us=start, end_us=start + horizon_us * 0.10,
                params=FaultParams(
                    loss_prob=0.02 * difficulty,
                    duplicate_prob=0.01 * difficulty,
                    reorder_max_us=4.0,
                    reorder_prob=0.5,
                )))
        events.append(ClusterRestartEvent(
            at_us=horizon_us * rng.uniform(0.40, 0.55),
            outage_us=horizon_us * rng.uniform(0.04, 0.08)))
        schedule = FaultSchedule(
            events, name=name or f"power-s{seed}-d{difficulty}")
        schedule.validate(num_nodes, horizon_us)
        return schedule

    kinds = ["loss", "partition", "slowdown"]
    rng.shuffle(kinds)
    picked = kinds if difficulty >= 3 else kinds[:difficulty]

    if "loss" in picked:
        start = horizon_us * rng.uniform(0.05, 0.25)
        length = horizon_us * rng.uniform(0.10, 0.10 + 0.05 * difficulty)
        events.append(FaultWindowEvent(
            at_us=start, end_us=start + length,
            params=FaultParams(
                loss_prob=0.04 * difficulty + rng.uniform(0, 0.03),
                duplicate_prob=0.02 * difficulty,
                reorder_max_us=4.0 + 2.0 * difficulty,
                reorder_prob=0.5,
            )))

    if "partition" in picked and num_nodes >= 2:
        a_side, b_side = _split(rng, nodes)
        start = horizon_us * rng.uniform(0.30, 0.45)
        heal = start + horizon_us * rng.uniform(0.10, 0.25)
        events.append(PartitionEvent(at_us=start, a_side=a_side,
                                     b_side=b_side,
                                     heal_at_us=min(heal, horizon_us * 0.7)))
        if difficulty >= 3:
            # The healed link comes back degraded for a while (gray link).
            a, b = a_side[0], b_side[0]
            events.append(SlowdownEvent(
                at_us=min(heal, horizon_us * 0.7) + 1.0,
                node=rng.choice([a, b]),
                factor=1.5 + rng.random(),
                end_us=horizon_us * 0.85))

    if "slowdown" in picked:
        victim = rng.choice(nodes)
        start = horizon_us * rng.uniform(0.10, 0.40)
        length = horizon_us * rng.uniform(0.15, 0.30)
        events.append(SlowdownEvent(
            at_us=start, node=victim,
            factor=2.0 + difficulty + rng.random() * 2.0,
            end_us=min(start + length, horizon_us * 0.8)))

    crash_prob = {1: 0.25, 2: 0.5, 3: 0.75}[difficulty]
    if num_nodes >= 3 and (require_crash
                           or (allow_crash and rng.random() < crash_prob)):
        # Crash a node not already isolated by the partition's minority
        # side, early enough that lease expiry + recovery fit the horizon.
        victim = rng.choice(nodes)
        events.append(CrashEvent(at_us=horizon_us * rng.uniform(0.10, 0.40),
                                 node=victim))
        if difficulty >= 2 and allow_recovery:
            # Crash→recover pair: the node reboots after every partition
            # has healed (by 70%), exercising re-admission, state transfer
            # and degree repair in the remaining tail + quiesce window.
            # Drawn *after* the crash draw so difficulty-1 streams (and
            # crash placement at any difficulty) are unchanged per seed.
            events.append(RecoverEvent(
                at_us=horizon_us * rng.uniform(0.72, 0.85), node=victim))

    schedule = FaultSchedule(events, name=name or f"gen-s{seed}-d{difficulty}")
    schedule.validate(num_nodes, horizon_us)
    return schedule


def generate_elastic_schedule(num_nodes: int, horizon_us: float, seed: int,
                              difficulty: int = 2,
                              add_count: int = 2,
                              power_loss: bool = False,
                              name: Optional[str] = None) -> FaultSchedule:
    """A reconfiguration-under-fire timeline: scale-out, then adversity.

    Every schedule begins with an :class:`AddNodesEvent` in the first
    quarter of the horizon, so the rebalancer's migration runs while the
    rest of the adversity lands on top of it:

    * difficulty 1 — scale-out plus a graceful drain, no faults;
    * difficulty 2 — additionally crashes the first joiner mid-rebalance
      (paired recovery late in the horizon) and opens a burst-loss window
      around the admission;
    * difficulty 3 — additionally partitions the drain target just after
      its drain begins, healing in time for the drain to finish.

    ``power_loss=True`` replaces the drain with a full-cluster power loss
    mid-rebalance (drain + cold restart in one schedule is ambiguous —
    see :meth:`FaultSchedule.validate`).

    Uses its own rng stream (``.../elastic``), so adding this generator
    changes no existing schedule.
    """
    if not 1 <= difficulty <= 3:
        raise ValueError(f"difficulty must be 1..3, got {difficulty}")
    if num_nodes < 4:
        raise ValueError("elastic schedules need >= 4 base nodes (3 frozen "
                         "directory hosts + a drainable node)")
    rng = random.Random(
        f"chaos-schedule/{seed}/{difficulty}/{num_nodes}/elastic")
    events: List[ChaosEventType] = []

    add_at = horizon_us * rng.uniform(0.15, 0.25)
    events.append(AddNodesEvent(at_us=add_at, count=add_count))
    joiner = num_nodes  # first fresh id

    if difficulty >= 2:
        events.append(FaultWindowEvent(
            at_us=add_at - horizon_us * 0.05,
            end_us=add_at + horizon_us * 0.05,
            params=FaultParams(
                loss_prob=0.02 * difficulty,
                duplicate_prob=0.01 * difficulty,
                reorder_max_us=4.0,
                reorder_prob=0.5,
            )))
        # Crash the joining node while the rebalancer is still feeding it.
        crash_at = add_at + horizon_us * rng.uniform(0.03, 0.08)
        events.append(CrashEvent(at_us=crash_at, node=joiner))
        if not power_loss:
            # With a power loss the cold restart revives the joiner; a
            # paired RecoverEvent after it would be invalid.
            events.append(RecoverEvent(
                at_us=horizon_us * rng.uniform(0.72, 0.85), node=joiner))

    if power_loss:
        # Power loss mid-rebalance instead of a drain: the whole cluster
        # dies while ownership is mid-flight toward the joiners.
        events.append(ClusterRestartEvent(
            at_us=horizon_us * rng.uniform(0.35, 0.45),
            outage_us=horizon_us * rng.uniform(0.04, 0.08)))
    else:
        drain_node = num_nodes - 1  # highest base id: never a dir host
        drain_at = horizon_us * rng.uniform(0.42, 0.50)
        events.append(DrainEvent(at_us=drain_at, node=drain_node))
        if difficulty >= 3:
            # Partition the drain target right after its drain begins; the
            # drain stalls until the heal, then must still finish.
            cut = drain_at + horizon_us * rng.uniform(0.01, 0.03)
            others = tuple(n for n in range(num_nodes) if n != drain_node)
            events.append(PartitionEvent(
                at_us=cut, a_side=(drain_node,), b_side=others,
                heal_at_us=cut + horizon_us * rng.uniform(0.08, 0.12)))

    mode = "power" if power_loss else "drain"
    schedule = FaultSchedule(
        events, name=name or f"elastic-{mode}-s{seed}-d{difficulty}")
    schedule.validate(num_nodes, horizon_us)
    return schedule


def generate_sweep_schedule(num_nodes: int, seed: int) -> FaultSchedule:
    """The randomized sweep's draw for ``seed``: with probability one half
    a single crash-stop of a random node 20-420 us into the run, else
    nothing — so every sweep also audits strict fault-free cells."""
    rng = random.Random(seed * 7919 + 13)
    events: List[ChaosEventType] = []
    if rng.random() < 0.5:
        victim = rng.randrange(num_nodes)
        events.append(CrashEvent(20.0 + rng.random() * 400.0, victim))
    return FaultSchedule(events, name="sweep")
