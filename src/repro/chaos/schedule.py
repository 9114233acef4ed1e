"""Declarative fault schedules: time-windowed adversity for one run.

A :class:`FaultSchedule` is an ordered set of events against the simulated
clock, covering the full fault model Zeus claims to survive (Sections 3.1,
5, 6) plus the gray failures lease-based detection struggles with:

* :class:`CrashEvent` — crash-stop a node (it never returns unless a
  matching :class:`RecoverEvent` follows);
* :class:`RecoverEvent` — restart a previously crashed node: reboot under
  a fresh incarnation, re-admission, state transfer, and degree repair
  (the full rejoin path in :mod:`repro.recovery`);
* :class:`PartitionEvent` — sever every link between two node groups, and
  (optionally) heal it later — the case that distinguishes a correct
  reliable transport from one that silently desynchronizes;
* :class:`SlowdownEvent` — multiply one node's CPU costs for a window
  (gray failure: alive, correct, slow);
* :class:`FaultWindowEvent` — replace the network injector's
  :class:`~repro.sim.params.FaultParams` for a window (burst loss /
  duplication / reordering), making fault rates time-varying;
* :class:`ClusterRestartEvent` — power off the *entire* cluster at once
  and cold-start it after an outage: the durability tier's end-to-end
  test (WAL replay, snapshot restore, membership reform, tail
  reconcile).  Without the durability tier enabled the cluster comes
  back empty — the paper's in-memory semantics;
* :class:`AddNodesEvent` — live scale-out: boot fresh nodes through the
  quarantine/admission path mid-run; the background rebalancer then
  migrates ownership toward them (planned reconfiguration, not a fault —
  but chaos during it is exactly what the elastic schedules inject);
* :class:`DrainEvent` — graceful removal: migrate every duty off a node,
  wait out its in-flight work, halt and retire it under an epoch bump.

Schedules are plain data: they can be generated (see
:mod:`repro.chaos.generator`), hand-written in tests, printed, and hashed
for determinism checks.  Each event's ``inject(cluster)`` is one call of
its :class:`~repro.harness.zeus_cluster.ZeusCluster` fault verb, so a new
fault kind is one event class plus one verb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..sim.params import FaultParams

__all__ = ["CrashEvent", "RecoverEvent", "PartitionEvent", "SlowdownEvent",
           "FaultWindowEvent", "ClusterRestartEvent", "AddNodesEvent",
           "DrainEvent", "FaultSchedule", "ChaosEventType"]


@dataclass(frozen=True)
class CrashEvent:
    at_us: float
    node: int

    def describe(self) -> str:
        return f"t={self.at_us:.0f}us crash node {self.node}"

    def inject(self, cluster) -> None:
        cluster.crash(self.node, at=self.at_us)


@dataclass(frozen=True)
class RecoverEvent:
    at_us: float
    node: int

    def describe(self) -> str:
        return f"t={self.at_us:.0f}us recover node {self.node}"

    def inject(self, cluster) -> None:
        cluster.recover(self.node, at=self.at_us)


@dataclass(frozen=True)
class PartitionEvent:
    at_us: float
    a_side: Tuple[int, ...]
    b_side: Tuple[int, ...]
    #: When the partition heals; None = never (for the run's lifetime).
    heal_at_us: Optional[float] = None

    def describe(self) -> str:
        heal = (f", heals t={self.heal_at_us:.0f}us"
                if self.heal_at_us is not None else ", never heals")
        return (f"t={self.at_us:.0f}us partition {list(self.a_side)} | "
                f"{list(self.b_side)}{heal}")

    def inject(self, cluster) -> None:
        cluster.partition(self.a_side, self.b_side, at=self.at_us,
                          heal_at=self.heal_at_us)


@dataclass(frozen=True)
class SlowdownEvent:
    at_us: float
    node: int
    factor: float
    #: When full speed is restored; None = degraded for the run's lifetime.
    end_us: Optional[float] = None

    def describe(self) -> str:
        end = (f" until t={self.end_us:.0f}us"
               if self.end_us is not None else " permanently")
        return f"t={self.at_us:.0f}us slow node {self.node} x{self.factor:g}{end}"

    def inject(self, cluster) -> None:
        cluster.slow(self.node, self.factor, at=self.at_us, until=self.end_us)


@dataclass(frozen=True)
class FaultWindowEvent:
    at_us: float
    end_us: float
    params: FaultParams

    def describe(self) -> str:
        p = self.params
        return (f"t={self.at_us:.0f}us..{self.end_us:.0f}us faults "
                f"loss={p.loss_prob:g} dup={p.duplicate_prob:g} "
                f"reorder={p.reorder_max_us:g}us")

    def inject(self, cluster) -> None:
        cluster.fault_window(self.params, at=self.at_us, until=self.end_us)


@dataclass(frozen=True)
class ClusterRestartEvent:
    #: Power-loss instant: every node dies at once.
    at_us: float
    #: How long the power stays off; the cold restart begins at
    #: ``at_us + outage_us`` (replay time then delays the reformed view).
    outage_us: float = 500.0

    def describe(self) -> str:
        return (f"t={self.at_us:.0f}us power-loss all nodes, cold restart "
                f"t={self.at_us + self.outage_us:.0f}us")

    def inject(self, cluster) -> None:
        cluster.power_loss(at=self.at_us,
                           restart_at=self.at_us + self.outage_us)


@dataclass(frozen=True)
class AddNodesEvent:
    at_us: float
    count: int = 1

    def describe(self) -> str:
        return f"t={self.at_us:.0f}us add {self.count} node(s)"

    def inject(self, cluster) -> None:
        cluster.add_nodes(self.count, at=self.at_us)


@dataclass(frozen=True)
class DrainEvent:
    at_us: float
    node: int

    def describe(self) -> str:
        return f"t={self.at_us:.0f}us drain node {self.node}"

    def inject(self, cluster) -> None:
        cluster.drain(self.node, at=self.at_us)


ChaosEventType = Union[CrashEvent, RecoverEvent, PartitionEvent,
                       SlowdownEvent, FaultWindowEvent, ClusterRestartEvent,
                       AddNodesEvent, DrainEvent]


class FaultSchedule:
    """An ordered, validated fault timeline for one run."""

    __slots__ = ("events", "name")

    def __init__(self, events, name: str = "schedule"):
        self.events: Tuple[ChaosEventType, ...] = tuple(
            sorted(events, key=lambda e: (e.at_us, e.describe())))
        self.name = name

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    # ----------------------------------------------------------- validation

    def validate(self, num_nodes: int, horizon_us: Optional[float] = None) -> None:
        """Raise ``ValueError`` on an impossible schedule.

        ``num_nodes`` is the cluster size at install time; events may
        reference higher node ids only after an :class:`AddNodesEvent` has
        grown the id space (events are time-ordered, so the check walks the
        timeline with a running node count).
        """
        windows = []
        crashed_at: dict = {}
        drained: set = set()
        avail = num_nodes
        has_restart = bool(self.of(ClusterRestartEvent))
        for ev in self.events:
            if ev.at_us < 0:
                raise ValueError(f"event before t=0: {ev.describe()}")
            if horizon_us is not None and ev.at_us > horizon_us:
                raise ValueError(f"event past horizon: {ev.describe()}")
            if isinstance(ev, CrashEvent):
                if not 0 <= ev.node < avail:
                    raise ValueError(f"bad node in {ev.describe()}")
                if ev.node not in drained:
                    crashed_at[ev.node] = ev.at_us
            elif isinstance(ev, RecoverEvent):
                if not 0 <= ev.node < avail:
                    raise ValueError(f"bad node in {ev.describe()}")
                if ev.node in drained:
                    raise ValueError(
                        f"recovery of a retired node: {ev.describe()}")
                when = crashed_at.pop(ev.node, None)
                if when is None or ev.at_us <= when:
                    raise ValueError(
                        f"recovery without an earlier crash: {ev.describe()}")
            elif isinstance(ev, PartitionEvent):
                nodes = set(ev.a_side) | set(ev.b_side)
                if not ev.a_side or not ev.b_side:
                    raise ValueError(f"empty side in {ev.describe()}")
                if set(ev.a_side) & set(ev.b_side):
                    raise ValueError(f"overlapping sides in {ev.describe()}")
                if any(not 0 <= n < avail for n in nodes):
                    raise ValueError(f"bad node in {ev.describe()}")
                if ev.heal_at_us is not None and ev.heal_at_us <= ev.at_us:
                    raise ValueError(f"heal before cut in {ev.describe()}")
            elif isinstance(ev, SlowdownEvent):
                if not 0 <= ev.node < avail:
                    raise ValueError(f"bad node in {ev.describe()}")
                if ev.factor <= 0:
                    raise ValueError(f"bad factor in {ev.describe()}")
                if ev.end_us is not None and ev.end_us <= ev.at_us:
                    raise ValueError(f"window ends early in {ev.describe()}")
            elif isinstance(ev, FaultWindowEvent):
                if ev.end_us <= ev.at_us:
                    raise ValueError(f"window ends early in {ev.describe()}")
                windows.append((ev.at_us, ev.end_us))
            elif isinstance(ev, ClusterRestartEvent):
                if ev.outage_us <= 0:
                    raise ValueError(f"non-positive outage in {ev.describe()}")
                # The cold restart revives every node, including ones an
                # earlier CrashEvent took down; a later RecoverEvent for
                # them would be a no-op, and a later crash is fresh.
                crashed_at.clear()
            elif isinstance(ev, AddNodesEvent):
                if ev.count < 1:
                    raise ValueError(f"non-positive count in {ev.describe()}")
                avail += ev.count
            elif isinstance(ev, DrainEvent):
                if not 0 <= ev.node < avail:
                    raise ValueError(f"bad node in {ev.describe()}")
                if ev.node < min(3, num_nodes):
                    raise ValueError(
                        f"drain of a directory host: {ev.describe()}")
                if ev.node in drained:
                    raise ValueError(f"double drain: {ev.describe()}")
                if has_restart:
                    # A drain's completion time is not known statically, so
                    # whether the retired node should survive the restart is
                    # ambiguous — keep the two modes apart.
                    raise ValueError(
                        "drain and cluster restart in one schedule: "
                        f"{ev.describe()}")
                drained.add(ev.node)
        windows.sort()
        for (s1, e1), (s2, _e2) in zip(windows, windows[1:]):
            if s2 < e1:
                raise ValueError(
                    f"overlapping fault windows at t={s2:.0f}us (previous "
                    f"window runs to t={e1:.0f}us)")

    # -------------------------------------------------------------- queries

    def of(self, *kinds: type) -> Tuple[ChaosEventType, ...]:
        """The events that are instances of any of ``kinds``, in order."""
        return tuple(e for e in self.events if isinstance(e, kinds))

    def describe(self) -> str:
        if not self.events:
            return f"{self.name}: (no faults)"
        lines = [f"{self.name}:"]
        lines.extend(f"  {ev.describe()}" for ev in self.events)
        return "\n".join(lines)

    def signature(self) -> str:
        """A stable digest of the timeline — two runs with the same seed
        must produce byte-identical signatures."""
        return "; ".join(ev.describe() for ev in self.events)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FaultSchedule({self.name}, {len(self.events)} events)"
