"""Counterexample minimization: delta-debug a violating run.

When the history checker flags a seeded, fault-injected run, the raw
counterexample is usually huge — dozens of fault-schedule events, a few
hundred transactions, many objects.  :func:`shrink` reduces it the way
``ddmin`` reduces failing inputs: re-run the *same seed* with subsets of
the fault schedule, then smaller workloads, then fewer objects, keeping
every reduction that still reproduces a violation of the same category.
Because every run here is a pure function of its
:class:`ReproRecipe`, "still reproduces" is a deterministic predicate —
no flakiness budget, no retries.

The output is a minimal :class:`ReproRecipe`: feed it back to
:func:`run_recipe` (or print :meth:`ReproRecipe.describe` into a bug
report) and the violation reproduces byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..chaos.engine import ChaosEngine
from ..chaos.schedule import ChaosEventType, FaultSchedule
from ..harness.rig import Rig, counter_catalog
from ..obs import HistoryRecorder, Observability
from ..sim.params import FaultParams
from ..txn import transaction as _txn_mod
from .explorer import spawn_writers
from .history import HistoryCheckResult, check_history

__all__ = ["ReproRecipe", "ShrinkResult", "run_recipe", "shrink"]


@dataclass(frozen=True)
class ReproRecipe:
    """Everything needed to deterministically re-run one history."""

    seed: int
    num_nodes: int = 4
    num_objects: int = 6
    txns_per_node: int = 25
    events: Tuple[ChaosEventType, ...] = ()
    #: Network fault severity (constant outside fault-window events).
    faults: FaultParams = field(default_factory=lambda: FaultParams(
        loss_prob=0.02, duplicate_prob=0.02, reorder_max_us=6.0))
    horizon_us: float = 100_000.0
    #: Test-only: re-run with the broken commit path (skipped version
    #: bump) that the checker is expected to catch.
    broken_commit: bool = False

    def describe(self) -> str:
        lines = [
            f"repro: seed={self.seed} nodes={self.num_nodes} "
            f"objects={self.num_objects} txns/node={self.txns_per_node} "
            f"horizon={self.horizon_us:.0f}us"
            + (" broken-commit" if self.broken_commit else ""),
        ]
        if self.events:
            lines.extend(f"  {ev.describe()}" for ev in self.events)
        else:
            lines.append("  (no fault events)")
        return "\n".join(lines)


def run_recipe(recipe: ReproRecipe) -> HistoryCheckResult:
    """Re-run one recipe seed-pure and check its history.

    Raises ``ValueError`` if the event subset is not a well-formed
    schedule (e.g. a recovery whose crash was pruned) — :func:`shrink`
    treats that as "does not reproduce".
    """
    schedule = FaultSchedule(recipe.events, name="repro")
    schedule.validate(num_nodes=recipe.num_nodes)

    recorder = HistoryRecorder()
    rig = Rig(counter_catalog(recipe.num_nodes, recipe.num_objects),
              recipe.seed, Observability(history=recorder),
              faults=recipe.faults)
    cluster = rig.cluster
    ChaosEngine(cluster).install(schedule)
    spawn_writers(rig, recipe.txns_per_node)
    cluster.start_membership()

    saved_bump = _txn_mod.VERSION_BUMP
    try:
        if recipe.broken_commit:
            _txn_mod.VERSION_BUMP = 0
        cluster.run(until=recipe.horizon_us)
        # Drain retransmits/recovery so late responses are recorded.
        cluster.run(until=recipe.horizon_us * 2)
    finally:
        _txn_mod.VERSION_BUMP = saved_bump
    return check_history(recorder)


@dataclass
class ShrinkResult:
    """Outcome of one minimization."""

    original: ReproRecipe
    minimized: ReproRecipe
    original_result: HistoryCheckResult
    minimized_result: HistoryCheckResult
    runs: int = 0

    @property
    def events_before(self) -> int:
        return len(self.original.events)

    @property
    def events_after(self) -> int:
        return len(self.minimized.events)

    def describe(self) -> str:
        return (
            f"shrunk {self.events_before} fault events -> "
            f"{self.events_after}, "
            f"{self.original.txns_per_node} -> "
            f"{self.minimized.txns_per_node} txns/node, "
            f"{self.original.num_objects} -> "
            f"{self.minimized.num_objects} objects "
            f"({self.runs} re-runs)\n" + self.minimized.describe() + "\n"
            + self.minimized_result.describe())


def shrink(recipe: ReproRecipe,
           result: Optional[HistoryCheckResult] = None) -> ShrinkResult:
    """Minimize a violating run; ``recipe`` must reproduce a violation."""
    runs = [0]

    if result is None:
        result = run_recipe(recipe)
        runs[0] += 1
    if result.ok:
        raise ValueError("recipe does not reproduce a violation; "
                         "nothing to shrink")
    want = {v.category for v in result.violations}

    def reproduces(candidate: ReproRecipe):
        runs[0] += 1
        try:
            res = run_recipe(candidate)
        except ValueError:
            return None  # ill-formed event subset
        if any(v.category in want for v in res.violations):
            return res
        return None

    best, best_result = recipe, result

    # ---- 1. ddmin over the fault-schedule events.
    events = list(best.events)
    if events:
        # Cheap first probe: many violations don't need faults at all.
        res = reproduces(replace(best, events=()))
        if res is not None:
            events, best_result = [], res
        else:
            events, best_result = _ddmin(best, events, reproduces,
                                         best_result)
        best = replace(best, events=tuple(events))

    # ---- 2. Halve the workload while it still reproduces.
    while best.txns_per_node > 1:
        candidate = replace(best, txns_per_node=best.txns_per_node // 2)
        res = reproduces(candidate)
        if res is None:
            break
        best, best_result = candidate, res

    # ---- 3. Drop objects one power of two at a time.
    while best.num_objects > 1:
        candidate = replace(best,
                            num_objects=max(1, best.num_objects // 2))
        res = reproduces(candidate)
        if res is None:
            break
        best, best_result = candidate, res

    return ShrinkResult(recipe, best, result, best_result, runs=runs[0])


def _ddmin(base: ReproRecipe, events: List[ChaosEventType], reproduces,
           current_result: HistoryCheckResult):
    """Classic complement-based ddmin over the event list."""
    n = 2
    while len(events) >= 2:
        chunk = max(1, len(events) // n)
        reduced = False
        for start in range(0, len(events), chunk):
            complement = events[:start] + events[start + chunk:]
            res = reproduces(replace(base, events=tuple(complement)))
            if res is not None:
                events = complement
                current_result = res
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(events):
                break
            n = min(len(events), n * 2)
    # Final 1-minimality pass: drop single events.
    i = 0
    while i < len(events):
        complement = events[:i] + events[i + 1:]
        res = reproduces(replace(base, events=tuple(complement)))
        if res is not None:
            events = complement
            current_result = res
        else:
            i += 1
    return events, current_result
