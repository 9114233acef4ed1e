"""Counterexample minimization: delta-debug a failing cell.

When an audit flags a seeded, fault-injected run, the raw counterexample
is usually huge — a handful of overlapping fault events, a hundred
simulated milliseconds, tens of thousands of transactions.  :func:`shrink`
reduces it the way ``ddmin`` reduces failing inputs: re-run the *same
seed* through the one runner (:func:`repro.chaos.campaign.run_cell`) with
a shorter workload window, subsets of the fault events and a shorter
drain, keeping every reduction after which *any gate the original failed*
still fails, until nothing shrinks any more.  Because a run is a pure
function of its :class:`~repro.chaos.campaign.Recipe`, "still reproduces"
is a deterministic predicate — no flakiness budget, no retries.

The output is a minimal ``Recipe`` from any campaign, sweep or hand-built
cell: feed it back to ``run_cell`` (or print :meth:`ShrinkResult.describe`
into a bug report) and the failure reproduces byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..chaos.campaign import Recipe, RunReport, run_cell
from ..chaos.schedule import ChaosEventType

__all__ = ["ShrinkResult", "shrink"]

#: Neither the window nor the drain is halved below this.
_FLOOR_US = 1_000.0


@dataclass
class ShrinkResult:
    """Outcome of one minimization."""

    original: RunReport
    minimized: RunReport
    runs: int = 0

    @property
    def events_before(self) -> int:
        return len(self.original.recipe.events)

    @property
    def events_after(self) -> int:
        return len(self.minimized.recipe.events)

    def describe(self) -> str:
        before, after = self.original.recipe, self.minimized.recipe
        return (
            f"shrunk {self.events_before} fault events -> "
            f"{self.events_after}, window {before.duration_us:g} -> "
            f"{after.duration_us:g} us, quiesce {before.quiesce_us:g} -> "
            f"{after.quiesce_us:g} us ({self.runs} re-runs)\n"
            + after.describe() + "\n"
            + "\n".join(f"  FAILED [{gate}]: {problem}"
                        for gate, problem in self.minimized.audit.problems()))


def shrink(recipe: Recipe, report: Optional[RunReport] = None,
           check_every_us: Optional[float] = None) -> ShrinkResult:
    """Minimize a failing cell; ``recipe`` must fail at least one gate.

    ``report`` is the recipe's own report if the caller already has it;
    ``check_every_us`` is passed to every re-run (a sweep cell that failed
    mid-flight only fails again when checked mid-flight)."""
    ran_original = report is None
    if ran_original:
        report = run_cell(recipe, check_every_us=check_every_us)
    if report.ok:
        raise ValueError("recipe passes every gate; nothing to shrink")
    want = {gate for gate, _problem in report.audit.problems()}

    tried: Dict[Recipe, Optional[RunReport]] = {}

    def reproduces(candidate: Recipe) -> Optional[RunReport]:
        if candidate not in tried:
            try:
                res = run_cell(candidate, check_every_us=check_every_us)
            except ValueError:
                res = None  # ill-formed event subset
            if res is not None and not any(
                    gate in want for gate, _problem in res.audit.problems()):
                res = None
            tried[candidate] = res
        return tried[candidate]

    def halve(best: RunReport, knob: str, same_verdict: bool) -> RunReport:
        while getattr(best.recipe, knob) / 2 >= _FLOOR_US:
            res = reproduces(replace(
                best.recipe, **{knob: getattr(best.recipe, knob) / 2}))
            if res is None or (same_verdict and res.audit.problems()
                               != best.audit.problems()):
                break
            best = res
        return best

    best, settled = report, None
    while settled != best.recipe:
        settled = best.recipe
        # The window first: every later re-run is that much cheaper.
        best = halve(best, "duration_us", same_verdict=False)
        if best.recipe.events:
            # Cheap first probe: many failures don't need faults at all.
            best = (reproduces(replace(best.recipe, events=()))
                    or _ddmin(best, reproduces))
        # The drain causes nothing, it only lets the cell settle: shorten
        # it while the verdict stays exactly what it was (an undrained
        # cell fails liveness for no reason of the defect's).
        best = halve(best, "quiesce_us", same_verdict=True)
    return ShrinkResult(report, best, runs=len(tried) + ran_original)


def _ddmin(best: RunReport, reproduces) -> RunReport:
    """Classic complement-based ddmin over the event list."""
    events: List[ChaosEventType] = list(best.recipe.events)
    base = best.recipe
    n = 2
    while len(events) >= 2:
        chunk = max(1, len(events) // n)
        reduced = False
        for start in range(0, len(events), chunk):
            complement = events[:start] + events[start + chunk:]
            res = reproduces(replace(base, events=tuple(complement)))
            if res is not None:
                events, best = complement, res
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
            events, best = complement, res
        else:
            i += 1
    return best
