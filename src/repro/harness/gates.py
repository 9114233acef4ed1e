"""Gates of the LB-routed scale-out experiments (``repro elastic`` /
``repro heatmap``), computed from what a :class:`~repro.harness.rig.Rig`
run leaves behind.

Every gate function returns the ``(gate, problem)`` list shape of
:meth:`repro.verify.audit.AuditReport.problems` — empty means passed — so
a command's verdict is the concatenation of its audits and its gates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["throughput_recovery", "recovery_problems", "locality_fall",
           "locality_problems", "pct"]

Problems = List[Tuple[str, str]]

#: Marks a scale-out leaves on the locality recorder's timeline.
SCALE_OUT_MARKS = ("add_nodes", "joiners_serving", "converged")


def pct(frac: Optional[float]) -> str:
    return "n/a" if frac is None else f"{frac:.1%}"


def throughput_recovery(samples: Sequence[Tuple[float, int]], add_at: float):
    """Fold windowed commit counts ``(window_end_us, committed)`` around a
    scale-out at ``add_at`` into ``(steady, pre_windows, recovered_at,
    final)``: steady state is the mean of the back half of the pre-add
    windows (the front half is cache/lease warmup), ``recovered_at`` the
    end of the first post-add window back above 90% of it (``None`` if
    there is none), ``final`` the mean of the last three windows."""
    pre = [c for end, c in samples if add_at / 2 < end <= add_at]
    steady = sum(pre) / max(1, len(pre))
    recovered_at = next((end for end, c in samples
                         if end > add_at and c >= 0.9 * steady), None)
    tail = [c for _end, c in samples[-3:]]
    return steady, len(pre), recovered_at, sum(tail) / max(1, len(tail))


def recovery_problems(steady: float, recovered_at: Optional[float],
                      final: float) -> Problems:
    """Throughput must come back to within 10% of the pre-scale-out
    steady state, and still be there at the end of the run."""
    if steady <= 0:
        return [("steady_state", "no commits in the steady-state windows")]
    problems = []
    if recovered_at is None:
        problems.append(("recovery", "no post-add window reached 90% of "
                                     "steady"))
    if final < 0.9 * steady:
        problems.append(("recovery", f"final throughput is {final / steady:.0%}"
                                     f" of steady (needs >= 90%)"))
    return problems


def locality_fall(loc, add_at: float, stop_at: float):
    """Remote fraction over the post-scale-out churn era vs the settled
    tail.  The churn era starts at the joiners' first served commit (the
    rig's ``joiners_serving`` mark — quarantine and the join barrier keep
    them dark for a while after ``add_nodes``); each window spans a third
    of the remaining run.  The churn figure is the *peak* timeline bin of
    that era: a trimmed replica's readers re-acquire on their next
    read-only transaction, which keeps the settled tail within noise of
    the churn-era mean, but the handover storm right after the joiners
    start serving still peaks well above the settled fraction.  Returns
    ``(serving_at, churn_peak, settled)``."""
    serving = next((at for _label, at, _info in loc.marks("joiners_serving")
                    if add_at <= at < stop_at), add_at)
    span = (stop_at - serving) / 3.0
    churn = None
    for t, local, remote in loc.remote_fraction_timeline():
        if serving <= t < serving + span and (local + remote) >= 50:
            frac = remote / (local + remote)
            churn = frac if churn is None else max(churn, frac)
    if churn is None:  # too few txns per bin: fall back to the era mean
        churn = loc.remote_fraction(serving, serving + span)
    return (serving, churn, loc.remote_fraction(stop_at - span, stop_at))


def locality_problems(report: dict, fall=None) -> Problems:
    """Gates of a :meth:`LocalityRecorder.report`: something was recorded
    and — given the :func:`locality_fall` of a scale-out run — the remote
    fraction *fell* once the rebalance settled, at least one migration
    paid for itself, and the scale-out left its marks on the timeline."""
    problems = []
    if not report["hot_keys"]:
        problems.append(("hot_keys", "hot-key table is empty (no accesses "
                                     "recorded)"))
    if fall is not None:
        _serving, churn, settled = fall
        if churn is None or settled is None or settled >= churn:
            problems.append(("remote_fraction",
                             f"did not fall after the scale-out settled "
                             f"({pct(churn)} -> {pct(settled)})"))
        if report["migrations"]["paid_back"] < 1:
            problems.append(("payback", "no migration payback computed"))
        seen = {label for label, _at, _info in report["marks"]}
        missing = [m for m in SCALE_OUT_MARKS if m not in seen]
        if missing:
            problems.append(("marks", f"scale-out left no "
                                      f"{', '.join(missing)} mark"))
    return problems
