"""The CLI's two gated experiments beyond the paper's evaluation, as
:class:`~repro.harness.figures.Figure` rows the runner runs down the
same ``run`` -> ``table`` -> ``bands`` path: ``repro elastic`` (one
LB-routed live scale-out, with its recovery and locality gates) and
``repro place`` (the static-vs-adaptive placement differential).  Not
paper artefacts, they are not in ``FIGURES`` and save no ``results/``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from ..placement import run_pair
from ..sim.params import DiskParams
from .figures import Figure, Problems
from .rig import Rig, counter_catalog
from .tables import format_table

__all__ = ["ELASTIC", "PLACE", "throughput_recovery", "recovery_problems",
           "locality_fall", "locality_problems"]

#: Marks a scale-out leaves on the locality recorder's timeline.
SCALE_OUT_MARKS = ("add_nodes", "joiners_serving", "converged")


def pct(frac: Optional[float]) -> str:
    return "n/a" if frac is None else f"{frac:.1%}"


# ------------------------------------------------------ repro elastic


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


def _elastic_run(nodes, add, objects, threads, remote, steady, after,
                 quiesce, window, groups, top, wal, seed, obs):
    """One LB-routed run (``obs`` carries a locality recorder), live
    scale-out ``nodes -> nodes + add`` at ``steady``: the LB pins each key
    (an object id) to a serving node, workers access the keys routed to
    *their* node plus a ``remote`` fraction, and after the add the LB
    shifts a fair share of keys onto the joiners and ownership follows.
    Throughput is sampled every ``window``; then the run settles (the
    rebalancer converges first after a scale-out) and is audited.  The
    bands are every audit and a non-empty hot-key table; with a scale-out
    also throughput back within 10% of steady state, the rebalancer
    converged, the remote fraction *falling* once it settled and at least
    one migration paying for itself."""
    loc = obs.locality
    rig = Rig(counter_catalog(nodes, objects), seed, obs, threads=threads,
              disk=DiskParams(enabled=wal))
    cluster, stats = rig.cluster, rig.stats
    cluster.start_membership()
    rig.add_lb((i, i % nodes) for i in range(objects))  # the initial owners
    stop_at = steady + after
    rig.start(rig.routed_spec(remote), stop_at)
    if add > 0:
        cluster.sim.call_at(steady, cluster.add_nodes, add)

    samples = []  # (window_end_us, committed_in_window)
    last, t = 0, 0.0
    while t < stop_at:
        t = min(t + window, stop_at)
        cluster.run(until=t)
        samples.append((t, stats.committed - last))
        last = stats.committed

    # Settle: let a scale-out's rebalance converge, drain, audit.
    done = rig.settle(quiesce, converge=add > 0)
    audit = rig.audit()
    counter = obs.registry.counter_total
    # Windows of whole time bins: the recorder counts a bin in a window
    # only if the bin starts inside it.
    span = max(1, round(stop_at / 10 / loc.bin_us)) * loc.bin_us
    report = loc.report(groups=groups, top=top)
    marks = sorted((at, label) for label, at, _info in report["marks"])
    return {
        "nodes": nodes, "add": add, "add_at": steady, "seed": seed,
        "window": window, "top": top, "committed": stats.committed,
        "recovery": throughput_recovery(samples, steady),
        "rebalancer": None if done is None else (
            counter("rebalance.objects_moved"), counter("rebalance.bytes"),
            counter("rebalance.inflight_aborts")),
        "converged": done is not None and done.done(),
        "locality": report,
        "timeline": [[f"{t:.0f}-{min(t + span, stop_at):.0f}",
                      pct(loc.remote_fraction(t, t + span)),
                      " ".join(label for at, label in marks
                               if t <= at < t + span)]
                     for t in (i * span
                               for i in range(math.ceil(stop_at / span)))],
        "fall": locality_fall(loc, steady, stop_at) if add > 0 else None,
        "audit": audit.problems(),
    }


def _elastic_table(out):
    steady, pre_windows, recovered_at, final = out["recovery"]
    add_at = out["add_at"]
    tps = lambda c: c / (out["window"] / 1e6)  # noqa: E731
    top = out["top"]
    lines = [(f"elastic: {out['nodes']} -> {out['nodes'] + out['add']} "
              f"nodes at t={add_at:.0f}us" if out["add"] > 0 else
              f"elastic: {out['nodes']} nodes, no scale-out")
             + f" ({out['committed']} txns committed, seed {out['seed']})",
             f"  steady state : {tps(steady):>12,.0f} tps "
             f"(mean of {pre_windows} windows before t={add_at:.0f}us)"]
    if out["add"] > 0:
        lines.append(
            f"  recovered    : t={recovered_at:.0f}us (+"
            f"{recovered_at - add_at:.0f}us after the add, first window back"
            f" above 90% of steady)" if recovered_at is not None else
            "  recovered    : NEVER (no post-add window reached 90% of "
            "steady)")
    lines.append(f"  final        : {tps(final):>12,.0f} tps "
                 f"({final / (steady or 1):.0%} of steady, last 3 windows)")
    if out["rebalancer"] is not None:
        moved, nbytes, aborts = out["rebalancer"]
        lines.append(f"  rebalancer   : {moved} objects moved, {nbytes} "
                     f"bytes, {aborts} in-flight aborts, "
                     f"converged={out['converged']}")

    def table(title, headers, rows) -> None:
        lines.extend(["", title])
        lines.extend("    " + line.rstrip()
                     for line in format_table(headers, rows).splitlines())

    report = out["locality"]
    totals = report["totals"]
    causes, routes = totals["causes"], totals["routes"]
    lines += [f"  remote       : {totals['remote']} of {totals['txns']} txns "
              f"({totals['remote_fraction']:.1%}) — routing miss "
              f"{causes['routing_miss']}, migrating {causes['migrating']}, "
              f"shared {causes['shared']}",
              f"  lb routing   : {routes['hits']} hits, {routes['misses']} "
              f"misses, {routes['repins']} re-pins"]
    heat = report["heatmap"]
    table(f"  access heatmap (decayed counts, object groups of "
          f"{heat['group_size']}):", ["node", *heat["groups"]],
          [[nid, *(f"{c:.1f}" for c in row)]
           for nid, row in zip(heat["nodes"], heat["counts"])])
    table("  remote-fraction timeline:", ["window (us)", "remote", "marks"],
          out["timeline"])
    skew = report["skew"]
    table(f"  hot keys (top {top} of {skew['distinct_tracked']} tracked; "
          f"top-1 share {skew['top1_share']:.1%}, top-10 "
          f"{skew['top10_share']:.1%}):",
          ["oid", "total", "share", "per-node"],
          [[row["oid"], f"{row['total']:.1f}", f"{row['share']:.1%}",
            ", ".join(f"n{n}:{c:.0f}" for n, c in row["per_node"].items())]
           for row in report["hot_keys"]])

    mig = report["migrations"]
    lines += ["", f"  migrations   : {mig['handovers']} handovers, "
              f"{mig['paid_back']} paid back"
              + (f" (mean payback {mig['mean_payback_us']:.0f}us)"
                 if mig["mean_payback_us"] is not None else "")
              + f", {mig['ping_pong_objects']} ping-ponging"]
    for rec in [rec for rec in mig["table"] if not rec["superseded"]][:top]:
        payback = (f"paid back in {rec['payback_us']:.0f}us"
                   if rec["payback_us"] is not None else "not paid back")
        lines.append(f"    oid {rec['oid']:>4}: {rec['from']} -> {rec['to']} "
                     f"at t={rec['at_us']:.0f}us, {rec['at_new_owner']} "
                     f"accesses at new owner vs {rec['elsewhere']} elsewhere "
                     f"— {payback}")
    lines += [f"    PING-PONG oid {pp['oid']}: {pp['handovers_in_window']} "
              f"handovers within the window" for pp in mig["ping_pongs"][:top]]
    if out["fall"] is not None:
        serving, churn, settled = out["fall"]
        fell = "remote_fraction" not in dict(
            locality_problems(report, out["fall"]))
        lines += ["", f"  scale-out    : remote fraction {pct(churn)} while "
                  f"ownership chases the re-pinned keys (joiners serving at "
                  f"t={serving:.0f}us) -> {pct(settled)} once settled "
                  f"({'fell' if fell else 'DID NOT FALL'})"]
    return "\n".join(lines) + "\n"


def _elastic_bands(out):
    problems = list(out["audit"])
    if out["add"] > 0:
        steady, _pre, recovered_at, final = out["recovery"]
        problems += recovery_problems(steady, recovered_at, final)
        if not out["converged"]:
            problems.append(("rebalance",
                             "did not converge after the scale-out"))
    return problems + locality_problems(out["locality"], out["fall"])


ELASTIC = Figure("elastic", "live LB-routed scale-out", None,
                 _elastic_run, _elastic_table, _elastic_bands)


# -------------------------------------------------------- repro place


def _place_run(workloads, seed, check_history):
    """Static vs adaptive placement: one :func:`~repro.placement.run_pair`
    per workload.  The bands are every pair's gates: audits green
    (``check_history`` adds the strict-serializability checker), adaptive
    *reducing* the remote fraction on the locality workloads, *no*
    reduction claim on the uniform ones, byte-identical same-seed
    decision logs, and every decision replaying offline."""
    return {"seed": seed, "check_history": check_history,
            "pairs": [run_pair(name, seed=seed, check_history=check_history)
                      for name in workloads]}


def _place_table(out):
    lines = [f"placement differential: static vs adaptive, seed {out['seed']}"
             + (", history checker on" if out["check_history"] else ""),
             f"{'workload':<10} {'static':>7}    {'adaptive':>6}  "
             f"{'claim':<9} {'gate':<14} actuations"]
    for pair in out["pairs"]:
        lines += [pair.row(),
                  f"    committed {pair.static.committed} -> "
                  f"{pair.adaptive.committed}; decision log sha256 "
                  f"{pair.decision_digest[:16]}"]
    return "\n".join(lines)


def _place_bands(out):
    return [(f"{pair.workload}: {gate}", problem)
            for pair in out["pairs"] for gate, problem in pair.problems()]


PLACE = Figure("place", "static-vs-adaptive placement differential", None,
               _place_run, _place_table, _place_bands)
