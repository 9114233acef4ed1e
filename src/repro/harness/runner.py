"""Command-line experiment runner: ``python -m repro <command>``.

Convenience entry points for the common flows so users do not need pytest
to explore the system.  Every subcommand lives in the single
:data:`COMMANDS` registry below — name, help line, argument setup, and
handler in one row — so ``python -m repro --help`` is always complete and
the dispatch table cannot drift from the parser:

* ``python -m repro quickstart``            — the README tour
* ``python -m repro verify [--seeds N]``    — exhaustive checker + sweep
* ``python -m repro chaos [--seeds N]``     — chaos campaign + audits
* ``python -m repro elastic [--add K]``     — live scale-out: recovery report
  and locality telemetry of one LB-routed run
* ``python -m repro place [--workload W]``  — static-vs-adaptive placement
* ``python -m repro smallbank [--remote F]``— one Zeus-vs-baseline point
* ``python -m repro trace``                 — trace a short SmallBank mix
* ``python -m repro analyze FILE``          — critical-path latency breakdown
* ``python -m repro list [ID ...]``         — the catalog, or rows' tables

Every command that runs a cluster takes one output-flag set
(:func:`_args_outputs`): ``--trace`` (Chrome), ``--jsonl`` (spans, the
``analyze`` input), ``--metrics-out``, ``--locality-out``; each file is
written only when asked, by :func:`_write_outputs`.

Every gated command computes its gates in the library — as ``(gate,
problem)`` lists, the shape of ``AuditReport.problems()`` — and ends in
the one :func:`_verdict` footer, whose exit code carries them.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

__all__ = ["main"]


def _verdict(problems) -> int:
    """The footer of every gated command: each failed ``(gate, problem)``,
    then the verdict line.  Returns the exit code."""
    for gate, problem in problems:
        print(f"  FAILED [{gate}]: {problem}")
    print("verdict         :", "FAILED" if problems else "OK")
    return 1 if problems else 0


def _observability(args, tracer: bool = False, locality: bool = False):
    """The instruments the output flags ask for, plus the ones the command
    itself reads (``tracer`` / ``locality``)."""
    from ..obs import LocalityRecorder, Observability, Tracer

    tracer = tracer or args.trace or args.jsonl
    locality = locality or args.locality_out
    return Observability(tracer=Tracer() if tracer else None,
                         locality=LocalityRecorder() if locality else None)


def _write_outputs(args, obs) -> None:
    """Write every artefact the output flags ask for, from ``obs`` — the
    only code that writes one."""
    import json

    from ..obs import write_chrome_trace, write_metrics, write_trace_jsonl

    def write_locality(recorder, path: str) -> None:
        # Sorted, seed-pure byte-identical: the placement-controller input.
        with open(path, "w") as fh:
            json.dump(recorder.report(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    for path, write, source, kind in (
            (args.trace, write_chrome_trace, obs.tracer, "Chrome trace"),
            (args.jsonl, write_trace_jsonl, obs.tracer, "span JSONL"),
            (args.metrics_out, write_metrics, obs.registry, "metrics"),
            (args.locality_out, write_locality, obs.locality,
             "locality report")):
        if path:
            write(source, path)
            print(f"wrote {kind}: {path}")


def _cmd_quickstart(_args) -> int:
    import os
    import runpy

    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    script = os.path.join(here, "examples", "quickstart.py")
    if not os.path.exists(script):
        print("examples/quickstart.py not found (installed without repo?)")
        return 1
    runpy.run_path(script, run_name="__main__")
    return 0


def _cmd_verify(args) -> int:
    from ..chaos import explore
    from ..verify import SCENARIOS, check_protocol

    checked = [(name, check_protocol(scenario))
               for name, scenario in SCENARIOS.items()]
    for name, result in checked:
        print(f"{name:<15} : {result}")
    swept = explore(seeds=args.seeds)
    print(f"explorer        : {len(swept.runs)} histories "
          f"({sum(bool(r.recipe.events) for r in swept.runs)} with crashes), "
          f"{swept.committed} txns committed")
    return _verdict([(name, result.violation or "truncated")
                     for name, result in checked
                     if not result.ok or result.truncated]
                    + swept.problems())


def _cmd_chaos(args) -> int:
    """Run a schedule × seed chaos campaign and audit every run.

    ``--trace`` / ``--jsonl`` / ``--locality-out`` re-run the worst cell
    (failed audit, then more audit problems, then more aborts; ties in
    grid order) with those instruments on — seed-pure, so it is the cell
    the campaign audited.  ``--metrics-out`` dumps the campaign registry.
    """
    from ..chaos import (CampaignConfig, Recipe, campaign_schedule,
                         run_campaign, run_cell)
    from ..sim.params import DiskParams

    if args.elastic and args.difficulty == 0:
        args.error("--elastic schedules start at --difficulty 1")
    # --elastic implies the durable tier so the campaign's odd cells can
    # exercise the power-loss-mid-rebalance exit, not just drains.
    wal = args.wal or args.power_loss or args.elastic
    cfg = CampaignConfig(
        cell=Recipe(
            num_nodes=args.nodes,
            num_objects=args.objects,
            duration_us=args.duration,
            quiesce_us=args.quiesce,
            disk=DiskParams(enabled=wal, fsync_policy=args.fsync,
                            ack_policy=args.ack),
            placement=args.placement,
            check_history=args.check_history,
        ),
        num_schedules=args.schedules,
        seeds=tuple(range(args.seeds)),
        difficulty=args.difficulty,
        schedule_seed_base=args.schedule_seed_base,
        power_loss=args.power_loss,
        elastic=args.elastic,
        elastic_add=args.add,
    )

    if args.show_schedules:
        for i in range(cfg.num_schedules):
            print(campaign_schedule(cfg, i).describe())
        return 0

    def progress(report) -> None:
        verdict = "ok" if report.ok else "FAILED"
        print(f"  {report.schedule_name:<16} seed {report.seed}: {verdict:>6}  "
              f"{report.committed:>6} committed, {report.aborted} aborted  "
              f"[{', '.join(report.timeline)}]")

    print(f"chaos campaign: {cfg.num_schedules} schedules x "
          f"{len(cfg.seeds)} seeds, difficulty {cfg.difficulty}, "
          f"{cfg.cell.num_nodes} nodes")
    result = run_campaign(cfg, progress=progress)
    print()
    print(result.summary())
    obs = _observability(args)
    if obs.tracer is not None or obs.locality is not None:
        worst = max(result.runs, key=lambda r: (
            0 if r.ok else 1, len(r.audit.problems()), r.aborted))
        run_cell(worst.recipe, obs)
        print(f"re-ran worst cell {worst.schedule_name} seed {worst.seed} "
              f"(audit {'ok' if worst.ok else 'FAILED'}, {worst.aborted} "
              f"aborted) for its trace / locality outputs")
    _write_outputs(args, obs.replace(registry=result.registry))
    return _verdict(result.problems())


def _cmd_elastic(args) -> int:
    """One LB-routed run, live scale-out N -> N+k mid-traffic: the
    throughput-recovery report and the locality telemetry of that run.

    The paper's request path: the LB pins each key to a serving node and
    workers access the keys routed to *their* node (plus a small remote
    fraction), so Zeus's locality protocol keeps objects where they are
    used.  At ``--steady`` the cluster adds ``--add`` nodes, the LB
    shifts a fair share of keys onto the joiners and ownership follows
    the new access points.  Keys are the object ids themselves, which
    keeps LB routing and the locality recorder's per-object telemetry on
    one key space.

    Windowed throughput is sampled throughout; then the run settles
    (waiting for the rebalancer to converge only after a scale-out) and
    is audited.  The report is the recovery summary, then what the
    :class:`~repro.obs.LocalityRecorder` saw: the per-node × object-group
    access heatmap, the remote-txn fraction timeline with cause
    attribution (routing miss vs ownership migrating vs genuinely
    shared), the hot-key table with a decayed skew estimate, and the
    migration-effectiveness ledger (paybacks, ping-pongs).  Exit 0
    requires every audit and a non-empty hot-key table; with a scale-out
    also throughput back within 10% of the pre-add steady state, the
    rebalancer converged, the remote fraction *falling* once it settled
    and at least one migration paying for itself.
    """
    from ..sim.params import DiskParams
    from .gates import (locality_fall, locality_problems, pct,
                        recovery_problems, throughput_recovery)
    from .rig import Rig, counter_catalog
    from .tables import format_table

    if not 0 < args.window <= args.steady / 2:
        # Steady state is the mean of the windows ending in the back half
        # of the pre-add era: a longer window leaves that half empty.
        args.error("--window must be positive and at most --steady / 2")
    obs = _observability(args, locality=True)
    loc = obs.locality
    rig = Rig(counter_catalog(args.nodes, args.objects), args.seed, obs,
              threads=args.threads, disk=DiskParams(enabled=args.wal))
    cluster, stats = rig.cluster, rig.stats
    cluster.start_membership()
    try:
        # Pins match the initial owners.
        rig.add_lb((i, i % args.nodes) for i in range(args.objects))
    except ValueError as err:
        args.error(str(err))  # the subparser's error(): usage + exit 2
    add_at = args.steady
    stop_at = add_at + args.after
    rig.start(rig.routed_spec(args.remote), stop_at)
    if args.add > 0:
        cluster.sim.call_at(add_at, cluster.add_nodes, args.add)

    samples = []  # (window_end_us, committed_in_window)
    last = 0
    t = 0.0
    while t < stop_at:
        t = min(t + args.window, stop_at)
        cluster.run(until=t)
        samples.append((t, stats.committed - last))
        last = stats.committed
    steady, pre_windows, recovered_at, final = throughput_recovery(
        samples, add_at)

    # Settle: let a scale-out's rebalance converge, drain, audit.
    done = rig.settle(args.quiesce, converge=args.add > 0)
    audit = rig.audit()

    def table(headers, rows) -> None:
        for line in format_table(headers, rows).splitlines():
            print("    " + line.rstrip())

    reg = obs.registry
    tps = lambda c: c / (args.window / 1e6)  # noqa: E731
    print(f"elastic: {args.nodes} -> {args.nodes + args.add} nodes at "
          f"t={add_at:.0f}us" if args.add > 0 else
          f"elastic: {args.nodes} nodes, no scale-out",
          f"({stats.committed} txns committed, seed {args.seed})")
    print(f"  steady state : {tps(steady):>12,.0f} tps "
          f"(mean of {pre_windows} windows before t={add_at:.0f}us)")
    if args.add > 0:
        if recovered_at is not None:
            print(f"  recovered    : t={recovered_at:.0f}us "
                  f"(+{recovered_at - add_at:.0f}us after the add, first "
                  f"window back above 90% of steady)")
        else:
            print("  recovered    : NEVER (no post-add window reached 90% "
                  "of steady)")
    print(f"  final        : {tps(final):>12,.0f} tps "
          f"({final / (steady or 1):.0%} of steady, last 3 windows)")
    if done is not None:
        print(f"  rebalancer   : "
              f"{reg.counter_total('rebalance.objects_moved')} objects "
              f"moved, {reg.counter_total('rebalance.bytes')} bytes, "
              f"{reg.counter_total('rebalance.inflight_aborts')} in-flight "
              f"aborts, converged={done.done()}")

    report = loc.report(groups=args.groups, top=args.top)
    totals = report["totals"]
    causes = totals["causes"]
    print(f"  remote       : {totals['remote']} of {totals['txns']} txns "
          f"({totals['remote_fraction']:.1%}) — "
          f"routing miss {causes['routing_miss']}, "
          f"migrating {causes['migrating']}, shared {causes['shared']}")
    routes = totals["routes"]
    print(f"  lb routing   : {routes['hits']} hits, "
          f"{routes['misses']} misses, {routes['repins']} re-pins")

    heat = report["heatmap"]
    print(f"\n  access heatmap (decayed counts, object groups of "
          f"{heat['group_size']}):")
    table(["node", *heat["groups"]],
          [[nid, *(f"{c:.1f}" for c in row)]
           for nid, row in zip(heat["nodes"], heat["counts"])])

    # Windows of whole time bins: the recorder counts a bin in a window
    # only if the bin starts inside it.
    span = max(1, round(stop_at / 10 / loc.bin_us)) * loc.bin_us
    marks = sorted((at, label) for label, at, _info in report["marks"])
    print("\n  remote-fraction timeline:")
    table(["window (us)", "remote", "marks"],
          [[f"{t:.0f}-{min(t + span, stop_at):.0f}",
            pct(loc.remote_fraction(t, t + span)),
            " ".join(label for at, label in marks if t <= at < t + span)]
           for t in (i * span for i in range(math.ceil(stop_at / span)))])

    skew = report["skew"]
    print(f"\n  hot keys (top {args.top} of {skew['distinct_tracked']} "
          f"tracked; top-1 share {skew['top1_share']:.1%}, "
          f"top-10 {skew['top10_share']:.1%}):")
    table(["oid", "total", "share", "per-node"],
          [[row["oid"], f"{row['total']:.1f}", f"{row['share']:.1%}",
            ", ".join(f"n{n}:{c:.0f}" for n, c in row["per_node"].items())]
           for row in report["hot_keys"]])

    mig = report["migrations"]
    print(f"\n  migrations   : {mig['handovers']} handovers, "
          f"{mig['paid_back']} paid back"
          + (f" (mean payback {mig['mean_payback_us']:.0f}us)"
             if mig["mean_payback_us"] is not None else "")
          + f", {mig['ping_pong_objects']} ping-ponging")
    shown = [rec for rec in mig["table"] if not rec["superseded"]]
    for rec in shown[:args.top]:
        payback = (f"paid back in {rec['payback_us']:.0f}us"
                   if rec["payback_us"] is not None else "not paid back")
        print(f"    oid {rec['oid']:>4}: {rec['from']} -> {rec['to']} at "
              f"t={rec['at_us']:.0f}us, {rec['at_new_owner']} accesses at "
              f"new owner vs {rec['elsewhere']} elsewhere — {payback}")
    for pp in mig["ping_pongs"][:args.top]:
        print(f"    PING-PONG oid {pp['oid']}: "
              f"{pp['handovers_in_window']} handovers within the window")

    problems = audit.problems()
    fall = None
    if args.add > 0:
        problems += recovery_problems(steady, recovered_at, final)
        if not done.done():
            problems.append(("rebalance",
                             "did not converge after the scale-out"))
        fall = locality_fall(loc, add_at, stop_at)
    locality = locality_problems(report, fall)
    if fall is not None:
        serving, churn, settled = fall
        fell = "remote_fraction" not in dict(locality)
        print(f"\n  scale-out    : remote fraction {pct(churn)} while "
              f"ownership chases the re-pinned keys (joiners serving at "
              f"t={serving:.0f}us) -> {pct(settled)} once settled "
              f"({'fell' if fell else 'DID NOT FALL'})")
    print()
    _write_outputs(args, obs)
    return _verdict(problems + locality)


def _cmd_place(args) -> int:
    """Static vs adaptive placement: the differential harness as a CLI.

    For each workload, runs the same seeded cluster + workload twice —
    without and with the :class:`~repro.placement.PlacementController` —
    and reports the remote-transaction-fraction change, the controller's
    actuation counts, and the decision-log digest.  Exit 0 requires every
    gate: audits green on all runs (``--check-history`` adds the strict-
    serializability checker), adaptive *reducing* the remote fraction on
    the locality workloads (venmo, mobility), *no* reduction claim on the
    uniform ones (smallbank, tpcc), same-seed byte-identical decision
    logs, and every logged decision replaying offline through the pure
    policy to the live actuation list.
    """
    from ..placement import DIFF_WORKLOADS, run_pair

    names = args.workload if args.workload else list(DIFF_WORKLOADS)
    print(f"placement differential: static vs adaptive, seed {args.seed}"
          + (", history checker on" if args.check_history else ""))
    print(f"{'workload':<10} {'static':>7}    {'adaptive':>6}  "
          f"{'claim':<9} {'gate':<14} actuations")
    problems = []
    for name in names:
        out = run_pair(name, seed=args.seed,
                       check_history=args.check_history)
        print(out.row())
        print(f"    committed {out.static.committed} -> "
              f"{out.adaptive.committed}; decision log sha256 "
              f"{out.decision_digest[:16]}")
        problems += [(f"{name}: {gate}", problem)
                     for gate, problem in out.problems()]
    return _verdict(problems)


def _smallbank(args, accounts: int, threads: int, duration: float,
               profile=None, **point):
    """The stats of one SmallBank steady-state point at ``--nodes`` /
    ``--remote`` (``repro smallbank`` / ``trace``): Zeus, or the
    static-sharding baseline ``profile``."""
    from ..workloads import SmallbankWorkload
    from .rig import steady_state

    wl = SmallbankWorkload(args.nodes, accounts_per_node=accounts,
                           remote_frac=args.remote,
                           track_migration=profile is None)
    return steady_state(wl, 1_000, threads, duration, profile=profile,
                        **point)[1]


def _cmd_smallbank(args) -> int:
    from ..baselines import FASST

    duration = 6_000.0
    obs = _observability(args)
    zstats = _smallbank(args, 1_500, 4, duration, obs=obs)
    _write_outputs(args, obs)  # of the Zeus run
    bstats = _smallbank(args, 1_500, 4, duration, profile=FASST)
    ztps = zstats.throughput_tps(duration)
    btps = bstats.throughput_tps(duration)
    print(f"Smallbank, {args.nodes} nodes, {args.remote:.0%} remote writes:")
    print(f"  Zeus        : {ztps/1e6:.2f} Mtps "
          f"({zstats.ownership_requests} ownership requests)")
    print(f"  FaSST-like  : {btps/1e6:.2f} Mtps")
    print(f"  ratio       : {ztps/btps:.2f}x")
    return 0


def _cmd_trace(args) -> int:
    """Run a short SmallBank mix with tracing on; print the phase report."""
    from ..obs import phase_report

    obs = _observability(args, tracer=True)
    stats = _smallbank(args, 200, 2, args.duration, obs=obs,
                       cluster_seed=args.seed, seed=args.seed)
    print(f"ran {stats.committed} txns over {args.duration:.0f} us "
          f"({args.nodes} nodes, seed {args.seed}): "
          f"{len(obs.tracer.spans)} spans, {obs.tracer.open_spans} still "
          f"open and not exported")
    _write_outputs(args, obs)
    print()
    print(phase_report(obs.tracer))
    return 0


def _cmd_analyze(args) -> int:
    """Critical-path latency attribution of a span JSONL trace (any
    command's ``--jsonl``): breakdown table + folded stacks."""
    from ..obs import analyze, folded_stacks, load_jsonl

    source = load_jsonl(args.jsonl)
    print(f"analyzing {args.jsonl} ({len(source)} records)")
    report = analyze(source)
    if not report.timelines:
        print("no traced transactions found "
              "(was the trace recorded with tracing on?)")
        return 1
    print()
    print(report.breakdown_table())
    if args.folded:
        with open(args.folded, "w") as fh:
            for line in folded_stacks(source):
                fh.write(line + "\n")
        print(f"\nwrote folded stacks: {args.folded} "
              f"(flamegraph.pl-compatible)")
    return 0


def _cmd_list(args) -> int:
    from .figures import FIGURES

    rows = {row.id: row for row in FIGURES}
    unknown = [i for i in args.ids if i not in rows]
    if unknown:
        args.error(f"unknown row id: {', '.join(unknown)} "
                   f"(ids: {', '.join(rows)})")
    for i in args.ids:
        print(rows[i].table(rows[i].run()), end="\n\n")
    if not args.ids:
        print("Experiment catalog (repro list <id> prints a row's table; "
              "paper scale: pytest benchmarks --benchmark-only -s -k <id>):")
        for row in FIGURES:
            print(f"  {row.id:<10} results/{row.result + '.json':<30} "
                  f"{row.title}")
    return 0


def _checked(cast, ok, want: str):
    """An argparse type: ``cast(text)`` satisfying ``ok``.  A value that
    would run nothing or crash the run is a usage error (exit 2)."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {value}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid ... value"
    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_positive_float = _checked(float, lambda v: v > 0, "> 0")
_fraction = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")


def _args_outputs(p: argparse.ArgumentParser) -> None:
    """The one output-flag set of every command that runs a cluster."""
    p.add_argument("--trace", metavar="FILE",
                   help="write a Chrome trace (chrome://tracing, Perfetto)")
    p.add_argument("--jsonl", metavar="FILE",
                   help="write the spans as JSON lines (`repro analyze`)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the metrics registry snapshot as JSON")
    p.add_argument("--locality-out", metavar="FILE",
                   help="write the locality recorder's report as "
                        "deterministic JSON (placement-controller input)")


def _args_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", type=_positive_int, default=20,
                   help="sweep cells to run (default %(default)s)")


def _args_chaos(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schedules", type=_positive_int, default=3,
                   help="generated schedules (default %(default)s)")
    p.add_argument("--seeds", type=_positive_int, default=3,
                   help="run seeds per schedule (default %(default)s)")
    p.add_argument("--difficulty", type=int, default=3, choices=(0, 1, 2, 3),
                   help="scenario severity; 0 = no fault events "
                        "(default %(default)s)")
    p.add_argument("--nodes", type=_positive_int, default=4)
    p.add_argument("--objects", type=_positive_int, default=8)
    p.add_argument("--duration", type=float, default=30_000.0,
                   help="workload window in us (default %(default)s)")
    p.add_argument("--quiesce", type=float, default=30_000.0,
                   help="drain window before audit (default %(default)s)")
    p.add_argument("--schedule-seed-base", type=int, default=100)
    p.add_argument("--check-history", action="store_true",
                   help="record each run's transaction history and audit it "
                        "for strict serializability")
    p.add_argument("--show-schedules", action="store_true",
                   help="print the generated fault timelines and exit")
    p.add_argument("--power-loss", action="store_true",
                   help="durability campaign: every schedule powers off the "
                        "whole cluster mid-run and cold-starts it "
                        "(implies --wal)")
    p.add_argument("--elastic", action="store_true",
                   help="reconfiguration campaign: every schedule scales the "
                        "cluster out mid-run, then drains a node or powers "
                        "the cluster off mid-rebalance (implies --wal)")
    p.add_argument("--add", type=_positive_int, default=2,
                   help="nodes each elastic schedule adds "
                        "(default %(default)s)")
    p.add_argument("--placement", action="store_true",
                   help="run every cell with the adaptive placement "
                        "controller live (locality recorder attached)")
    p.add_argument("--wal", action="store_true",
                   help="enable the per-node write-ahead log + snapshots")
    p.add_argument("--fsync", choices=("group", "always"), default="group",
                   help="WAL fsync policy (default %(default)s)")
    p.add_argument("--ack", choices=("replication", "persist"),
                   default="replication",
                   help="commit-ack point: the paper's replication point or "
                        "the WAL COMMIT fsync (default %(default)s)")
    _args_outputs(p)


def _args_elastic(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=_positive_int, default=4,
                   help="base cluster size (default %(default)s)")
    p.add_argument("--add", type=_checked(int, lambda v: v >= 0, ">= 0"),
                   default=2,
                   help="nodes to add mid-run; 0 = no scale-out "
                        "(default %(default)s)")
    p.add_argument("--objects", type=_positive_int, default=48,
                   help="counter objects (default %(default)s)")
    p.add_argument("--threads", type=_positive_int, default=2,
                   help="app threads per node (default %(default)s)")
    p.add_argument("--remote", type=_fraction, default=0.05,
                   help="fraction of transactions touching keys routed to "
                        "other nodes (default %(default)s)")
    p.add_argument("--steady", type=float, default=20_000.0,
                   help="steady-state window before the add, in us "
                        "(default %(default)s)")
    p.add_argument("--after", type=float, default=40_000.0,
                   help="measured window after the add, in us "
                        "(default %(default)s)")
    p.add_argument("--quiesce", type=float, default=30_000.0,
                   help="drain window after traffic stops, before the "
                        "audit (default %(default)s)")
    p.add_argument("--window", type=float, default=2_000.0,
                   help="throughput sampling window in us "
                        "(default %(default)s)")
    p.add_argument("--groups", type=_positive_int, default=8,
                   help="object groups across the heatmap "
                        "(default %(default)s)")
    p.add_argument("--top", type=_positive_int, default=10,
                   help="rows in the hot-key/migration tables "
                        "(default %(default)s)")
    p.add_argument("--wal", action="store_true",
                   help="enable the per-node write-ahead log + snapshots")
    p.add_argument("--seed", type=int, default=1)
    _args_outputs(p)


def _args_place(p: argparse.ArgumentParser) -> None:
    from ..placement import DIFF_WORKLOADS

    p.add_argument("--workload", action="append", metavar="NAME",
                   choices=DIFF_WORKLOADS,
                   help="workload to run (repeatable; default: all of "
                        f"{', '.join(DIFF_WORKLOADS)})")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--check-history", action="store_true",
                   help="also record and audit each run's transaction "
                        "history for strict serializability")


def _args_smallbank(p: argparse.ArgumentParser, remote: float = 0.01) -> None:
    p.add_argument("--nodes", type=_positive_int, default=3)
    p.add_argument("--remote", type=_fraction, default=remote,
                   help="remote-write fraction (default %(default)s)")
    _args_outputs(p)


def _args_trace(p: argparse.ArgumentParser) -> None:
    _args_smallbank(p, remote=0.2)
    p.add_argument("--duration", type=_positive_float, default=5_000.0,
                   help="simulated run length in us (default %(default)s)")
    p.add_argument("--seed", type=int, default=1)


def _args_analyze(p: argparse.ArgumentParser) -> None:
    p.add_argument("jsonl", metavar="FILE",
                   help="a span JSONL trace (any command's --jsonl)")
    p.add_argument("--folded", metavar="FILE", default=None,
                   help="also write folded-stack (flamegraph) lines")


def _args_list(p: argparse.ArgumentParser) -> None:
    p.add_argument("ids", nargs="*", metavar="ID",
                   help="run these rows and print their tables (default: "
                        "print the catalog)")


#: The single source of truth for subcommands: (name, help, argument
#: setup, handler).  ``--help``, parser construction, and dispatch all
#: derive from this table.
COMMANDS = [
    ("quickstart", "run the README tour", None, _cmd_quickstart),
    ("verify", "exhaustive protocol checker + randomized sweep",
     _args_verify, _cmd_verify),
    ("chaos", "fault-schedule campaign with invariant audits",
     _args_chaos, _cmd_chaos),
    ("elastic", "live LB-routed scale-out: throughput recovery, locality "
     "heatmap, remote-txn attribution, migration ledger",
     _args_elastic, _cmd_elastic),
    ("place", "static-vs-adaptive placement differential (exit-code gated)",
     _args_place, _cmd_place),
    ("smallbank", "one Zeus-vs-FaSST point", _args_smallbank, _cmd_smallbank),
    ("trace", "trace a short SmallBank mix: phase report",
     _args_trace, _cmd_trace),
    ("analyze", "critical-path latency attribution of a span JSONL trace",
     _args_analyze, _cmd_analyze),
    ("list", "experiment catalog, or the tables of the named rows",
     _args_list, _cmd_list),
]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Zeus reproduction — experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {}
    for name, help_line, setup, handler in COMMANDS:
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(error=p.error)
        if setup is not None:
            setup(p)
        handlers[name] = handler
    args = parser.parse_args(argv)
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
