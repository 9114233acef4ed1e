"""Command-line experiment runner: ``python -m repro <command>``.

Convenience entry points for the common flows so users do not need pytest
to explore the system.  Every subcommand lives in the single
:data:`COMMANDS` registry below — name, help line, argument setup, and
handler in one row — so ``python -m repro --help`` is always complete and
the dispatch table cannot drift from the parser:

* ``python -m repro quickstart``            — the README tour
* ``python -m repro verify [--seeds N]``    — exhaustive checker + sweep
* ``python -m repro chaos [--seeds N]``     — chaos campaign + audits
* ``python -m repro elastic [--add K]``     — live scale-out + recovery report
* ``python -m repro check [--seeds N]``     — strict-serializability check
* ``python -m repro locality``              — the §8 locality analyses
* ``python -m repro heatmap [--out F]``     — live locality telemetry
* ``python -m repro place [--workload W]``  — static-vs-adaptive placement
* ``python -m repro smallbank [--remote F]``— one Zeus-vs-baseline point
* ``python -m repro trace [--out F]``       — capture a Chrome trace
* ``python -m repro analyze [--jsonl F]``   — critical-path latency breakdown
* ``python -m repro list``                  — the benchmark catalog

Every gated command computes its gates in the library — as ``(gate,
problem)`` lists, the shape of ``AuditReport.problems()`` — and ends in
the one :func:`_verdict` footer, whose exit code carries them.
"""

from __future__ import annotations

import argparse
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


def _sweep(seeds: int):
    """The randomized full-stack sweep ``verify`` and ``check`` share."""
    from ..chaos import explore

    swept = explore(seeds=seeds)
    print(f"explorer        : {len(swept.runs)} histories "
          f"({sum(bool(r.recipe.events) for r in swept.runs)} with crashes), "
          f"{swept.committed} txns committed")
    return swept


def _cmd_verify(args) -> int:
    from ..verify import SCENARIOS, check_protocol

    checked = [(name, check_protocol(scenario))
               for name, scenario in SCENARIOS.items()]
    for name, result in checked:
        print(f"{name:<15} : {result}")
    swept = _sweep(args.seeds)
    return _verdict([(name, result.violation or "truncated")
                     for name, result in checked
                     if not result.ok or result.truncated]
                    + swept.problems())


def _cmd_chaos(args) -> int:
    """Run a schedule × seed chaos campaign and audit every run."""
    from ..chaos import (
        CampaignConfig,
        Recipe,
        campaign_schedule,
        run_campaign,
        run_cell,
    )
    from ..obs import (LocalityRecorder, Observability, Tracer,
                       write_chrome_trace, write_metrics)
    from ..sim.params import DiskParams

    if args.elastic and args.difficulty == 0:
        args.error("--elastic schedules start at --difficulty 1")
    power_loss = args.power_loss
    # --elastic implies the durable tier so the campaign's odd cells can
    # exercise the power-loss-mid-rebalance exit, not just drains.
    wal = args.wal or power_loss or args.elastic
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
        power_loss=power_loss,
        elastic=args.elastic,
        elastic_add=args.add,
    )

    if args.show_schedules:
        for i in range(cfg.num_schedules):
            print(campaign_schedule(cfg, i).describe())
        return 0

    if args.trace or args.locality_out:
        # Re-run the first grid cell on the side with the requested
        # instruments (fault instants land in the trace; seed-pure, so it
        # reproduces the campaign's own cell exactly).
        schedule = campaign_schedule(cfg, 0)
        obs = Observability(
            tracer=Tracer() if args.trace else None,
            locality=LocalityRecorder() if args.locality_out else None)
        run_cell(cfg.cell.of(schedule, cfg.seeds[0]), obs)
        cell = f"{schedule.name} seed {cfg.seeds[0]}"
        if args.trace:
            write_chrome_trace(obs.tracer, args.trace)
            print(f"wrote Chrome trace of {cell}: {args.trace}")
        if args.locality_out:
            _write_locality_json(obs.locality, args.locality_out)
            rep = obs.locality.report()
            print(f"wrote locality telemetry of {cell}: "
                  f"{args.locality_out} (remote fraction "
                  f"{rep['totals']['remote_fraction']:.1%}, "
                  f"{rep['migrations']['handovers']} handovers)")

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
    if args.metrics_out:
        write_metrics(result.registry, args.metrics_out)
        print(f"wrote campaign metrics: {args.metrics_out}")
    if args.trace_out:
        _dump_worst_chaos_trace(result, args.trace_out)
    return _verdict(result.problems())


def _start_routed_rig(args, obs, wal: bool = False):
    """The LB-routed locality workload shared by ``repro elastic`` and
    ``repro heatmap``: workers run until ``steady + after``, the cluster
    scales out by ``add`` nodes at ``steady``.  Returns the rig.

    The paper's request path: the LB pins each key to a serving node and
    workers access the keys routed to *their* node (plus a small remote
    fraction), so Zeus's locality protocol keeps objects where they are
    used.  On scale-out the LB shifts a fair share of keys onto the
    joiners and ownership follows the new access points.  Keys are the
    object ids themselves, which keeps LB routing and the locality
    recorder's per-object telemetry on one key space.
    """
    from ..sim.params import DiskParams
    from .rig import Rig, counter_catalog

    rig = Rig(counter_catalog(args.nodes, args.objects), args.seed, obs,
              threads=args.threads, disk=DiskParams(enabled=wal))
    rig.cluster.start_membership()
    try:
        # Pins match the initial owners.
        rig.add_lb((i, i % args.nodes) for i in range(args.objects))
    except ValueError as err:
        args.error(str(err))  # the subparser's error(): usage + exit 2
    rig.start(rig.routed_spec(args.remote), args.steady + args.after)
    if args.add > 0:
        rig.cluster.sim.call_at(args.steady, rig.cluster.add_nodes, args.add)
    return rig


def _write_locality_json(recorder, path: str) -> None:
    """Dump a recorder's report as deterministic (sorted, seed-pure
    byte-identical) JSON — the placement-controller input format."""
    import json

    with open(path, "w") as fh:
        json.dump(recorder.report(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_elastic(args) -> int:
    """Live scale-out: N -> N+k under load, throughput-recovery report.

    Runs a steady-state window on the base cluster, then calls
    ``add_nodes`` mid-traffic and keeps sampling windowed throughput while
    the joiners are quarantined, admitted, and fed by the rebalancer.
    Exit 0 requires every post-run audit to pass *and* throughput to
    recover to within 10% of the pre-scale-out steady state.  With
    ``--locality-out`` the run also records locality telemetry and dumps
    the recorder's JSON report (see ``repro heatmap``).
    """
    from ..obs import LocalityRecorder, Observability, write_metrics
    from .gates import (locality_fall, pct, recovery_problems,
                        throughput_recovery)

    if not 0 < args.window <= args.steady / 2:
        # Steady state is the mean of the windows ending in the back half
        # of the pre-add era: a longer window leaves that half empty.
        args.error("--window must be positive and at most --steady / 2")
    loc = LocalityRecorder() if args.locality_out else None
    obs = Observability(locality=loc)
    rig = _start_routed_rig(args, obs, wal=args.wal)
    cluster, stats = rig.cluster, rig.stats
    add_at = args.steady
    stop_at = add_at + args.after

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

    # Settle: let the rebalancer converge, drain in-flight work, audit.
    done = rig.settle(args.quiesce)
    audit = rig.audit()

    reg = obs.registry
    tps = lambda c: c / (args.window / 1e6)  # noqa: E731
    print(f"elastic scale-out: {args.nodes} -> {args.nodes + args.add} "
          f"nodes at t={add_at:.0f}us ({stats.committed} txns committed)")
    print(f"  steady state : {tps(steady):>12,.0f} tps "
          f"(mean of {pre_windows} windows before the add)")
    if recovered_at is not None:
        print(f"  recovered    : t={recovered_at:.0f}us "
              f"(+{recovered_at - add_at:.0f}us after the add, first "
              f"window back above 90% of steady)")
    else:
        print("  recovered    : NEVER (no post-add window reached 90% "
              "of steady)")
    print(f"  final        : {tps(final):>12,.0f} tps "
          f"({final / (steady or 1):.0%} of steady, last 3 windows)")
    print(f"  rebalancer   : "
          f"{reg.counter_total('rebalance.objects_moved')} objects moved, "
          f"{reg.counter_total('rebalance.bytes')} bytes, "
          f"{reg.counter_total('rebalance.inflight_aborts')} in-flight "
          f"aborts, converged={done.done()}")
    if args.metrics_out:
        write_metrics(reg, args.metrics_out)
        print(f"  wrote metrics: {args.metrics_out}")
    if loc is not None:
        serving, churn, settled = locality_fall(loc, add_at, stop_at)
        mig = loc.migration_summary()
        print(f"  locality     : remote fraction {pct(churn)} in the "
              f"churn era (joiners serving at t={serving:.0f}us) -> "
              f"{pct(settled)} once settled; {mig['handovers']} "
              f"handovers, {mig['paid_back']} paid back")
        _write_locality_json(loc, args.locality_out)
        print(f"  wrote locality telemetry: {args.locality_out}")
    problems = audit.problems() + recovery_problems(steady, recovered_at,
                                                    final)
    if not done.done():
        problems.append(("rebalance", "did not converge after the scale-out"))
    return _verdict(problems)


def _cmd_check(args) -> int:
    """Strict-serializability check over fault-injected runs.

    Two grids of the one audited cell, history audit on: the randomized
    sweep (constant loss/dup/reorder + a crash draw per seed) and one
    difficulty-2 chaos schedule (crash → recover).  Exit 0 only if every
    recorded history checks out.
    """
    from ..chaos import CampaignConfig, Recipe, run_campaign

    swept = _sweep(args.seeds)
    for report in swept.runs:
        print(f"  {report.digest()}")

    # A one-cell campaign: schedule 0 always crashes a node and difficulty
    # 2 pairs the crash with a recovery, so a rejoin must have run too.
    result = run_campaign(CampaignConfig(
        cell=Recipe(check_history=True),
        difficulty=2, num_schedules=1, seeds=(0,)))
    report = result.runs[0]
    print(f"chaos history   : {report.schedule_name} seed {report.seed}: "
          f"{report.committed} committed  "
          f"[{', '.join(report.timeline)}]")
    return _verdict(swept.problems() + result.problems())


def _dump_worst_chaos_trace(result, path: str) -> None:
    """Re-run the campaign's worst cell with tracing on; dump span JSONL.

    "Worst" = failed audit first (more audit problems is worse), then most
    aborts, ties broken by grid order.  Runs are seed-pure, so the re-run
    reproduces the original cell exactly — the trace is a faithful
    post-mortem of the run the campaign actually audited.
    """
    from ..chaos import run_cell
    from ..obs import Observability, Tracer, write_trace_jsonl

    worst = max(
        result.runs,
        key=lambda r: (0 if r.ok else 1, len(r.audit.problems()), r.aborted))
    obs = Observability(tracer=Tracer())
    run_cell(worst.recipe, obs)
    write_trace_jsonl(obs.tracer, path)
    verdict = "ok" if worst.ok else "FAILED"
    print(f"wrote worst-cell trace ({worst.schedule_name} seed {worst.seed}, "
          f"audit {verdict}, {worst.aborted} aborted): {path}")


def _cmd_locality(_args) -> int:
    """The §8 *analytic* locality studies: closed-form and trace-driven
    estimates of each workload's inherent remote fraction (mobility
    handovers, the Venmo payment graph, TPC-C).

    These analyses predict locality from the workload alone; for *live*
    telemetry of a running cluster — per-node access heatmap, remote-txn
    cause attribution, migration paybacks — see the ``repro heatmap``
    sibling command.
    """
    from .figures import FIGURES

    for row in FIGURES:
        if row.id.startswith("L1"):  # the three locality-analysis rows
            print(row.table(row.run()))
            print()
    print("(live cluster telemetry: python -m repro heatmap)")
    return 0


def _cmd_heatmap(args) -> int:
    """Live locality telemetry of an LB-routed run (optionally elastic).

    Runs the same workload as ``repro elastic`` with the
    :class:`~repro.obs.LocalityRecorder` enabled and reports what it saw:
    the per-node × object-group access heatmap, the remote-txn fraction
    timeline with cause attribution (routing miss vs ownership migrating
    vs genuinely shared), the hot-key table with a decayed skew estimate,
    and the migration-effectiveness ledger (paybacks, ping-pongs).
    ``--out`` writes the full report as seed-pure byte-identical JSON —
    the input format for a future placement controller.  With ``--add``
    (the default) exit 0 additionally requires the remote fraction to
    *fall* after the scale-out's rebalance converges and at least one
    migration to have paid for itself.
    """
    from ..obs import LocalityRecorder, Observability
    from .gates import locality_fall, locality_problems, pct

    loc = LocalityRecorder()
    obs = Observability(locality=loc)
    rig = _start_routed_rig(args, obs)
    cluster = rig.cluster
    add_at = args.steady
    stop_at = add_at + args.after
    cluster.run(until=stop_at)
    rig.settle(args.quiesce, converge=args.add > 0)

    report = loc.report(groups=args.groups, top=args.top)
    totals = report["totals"]
    causes = totals["causes"]
    print(f"locality telemetry: {args.nodes} nodes"
          + (f" -> {args.nodes + args.add} at t={add_at:.0f}us"
             if args.add > 0 else "")
          + f", {totals['txns']} txns ({totals['committed']} committed), "
          f"seed {args.seed}")
    print(f"  remote       : {totals['remote']} of {totals['txns']} "
          f"({totals['remote_fraction']:.1%}) — "
          f"routing miss {causes['routing_miss']}, "
          f"migrating {causes['migrating']}, shared {causes['shared']}")
    routes = totals["routes"]
    print(f"  lb routing   : {routes['hits']} hits, "
          f"{routes['misses']} misses, {routes['repins']} re-pins")

    heat = report["heatmap"]
    print(f"\n  access heatmap (decayed counts, object groups of "
          f"{heat['group_size']}):")
    header = "    node " + "".join(f"{g:>12}" for g in heat["groups"])
    print(header)
    for nid, row in zip(heat["nodes"], heat["counts"]):
        print(f"    {nid:>4} " + "".join(f"{c:>12.1f}" for c in row))

    marks = {label: at for label, at, _info in report["marks"]}
    print("\n  remote-fraction timeline:")
    span = stop_at / 10
    t = 0.0
    while t < stop_at:
        frac = loc.remote_fraction(t, t + span)
        note = "".join(f"  <- {label}" for label, at in sorted(
            marks.items(), key=lambda kv: kv[1]) if t <= at < t + span)
        print(f"    {t:>9.0f}-{min(t + span, stop_at):<9.0f}us  "
              f"{pct(frac):>6}{note}")
        t += span

    skew = report["skew"]
    print(f"\n  hot keys (top {args.top} of {skew['distinct_tracked']} "
          f"tracked; top-1 share {skew['top1_share']:.1%}, "
          f"top-10 {skew['top10_share']:.1%}):")
    print(f"    {'oid':>6} {'total':>10} {'share':>8}  per-node")
    for row in report["hot_keys"]:
        per = ", ".join(f"n{n}:{c:.0f}" for n, c in row["per_node"].items())
        print(f"    {row['oid']:>6} {row['total']:>10.1f} "
              f"{row['share']:>8.1%}  {per}")

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

    if args.out:
        _write_locality_json(loc, args.out)
        print(f"\n  wrote locality report: {args.out}")

    fall = locality_fall(loc, add_at, stop_at) if args.add > 0 else None
    problems = locality_problems(report, fall)
    if fall is not None:
        serving, churn, settled = fall
        fell = "remote_fraction" not in dict(problems)
        print(f"\n  scale-out    : remote fraction {pct(churn)} while "
              f"ownership chases the re-pinned keys (joiners serving at "
              f"t={serving:.0f}us) -> {pct(settled)} once settled "
              f"({'fell' if fell else 'DID NOT FALL'})")
    print()
    return _verdict(problems)


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
                       check_history=args.check_history,
                       verify_determinism=not args.no_redetermine)
        print(out.row())
        print(f"    committed {out.static_committed} -> "
              f"{out.adaptive_committed}; decision log sha256 "
              f"{out.decision_digest[:16]}")
        problems += [(f"{name}: {gate}", problem)
                     for gate, problem in out.problems()]
    return _verdict(problems)


def _smallbank(args, accounts: int, threads: int, duration: float,
               profile=None, **point):
    """The stats of one SmallBank steady-state point at ``--nodes`` /
    ``--remote`` (``repro smallbank``/``trace``/``analyze``): Zeus, or the
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
    from ..obs import Observability, Tracer, write_chrome_trace, write_metrics

    duration = 6_000.0
    traced = bool(args.trace or args.analyze or args.flow)
    obs = Observability(tracer=Tracer() if traced else None)
    zstats = _smallbank(args, 1_500, 4, duration, obs=obs)
    if args.trace:
        write_chrome_trace(obs.tracer, args.trace)
        print(f"wrote Chrome trace: {args.trace} "
              f"({len(obs.tracer.spans)} spans)")
    if args.metrics_out:
        write_metrics(obs.registry, args.metrics_out)
        print(f"wrote metrics snapshot: {args.metrics_out}")
    if args.flow:
        from ..obs import folded_stacks
        with open(args.flow, "w") as fh:
            for line in folded_stacks(obs.tracer):
                fh.write(line + "\n")
        print(f"wrote folded stacks: {args.flow}")
    if args.analyze:
        from ..obs import analyze
        print()
        print(analyze(obs.tracer).breakdown_table())

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
    """Run a short SmallBank mix with tracing on; dump trace + reports."""
    from ..obs import (
        Observability,
        Tracer,
        phase_report,
        write_chrome_trace,
        write_metrics,
        write_trace_jsonl,
    )

    obs = Observability(tracer=Tracer())
    stats = _smallbank(args, 200, 2, args.duration, obs=obs,
                       cluster_seed=args.seed, seed=args.seed)

    write_chrome_trace(obs.tracer, args.out)
    print(f"ran {stats.committed} txns over {args.duration:.0f} us "
          f"({args.nodes} nodes, seed {args.seed})")
    print(f"wrote Chrome trace: {args.out} ({len(obs.tracer.spans)} spans, "
          f"{obs.tracer.open_spans} still open and not exported)"
          f" — open in chrome://tracing or https://ui.perfetto.dev")
    if args.jsonl:
        write_trace_jsonl(obs.tracer, args.jsonl)
        print(f"wrote span JSONL : {args.jsonl}")
    if args.metrics_out:
        write_metrics(obs.registry, args.metrics_out)
        print(f"wrote metrics    : {args.metrics_out}")
    print()
    print(phase_report(obs.tracer))
    return 0


def _cmd_analyze(args) -> int:
    """Critical-path latency attribution: breakdown table + folded stacks.

    Consumes a span JSONL trace (``repro trace --jsonl`` /
    ``repro chaos --trace-out``) or, without ``--jsonl``, runs a short
    traced SmallBank workload inline and analyzes that.
    """
    from ..obs import analyze, folded_stacks, load_jsonl

    if args.jsonl:
        source = load_jsonl(args.jsonl)
        print(f"analyzing {args.jsonl} ({len(source)} records)")
    else:
        from ..obs import Observability, Tracer

        obs = Observability(tracer=Tracer())
        stats = _smallbank(args, 200, 2, args.duration, obs=obs,
                           cluster_seed=args.seed, seed=args.seed)
        print(f"traced inline run: {stats.committed} txns over "
              f"{args.duration:.0f} us ({args.nodes} nodes, "
              f"seed {args.seed})")
        source = obs.tracer

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


def _cmd_list(_args) -> int:
    from .figures import FIGURES

    print("Experiment catalog (run one with: pytest benchmarks "
          "--benchmark-only -s -k <id>):")
    for row in FIGURES:
        print(f"  {row.id:<10} results/{row.result + '.json':<30} {row.title}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts that size a run: zero would run nothing
    (and pass vacuously) or divide by zero further in."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--objects", type=int, default=8)
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
    p.add_argument("--add", type=int, default=2,
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
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="Chrome trace of the first cell (chaos instants)")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="dump campaign chaos.* metrics as JSON")
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   dest="trace_out",
                   help="re-run the worst-audit cell traced and dump its "
                        "spans as JSONL (for `repro analyze`)")
    p.add_argument("--locality-out", metavar="FILE", default=None,
                   dest="locality_out",
                   help="run the first cell with the locality recorder and "
                        "dump its JSON report (see `repro heatmap`)")


def _args_routed(p: argparse.ArgumentParser) -> None:
    """The flags ``repro elastic`` and ``repro heatmap`` share (one rig)."""
    p.add_argument("--nodes", type=int, default=4,
                   help="base cluster size (default %(default)s)")
    p.add_argument("--add", type=int, default=2,
                   help="nodes to add mid-run; 0 = no scale-out "
                        "(default %(default)s)")
    p.add_argument("--objects", type=int, default=48,
                   help="counter objects (default %(default)s)")
    p.add_argument("--threads", type=int, default=2,
                   help="app threads per node (default %(default)s)")
    p.add_argument("--remote", type=float, default=0.05,
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
    p.add_argument("--seed", type=int, default=1)


def _args_elastic(p: argparse.ArgumentParser) -> None:
    _args_routed(p)
    p.add_argument("--window", type=float, default=2_000.0,
                   help="throughput sampling window in us "
                        "(default %(default)s)")
    p.add_argument("--wal", action="store_true",
                   help="enable the per-node write-ahead log + snapshots")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="dump the metrics snapshot (rebalance.* included) "
                        "as JSON")
    p.add_argument("--locality-out", metavar="FILE", default=None,
                   dest="locality_out",
                   help="record locality telemetry during the run and dump "
                        "the recorder's JSON report (see `repro heatmap`)")


def _args_heatmap(p: argparse.ArgumentParser) -> None:
    _args_routed(p)
    p.add_argument("--groups", type=_positive_int, default=8,
                   help="object groups across the heatmap "
                        "(default %(default)s)")
    p.add_argument("--top", type=_positive_int, default=10,
                   help="rows in the hot-key/migration tables "
                        "(default %(default)s)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the full report as deterministic JSON "
                        "(placement-controller input)")


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
    p.add_argument("--no-redetermine", action="store_true",
                   help="skip the repeat adaptive run that proves the "
                        "decision log byte-identical (faster)")


def _args_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", type=_positive_int, default=5,
                   help="sweep cells to check (default %(default)s)")


def _args_smallbank(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--remote", type=float, default=0.01)
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="capture a Chrome trace of the Zeus run")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="dump the metrics registry snapshot as JSON")
    p.add_argument("--analyze", action="store_true",
                   help="trace the Zeus run and print the critical-path "
                        "latency breakdown")
    p.add_argument("--flow", metavar="FILE", default=None,
                   help="trace the Zeus run and write folded-stack "
                        "(flamegraph) lines")


def _args_trace(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", default="trace.json",
                   help="Chrome trace-event output (default %(default)s)")
    p.add_argument("--jsonl", metavar="FILE", default=None,
                   help="also dump raw spans as JSON lines")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="dump the metrics registry snapshot as JSON")
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--remote", type=float, default=0.2,
                   help="remote-write fraction (default %(default)s)")
    p.add_argument("--duration", type=float, default=5_000.0,
                   help="simulated run length in us")
    p.add_argument("--seed", type=int, default=1)


def _args_analyze(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jsonl", metavar="FILE", default=None,
                   help="analyze an existing span JSONL trace "
                        "(default: run a traced workload inline)")
    p.add_argument("--folded", metavar="FILE", default=None,
                   help="also write folded-stack (flamegraph) lines")
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--remote", type=float, default=0.2,
                   help="remote-write fraction for the inline run")
    p.add_argument("--duration", type=float, default=5_000.0,
                   help="inline run length in simulated us")
    p.add_argument("--seed", type=int, default=1)


#: The single source of truth for subcommands: (name, help, argument
#: setup, handler).  ``--help``, parser construction, and dispatch all
#: derive from this table.
COMMANDS = [
    ("quickstart", "run the README tour", None, _cmd_quickstart),
    ("verify", "exhaustive protocol checker + randomized sweep",
     _args_verify, _cmd_verify),
    ("chaos", "fault-schedule campaign with invariant audits",
     _args_chaos, _cmd_chaos),
    ("elastic", "live scale-out demo with throughput-recovery report",
     _args_elastic, _cmd_elastic),
    ("check", "strict-serializability check over seeded runs",
     _args_check, _cmd_check),
    ("locality", "§8 analytic locality studies (live sibling: heatmap)",
     None, _cmd_locality),
    ("heatmap", "live locality telemetry: heatmap, remote-txn attribution, "
     "migration ledger", _args_heatmap, _cmd_heatmap),
    ("place", "static-vs-adaptive placement differential (exit-code gated)",
     _args_place, _cmd_place),
    ("smallbank", "one Zeus-vs-FaSST point", _args_smallbank, _cmd_smallbank),
    ("trace", "capture a Chrome trace of a short SmallBank mix",
     _args_trace, _cmd_trace),
    ("analyze", "critical-path latency attribution per txn segment",
     _args_analyze, _cmd_analyze),
    ("list", "experiment catalog", None, _cmd_list),
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
