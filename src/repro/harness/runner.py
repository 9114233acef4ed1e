"""Command-line experiment runner: ``python -m repro <command>``.

Every subcommand is one row of :data:`COMMANDS` — name, help line,
argument setup and handler — so ``python -m repro --help`` lists them all
and dispatch cannot drift from the parser.

Every gated experiment but the chaos campaign (which streams its cells)
is a :class:`~repro.harness.figures.Figure` row — a paper artefact of
``FIGURES`` (``repro list <id>``, ``repro verify`` is V1), or ``ELASTIC``
/ ``PLACE`` of :mod:`repro.harness.experiments` — and runs down one path,
:func:`_run_row`: ``run`` at the row's sizes, ``table``, the output
files, then the :func:`_verdict` footer on its ``bands``, whose exit code
carries them.  Every command that runs a cluster takes one output-flag
set (:func:`_args_outputs`): ``--trace`` (Chrome), ``--jsonl`` (spans,
the ``analyze`` input), ``--metrics-out``, ``--locality-out``; each file
is written only when asked, by :func:`_write_outputs`.
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
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parents[3] / "examples" / "quickstart.py"
    if not script.exists():
        print("examples/quickstart.py not found (installed without repo?)")
        return 1
    runpy.run_path(str(script), run_name="__main__")
    return 0


def _rows() -> dict:
    from .figures import FIGURES

    return {row.id: row for row in FIGURES}


def _run_row(row, args=None, **overrides) -> int:
    """The one path of every gated row: run it at its sizes (``overrides``
    on top), print its table, write the files ``args``' output flags ask
    for (from the run's ``obs``), and end in the verdict on its bands."""
    out = row.run(**{**row.sizes, **overrides})
    print(row.table(out))
    if args is not None:
        _write_outputs(args, overrides["obs"])
    return _verdict(row.bands(out))


def _cmd_verify(args) -> int:
    return _run_row(_rows()["V1"], seeds=args.seeds)


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
        cell=Recipe(num_nodes=args.nodes, num_objects=args.objects,
                    duration_us=args.duration, quiesce_us=args.quiesce,
                    disk=DiskParams(enabled=wal, fsync_policy=args.fsync,
                                    ack_policy=args.ack),
                    placement=args.placement,
                    check_history=args.check_history),
        num_schedules=args.schedules, seeds=tuple(range(args.seeds)),
        difficulty=args.difficulty,
        schedule_seed_base=args.schedule_seed_base,
        power_loss=args.power_loss, elastic=args.elastic,
        elastic_add=args.add)

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
    """One LB-routed live scale-out: the ``ELASTIC`` row."""
    from .experiments import ELASTIC

    if not 0 < args.window <= args.steady / 2:
        # Steady state is the mean of the windows ending in the back half
        # of the pre-add era: a longer window leaves that half empty.
        args.error("--window must be positive and at most --steady / 2")
    return _run_row(ELASTIC, args, obs=_observability(args, locality=True),
                    **{name: getattr(args, name) for name in (
                        "nodes", "add", "objects", "threads", "remote",
                        "steady", "after", "quiesce", "window", "groups",
                        "top", "wal", "seed")})


def _cmd_place(args) -> int:
    """Static vs adaptive placement: the ``PLACE`` row."""
    from ..placement import DIFF_WORKLOADS
    from .experiments import PLACE

    return _run_row(PLACE, workloads=args.workload or DIFF_WORKLOADS,
                    seed=args.seed, check_history=args.check_history)


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
            fh.writelines(line + "\n" for line in folded_stacks(source))
        print(f"\nwrote folded stacks: {args.folded} "
              f"(flamegraph.pl-compatible)")
    return 0


def _cmd_list(args) -> int:
    rows = _rows()
    unknown = [i for i in args.ids if i not in rows]
    if unknown:
        args.error(f"unknown row id: {', '.join(unknown)} "
                   f"(ids: {', '.join(rows)})")
    if args.ids:
        return max([_run_row(rows[i]) for i in args.ids])
    print("Experiment catalog (repro list <id> runs at the committed sizes "
          "and gates; pytest benchmarks --benchmark-only -s -k <id> also "
          "saves results/):")
    for row in rows.values():
        print(f"  {row.id:<10} results/{row.result + '.json':<30} {row.title}")
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
    p.add_argument("--power-loss", action="store_true", help=(
        "durability campaign: every schedule powers off the whole cluster "
        "mid-run and cold-starts it (implies --wal)"))
    p.add_argument("--elastic", action="store_true", help=(
        "reconfiguration campaign: every schedule scales the cluster out "
        "mid-run, then drains a node or powers the cluster off "
        "mid-rebalance (implies --wal)"))
    p.add_argument("--add", type=_positive_int, default=2, help=(
        "nodes each elastic schedule adds (default %(default)s)"))
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
    p.add_argument("--nodes", type=_checked(int, lambda v: v >= 3, ">= 3 "
                                            "(LB routing needs >= 3 nodes)"),
                   default=4, help="base cluster size (default %(default)s)")
    p.add_argument("--add", type=_checked(int, lambda v: v >= 0, ">= 0"),
                   default=2, help="nodes to add mid-run; 0 = no scale-out "
                                   "(default %(default)s)")
    p.add_argument("--objects", type=_positive_int, default=48,
                   help="counter objects (default %(default)s)")
    p.add_argument("--threads", type=_positive_int, default=2,
                   help="app threads per node (default %(default)s)")
    p.add_argument("--remote", type=_fraction, default=0.05,
                   help="fraction of transactions touching keys routed to "
                        "other nodes (default %(default)s)")
    p.add_argument("--steady", type=float, default=20_000.0, help=(
        "steady-state window before the add, in us (default %(default)s)"))
    p.add_argument("--after", type=float, default=40_000.0, help=(
        "measured window after the add, in us (default %(default)s)"))
    p.add_argument("--quiesce", type=float, default=30_000.0, help=(
        "drain window after traffic stops, before the audit, in us "
        "(default %(default)s)"))
    p.add_argument("--window", type=float, default=2_000.0, help=(
        "throughput sampling window in us (default %(default)s)"))
    p.add_argument("--groups", type=_positive_int, default=8, help=(
        "object groups across the heatmap (default %(default)s)"))
    p.add_argument("--top", type=_positive_int, default=10, help=(
        "rows in the hot-key/migration tables (default %(default)s)"))
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
                   help="run these rows at their sizes and gate on their "
                        "bands (default: print the catalog)")


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
    ("list", "experiment catalog, or run the named rows and gate",
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
