#!/usr/bin/env python3
"""The benchmark of record: six workloads, eight end-to-end metrics, a
per-layer ledger measured from outside the program.

Two ways to run it, both from the repository root:

``python3 perf/run.py --seed 1``
    Everything: each workload timed (``--repeats`` fresh child processes,
    strictly one after the other), checked and traced, the micro-benchmarks
    once, every metric printed by name with unit, direction and bound, and
    one JSON report written to ``--out``.  Exit code 0 only if every
    correctness gate passed.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, the way the benchmark driver calls it.  The last line of
    stdout is one JSON object ``{"correct", "attempted", "failed",
    "metrics"}`` carrying every end-to-end metric (``--trace 0``) or every
    per-layer metric (``--trace 1``).

See ``perf/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402  (fails before any output if the program is absent)

if HERE.parent / "src" not in Path(repro.__file__).resolve().parents:
    sys.exit("perf: `repro` was imported from outside this checkout; the "
             "benchmark measures the program next to it")

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from micro import run_micro  # noqa: E402
from workloads import REPEATS, RUN_SECONDS, WORKLOADS  # noqa: E402

#: A run whose process got less than this share of its wall time as CPU
#: was disturbed by something else on the machine.
NOISY_BELOW = 0.9
#: Layer shares must add up to the traced window within this much.
SHARE_TOLERANCE = 0.02


# ------------------------------------------------------------------ children

def spawn(name: str, seed: int, size: float, mode: str) -> Dict[str, Any]:
    """Run one measurement in a fresh child process and wait for it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), name, str(seed),
         repr(size), mode],
        stdout=subprocess.PIPE, env={**os.environ, "PYTHONHASHSEED": "0"})
    if proc.returncode != 0:
        raise SystemExit(f"perf: {mode} run of {name} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout)


def outcome_key(run: Dict[str, Any]) -> tuple:
    """What instruments must never change: ops, failures, every latency."""
    sim = run["sim"]
    return (sim["ops"], sim["failed"], sim["lat_samples"], sim["lat_digest"])


# --------------------------------------------------------------- end to end

def _repeat_hygiene(host: Dict[str, Any]) -> Dict[str, Any]:
    ratio = host["cpu_s"] / host["wall_s"]
    return {"wall_s": host["wall_s"], "cpu_s": host["cpu_s"],
            "cpu_per_wall": ratio, "noisy": ratio < NOISY_BELOW}


def timed_workload(name: str, seed: int, seconds: float,
                   repeats: int) -> Dict[str, Any]:
    """The end-to-end metrics of one workload, with their evidence."""
    workload = WORKLOADS[name]
    cluster_seed = workload.cluster_seed(seed)
    size = seconds / REPEATS
    runs = [spawn(name, cluster_seed, size, "timed") for _ in range(repeats)]
    first = runs[0]
    problems = [p for run in runs for p in run["problems"]]
    if any(run["sim"] != first["sim"] for run in runs[1:]):
        problems.append("repeat-vs-repeat: simulated results differ between "
                        "runs of the same seed")
    if workload.checked_run:
        checked = spawn(name, cluster_seed, size, "checked")
        problems += checked["problems"]
        if outcome_key(checked) != outcome_key(first):
            problems.append("checked-vs-timed: recording the history "
                            "changed the outcome")

    problems = list(dict.fromkeys(problems))  # each child reports its own
    sim = first["sim"]
    ops, failed = sim["ops"], sim["failed"]
    if problems:
        failed = ops + failed  # a wrong answer is worth nothing
    attempted = max(1, ops + sim["failed"])
    per_repeat = {
        "ops_per_host_s": [ops / run["host"]["wall_s"] for run in runs],
        "peak_rss_mb": [run["host"]["peak_rss_kb"] / 1024 for run in runs],
        "setup_s": [run["host"]["setup_s"] for run in runs],
    }
    values = {key: statistics.median(reps) for key, reps in per_repeat.items()}
    values.update({
        "sim_ops_per_s": sim["sim_ops_per_s"],
        "sim_lat_p50_us": sim["sim_lat_p50_us"],
        "sim_lat_p99_us": sim["sim_lat_p99_us"],
        "events_per_op": sim["events_per_op"],
        "committed_share": (attempted - failed) / attempted,
    })
    return {
        "workload": name, "seed": seed, "cluster_seed": cluster_seed,
        "seconds": seconds,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in END_TO_END},
        "latency_samples": sim["lat_samples"],
        "per_repeat": per_repeat,
        "repeats": [_repeat_hygiene(run["host"]) for run in runs],
        "wall_s": statistics.median(run["host"]["wall_s"] for run in runs),
        "sim": sim,
        "host": first["host"],
    }


# ---------------------------------------------------------------- per layer

def _pct(value: float, base: float) -> float:
    return 100.0 * (value / base - 1.0) if base else 0.0


def traced_workload(name: str, seed: int, seconds: float,
                    micro: Dict[str, float],
                    plain: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The per-layer metrics of one workload.

    ``plain`` is the untraced measurement of the same (seed, seconds) to
    compare with — ``{"sim", "host", "wall_s", "problems"}``, ``wall_s``
    being the median raw wall of its runs; it is one run made here when
    absent.  The workload's uninstrumented twin is always one run made here.
    """
    workload = WORKLOADS[name]
    size = seconds / REPEATS

    def plain_run(which: str, size: float) -> Dict[str, Any]:
        run = spawn(which, WORKLOADS[which].cluster_seed(seed), size, "timed")
        return {"sim": run["sim"], "host": run["host"],
                "wall_s": run["host"]["wall_s"], "problems": run["problems"]}

    if plain is None:
        plain = plain_run(name, size)
    traced = spawn(name, workload.cluster_seed(seed), size, "traced")
    problems = plain["problems"] + traced["problems"]

    sim, host = traced["sim"], traced["host"]
    messages = sim.pop("messages")
    if sim != plain["sim"]:
        problems.append("traced-vs-timed: the traced run did not reproduce "
                        "the timed run's simulated results")
    shares = host["shares"]
    total = sum(shares.values())
    if abs(total - 1.0) > SHARE_TOLERANCE or min(shares.values()) < 0:
        problems.append(f"layers: shares sum to {total:.4f} "
                        f"(min {min(shares.values()):.4f})")

    counts = sim["counts"]
    declared = {m["name"] for m in PER_LAYER}
    values = {key: value for key, value in counts.items() if key in declared}
    for layer, share in shares.items():
        values["sim.kernel_share" if layer == "sim" else f"{layer}.share"] = share
    values["sim.events_per_host_s"] = plain["sim"]["events"] / plain["wall_s"]

    def sent(prefix: str) -> int:
        return sum(n for kind, n in messages.items() if kind.startswith(prefix))

    commits, requests = counts["commit.commits"], counts["ownership.requests"]
    values["commit.msgs_per_commit"] = sent("rc.") / commits if commits else 0.0
    values["ownership.msgs_per_req"] = (sent("own.") / requests
                                        if requests else 0.0)
    loaded = plain["host"]
    values["store.load_us_per_obj"] = loaded["load_s"] * 1e6 / loaded["objects"]
    values["store.rss_kb_per_kobj"] = (loaded["load_rss_kb"]
                                       / (loaded["objects"] / 1000))
    values["obs.profiler_overhead_pct"] = _pct(host["wall_s"], plain["wall_s"])

    overhead = dict.fromkeys(("obs.trace_overhead_pct", "obs.rss_overhead_pct",
                              "obs.events_overhead_pct"), 0.0)
    if workload.twin:
        twin_name, factor = workload.twin
        twin = plain_run(twin_name, size * factor)
        problems += twin["problems"]
        if outcome_key(twin) != outcome_key(plain):
            problems.append(f"twin: outcome differs from {twin_name}")
        overhead = {
            "obs.trace_overhead_pct": _pct(plain["wall_s"], twin["wall_s"]),
            "obs.rss_overhead_pct": _pct(plain["host"]["peak_rss_kb"],
                                         twin["host"]["peak_rss_kb"]),
            "obs.events_overhead_pct": _pct(plain["sim"]["events"],
                                            twin["sim"]["events"]),
        }
    values.update(overhead)
    values.update(micro)

    ops, failed = sim["ops"], sim["failed"]
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "correct": not problems, "attempted": max(1, ops + failed),
        "failed": ops + failed if problems else failed,
        "problems": problems,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in PER_LAYER},
        "samples": {"commit": counts["commit.samples"],
                    "ownership": counts["ownership.samples"],
                    "recovery": counts["recovery.samples"]},
        "shares": shares,
        "handler_ns": host["handler_ns"],
        "messages": messages,
        "traced_wall_s": host["wall_s"],
        "plain_wall_s": plain["wall_s"],
    }


# ----------------------------------------------------------------- printing

def env_block() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def _bound(metric: Dict[str, Any]) -> str:
    """Both regression bounds: across seeds (the driver's) / for one seed."""
    if "bound" not in metric:
        return ""
    return (f"bound {100 * metric['bound']:.0f}%/"
            f"{100 * metric['same_seed_bound']:.0f}%")


def print_metrics(result: Dict[str, Any], declared: List[Dict[str, Any]],
                  note: str) -> None:
    print(f"\n{result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']:g}  {note}")
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        print(f"  {metric['name']:32s} {entry['value']:16.4f} "
              f"{entry['unit']:10s} {metric['better']:7s} "
              f"{metric['clock']:5s} {_bound(metric)}")
    if "failed_share" in result:
        # The issue's name for it; BENCHMARK.json declares the complement
        # because a declared end-to-end metric may never read 0.
        print(f"  {'failed_share':32s} {result['failed_share']:16.4f} "
              f"{'ratio':10s} {'lower':7s} {'sim':5s} "
              f"= 1 - committed_share ({result['failed']} of "
              f"{result['attempted']} attempted)")
    for problem in result["problems"]:
        print(f"  GATE FAILED: {problem}")


def print_list() -> None:
    print("workloads (closed loop: 2 app threads per node, 6 mover threads):")
    for workload in WORKLOADS.values():
        print(f"  {workload.name:18s} {workload.why}")
    for title, declared in (
            ("end-to-end metrics (bound across seeds/for one seed)", END_TO_END),
            ("per-layer metrics", PER_LAYER)):
        print(f"{title}:")
        for metric in declared:
            print(f"  {metric['name']:32s} {metric['unit']:10s} "
                  f"{metric['better']:7s} {metric['clock']:5s} "
                  f"{_bound(metric):13s} {metric['what']}")


def timed_note(result: Dict[str, Any]) -> str:
    repeats = result["repeats"]
    ratio = min(r["cpu_per_wall"] for r in repeats)
    noisy = "  NOISY" if any(r["noisy"] for r in repeats) else ""
    return (f"[{len(repeats)} repeats, median window {result['wall_s']:.1f}s, "
            f"{result['latency_samples']} latency samples, "
            f"cpu/wall >= {ratio:.2f}{noisy}]")


# --------------------------------------------------------------------- main

def last_line(result: Dict[str, Any]) -> str:
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"host seconds measured per run on the reference "
                             f"box (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help="timed child processes per workload")
    parser.add_argument("--quick", action="store_true",
                        help="durations / 20 (smoke tests)")
    parser.add_argument("--out", type=Path, default=None,
                        help="report file (default perf/out/report.json when "
                             "running every workload)")
    parser.add_argument("--list", action="store_true",
                        help="print every name, unit, direction and bound")
    args = parser.parse_args(argv)
    if args.list:
        print_list()
        return 0
    seconds = args.seconds if args.seconds is not None else float(RUN_SECONDS)
    if args.quick:
        seconds /= 20

    if args.workload:
        if args.trace:
            result = traced_workload(args.workload, args.seed, seconds,
                                     run_micro())
            print_metrics(result, PER_LAYER, "[traced]")
        else:
            result = timed_workload(args.workload, args.seed, seconds,
                                    args.repeats)
            print_metrics(result, END_TO_END, timed_note(result))
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(result, indent=1, sort_keys=True))
        print(last_line(result))
        return 0 if result["correct"] else 1

    report: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "seconds": seconds,
        "repeats": args.repeats, "env": env_block(),
        "load": "closed loop: 2 app threads per node issue back to back "
                "(voter_bulk_move: 6 mover threads); one process, one "
                "thread, workloads strictly sequential",
        "end_to_end": {}, "per_layer": {},
    }
    micro = run_micro()
    report["micro"] = micro
    for name in WORKLOADS:
        timed = timed_workload(name, args.seed, seconds, args.repeats)
        print_metrics(timed, END_TO_END, timed_note(timed))
        report["end_to_end"][name] = timed

    def as_plain(which: str) -> Dict[str, Any]:
        timed = report["end_to_end"][which]
        return {"sim": timed["sim"], "host": timed["host"],
                "wall_s": timed["wall_s"], "problems": []}

    for name in WORKLOADS:
        traced = traced_workload(name, args.seed, seconds, micro,
                                 plain=as_plain(name))
        print_metrics(traced, PER_LAYER, "[traced]")
        report["per_layer"][name] = traced
    results = list(report["end_to_end"].values()) + list(
        report["per_layer"].values())
    report["correct"] = all(r["correct"] for r in results)
    out = args.out or HERE / "out" / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nreport: {out}   correct: {report['correct']}")
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
