#!/usr/bin/env python3
"""How far each end-to-end metric moves from seed to seed.

``python3 perf/spread.py --first-seed 1 --out perf/out/spread.json`` runs
every workload the way the driver does (``run.py --workload W --seed N
--seconds S --trace 0``) on ``--seeds`` (10) consecutive seeds, strictly one
after the other, and prints for each workload x metric the median and the
spread: the distance between the first and third quartile of the ten values
(``statistics.quantiles(values, n=4)``) as a share of their median.  That is
the acceptance test the driver applies to the benchmark itself; the bounds
in ``perf/metrics.py`` were sized from two such sets, kept as
``perf/spread.json``.  Exit code 1 if a run fails or a spread (other than
``setup_s``'s) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from metrics import END_TO_END  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS  # noqa: E402


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--out", type=Path, default=HERE / "out" / "spread.json")
    args = parser.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    doc: Dict[str, Any] = {"seeds": seeds, "seconds": args.seconds,
                           "workloads": {}}
    ok = True
    for name in args.workload or list(WORKLOADS):
        values: Dict[str, List[float]] = {m["name"]: [] for m in END_TO_END}
        took, windows = [], []
        detail = args.out.with_suffix(".run.json")
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", repr(args.seconds),
                 "--trace", "0", "--out", str(detail)],
                stdout=subprocess.PIPE, text=True)
            took.append(time.perf_counter() - t0)
            result = json.loads(proc.stdout.splitlines()[-1])
            windows.append([r["wall_s"] for r in
                            json.loads(detail.read_text())["repeats"]])
            if proc.returncode or not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: exit {proc.returncode}, "
                      f"correct {result['correct']}, failed {result['failed']}")
                ok = False
            for key, entry in result["metrics"].items():
                values[key].append(entry["value"])
        rows = {}
        for metric in END_TO_END:
            key = metric["name"]
            rows[key] = {"values": values[key],
                         "median": statistics.median(values[key]),
                         "spread": spread(values[key])}
            over = rows[key]["spread"] > metric["bound"] and key != "setup_s"
            ok = ok and not over
            print(f"{name:18s} {key:16s} median {rows[key]['median']:14.6g}  "
                  f"spread {100 * rows[key]['spread']:6.2f}%  bound "
                  f"{100 * metric['bound']:3.0f}%{'  OVER' if over else ''}",
                  flush=True)
        doc["workloads"][name] = {"metrics": rows, "run_took_s": took,
                                  "window_wall_s": windows}
        detail.unlink()
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    slowest = max(max(w["run_took_s"]) for w in doc["workloads"].values())
    print(f"wrote {args.out}; slowest run {slowest:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
