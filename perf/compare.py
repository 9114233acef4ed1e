#!/usr/bin/env python3
"""Compare two reports of ``perf/run.py`` under the benchmark's own bounds.

``python3 perf/compare.py a.json b.json`` treats *a* as the parent and *b*
as the change: *b* disagrees when an end-to-end metric is worse than *a*'s
by more than its bound.  Reports of one ``--seed`` are held to the issue's
bounds (``same_seed_bound`` in ``perf/metrics.py``: host 10%, set-up 25%,
simulated 2%); reports of different seeds to the wider ones
``BENCHMARK.json`` fixes for the driver.  With ``--same-code`` the two
reports are runs of one commit and one seed, so every simulated metric —
end to end and per layer — must be bit-identical as well.

One row per workload x metric shows both medians and, for host metrics, the
min-max over each report's repeats.  A host metric whose own spread is
wider than its bound is marked *unresolved*: the run was too noisy to say
"unchanged".  Exit code 1 on any disagreement, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

UNRESOLVED = "unresolved (own spread wider than bound)"


def worsening(metric: Dict[str, Any], parent: float, change: float) -> float:
    """How much worse ``change`` is, as a share of ``parent`` (<= 0: not)."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - parent) / abs(parent)
    return -delta if metric["better"] == "higher" else delta


def own_spread(values: Optional[List[float]]) -> float:
    if not values or len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)


def _range(values: Optional[List[float]]) -> str:
    return f"[{min(values):.4g}..{max(values):.4g}]" if values else ""


def compare(a: Dict[str, Any], b: Dict[str, Any], bounds: Dict[str, float],
            same_code: bool) -> List[str]:
    """Print the table; return the disagreements."""
    disagreements: List[str] = []
    print(f"{'workload':18s} {'metric':28s} {'a':>14s} {'b':>14s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for section in ("end_to_end", "per_layer"):
        for name in sorted(set(a.get(section, {})) ^ set(b.get(section, {}))):
            disagreements.append(f"{name}: {section} is in only one report")
    for name in a["end_to_end"]:
        if name not in b["end_to_end"]:
            continue
        ra, rb = a["end_to_end"][name], b["end_to_end"][name]
        for metric in END_TO_END:
            key = metric["name"]
            va = ra["metrics"][key]["value"]
            vb = rb["metrics"][key]["value"]
            bound = bounds[key]
            worse = worsening(metric, va, vb)
            spreads = ""
            verdict = "REGRESSION" if worse > bound else "ok"
            if metric["clock"] == "sim":
                if same_code and va != vb:
                    verdict = "DIFFERS (same code must repeat exactly)"
            else:
                reps_a = ra["per_repeat"].get(key)
                reps_b = rb["per_repeat"].get(key)
                spreads = f"{_range(reps_a)} {_range(reps_b)}"
                if max(own_spread(reps_a), own_spread(reps_b)) > bound:
                    verdict = UNRESOLVED  # neither "unchanged" nor "worse"
            if verdict not in ("ok", UNRESOLVED):
                disagreements.append(f"{name} {key}: {verdict}")
            print(f"{name:18s} {key:28s} {va:14.6g} {vb:14.6g} "
                  f"{100 * worse:8.2f}% {100 * bound:5.0f}%  {verdict} "
                  f"{spreads}")
    if same_code:
        for name in a.get("per_layer", {}):
            la = a["per_layer"][name]["metrics"]
            lb = b.get("per_layer", {}).get(name, {}).get("metrics", {})
            for metric in PER_LAYER:
                key = metric["name"]
                if metric["clock"] == "sim" and key in lb and (
                        la[key]["value"] != lb[key]["value"]):
                    disagreements.append(
                        f"{name} {key}: {la[key]['value']!r} != "
                        f"{lb[key]['value']!r} (counts must repeat exactly)")
    for line in disagreements:
        print(f"DISAGREE: {line}")
    return disagreements


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="parent report")
    parser.add_argument("b", type=Path, help="change report")
    parser.add_argument("--same-code", action="store_true",
                        help="both reports are runs of one commit: simulated "
                             "metrics must be bit-identical")
    parser.add_argument("--benchmark", type=Path,
                        default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    if a["seconds"] != b["seconds"] or (args.same_code
                                        and a["seed"] != b["seed"]):
        print("reports were not made with the same --seconds (and, for "
              "--same-code, --seed); nothing to compare")
        return 1
    if a["seed"] == b["seed"]:
        bounds = {m["name"]: m["same_seed_bound"] for m in END_TO_END}
    else:
        declared = json.loads(args.benchmark.read_text())
        bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    return 1 if compare(a, b, bounds, args.same_code) else 0


if __name__ == "__main__":
    sys.exit(main())
