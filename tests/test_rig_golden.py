"""Golden pins for the rig's consumers that no scenario digest covers.

``repro heatmap`` / ``repro elastic`` (the LB-routed scale-out) and the four
``repro place`` differentials must reproduce, byte for byte, what the commit
*before* the five hand-built harnesses were collapsed into
``repro.harness.rig`` produced.  The golden file was recorded from that
parent commit (09ab9c3) with::

    PYTHONPATH=src python tests/test_rig_golden.py --record

and must only ever be re-recorded by a change that means to alter an outcome.
The ``explore`` entry pins the randomized sweep; it was re-recorded when the
sweep's load became the campaign's (one cell, one runner).
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.chaos import explore
from repro.harness.runner import main
from repro.placement import DIFF_WORKLOADS, run_pair

GOLDEN = Path(__file__).with_name("golden_rig_digests.json")
#: A 4 -> 6 scale-out small enough for tier-1 that still passes both CLIs'
#: own gates (throughput recovery, remote-fraction fall, a paid-back move).
RIG_ARGS = ["--nodes", "4", "--add", "2", "--objects", "32",
            "--steady", "10000", "--after", "20000",
            "--quiesce", "10000", "--seed", "1"]


def locality_reports(out_dir: Path) -> dict:
    """Run both LB-routed CLIs on one seed; exit codes + report sha256s."""
    heat, elastic = out_dir / "heatmap.json", out_dir / "elastic.json"
    codes = {"elastic": main(["elastic", *RIG_ARGS,
                              "--locality-out", str(elastic)]),
             "heatmap": main(["heatmap", *RIG_ARGS,
                              "--locality-out", str(heat)])}
    return {"exit": codes,
            "heatmap": hashlib.sha256(heat.read_bytes()).hexdigest(),
            "elastic": hashlib.sha256(elastic.read_bytes()).hexdigest()}


def place_record(out) -> dict:
    return {"decision_log": out.decision_digest,
            "static_committed": out.static_committed,
            "adaptive_committed": out.adaptive_committed}


def explore_digest() -> str:
    digests = [run.digest() for run in explore(seeds=3).runs]
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()


def test_heatmap_and_elastic_reports_match_parent_golden(tmp_path, capsys):
    got = locality_reports(tmp_path)
    out = capsys.readouterr().out
    # Both CLIs run the same rig and settle on the same seed: each passes
    # its own gates, and the locality recorder saw the same run.
    assert got["exit"] == {"elastic": 0, "heatmap": 0}
    assert "converged=True" in out and "access heatmap" in out
    assert got["heatmap"] == got["elastic"]
    assert got["heatmap"] == json.loads(GOLDEN.read_text())["locality_report"]


@pytest.mark.parametrize("name", DIFF_WORKLOADS)
def test_place_decisions_match_parent_golden(name, place_outcome):
    want = json.loads(GOLDEN.read_text())["place"][name]
    assert place_record(place_outcome(name)) == want


def test_explorer_digest_matches_parent_golden():
    assert explore_digest() == json.loads(GOLDEN.read_text())["explore"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_rig_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        reports = locality_reports(Path(tmp))
    assert reports["exit"] == {"elastic": 0, "heatmap": 0}, reports
    assert reports["heatmap"] == reports["elastic"], reports
    golden = {
        "locality_report": reports["heatmap"],
        "place": {name: place_record(
            run_pair(name, seed=1, verify_determinism=False))
            for name in DIFF_WORKLOADS},
        "explore": explore_digest(),
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
