"""Golden pins for the rig's consumers that no scenario digest covers.

``repro elastic`` (the LB-routed scale-out) and the four
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
#: A 4 -> 6 scale-out small enough for tier-1 that still passes every gate
#: (throughput recovery, remote-fraction fall, a paid-back move).
RIG_ARGS = ["--nodes", "4", "--add", "2", "--objects", "32",
            "--steady", "10000", "--after", "20000",
            "--quiesce", "10000", "--seed", "1"]


def locality_report(out_dir: Path):
    """Run the LB-routed CLI on one seed; its exit code + report sha256."""
    path = out_dir / "elastic.json"
    code = main(["elastic", *RIG_ARGS, "--locality-out", str(path)])
    return code, hashlib.sha256(path.read_bytes()).hexdigest()


def place_record(out) -> dict:
    return {"decision_log": out.decision_digest,
            "static_committed": out.static.committed,
            "adaptive_committed": out.adaptive.committed}


def explore_digest() -> str:
    digests = [run.digest() for run in explore(seeds=3).runs]
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()


def test_elastic_report_matches_parent_golden(tmp_path, capsys):
    code, digest = locality_report(tmp_path)
    out = capsys.readouterr().out
    # One run passes every gate, and its locality recorder saw what the
    # parent's recorder saw.
    assert code == 0
    assert "converged=True" in out and "access heatmap" in out
    assert digest == json.loads(GOLDEN.read_text())["locality_report"]


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
        code, digest = locality_report(Path(tmp))
    assert code == 0, code
    golden = {
        "locality_report": digest,
        "place": {name: place_record(run_pair(name, seed=1))
                  for name in DIFF_WORKLOADS},
        "explore": explore_digest(),
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
