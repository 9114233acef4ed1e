"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Run with ``python -m pytest perf/tests``.  Two ``--quick`` passes (all
durations / 20, one repeat) check the report schema, that the declared
names are well-formed and identical to ``BENCHMARK.json``, the contract's
counts, that layer shares account for the traced window, and that two runs
of the same seed agree exactly on every simulated number.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(PERF), str(PERF.parent / "src")]

from metrics import END_TO_END, PER_LAYER, declaration  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((PERF.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def report_paths(tmp_path_factory):
    paths = []
    for tag in "ab":
        path = tmp_path_factory.mktemp("perf") / f"{tag}.json"
        subprocess.run([sys.executable, str(PERF / "run.py"), "--seed", "1",
                        "--quick", "--repeats", "1", "--out", str(path)],
                       check=True, stdout=subprocess.DEVNULL)
        paths.append(path)
    return paths


@pytest.fixture(scope="module")
def reports(report_paths):
    return [json.loads(path.read_text()) for path in report_paths]


def test_declarations_match_benchmark_json():
    assert BENCHMARK["end_to_end"] == [declaration(m) for m in END_TO_END]
    assert BENCHMARK["per_layer"] == [declaration(m) for m in PER_LAYER]
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why}
                                      for w in WORKLOADS.values()]
    assert BENCHMARK["run_seconds"] == RUN_SECONDS
    assert BENCHMARK["paths"] == ["perf"]


def test_contract_limits():
    names = [m["name"] for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in END_TO_END)
    setup = next(m for m in END_TO_END if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in WORKLOADS.values())


def test_report_schema(reports):
    report = reports[0]
    assert report["correct"] is True
    assert {"python", "platform", "nproc", "loadavg_at_start"} <= set(
        report["env"])
    assert "closed loop" in report["load"]
    assert set(report["end_to_end"]) == set(WORKLOADS)
    assert set(report["per_layer"]) == set(WORKLOADS)
    for name in WORKLOADS:
        timed, traced = report["end_to_end"][name], report["per_layer"][name]
        assert set(timed["metrics"]) == {m["name"] for m in END_TO_END}
        assert set(traced["metrics"]) == {m["name"] for m in PER_LAYER}
        assert timed["failed"] == 0 and timed["attempted"] >= 1
        assert timed["failed_share"] == 0
        assert timed["latency_samples"] == timed["attempted"]
        for run in timed["repeats"]:
            assert {"wall_s", "cpu_s", "cpu_per_wall", "noisy"} <= set(run)
        for entry in list(timed["metrics"].values()) + list(
                traced["metrics"].values()):
            assert isinstance(entry["value"], (int, float)) and entry["unit"]


def test_layer_shares_account_for_the_window(reports):
    for name, traced in reports[0]["per_layer"].items():
        shares = traced["shares"]
        assert abs(sum(shares.values()) - 1.0) <= 0.02, (name, shares)
        assert min(shares.values()) >= 0, (name, shares)


def test_layer_picture_matches_design_intent(reports):
    def layer(workload, metric):
        return reports[0]["per_layer"][workload]["metrics"][metric]["value"]

    assert layer("tatp_1node", "net.msgs_per_op") == 0
    assert layer("tatp_1node", "ownership.share") < 0.005
    assert layer("smallbank_local", "ownership.share") < 0.005
    assert layer("smallbank_local", "ownership.reqs_per_op") == 0
    assert (layer("smallbank_local", "commit.share")
            > layer("smallbank_local", "ownership.share"))
    assert layer("voter_bulk_move", "ownership.share") == max(
        layer(name, "ownership.share") for name in WORKLOADS)
    for name in WORKLOADS:
        retransmits = layer(name, "net.retransmit_share")
        assert (retransmits > 0) == (name == "chaos_faults"), name


def test_simulated_numbers_repeat_exactly(reports):
    a, b = reports
    for name in WORKLOADS:
        assert a["end_to_end"][name]["sim"] == b["end_to_end"][name]["sim"]
        for declared, section in ((END_TO_END, "end_to_end"),
                                  (PER_LAYER, "per_layer")):
            for metric in declared:
                if metric["clock"] == "sim":
                    key = metric["name"]
                    assert (a[section][name]["metrics"][key]
                            == b[section][name]["metrics"][key]), (name, key)


def test_compare_accepts_two_runs_of_one_commit(report_paths):
    done = subprocess.run([sys.executable, str(PERF / "compare.py"),
                           "--same-code", *map(str, report_paths)],
                          stdout=subprocess.PIPE, text=True)
    assert "DIFFERS" not in done.stdout and "only one report" not in done.stdout
    # Host metrics of a 0.3 s window may differ by more than their bounds;
    # everything simulated may not.
    for line in done.stdout.splitlines():
        if line.startswith("DISAGREE"):
            assert "REGRESSION" in line, line
