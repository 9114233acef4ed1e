"""The figure table (``repro.harness.figures.FIGURES``): one row per
``results/*.json``, every band reachable without a simulation, and the
rows that take under a second run here at their paper-scale sizes."""

import json
import pathlib
import runpy

import pytest

from repro.harness import tables
from repro.harness.figures import FIGURES
from repro.harness.runner import main
from repro.verify import CheckResult

ROOT = pathlib.Path(__file__).resolve().parent.parent
ROWS = {row.id: row for row in FIGURES}
#: The sizes ``results/`` was recorded at live with the benchmark.
PAPER_SCALE = runpy.run_path(
    str(ROOT / "benchmarks" / "test_paper_figures.py"))["PAPER_SCALE"]
#: Rows that run in well under a second at those sizes (3 s together).
FAST = ("T2", "L1-boston", "L1-venmo", "L1-tpcc", "F14", "F15", "A3", "A4")


def recorded(row) -> dict:
    """The committed result of ``row`` — a payload every band passes on.
    Only V1's bands read ``detail`` (the exhaustive checker's results)."""
    payload = json.loads((ROOT / "results" / f"{row.result}.json").read_text())
    if row.id == "V1":
        payload["detail"] = {"checked": {name: CheckResult()
                                         for name in payload["states"]}}
    return payload


def truncated() -> CheckResult:
    result = CheckResult()
    result.truncated = True
    return result


# --------------------------------------------------------- completeness


def test_rows_and_results_are_one_to_one():
    on_disk = sorted(p.stem for p in (ROOT / "results").glob("*.json"))
    assert sorted(row.result for row in FIGURES) == on_disk
    assert len(ROWS) == len(FIGURES) == len(PAPER_SCALE)
    assert set(ROWS) == set(PAPER_SCALE)


def test_repro_list_prints_every_row(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[0] for line in lines] == [row.id for row in FIGURES]
    # All 17 artefacts of DESIGN.md §3 (L1 is three rows).
    assert len({row.id.split("-")[0] for row in FIGURES}) == 17


# ---------------------------------------------------------------- bands


@pytest.mark.parametrize("row", FIGURES, ids=lambda row: row.id)
def test_the_recorded_result_passes_its_bands(row):
    assert row.bands(recorded(row)) == []


F7_6N, F12_IDLE, F12_LOADED = ("6n_2.5% handovers", "bulk move (fig10)",
                               "hot move under load (fig11)")
#: (row, path into the recorded payload, value to plant, band that fails).
BROKEN = [
    ("T2", ("Smallbank", "read_share"), 0.25, "read_share[Smallbank]"),
    ("T2", ("Handovers", "tables"), 4, "tables[Handovers]"),
    ("T2", ("TATP", "tables"), 3, "tables[TATP]"),
    ("T2", ("Smallbank", "tables"), 1, "tables[Smallbank]"),
    ("T2", ("Voter", "tables"), 1, "tables[Voter]"),
    ("L1-boston", ("3",), 0.001, "monotone"),
    ("L1-boston", ("6",), 0.095, "six_node_remote"),
    ("L1-boston", ("6",), 0.2, "remote_txns"),
    ("L1-venmo", ("remote_3n",), 0.02, "remote_3n"),
    ("L1-venmo", ("remote_6n",), 0.03, "remote_6n"),
    ("L1-venmo", ("clustering",), 0.9, "clustering"),
    ("L1-tpcc", ("remote_fraction_per_line",), 0.05, "per_line"),
    ("F7", (F7_6N, "zeus_tps"), 7e6, f"not_above_ideal[{F7_6N}]"),
    ("F7", (F7_6N, "gap_pct"), 20.0, f"gap[{F7_6N}]"),
    ("F7", (F7_6N, "ownership_frac"), 0.05, f"ownership_frac[{F7_6N}]"),
    ("F7", (F7_6N, "zeus_tps"), 3e6, "scaling"),
    ("F8", ("fasst3", 1), 4.3e6, "leads_fasst_at_1pct"),
    ("F8", ("drtm3", 1), 4.3e6, "leads_drtm_at_1pct"),
    ("F8", ("zeus3", 5), 5e6, "decays"),
    ("F8", ("zeus3", 5), 2.9e6, "gap_closes"),
    ("F8", ("fasst3", 5), 1e6, "fasst_flat"),
    ("F8", ("zeus6", 1), [0.1, 7e6], "six_node_decays"),
    ("F8", ("zeus6", 0), [0.01, 4e6], "six_node_scales"),
    ("F9", ("fasst3", 0), 1.6e7, "leads_fasst_at_0pct"),
    ("F9", ("farm3", 0), 1.6e7, "leads_farm_at_0pct"),
    ("F9", ("fasst3", 1), 1.4e7, "leads_fasst_at_5pct"),
    ("F9", ("zeus3", 2), 1.5e7, "crossover_near_20pct"),
    ("F9", ("zeus3", 4), 2e7, "decays"),
    ("F9", ("zeus3", 4), 1e7, "gap_closes"),
    ("F9", ("zeus6", 0), [0.05, 1e7], "six_node_scales"),
    ("F10", ("objects_per_s_per_thread",), 5e5, "rate_per_thread"),
    ("F10", ("move1_seconds",), None, "move1_completes"),
    ("F10", ("votes_total",), 10, "voting_continues"),
    ("F11", ("objects_moved",), 3_000, "moves_complete"),
    ("F11", ("hot_tps",), 1e3, "hot_share"),
    ("F11", ("total_tps",), 1e5, "voting_continues"),
    ("F11", ("mover_objects_per_s",), 5e3, "mover_rate"),
    ("F12", (F12_IDLE, "count"), 10, f"samples[{F12_IDLE}]"),
    ("F12", (F12_IDLE, "mean_us"), 200.0, f"mean[{F12_IDLE}]"),
    ("F12", (F12_IDLE, "p999_us"), 100.0, f"tail[{F12_IDLE}]"),
    ("F12", (F12_LOADED, "p999_us"), 1.0, "load_stretches_tail"),
    ("F13", ("redis_1n",), 2e4, "redis_collapses"),
    ("F13", ("zeus_1n",), 1e4, "zeus_matches_local"),
    ("F13", ("zeus_2n",), 4e4, "two_node_gain"),
    ("F14", ("zeus", 0), 1_000.0, "zeus_slower"),
    ("F14", ("zeus", 5), 6_000.0, "large_packet_gap"),
    ("F14", ("zeus", 0), 400.0, "gap_grows_as_packets_shrink"),
    ("F15", ("zeus", "one_node_tps"), 3e4, "parity[one_node_tps]"),
    ("F15", ("zeus", "two_node_tps"), 5.5e4, "scale_out"),
    ("F15", ("zeus", "back_to_one_tps"), 9e4, "scale_in"),
    ("V1", ("detail", "checked", "commit+crash"), truncated(),
     "exhaustive[commit+crash]"),
    ("V1", ("explorer_violations",), [["seed 3", "history"]], "sweep"),
    ("A1", ("1",), 4e6, "pipelining_wins"),
    ("A1", ("8",), 3e6, "saturates"),
    ("A1", ("2",), 1e6, "monotone_start"),
    ("A2", ("5", "tps"), 1e7, "throughput_falls"),
    ("A2", ("5", "bytes"), 10, "traffic_grows"),
    ("A2", ("1", "tps"), 9.5e6, "unreplicated_wins"),
    ("A3", ("reads_on_all_replicas",), 5e6, "replica_reads_scale"),
    ("A4", ("reader", "count"), 300, "granted[reader]"),
    ("A4", ("reader", "mean_us"), 6.0, "two_hops_beat_reader"),
    ("A4", ("non_replica", "mean_us"), 6.0, "two_hops_beat_non_replica"),
    ("A4", ("non_replica", "mean_us"), 7.5, "non_replica_slowest"),
    ("A5", ("hashed", "pool_imbalance"), 3.0, "hashing_balances"),
    ("A5", ("hashed", "tps"), 4e6, "throughput_kept"),
]


@pytest.mark.parametrize("row_id,path,value,gate", BROKEN,
                         ids=[f"{r}-{g}" for r, _p, _v, g in BROKEN])
def test_a_broken_payload_names_its_band(row_id, path, value, gate):
    payload = recorded(ROWS[row_id])
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    problems = ROWS[row_id].bands(payload)
    assert gate in dict(problems), problems
    assert all(problem for _gate, problem in problems)


def test_every_row_has_a_band():
    assert {row_id for row_id, *_ in BROKEN} == set(ROWS)


# ------------------------------------------- the fast rows, at full size


@pytest.mark.parametrize("row_id", FAST)
def test_fast_row_reproduces_its_recorded_result(row_id, tmp_path,
                                                  monkeypatch):
    """Run -> table -> save -> bands, as the benchmark does; what it saves
    must be the committed file byte for byte."""
    row = ROWS[row_id]
    payload = row.run(**PAPER_SCALE[row_id])
    assert row.bands(payload) == []
    assert row.table(payload).splitlines()[0]
    monkeypatch.setattr(tables, "results_dir", lambda: str(tmp_path))
    saved = pathlib.Path(row.save(payload))
    assert saved.read_bytes() == (ROOT / "results" / saved.name).read_bytes()
