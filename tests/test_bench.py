"""Perf-trajectory bench harness: determinism, profiler neutrality,
baseline comparison, and the ``repro bench`` CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    SCENARIOS,
    bench_scenario,
    compare_docs,
    deterministic_view,
    get_scenario,
    write_bench,
)
from repro.bench.compare import compare_against, load_baseline
from repro.bench.scenarios import ScenarioOutcome
from repro.harness.runner import COMMANDS, main
from repro.obs import NULL_PROFILER, HostProfiler, Observability, peak_rss_kb

SCALE = 0.12  # keep bench cells test-sized


# ------------------------------------------------------------------ registry


def test_registry_metadata():
    assert set(SCENARIOS) == {"smallbank", "tatp", "voter_migration",
                              "chaos2", "elastic"}
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name
        assert scenario.description
        assert isinstance(scenario.config, dict) and scenario.config


def test_get_scenario_unknown():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("nope")


# ------------------------------------------------------- profiler neutrality


@pytest.fixture(scope="module")
def smallbank_runs():
    """One profiled and one plain run of the same smallbank cell."""
    scenario = get_scenario("smallbank")
    profiler = HostProfiler()
    profiler.start()
    profiled = scenario.run(5, SCALE, Observability(profiler=profiler))
    profiler.stop()
    plain = scenario.run(5, SCALE, Observability())
    return profiled, plain, profiler


def test_profiler_does_not_change_outcomes(smallbank_runs):
    profiled, plain, _ = smallbank_runs
    assert profiled.digest() == plain.digest()
    assert profiled.committed == plain.committed
    assert profiled.aborted == plain.aborted
    assert profiled.events_executed == plain.events_executed
    assert profiled.sim_now_us == plain.sim_now_us
    assert profiled.extra == plain.extra


def test_profiler_report_attributes_host_time(smallbank_runs):
    profiled, _, profiler = smallbank_runs
    report = profiler.report()
    # Every simulator event was classified somewhere.
    assert report["events_profiled"] == profiled.events_executed
    assert sum(s["events"] for s in report["subsystems"].values()) \
        == profiled.events_executed
    # The workload generators and the protocol layers all burned time.
    assert report["subsystems"]["app"]["ns"] > 0
    assert report["subsystems"]["net"]["ns"] > 0
    assert report["subsystems"]["cluster"]["ns"] > 0
    # Handler breakdown covers the commit pipeline's message kinds.
    assert report["handlers"]["rc.inv"]["events"] > 0
    assert report["messages"]["rc.ack"] > 0
    # Residual (heap pops + dispatch) is non-negative and wall >= sum.
    assert report["kernel"]["dispatch_residual_ns"] >= 0
    assert report["wall_s"] > 0
    assert report["peak_rss_kb"] == peak_rss_kb() > 0


def test_null_profiler_is_falsy_and_inert():
    assert not NULL_PROFILER
    assert NULL_PROFILER.enabled is False
    assert bool(HostProfiler()) is True
    # All hooks are no-ops.
    NULL_PROFILER.start()
    NULL_PROFILER.event(len, 5)
    NULL_PROFILER.handler("x", 5)
    NULL_PROFILER.message("x")
    NULL_PROFILER.count("x")
    NULL_PROFILER.stop()


def test_kernel_skips_profiling_when_unset():
    # A cluster built with default Observability installs no profiler.
    from repro.harness.zeus_cluster import ZeusCluster
    cluster = ZeusCluster(3)
    assert cluster.sim._profiler is None


# ------------------------------------------------------- bench determinism


@pytest.fixture(scope="module")
def bench_doc():
    return bench_scenario("smallbank", seed=3, scale=SCALE)


def test_bench_schema(bench_doc):
    doc = bench_doc
    assert doc["schema_version"] == 1
    assert doc["scenario"] == "smallbank"
    assert doc["seed"] == 3 and doc["scale"] == SCALE
    assert set(doc["sim"]) >= {"committed", "aborted", "events_executed",
                               "sim_now_us", "digest"}
    assert set(doc["host"]) >= {"wall_s", "events_per_sec", "txns_per_sec",
                                "peak_rss_kb", "subsystems", "handlers",
                                "messages", "counts", "kernel"}
    assert set(doc["env"]) == {"python", "implementation", "platform",
                               "machine"}
    oo = doc["obs_overhead"]
    assert set(oo) == {"plain_wall_s", "obs_wall_s", "delta_s", "delta_pct",
                       "locality_wall_s", "locality_delta_s",
                       "locality_delta_pct", "digest_match"}
    # Observation must not change simulation outcomes.
    assert oo["digest_match"] is True


def test_bench_same_seed_deterministic(bench_doc):
    again = bench_scenario("smallbank", seed=3, scale=SCALE)
    assert deterministic_view(bench_doc) == deterministic_view(again)
    # ...while a different seed lands on a different digest.
    other = bench_scenario("smallbank", seed=4, scale=SCALE,
                           measure_overhead=False)
    assert other["sim"]["digest"] != bench_doc["sim"]["digest"]


def test_deterministic_view_drops_host_and_env(bench_doc):
    view = deterministic_view(bench_doc)
    assert "host" not in view and "env" not in view
    assert view["obs_overhead"] == {"digest_match": True}


def test_outcome_digest_ignores_event_count():
    # History recording adds bookkeeping events; digests must not care.
    a = ScenarioOutcome(10, 2, 1000, 500.0, {"x": 1})
    b = ScenarioOutcome(10, 2, 1234, 500.0, {"x": 1})
    c = ScenarioOutcome(11, 2, 1000, 500.0, {"x": 1})
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


# ----------------------------------------- determinism across hash seeds

REPO = Path(__file__).resolve().parent.parent
_DIGEST_SNIPPET = (
    "import sys; from repro.bench import get_scenario; "
    "from repro.obs import Observability; "
    "print(get_scenario(sys.argv[1]).run(1, 1.0, Observability()).digest())")


@pytest.mark.parametrize("name", ["smallbank", "chaos2"])
def test_digest_is_independent_of_hash_seed(name):
    """A run is a pure function of (seed, parameters): the committed
    digest must come out under any string-hash randomisation, each in a
    fresh interpreter."""
    committed = json.loads((REPO / f"BENCH_{name}.json").read_text())
    children = {
        hash_seed: subprocess.Popen(
            [sys.executable, "-c", _DIGEST_SNIPPET, name],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src"),
                 "PYTHONHASHSEED": hash_seed})
        for hash_seed in ("0", "1", "random")}
    for hash_seed, child in children.items():
        out, _ = child.communicate(timeout=300)
        assert child.returncode == 0, hash_seed
        assert out.strip() == committed["sim"]["digest"], hash_seed


# ------------------------------------------------------------------ compare


def _doc(evps, txps, digest="abc", wall=1.0):
    return {
        "schema_version": 1, "scenario": "smallbank",
        "sim": {"digest": digest},
        "host": {"events_per_sec": evps, "txns_per_sec": txps,
                 "wall_s": wall, "peak_rss_kb": 10_000},
    }


def test_compare_ok_within_threshold():
    result = compare_docs(_doc(100_000, 5_000), _doc(80_000, 4_000),
                          threshold=0.5)
    assert result.ok
    assert all(v in ("ok", "(report-only)") for _, _, _, v in result.rows)


def test_compare_regression_fails():
    result = compare_docs(_doc(100_000, 5_000), _doc(30_000, 5_000),
                          threshold=0.5)
    assert not result.ok
    verdicts = {m: v for m, _, _, v in result.rows}
    assert verdicts["events_per_sec"] == "REGRESSION"
    assert verdicts["txns_per_sec"] == "ok"
    assert "REGRESSION" in result.table()


def test_compare_speedup_reported_not_failed():
    result = compare_docs(_doc(100_000, 5_000), _doc(300_000, 20_000),
                          threshold=0.5)
    assert result.ok
    verdicts = {m: v for m, _, _, v in result.rows}
    assert verdicts["events_per_sec"] == "speedup"


def test_compare_digest_mismatch_noted_not_failed():
    result = compare_docs(_doc(100_000, 5_000, digest="aaa"),
                          _doc(90_000, 4_500, digest="bbb"))
    assert result.ok
    assert any("digest changed" in n for n in result.notes)


def test_compare_threshold_is_configurable():
    base, cur = _doc(100_000, 5_000), _doc(85_000, 4_250)
    assert compare_docs(base, cur, threshold=0.2).ok
    assert not compare_docs(base, cur, threshold=0.1).ok


def test_load_baseline_file_and_missing(tmp_path):
    doc = _doc(1.0, 1.0)
    path = tmp_path / "BENCH_smallbank.json"
    path.write_text(json.dumps(doc))
    assert load_baseline(str(path), "smallbank") == doc
    with pytest.raises(FileNotFoundError):
        load_baseline(str(tmp_path / "nope.json"), "smallbank")
    assert compare_against(str(tmp_path / "nope.json"), doc) is None


def test_write_bench_path(tmp_path, bench_doc):
    path = write_bench(bench_doc, out_dir=tmp_path)
    assert path == tmp_path / "BENCH_smallbank.json"
    assert json.loads(path.read_text()) == bench_doc


# ---------------------------------------------------------------------- CLI


def test_cli_registry_covers_all_commands():
    names = [name for name, _, _, _ in COMMANDS]
    assert names == ["quickstart", "verify", "chaos", "elastic", "check",
                     "locality", "heatmap", "place", "smallbank", "trace",
                     "analyze", "bench", "list"]
    assert len(set(names)) == len(names)
    for _, help_line, _, handler in COMMANDS:
        assert help_line and callable(handler)


def test_cli_bench_list(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_cli_bench_writes_and_passes_against_self(tmp_path, capsys):
    rc = main(["bench", "--scenario", "smallbank", "--seed", "3",
               "--scale", str(SCALE), "--no-overhead",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "BENCH_smallbank.json"
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    # Comparing a fresh run against its own baseline passes.
    rc = main(["bench", "--scenario", "smallbank", "--seed", "3",
               "--scale", str(SCALE), "--no-overhead", "--dry-run",
               "--against", str(path), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "=> OK" in capsys.readouterr().out


def test_cli_bench_fails_on_injected_slowdown(tmp_path, capsys):
    rc = main(["bench", "--scenario", "smallbank", "--seed", "3",
               "--scale", str(SCALE), "--no-overhead",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "BENCH_smallbank.json"
    doc = json.loads(path.read_text())
    # Inject a slowdown: pretend the baseline machine was 100x faster.
    doc["host"]["events_per_sec"] *= 100
    doc["host"]["txns_per_sec"] *= 100
    path.write_text(json.dumps(doc))
    rc = main(["bench", "--scenario", "smallbank", "--seed", "3",
               "--scale", str(SCALE), "--no-overhead", "--dry-run",
               "--against", str(path), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_cli_bench_unknown_scenario():
    assert main(["bench", "--scenario", "nope", "--dry-run"]) == 2


# ------------------------------------------------------------------- slots


def test_hot_classes_have_slots():
    from repro.net.message import Message
    from repro.txn.transaction import (
        ReadOnlyTransaction,
        Transaction,
        _TxnBase,
    )

    for cls in (Message, _TxnBase, Transaction, ReadOnlyTransaction,
                HostProfiler):
        assert "__slots__" in cls.__dict__, cls
        assert "__dict__" not in dir(cls), cls
    # Slotted instances reject stray attributes.
    with pytest.raises(AttributeError):
        HostProfiler().stray = 1
