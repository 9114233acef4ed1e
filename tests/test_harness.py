"""Harness: metrics, tables, cluster assembly."""

import os

import pytest

from repro.harness.tables import ascii_series, format_table, save_result
from repro.obs import (
    LatencyRecorder,
    ThroughputMeter,
    cdf_points,
    percentile,
)
from repro.store.catalog import Catalog
from tests.conftest import make_cluster


def test_percentile_basic():
    data = list(range(1, 101))
    assert percentile(data, 50) == pytest.approx(50.5)
    assert percentile(data, 0) == 1
    assert percentile(data, 100) == 100


def test_percentile_interpolates():
    assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 120)


def test_cdf_points_monotone():
    points = cdf_points([5.0, 1.0, 3.0], points=10)
    values = [v for v, _f in points]
    fracs = [f for _v, f in points]
    assert values == sorted(values)
    assert fracs[0] == 0.0 and fracs[-1] == 1.0


def test_cdf_points_single_sample():
    points = cdf_points([4.2], points=10)
    assert all(v == 4.2 for v, _f in points)
    assert points[-1][1] == 1.0


def test_cdf_points_empty():
    assert cdf_points([]) == []


# ------------------------------------------------- property-based (stats)

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(finite_floats, min_size=2, max_size=200))
def test_percentile_matches_statistics_quantiles(data):
    """percentile() agrees with the stdlib's inclusive quantiles."""
    import statistics

    qs = statistics.quantiles(data, n=100, method="inclusive")
    for p, expected in zip(range(1, 100), qs):
        assert percentile(data, p) == pytest.approx(expected, rel=1e-9,
                                                    abs=1e-6)


@given(st.lists(finite_floats, min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=100.0))
def test_percentile_bounded_and_monotone(data, p):
    value = percentile(data, p)
    assert min(data) <= value <= max(data)
    # Monotone in p.
    if p < 100.0:
        assert value <= percentile(data, 100.0)
    if p > 0.0:
        assert value >= percentile(data, 0.0)


@given(finite_floats)
def test_percentile_single_sample_is_constant(x):
    for p in (0.0, 37.5, 50.0, 99.9, 100.0):
        assert percentile([x], p) == x


@given(st.lists(finite_floats, min_size=1, max_size=100),
       st.integers(min_value=2, max_value=50))
def test_cdf_points_properties(data, points):
    out = cdf_points(data, points=points)
    values = [v for v, _f in out]
    fracs = [f for _v, f in out]
    assert values == sorted(values)
    assert fracs == sorted(fracs)
    assert fracs[0] == 0.0 and fracs[-1] == 1.0
    assert values[0] == min(data) and values[-1] == max(data)


def test_throughput_meter_timeline():
    meter = ThroughputMeter(bin_us=1_000.0)
    for t in (100.0, 200.0, 1_500.0):
        meter.record(t)
    timeline = meter.timeline()
    assert timeline[0][1] == pytest.approx(2 / 0.001)
    assert timeline[1][1] == pytest.approx(1 / 0.001)
    assert meter.total == 3


def test_throughput_meter_rate():
    meter = ThroughputMeter()
    for _ in range(100):
        meter.record(10.0)
    assert meter.rate_tps(1_000_000.0) == pytest.approx(100.0)
    assert meter.rate_tps(0.0) == 0.0


def test_latency_recorder_summary():
    rec = LatencyRecorder()
    rec.extend(float(i) for i in range(1, 1001))
    summary = rec.summary()
    assert summary["count"] == 1000
    assert summary["mean_us"] == pytest.approx(500.5)
    assert summary["p999_us"] > summary["p99_us"] > summary["p50_us"]


def test_format_table_aligns():
    text = format_table(["a", "bb"], [(1, "x"), (22, "yy")], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_ascii_series_renders():
    art = ascii_series([(0.0, 1.0), (1.0, 5.0)], label="x")
    assert "x" in art
    assert "#" in art


def test_ascii_series_empty():
    assert "(no data)" in ascii_series([], label="empty")


def test_save_result_writes_json(tmp_path, monkeypatch):
    import repro.harness.tables as tables

    monkeypatch.setattr(tables, "results_dir", lambda: str(tmp_path))
    path = save_result("unit", {"a": 1})
    assert os.path.exists(path)


# --------------------------------------------------------------- assembly


def test_cluster_loads_objects_on_replicas(cluster3):
    for oid in range(cluster3.catalog.num_objects):
        replicas = cluster3.catalog.initial_replicas(oid)
        for h in cluster3.handles:
            if h.node_id in replicas.all_nodes():
                assert h.store.has(oid)
            else:
                assert not h.store.has(oid)


def test_cluster_directory_on_first_three(cluster6):
    for h in cluster6.handles:
        if h.node_id < 3:
            assert h.directory is not None
            assert len(h.directory) == cluster6.catalog.num_objects
        else:
            assert h.directory is None


def test_cluster_rejects_mismatched_catalog():
    catalog = Catalog(3)
    from repro.harness.zeus_cluster import ZeusCluster

    with pytest.raises(ValueError):
        ZeusCluster(4, catalog=catalog)


def test_owner_of_queries_directory(cluster3):
    assert cluster3.owner_of(0) == 0
    assert cluster3.owner_of(1) == 1


def test_total_committed_initially_zero(cluster3):
    assert cluster3.total_committed() == 0


def test_deterministic_runs_identical():
    def run_once(seed):
        cluster = make_cluster(3, seed=seed)
        api = cluster.handles[0].api
        trace = []

        def app():
            for oid in range(5):
                r = yield from api.execute_write(0, [oid, (oid + 1) % 5])
                trace.append((round(cluster.sim.now, 6), r.committed))

        cluster.spawn_app(0, 0, app())
        cluster.run(until=100_000)
        return trace, cluster.sim.events_executed

    assert run_once(7) == run_once(7)
    assert run_once(7) != run_once(8)
