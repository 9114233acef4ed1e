"""Observability: metrics registry, tracer, exporters."""

import json

import pytest

from repro.obs import (
    TID_NET,
    TID_REPLICATION,
    LatencyRecorder,
    MetricsRegistry,
    Observability,
    Span,
    Tracer,
    chrome_trace_events,
    phase_report,
    write_chrome_trace,
    write_metrics,
    write_trace_jsonl,
)
from repro.sim.kernel import Simulator

# ---------------------------------------------------------------- registry


def test_counter_idempotent_lookup():
    registry = MetricsRegistry()
    a = registry.counter("x.y", node=1)
    b = registry.counter("x.y", node=1)
    assert a is b
    a.inc()
    a.inc(4)
    assert b.value == 5
    # Different labels -> different instrument.
    assert registry.counter("x.y", node=2) is not a
    assert registry.counter_total("x.y") == 5


def test_gauge_and_histogram():
    registry = MetricsRegistry()
    g = registry.gauge("depth")
    g.set(7.5)
    assert registry.gauge("depth").value == 7.5
    h = registry.histogram("lat_us", node=0)
    h.record(10.0)
    h.record(20.0)
    assert h.count == 2
    assert h.mean() == pytest.approx(15.0)


def test_counter_group_is_mapping():
    registry = MetricsRegistry()
    group = registry.group("commit", node=3)
    group.inc("committed")
    group.inc("committed", 2)
    group.inc("applied")
    assert group["committed"] == 3
    assert group.get("applied") == 1
    assert group.get("missing", 0) == 0
    assert dict(group) == {"committed": 3, "applied": 1}
    assert group.as_dict() == {"applied": 1, "committed": 3}
    # The group writes through to qualified registry counters.
    assert registry.counter("commit.committed", node=3).value == 3


def test_empty_latency_summary_has_full_key_set():
    summary = LatencyRecorder().summary()
    assert summary == {"count": 0, "mean_us": 0.0, "p50_us": 0.0,
                       "p99_us": 0.0, "p999_us": 0.0, "max_us": 0.0}


def test_snapshot_is_deterministic_and_jsonable():
    def build():
        registry = MetricsRegistry()
        registry.counter("b", node=1).inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").record(3.0)
        return json.dumps(registry.snapshot(), sort_keys=True)

    assert build() == build()
    snap = json.loads(build())
    assert snap["counters"] == {"a": 2, "b{node=1}": 1}


# ------------------------------------------------------------------ tracer


def test_tracer_records_sim_time_spans():
    sim = Simulator()
    tracer = Tracer(sim)
    span = tracer.open(2, 1)
    sim.call_after(10.0, lambda: None)
    sim.run()
    tracer.point("txn", "txn", True, kind=str, committed=bool)(
        span, "write", True)
    tracer.point("net.send", "event", False, dst=int)(2, TID_NET, None, 1)
    # The handle stays open; the record is rebuilt from its row.
    assert span.end_us is None
    [txn] = tracer.spans_named("txn")
    assert txn == span._replace(
        name="txn", cat="txn", end_us=10.0,
        args={"kind": "write", "committed": True})
    assert txn.duration_us == 10.0
    assert tracer.durations_by_name() == {"txn": [10.0]}
    assert tracer.instants == [
        Span("net.send", "event", 2, TID_NET, 10.0, 10.0, {"dst": 1},
             None, 2, None)]


# --------------------------------------------------------------- exporters


def _sample_tracer():
    sim = Simulator()
    tracer = Tracer(sim)
    t = tracer.begin("txn", pid=0, tid=0, cat="txn")
    c = tracer.open(0, TID_REPLICATION)
    sim.call_after(5.0, lambda: None)
    sim.run()
    tracer.end(t)
    tracer.point("commit_replicate", "commit", True, acked=int)(c, 2)
    tracer.point("net.send", "event", False, dst=int)(0, TID_NET, None, 1)
    return tracer


def test_chrome_trace_event_shape():
    events = chrome_trace_events(_sample_tracer())
    phases = {e["ph"] for e in events}
    assert phases == {"M", "X", "i"}
    spans = [e for e in events if e["ph"] == "X"]
    assert {s["name"] for s in spans} == {"txn", "commit_replicate"}
    for s in spans:
        assert s["ts"] == 0.0 and s["dur"] == 5.0
    thread_names = {e["args"]["name"] for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"}
    assert thread_names == {"app.0", "replication.0", "net"}


def test_write_chrome_trace_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_chrome_trace(_sample_tracer(), str(p1))
    write_chrome_trace(_sample_tracer(), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert isinstance(doc["traceEvents"], list)


def test_write_trace_jsonl(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(_sample_tracer(), str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert {r["type"] for r in records} == {"span", "instant"}
    starts = [r["start_us"] for r in records]
    assert starts == sorted(starts)


def test_phase_report_lists_phases():
    report = phase_report(_sample_tracer())
    assert "commit_replicate" in report and "txn" in report
    assert "p99_us" in report
    assert phase_report(Tracer(Simulator())) \
        == "phase breakdown: (no spans recorded)"


def test_write_metrics(tmp_path):
    registry = MetricsRegistry()
    registry.counter("net.sent").inc(9)
    path = tmp_path / "m.json"
    write_metrics(registry, str(path))
    assert json.loads(path.read_text())["counters"]["net.sent"] == 9


# ------------------------------------------------------------- integration


def _traced_run(seed=5):
    from repro.harness.zeus_cluster import ZeusCluster
    from tests.conftest import make_catalog

    obs = Observability(tracer=Tracer())
    cluster = ZeusCluster(3, catalog=make_catalog(), seed=seed, obs=obs)
    cluster.load()
    api = cluster.handles[0].api

    def app():
        for oid in range(8):
            yield from api.execute_write(0, [oid])

    cluster.spawn_app(0, 0, app())
    cluster.run(until=200_000)
    return cluster, obs


def test_cluster_trace_has_all_span_kinds():
    _cluster, obs = _traced_run()
    names = {s.name for s in obs.tracer.spans}
    assert {"txn", "own_acquire", "commit_replicate"} <= names
    # Remote acquires annotate grant outcome.
    own = obs.tracer.spans_named("own_acquire")
    assert own and all("granted" in (s.args or {}) for s in own)
    # Wire-level instants flow from the network layer.
    assert any(e.name == "net.send" for e in obs.tracer.instants)
    assert any(e.name == "net.deliver" for e in obs.tracer.instants)


def test_cluster_trace_deterministic(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_chrome_trace(_traced_run()[1].tracer, str(p1))
    write_chrome_trace(_traced_run()[1].tracer, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_disabled_tracer_runs_without_spans():
    from repro.harness.zeus_cluster import ZeusCluster
    from tests.conftest import make_catalog

    cluster = ZeusCluster(3, catalog=make_catalog(), seed=5)
    cluster.load()
    api = cluster.handles[0].api

    def app():
        for oid in range(4):
            yield from api.execute_write(0, [oid])

    cluster.spawn_app(0, 0, app())
    cluster.run(until=100_000)
    assert cluster.obs.tracer is None
    assert cluster.total_committed() >= 4
    # Metrics stay live even with tracing off.
    snap = cluster.obs.registry.snapshot()
    assert snap["counters"]["net.sent"] > 0


def test_sim_stats_gauges_updated():
    cluster, obs = _traced_run()
    registry = obs.registry
    assert registry.gauge("sim.events_executed").value > 0
    assert registry.gauge("sim.now_us").value > 0
