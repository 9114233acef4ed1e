"""Causal tracing + critical-path latency attribution (`repro analyze`).

Covers the cross-node trace-context propagation, the Chrome flow-event
export, the exact segment-partition invariant of
:mod:`repro.obs.analysis`, and the CLI surfaces (`analyze`, smallbank
`--analyze`/`--flow`, chaos `--trace-out`).
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.runner import main
from repro.harness.zeus_cluster import ZeusCluster
from repro.obs import (
    SEGMENTS,
    TID_NET,
    MetricsRegistry,
    Observability,
    Tracer,
    analyze,
    build_timelines,
    chrome_trace_events,
    folded_stacks,
    load_jsonl,
    write_metrics,
    write_trace_jsonl,
)
from repro.obs.analysis import _attribute, _wire_intervals
from repro.sim.kernel import Simulator
from repro.sim.params import SimParams


# ------------------------------------------------------- shared traced run


def _traced_smallbank(seed=7, duration_us=1_500.0):
    from repro.workloads import SmallbankWorkload, run_zeus_workload

    params = SimParams().scaled_threads(app=2, worker=2)
    obs = Observability(tracer=Tracer())
    # Four nodes with replication degree 3: some directories are remote,
    # so REQ service spans genuinely cross nodes (not just loopback).
    wl = SmallbankWorkload(4, accounts_per_node=200, remote_frac=0.2)
    cluster = ZeusCluster(4, params=params, catalog=wl.catalog, seed=seed,
                          obs=obs)
    cluster.load(init_value=1_000)
    run_zeus_workload(cluster, wl.spec_for, duration_us=duration_us,
                      threads=2, seed=seed)
    return obs.tracer


@pytest.fixture(scope="module")
def traced():
    return _traced_smallbank()


# --------------------------------------------- satellite: unbound tracer


def test_tracer_unbound_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="tracer used before sim bound"):
        tracer.point("txn", "txn", True, kind=str)
    with pytest.raises(RuntimeError, match="tracer used before sim bound"):
        tracer.point("net.send", "net", False, dst=int)
    # Binding afterwards (what the cluster builder does) makes it usable.
    tracer.sim = Simulator()
    span = tracer.begin("txn", pid=0)
    tracer.end(span)
    assert tracer.spans == [span._replace(end_us=0.0)]


# ------------------------------------- satellite: deterministic metrics


def test_metrics_dump_is_registration_order_independent(tmp_path):
    def build(names):
        registry = MetricsRegistry()
        for name, labels in names:
            registry.counter(name, **labels).inc()
        registry.gauge("depth").set(2.0)
        return registry

    forward = [("net.sent", {"node": 0}), ("net.sent", {"node": 2}),
               ("commit.committed", {"node": 1}), ("aborts", {})]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_metrics(build(forward), str(p1))
    write_metrics(build(list(reversed(forward))), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    names = list(json.loads(p1.read_text())["counters"])
    assert names == sorted(names)


# --------------------------------------- satellite: flow-event round-trip


def test_flow_events_reference_existing_spans(traced):
    events = chrome_trace_events(traced)
    json.loads(json.dumps(events))  # round-trips cleanly
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert starts, "traced run produced no flow events"
    assert sorted(e["id"] for e in starts) \
        == sorted(e["id"] for e in finishes)
    for e in finishes:
        assert e["bp"] == "e"
    # Every flow endpoint lands on a real span of a real track.
    spans = [e for e in events if e["ph"] == "X"]
    span_starts = {(s["pid"], s["tid"], s["ts"], s["name"]) for s in spans}
    for e in finishes:
        assert (e["pid"], e["tid"], e["ts"], e["name"]) in span_starts
    intervals = {}
    for s in spans:
        intervals.setdefault((s["pid"], s["tid"]), []).append(
            (s["ts"], s["ts"] + s["dur"]))
    for e in starts:
        assert any(a <= e["ts"] <= b
                   for a, b in intervals.get((e["pid"], e["tid"]), []))


def test_flows_link_txn_to_remote_service_and_commit_ack(traced):
    # The acceptance criterion: a coordinator `txn` span is causally
    # chained (via parent ids) to a remote `own_acquire.serve` service
    # span and to a replica `commit_ack` span, and the Chrome flow
    # arrows for both cross nodes.
    by_id = {s.span_id: s for s in traced.spans if s.span_id is not None}

    def root_of(span):
        # A parent can be missing when its span was still open at the
        # end of the workload window (the txn never closed).
        while span.parent_id is not None:
            span = by_id.get(span.parent_id)
            if span is None:
                return None
        return span

    for name in ("own_acquire.serve", "commit_ack"):
        served = [s for s in traced.spans if s.name == name]
        assert served, f"no {name} spans recorded"
        chained = [s for s in served
                   if root_of(s) is not None and root_of(s).name == "txn"]
        assert chained, f"no {name} span chains up to a txn root"
        assert any(s.pid != root_of(s).pid for s in chained), \
            f"no cross-node {name} link"

    events = chrome_trace_events(traced)
    pairs = {}
    for e in events:
        if e["ph"] in ("s", "f"):
            pairs.setdefault(e["id"], {})[e["ph"]] = e
    for name in ("own_acquire.serve", "commit_ack"):
        crossing = [p for p in pairs.values()
                    if "s" in p and "f" in p and p["f"]["name"] == name
                    and p["s"]["pid"] != p["f"]["pid"]]
        assert crossing, f"no cross-node flow arrow for {name}"


def test_chrome_trace_without_contexts_has_no_flow_events():
    sim = Simulator()
    tracer = Tracer(sim)
    span = tracer.begin("txn", pid=0)
    tracer.end(span)
    tracer.point("net.send", "net", False, dst=int)(0, TID_NET, None, 1)
    phases = {e["ph"] for e in chrome_trace_events(tracer)}
    assert phases == {"M", "X", "i"}


# -------------------------------------------- the partition invariant


def test_segments_partition_every_txn_exactly(traced):
    timelines = build_timelines(traced)
    assert len(timelines) > 100
    for t in timelines:
        assert all(ns >= 0 for ns in t.segments_ns.values())
        assert sum(t.segments_ns.values()) == t.duration_ns
        assert set(t.segments_ns) == set(SEGMENTS)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_attribute_partitions_exactly(data):
    start = data.draw(st.integers(0, 500))
    end = start + data.draw(st.integers(0, 2_000))
    residuals = ("ownership-blocked", "replication-ACK wait")
    windows = []
    for _ in range(data.draw(st.integers(0, 4))):
        a = data.draw(st.integers(-100, end + 100))
        windows.append((a, a + data.draw(st.integers(0, 600)),
                        data.draw(st.sampled_from(residuals))))
    details = {}
    for name in ("retransmit stall", "remote-CPU service",
                 "CPU-queue wait", "wire"):
        ivs = []
        for _ in range(data.draw(st.integers(0, 3))):
            a = data.draw(st.integers(-100, end + 100))
            ivs.append((a, a + data.draw(st.integers(0, 400))))
        details[name] = ivs
    segments = _attribute(start, end, windows, details)
    assert set(segments) == set(SEGMENTS)
    assert all(v >= 0 for v in segments.values())
    assert sum(segments.values()) == max(0, end - start)
    # Detail evidence only ever applies inside a blocked window.
    if not windows:
        assert segments["local CPU"] == max(0, end - start)


def test_wire_intervals_split_retransmit_stall():
    def inst(name, t_us, flow):
        return {"type": "instant", "name": name, "start_us": t_us,
                "args": {"flow": flow}}

    instants = [
        inst("net.send", 0.0, 1), inst("net.send", 5.0, 1),
        inst("net.deliver", 7.0, 1),          # retransmit got through
        inst("net.send", 1.0, 2), inst("net.deliver", 3.0, 2),  # clean
        inst("net.send", 2.0, 3), inst("net.send", 6.0, 3),     # lost
    ]
    wire, stall = _wire_intervals(instants)
    assert (5_000, 7_000) in wire and (1_000, 3_000) in wire
    assert (0, 5_000) in stall and (2_000, 6_000) in stall


# ---------------------------------------------------------- determinism


def test_analysis_is_deterministic_and_jsonl_stable(tmp_path):
    t1 = _traced_smallbank(seed=11, duration_us=800.0)
    t2 = _traced_smallbank(seed=11, duration_us=800.0)
    assert analyze(t1).breakdown_table() == analyze(t2).breakdown_table()
    assert folded_stacks(t1) == folded_stacks(t2)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace_jsonl(t1, str(p1))
    write_trace_jsonl(t2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    # A trace read back from disk analyzes identically to the live one.
    assert analyze(load_jsonl(str(p1))).breakdown_table() \
        == analyze(t1).breakdown_table()


def test_breakdown_table_always_lists_every_segment(traced):
    table = analyze(traced).breakdown_table()
    for name in SEGMENTS:
        assert name in table
    assert "replication-ACK wait" in table  # the CI gate string
    folded = folded_stacks(traced)
    assert folded == sorted(folded)
    assert all(int(line.rsplit(" ", 1)[1]) > 0 for line in folded)


# ------------------------------------------------------------------ CLI


def test_cli_analyze_jsonl_and_folded(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    write_trace_jsonl(_traced_smallbank(seed=3, duration_us=800.0),
                      str(trace_path))
    folded_path = tmp_path / "run.folded"
    assert main(["analyze", str(trace_path),
                 "--folded", str(folded_path)]) == 0
    out = capsys.readouterr().out
    assert "latency breakdown" in out
    assert "replication-ACK wait" in out
    assert folded_path.read_text().strip()


def test_cli_trace_jsonl_feeds_analyze(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    assert main(["trace", "--duration", "600", "--seed", "2",
                 "--jsonl", str(spans)]) == 0
    assert main(["analyze", str(spans)]) == 0
    out = capsys.readouterr().out
    assert f"wrote span JSONL: {spans}" in out
    assert "replication-ACK wait" in out


def test_cli_analyze_empty_trace_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["analyze", str(empty)]) == 1
    assert "no traced transactions" in capsys.readouterr().out


def test_cli_chaos_jsonl_contains_quarantine(tmp_path, capsys):
    trace_path = tmp_path / "worst.jsonl"
    rc = main(["chaos", "--schedules", "1", "--seeds", "1",
               "--duration", "10000", "--quiesce", "10000",
               "--jsonl", str(trace_path)])
    assert rc == 0
    assert "re-ran worst cell" in capsys.readouterr().out
    records = load_jsonl(str(trace_path))
    # The recovery quarantine window shows up as a span (satellite 6).
    quarantine = [r for r in records if r["name"] == "recovery.quarantine"]
    assert quarantine and all(r["type"] == "span" for r in quarantine)
    # The faulty run still yields analyzable transaction timelines.
    assert build_timelines(records)
