"""Legacy application ports: gateway, SCTP, Nginx, remote KV."""

import pytest

from repro.apps import (
    CellularGateway,
    NginxServer,
    OpenLoopSource,
    RemoteKvClient,
    RemoteKvServer,
    RequestQueue,
    SctpEndpoint,
    build_gateway_catalog,
    build_nginx_catalog,
    build_sctp_catalog,
    serve_queue,
    vanilla_packet_cost_us,
)
from repro.obs import ThroughputMeter
from repro.harness.zeus_cluster import ZeusCluster
from repro.sim.params import SimParams


def make_cluster(catalog, nodes=2):
    params = SimParams().scaled_threads(app=2, worker=2)
    cluster = ZeusCluster(nodes, params=params, catalog=catalog)
    cluster.load(init_value=0)
    return cluster


# ------------------------------------------------------------- remote kv


def test_remote_kv_set_get_roundtrip():
    catalog = build_gateway_catalog(2, 10)
    cluster = make_cluster(catalog)
    RemoteKvServer(cluster.nodes[1])
    client = RemoteKvClient(cluster.nodes[0], 1)
    got = []

    def app():
        yield from client.set("k", "v")
        value = yield from client.get("k")
        got.append(value)

    cluster.spawn_app(0, 0, app())
    cluster.run(until=10_000)
    assert got == ["v"]


def test_remote_kv_blocking_latency_is_kernel_scale():
    catalog = build_gateway_catalog(2, 10)
    cluster = make_cluster(catalog)
    RemoteKvServer(cluster.nodes[1])
    client = RemoteKvClient(cluster.nodes[0], 1)
    times = []

    def app():
        start = cluster.sim.now
        yield from client.get("missing")
        times.append(cluster.sim.now - start)

    cluster.spawn_app(0, 0, app())
    cluster.run(until=10_000)
    assert times[0] > 50.0  # kernel stack both ways >> DPDK fabric


# --------------------------------------------------------------- gateway


def test_gateway_local_mode_serves():
    catalog = build_gateway_catalog(2, 50)
    cluster = make_cluster(catalog)
    gw = CellularGateway("local", 50)
    done = []

    def app():
        yield from gw.process_request(7)
        done.append(gw.served)

    cluster.spawn_app(0, 0, app())
    cluster.run(until=10_000)
    assert done == [1]


def test_gateway_zeus_mode_commits_context():
    catalog = build_gateway_catalog(2, 50)
    cluster = make_cluster(catalog)
    gw = CellularGateway("zeus", 50, zeus=cluster.handles[0], catalog=catalog)

    def app():
        yield from gw.process_request(3)

    cluster.spawn_app(0, 0, app())
    cluster.run(until=100_000)
    assert gw.served == 1
    oid = catalog.oid("ue_ctx", 3)
    assert cluster.handles[0].api.peek(oid) == 1


def test_gateway_zeus_state_replicated():
    catalog = build_gateway_catalog(2, 50)
    cluster = make_cluster(catalog)
    gw = CellularGateway("zeus", 50, zeus=cluster.handles[0], catalog=catalog)

    def app():
        yield from gw.process_request(0)  # user 0's rows live on node 0

    cluster.spawn_app(0, 0, app())
    cluster.run(until=100_000)
    oid = catalog.oid("ue_ctx", 0)
    assert cluster.handles[1].store.get(oid).t_version == 1


def test_gateway_mode_validation():
    with pytest.raises(ValueError):
        CellularGateway("bogus", 10)
    with pytest.raises(ValueError):
        CellularGateway("zeus", 10)  # missing handle/catalog
    with pytest.raises(ValueError):
        CellularGateway("redis", 10)  # missing client


# ------------------------------------------------------------------ sctp


def test_sctp_vanilla_cost_grows_with_size():
    assert vanilla_packet_cost_us(16_384) > vanilla_packet_cost_us(512)


def test_sctp_vanilla_endpoint_counts_packets():
    catalog = build_sctp_catalog(2, 1)
    cluster = make_cluster(catalog)
    endpoint = SctpEndpoint(0)  # no zeus: vanilla

    def app():
        for _ in range(5):
            yield from endpoint.send_packet(1_000)
        yield from endpoint.receive_packet(1_000)
        yield from endpoint.on_timer()

    cluster.spawn_app(0, 0, app())
    cluster.run(until=100_000)
    assert endpoint.packets_tx == 5
    assert endpoint.packets_rx == 1
    assert endpoint.timer_events == 1
    assert endpoint.bytes_tx == 5_000


def test_sctp_zeus_replicates_connection_state():
    catalog = build_sctp_catalog(2, 1)
    cluster = make_cluster(catalog)
    endpoint = SctpEndpoint(0, zeus=cluster.handles[0], catalog=catalog)

    def app():
        for _ in range(3):
            yield from endpoint.send_packet(1_000)

    cluster.spawn_app(0, 0, app())
    cluster.run(until=100_000)
    oid = catalog.oid("sctp_state", 0)
    assert cluster.handles[1].store.get(oid).t_version == 3


def test_sctp_zeus_slower_than_vanilla():
    catalog = build_sctp_catalog(2, 2)
    cluster = make_cluster(catalog)
    vanilla = SctpEndpoint(0)
    zeus = SctpEndpoint(1, zeus=cluster.handles[0], catalog=catalog)
    times = {}

    def run(tag, ep):
        start = cluster.sim.now
        for _ in range(10):
            yield from ep.send_packet(4_096)
        times[tag] = cluster.sim.now - start

    cluster.spawn_app(0, 0, run("vanilla", vanilla))
    cluster.run(until=100_000)
    cluster.spawn_app(0, 1, run("zeus", zeus))
    cluster.run(until=200_000)
    assert times["zeus"] > times["vanilla"]


# ----------------------------------------------------------------- nginx


def test_nginx_sticky_session_routing():
    catalog = build_nginx_catalog(2, 100)
    cluster = make_cluster(catalog)
    server = NginxServer("zeus", backends=4, zeus=cluster.handles[0],
                         catalog=catalog)
    dests = []

    def app():
        d1 = yield from server.handle_request(5)
        d2 = yield from server.handle_request(5)
        dests.append((d1, d2))

    cluster.spawn_app(0, 0, app())
    cluster.run(until=100_000)
    d1, d2 = dests[0]
    assert d1 == d2
    assert server.sessions_created == 1
    assert server.forwarded == 2


def test_nginx_session_visible_to_other_instance():
    catalog = build_nginx_catalog(2, 100)
    cluster = make_cluster(catalog)
    s0 = NginxServer("zeus", 4, zeus=cluster.handles[0], catalog=catalog)
    s1 = NginxServer("zeus", 4, zeus=cluster.handles[1], catalog=catalog)
    dests = []

    def first():
        d = yield from s0.handle_request(7)
        dests.append(d)

    def second():
        yield 5_000.0  # after replication settles
        d = yield from s1.handle_request(7)
        dests.append(d)

    cluster.spawn_app(0, 0, first())
    cluster.spawn_app(1, 0, second())
    cluster.run(until=100_000)
    assert len(dests) == 2
    assert dests[0] == dests[1]


def test_nginx_memory_mode_matches_interface():
    catalog = build_nginx_catalog(2, 10)
    cluster = make_cluster(catalog)
    server = NginxServer("memory", backends=2)
    out = []

    def app():
        d = yield from server.handle_request(1)
        out.append(d)

    cluster.spawn_app(0, 0, app())
    cluster.run(until=10_000)
    assert out and 0 <= out[0] < 2


# ---------------------------------------------------------------- driver


def test_open_loop_source_rate():
    catalog = build_nginx_catalog(2, 10)
    cluster = make_cluster(catalog)
    queue = RequestQueue(cluster.sim)
    source = OpenLoopSource(cluster.sim, 100_000.0, [queue], lambda r: 1,
                            rng=cluster.rng.stream("arr"))
    source.start()
    cluster.run(until=100_000)  # 0.1s at 100k tps ~ 10k arrivals
    assert 8_000 < queue.enqueued < 12_000


def test_request_queue_backlog_drops():
    catalog = build_nginx_catalog(2, 10)
    cluster = make_cluster(catalog)
    queue = RequestQueue(cluster.sim)
    queue.max_backlog = 5
    for i in range(10):
        queue.push(i)
    assert len(queue) == 5
    assert queue.dropped == 5


def test_serve_queue_processes_fifo():
    catalog = build_nginx_catalog(2, 10)
    cluster = make_cluster(catalog)
    queue = RequestQueue(cluster.sim)
    served = []

    def handler(item):
        yield 1.0
        served.append(item)

    for i in range(5):
        queue.push(i)
    meter = ThroughputMeter()
    cluster.spawn_app(0, 0, serve_queue(cluster.sim, queue, handler,
                                        meter=meter, stop_at=1_000.0))
    cluster.run(until=1_000)
    assert served == [0, 1, 2, 3, 4]
    assert meter.total == 5
