"""Per-layer micro-benchmarks: one public call per layer on a minimal rig.

Each ``*_ns`` metric is the median over :data:`BATCHES` batches of the host
time per operation; the ``events``/``msgs``/``sim_lat`` companions are exact
simulated counts from the same rig.  A regression here points at a layer,
not at a scenario.  Run alone with ``python perf/micro.py``.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster.node import Node  # noqa: E402
from repro.harness.zeus_cluster import ZeusCluster  # noqa: E402
from repro.net.message import Message  # noqa: E402
from repro.net.network import Network  # noqa: E402
from repro.net.reliable import ReliableTransport  # noqa: E402
from repro.obs import HistoryRecorder, LocalityRecorder, Tracer  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.sim.params import NetParams, SimParams  # noqa: E402
from repro.sim.process import Process  # noqa: E402
from repro.sim.resources import CpuPool  # noqa: E402
from repro.store.catalog import Catalog  # noqa: E402
from repro.store.meta import TState  # noqa: E402
from repro.txn.transaction import VERSION_BUMP  # noqa: E402
from repro.workloads.smallbank import SmallbankWorkload  # noqa: E402
from repro.workloads.tatp import TatpWorkload  # noqa: E402
from repro.workloads.voter import VoterWorkload  # noqa: E402

__all__ = ["run_micro", "BATCHES"]

BATCHES = 5


def _median_ns(batch: Callable[[], int], ops_per_batch: int) -> float:
    """Median over batches of host ns per op; ``batch()`` returns its ns."""
    gc.collect()
    return statistics.median(batch() / ops_per_batch for _ in range(BATCHES))


def _noop(*_args) -> None:
    pass


# --------------------------------------------------------------------- sim

def _sim(out: Dict[str, float]) -> None:
    n = 20_000

    def kernel() -> int:
        # 32 self-rescheduling chains: the heap stays as shallow as it is
        # in a real run instead of holding the whole batch at once.
        sim = Simulator()
        left = [n]

        def tick() -> None:
            left[0] -= 1
            if left[0] >= 32:
                sim.call_after(1.0, tick)
        t0 = perf_counter_ns()
        for _ in range(32):
            sim.call_after(1.0, tick)
        sim.run()
        assert sim.events_executed == n
        return perf_counter_ns() - t0
    out["sim.kernel.event_ns"] = _median_ns(kernel, n)

    def switch() -> int:
        sim = Simulator()

        def spin():
            for _ in range(n):
                yield None
        Process(sim, spin())
        t0 = perf_counter_ns()
        sim.run()
        return perf_counter_ns() - t0
    out["sim.process.switch_ns"] = _median_ns(switch, n)

    def charge() -> int:
        pool = CpuPool(Simulator(), 2)
        t0 = perf_counter_ns()
        for _ in range(n):
            pool.charge(0.35)
        return perf_counter_ns() - t0
    out["sim.resources.charge_ns"] = _median_ns(charge, n)


# --------------------------------------------------------------------- net

def _net(out: Dict[str, float]) -> None:
    n = 5_000
    params = NetParams()

    def wire() -> int:
        sim = Simulator()
        net = Network(sim, params, jitter_rng=random.Random(1))
        net.attach(0, _noop)
        net.attach(1, _noop)
        t0 = perf_counter_ns()
        for _ in range(n):
            net.send(Message(0, 1, "bench", None, 64))
        sim.run()
        return perf_counter_ns() - t0
    out["net.send_deliver_ns"] = _median_ns(wire, n)

    events = []

    def reliable() -> int:
        sim = Simulator()
        net = Network(sim, params, jitter_rng=random.Random(1))
        a = ReliableTransport(sim, net, 0, params, _noop)
        ReliableTransport(sim, net, 1, params, _noop)
        t0 = perf_counter_ns()
        for _ in range(n):
            a.send(1, "bench", None, 64)
        sim.run()
        events.append(sim.events_executed / n)
        return perf_counter_ns() - t0
    out["net.reliable_msg_ns"] = _median_ns(reliable, n)
    out["net.reliable_events_per_msg"] = events[0]


# ----------------------------------------------------------------- cluster

def _cluster(out: Dict[str, float]) -> None:
    n = 5_000
    params = SimParams().scaled_threads(app=2, worker=2)
    events = []

    def node_msg() -> int:
        sim = Simulator()
        net = Network(sim, params.net, jitter_rng=random.Random(1))
        a = Node(sim, 0, params, net)
        b = Node(sim, 1, params, net)
        b.register_handler("bench.ping", _noop)
        t0 = perf_counter_ns()
        for _ in range(n):
            a.send(1, "bench.ping", None, 64)
        sim.run()
        events.append(sim.events_executed / n)
        return perf_counter_ns() - t0
    out["cluster.node_msg_ns"] = _median_ns(node_msg, n)
    out["cluster.node_events_per_msg"] = events[0]


# ------------------------------------------------------ protocols and txn

def _three_nodes(objects: int) -> ZeusCluster:
    """3-way replicated cluster, every object owned by node 0."""
    catalog = Catalog(3, replication_degree=3)
    catalog.add_table("bench", 64)
    for i in range(objects):
        catalog.create_object("bench", i, owner=0)
    cluster = ZeusCluster(3, params=SimParams().scaled_threads(app=2, worker=2),
                          catalog=catalog, seed=1)
    cluster.load(init_value=0)
    return cluster


def _commit(out: Dict[str, float]) -> None:
    n = 1_000
    facts = []

    def commits() -> int:
        cluster = _three_nodes(1)
        handle = cluster.handles[0]
        obj = handle.store.get(0)
        t0 = perf_counter_ns()
        for _ in range(n):
            # What the txn layer does at local commit, then hand-off.
            obj.t_data += 1
            obj.t_version += VERSION_BUMP
            obj.t_state = TState.WRITE
            handle.commit.submit(0, [(0, obj.t_version, obj.t_data, 64)],
                                 {1, 2})
            cluster.sim.run()
        spent = perf_counter_ns() - t0
        assert handle.commit.counters["committed"] == n
        facts.append((cluster.sim.events_executed / n,
                      cluster.network.total_msgs / n))
        return spent
    out["commit.submit_ns"] = _median_ns(commits, n)
    out["commit.events_per_commit"], out["commit.msgs_per_commit_idle"] = facts[0]


def _ownership(out: Dict[str, float]) -> None:
    n = 500
    facts = []

    def acquires() -> int:
        cluster = _three_nodes(n)
        handle = cluster.handles[1]
        latencies = []

        def mover():
            for oid in range(n):
                outcome = yield from handle.ownership.acquire(oid)
                assert outcome.granted
                latencies.append(outcome.latency_us)
        handle.node.spawn(mover())
        t0 = perf_counter_ns()
        cluster.sim.run()
        spent = perf_counter_ns() - t0
        assert len(latencies) == n
        facts.append((cluster.sim.events_executed / n,
                      cluster.network.total_msgs / n,
                      statistics.median(latencies)))
        return spent
    out["ownership.acquire_ns"] = _median_ns(acquires, n)
    (out["ownership.events_per_acquire"], out["ownership.msgs_per_acquire"],
     out["ownership.sim_lat_idle_us"]) = facts[0]


def _txn(out: Dict[str, float]) -> None:
    n = 5_000
    objects = 64

    def local(write: bool) -> Callable[[], int]:
        def batch() -> int:
            catalog = Catalog(1, replication_degree=1)
            catalog.add_table("bench", 64)
            for i in range(objects):
                catalog.create_object("bench", i, owner=0)
            cluster = ZeusCluster(
                1, params=SimParams().scaled_threads(app=2, worker=2),
                catalog=catalog, seed=1)
            cluster.load(init_value=0)
            api = cluster.handles[0].api
            done = []

            def app():
                for i in range(n):
                    oids = (i % objects,)
                    if write:
                        result = yield from api.execute_write(0, oids, (), 0.3)
                    else:
                        result = yield from api.execute_read(0, oids, 0.3)
                    done.append(result.committed)
            cluster.spawn_app(0, 0, app())
            t0 = perf_counter_ns()
            cluster.sim.run()
            spent = perf_counter_ns() - t0
            assert len(done) == n and all(done)
            return spent
        return batch
    out["txn.local_write_ns"] = _median_ns(local(True), n)
    out["txn.local_read_ns"] = _median_ns(local(False), n)


# --------------------------------------------------------------- workloads

def _workloads(out: Dict[str, float]) -> None:
    n = 10_000
    generators = {
        "smallbank": SmallbankWorkload(3, accounts_per_node=2_000,
                                       remote_frac=0.2, seed=7),
        "tatp": TatpWorkload(1, subscribers_per_node=6_000, seed=11),
        "voter": VoterWorkload(3, voters=6_000, seed=17),
    }
    for name, workload in generators.items():
        rng = random.Random(1)

        def specs(spec_for=workload.spec_for, rng=rng) -> int:
            t0 = perf_counter_ns()
            for _ in range(n):
                spec_for(0, 0, rng)
            return perf_counter_ns() - t0
        out[f"workloads.spec_ns.{name}"] = _median_ns(specs, n)


# --------------------------------------------------------------------- obs

def _obs(out: Dict[str, float]) -> None:
    n = 10_000

    def spans() -> int:
        tracer = Tracer(Simulator())
        t0 = perf_counter_ns()
        for _ in range(n):
            tracer.end(tracer.begin("bench", pid=0))
        return perf_counter_ns() - t0
    out["obs.tracer_span_ns"] = _median_ns(spans, n)

    def history() -> int:
        recorder = HistoryRecorder()
        t0 = perf_counter_ns()
        for i in range(n):
            op = recorder.begin(0, 0, "write", 1.0)
            recorder.read(op, i, 2, 1.0)
            recorder.write(op, i, 4, 1.0)
            recorder.respond(op, True, 2.0)
        return perf_counter_ns() - t0
    out["obs.history_op_ns"] = _median_ns(history, n)

    def locality() -> int:
        recorder = LocalityRecorder()
        t0 = perf_counter_ns()
        for i in range(n):
            op = recorder.begin(0, 0, 1.0)
            recorder.commit_txn(op, (i % 512,), (), True, 2.0)
        return perf_counter_ns() - t0
    out["obs.locality_txn_ns"] = _median_ns(locality, n)


def run_micro() -> Dict[str, float]:
    """Every micro metric by name."""
    out: Dict[str, float] = {}
    for part in (_sim, _net, _cluster, _commit, _ownership, _txn, _workloads,
                 _obs):
        part(out)
    return out


if __name__ == "__main__":
    for _name, _value in run_micro().items():
        print(f"{_name:36s} {_value:14.2f}")
