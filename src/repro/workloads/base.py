"""Workload driver machinery shared by all benchmarks.

A workload instance produces :class:`TxnSpec`s *per node* — the routing the
paper's application-level load balancer would perform has already happened
(same-key requests always reach the same server; see
``repro.lb.balancer.LoadBalancer.route`` for the in-path equivalent).

Drivers are closed-loop: each application thread (and, for baselines, each
coroutine within a thread) executes transactions back-to-back, which is how
the paper saturates the systems ("enough colocated clients to saturate each
evaluated system").
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from ..baselines.cluster import BaselineCluster
from ..harness.zeus_cluster import ZeusCluster
from ..store.catalog import ObjectId

__all__ = ["TxnSpec", "MixTable", "RunStats", "run_zeus_workload",
           "spawn_zeus_workers", "run_baseline_workload"]


class TxnSpec:
    """One transaction to execute at a given node."""

    __slots__ = ("write_set", "read_set", "exec_us", "read_only", "tag")

    def __init__(self, write_set: Sequence[ObjectId] = (),
                 read_set: Sequence[ObjectId] = (),
                 exec_us: float = 0.5, read_only: bool = False,
                 tag: str = ""):
        self.write_set = tuple(write_set)
        self.read_set = tuple(read_set)
        self.exec_us = exec_us
        self.read_only = read_only
        self.tag = tag


class MixTable:
    """A weighted draw whose cumulative table is built once.

    ``pick(rng)`` is ``rng.choices(population, weights=weights)[0]`` —
    the same single ``rng.random()`` draw through the same bisection, so
    it returns the same element and leaves ``rng`` in the same state —
    without re-accumulating the weights on every call.  A generator on
    the transaction lane spells ``pick`` out in its own frame from
    ``population``, ``cum``, ``total`` and ``hi``.
    """

    __slots__ = ("population", "cum", "total", "hi")

    def __init__(self, population: Sequence[Any], weights: Sequence[float]):
        self.population = tuple(population)
        self.cum = list(accumulate(weights))
        self.hi = len(self.cum) - 1
        self.total = self.cum[-1] + 0.0 if self.cum else 0.0
        # What ``choices`` itself refuses.
        if (len(self.cum) != len(self.population)
                or not 0.0 < self.total < float("inf")):
            raise ValueError("need one weight per element and a positive, "
                             "finite total")

    def pick(self, rng: random.Random) -> Any:
        return self.population[bisect(self.cum, rng.random() * self.total,
                                      0, self.hi)]


#: spec_fn(node_id, thread, rng) -> TxnSpec | None (None = this thread idles
#: briefly; generators use it when a node has no eligible work).
SpecFn = Callable[[int, int, random.Random], Optional[TxnSpec]]
#: Called after each committed transaction: on_commit(node_id, spec, result).
CommitHook = Callable[[int, TxnSpec, object], None]


class RunStats:
    """Aggregated outcome of one workload run."""

    def __init__(self) -> None:
        self.committed = 0
        self.aborted_txns = 0
        self.retries = 0
        self.ownership_requests = 0
        self.objects_acquired = 0
        self.per_tag: Dict[str, int] = {}

    def throughput_tps(self, elapsed_us: float) -> float:
        """Mean committed transactions per simulated second."""
        if elapsed_us <= 0:
            return 0.0
        return self.committed / (elapsed_us / 1e6)


def spawn_zeus_workers(cluster: ZeusCluster, spec_fn: SpecFn,
                       stats: RunStats, stop_at: float, measure_from: float,
                       threads: int, node_ids: Iterable[int], seed: int = 1,
                       on_commit: Optional[CommitHook] = None) -> None:
    """Spawn closed-loop worker coroutines on ``node_ids``.

    Split out of :func:`run_zeus_workload` so elastic runs can add workers
    on nodes that *join* mid-run (the scale-out path spawns a fresh set on
    each admitted node, feeding the same :class:`RunStats`).  Workers stop
    on their own when the node dies or enters a graceful drain — a drained
    node must wind down its application load, not keep generating it.
    """
    sim = cluster.sim
    draining = cluster.draining

    def worker(node_id: int, thread: int):
        execute = cluster.handles[node_id].api.execute
        node = cluster.nodes[node_id]
        rng = cluster.rng.stream(f"wl.{seed}.{node_id}.{thread}")
        while sim.now < stop_at and node.alive and node_id not in draining:
            spec = spec_fn(node_id, thread, rng)
            if spec is None:
                yield 5.0  # nothing routed here right now
                continue
            # The transaction runs in one frame under this one: the worker
            # delegates straight to the API's ``execute`` generator.
            result = yield from execute(thread, spec.write_set, spec.read_set,
                                        spec.exec_us, None, spec.read_only)
            if result.committed:
                if sim.now >= measure_from:
                    stats.committed += 1
                    stats.retries += result.aborts
                    stats.ownership_requests += result.ownership_requests
                    stats.objects_acquired += result.acquired_objects
                    tag = spec.tag
                    if tag:
                        stats.per_tag[tag] = stats.per_tag.get(tag, 0) + 1
                if on_commit is not None:
                    on_commit(node_id, spec, result)
            elif sim.now >= measure_from:
                stats.aborted_txns += 1

    for node_id in node_ids:
        for thread in range(threads):
            cluster.spawn_app(node_id, thread, worker(node_id, thread),
                              name=f"wl{thread}")


def run_zeus_workload(cluster: ZeusCluster, spec_fn: SpecFn,
                      duration_us: float, warmup_us: float = 0.0,
                      threads: Optional[int] = None,
                      nodes: Optional[Iterable[int]] = None,
                      seed: int = 1,
                      on_commit: Optional[CommitHook] = None,
                      stats: Optional[RunStats] = None) -> RunStats:
    """Drive a Zeus cluster closed-loop and return aggregate stats.

    Statistics only count transactions that finish (commit or give up)
    after ``warmup_us``.
    Pass ``stats`` to aggregate into a caller-owned instance (elastic runs
    share one across workers spawned before and after a scale-out).
    """
    if stats is None:
        stats = RunStats()
    sim = cluster.sim
    threads = threads if threads is not None else cluster.params.app_threads
    node_ids = list(nodes) if nodes is not None else list(range(len(cluster.handles)))
    stop_at = sim.now + duration_us
    measure_from = sim.now + warmup_us
    spawn_zeus_workers(cluster, spec_fn, stats, stop_at, measure_from,
                       threads, node_ids, seed=seed, on_commit=on_commit)
    cluster.run(until=stop_at)
    return stats


def run_baseline_workload(cluster: BaselineCluster, spec_fn: SpecFn,
                          duration_us: float, warmup_us: float = 0.0,
                          threads: Optional[int] = None,
                          seed: int = 1) -> RunStats:
    """Drive a baseline cluster closed-loop (coroutines per thread)."""
    stats = RunStats()
    sim = cluster.sim
    threads = threads if threads is not None else cluster.params.app_threads
    coroutines = cluster.profile.coroutines_per_thread
    stop_at = sim.now + duration_us
    measure_from = sim.now + warmup_us

    def worker(node_id: int, thread: int, coro: int):
        engine = cluster.engines[node_id]
        cpu = cluster.nodes[node_id].app_cpus[thread]
        rng = cluster.rng.stream(f"wl.{seed}.{node_id}.{thread}.{coro}")
        txn_no = 0
        while sim.now < stop_at:
            spec = spec_fn(node_id, thread, rng)
            if spec is None:
                yield 5.0
                continue
            txn_no += 1
            tag = (node_id * 10_000 + thread * 100 + coro, txn_no)
            if spec.read_only:
                result = yield from engine.execute_read(cpu, spec.read_set,
                                                        spec.exec_us)
            else:
                result = yield from engine.execute_write(cpu, tag,
                                                         spec.write_set,
                                                         spec.read_set,
                                                         spec.exec_us)
            if sim.now < measure_from:
                continue
            if result.committed:
                stats.committed += 1
                stats.retries += result.aborts
                if spec.tag:
                    stats.per_tag[spec.tag] = stats.per_tag.get(spec.tag, 0) + 1
            else:
                stats.aborted_txns += 1

    for node_id in range(len(cluster.nodes)):
        for thread in range(threads):
            for coro in range(coroutines):
                cluster.spawn_app(node_id, worker(node_id, thread, coro),
                                  name=f"wl{thread}.{coro}")
    cluster.run(until=stop_at)
    return stats
