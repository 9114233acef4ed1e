"""The transaction lane's and the ownership move's frame budgets: a host
cost that no machine moves.

``sys.setprofile`` sees one ``call`` event per Python frame entered (a
generator resumption is one) and one ``c_call`` per builtin.  Over a
fixed-seed window both counts are pure functions of the code, so the budget
below is exact everywhere — a change that puts a frame back on the local
transaction or on an ownership move fails here, not in a noisy host
number.  ``python tests/test_txn_lane.py`` prints the census (DESIGN.md §5
quotes it).
"""

import dis
import gc
import sys
from inspect import CO_GENERATOR

import pytest

from repro.harness.zeus_cluster import ZeusCluster
from repro.obs import (HistoryRecorder, LocalityRecorder, Observability,
                       Tracer)
from repro.sim.params import SimParams
from repro.workloads.base import RunStats, run_zeus_workload
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.tatp import TatpWorkload
from repro.workloads.voter import VoterWorkload, migrate_objects

#: Python frames per op a window may cost: per committed transaction on
#: tatp and smallbank, per granted ownership move on voter.  The commit
#: before the lane (8c4f344) measured 33.7 and 168.0 on the transaction
#: windows, the lane 17.2 and 123.3; re-arming the transport's timers in
#: place (and the hop trims beside it) took Smallbank from 123.3 to 104.9.
#: Trimming the ownership handlers and the hop under them took a move from
#: 253.6 frames to 186.6, and Smallbank from 104.9 to 97.4 (CPython 3.10
#: and 3.11; 3.12 counts fewer, as it inlines comprehensions).  Draws
#: spelled out in the generators, a set lookup for the worker's drain
#: check, no throughput meter, an inline heap push per sleep and no slot
#: for a follower-less commit took TATP from 16.9 to 8.9 and Smallbank
#: from 97.4 to 89.0.
BUDGET = {"tatp": 9.0, "smallbank": 89.0, "voter": 187.0}
#: Python frames per local transaction of ``anatomy()`` (the driver's own
#: frame included): 6 and 20 before the generator-lane trims.
ANATOMY_FRAMES = {"read": 5.01, "write": 14.01}


def build(name: str, obs=None):
    """(cluster, spec_fn, window_us) of a small fixed-seed run."""
    params = SimParams().scaled_threads(app=2, worker=2)
    if name == "tatp":
        wl = TatpWorkload(1, subscribers_per_node=2_000, seed=11)
        nodes, window_us = 1, 4_000.0
    else:
        wl = SmallbankWorkload(3, accounts_per_node=1_000, remote_frac=0.0,
                               seed=7)
        nodes, window_us = 3, 1_500.0
    cluster = ZeusCluster(nodes, params=params, catalog=wl.catalog, seed=1,
                          obs=obs)
    cluster.load(init_value=100)
    return cluster, wl.spec_for, window_us


def build_moves():
    """(cluster, oids) of a fixed-seed 3-node bulk move in which every
    object is re-homed to node 1, as ``perf/workloads.py``'s
    ``voter_bulk_move`` does (every object starts on node 0, nodes 1 and
    2 read it)."""
    params = SimParams().scaled_threads(app=2, worker=2)
    wl = VoterWorkload(3, voters=1_000, seed=17, single_node_setup=True)
    cluster = ZeusCluster(3, params=params, catalog=wl.catalog, seed=1)
    cluster.load()
    oids = [oid for contestant in range(wl.num_contestants)
            for oid in wl.move_contestant(contestant, 1)]
    return cluster, oids


def _profiled(drive) -> dict:
    """``call`` and ``c_call`` events while ``drive()`` runs."""
    counts = {"call": 0, "c_call": 0}

    def profile(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    # No collection inside the window: hypothesis (run by earlier tests)
    # registers a Python gc callback, whose frames are not the lane's and
    # whose count depends on where the allocation counter stood.
    gc.disable()
    sys.setprofile(profile)
    try:
        drive()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts


def census(name: str) -> dict:
    """Frames and builtin calls per op of one window: per committed
    transaction, or per granted move on ``voter``."""
    if name == "voter":
        cluster, oids = build_moves()
        moved = []

        def drive():
            migrate_objects(cluster, 1, oids, threads=6, progress=moved)
            cluster.sim.run()

        counts = _profiled(drive)
        registry = cluster.obs.registry
        ops = registry.counter_total("ownership.granted")
        # Uncontended: every move is granted at its first request.
        assert ops == len(moved) == len(oids) == registry.counter_total(
            "ownership.req.acquire_owner") > 1_000
    else:
        cluster, spec_fn, window_us = build(name)
        stats = RunStats()
        latencies = []

        def on_commit(node_id, spec, result):
            latencies.append(result.latency_us)

        counts = _profiled(lambda: run_zeus_workload(
            cluster, spec_fn, window_us, threads=2, seed=1,
            on_commit=on_commit, stats=stats))
        assert stats.committed == len(latencies) > 1_000
        assert stats.aborted_txns == 0
        ops = stats.committed
    return {"ops": ops,
            "frames_per_op": counts["call"] / ops,
            "c_calls_per_op": counts["c_call"] / ops,
            "events_per_op": cluster.sim.events_executed / ops}


def anatomy(write: bool, txns: int = 2_000) -> dict:
    """Per-transaction host anatomy of one local read or write, driven the
    way ``perf/micro.py`` drives it (``yield from api.execute_*`` in a loop
    on a 1-node cluster; the driver's own resumption is in the numbers)."""
    cluster, _spec_fn, _window = build("tatp")
    api = cluster.handles[0].api
    done = []

    def app():
        for i in range(txns):
            oids = (i % 64,)
            if write:
                result = yield from api.execute_write(0, oids, (), 0.3)
            else:
                result = yield from api.execute_read(0, oids, 0.3)
            done.append(result.committed)

    counts = dict.fromkeys(("frames", "c_calls", "resumptions", "generators"),
                           0)
    finished = dis.opmap["RETURN_VALUE"]

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call":
            counts["frames"] += 1
            counts["resumptions"] += bool(code.co_flags & CO_GENERATOR)
        elif event == "c_call":
            counts["c_calls"] += 1
        elif (event == "return" and code.co_flags & CO_GENERATOR
              and code.co_code[frame.f_lasti] == finished):
            counts["generators"] += 1  # ran to its end: one object made

    cluster.spawn_app(0, 0, app())
    sys.setprofile(profile)
    try:
        cluster.sim.run()
    finally:
        sys.setprofile(None)
    assert len(done) == txns and all(done)
    return {key: round(value / txns, 2) for key, value in counts.items()}


def test_a_local_transaction_is_one_generator_resumed_twice():
    for write in (False, True):
        got = anatomy(write)
        # ``execute`` is made once, entered once and resumed once after its
        # single ``yield cost``; the third resumption is the driver's own.
        assert got["generators"] == 1.0 and got["resumptions"] == 3.0, got
        assert got["frames"] <= ANATOMY_FRAMES["write" if write else "read"]


@pytest.mark.parametrize("name", ["smallbank", "tatp"])
def test_python_frames_per_committed_txn_stay_in_budget(name):
    got = census(name)
    assert got["frames_per_op"] <= BUDGET[name], got


def test_python_frames_per_granted_move_stay_in_budget():
    got = census("voter")
    assert got["frames_per_op"] <= BUDGET["voter"], got


def test_census_is_deterministic():
    assert census("tatp") == census("tatp")


@pytest.mark.parametrize("name", ["smallbank", "tatp"])
def test_an_instrumented_lane_is_the_plain_lane_event_for_event(name):
    """The recorders ride on the run's own events: they schedule none.

    On the 1-node ``tatp`` window the plain run commits every write with
    no follower and so without a slot, while the tracer sends each one
    down the slot path: the two paths count, time and schedule alike.
    Without a tracer the history recorder rides on the slot-less commit
    and still sees every write durable."""
    def kernel_counts(obs):
        cluster, spec_fn, window_us = build(name, obs)
        stats = run_zeus_workload(cluster, spec_fn, window_us, threads=2,
                                  seed=1)
        cluster.run(until=cluster.sim.now + 2_000.0)  # drain the pipelines
        sim = cluster.sim
        assert stats.committed > 1_000
        commits = [(h.commit.counters.as_dict(),
                    list(h.commit.commit_latencies_us))
                   for h in cluster.handles]
        assert commits[0][0]["committed"] > 100
        return (stats.committed, sim.events_executed, sim.heap_pushes,
                sim.cancelled_skipped, commits)

    plain = kernel_counts(None)
    for obs in (Observability(tracer=Tracer(), history=HistoryRecorder(),
                              locality=LocalityRecorder()),
                Observability(history=HistoryRecorder())):
        assert kernel_counts(obs) == plain
        assert len(obs.history.ops) > 1_000 and all(
            op.durable for op in obs.history.ops)


if __name__ == "__main__":
    for _name in sorted(BUDGET):
        print(_name, {key: round(value, 2)
                      for key, value in census(_name).items()})
    print("local read ", anatomy(False))
    print("local write", anatomy(True))
