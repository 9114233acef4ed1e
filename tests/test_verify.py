"""Verification layer: checker, exhaustive explorer, invariants, sweep."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import explore
from repro.commit.manager import CommitManager
from repro.ownership.manager import OwnershipManager
from repro.verify import (
    SCENARIOS,
    InvariantViolation,
    bfs_check,
    check_invariants,
    check_protocol,
    check_quiescent,
)
from repro.verify.exhaustive import _Explorer, _Node
from repro.store.meta import OState, ReplicaSet, TState
from tests.conftest import make_cluster, run_app


# ------------------------------------------------------------ bfs checker


def test_bfs_explores_all_states():
    # Counter 0..3 with increment action.
    def actions(state):
        if state < 3:
            yield ("inc", state + 1)

    result = bfs_check([0], actions, [("nonneg", lambda s: s >= 0)])
    assert result.ok
    assert result.states_explored == 4
    assert result.transitions == 3


def test_bfs_finds_violation_with_shortest_trace():
    def actions(state):
        yield ("inc", state + 1)
        yield ("jump", state + 10)

    result = bfs_check([0], actions, [("small", lambda s: s < 10)],
                       max_states=100)
    assert not result.ok
    assert result.violation == "small"
    assert result.trace == ["jump"]  # one step, not ten increments


def test_bfs_truncates_at_budget():
    def actions(state):
        yield ("inc", state + 1)

    result = bfs_check([0], actions, [], max_states=10)
    assert result.truncated
    assert result.states_explored == 10


def test_bfs_checks_initial_states():
    result = bfs_check([5], lambda s: [], [("never", lambda s: False)])
    assert not result.ok
    assert result.trace == []


# ------------------------------------------- exhaustive, over the real code

#: (states, transitions) of every ``repro verify`` scenario.  A protocol
#: edit that changes what is reachable changes these: say why in the PR.
REACHABLE = {
    "ownership": (1256, 3571),
    "ownership+dup": (908, 8377),
    "ownership+crash": (5610, 13432),
    "ownership+write": (10372, 40233),
    "commit+crash": (55142, 190297),
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_real_managers_hold_every_invariant_exhaustively(name):
    result = check_protocol(SCENARIOS[name])
    assert result.ok, (result.violation, result.trace)
    assert not result.truncated
    assert (result.states_explored, result.transitions) == REACHABLE[name]


def test_reachable_counts_do_not_depend_on_the_hash_seed():
    """Every set that enters a state key is sorted, so a fresh interpreter
    reaches the same states under any string-hash randomisation."""
    names = [name for name in SCENARIOS if name != "commit+crash"]
    snippet = ("import sys; from repro.verify import SCENARIOS, "
               "check_protocol\nfor name in sys.argv[1:]:\n"
               "    r = check_protocol(SCENARIOS[name])\n"
               "    print(name, r.states_explored, r.transitions)")
    want = "".join(f"{name} {REACHABLE[name][0]} {REACHABLE[name][1]}\n"
                   for name in names)
    src = Path(__file__).resolve().parent.parent / "src"
    children = [subprocess.Popen(
        [sys.executable, "-c", snippet, *names], stdout=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": str(src),
                        "PYTHONHASHSEED": hash_seed})
        for hash_seed in ("0", "1", "random")]
    try:
        for child in children:
            out, _ = child.communicate(timeout=120)
            assert child.returncode == 0
            assert out == want
    finally:
        for child in children:
            child.kill()
            child.wait()


#: Every attribute of the two managers on the explorer's fake node.  A
#: node's state key holds all of them (``exhaustive._Node.key``), so an
#: attribute added to a manager — a lazily filled cache, say — joins every
#: explored state and moves REACHABLE without a protocol change.
MANAGER_ATTRIBUTES = {
    OwnershipManager: [
        "_latency", "_lifecycle", "_lifted_epoch", "_next_req_id",
        "_pending_arb", "_provisional", "_recovered", "_replays",
        "_req_by_oid", "_reqs", "catalog", "commit_mgr",
        "counters", "degree_overrides", "directory", "node", "node_id",
        "params", "sim", "store", "tracer", "trim_preferred"],
    CommitManager: [
        "_ack_buffer", "_ack_flush_scheduled", "_coord", "_follow",
        "_latency", "_pending_by_oid", "_prev_live", "_recovering_epoch",
        "_replays", "_val_buffer", "_val_flush_scheduled", "catalog",
        "counters", "history", "max_pipeline_depth", "node", "node_id",
        "ownership", "params", "sim", "store", "tracer"],
}


def test_the_explorer_sees_exactly_these_manager_attributes():
    node = _Node(_Explorer(SCENARIOS["ownership"]), 0)
    for manager in (node.ownership, node.commit):
        want = MANAGER_ATTRIBUTES[type(manager)]
        assert sorted(vars(manager)) == want, (
            f"{type(manager).__name__} attributes changed: the exhaustive "
            "explorer keys every state on them.  Caches stay off the "
            "manager (keep one on the catalog, or recompute a function of "
            "the view on a view change); protocol state added on purpose "
            "goes here and in REACHABLE, with the reason")


def test_seeded_ownership_bug_is_caught_with_a_shortest_trace(monkeypatch):
    """A VAL applied without matching its ``o_ts`` to the pending
    arbitration: harmless over exactly-once channels, two owners as soon
    as a VAL may be delivered twice."""
    def on_val(self, msg):
        pending = self._pending_arb.get(msg.payload.oid)
        if pending is not None:
            self._settle(pending, True)

    monkeypatch.setattr(OwnershipManager, "_on_val", on_val)
    assert check_protocol(SCENARIOS["ownership"]).ok
    result = check_protocol(SCENARIOS["ownership+dup"])
    assert result.violation == "object 0 has multiple owners: [1, 2]"
    assert len(result.trace) == 11
    assert result.trace[-1] == result.trace[-3] == "deliver 1->2 own.val"


def test_seeded_commit_bug_is_caught_with_a_shortest_trace(monkeypatch):
    """An R-VAL that validates whatever version the replica holds by now,
    not the version it was sent for, exposes the second pipelined write
    before the other follower has it."""
    on_rval = CommitManager._on_rval

    def on_any_version(self, msg):
        on_rval(self, msg)
        for obj in self.store:
            obj.t_state = TState.VALID

    monkeypatch.setattr(CommitManager, "_on_rval", on_any_version)
    result = check_protocol(SCENARIOS["commit+crash"])
    assert result.violation.startswith("replication: v2 was exposed")
    assert len(result.trace) == 11
    assert result.trace[:2] == ["n0 write", "n0 write"]
    assert result.trace[-1] == "deliver 0->1 rc.val"


# --------------------------------------------------------------- invariants


def test_invariants_pass_on_healthy_cluster(cluster3):
    check_invariants(cluster3)


def test_single_owner_violation_detected():
    cluster = make_cluster(3)
    # Corrupt: two nodes believe they own object 0.
    for nid in (0, 1):
        obj = cluster.handles[nid].store.get(0)
        obj.o_replicas = ReplicaSet(owner=nid, readers=())
        obj.o_state = OState.VALID
    with pytest.raises(InvariantViolation):
        check_invariants(cluster)


def test_consistency_violation_detected():
    cluster = make_cluster(3)
    obj = cluster.handles[1].store.get(0)
    obj.t_data = "divergent"  # same version, different data
    with pytest.raises(InvariantViolation):
        check_invariants(cluster)


def test_quiescence_clean_after_workload():
    cluster = make_cluster(3)
    api = cluster.handles[0].api

    def app():
        for oid in range(5):
            yield from api.execute_write(0, [oid])

    run_app(cluster, 0, app())
    cluster.run(until=1_000_000)
    assert check_quiescent(cluster) == []


# ----------------------------------------------------------------- explorer


def test_explorer_clean_sweep():
    result = explore(seeds=4)
    assert len(result.runs) == 4
    assert result.problems() == []
    assert result.committed > 0
