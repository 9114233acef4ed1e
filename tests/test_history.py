"""History recording, strict-serializability checking, and shrinking."""

from dataclasses import replace

import pytest

from repro.chaos import Recipe, explore, generate_schedule, run_cell
from repro.chaos.schedule import CrashEvent, RecoverEvent, SlowdownEvent
from repro.harness.zeus_cluster import ZeusCluster
from repro.obs import LocalityRecorder, Observability, Tracer
from repro.obs.history import (
    ABORTED,
    COMMITTED,
    INDETERMINATE,
    HistoryOp,
    HistoryRecorder,
)
from repro.sim.params import DiskParams, SimParams
from repro.txn import transaction as txn_mod
from repro.verify.history import check_history
from repro.verify.shrink import shrink
from tests.conftest import make_catalog


# ------------------------------------------------------------------ recorder


def test_recorder_roundtrip():
    rec = HistoryRecorder()
    op = rec.begin(0, 1, "write", 10.0)
    rec.read(op, 7, 3, 11.0)
    rec.write(op, 7, 4, 12.0)
    rec.respond(op, True, 12.5)
    [op] = rec.ops
    assert op.committed
    assert op.invoked_at == 10.0 and op.responded_at == 12.5
    assert op.reads == [(7, 3, 11.0)]
    assert op.writes == [(7, 4, 12.0)]
    assert [done.op_id for done in rec.committed_ops()] == [op.op_id]
    assert len(rec) == 1


@pytest.mark.parametrize("wal", [False, True])
def test_commit_manager_stamps_durability_at_the_ack_instant(wal):
    """The history op rides on the commit slot: the manager marks it durable
    where it resolves the commit ack (and persisted at the COMMIT record's
    fsync), and recording the history costs the kernel no event."""
    def submit(history):
        params = SimParams().with_(
            disk=DiskParams(enabled=True, fsync_policy="always")) if wal \
            else SimParams()
        cluster = ZeusCluster(3, params=params, catalog=make_catalog(3, 4),
                              seed=0, obs=Observability(history=history))
        cluster.load(init_value=0)
        op = (history.begin(0, 0, "write", cluster.sim.now)
              if history is not None else None)
        acked = []
        cluster.handles[0].commit.submit(
            0, [(0, 2, "new", 64)], {1, 2}, hop=op
        ).add_done_callback(lambda fut: acked.append(fut.sim.now))
        assert op is None or not history.ops[op].durable
        cluster.run(until=2_000.0)
        return op if op is None else history.ops[op], acked, cluster.sim

    op, acked, sim = submit(HistoryRecorder())
    assert op.durable and [op.durable_at] == acked and acked[0] > 0.0
    assert op.persisted is wal
    assert (op.persisted_at >= op.durable_at) if wal \
        else op.persisted_at is None
    _, plain_acked, plain = submit(None)
    assert plain_acked == acked
    assert (plain.events_executed, plain.heap_pushes) \
        == (sim.events_executed, sim.heap_pushes)


def test_on_crash_downgrades_only_nondurable():
    rec = HistoryRecorder()
    durable = rec.begin(1, 0, "write", 0.0)
    rec.respond(durable, True, 1.0)
    rec.mark_durable(durable, 1.0)
    pending = rec.begin(1, 0, "write", 2.0)
    rec.respond(pending, True, 3.0)
    in_flight = rec.begin(1, 1, "write", 2.5)
    aborted = rec.begin(1, 1, "write", 2.6)
    rec.respond(aborted, False, 2.9)
    other_node = rec.begin(2, 0, "write", 2.7)
    rec.respond(other_node, True, 2.8)

    rec.on_crash(1, 4.0)
    durable, pending, in_flight, aborted, other_node = rec.ops
    assert durable.outcome == COMMITTED
    assert pending.outcome == INDETERMINATE
    assert in_flight.outcome == INDETERMINATE
    assert in_flight.responded_at == 4.0
    assert aborted.outcome == ABORTED
    assert other_node.outcome == COMMITTED


# ------------------------------------------------------------------- checker


def mk(op_id, inv, resp, reads=(), writes=(), outcome=COMMITTED,
       durable_at=None, kind="write"):
    op = HistoryOp(op_id, 0, 0, kind, inv)
    op.responded_at = resp
    op.reads = [(oid, ver, inv) for oid, ver in reads]
    op.writes = [(oid, ver, resp) for oid, ver in writes]
    op.outcome = outcome
    op.durable_at = durable_at
    return op


def test_clean_history_ok():
    ops = [mk(1, 0.0, 1.0, writes=[("x", 1)]),
           mk(2, 2.0, 3.0, reads=[("x", 1)], kind="read")]
    result = check_history(ops)
    assert result.ok
    assert result.committed == 2
    assert "vio=[]" in result.digest()


def test_lost_update_detected():
    ops = [mk(1, 0.0, 1.0, writes=[("x", 1)]),
           mk(2, 2.0, 3.0, writes=[("x", 1)])]
    result = check_history(ops)
    assert not result.ok
    v = result.violations[0]
    assert v.category == "lost-update"
    assert v.cycle == (1, 2)


def test_fractured_read_is_serializability_cycle():
    # T2 observes T1's write to y but not its (earlier-versioned) write
    # to x, with overlapping windows: a pure data-flow cycle, no rt edge.
    ops = [mk(1, 0.0, 10.0, writes=[("x", 1), ("y", 1)]),
           mk(2, 5.0, 8.0, reads=[("x", 0), ("y", 1)], kind="read")]
    result = check_history(ops)
    assert not result.ok
    v = result.violations[0]
    assert v.category == "serializability"
    assert set(v.cycle) == {1, 2}
    assert {k for _s, _d, k in v.edges} == {"wr", "rw"}


def test_stale_read_is_realtime_cycle():
    ops = [mk(1, 0.0, 1.0, writes=[("x", 1)]),
           mk(2, 5.0, 6.0, reads=[("x", 0)], kind="read")]
    result = check_history(ops)
    assert not result.ok
    v = result.violations[0]
    assert v.category == "realtime"
    assert set(v.cycle) == {1, 2}
    assert "rt" in {k for _s, _d, k in v.edges}


def test_early_ack_window_read_is_legal():
    # The write acked at t=1 but only became visible (replicated) at t=5:
    # a reader invoked inside the window may serialize before it...
    w = mk(1, 0.0, 1.0, writes=[("x", 1)], durable_at=5.0)
    r_inside = mk(2, 2.0, 3.0, reads=[("x", 0)], kind="read")
    assert check_history([w, r_inside]).ok
    # ...but a reader invoked after the visibility point may not.
    r_after = mk(3, 6.0, 7.0, reads=[("x", 0)], kind="read")
    result = check_history([w, r_after])
    assert not result.ok
    assert result.violations[0].category == "realtime"


def test_indeterminate_write_legal_seen_or_unseen():
    maybe = mk(1, 0.0, 1.0, writes=[("x", 1)], outcome=INDETERMINATE)
    seen = mk(2, 2.0, 3.0, reads=[("x", 1)], kind="read")
    unseen = mk(3, 4.0, 5.0, reads=[("x", 0)], kind="read")
    assert check_history([maybe, seen]).ok
    assert check_history([maybe, unseen]).ok
    result = check_history([maybe, seen, unseen])
    # Observing the crash fork and then not observing it again *is* a
    # non-repeatable-read shape, but neither reader alone violates.
    assert result.indeterminate == 1


def test_duplicate_version_with_indeterminate_is_crash_fork():
    maybe = mk(1, 0.0, 1.0, writes=[("x", 1)], outcome=INDETERMINATE)
    redo = mk(2, 2.0, 3.0, writes=[("x", 1)])
    assert check_history([maybe, redo]).ok


# ------------------------------------------- fault-injected runs stay clean


def test_explorer_histories_strictly_serializable():
    swept = explore(seeds=2)
    assert len(swept.runs) == 2
    assert all(run.recipe.check_history for run in swept.runs)
    assert swept.ok, swept.problems()


def test_sweep_cell_without_a_crash_is_audited_with_strict_exactly_once():
    """About half the sweep's seeds draw no crash; those cells are the
    strict fault-free case — every committed increment applied exactly
    once, not the crashed-coordinator lower bound."""
    crash_free = [run for run in explore(seeds=8).runs
                  if not run.recipe.events]
    assert len(crash_free) >= 2
    for run in crash_free:
        assert run.timeline == [] and run.ok, run.audit.problems()
        assert run.committed > 100


def test_chaos_crash_recover_history_strictly_serializable():
    # The acceptance run: a difficulty-2 schedule (crash -> recover plus
    # partition/slowdown) with the history audit on must come back clean.
    cell = Recipe(check_history=True, duration_us=15_000.0,
                  quiesce_us=25_000.0)
    schedule = generate_schedule(cell.num_nodes, cell.duration_us, seed=100,
                                 difficulty=2, require_crash=True)
    report = run_cell(cell.of(schedule, 0))
    assert any(t.startswith("crash") for t in report.timeline)
    assert any(t.startswith("recover") for t in report.timeline)
    assert report.audit.history == []
    assert report.ok, report.audit.problems()


# ------------------------------------------------- broken commit + shrinker


CRASH_RECOVER = (CrashEvent(3000.0, 1), RecoverEvent(15000.0, 1))
SLOWDOWNS = (SlowdownEvent(500.0, 2, 3.0, 4000.0),
             SlowdownEvent(8000.0, 0, 2.0, 9000.0))
SMALL = Recipe(seed=1, num_nodes=3, num_objects=4, duration_us=4_000.0,
               quiesce_us=26_000.0, check_history=True)


@pytest.fixture
def broken_commit(monkeypatch):
    """The commit path skips the version bump for the rest of the test."""
    monkeypatch.setattr(txn_mod, "VERSION_BUMP", 0)


def test_healthy_recipe_passes():
    assert run_cell(replace(SMALL, events=CRASH_RECOVER)).ok


@pytest.mark.parametrize("events", [CRASH_RECOVER, CRASH_RECOVER + SLOWDOWNS],
                         ids=["crash-recover", "crash-recover-slowdowns"])
def test_broken_commit_caught_and_shrunk_to_half_or_less(events,
                                                         broken_commit):
    """The checker must *catch* a broken commit path and shrink the failing
    run to a minimal repro (CI's check-smoke job runs this test by name)."""
    recipe = replace(SMALL, events=events)
    report = run_cell(recipe)
    assert any("[lost-update]" in p for p in report.audit.history)

    sr = shrink(recipe, report)
    assert sr.events_after <= sr.events_before // 2
    assert sr.minimized.recipe.duration_us <= recipe.duration_us
    assert not sr.minimized.ok
    assert "shrunk" in sr.describe()
    # The minimal recipe reproduces deterministically: re-running it
    # yields a byte-identical verdict.
    assert run_cell(sr.minimized.recipe).digest() == sr.minimized.digest()


def test_shrink_keeps_any_gate_of_the_original_not_only_history(
        broken_commit):
    """Without a recorder the broken commit path still fails the state
    audits; the shrinker minimises on those gates alone."""
    recipe = replace(SMALL, events=CRASH_RECOVER, check_history=False)
    report = run_cell(recipe)
    gates = {gate for gate, _ in report.audit.problems()}
    assert gates == {"safety", "exactly_once"}

    sr = shrink(recipe, report)
    assert sr.events_after == 0
    assert {gate for gate, _ in sr.minimized.audit.problems()} & gates
    assert sr.minimized.audit.history == []


def test_shrink_refuses_passing_run():
    with pytest.raises(ValueError):
        shrink(SMALL)


# ------------------------------------------------------- seed determinism


def test_explorer_digest_deterministic():
    first = [run.digest() for run in explore(seeds=4).runs]
    second = [run.digest() for run in explore(seeds=4).runs]
    assert first == second


def test_chaos_run_digest_deterministic():
    """Same recipe twice ⇒ byte-identical report digest — and attaching a
    tracer, a history recorder and a locality recorder changes nothing."""
    cell = Recipe(duration_us=6_000.0, quiesce_us=12_000.0)
    recipe = cell.of(generate_schedule(cell.num_nodes, cell.duration_us,
                                       seed=100, difficulty=1,
                                       require_crash=True), 0)
    first = run_cell(recipe)
    assert first.ok, first.audit.problems()
    assert run_cell(recipe).digest() == first.digest()
    instrumented = run_cell(
        replace(recipe, check_history=True),
        Observability(tracer=Tracer(), locality=LocalityRecorder()))
    assert instrumented.digest() == first.digest()
