"""Gates as library functions: each one fails on hand-built inputs, the
shared CLI footer carries them to the exit code, and argv that would make
a gate vacuous (or divide by zero) is rejected up front."""

import pytest

from repro.chaos import CampaignResult, FaultSchedule, Recipe, RunReport
from repro.chaos.schedule import (AddNodesEvent, ClusterRestartEvent,
                                  CrashEvent, DrainEvent, RecoverEvent)
from repro.harness.gates import (locality_problems, recovery_problems,
                                 throughput_recovery)
from repro.harness.runner import _verdict, main
from repro.placement.differential import DiffOutcome
from repro.verify.audit import AuditReport

CLEAN = AuditReport([], [], [], [])

# ------------------------------------------------- scale-out throughput


@pytest.mark.parametrize("pre,post,recovered_at,gates", [
    (1000, [400, 700, 950, 1000, 1010], 26_000.0, []),
    # Flat post-add throughput: never back at 90%, and not at the end.
    (1000, [500] * 6, None, ["recovery", "recovery"]),
    # Back above 90% at once, but it does not last.
    (1000, [950, 900, 600, 600, 600], 22_000.0, ["recovery"]),
    # No commits at all: 0 >= 0.9 * 0 must not pass vacuously.
    (0, [0, 0, 0], 22_000.0, ["steady_state"]),
])
def test_throughput_recovery_gates(pre, post, recovered_at, gates):
    """``pre`` commits per 2 ms window up to the add at t=20 ms, then the
    ``post`` windows."""
    samples = [((i + 1) * 2_000.0, c) for i, c in enumerate([pre] * 10 + post)]
    steady, pre_windows, got_at, final = throughput_recovery(samples, 20_000.0)
    assert (steady, pre_windows, got_at) == (pre, 5, recovered_at)
    assert [g for g, _ in recovery_problems(steady, got_at, final)] == gates


# ------------------------------------------------------ locality gates


def _report(hot_keys=(1,), paid_back=1,
            marks=("add_nodes", "joiners_serving", "converged")):
    return {"hot_keys": list(hot_keys),
            "migrations": {"paid_back": paid_back},
            "marks": [(label, 0.0, {}) for label in marks]}


def test_locality_gates_pass_on_a_falling_remote_fraction():
    assert locality_problems(_report(), (24_000.0, 0.13, 0.11)) == []
    # Without a scale-out only the recorded-something gate applies.
    assert locality_problems(_report(paid_back=0, marks=())) == []


@pytest.mark.parametrize("report,fall,gate", [
    (_report(), (24_000.0, 0.11, 0.11), "remote_fraction"),
    (_report(), (24_000.0, 0.11, 0.13), "remote_fraction"),
    (_report(), (24_000.0, None, None), "remote_fraction"),
    (_report(paid_back=0), (24_000.0, 0.13, 0.11), "payback"),
    (_report(marks=("add_nodes",)), (24_000.0, 0.13, 0.11), "marks"),
    (_report(hot_keys=()), None, "hot_keys"),
])
def test_locality_gate_fails(report, fall, gate):
    assert [g for g, _ in locality_problems(report, fall)] == [gate]


# -------------------------------------- campaign: fault path exercised

RECOVERS = FaultSchedule([CrashEvent(1_000.0, 1), RecoverEvent(5_000.0, 1)])
ELASTIC = FaultSchedule([AddNodesEvent(1_000.0, 2), DrainEvent(9_000.0, 3)])
POWER = FaultSchedule([ClusterRestartEvent(4_000.0)])


def _campaign(schedule, moved=()):
    """One clean-audit cell of ``schedule``; each counter in ``moved`` > 0."""
    result = CampaignResult(
        runs=[RunReport(Recipe().of(schedule, 0), 10, 0, [], CLEAN)])
    for name in moved:
        result.registry.counter(name).inc()
    return result


@pytest.mark.parametrize("schedule,counters", [
    (RECOVERS, ["recovery.rejoins"]),
    (ELASTIC, ["rebalance.drains_completed", "rebalance.objects_moved"]),
    (POWER, ["recovery.wal_replayed"]),
])
def test_scheduled_fault_path_must_show_in_the_counters(schedule, counters):
    # Clean audits, but the counters say the scheduled path never ran.
    result = _campaign(schedule)
    problems = result.problems()
    assert not result.ok
    assert [gate for gate, _ in problems] == ["exercised"] * len(counters)
    for counter, (_gate, problem) in zip(counters, problems):
        assert counter in problem
    # ... and with the counters moved, the same grid passes.
    assert _campaign(schedule, moved=counters).ok


def test_campaign_problems_name_the_failing_cell_and_skip_absent_events():
    assert _campaign(FaultSchedule([CrashEvent(1_000.0, 1)])).ok
    assert CampaignResult().problems() == [("campaign", "no runs")]
    bad = AuditReport([], ["lost increment"], [], [])
    result = CampaignResult(
        runs=[RunReport(Recipe(seed=3, name="s"), 10, 0, [], bad)])
    assert result.problems() == [("s seed 3: exactly_once", "lost increment")]
    assert "1 failed" in result.summary()


# ------------------------------------------------- placement pair gates


def _pair(**overrides):
    kw = dict(workload="w", seed=1, must_win=False, static_remote=0.10,
              adaptive_remote=0.10, static_committed=1, adaptive_committed=1,
              static_audit=CLEAN, adaptive_audit=CLEAN, migrations=0,
              repins=0, degree_sets=0, decision_digest="", deterministic=True,
              replay_ok=True)
    kw.update(overrides)
    return DiffOutcome(**kw)


@pytest.mark.parametrize("overrides,gate", [
    (dict(deterministic=False), "determinism"),
    (dict(replay_ok=False), "replay"),
    (dict(must_win=True), "claim"),                 # no reduction, win due
    (dict(adaptive_remote=0.20), "claim"),          # worse past tolerance
    (dict(adaptive_remote=None), "claim"),
    (dict(adaptive_audit=AuditReport(["two owners"], [], [], [])),
     "adaptive audit: safety"),
])
def test_placement_pair_gate_fails(overrides, gate):
    out = _pair(**overrides)
    assert not out.ok
    assert [g for g, _ in out.problems()] == [gate]


def test_placement_pair_gates_pass():
    assert _pair().ok
    assert _pair(must_win=True, adaptive_remote=0.05).ok
    assert _pair(static_remote=None, adaptive_remote=None).ok


# ------------------------------------------------------ the CLI footer


def test_verdict_footer_carries_problems_to_the_exit_code(capsys):
    assert _verdict([]) == 0
    assert capsys.readouterr().out == "verdict         : OK\n"
    assert _verdict([("gate", "went wrong")]) == 1
    assert capsys.readouterr().out == ("  FAILED [gate]: went wrong\n"
                                       "verdict         : FAILED\n")


@pytest.mark.parametrize("argv", [
    ["heatmap", "--groups", "0"],
    ["heatmap", "--top", "0"],
    ["verify", "--seeds", "0"],
    ["chaos", "--difficulty", "4"],
    ["check", "--seeds", "0"],
    # Elastic schedules have no fault-free level: the grid would be empty.
    ["chaos", "--elastic", "--difficulty", "0"],
    ["chaos", "--seeds", "0"],
    ["chaos", "--schedules", "0"],
    # No sampling window would end inside the steady-state half.
    ["elastic", "--steady", "400", "--window", "1000"],
    ["elastic", "--window", "0"],
])
def test_cli_rejects_argv_that_runs_nothing(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
