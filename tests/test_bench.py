"""The pinned scenario cells and the host profiler: registry, profiler
neutrality, outcome digests, and the CLI command list."""

import pytest

from repro.harness.runner import COMMANDS
from repro.harness.scenarios import SCENARIOS, ScenarioOutcome
from repro.obs import HostProfiler, Observability


def test_registry_names_the_five_cells():
    assert list(SCENARIOS) == ["smallbank", "tatp", "voter_migration",
                               "chaos2", "elastic"]
    assert all(callable(run) for run in SCENARIOS.values())


# ------------------------------------------------------- profiler neutrality


@pytest.fixture(scope="module")
def chaos_runs():
    """One profiled and one plain run of the same chaos cell (the cheapest
    scenario that still exercises every layer)."""
    run = SCENARIOS["chaos2"]
    profiler = HostProfiler()
    profiler.start()
    profiled = run(5, Observability(profiler=profiler))
    profiler.stop()
    plain = run(5, Observability())
    return profiled, plain, profiler


def test_profiler_does_not_change_outcomes(chaos_runs):
    profiled, plain, _ = chaos_runs
    assert profiled.digest() == plain.digest()
    assert profiled.committed == plain.committed
    assert profiled.aborted == plain.aborted
    assert profiled.events_executed == plain.events_executed
    assert profiled.sim_now_us == plain.sim_now_us
    assert profiled.extra == plain.extra
    # ...while a different seed lands on a different digest.
    other = SCENARIOS["chaos2"](6, Observability())
    assert other.digest() != plain.digest()


def test_profiler_attributes_host_time(chaos_runs):
    profiled, _, profiler = chaos_runs
    # Every simulator event was classified somewhere.
    assert profiler.events_profiled == profiled.events_executed
    assert sum(profiler.subsys_events.values()) == profiled.events_executed
    # The workload generators and the protocol layers all burned time.
    for subsystem in ("app", "net", "cluster"):
        assert profiler.subsys_ns[subsystem] > 0
    # Handler breakdown covers the commit pipeline's message kinds.
    assert profiler.handler_events["rc.inv"] > 0
    assert profiler.message_counts["rc.ack"] > 0
    # The window's wall time covers every callback (residual = dispatch).
    assert profiler.wall_ns >= sum(profiler.subsys_ns.values()) > 0


def test_kernel_skips_profiling_when_unset():
    # A cluster built with default Observability installs no profiler.
    from repro.harness.zeus_cluster import ZeusCluster
    cluster = ZeusCluster(3)
    assert cluster.sim._profiler is None


# ------------------------------------------------------------------ digests


def test_outcome_digest_ignores_event_count():
    # The event count is a cost, not an outcome; digests must not care.
    a = ScenarioOutcome(10, 2, 1000, 500.0, {"x": 1})
    b = ScenarioOutcome(10, 2, 1234, 500.0, {"x": 1})
    c = ScenarioOutcome(11, 2, 1000, 500.0, {"x": 1})
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


# ---------------------------------------------------------------------- CLI


def test_cli_registry_covers_all_commands():
    names = [name for name, _, _, _ in COMMANDS]
    assert names == ["quickstart", "verify", "chaos", "elastic", "check",
                     "locality", "heatmap", "place", "smallbank", "trace",
                     "analyze", "list"]
    assert len(set(names)) == len(names)
    for _, help_line, _, handler in COMMANDS:
        assert help_line and callable(handler)


# ------------------------------------------------------------------- slots


def test_hot_classes_have_slots():
    from repro.net.message import Message
    from repro.txn.transaction import (
        ReadOnlyTransaction,
        Transaction,
        _TxnBase,
    )

    for cls in (Message, _TxnBase, Transaction, ReadOnlyTransaction,
                HostProfiler):
        assert "__slots__" in cls.__dict__, cls
        assert "__dict__" not in dir(cls), cls
    # Slotted instances reject stray attributes.
    with pytest.raises(AttributeError):
        HostProfiler().stray = 1
