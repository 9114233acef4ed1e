"""Full-cluster power loss and the cold restart after it.

1. *A node that crashes between the cold restart and its reformed view,
   and is then recovered, skipped the state transfer.*  The cold restart
   armed a reconcile flag that the later reboot never cleared, so the
   admit view ran the cold reconcile on the rebooted node's wiped store:
   ``recovery.rejoins`` stayed 0, the rejoiner's directory shard stayed
   empty, and the rejoin audit listed every object the workload had not
   re-created since.  Fixed when every way back became one phase of
   ``RecoveryManager``; the regression is a plain test.  At 256 objects
   or fewer the workload re-creates every entry and hides the hole.

2. *The cold reconcile can leave an owner behind a Valid replica.*  Seed
   0 at 1,024 objects, power loss at 5 ms: after the reformed view (6.07
   ms) the audit finds ``object 72: owner at v0 behind a Valid replica at
   v3``.  The reconcile's phase barriers are fixed sleeps
   (``_COLD_SETTLE_US`` = 400 us), not acknowledgements, so they do not
   scale with the object count; with 2,000 us the same recipe passes.
   Live: the pin asserts a clean audit.
"""

import pytest

from repro.chaos import CrashEvent, Recipe, RecoverEvent, run_cell
from repro.chaos.schedule import ClusterRestartEvent
from repro.obs import Observability
from repro.sim.params import DiskParams


def _cell(num_objects, duration_us, quiesce_us, *events):
    return Recipe(seed=0, num_objects=num_objects, duration_us=duration_us,
                  quiesce_us=quiesce_us, disk=DiskParams(enabled=True),
                  events=(ClusterRestartEvent(5_000.0, 500.0),) + events)


def test_node_crashed_before_the_reformed_view_rejoins_by_state_transfer():
    recipe = _cell(512, 13_000.0, 2_000.0,
                   CrashEvent(5_510.0, node=1), RecoverEvent(12_000.0, node=1))
    obs = Observability()
    report = run_cell(recipe, obs)
    # The crash lands before the reformed view installs.
    assert [e.split("(")[0] for e in report.timeline] == [
        "power_loss", "crash", "cold_restart", "recover"]
    assert obs.registry.counter_total("recovery.rejoins") == 1
    # Node 1 hosts a directory shard: the transfer re-created all of it.
    assert [problem for _gate, problem in report.audit.problems()
            if "has no entry" in problem] == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="cold reconcile settles on fixed sleeps, ROADMAP item 1(e)")
def test_cold_restart_of_a_thousand_objects_keeps_owners_current():
    assert run_cell(_cell(1_024, 7_000.0, 1_000.0)).audit.problems() == []
