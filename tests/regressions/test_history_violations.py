"""Strict-serializability violations (ROADMAP item 1).

Every recipe here is what ``repro.verify.shrink.shrink`` returned for a
failing cell of the one runner (``repro.chaos.run_cell``); each runs in
under two seconds.  Live defects are ``xfail(strict=True)``: they assert
that the cell passes every audit, so the change that fixes a cause has
to delete its marker.  Only a failed assertion counts as the expected failure.

1. *A read-only transaction returned a version 550 us after its successor
   committed.*  Chaos schedule 104 under cluster seed 46 (132 ms, 4 events:
   the campaign cell ROADMAP item 1 lists) shrinks to the loss/dup/reorder
   window plus the gray slow-down of node 0 in a 33 ms window — crash and
   recovery are not needed, neither event alone reproduces.  A read-only
   transaction on node 2 spanning 22.9-24.3 ms returned object 6 at v640
   after v641 committed: ``[realtime] dependency cycle over ops [4245,
   4270, 4275]``.  Node 2's copy was unlisted (every directory host, node 2
   included, listed readers (0, 1)) yet its ``o_state`` was still Valid, so
   no R-INV reached it and the read rule (``StoredObject``) admitted it.
   A plain test since the read rule, which changed the run's trajectory;
   the unlisted-but-Valid copy was not mended.  The audit falls at
   34.25 ms, inside the loss window (to 40.8 ms), so a run that happens to
   have a message in flight then fails ``audit_liveness`` instead.

2. *Three cells of the randomized sweep* (``repro.chaos.explore``, seeds
   83, 152 and 263 of the first 300; constant 2 % loss / 2 % duplication /
   6 us reordering).  Seeds 83 and 152 crash node 2 at 147 / 223 us and
   end with one version of an object installed by two committed
   transactions (pinned).  Seed 263 draws no crash at all and ended in an
   eight-op real-time cycle: op 27 committed object 2 at v23 while its
   node held the R-INV of v24 buffered (``CommitManager._on_rinv``), the
   class of ``test_ten_threads.py``'s seed 214.  A plain test since the
   read rule, which changed the run's trajectory, not the class.  The
   write-only explorer load these cells replaced never reached any of
   them.
"""

from dataclasses import replace

import pytest

from repro.chaos import (SWEEP_CELL, FaultWindowEvent, Recipe, SlowdownEvent,
                         generate_schedule, generate_sweep_schedule, run_cell)

violates = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="history violation, ROADMAP item 1")


def test_read_only_txn_is_not_stale_inside_a_loss_burst_on_a_slow_node():
    schedule = generate_schedule(4, 132_000.0, seed=104, difficulty=2)
    recipe = Recipe(seed=46, name=schedule.name, check_history=True,
                    duration_us=33_000.0, quiesce_us=1_250.0,
                    events=tuple(ev for ev in schedule if isinstance(
                        ev, (FaultWindowEvent, SlowdownEvent))))
    assert run_cell(recipe).audit.problems() == []


@pytest.mark.parametrize("seed,window_us,quiesce_us", [
    pytest.param(83, 2_500.0, 1_250.0, id="seed-83", marks=violates),
    pytest.param(152, 1_250.0, 2_500.0, id="seed-152", marks=violates),
    pytest.param(263, 2_500.0, 1_250.0, id="seed-263"),
])
def test_sweep_cell_history_is_strictly_serializable(seed, window_us,
                                                     quiesce_us):
    recipe = replace(SWEEP_CELL.of(generate_sweep_schedule(4, seed), seed),
                     duration_us=window_us, quiesce_us=quiesce_us)
    assert run_cell(recipe, check_every_us=200.0).audit.problems() == []
