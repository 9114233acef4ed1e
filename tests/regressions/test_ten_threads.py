"""Violations at the paper's ten app threads (ROADMAP item 14), pinned
before the fix.

Every judged cell elsewhere runs two app threads per node; the paper runs
ten (§8).  These three cells are :data:`repro.chaos.SWEEP_CELL` at ten
threads.  Each fails in under a second with no shrinking, and all three
pass at 4, 6 and 8 threads, so 10 is the lowest failing thread count
measured.  All are ``xfail(strict=True)``: they assert that the cell
passes every audit, so the PR that fixes a cause has to delete its marker.

1. *Fault-free seed 52: read skew.*  A read-only transaction (op 458)
   reads object 4 at v94 and object 2 at v93, but v93 follows v95 of
   object 4 through a chain of write-write edges: ``[serializability]
   dependency cycle over ops [458, 504, 512, 513, 514, 510]``.
2. *Fault-free seed 82: a real-time cycle* over ops 1541, 1621, 1618 and
   1624.
3. *Seed 26 with its sweep crash draw: a lost update.*  Object 3's
   version 1 is installed by two committed transactions, and
   ``audit_exactly_once`` counts 75 increments committed but 74 applied.
"""

from dataclasses import replace

import pytest

from repro.chaos import SWEEP_CELL, generate_sweep_schedule, run_cell
from repro.sim.params import FaultParams

THREADS = 10

violates = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="violation at ten app threads, "
                                    "ROADMAP item 14")


@violates
@pytest.mark.parametrize("seed", [
    pytest.param(52, id="seed-52-read-skew"),
    pytest.param(82, id="seed-82-realtime-cycle"),
])
def test_fault_free_cell_at_ten_threads_is_strictly_serializable(seed):
    recipe = replace(SWEEP_CELL, seed=seed, app_threads=THREADS,
                     faults=FaultParams(), events=())
    assert run_cell(recipe).audit.problems() == []


@violates
def test_crash_draw_at_ten_threads_loses_no_update():
    recipe = replace(SWEEP_CELL, app_threads=THREADS).of(
        generate_sweep_schedule(4, 26), 26)
    assert run_cell(recipe).audit.problems() == []
