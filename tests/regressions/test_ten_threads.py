"""The sweep cell at the paper's ten app threads (ROADMAP item 14).

Every judged cell elsewhere runs two app threads per node; the paper runs
ten (§8).  These cells are :data:`repro.chaos.SWEEP_CELL` at ten threads,
each run unshrunk in under a second.  Three are live violations, pinned
``xfail(strict=True)``: they assert that the cell passes every audit, so
the PR that fixes a cause has to delete its marker.

1. *Fault-free seed 52: read skew.*  A read-only transaction (op 458)
   reads object 4 at v94 and object 2 at v93, but v93 follows v95 of
   object 4 through a chain of write-write edges: ``[serializability]
   dependency cycle over ops [458, 504, 512, 513, 514, 510]``.  It passes
   at 4, 6 and 8 threads.
2. *Fault-free seed 82: a real-time cycle* over ops 1541, 1621, 1618 and
   1624.  It passes at 4, 6 and 8 threads.
3. *Seed 34 with its sweep crash draw: a real-time cycle* over ops 42,
   182, 167, 172, 163 and 176.  No live request receives a RESP in it.

Seed 26 with its crash draw is a plain test.  It lost an update: node 2
got a RESP for object 3 while its request was live, applied the grant,
then fell through into the "late RESP" tail, so object 3's version 1 was
installed by two committed transactions (``audit_exactly_once``: 75
increments committed, 74 applied).  A live RESP now finishes the request
once, through the ACK path.
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


def crash_draw(seed):
    return replace(SWEEP_CELL, app_threads=THREADS).of(
        generate_sweep_schedule(4, seed), seed)


def test_crash_draw_at_ten_threads_loses_no_update():
    assert run_cell(crash_draw(26)).audit.problems() == []


@violates
def test_crash_draw_at_ten_threads_is_strictly_serializable():
    assert run_cell(crash_draw(34)).audit.problems() == []
