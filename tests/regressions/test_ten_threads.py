"""The sweep cell at the paper's ten app threads (ROADMAP item 14).

Every judged cell elsewhere runs two app threads per node; the paper runs
ten (§8).  These cells are :data:`repro.chaos.SWEEP_CELL` at ten threads,
each run unshrunk in under a second.  ``python
tests/regressions/test_ten_threads.py`` prints item 14's table: the
failing seeds among 0-39 of each row (fault-free, loss/dup/reorder, crash
draw) at 2, 4 and 10 threads, with history on and the invariants checked
every 200 us.

One cell is a live violation, pinned ``xfail(strict=True)``: it asserts
that the cell passes every audit, so the change that fixes its cause has
to delete the marker.

* *Fault-free seed 214: a real-time cycle* over ops 9, 126, 58 and 135,
  the same before and after the read rule (``StoredObject``).  Op 9, a
  read-only transaction on node 0, commits object 4 at v16 while node 0
  holds the R-INV of v17 unapplied: the R-INV arrived ahead of an earlier
  slot of its coordinator's pipeline, so ``CommitManager._on_rinv``
  buffered it and left the copy Valid at the superseded version.

Four cells are plain tests.  The first three failed a history audit
until the read rule, and pass since.  No transaction in their cycles
committed a read of a copy whose ``o_state`` was Invalid: the rule
changed which transactions retry, and with them each run's trajectory,
so these pin the runs, not the absence of the class (seed 214 is the
class of 1 and 2).

1. *Fault-free seed 52: read skew.*  A read-only transaction (op 458)
   read object 4 at v94 and object 2 at v93, but v93 follows v95 of
   object 4 through a chain of write-write edges: ``[serializability]
   dependency cycle over ops [458, 504, 512, 513, 514, 510]``.  Node 3
   held v95's R-INV buffered behind slot 8 of pipeline (1, 2), with the
   copy Valid at v94, when op 458 committed.
2. *Fault-free seed 82: a real-time cycle* over ops 1541, 1621, 1618 and
   1624.  Op 1541 committed object 0 at v296 with v297's R-INV buffered.
3. *Seed 34 with its sweep crash draw: a real-time cycle* over ops 42,
   182, 167, 172, 163 and 176.  No live request received a RESP, and no
   op of the cycle read a copy with a buffered R-INV; its cause was not
   found.
4. *Seed 26 with its crash draw lost an update.*  Node 2 got a RESP for
   object 3 while its request was live, applied the grant, then fell
   through into the "late RESP" tail, so object 3's version 1 was
   installed by two committed transactions (``audit_exactly_once``: 75
   increments committed, 74 applied).  A live RESP now finishes the
   request once, through the ACK path.
"""

from dataclasses import replace

import pytest

from repro.chaos import SWEEP_CELL, generate_sweep_schedule, run_cell
from repro.sim.params import FaultParams

THREADS = 10

violates = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="violation at ten app threads, "
                                    "ROADMAP item 14")


def fault_free(seed, threads=THREADS):
    return replace(SWEEP_CELL, seed=seed, app_threads=threads,
                   faults=FaultParams(), events=())


def loss(seed, threads=THREADS):
    return replace(SWEEP_CELL, seed=seed, app_threads=threads)


def crash_draw(seed, threads=THREADS):
    return replace(SWEEP_CELL, app_threads=threads).of(
        generate_sweep_schedule(4, seed), seed)


@pytest.mark.parametrize("seed", [
    pytest.param(52, id="seed-52-read-skew"),
    pytest.param(82, id="seed-82-realtime-cycle"),
    pytest.param(214, id="seed-214-realtime-cycle", marks=violates),
])
def test_fault_free_cell_at_ten_threads_is_strictly_serializable(seed):
    assert run_cell(fault_free(seed)).audit.problems() == []


def test_crash_draw_at_ten_threads_loses_no_update():
    assert run_cell(crash_draw(26)).audit.problems() == []


def test_crash_draw_at_ten_threads_is_strictly_serializable():
    assert run_cell(crash_draw(34)).audit.problems() == []


if __name__ == "__main__":
    print("failing seeds of 0-39 (history on, invariants every 200 us)")
    print("| cell | T=2 | T=4 | T=10 |")
    print("|---|---|---|---|")
    for name, cell in (("fault-free", fault_free),
                       ("loss/dup/reorder", loss),
                       ("crash draw", crash_draw)):
        failing = [[seed for seed in range(40)
                    if run_cell(cell(seed, threads), check_every_us=200.0)
                    .audit.problems()]
                   for threads in (2, 4, 10)]
        print(f"| {name} | " + " | ".join(
            f"{len(seeds)} {seeds}" if seeds else "0" for seeds in failing)
              + " |", flush=True)
