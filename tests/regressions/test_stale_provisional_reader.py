"""The fault-free lost update (ROADMAP item 1, first defect), pinned and fixed.

No fault, no membership, 12.4 ms of the plain closed-loop counter load on
four nodes and eight counters.  Before the fix the audit returned
``('exactly_once', 'object 7: 534 committed increments but 533 applied')``,
``[lost-update] object 7 version 532 installed by both op#3362 and op#3375``
and an rw/wr cycle over ops 3362/3366.

Cause, read off a 0.5 us state poll of object 7 at t = 12,275-12,350 us: a
multi-object R-INV goes to the *union* of its objects' readers, so node 2 —
a reader of object 1, not of 7 — receives op#3251's R-INV carrying
``(7, v531)``.  It has its own ``ADD_READER(7)`` in flight, so
``claim_provisional(7)`` says yes and ``_apply_rinv`` adopts v531 as a first
copy, although the directory does not list node 2 for object 7 yet.  The
next write ``(5, 7 -> v532)`` goes to the readers of 5 and 7; node 2 is
neither.  The ADD_READER is then granted, the owner's ACK carries v532, and
``OwnershipManager._apply_locally``'s ``ADD_READER`` branch kept an existing
copy untouched: node 2 was now a *listed* reader at v531 (stale read,
op#3366), acquired ownership as a listed replica (no data shipped) and
installed v532 a second time.  The fix adopts a strictly newer granted
``(data, data_version)`` in that branch, as ``ACQUIRE_OWNER`` always did.
"""

from repro.harness.rig import Rig, counter_catalog
from repro.obs import HistoryRecorder, Observability


def test_granted_reader_adopts_the_newer_value_over_its_provisional_copy():
    rec = HistoryRecorder()
    rig = Rig(counter_catalog(4, 8), 69, Observability(history=rec))
    rig.start(rig.routed_spec(0.0, 0.2), 12_400.0)
    rig.cluster.run(until=12_400.0)
    rig.cluster.run(until=17_400.0)
    assert rig.audit(history=rec).problems() == []
