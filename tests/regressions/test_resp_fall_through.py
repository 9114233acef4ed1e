"""``OwnershipManager._on_resp`` falls through on a *live* request (ROADMAP
item 1), pinned before the fix.

A RESP is what an arb-replay driver sends the requester once the surviving
arbiters have re-ACKed (here: arbiter 2 crashes as the request leaves, so
the requester's own ACK collection can never finish and the view change
replays the stored INV).  For a request that is still waiting, ``_on_resp``
hands the grant to ``_finish_resp`` — and then runs the "late RESP for a
request we abandoned" tail as well, whose own branch above already
returned:

* the requester **stores** the object (a reader): the grant is applied and
  validated once by ``_apply_resp`` and then the tail VALs every arbiter a
  second time;
* the requester **needs the value**: the tail sends a second FETCH and
  overwrites ``_fetch_waiting[req_id]`` with ``ctx=None``, so the DATA
  reply applies the grant but completes nobody — ``acquire()`` returns
  ``TIMEOUT`` at the watchdog, for an ownership it holds.

``xfail(strict=True)`` on the assertion only: a recipe that no longer
delivers a RESP to a live request raises ``RecipeBroken`` and fails
outright.  The fix is one ``return``; it moves ``REACHABLE`` and the
``elastic`` golden, so it is its own PR.
"""

import pytest

from repro.harness.rig import Rig, counter_catalog
from repro.ownership.messages import KIND_RESP, KIND_VAL

OID = 0
ARBITERS = (0, 1)  # the surviving directory hosts; 1 is also the owner


class RecipeBroken(Exception):
    pass


def wrap(node, kind, before):
    """Call ``before(msg)`` ahead of ``node``'s handler for ``kind``."""
    deliver, cost, span = node._handlers[kind]

    def handler(msg):
        before(msg)
        deliver(msg)

    node._handlers[kind] = (handler, cost, span)


def acquire_across_a_crashed_arbiter(nodes, requester):
    """Owner 1, readers 2 and 3, directory 0-2; arbiter 2 crashes as
    ``requester`` asks.  Returns the outcome and the VALs each surviving
    arbiter received from the requester."""
    cluster = Rig(counter_catalog(nodes, 1, owner_of=lambda i: 1),
                  seed=1).cluster
    cluster.start_membership()
    ownership = cluster.handles[requester].ownership
    vals = dict.fromkeys(ARBITERS, 0)
    live_resps, outcomes = [], []

    def count_val(arbiter):
        def count(msg):
            vals[arbiter] += msg.src == requester
        return count

    def note_resp(msg):
        ctx = ownership._reqs.get(msg.payload.req_id)
        live_resps.append(ctx is not None and not ctx.done)

    for arbiter in ARBITERS:
        wrap(cluster.nodes[arbiter], KIND_VAL, count_val(arbiter))
    wrap(cluster.nodes[requester], KIND_RESP, note_resp)

    def app():
        cluster.crash(2)
        outcomes.append((yield from ownership.acquire(OID)))

    cluster.spawn_app(requester, 0, app())
    cluster.run(until=20_000.0)
    if not (outcomes and live_resps and live_resps[0]):
        raise RecipeBroken((outcomes, live_resps))
    return outcomes[0], vals


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="_on_resp falls through after _finish_resp on a "
                          "live request, ROADMAP item 1")
def test_a_resp_for_a_live_request_is_finished_once():
    problems = []
    for role, nodes, requester in (("reader", 4, 3), ("non-replica", 5, 4)):
        outcome, vals = acquire_across_a_crashed_arbiter(nodes, requester)
        if not outcome.granted:
            problems.append(f"{role}: acquire() returned {outcome}")
        if set(vals.values()) != {1}:
            problems.append(f"{role}: VALs per arbiter {vals}")
    assert problems == []
