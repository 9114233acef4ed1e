"""A RESP for a *live* request finishes it exactly once (ROADMAP item 1(a)).

A RESP is what an arb-replay driver sends the requester once the surviving
arbiters have re-ACKed (here: arbiter 2 crashes as the request leaves, so
the requester's own ACK collection can never finish and the view change
replays the stored INV).  ``_on_resp`` hands a live request to the ACK
path's ``_apply_and_validate``, after a FETCH if the requester holds no
copy, and returns.  This guards both shapes of the old fall-through into
a "late RESP" tail:

* the requester **stores** the object (a reader): the grant must be VALed
  once at every arbiter, not twice;
* the requester **needs the value**: a second FETCH used to overwrite
  the first with no request attached, so the DATA reply applied the grant
  but completed nobody, and ``acquire()`` returned ``TIMEOUT`` for an
  ownership it held.

A recipe that no longer delivers a RESP to a live request raises
``RecipeBroken`` instead of passing vacuously.
"""

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
        live_resps.append(ctx is not None)

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


def test_a_resp_for_a_live_request_is_finished_once():
    problems = []
    for role, nodes, requester in (("reader", 4, 3), ("non-replica", 5, 4)):
        outcome, vals = acquire_across_a_crashed_arbiter(nodes, requester)
        if not outcome.granted:
            problems.append(f"{role}: acquire() returned {outcome}")
        if set(vals.values()) != {1}:
            problems.append(f"{role}: VALs per arbiter {vals}")
    assert problems == []
