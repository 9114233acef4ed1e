"""Three ways to strand an arbitration (ROADMAP item 1), pinned before the fix.

Each leaves an INV stored in ``OwnershipManager._pending_arb`` that nobody
will ever VAL or ABORT.  A directory node with a stranded entry answers
every later REQ it drives with ``BUSY_ARBITRATION`` — for good when the
requester is that node itself, since a directory host always drives its
own requests — and no audit sees it: ``audit_liveness`` filters every
``pending arbitrations`` line out.

Every case is a short full-stack recipe and its twin in the exhaustive
explorer (``repro.verify.exhaustive``), which is what found the second and
the third.  All are ``xfail(strict=True)``: they assert what *should* hold,
so the PR that fixes a cause has to flip its pair.  Only a failed
assertion counts as the expected failure; a recipe that no longer gets as
far as the stranding raises ``RecipeBroken`` and fails outright.
"""

import pytest

from repro.harness.rig import Rig, counter_catalog
from repro.ownership.messages import KIND_VAL, NackReason
from repro.verify import Scenario, check_protocol, quiescence_problems

OID = 0
strands = pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="stranded arbitration, ROADMAP item 1")


class RecipeBroken(Exception):
    pass


def reached(condition, what):
    if not condition:
        raise RecipeBroken(what)


def acquire(cluster, node_id, outcomes, after_us=0.0, times=1):
    """App: after ``after_us``, request ownership ``times`` times, 1 ms
    apart, appending each outcome."""
    yield after_us
    for _ in range(times):
        outcomes.append((yield from cluster.handles[node_id]
                         .ownership.acquire(OID)))
        yield 1_000.0


def assert_recovers(cluster, retries):
    assert any(outcome.granted for outcome in retries), retries
    assert quiescence_problems(cluster) == []


def assert_no_wedged_terminal_state(scenario):
    result = check_protocol(scenario)
    assert result.ok, (result.violation, result.trace)


# 1. The watchdog fires while the REQ still sits in a gray-slow driver's
# queue.  ``_complete()`` rolls back only when ``ctx.arbiters`` is known,
# i.e. after a first ACK, so no ABORT is sent; the driver then serves the
# REQ and drives the INV, and ``_on_ack`` drops every ACK for the request
# it has forgotten.  Node 3 is no directory host: its driver is node 0.

@strands
def test_watchdog_fires_before_the_req_is_served():
    cluster = Rig(counter_catalog(4, 1, owner_of=lambda i: 1), seed=1).cluster
    outcomes = []

    def app():
        cluster.nodes[0].set_slowdown(20_000.0)
        yield from acquire(cluster, 3, outcomes)
        cluster.nodes[0].set_slowdown(1.0)
        yield from acquire(cluster, 3, outcomes, after_us=50_000.0, times=5)

    cluster.spawn_app(3, 0, app())
    cluster.run(until=200_000.0)
    reached(outcomes[0].reason is NackReason.TIMEOUT, outcomes)
    assert_recovers(cluster, outcomes[1:])


@strands
def test_watchdog_fires_before_the_req_is_served_explored():
    assert_no_wedged_terminal_state(
        Scenario(nodes=4, owner=1, acquirers=(3,), watchdog=True))


# 2. No fault at all.  Nodes 1 and 2 contend while owner 0 has a commit
# pending.  The larger contender (2) reaches 0 first, is refused with
# BUSY_COMMIT and aborts the arbiters it invalidated — not 0, which "never
# invalidated".  The commit finishes; the smaller contender's INV reaches 0
# and is accepted; then 1 sees 2's larger INV, concedes (CONTENTION_LOST)
# and sends no ABORT either, expecting the winner's INV to supersede its
# own everywhere.  On node 0 it never will.

@strands
def test_loser_concedes_to_a_winner_the_owner_refused():
    cluster = Rig(counter_catalog(3, 1, owner_of=lambda i: 0), seed=1).cluster
    first, retries = [], []
    cluster.spawn_app(0, 0, cluster.handles[0].api.execute_write(0, [OID]))
    cluster.spawn_app(1, 0, acquire(cluster, 1, first, after_us=4.75))
    cluster.spawn_app(2, 0, acquire(cluster, 2, first, after_us=4.25))
    cluster.spawn_app(0, 1, acquire(cluster, 0, retries, after_us=10_000.0,
                                    times=5))
    cluster.run(until=100_000.0)
    reached({outcome.reason for outcome in first} == {
        NackReason.BUSY_COMMIT, NackReason.CONTENTION_LOST}, first)
    assert_recovers(cluster, retries)


@strands
def test_loser_concedes_to_a_winner_the_owner_refused_explored():
    assert_no_wedged_terminal_state(Scenario(acquirers=(1, 2), writes=1))


# 3. The requester crashes after its VAL reached node 0 and before the one
# for node 2 left (or that one is lost: a dead sender retransmits
# nothing).  After the view change node 2 replays the stored INV, but
# node 0 has already applied that very ``o_ts`` and ``_on_inv`` ignores it
# as stale — no ACK, so the replay never completes.

@strands
def test_arb_replay_is_ignored_by_an_arbiter_that_already_applied():
    cluster = Rig(counter_catalog(3, 1, owner_of=lambda i: 0), seed=1).cluster
    cluster.start_membership()
    deliver_val, cost, span = cluster.nodes[2]._handlers[KIND_VAL]

    def lose_first_val_and_crash_its_sender(msg):
        if cluster.nodes[1].alive:
            cluster.crash(1)
        else:
            deliver_val(msg)

    cluster.nodes[2]._handlers[KIND_VAL] = (
        lose_first_val_and_crash_its_sender, cost, span)
    first, retries = [], []
    cluster.spawn_app(1, 0, acquire(cluster, 1, first))
    cluster.spawn_app(2, 0, acquire(cluster, 2, retries, after_us=60_000.0,
                                    times=5))
    cluster.run(until=200_000.0)
    reached(first[0].granted and cluster.nodes[0].epoch == 2, first)
    assert_recovers(cluster, retries)


@strands
def test_arb_replay_is_ignored_by_an_arbiter_that_already_applied_explored():
    assert_no_wedged_terminal_state(Scenario(acquirers=(1,), crashable=(1,)))
