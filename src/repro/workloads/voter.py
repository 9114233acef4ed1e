"""The Voter benchmark (Section 8.4): popularity skew + bulk migration.

A phone-voting show: each vote updates two objects — the contestant's vote
total and the voter's history row (enforcing the per-voter rate limit).
The load balancer routes votes by *contestant*, so a contestant's entire
voter base executes on the contestant's current node; spreading popular
contestants across nodes is precisely the dynamic-sharding use case of
Section 2.2.

The migration experiments (Figures 10-12) move voter objects between nodes
with dedicated mover threads that issue one ownership request per object —
the paper measures a single worker thread sustaining ~25k objects/s and a
server ~250k/s.  :func:`migrate_objects` is that mover.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..harness.zeus_cluster import ZeusCluster
from ..store.catalog import Catalog
from .base import MixTable, TxnSpec

__all__ = ["VoterWorkload", "migrate_objects"]

_CONTESTANT_SIZE = 64
_HISTORY_SIZE = 96
_EXEC_US = 0.4


class VoterWorkload:
    """Generator state for one Voter deployment."""

    def __init__(self, num_nodes: int, voters: int = 60_000,
                 contestants: int = 20, zipf_s: float = 1.2,
                 seed: int = 17, single_node_setup: bool = False,
                 hot_contestant_voters: int = 0):
        self.num_nodes = num_nodes
        self.voters = voters
        self.num_contestants = contestants

        self.catalog = Catalog(num_nodes, replication_degree=min(3, num_nodes))
        self.catalog.add_table("contestant", _CONTESTANT_SIZE)
        self.catalog.add_table("history", _HISTORY_SIZE)

        rng = random.Random(seed)
        #: Contestant placement (the LB's routing key).
        if single_node_setup:
            self.contestant_node = [0] * contestants
        else:
            self.contestant_node = [c % num_nodes for c in range(contestants)]
        self.contestant_oids = [
            self.catalog.create_object("contestant", c,
                                       owner=self.contestant_node[c])
            for c in range(contestants)
        ]

        # Zipf-ish popularity; voter i prefers a fixed contestant.
        popularity = MixTable(range(contestants),
                              [1.0 / (c + 1) ** zipf_s
                               for c in range(contestants)])
        self.voter_choice: List[int] = []
        self.history_oids: List[int] = []
        #: contestant -> its voters, ascending (what a re-pin migrates).
        self._voters_of: List[List[int]] = [[] for _ in range(contestants)]
        hot_assigned = 0
        for v in range(voters):
            if hot_assigned < hot_contestant_voters:
                choice = 0
                hot_assigned += 1
            else:
                choice = popularity.pick(rng)
            self.voter_choice.append(choice)
            self._voters_of[choice].append(v)
            # History rows start colocated with the preferred contestant
            # (the LB routed this voter's first call there).
            self.history_oids.append(
                self.catalog.create_object("history", v,
                                           owner=self.contestant_node[choice]))
        #: Voters indexed by their contestant's node.
        self._rebuild_pools()

    def _rebuild_pools(self) -> None:
        self.voters_at: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for v in range(self.voters):
            node = self.contestant_node[self.voter_choice[v]]
            self.voters_at[node].append(v)

    # ------------------------------------------------------------ generator

    def spec_for(self, node: int, thread: int,
                 rng: random.Random) -> Optional[TxnSpec]:
        pool = self.voters_at[node]
        while pool:
            idx = rng.randrange(len(pool))
            voter = pool[idx]
            contestant = self.voter_choice[voter]
            if self.contestant_node[contestant] != node:
                pool[idx] = pool[-1]
                pool.pop()
                continue
            return TxnSpec(
                write_set=(self.contestant_oids[contestant],
                           self.history_oids[voter]),
                exec_us=_EXEC_US, tag="vote")
        return None

    # ------------------------------------------------------------ migration

    def move_contestant(self, contestant: int, node: int) -> List[int]:
        """Re-pin a contestant (LB decision); returns the objects that must
        migrate: the contestant row plus all its voters' history rows."""
        self.contestant_node[contestant] = node
        voters = self._voters_of[contestant]
        self.voters_at[node].extend(voters)
        history = self.history_oids
        return [self.contestant_oids[contestant], *[history[v] for v in voters]]


def migrate_objects(cluster: ZeusCluster, node_id: int, oids: Sequence[int],
                    threads: int = 10, latencies: Optional[list] = None,
                    progress: Optional[list] = None):
    """Move ``oids`` to ``node_id`` using ``threads`` mover worker threads.

    Each mover issues blocking ownership requests back-to-back — exactly
    the Figure 10/11 experiment.  Returns the spawned processes; completion
    can be detected via ``progress`` growing to ``len(oids)``.
    """
    handle = cluster.handles[node_id]
    chunks = [list(oids[i::threads]) for i in range(threads)]

    def mover(chunk: List[int]):
        for oid in chunk:
            outcome = yield from handle.ownership.acquire(oid)
            retry_backoff = 5.0
            while not outcome.granted:
                yield retry_backoff
                retry_backoff = min(retry_backoff * 2, 200.0)
                outcome = yield from handle.ownership.acquire(oid)
            if latencies is not None:
                latencies.append(outcome.latency_us)
            if progress is not None:
                progress.append(cluster.sim.now)

    return [handle.node.spawn(mover(chunk), name=f"mover{i}")
            for i, chunk in enumerate(chunks) if chunk]
