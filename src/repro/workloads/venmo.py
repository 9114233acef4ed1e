"""Synthetic Venmo-like payment graph (Section 8 "Locality in workloads").

The paper analyses the public Venmo dataset (7M+ transactions) and finds
0.7% / 1.2% remote transactions when users are partitioned across 3 / 6
nodes.  The dataset itself is not redistributable, so we synthesize a graph
with the structural properties the studies report (Unger et al., Zhang et
al.): payments concentrate inside small friend clusters, the cluster
structure is stable over time, and local clustering is higher than in
Facebook/Twitter graphs.

Generator: users form friend clusters (relaxed caveman structure); each
payment picks a cluster-internal partner with probability
``1 - inter_cluster_frac`` and a random outsider otherwise.  Partitioning
whole clusters across nodes makes intra-cluster payments local, so the
remote-transaction fraction is ``inter_cluster_frac × (k-1)/k`` for ``k``
nodes — the default 1.35% reproduces the paper's measurements within a few
tenths of a percent.
"""

from __future__ import annotations

import random
from typing import List, Tuple

__all__ = ["VenmoGraph"]


class VenmoGraph:
    """A clustered payment graph with node partitioning."""

    def __init__(self, users: int = 30_000, cluster_size: int = 15,
                 inter_cluster_frac: float = 0.0135, seed: int = 23):
        self.users = users
        self.cluster_size = cluster_size
        self.inter_cluster_frac = inter_cluster_frac
        self.rng = random.Random(seed)
        #: cluster id per user
        self.cluster_of = [u // cluster_size for u in range(users)]

    def cluster_members(self, cluster: int) -> range:
        start = cluster * self.cluster_size
        return range(start, min(start + self.cluster_size, self.users))

    def payment(self, rng: random.Random = None) -> Tuple[int, int]:
        """Draw one payment (payer, payee)."""
        rng = rng or self.rng
        payer = rng.randrange(self.users)
        if rng.random() < self.inter_cluster_frac:
            payee = rng.randrange(self.users)
            while self.cluster_of[payee] == self.cluster_of[payer]:
                payee = rng.randrange(self.users)
        else:
            members = self.cluster_members(self.cluster_of[payer])
            if len(members) == 1:
                payee = (payer + 1) % self.users
            else:
                payee = payer
                while payee == payer:
                    payee = members[rng.randrange(len(members))]
        return payer, payee

    def partition(self, num_nodes: int) -> List[int]:
        """node per user: whole clusters assigned round-robin."""
        node_of = [0] * self.users
        for u in range(self.users):
            node_of[u] = self.cluster_of[u] % num_nodes
        return node_of

    def measure_remote_fraction(self, num_nodes: int,
                                payments: int = 200_000,
                                seed: int = 29) -> float:
        """Fraction of payments whose parties live on different nodes —
        the statistic the paper reports from the real dataset."""
        node_of = self.partition(num_nodes)
        rng = random.Random(seed)
        remote = 0
        for _ in range(payments):
            payer, payee = self.payment(rng)
            if node_of[payer] != node_of[payee]:
                remote += 1
        return remote / payments

    def clustering_ratio(self, samples: int = 20_000, seed: int = 31) -> float:
        """Fraction of payments staying inside the payer's cluster (a crude
        stand-in for the high local clustering the studies report)."""
        rng = random.Random(seed)
        inside = 0
        for _ in range(samples):
            payer, payee = self.payment(rng)
            if self.cluster_of[payer] == self.cluster_of[payee]:
                inside += 1
        return inside / samples
