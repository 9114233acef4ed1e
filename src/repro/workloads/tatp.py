"""TATP: read-intensive telecom workload (Section 8.3).

Standard TATP mix — 80% read transactions, 20% writes (Table 2).  Every
transaction touches the rows of a single subscriber, and a subscriber's
four rows (subscriber, access_info, special_facility, call_forwarding) are
colocated, which is why the benchmark is a locality showcase: "Zeus keeps
the requests local by moving objects, and it is especially effective for a
read-dominant benchmark like TATP, since there is little overhead on
reads."

The remote sweep mirrors Figure 9: with probability ``remote_frac`` a
*write* transaction targets a subscriber homed on another node (ownership
change under Zeus, remote distributed commit under the baselines).
"""

from __future__ import annotations

import random
from bisect import bisect
from typing import List, Optional

from ..store.catalog import Catalog
from .base import MixTable, TxnSpec

__all__ = ["TatpWorkload", "TATP_MIX"]

#: (tag, weight %, read_only)
TATP_MIX = [
    ("get_subscriber_data", 35, True),
    ("get_new_destination", 10, True),
    ("get_access_data", 35, True),
    ("update_subscriber_data", 2, False),
    ("update_location", 14, False),
    ("insert_call_forwarding", 2, False),
    ("delete_call_forwarding", 2, False),
]

_ROWS = ("subscriber", "access_info", "special_facility", "call_forwarding")
_ROW_SIZE = {"subscriber": 140, "access_info": 48,
             "special_facility": 40, "call_forwarding": 48}
_EXEC_US = 0.3


class TatpWorkload:
    """Generator state for one TATP deployment."""

    def __init__(self, num_nodes: int, subscribers_per_node: int = 20_000,
                 remote_frac: float = 0.0, seed: int = 11,
                 track_migration: bool = True):
        self.num_nodes = num_nodes
        self.subscribers = num_nodes * subscribers_per_node
        if self.subscribers < 1:
            raise ValueError("TATP needs at least one subscriber")
        self.remote_frac = remote_frac
        self.track_migration = track_migration

        self.catalog = Catalog(num_nodes, replication_degree=min(3, num_nodes))
        for row in _ROWS:
            self.catalog.add_table(row, _ROW_SIZE[row])
        self.home: List[int] = []
        self.oids: List[List[int]] = [[] for _ in _ROWS]
        for sub in range(self.subscribers):
            node = sub * num_nodes // self.subscribers
            self.home.append(node)
            for i, row in enumerate(_ROWS):
                self.oids[i].append(
                    self.catalog.create_object(row, sub, owner=node))

        #: Draws ``(tag, read_only)`` by the mix weights.
        self._mix = MixTable([(m[0], m[2]) for m in TATP_MIX],
                             [m[1] for m in TATP_MIX])
        #: ``getrandbits`` width of ``rng.randrange(self.subscribers)``.
        self._sub_bits = self.subscribers.bit_length()

    def _pick_subscriber(self, node: int, rng: random.Random,
                         local: bool, tries: int) -> int:
        """TATP draws subscribers uniformly; retry until home matches.

        ``spec_for`` makes the first of the 16 uniform tries itself and
        hands a miss to this fallback with the ``tries`` left."""
        for _ in range(tries):
            sub = rng.randrange(self.subscribers)
            if (self.home[sub] == node) == local:
                return sub
        # Deterministic fallback: walk from a random start (bounded — if no
        # subscriber qualifies, e.g. a node temporarily drained by the
        # sweep, fall back to any subscriber).
        sub = rng.randrange(self.subscribers)
        for _ in range(self.subscribers):
            if (self.home[sub] == node) == local:
                return sub
            sub = (sub + 1) % self.subscribers
        return sub

    def spec_for(self, node: int, thread: int,
                 rng: random.Random) -> Optional[TxnSpec]:
        # ``self._mix.pick(rng)`` and the first ``_pick_subscriber`` try
        # (``rng.randrange(n)``: CPython's ``getrandbits`` rejection loop)
        # spelled out — the same draws, no helper frame per spec.
        mix = self._mix
        tag, read_only = mix.population[bisect(
            mix.cum, rng.random() * mix.total, 0, mix.hi)]
        # The sweep models a *locality shift*: a fraction of subscribers is
        # now being served from a different node than the sharding put
        # them on.  Under Zeus the first write migrates the subscriber and
        # everything after is local, so only write transactions draw
        # remote subscribers.  Under static sharding (track_migration
        # False) the shifted subscribers' *reads* stay remote forever too.
        shifted = self.num_nodes > 1 and rng.random() < self.remote_frac
        local = not (shifted and (not read_only or not self.track_migration))
        n = self.subscribers
        getrandbits = rng.getrandbits
        k = self._sub_bits
        sub = getrandbits(k)
        while sub >= n:
            sub = getrandbits(k)
        if (self.home[sub] == node) != local:
            sub = self._pick_subscriber(node, rng, local, 15)
        sub_oids, ai_oids, sf_oids, cf_oids = self.oids

        if tag == "get_subscriber_data":
            spec = TxnSpec(read_set=(sub_oids[sub],), exec_us=_EXEC_US,
                           read_only=True, tag=tag)
        elif tag == "get_new_destination":
            spec = TxnSpec(read_set=(sf_oids[sub], cf_oids[sub]),
                           exec_us=_EXEC_US, read_only=True, tag=tag)
        elif tag == "get_access_data":
            spec = TxnSpec(read_set=(ai_oids[sub],), exec_us=_EXEC_US,
                           read_only=True, tag=tag)
        elif tag == "update_subscriber_data":
            spec = TxnSpec(write_set=(sub_oids[sub], sf_oids[sub]),
                           exec_us=_EXEC_US, tag=tag)
        elif tag == "update_location":
            spec = TxnSpec(write_set=(sub_oids[sub],), exec_us=_EXEC_US,
                           tag=tag)
        elif tag == "insert_call_forwarding":
            spec = TxnSpec(write_set=(cf_oids[sub],), read_set=(sf_oids[sub],),
                           exec_us=_EXEC_US, tag=tag)
        else:  # delete_call_forwarding
            spec = TxnSpec(write_set=(cf_oids[sub],), exec_us=_EXEC_US,
                           tag=tag)

        if self.track_migration and not read_only and self.home[sub] != node:
            self.home[sub] = node
        return spec
