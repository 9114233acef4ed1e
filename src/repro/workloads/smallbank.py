"""Smallbank: write-intensive financial transactions (Section 8.2).

Standard OLTP-bench mix — Balance (read-only) 15%, DepositChecking 15%,
TransactSavings 15%, WriteCheck 15%, Amalgamate 15%, SendPayment 25% — i.e.
85% write transactions, matching Table 2.  Accounts carry a checking and a
savings object, colocated.  The FaSST-style hotspot (a small hot fraction
of accounts receives most accesses) is configurable and on by default.

Locality model: the paper sweeps "the fraction of transactions that require
an ownership change".  Each write transaction picks its (first) account
local to the executing node; with probability ``remote_frac`` one involved
account is currently homed on another node — Zeus must migrate it (and the
generator re-homes it here, keeping the fraction stationary), the baseline
executes it remotely forever.
"""

from __future__ import annotations

import random
from bisect import bisect
from typing import List, Optional

from ..store.catalog import Catalog
from .base import MixTable, TxnSpec

__all__ = ["SmallbankWorkload", "SMALLBANK_MIX"]

#: (tag, weight, read_only)
SMALLBANK_MIX = [
    ("balance", 15, True),
    ("deposit_checking", 15, False),
    ("transact_savings", 15, False),
    ("write_check", 15, False),
    ("amalgamate", 15, False),
    ("send_payment", 25, False),
]

_ACCOUNT_SIZE = 120  # checking / savings row bytes
_EXEC_US = 0.4       # Smallbank transaction logic is trivial


class SmallbankWorkload:
    """Generator state for one Smallbank deployment."""

    def __init__(self, num_nodes: int, accounts_per_node: int = 20_000,
                 remote_frac: float = 0.0, hot_frac: float = 0.04,
                 hot_prob: float = 0.9, seed: int = 7,
                 track_migration: bool = True):
        self.num_nodes = num_nodes
        self.accounts = num_nodes * accounts_per_node
        self.remote_frac = remote_frac
        self.hot_frac = hot_frac
        self.hot_prob = hot_prob
        #: Zeus re-homes migrated accounts; baselines never do.
        self.track_migration = track_migration

        self.catalog = Catalog(num_nodes, replication_degree=min(3, num_nodes))
        self.catalog.add_table("checking", _ACCOUNT_SIZE)
        self.catalog.add_table("savings", _ACCOUNT_SIZE)
        rng = random.Random(seed)
        #: Account home node (initial sharding: contiguous ranges).
        self.home: List[int] = []
        self.checking: List[int] = []
        self.savings: List[int] = []
        for acct in range(self.accounts):
            node = acct * num_nodes // self.accounts
            self.home.append(node)
            self.checking.append(
                self.catalog.create_object("checking", acct, owner=node))
            self.savings.append(
                self.catalog.create_object("savings", acct, owner=node))
        #: Per-node account index, maintained as accounts migrate.
        self.by_node: List[List[int]] = [[] for _ in range(num_nodes)]
        for acct, node in enumerate(self.home):
            self.by_node[node].append(acct)
        #: Accounts per node's shard, and the hot ones among them.
        self._per_node = max(1, self.accounts // num_nodes)
        self._hot_per_node = max(1, int(self._per_node * hot_frac))
        #: ``getrandbits`` widths of the bounded draws (``rng.randrange(n)``
        #: is CPython's ``getrandbits(n.bit_length())`` rejection loop).
        self._per_node_bits = self._per_node.bit_length()
        self._hot_bits = self._hot_per_node.bit_length()
        self._other_bits = (num_nodes - 1).bit_length()

        #: Draws ``(tag, read_only)`` by the mix weights.
        self._mix = MixTable([(m[0], m[2]) for m in SMALLBANK_MIX],
                             [m[1] for m in SMALLBANK_MIX])

    # ------------------------------------------------------------ selection

    def _pick_account(self, node: int, rng: random.Random,
                      local: bool, tries: int) -> Optional[int]:
        """An account homed at ``node`` (local) or elsewhere (remote),
        honouring the per-node hotspot skew (FaSST's setup: each node's
        shard has its own hot set): up to ``tries`` of the 8 skewed draws
        (``spec_for`` makes a local first account's first try itself),
        then the node index."""
        per_node, home = self._per_node, self.home
        getrandbits = rng.getrandbits
        for _ in range(tries):
            if local or self.num_nodes == 1:
                target = node
            else:
                n, k = self.num_nodes - 1, self._other_bits
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                target = (node + 1 + r) % self.num_nodes
            if rng.random() < self.hot_prob:
                n, k = self._hot_per_node, self._hot_bits
            else:
                n, k = per_node, self._per_node_bits
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            acct = target * per_node + r
            if (home[acct] == node) == local:
                return acct
        # Skew made the draw miss; fall back to the node index (compacting
        # entries gone stale through migration as we touch them).
        if local:
            return self._pop_from(self.by_node[node], node, rng)
        other = (node + 1 + rng.randrange(self.num_nodes - 1)) % self.num_nodes
        return self._pop_from(self.by_node[other], other, rng)

    def _pop_from(self, pool: List[int], node: int,
                  rng: random.Random) -> Optional[int]:
        while pool:
            idx = rng.randrange(len(pool))
            acct = pool[idx]
            if self.home[acct] == node:
                return acct
            pool[idx] = pool[-1]
            pool.pop()
        return None

    def migrate(self, acct: int, node: int) -> None:
        """Re-home an account after Zeus moved its objects."""
        old = self.home[acct]
        if old == node:
            return
        self.home[acct] = node
        # by_node lists are refreshed lazily: stale entries are filtered at
        # pick time via the home check; periodic rebuilds keep them small.
        self.by_node[node].append(acct)

    # ------------------------------------------------------------ generator

    def spec_for(self, node: int, thread: int, rng: random.Random) -> Optional[TxnSpec]:
        # ``self._mix.pick(rng)`` and the first try of a local
        # ``_pick_account`` spelled out: the same draws, no helper frame.
        mix = self._mix
        tag, read_only = mix.population[bisect(
            mix.cum, rng.random() * mix.total, 0, mix.hi)]
        # Locality-shift semantics (see TatpWorkload.spec_for): under
        # static sharding shifted accounts' reads stay remote too.
        shifted = self.num_nodes > 1 and rng.random() < self.remote_frac
        remote = shifted and (not read_only or not self.track_migration)
        pair = tag in ("amalgamate", "send_payment")

        if remote and not pair:
            a = self._pick_account(node, rng, False, 8)
        else:
            if rng.random() < self.hot_prob:
                n, k = self._hot_per_node, self._hot_bits
            else:
                n, k = self._per_node, self._per_node_bits
            getrandbits = rng.getrandbits
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            a = node * self._per_node + r
            if self.home[a] != node:
                a = self._pick_account(node, rng, True, 7)
        if a is None:
            return None
        if pair:
            b = self._pick_account(node, rng, not remote, 8)
            if b is None or b == a:
                b = (a + 1) % self.accounts
            involved = (a, b)
        else:
            involved = (a,)

        chk, sav = self.checking, self.savings
        if tag == "balance":
            spec = TxnSpec(read_set=(chk[a], sav[a]), exec_us=_EXEC_US,
                           read_only=True, tag=tag)
        elif tag == "deposit_checking":
            spec = TxnSpec(write_set=(chk[a],), exec_us=_EXEC_US, tag=tag)
        elif tag == "transact_savings":
            spec = TxnSpec(write_set=(sav[a],), exec_us=_EXEC_US, tag=tag)
        elif tag == "write_check":
            spec = TxnSpec(write_set=(chk[a],), read_set=(sav[a],),
                           exec_us=_EXEC_US, tag=tag)
        elif tag == "amalgamate":
            b = involved[1]
            spec = TxnSpec(write_set=(chk[a], sav[a], chk[b]),
                           exec_us=_EXEC_US, tag=tag)
        else:  # send_payment
            b = involved[1]
            spec = TxnSpec(write_set=(chk[a], chk[b]), exec_us=_EXEC_US, tag=tag)

        if self.track_migration and not read_only:
            for acct in involved:
                if self.home[acct] != node:
                    self.migrate(acct, node)
        return spec

    # -------------------------------------------------------------- queries

    def remote_fraction_generated(self, samples: int = 50_000,
                                  seed: int = 3) -> float:
        """Empirical fraction of write txns touching a remote account
        (sanity check used by tests; uses a throwaway copy of state)."""
        rng = random.Random(seed)
        remote = 0
        writes = 0
        saved_home = list(self.home)
        saved_track = self.track_migration
        self.track_migration = False
        try:
            for _ in range(samples):
                node = rng.randrange(self.num_nodes)
                spec = self.spec_for(node, 0, rng)
                if spec is None or spec.read_only:
                    continue
                writes += 1
                accts = {self._account_of(oid) for oid in spec.write_set}
                if any(self.home[acct] != node for acct in accts):
                    remote += 1
        finally:
            self.home = saved_home
            self.track_migration = saved_track
        return remote / writes if writes else 0.0

    def _account_of(self, oid: int) -> int:
        # checking/savings oids interleave: account i -> oids (2i, 2i+1).
        return oid // 2
