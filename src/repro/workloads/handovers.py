"""The cellular-handovers benchmark (Sections 2.2 and 8.1).

Five tables per Table 2: UE (phone) context, session, bearer — which follow
the user — and eNB (base-station) context plus a per-node gateway context.
A service request / release writes the user's three objects plus the
current base station's context (~400 B of committed data, per Section 8.1).
A handover is **two** transactions:

* *start*, executed at the serving (old) node: writes the UE context and
  the old base-station context;
* *end*, executed at the target (new) node: writes the UE context, session,
  bearer and the new base-station context.

A *remote* handover crosses a shard boundary (fraction from the
:class:`~repro.workloads.mobility.MobilityModel`); it is what forces
ownership transfers: the target node acquires the user's objects — "one
object that stays the same (the phone context)" follows the user, while
each base-station context is only ever written by transactions on its own
node and never migrates (Section 2.2).  Stationary users — the vast
majority — never leave their node, so their transactions are always fully
local once warmed up.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, List, Optional

from ..store.catalog import Catalog
from .base import TxnSpec
from .mobility import MobilityModel

__all__ = ["HandoverWorkload"]

_SIZES = {"ue_ctx": 150, "session": 120, "bearer": 60,
          "enb_ctx": 150, "gateway": 200}
_EXEC_US = 1.2  # 3GPP message parsing + context updates dominate


class HandoverWorkload:
    """Generator state for the handover benchmark."""

    def __init__(self, num_nodes: int, users_per_node: int = 5_000,
                 stations_per_node: int = 40,
                 handover_frac: float = 0.025,
                 mobile_frac: float = 0.2,
                 remote_handover_frac: Optional[float] = None,
                 seed: int = 13):
        self.num_nodes = num_nodes
        self.users = num_nodes * users_per_node
        self.stations = num_nodes * stations_per_node
        self.handover_frac = handover_frac
        self.mobile_frac = mobile_frac
        self.mobility = MobilityModel(num_nodes)
        self.remote_handover_frac = (
            remote_handover_frac if remote_handover_frac is not None
            else self.mobility.analytic_remote_fraction())

        self.catalog = Catalog(num_nodes, replication_degree=min(3, num_nodes))
        for table, size in _SIZES.items():
            self.catalog.add_table(table, size)

        rng = random.Random(seed)
        #: Station -> node (geographic stripes).
        self.station_node = [s * num_nodes // self.stations
                             for s in range(self.stations)]
        self.enb_oids = [self.catalog.create_object("enb_ctx", s,
                                                    owner=self.station_node[s])
                         for s in range(self.stations)]
        # A gateway object per node.  No transaction touches one yet, but
        # creating them here keeps every later object id where it was.
        for n in range(num_nodes):
            self.catalog.create_object("gateway", n, owner=n)

        self.user_station: List[int] = []
        self.user_mobile: List[bool] = []
        self.ue_oids: List[int] = []
        self.session_oids: List[int] = []
        self.bearer_oids: List[int] = []
        #: Users currently attached per node (maintained across handovers).
        self.users_at: List[List[int]] = [[] for _ in range(num_nodes)]
        for u in range(self.users):
            station = rng.randrange(self.stations)
            node = self.station_node[station]
            self.user_station.append(station)
            self.user_mobile.append(rng.random() < mobile_frac)
            self.ue_oids.append(self.catalog.create_object("ue_ctx", u, owner=node))
            self.session_oids.append(self.catalog.create_object("session", u, owner=node))
            self.bearer_oids.append(self.catalog.create_object("bearer", u, owner=node))
            self.users_at[node].append(u)
        #: Handover-end transactions waiting to run at their target node.
        self.pending_end: List[Deque[TxnSpec]] = [deque() for _ in range(num_nodes)]
        self.handovers_started = 0
        self.remote_handovers = 0

    # ------------------------------------------------------------- helpers

    def node_of_user(self, user: int) -> int:
        return self.station_node[self.user_station[user]]

    def _pick_user(self, node: int, rng: random.Random,
                   mobile: Optional[bool] = None) -> Optional[int]:
        pool = self.users_at[node]
        while pool:
            idx = rng.randrange(len(pool))
            user = pool[idx]
            if self.node_of_user(user) != node:
                pool[idx] = pool[-1]
                pool.pop()
                continue
            if mobile is None or self.user_mobile[user] == mobile:
                return user
            if rng.random() < 0.1:
                return None  # avoid spinning when the node lacks such users
        return None

    def _pick_station(self, node: int, rng: random.Random,
                      exclude: int, remote: bool) -> int:
        if remote and self.num_nodes > 1:
            other = (node + 1 + rng.randrange(self.num_nodes - 1)) % self.num_nodes
            base = other
        else:
            base = node
        per_node = self.stations // self.num_nodes
        for _ in range(8):
            s = base * per_node + rng.randrange(per_node)
            if s != exclude:
                return s
        return (exclude + 1) % self.stations

    # ------------------------------------------------------------ generator

    def spec_for(self, node: int, thread: int,
                 rng: random.Random) -> Optional[TxnSpec]:
        # Handover-end transactions take priority: the user is mid-handover.
        queue = self.pending_end[node]
        if queue:
            return queue.popleft()

        if rng.random() < self.handover_frac:
            # handover_frac counts handovers among *requests* (a handover
            # is one request that expands into two transactions).
            spec = self._handover_start(node, rng)
            if spec is not None:
                return spec
        return self._service_or_release(node, rng)

    def _service_or_release(self, node: int,
                            rng: random.Random) -> Optional[TxnSpec]:
        user = self._pick_user(node, rng)
        if user is None:
            return None
        station = self.user_station[user]
        tag = "service_request" if rng.random() < 0.5 else "release"
        return TxnSpec(
            write_set=(self.ue_oids[user], self.session_oids[user],
                       self.bearer_oids[user], self.enb_oids[station]),
            exec_us=_EXEC_US, tag=tag)

    def _handover_start(self, node: int,
                        rng: random.Random) -> Optional[TxnSpec]:
        user = self._pick_user(node, rng, mobile=True)
        if user is None:
            return None
        old_station = self.user_station[user]
        remote = rng.random() < self.remote_handover_frac
        new_station = self._pick_station(node, rng, exclude=old_station,
                                         remote=remote)
        new_node = self.station_node[new_station]
        self.handovers_started += 1
        if new_node != node:
            self.remote_handovers += 1
        # Commit the move in workload state; the end transaction at the
        # target node is what drags the user's objects over (under Zeus).
        self.user_station[user] = new_station
        if new_node != node:
            self.users_at[new_node].append(user)
        # Only the user's objects follow the user (Section 2.2: "one object
        # that stays the same (the phone context) and two other objects
        # that continuously change" — each base-station context is written
        # by the transaction executing *on its own node*, so eNB contexts
        # never migrate and only the UE context + its session/bearer move).
        end_spec = TxnSpec(
            write_set=(self.ue_oids[user], self.session_oids[user],
                       self.bearer_oids[user], self.enb_oids[new_station]),
            exec_us=_EXEC_US, tag="handover_end")
        self.pending_end[new_node].append(end_spec)
        return TxnSpec(
            write_set=(self.ue_oids[user], self.enb_oids[old_station]),
            exec_us=_EXEC_US, tag="handover_start")
