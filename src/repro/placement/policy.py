"""The placement decision function: telemetry snapshot in, actuations out.

:class:`PlacementPolicy` is deliberately *pure*: :meth:`~PlacementPolicy.
decide` reads nothing but its arguments, consumes no RNG, and mutates no
state, so a ``(snapshot, view, now)`` triple recorded in the controller's
decision log replays offline to the exact actuation list of the live run
(the differential harness asserts this).  All inputs are JSON-stable
values — replaying a snapshot that round-tripped through ``json.dumps``
gives the same answer as the live dict.

Three actuation families, mirroring the tentpole:

* ``migrate`` — move ownership to an object's dominant accessor, either
  because the access evidence says the owner is in the wrong place
  (``reason: "dominant"``) or proactively because the load balancer just
  re-pinned the key there (``reason: "repin"`` — the mobility pattern:
  the routing signal arrives before the traffic, so migrating inside the
  dwell gap makes the first post-handover access local).
* ``repin`` — point the LB at the dominant accessor for keys whose pin
  disagrees with where accesses actually land (routing-miss repair), and
  consolidate co-accessed key groups onto one serving node: connected
  components of the co-access graph (edges above ``_COACCESS_MIN``) are
  assigned wholesale to the node already carrying most of their traffic,
  the Lion community-placement move.  Components larger than
  ``_CONSOLIDATE_MAX`` are left alone — a component spanning most of the
  keyspace means the sharing is inherent and no placement fixes it.
* ``set_degree`` / ``add_reader`` / ``remove_reader`` — per-object
  replication-degree adaptation: widen read-hot shared objects so reads
  stay local everywhere and post-acquire trims stop churning readers;
  trim write-hot objects back down.  Degrees are clamped between the
  cluster's configured replication degree and the live node count, so the
  degree/durability audits hold by construction.

Hysteresis comes from the migration ledger: an object is never
re-migrated inside its cooldown window after a handover, objects the
ledger flags as ping-ponging are left alone entirely, and evidence
thresholds demand a projected payback before any move.  The
``pingpong_guard`` flag is the test hook the chaos suite uses to prove
the guard is load-bearing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["PlacementPolicy"]

#: Minimum decayed accesses before an object is judged at all.
_MIN_EVIDENCE = 6.0
#: Dominant node must hold this share of the object's accesses.
_DOMINANT_SHARE = 0.6
#: Dominant decayed count that projects a migration payback (the ledger
#: pays a handover back after ``payback_accesses`` hits at the new owner;
#: demanding at least this much recent traffic there makes that payback
#: the expected outcome, not a gamble).
_PAYBACK_MIN = 3.0
#: How fresh an LB re-pin must be to migrate proactively after it.
_REPIN_FOLLOW_US = 2_500.0
#: Cooldown for repin-following moves (an explicit routing signal outranks
#: access inference, so its window is shorter).
_REPIN_COOLDOWN_US = 1_200.0
#: Reads (writes) fraction above which an object counts as read-hot
#: (write-hot).
_READ_HOT_FRAC = 0.75
_WRITE_HOT_FRAC = 0.75
#: Minimum read+write evidence before adapting a degree.
_DEGREE_EVIDENCE = 8.0
#: Minimum decayed co-access edge weight to join two objects into one
#: placement community.
_COACCESS_MIN = 3.0
#: Largest community the policy will consolidate; bigger ones are
#: inherently shared.
_CONSOLIDATE_MAX = 24
#: Per-cycle cap on protocol-visible moves (rate limiting).
_MAX_MOVES = 16


class PlacementPolicy:
    """Pure, deterministic placement decisions over a telemetry snapshot.

    ``snapshot`` is :meth:`LocalityRecorder.placement_snapshot` output (a
    full ``report()`` document is accepted too — its ``placement``
    section is used).  ``view`` is the controller's cluster view::

        {"objects": {"<oid>": {"owner": 2, "replicas": [0, 2],
                               "pin": 2, "override": null}},
         "live": [0, 1, 2], "base_degree": 2}
    """

    #: Never re-migrate an object this soon after its last handover.
    cooldown_us = 5_000.0
    #: Test hook: ``False`` disables the ping-pong suppression *and* the
    #: re-migration cooldown, so tests can prove the guard is what keeps
    #: the controller from thrashing ownership.
    pingpong_guard = True

    # ------------------------------------------------------------- decide

    def decide(self, snapshot: Dict[str, Any], view: Dict[str, Any],
               now: float) -> List[Dict[str, Any]]:
        """The actuation list for one control cycle (possibly empty)."""
        if snapshot and "placement" in snapshot:
            snapshot = snapshot["placement"]
        if not snapshot or not view:
            return []
        live = sorted(int(n) for n in view.get("live", []))
        if len(live) < 2:
            return []
        live_set = set(live)
        objects_view = view.get("objects", {})
        base_degree = int(view.get("base_degree", 1))
        # Never trim below the configured replication degree (the
        # durability and degree audits assume it), never widen past the
        # live nodes.
        min_deg = base_degree
        max_deg = max(min_deg, len(live))

        recent = {rec[0]: float(rec[1])
                  for rec in snapshot.get("recent_handovers", [])}
        ping_pong = set(snapshot.get("ping_pong_oids", []))
        repins = {rec[0]: (int(rec[1]), float(rec[2]))
                  for rec in snapshot.get("repins", [])}

        per_by_oid: Dict[Any, Dict[int, float]] = {}
        for entry in snapshot.get("objects", []):
            per_by_oid[entry.get("oid")] = {
                int(n): float(c)
                for n, c in entry.get("per_node", {}).items()
                if int(n) in live_set}

        actuations: List[Dict[str, Any]] = []
        moves = 0
        handled = self._consolidate(snapshot, objects_view, live, per_by_oid,
                                    recent, ping_pong, now, actuations)
        moves += sum(1 for act in actuations if act["kind"] == "migrate")

        for entry in snapshot.get("objects", []):
            oid = entry.get("oid")
            vo = objects_view.get(str(oid))
            if vo is None:
                continue
            owner = vo.get("owner")
            replicas = sorted(int(n) for n in vo.get("replicas", []))
            pin = vo.get("pin")
            per = per_by_oid.get(oid, {})
            total = sum(per.values())

            guarded = self.pingpong_guard and oid in ping_pong
            last_move = recent.get(oid)
            in_cooldown = (self.pingpong_guard and last_move is not None
                           and now - last_move < self.cooldown_us)

            dominant: Optional[int] = None
            if per:
                # Heaviest accessor; ties break on the smaller node id.
                dominant = max(sorted(per), key=lambda n: per[n])

            migrated_to: Optional[int] = None
            repin_sig = repins.get(oid)
            if oid in handled:
                # Community consolidation above already placed this object;
                # per-object signals must not fight the community target.
                repin_sig = None
                dominant = None
            if (repin_sig is not None and owner is not None
                    and not guarded and moves < _MAX_MOVES):
                to, at = repin_sig
                fresh = now - at <= _REPIN_FOLLOW_US
                calm = (not self.pingpong_guard or last_move is None
                        or now - last_move >= _REPIN_COOLDOWN_US)
                if to in live_set and to != owner and fresh and calm:
                    actuations.append({"kind": "migrate", "oid": oid,
                                       "dst": to, "reason": "repin"})
                    migrated_to = to
                    moves += 1
            if (migrated_to is None and dominant is not None
                    and owner is not None and dominant != owner
                    and not guarded and not in_cooldown
                    and total >= _MIN_EVIDENCE
                    # Ownership placement only matters for writes (reads
                    # are served by replicas): never chase read traffic.
                    and float(entry.get("writes", 0.0)) >= 1.0
                    and per[dominant] >= _DOMINANT_SHARE * total
                    and per[dominant] >= _PAYBACK_MIN
                    and moves < _MAX_MOVES):
                actuations.append({"kind": "migrate", "oid": oid,
                                   "dst": dominant, "reason": "dominant"})
                migrated_to = dominant
                moves += 1
            target_pin = migrated_to if migrated_to is not None else dominant
            if (target_pin is not None and pin is not None
                    and int(pin) != target_pin and not guarded
                    and not in_cooldown
                    and total >= _MIN_EVIDENCE
                    and per.get(target_pin, 0.0)
                    >= _DOMINANT_SHARE * total):
                # Routing-miss repair: the LB keeps sending this key's
                # traffic somewhere its accesses do not land.
                actuations.append({"kind": "repin", "key": oid,
                                   "dst": target_pin})

            # ---- replication-degree adaptation (never moves ownership,
            # so the ping-pong guard does not apply)
            reads = float(entry.get("reads", 0.0))
            writes = float(entry.get("writes", 0.0))
            rw = reads + writes
            override = vo.get("override")
            cur_deg = base_degree if override is None else int(override)
            if rw >= _DEGREE_EVIDENCE:
                if reads >= _READ_HOT_FRAC * rw and cur_deg < max_deg:
                    actuations.append({"kind": "set_degree", "oid": oid,
                                       "degree": max_deg})
                    want = [n for n in sorted(per, key=lambda n: (-per[n], n))
                            if n not in replicas]
                    for dst in want[:max(0, max_deg - len(replicas))]:
                        if moves >= _MAX_MOVES:
                            break
                        actuations.append({"kind": "add_reader", "oid": oid,
                                           "dst": dst})
                        moves += 1
                elif writes >= _WRITE_HOT_FRAC * rw and cur_deg > min_deg:
                    actuations.append({"kind": "set_degree", "oid": oid,
                                       "degree": min_deg})
                    victims = [n for n in replicas
                               if n != owner and n != migrated_to]
                    # Least-recently-useful first: lightest accessor goes.
                    victims.sort(key=lambda n: (per.get(n, 0.0), n))
                    for victim in victims[:max(0, len(replicas) - min_deg)]:
                        if moves >= _MAX_MOVES:
                            break
                        actuations.append({"kind": "remove_reader",
                                           "oid": oid, "victim": victim})
                        moves += 1
        return actuations

    # ------------------------------------------------- community placement

    def _consolidate(self, snapshot: Dict[str, Any],
                     objects_view: Dict[str, Any], live: List[int],
                     per_by_oid: Dict[Any, Dict[int, float]],
                     recent: Dict[Any, float], ping_pong: set, now: float,
                     actuations: List[Dict[str, Any]]) -> set:
        """Consolidate co-accessed communities onto one node.

        Union-find over co-access edges above ``coaccess_min`` yields
        communities; each community of 2..``consolidate_max`` members is
        repinned *and* migrated wholesale to the node already carrying the
        most of its traffic (current pins break ties, so a consolidated
        community stays put).  Returns the member set so the per-object
        pass leaves those objects alone."""
        parent: Dict[Any, Any] = {}

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for edge in snapshot.get("coaccess", []):
            if float(edge.get("count", 0.0)) < _COACCESS_MIN:
                continue
            a, b = edge["pair"]
            if str(a) not in objects_view or str(b) not in objects_view:
                continue
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            parent[find(a)] = find(b)

        comps: Dict[Any, List[Any]] = {}
        for oid in parent:
            comps.setdefault(find(oid), []).append(oid)

        handled: set = set()
        moves = 0
        for members in sorted((sorted(c, key=str) for c in comps.values()),
                              key=lambda ms: str(ms[0])):
            if len(members) < 2 or len(members) > _CONSOLIDATE_MAX:
                continue
            weight = {n: 0.0 for n in live}
            pins = {n: 0 for n in live}
            for m in members:
                for n, c in per_by_oid.get(m, {}).items():
                    weight[n] += c
                pin = objects_view[str(m)].get("pin")
                if pin is not None and int(pin) in pins:
                    pins[int(pin)] += 1
            if sum(weight.values()) < _MIN_EVIDENCE:
                continue
            target = max(live, key=lambda n: (pins[n], round(weight[n], 6),
                                              -n))
            if weight[target] <= 0.0 and pins[target] == 0:
                continue
            for m in members:
                handled.add(m)
                vo = objects_view[str(m)]
                pin = vo.get("pin")
                if pin is not None and int(pin) != target:
                    actuations.append({"kind": "repin", "key": m,
                                       "dst": target,
                                       "reason": "community"})
                guarded = self.pingpong_guard and m in ping_pong
                last_move = recent.get(m)
                in_cooldown = (self.pingpong_guard and last_move is not None
                               and now - last_move < self.cooldown_us)
                owner = vo.get("owner")
                if (owner is not None and owner != target and not guarded
                        and not in_cooldown and moves < _MAX_MOVES):
                    actuations.append({"kind": "migrate", "oid": m,
                                       "dst": target,
                                       "reason": "community"})
                    moves += 1
        return handled
