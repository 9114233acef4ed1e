"""Live access-locality telemetry: who touches what, from where, and
whether ownership migration ever pays for itself.

Zeus's whole bet is that ownership follows access locality, yet nothing in
the simulator could *see* locality: no per-object access telemetry, no
measure of why a transaction went remote, no evidence that a given
ownership handover was worth its 1.5 round-trips.  A
:class:`LocalityRecorder` records exactly those signals:

* **Per-object access counts per node** — one :class:`SpaceSaving` sketch
  per node (top-K bounded, sliding half-life decay), so the recorder
  scales to millions of keys in constant space while still answering
  "which node accesses object X most, *lately*".
* **Co-access graph** — a top-K-bounded sketch over object-pair edges from
  each transaction's combined read/write set; a future placement
  controller clusters on these edges.
* **Remote/local classification with cause attribution** — every
  transaction that needed an ownership acquisition is remote; the recorder
  attributes *why* (see :meth:`LocalityRecorder.commit_txn`):

  ``shared``
      ≥2 nodes hold a substantial share of the object's decayed accesses;
      no single placement makes it local — remoteness is inherent.
  ``migrating``
      ownership is still converging on the access point: the object had a
      handover (or an LB re-pin toward this node) just before the
      transaction started, or this node already dominates the object's
      accesses and ownership simply lags behind.
  ``routing_miss``
      the object is accessed predominantly somewhere else and is not in
      motion — the load balancer sent this request to the wrong node.

* **Migration-effectiveness ledger** — every settled ownership handover
  opens a ledger entry; subsequent accesses are tallied at-new-owner vs
  elsewhere, the *payback time* is stamped when the new owner's accesses
  amortize the handover cost, and objects bouncing ≥k times within a
  window are flagged as ping-ponging.

An absent recorder is ``None`` (``Observability().locality``): call
sites guard with ``if loc is not None:``.  An attached recorder is
*outcome-identical*: it schedules no simulator events, consumes no model
RNG, and never touches protocol state, so recorded runs produce
byte-identical outcome digests.

Timestamps are passed explicitly (``now=``), which keeps the recorder
trivially usable on hand-built event streams in tests.
"""

from __future__ import annotations

import heapq

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SpaceSaving", "LocalityOp", "Handover", "LocalityRecorder",
           "CAUSE_SHARED", "CAUSE_MIGRATING", "CAUSE_ROUTING_MISS"]

CAUSE_SHARED = "shared"
CAUSE_MIGRATING = "migrating"
CAUSE_ROUTING_MISS = "routing_miss"

#: Report schema version (bumped whenever the JSON layout changes).
#: v2 added the ``placement`` section (the controller's decision input).
SCHEMA_VERSION = 2

#: Per-node / read / write sketch capacity, and every sketch's half-life.
_TOP_K = 256
_HALF_LIFE_US = 5_000.0
#: A remote txn on an object handed over (LB-re-pinned) this recently is
#: attributed to the migration (the routing change), not to sharing.
_MIGRATION_WINDOW_US = 2_000.0
_REPIN_WINDOW_US = 8_000.0
#: An object is *shared* when its second-busiest node holds this share of
#: at least ``_MIN_EVIDENCE`` decayed accesses.
_SHARE_THRESHOLD = 0.25
_MIN_EVIDENCE = 4.0
#: Accesses at the new owner that pay a handover back.
_PAYBACK_ACCESSES = 2
#: Handovers of one object inside the window that make it a ping-pong.
_PINGPONG_K = 3
_PINGPONG_WINDOW_US = 10_000.0


class SpaceSaving:
    """Space-Saving top-K heavy hitters with sliding half-life decay.

    The classic Metwally et al. sketch: at most ``capacity`` keys are
    tracked; inserting a new key at capacity evicts the minimum-count key
    and the newcomer inherits its count (recorded as ``error``), which
    over-estimates but never under-estimates a tracked key's frequency.
    Counts additionally halve every ``half_life_us`` of simulated time
    (applied lazily in whole steps, so arithmetic is deterministic), which
    turns lifetime totals into a *recent-access* estimate — exactly the
    signal a flash-crowd detector or placement controller wants.  Entries
    decayed below 0.5 are dropped.

    Eviction ties break on the smallest key, so the sketch's contents are
    a pure function of the (key, now) stream — same seed, same sketch.

    Victim selection uses a min-heap instead of an O(capacity) scan.  The
    heap holds exactly one ``(count, key)`` entry per tracked key, a lower
    bound on its live count (counts only grow between decay steps, which
    rebuild it), so a hit pushes nothing.  Eviction re-seats a stale top
    at its live count until the top is exact — then it is the minimum
    ``(count, key)``, the scan's victim — and replaces it with the
    newcomer: amortized O(log K) per eviction, heap size K.
    """

    __slots__ = ("capacity", "half_life_us", "counts", "errors",
                 "last_decay_at", "evictions", "_heap")

    def __init__(self, capacity: int = 256,
                 half_life_us: float = 5_000.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.half_life_us = half_life_us
        self.counts: Dict[Any, float] = {}
        self.errors: Dict[Any, float] = {}
        self.last_decay_at = 0.0
        self.evictions = 0
        #: (count, key) min-heap, one entry per key in ``counts``: a lower
        #: bound on its count (a hit leaves it stale; eviction re-seats it).
        self._heap: List[Tuple[float, Any]] = []

    def _rebuild_heap(self) -> None:
        self._heap = [(c, k) for k, c in self.counts.items()]
        heapq.heapify(self._heap)

    def decay_to(self, now: float) -> None:
        """Apply any whole half-life steps between the last decay and
        ``now`` (lazy; O(tracked) per step crossing, O(1) otherwise)."""
        hl = self.half_life_us
        if hl <= 0.0:
            return
        steps = int((now - self.last_decay_at) // hl)
        if steps <= 0:
            return
        self.last_decay_at += steps * hl
        factor = 0.5 ** steps
        dead = []
        counts = self.counts
        errors = self.errors
        for key, count in counts.items():
            count *= factor
            if count < 0.5:
                dead.append(key)
            else:
                counts[key] = count
                errors[key] *= factor
        for key in dead:
            del counts[key]
            del errors[key]
        self._rebuild_heap()

    def add(self, key: Any, now: float, n: float = 1.0) -> None:
        self.add_all((key,), now, n)

    def add_all(self, keys, now: float, n: float = 1.0) -> None:
        """Count ``n`` (>= 0) for each of ``keys`` at one instant: a single
        decay check serves the lot."""
        self.decay_to(now)
        counts = self.counts
        heap = self._heap
        for key in keys:
            cur = counts.get(key)
            if cur is not None:
                counts[key] = cur + n  # its heap entry stays a lower bound
                continue
            if len(counts) < self.capacity:
                counts[key] = n
                self.errors[key] = 0.0
                heapq.heappush(heap, (n, key))
                continue
            while True:
                floor, victim = heap[0]
                live = counts[victim]
                if live == floor:
                    break
                heapq.heapreplace(heap, (live, victim))  # re-seat, stale
            del counts[victim]
            del self.errors[victim]
            self.evictions += 1
            counts[key] = floor + n
            self.errors[key] = floor
            heapq.heapreplace(heap, (floor + n, key))

    def get(self, key: Any) -> float:
        return self.counts.get(key, 0.0)

    def total(self) -> float:
        return sum(self.counts.values())

    def top(self, n: int) -> List[Tuple[Any, float]]:
        """The ``n`` heaviest keys, heaviest first (key-ordered ties)."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def __len__(self) -> int:
        return len(self.counts)


class LocalityOp:
    """Per-transaction accumulation handed out by :meth:`begin` (the same
    shape as the history recorder's ``hop``): the transaction layer
    appends every granted ownership acquisition, and classification at
    commit uses the pre-transaction start time so the transaction's *own*
    handover never masquerades as pre-existing migration churn."""

    __slots__ = ("node", "thread", "started_at", "acquired")

    def __init__(self, node: int, thread: int, started_at: float) -> None:
        self.node = node
        self.thread = thread
        self.started_at = started_at
        #: ``(oid, level)`` per granted acquisition; level "owner"/"reader".
        self.acquired: List[Tuple[Any, str]] = []


class Handover:
    """One settled ownership handover and its effectiveness tally."""

    __slots__ = ("oid", "frm", "to", "at", "at_new_owner", "elsewhere",
                 "payback_at", "superseded_at")

    def __init__(self, oid: Any, frm: Optional[int], to: int,
                 at: float) -> None:
        self.oid = oid
        self.frm = frm
        self.to = to
        self.at = at
        #: Accesses at the new owner after the handover.
        self.at_new_owner = 0
        #: Accesses anywhere else after the handover.
        self.elsewhere = 0
        #: When ``at_new_owner`` reached the payback threshold.
        self.payback_at: Optional[float] = None
        #: When a later handover moved the object again (tally frozen).
        self.superseded_at: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "oid": self.oid,
            "from": self.frm,
            "to": self.to,
            "at_us": round(self.at, 3),
            "at_new_owner": self.at_new_owner,
            "elsewhere": self.elsewhere,
            "payback_us": (round(self.payback_at - self.at, 3)
                           if self.payback_at is not None else None),
            "superseded": self.superseded_at is not None,
        }


class LocalityRecorder:
    """Accumulates locality telemetry for one simulated run."""

    #: Width of a remote-fraction timeline bin.
    bin_us = 1_000.0
    #: Ledger bound: handovers past it are counted, not recorded.
    max_handovers = 4096

    def __init__(self, pair_top_k: int = 512) -> None:
        #: node id -> per-object access sketch.
        self._per_node: Dict[int, SpaceSaving] = {}
        #: co-access edges over (oid_lo, oid_hi) pairs.
        self._pairs = SpaceSaving(pair_top_k, _HALF_LIFE_US)
        #: cluster-wide per-object read / write sketches (the degree
        #: policy's read-hot vs write-hot signal).
        self._reads = SpaceSaving(_TOP_K, _HALF_LIFE_US)
        self._writes = SpaceSaving(_TOP_K, _HALF_LIFE_US)

        # ----- per-txn classification
        self.txns = 0
        self.committed = 0
        self.local_txns = 0
        self.remote_txns = 0
        self.cause_counts: Dict[str, int] = {
            CAUSE_SHARED: 0, CAUSE_MIGRATING: 0, CAUSE_ROUTING_MISS: 0}
        self.object_cause_counts: Dict[str, int] = {
            CAUSE_SHARED: 0, CAUSE_MIGRATING: 0, CAUSE_ROUTING_MISS: 0}
        #: bin index -> [local txns, remote txns].
        self._bins: Dict[int, List[int]] = {}

        # ----- routing signal (load balancer)
        self.route_hits = 0
        self.route_misses = 0
        self.route_repins = 0
        #: key -> (target node, repinned at); pruned to the repin window.
        self._repinned: Dict[Any, Tuple[int, float]] = {}

        # ----- migration ledger
        self.handovers = 0
        self.handover_overflow = 0
        self._handovers: List[Handover] = []
        #: oid -> the latest (open) handover record.
        self._open: Dict[Any, Handover] = {}
        #: oid -> recent handover times (pruned to the ping-pong window).
        self._handover_times: Dict[Any, List[float]] = {}
        #: oid -> max handovers ever seen inside one ping-pong window.
        self._ping_pong: Dict[Any, int] = {}
        #: oid -> (max seen o_ts version, recent version set) for handover
        #: dedup across directory hosts (space-bounded: versions are
        #: monotonic per object, so only a sliding tail is kept).
        self._seen_ver: Dict[Any, Tuple[int, set]] = {}

        #: Named experiment marks ((label, at, info)) for report overlays.
        self._marks: List[Tuple[str, float, Dict[str, Any]]] = []

    # ----------------------------------------------------------- txn facing

    def begin(self, node: int, thread: int, now: float) -> LocalityOp:
        return LocalityOp(node, thread, now)

    def acquired(self, op: LocalityOp, oid: Any, level: str) -> None:
        """A granted ownership acquisition inside this transaction."""
        op.acquired.append((oid, level))

    def commit_txn(self, op: LocalityOp, write_set, read_set,
                   committed: bool, now: float) -> None:
        """Record one finished logical transaction (commit *or* abort —
        access pressure is real either way; ``committed`` only feeds the
        commit counter).  Classification runs against the sketch state
        *before* this transaction's accesses are folded in."""
        node = op.node
        self.txns += 1
        if committed:
            self.committed += 1
        if op.acquired:
            self.remote_txns += 1
            cause = self._classify(op)
            self.cause_counts[cause] += 1
            remote = 1
        else:
            self.local_txns += 1
            remote = 0
        slot = self._bins.get(int(now // self.bin_us))
        if slot is None:
            slot = self._bins.setdefault(int(now // self.bin_us), [0, 0])
        slot[remote] += 1

        writes = list(dict.fromkeys(write_set)) if write_set else []
        reads = list(dict.fromkeys(read_set)) if read_set else []
        oids = (list(dict.fromkeys(writes + reads)) if writes and reads
                else writes or reads)
        sketch = self._per_node.get(node)
        if sketch is None:
            sketch = self._per_node[node] = SpaceSaving(_TOP_K,
                                                        _HALF_LIFE_US)
        if oids:
            sketch.add_all(oids, now)
        if writes:
            self._writes.add_all(writes, now)
        if reads:
            self._reads.add_all(reads, now)

        if len(oids) > 1:
            capped = oids[:8]  # bound the quadratic edge fan-out per txn
            self._pairs.add_all([(a, b) if a <= b else (b, a)
                                 for i, a in enumerate(capped, 1)
                                 for b in capped[i:]], now)

        open_recs = self._open
        if open_recs:
            for oid in oids:
                rec = open_recs.get(oid)
                if rec is None or rec.superseded_at is not None:
                    continue
                if node == rec.to:
                    rec.at_new_owner += 1
                    if (rec.payback_at is None
                            and rec.at_new_owner >= _PAYBACK_ACCESSES):
                        rec.payback_at = now
                else:
                    rec.elsewhere += 1

    # ------------------------------------------------------- classification

    def _classify(self, op: LocalityOp) -> str:
        """Transaction-level cause = strongest per-object cause across the
        acquired set (shared > migrating > routing_miss): a genuinely
        shared object explains remoteness no placement could fix, and
        in-flight migration explains transient remoteness; only when
        neither applies was the request simply routed to the wrong node."""
        best = CAUSE_ROUTING_MISS
        for oid, _level in op.acquired:
            cause = self._classify_oid(oid, op.node, op.started_at)
            self.object_cause_counts[cause] += 1
            if cause == CAUSE_SHARED:
                best = CAUSE_SHARED
            elif cause == CAUSE_MIGRATING and best != CAUSE_SHARED:
                best = CAUSE_MIGRATING
        return best

    def _classify_oid(self, oid: Any, node: int, started_at: float) -> str:
        counts: List[Tuple[float, int]] = []
        for nid in self._per_node:
            sketch = self._per_node[nid]
            sketch.decay_to(started_at)
            c = sketch.counts.get(oid)
            if c:
                counts.append((c, nid))
        total = sum(c for c, _nid in counts)
        if total >= _MIN_EVIDENCE and len(counts) >= 2:
            counts.sort()
            if counts[-2][0] >= _SHARE_THRESHOLD * total:
                return CAUSE_SHARED
        # Ownership in motion? A handover strictly *before* this txn began
        # (its own acquisition settles after started_at and must not count)
        # or a fresh LB re-pin toward this node both mean the access point
        # moved and the protocol is still converging.
        times = self._handover_times.get(oid)
        if times:
            lo = started_at - _MIGRATION_WINDOW_US
            for t in times:
                if lo <= t < started_at:
                    return CAUSE_MIGRATING
        repin = self._repinned.get(oid)
        if (repin is not None and repin[0] == node
                and started_at - repin[1] <= _REPIN_WINDOW_US):
            return CAUSE_MIGRATING
        if counts and max(counts)[1] == node:
            # We already dominate the object's accesses; ownership lags.
            return CAUSE_MIGRATING
        return CAUSE_ROUTING_MISS

    # --------------------------------------------------- protocol listeners

    def on_handover(self, oid: Any, frm: Optional[int], to: int,
                    version: int, now: float) -> None:
        """A settled ACQUIRE_OWNER arbitration moved ``oid``: ``frm`` →
        ``to`` at directory timestamp ``version``.  Every directory host
        reports the same settled arbitration; ``version`` (the ``o_ts``
        object version, strictly increasing per object) dedups them in
        bounded space."""
        if frm == to:
            return
        seen = self._seen_ver.get(oid)
        if seen is None:
            self._seen_ver[oid] = (version, {version})
        else:
            max_ver, vers = seen
            if version in vers or version <= max_ver - 64:
                return  # duplicate (or ancient straggler past the window)
            vers.add(version)
            if len(vers) > 128:
                floor = max(max_ver, version) - 64
                vers = {v for v in vers if v > floor}
            self._seen_ver[oid] = (max(max_ver, version), vers)

        self.handovers += 1
        times = self._handover_times.setdefault(oid, [])
        times.append(now)
        cutoff = now - _PINGPONG_WINDOW_US
        while times and times[0] < cutoff:
            times.pop(0)
        if len(times) >= _PINGPONG_K:
            prev = self._ping_pong.get(oid, 0)
            if len(times) > prev:
                self._ping_pong[oid] = len(times)

        prev_rec = self._open.get(oid)
        if prev_rec is not None and prev_rec.superseded_at is None:
            prev_rec.superseded_at = now
        if len(self._handovers) < self.max_handovers:
            rec = Handover(oid, frm, to, now)
            self._handovers.append(rec)
            self._open[oid] = rec
        else:
            self.handover_overflow += 1
            self._open.pop(oid, None)

    def on_route(self, key: Any, dest: int, hit: bool, now: float) -> None:
        """One load-balancer routing decision (hit = key already pinned)."""
        if hit:
            self.route_hits += 1
        else:
            self.route_misses += 1

    def on_repin(self, key: Any, node: int, now: float) -> None:
        """The LB explicitly re-pinned ``key`` to ``node`` (locality shift
        or scale-out load spread) — accesses arriving there shortly after
        are migration lag, not routing misses."""
        self.route_repins += 1
        self._repinned[key] = (node, now)
        if len(self._repinned) > 4 * _TOP_K:
            cutoff = now - _REPIN_WINDOW_US
            self._repinned = {k: v for k, v in self._repinned.items()
                              if v[1] >= cutoff}

    def mark(self, label: str, now: float, **info) -> None:
        """Drop a named experiment mark (scale-out, convergence, ...)."""
        self._marks.append((label, now, dict(sorted(info.items()))))

    def marks(self, label: Optional[str] = None) -> List[Tuple[str, float,
                                                               Dict[str, Any]]]:
        """Recorded experiment marks, optionally filtered by label."""
        if label is None:
            return list(self._marks)
        return [m for m in self._marks if m[0] == label]

    # ------------------------------------------------------------- queries

    def remote_fraction_timeline(self) -> List[Tuple[float, int, int]]:
        """(bin start us, local txns, remote txns) per time bin."""
        return [(idx * self.bin_us, counts[0], counts[1])
                for idx, counts in sorted(self._bins.items())]

    def remote_fraction(self, start_us: float = 0.0,
                        end_us: float = float("inf")) -> Optional[float]:
        """Remote-txn fraction over ``[start_us, end_us)`` (None if no
        transactions landed in the window)."""
        local = remote = 0
        for idx, counts in self._bins.items():
            t = idx * self.bin_us
            if start_us <= t < end_us:
                local += counts[0]
                remote += counts[1]
        total = local + remote
        return (remote / total) if total else None

    def hot_keys(self, n: int = 12) -> List[Dict[str, Any]]:
        """Top-``n`` objects by decayed cluster-wide access count, with the
        per-node split (the flash-crowd / hot-key table)."""
        merged: Dict[Any, Dict[int, float]] = {}
        for nid in sorted(self._per_node):
            for oid, count in self._per_node[nid].counts.items():
                merged.setdefault(oid, {})[nid] = count
        totals = sorted(((sum(per.values()), oid)
                         for oid, per in merged.items()),
                        key=lambda tv: (-tv[0], str(tv[1])))
        grand = sum(t for t, _oid in totals)
        out = []
        for total, oid in totals[:n]:
            per = merged[oid]
            out.append({
                "oid": oid,
                "total": round(total, 4),
                "share": round(total / grand, 6) if grand else 0.0,
                "per_node": {str(nid): round(c, 4)
                             for nid, c in sorted(per.items())},
            })
        return out

    def skew(self) -> Dict[str, Any]:
        """Decayed access-skew estimate across tracked objects."""
        totals: Dict[Any, float] = {}
        for sketch in self._per_node.values():
            for oid, count in sketch.counts.items():
                totals[oid] = totals.get(oid, 0.0) + count
        grand = sum(totals.values())
        ranked = sorted(totals.values(), reverse=True)
        return {
            "distinct_tracked": len(totals),
            "top1_share": round(ranked[0] / grand, 6) if grand else 0.0,
            "top10_share": (round(sum(ranked[:10]) / grand, 6)
                            if grand else 0.0),
        }

    def heatmap(self, groups: int = 8) -> Dict[str, Any]:
        """Per-node × object-group decayed access counts.

        Objects are bucketed by ``oid // group_size`` with ``group_size``
        derived from the largest tracked integer oid; non-integer oids all
        land in one trailing group."""
        max_oid = -1
        for sketch in self._per_node.values():
            for oid in sketch.counts:
                if isinstance(oid, int) and oid > max_oid:
                    max_oid = oid
        group_size = max(1, -(-(max_oid + 1) // groups)) if max_oid >= 0 else 1
        nodes = sorted(self._per_node)
        n_groups = (min(groups, -(-(max_oid + 1) // group_size))
                    if max_oid >= 0 else 0)
        rows: List[List[float]] = []
        other: List[float] = []
        for nid in nodes:
            row = [0.0] * n_groups
            misc = 0.0
            for oid, count in self._per_node[nid].counts.items():
                if isinstance(oid, int) and 0 <= oid <= max_oid:
                    row[min(oid // group_size, n_groups - 1)] += count
                else:
                    misc += count
            rows.append([round(c, 4) for c in row])
            other.append(round(misc, 4))
        doc = {
            "group_size": group_size,
            "nodes": nodes,
            "groups": [f"{g * group_size}-{(g + 1) * group_size - 1}"
                       for g in range(n_groups)],
            "counts": rows,
        }
        if any(other):
            doc["other"] = other
        return doc

    def coaccess_edges(self, n: int = 24) -> List[Dict[str, Any]]:
        return [{"pair": list(pair), "count": round(count, 4)}
                for pair, count in self._pairs.top(n)]

    def ping_pongs(self) -> List[Dict[str, Any]]:
        """Objects whose ownership bounced ≥k times within the window."""
        return [{"oid": oid, "handovers_in_window": peak}
                for oid, peak in sorted(self._ping_pong.items(),
                                        key=lambda kv: (-kv[1], str(kv[0])))]

    def migration_table(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        recs = self._handovers if n is None else self._handovers[:n]
        return [rec.as_dict() for rec in recs]

    def migration_summary(self) -> Dict[str, Any]:
        paid = [rec for rec in self._handovers if rec.payback_at is not None]
        paybacks = [rec.payback_at - rec.at for rec in paid]
        return {
            "handovers": self.handovers,
            "recorded": len(self._handovers),
            "overflow": self.handover_overflow,
            "paid_back": len(paid),
            "mean_payback_us": (round(sum(paybacks) / len(paybacks), 3)
                                if paybacks else None),
            "max_payback_us": (round(max(paybacks), 3) if paybacks else None),
            "ping_pong_objects": len(self._ping_pong),
        }

    def placement_snapshot(self, top: int = 64) -> Dict[str, Any]:
        """The placement controller's decision input: per-object access
        splits with read/write totals, fresh LB re-pins, recent handover
        times, and the ping-pong set.

        JSON round-trip stable — only lists, strings, and rounded numbers
        (node ids appear as string keys), so serializing a snapshot and
        reloading it yields an equal value and a recorded snapshot replays
        through :class:`~repro.placement.PlacementPolicy` offline with the
        exact actuation list of the live run."""
        merged: Dict[Any, Dict[int, float]] = {}
        for nid in sorted(self._per_node):
            for oid, count in self._per_node[nid].counts.items():
                merged.setdefault(oid, {})[nid] = count
        ranked = sorted(merged.items(),
                        key=lambda kv: (-sum(kv[1].values()), str(kv[0])))
        objects = []
        for oid, per in ranked[:top]:
            objects.append({
                "oid": oid,
                "total": round(sum(per.values()), 3),
                "per_node": {str(nid): round(c, 3)
                             for nid, c in sorted(per.items())},
                "reads": round(self._reads.get(oid), 3),
                "writes": round(self._writes.get(oid), 3),
            })
        repins = [[key, node, round(at, 3)]
                  for key, (node, at) in sorted(self._repinned.items(),
                                                key=lambda kv: str(kv[0]))]
        recent = [[oid, round(times[-1], 3)]
                  for oid, times in sorted(self._handover_times.items(),
                                           key=lambda kv: str(kv[0]))
                  if times]
        return {
            "objects": objects,
            "repins": repins,
            "recent_handovers": recent,
            "ping_pong_oids": sorted(self._ping_pong, key=str),
            # Wide enough for community detection: a truncated edge list
            # fragments co-access components and consolidation stalls.
            "coaccess": self.coaccess_edges(256),
        }

    def report(self, groups: int = 8, top: int = 12,
               table_limit: int = 64) -> Dict[str, Any]:
        """The full JSON-able telemetry document (deterministically
        ordered; byte-identical per seed once serialized with sorted
        keys) — the interface a future placement controller consumes."""
        remote_total = self.remote_txns
        return {
            "schema_version": SCHEMA_VERSION,
            "params": {
                "top_k": _TOP_K,
                "half_life_us": _HALF_LIFE_US,
                "migration_window_us": _MIGRATION_WINDOW_US,
                "share_threshold": _SHARE_THRESHOLD,
                "payback_accesses": _PAYBACK_ACCESSES,
                "pingpong_k": _PINGPONG_K,
                "pingpong_window_us": _PINGPONG_WINDOW_US,
                "bin_us": self.bin_us,
            },
            "totals": {
                "txns": self.txns,
                "committed": self.committed,
                "local": self.local_txns,
                "remote": remote_total,
                "remote_fraction": (round(remote_total / self.txns, 6)
                                    if self.txns else 0.0),
                "causes": dict(sorted(self.cause_counts.items())),
                "object_causes": dict(sorted(
                    self.object_cause_counts.items())),
                "routes": {"hits": self.route_hits,
                           "misses": self.route_misses,
                           "repins": self.route_repins},
            },
            "timeline": [[round(t, 3), local, remote]
                         for t, local, remote
                         in self.remote_fraction_timeline()],
            "heatmap": self.heatmap(groups),
            "hot_keys": self.hot_keys(top),
            "skew": self.skew(),
            "coaccess": self.coaccess_edges(2 * top),
            "migrations": {
                **self.migration_summary(),
                "ping_pongs": self.ping_pongs(),
                "table": self.migration_table(table_limit),
            },
            "marks": [[label, round(at, 3), info]
                      for label, at, info in self._marks],
            "placement": self.placement_snapshot(),
        }
