"""Strict-serializability checking of recorded transaction histories.

Input: the :class:`~repro.obs.history.HistoryOp` records captured by a
:class:`~repro.obs.history.HistoryRecorder` (invocation/response windows
in simulated time, read sets with observed versions, write sets with
installed versions, outcomes).  Output: a verdict plus, on failure, the
offending dependency cycle — the same evidence structure Elle produces
for Jepsen histories.

The checker builds a transaction dependency graph over **committed**
operations:

* ``ww`` — version order: consecutive committed installs of an object.
* ``wr`` — read-from: the committed writer of the version a reader
  observed.
* ``rw`` — anti-dependency: a reader precedes the committed writer that
  overwrote the version it read.
* ``rt`` — real time: A became visible before B was invoked
  (strictness; reduced transitively so the graph stays sparse).

Real-time anchor: Zeus acks a write at *local commit* while the R-INVs
invalidating remote replicas are still in flight (§5.2's early commit
ack), so a write's effects become externally visible only at its
durability point — :attr:`HistoryOp.durable_at` when recorded, the
response instant otherwise (reads, unreplicated writes).  Anchoring
``rt`` edges there keeps the checker exact for the guarantee Zeus makes:
a read invoked after a write is *replicated* must observe it, while a
read racing the invalidation round may legally serialize before it.

A cycle means no serial order consistent with both the data
dependencies and real time exists — a strict-serializability violation.
The cycle's edge kinds classify it: any ``rt``-only link makes it a
``"realtime"`` (stale read) violation, otherwise it is plain
``"serializability"`` (e.g. a non-repeatable read).  Two *committed*
installs of the same ``(object, version)`` are reported directly as a
``"lost-update"`` violation — the canonical symptom of a broken version
bump — without needing a cycle.

Crash semantics: ops downgraded to *indeterminate* (coordinator crashed
before replication was acknowledged) are **maybe-committed**.  Their
writes stay in the version chains so readers that did observe them get
read-from resolution, but they contribute no graph nodes, no real-time
obligations, and duplicate versions involving them are a legal crash
fork, not a lost update.  Anti-dependencies skip over indeterminate
installs to the next *committed* one, which is sound either way: if the
indeterminate write committed, the next committed install still follows
it; if it did not, that install is the direct overwrite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.history import (  # noqa: F401  (re-exported public surface)
    ABORTED,
    COMMITTED,
    INDETERMINATE,
    HistoryOp,
    HistoryRecorder,
)

__all__ = ["check_history", "HistoryCheckResult", "Violation",
           "HistoryOp", "HistoryRecorder",
           "COMMITTED", "ABORTED", "INDETERMINATE"]

#: Edge-kind priority: when several dependencies link the same pair of
#: ops, keep the data dependency — a cycle is only classified "realtime"
#: when a real-time edge is essential to it.
_KIND_RANK = {"ww": 0, "wr": 1, "rw": 2, "rt": 3}


class Violation:
    """One strict-serializability violation with its evidence."""

    __slots__ = ("category", "message", "cycle", "edges")

    def __init__(self, category: str, message: str,
                 cycle: Tuple[int, ...] = (),
                 edges: Tuple[Tuple[int, int, str], ...] = ()):
        self.category = category      # "lost-update"|"serializability"|"realtime"
        self.message = message
        self.cycle = cycle            # op ids, in cycle order
        self.edges = edges            # (src_op, dst_op, kind)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Violation({self.category}: {self.message})"

    def describe(self) -> str:
        lines = [f"[{self.category}] {self.message}"]
        for src, dst, kind in self.edges:
            lines.append(f"    op#{src} --{kind}--> op#{dst}")
        return "\n".join(lines)


class HistoryCheckResult:
    """Verdict over one recorded history."""

    __slots__ = ("ops_checked", "committed", "aborted", "indeterminate",
                 "violations")

    def __init__(self, ops_checked: int, committed: int, aborted: int,
                 indeterminate: int, violations: Tuple[Violation, ...]):
        self.ops_checked = ops_checked
        self.committed = committed
        self.aborted = aborted
        self.indeterminate = indeterminate
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def digest(self) -> str:
        """Deterministic one-line fingerprint (for regression tests)."""
        vio = ";".join(f"{v.category}:{','.join(map(str, v.cycle))}"
                       for v in self.violations)
        return (f"ops={self.ops_checked} c={self.committed} "
                f"a={self.aborted} i={self.indeterminate} vio=[{vio}]")

    def describe(self) -> str:
        head = (f"history: {self.ops_checked} ops "
                f"({self.committed} committed, {self.aborted} aborted, "
                f"{self.indeterminate} indeterminate) -> "
                f"{'OK' if self.ok else 'VIOLATION'}")
        return "\n".join([head] + [v.describe() for v in self.violations])

    def __repr__(self) -> str:  # pragma: no cover
        return f"HistoryCheckResult(ok={self.ok}, ops={self.ops_checked})"


class _Inst:
    """One installed version of one object."""

    __slots__ = ("op_id", "version", "at", "committed")

    def __init__(self, op_id: int, version: int, at: float, committed: bool):
        self.op_id = op_id
        self.version = version
        self.at = at
        self.committed = committed


def check_history(history) -> HistoryCheckResult:
    """Check a history (recorder or op sequence) for strict serializability."""
    ops: Sequence[HistoryOp] = getattr(history, "ops", history)
    by_id: Dict[int, HistoryOp] = {op.op_id: op for op in ops}
    committed = [op for op in ops if op.outcome == COMMITTED]
    aborted = [op for op in ops if op.outcome == ABORTED]
    # Never-responded ops (run cut off mid-flight) are maybe-committed too.
    indeterminate = [op for op in ops
                     if op.outcome not in (COMMITTED, ABORTED)]

    chains = _build_chains(committed, indeterminate)
    violations: List[Violation] = list(_lost_updates(chains, by_id))

    adj = _build_graph(committed, chains)
    violations.extend(_find_cycles(adj, by_id))

    return HistoryCheckResult(len(ops), len(committed), len(aborted),
                              len(indeterminate), tuple(violations))


# ---------------------------------------------------------------------------
# version chains
# ---------------------------------------------------------------------------

def _build_chains(committed, indeterminate) -> Dict[object, List[_Inst]]:
    chains: Dict[object, List[_Inst]] = {}
    for op, is_committed in ([(o, True) for o in committed]
                             + [(o, False) for o in indeterminate]):
        for oid, version, at in op.writes:
            chains.setdefault(oid, []).append(
                _Inst(op.op_id, version, at, is_committed))
    for chain in chains.values():
        chain.sort(key=lambda i: (i.version, i.at, i.op_id))
    return chains


def _lost_updates(chains, by_id) -> Iterable[Violation]:
    for oid in sorted(chains, key=repr):
        seen: Dict[int, int] = {}  # version -> first committed op_id
        for inst in chains[oid]:
            if not inst.committed:
                continue  # a crash fork is legal, not a lost update
            prev = seen.get(inst.version)
            if prev is None:
                seen[inst.version] = inst.op_id
            elif prev != inst.op_id:
                yield Violation(
                    "lost-update",
                    f"object {oid!r} version {inst.version} installed by "
                    f"both op#{prev} and op#{inst.op_id} — "
                    "one committed update overwrote the other",
                    cycle=(prev, inst.op_id))


# ---------------------------------------------------------------------------
# dependency graph
# ---------------------------------------------------------------------------

def _add_edge(adj, src: int, dst: int, kind: str) -> None:
    if src == dst:
        return
    row = adj.setdefault(src, {})
    old = row.get(dst)
    if old is None or _KIND_RANK[kind] < _KIND_RANK[old]:
        row[dst] = kind


def _build_graph(committed: List[HistoryOp], chains) -> Dict[int, Dict[int, str]]:
    adj: Dict[int, Dict[int, str]] = {op.op_id: {} for op in committed}

    # ww: consecutive *committed* installs per object.
    for chain in chains.values():
        prev: Optional[_Inst] = None
        for inst in chain:
            if not inst.committed:
                continue
            if prev is not None:
                _add_edge(adj, prev.op_id, inst.op_id, "ww")
            prev = inst

    # wr + rw per read.
    for op in committed:
        for oid, version, _observed_at in op.reads:
            chain = chains.get(oid, ())
            # wr: committed writer of the observed version.  A version
            # only an indeterminate op installed gets no edge — reading a
            # maybe-committed write is legal either way.
            for inst in chain:
                if inst.version == version and inst.committed:
                    _add_edge(adj, inst.op_id, op.op_id, "wr")
                    break
            # rw: the next committed install after what we read (by
            # version; version 0 with no install means the initial value).
            for inst in chain:
                if inst.version <= version or not inst.committed:
                    continue
                if inst.op_id != op.op_id:
                    _add_edge(adj, op.op_id, inst.op_id, "rw")
                break

    # rt: real-time order between committed ops, transitively reduced.
    # A write's obligations start at its visibility point (durable_at),
    # not the early commit ack; see the module docstring.
    def visible_at(op: HistoryOp) -> Optional[float]:
        return op.durable_at if op.durable_at is not None else op.responded_at

    ordered = sorted(committed, key=lambda o: (o.invoked_at, o.op_id))
    for i, a in enumerate(ordered):
        a_visible = visible_at(a)
        if a_visible is None:
            continue
        horizon = float("inf")
        for b in ordered[i + 1:]:
            if b.invoked_at <= a_visible:
                continue
            if b.invoked_at > horizon:
                break
            _add_edge(adj, a.op_id, b.op_id, "rt")
            b_visible = visible_at(b)
            if b_visible is not None:
                horizon = min(horizon, b_visible)
    return adj


# ---------------------------------------------------------------------------
# cycle detection (Tarjan SCC + shortest cycle per component)
# ---------------------------------------------------------------------------

def _find_cycles(adj: Dict[int, Dict[int, str]], by_id) -> Iterable[Violation]:
    for scc in _tarjan(adj):
        if len(scc) < 2:
            continue
        cycle = _shortest_cycle(adj, scc)
        edges = tuple((cycle[i], cycle[(i + 1) % len(cycle)],
                       adj[cycle[i]][cycle[(i + 1) % len(cycle)]])
                      for i in range(len(cycle)))
        kinds = {k for _s, _d, k in edges}
        category = "realtime" if "rt" in kinds else "serializability"
        data_kinds = sorted(kinds)
        yield Violation(
            category,
            f"dependency cycle over ops {list(cycle)} "
            f"(edges: {', '.join(data_kinds)}) — no serial order "
            "consistent with "
            + ("real time" if category == "realtime" else "the data flow")
            + " exists",
            cycle=tuple(cycle), edges=edges)


def _tarjan(adj: Dict[int, Dict[int, str]]) -> List[List[int]]:
    """Iterative Tarjan; components returned sorted for determinism."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = [0]

    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(sorted(adj.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in adj:
                    continue
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(adj.get(w, ())))))
                    advanced = True
                    break
                elif on_stack.get(w):
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    sccs.sort()
    return sccs


def _shortest_cycle(adj: Dict[int, Dict[int, str]], scc: List[int]) -> List[int]:
    """Shortest cycle through the smallest op of a non-trivial SCC."""
    members = set(scc)
    start = scc[0]
    # BFS from each successor of start back to start, inside the SCC.
    best: Optional[List[int]] = None
    for first in sorted(adj.get(start, ())):
        if first not in members:
            continue
        if first == start:
            return [start]
        parent: Dict[int, Optional[int]] = {first: None}
        frontier = [first]
        found = False
        while frontier and not found:
            nxt: List[int] = []
            for v in frontier:
                for w in sorted(adj.get(v, ())):
                    if w == start:
                        path = [v]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        path.reverse()
                        candidate = [start] + path
                        if best is None or len(candidate) < len(best):
                            best = candidate
                        found = True
                        break
                    if w in members and w not in parent:
                        parent[w] = v
                        nxt.append(w)
                if found:
                    break
            frontier = nxt
    assert best is not None, "SCC without a cycle through its root"
    return best
