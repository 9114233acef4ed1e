"""A small explicit-state checker (breadth-first).

The paper verifies its protocols with TLA+/TLC; this is the same
methodology in ~100 lines: exhaustively enumerate every state reachable
through a successor function, checking state invariants everywhere and
reporting a minimal counterexample trace.  States and actions are the
caller's: :mod:`repro.verify.exhaustive` supplies those of the real
protocol managers (deliveries, timers, a crash, a view change).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

__all__ = ["CheckResult", "bfs_check"]

State = Hashable
ActionsFn = Callable[[State], Iterable[Tuple[str, State]]]
Invariant = Tuple[str, Callable[[State], bool]]


class CheckResult:
    """Outcome of a model-checking run."""

    def __init__(self) -> None:
        self.states_explored = 0
        self.transitions = 0
        self.truncated = False
        self.violation: Optional[str] = None
        self.trace: List[str] = []

    @property
    def ok(self) -> bool:
        return self.violation is None

    def __repr__(self) -> str:  # pragma: no cover
        status = "OK" if self.ok else f"VIOLATION: {self.violation}"
        return (f"CheckResult({status}, states={self.states_explored}, "
                f"transitions={self.transitions}, truncated={self.truncated})")


def bfs_check(initial_states: Iterable[State], actions: ActionsFn,
              invariants: List[Invariant],
              max_states: int = 500_000) -> CheckResult:
    """Exhaustive BFS over a state graph.

    ``actions(state)`` yields ``(label, next_state)`` pairs; invariants are
    evaluated on every newly discovered state.  On violation the result
    carries a shortest-path action trace from an initial state.
    """
    result = CheckResult()
    parent: Dict[State, Optional[Tuple[State, str]]] = {}
    frontier = deque()

    def visit(state: State, origin: Optional[Tuple[State, str]]) -> bool:
        if state in parent:
            return True
        parent[state] = origin
        result.states_explored += 1
        for name, check in invariants:
            if not check(state):
                result.violation = name
                result.trace = _trace(parent, state)
                return False
        frontier.append(state)
        return True

    for state in initial_states:
        if not visit(state, None):
            return result

    while frontier:
        if result.states_explored >= max_states:
            result.truncated = True
            break
        state = frontier.popleft()
        for label, nxt in actions(state):
            result.transitions += 1
            if not visit(nxt, (state, label)):
                return result
    return result


def _trace(parent: Dict[State, Optional[Tuple[State, str]]],
           state: State) -> List[str]:
    steps: List[str] = []
    cursor: Optional[State] = state
    while cursor is not None:
        origin = parent[cursor]
        if origin is None:
            break
        cursor, label = origin
        steps.append(label)
    steps.reverse()
    return steps
