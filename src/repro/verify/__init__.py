"""Protocol verification: invariants, audits, the exhaustive explorer,
history checking, and counterexample minimization.  (The randomized sweep
over the full stack is a campaign of cells: :func:`repro.chaos.explore`.)"""

from .audit import (
    AuditReport,
    CommitLedger,
    audit_epochs,
    audit_exactly_once,
    audit_history,
    audit_liveness,
    audit_run,
    audit_safety,
)
from .checker import CheckResult, bfs_check
from .exhaustive import SCENARIOS, Scenario, check_protocol
from .history import (
    HistoryCheckResult,
    HistoryOp,
    HistoryRecorder,
    Violation,
    check_history,
)
from .invariants import (
    InvariantViolation,
    check_invariants,
    check_quiescent,
    quiescence_problems,
)
from .shrink import ShrinkResult, shrink

__all__ = [
    "bfs_check",
    "CheckResult",
    "check_protocol",
    "Scenario",
    "SCENARIOS",
    "check_invariants",
    "check_quiescent",
    "quiescence_problems",
    "InvariantViolation",
    "AuditReport",
    "CommitLedger",
    "audit_run",
    "audit_safety",
    "audit_exactly_once",
    "audit_epochs",
    "audit_liveness",
    "audit_history",
    "check_history",
    "HistoryCheckResult",
    "HistoryOp",
    "HistoryRecorder",
    "Violation",
    "ShrinkResult",
    "shrink",
]
