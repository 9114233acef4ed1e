"""Protocol verification: invariants, audits, the exhaustive and the
randomized explorer, history checking, and counterexample minimization."""

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
from .explorer import ExplorationResult, ExplorerConfig, explore
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
from .shrink import ReproRecipe, ShrinkResult, run_recipe, shrink

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
    "explore",
    "ExplorerConfig",
    "ExplorationResult",
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
    "ReproRecipe",
    "ShrinkResult",
    "run_recipe",
    "shrink",
]
