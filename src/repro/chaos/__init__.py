"""Chaos engineering for the simulated Zeus deployment.

Declarative fault schedules (crashes, healing partitions, gray slowdowns,
burst loss/duplication/reordering windows, live scale-outs and graceful
drains), a seeded scenario generator, an engine that applies a schedule to
a :class:`ZeusCluster`, and the one audited fault cell (:class:`Recipe`,
:func:`run_cell`) that campaigns (``python -m repro chaos``), the randomized
sweep (:func:`explore`) and the shrinker all run.
"""

from .campaign import (
    SWEEP_CELL,
    CampaignConfig,
    CampaignResult,
    Recipe,
    RunReport,
    campaign_schedule,
    explore,
    run_campaign,
    run_cell,
)
from .engine import ChaosEngine
from .generator import (generate_elastic_schedule, generate_schedule,
                        generate_sweep_schedule)
from .schedule import (
    AddNodesEvent,
    ChaosEventType,
    CrashEvent,
    DrainEvent,
    FaultSchedule,
    FaultWindowEvent,
    PartitionEvent,
    RecoverEvent,
    SlowdownEvent,
)

__all__ = [
    "CrashEvent",
    "RecoverEvent",
    "PartitionEvent",
    "SlowdownEvent",
    "FaultWindowEvent",
    "AddNodesEvent",
    "DrainEvent",
    "ChaosEventType",
    "FaultSchedule",
    "generate_schedule",
    "generate_elastic_schedule",
    "generate_sweep_schedule",
    "ChaosEngine",
    "Recipe",
    "SWEEP_CELL",
    "CampaignConfig",
    "RunReport",
    "CampaignResult",
    "campaign_schedule",
    "run_cell",
    "run_campaign",
    "explore",
]
