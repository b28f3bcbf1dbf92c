"""repro.faults -- seeded fault injection and chaos campaigns.

:mod:`.plan` defines the fault models (:class:`~repro.faults.plan.FaultPlan`)
and the deterministic per-(device, stage) decision streams
(:class:`~repro.faults.plan.FaultClock`); :mod:`.campaign` stages
time-windowed plans for the scenario engine; :mod:`.chaos` runs seeded
campaigns over a fleet and emits digest-pinned survival reports.
"""

from .plan import (
    FaultClock,
    FaultKind,
    FaultPlan,
    GOVERN_STAGE,
    PLAN_STAGE,
)
from .campaign import (
    CampaignClocks,
    FaultCampaign,
    FaultStage,
    SCENARIO_STAGE_BASE,
)
from .chaos import (
    ChaosConfig,
    ChaosReport,
    DeviceSurvival,
    run_campaign,
)

__all__ = [
    "CampaignClocks",
    "ChaosConfig",
    "ChaosReport",
    "DeviceSurvival",
    "FaultCampaign",
    "FaultClock",
    "FaultKind",
    "FaultPlan",
    "FaultStage",
    "GOVERN_STAGE",
    "PLAN_STAGE",
    "SCENARIO_STAGE_BASE",
    "run_campaign",
]
