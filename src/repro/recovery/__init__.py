"""Crash recovery: scenario checkpoints.

:mod:`repro.recovery.checkpoint` takes event-boundary snapshots of a
scenario run; resuming from any boundary reproduces the uninterrupted
run's report byte-identically.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    ScenarioCheckpoint,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "ScenarioCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
]
