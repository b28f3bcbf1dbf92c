"""Event-boundary scenario checkpoints.

A :class:`~repro.scenario.engine.ScenarioEngine` run is a pure
function of its config: every random draw comes from named seeded
streams, the clock is simulated, and the serve tier's admission
decisions are a function of arrival order.  That purity is what makes
checkpointing *exact* rather than approximate -- a checkpoint is the
complete set of mutable state reached after N event dispatches, and
resuming from it replays the remaining events over byte-identical
state, so the resumed run's :class:`~repro.scenario.report.ScenarioReport`
digest equals the uninterrupted run's.  That invariant is enforced in
``tests/scenario/test_checkpoint.py`` and by CI's steady-diurnal
resume ``cmp``.

The snapshot deliberately stores *state dicts*, not live objects with
pipelines inside: governors, oracle twins and fault clocks are rebuilt
deterministically from the config on resume and only their mutable
attributes (battery, thermal, plan, counters, RNG bit-generator
states) are restored.  That keeps checkpoints small, avoids pickling
thread locks, and doubles as a schema the next session can evolve
behind ``version``.

``config`` is pickled whole, but a run never writes into it: the
engine draws arrivals from its own copy of the arrival model, and the
snapshot carries those per-device streams as bit-generator states like
every other stream.  An in-memory checkpoint therefore stays valid
after its source engine runs on.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..errors import ReproError

#: Bumped on incompatible snapshot-schema changes.
CHECKPOINT_VERSION = 2


@dataclass
class ScenarioCheckpoint:
    """Complete mutable state of a scenario run at an event boundary.

    Attributes:
        version: snapshot schema version.
        config: the (picklable) :class:`ScenarioConfig` the run was
            built from; resume reconstructs the engine from it.
        events_processed: dispatched-event count (informational).
        clock_now: the simulated clock.
        queue_heap / queue_seq: the pending event heap, verbatim.
        churn_rng_state: the churn victim-picker bit-generator state.
        arrival_rng_states: per arrival stream (in
            ``ArrivalModel.streams()`` order), each spawned device's
            bit-generator state.
        campaign_clocks: per ``(device, stage)`` fault-clock counters
            and per-kind RNG states.
        governors: per-device governor snapshots, in registration
            order (report row order derives from it), each carrying
            the device's pool index so joined devices can be rebuilt.
        twins: per-device oracle-twin snapshots.
        engine: engine-level sets, counters and timelines.
        serve: serve-bridge counters plus admission/token-bucket state.
    """

    config: Any
    version: int = CHECKPOINT_VERSION
    events_processed: int = 0
    clock_now: float = 0.0
    queue_heap: List[Tuple] = field(default_factory=list)
    queue_seq: int = 0
    churn_rng_state: Dict[str, Any] = field(default_factory=dict)
    arrival_rng_states: List[Dict[int, Any]] = field(default_factory=list)
    campaign_clocks: List[Dict[str, Any]] = field(default_factory=list)
    governors: List[Dict[str, Any]] = field(default_factory=list)
    twins: List[Dict[str, Any]] = field(default_factory=list)
    engine: Dict[str, Any] = field(default_factory=dict)
    serve: Dict[str, Any] = field(default_factory=dict)


def save_checkpoint(checkpoint: ScenarioCheckpoint, path: str) -> None:
    """Pickle a checkpoint to ``path`` (atomic rename on same dir)."""
    import os

    blob = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> ScenarioCheckpoint:
    """Load and validate a pickled checkpoint.

    Raises:
        ReproError: unreadable file, wrong type, or a snapshot written
            by an incompatible schema version.
    """
    try:
        with open(path, "rb") as handle:
            checkpoint = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError) as err:
        raise ReproError(f"cannot load checkpoint {path!r}: {err}") from err
    if not isinstance(checkpoint, ScenarioCheckpoint):
        raise ReproError(
            f"{path!r} does not contain a ScenarioCheckpoint"
        )
    if checkpoint.version != CHECKPOINT_VERSION:
        raise ReproError(
            f"checkpoint version {checkpoint.version} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return checkpoint
