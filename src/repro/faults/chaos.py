"""Chaos harness: seeded fault campaigns over a simulated fleet.

A campaign plans a heterogeneous fleet under an injected
:class:`~repro.faults.plan.FaultPlan` (the scheduler's retry +
quarantine machinery absorbing the planning-stage faults), then
supervises every surviving device through governor epochs twice --
once under its deterministic per-device fault stream and once
fault-free -- so the report can price the **energy overhead of
failsafe operation** (retry stalls, HSI failsafe windows, watchdog
replays) against the same device's nominal behaviour.

Everything is deterministic: per-device fault streams are spawn-keyed
by (device id, stage) so thread scheduling cannot shift a single
decision, and :meth:`ChaosReport.digest` hashes the full-precision
rows -- two same-seed campaigns must produce byte-identical reports,
which the CI chaos smoke job asserts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import FaultInjectionError
from ..nn.graph import Model
from ..obs.tracing import span
from ..optimize.qos import QoSLevel
from .plan import FaultPlan, GOVERN_STAGE


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos campaign.

    Attributes:
        devices: fleet size.
        seed: fleet-sampling seed (device hardware variation; the
            *fault* seed lives on the :class:`FaultPlan`).
        epochs: governor telemetry epochs per device.
        qos_slack: relative latency slack of the fleet's QoS level.
        max_workers: planning thread-pool width.
        max_plan_attempts: scheduler retry budget per device.
        boards: registry board names to mix the fleet across
            (``None`` keeps the homogeneous default-board fleet and
            its pre-registry report digests).
    """

    devices: int = 64
    seed: int = 0
    epochs: int = 4
    qos_slack: float = 0.30
    max_workers: int = 4
    max_plan_attempts: int = 3
    boards: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise FaultInjectionError("devices must be >= 1")
        if self.epochs < 1:
            raise FaultInjectionError("epochs must be >= 1")
        if self.qos_slack < 0:
            raise FaultInjectionError("qos_slack must be >= 0")
        if self.max_workers < 1:
            raise FaultInjectionError("max_workers must be >= 1")
        if self.max_plan_attempts < 1:
            raise FaultInjectionError("max_plan_attempts must be >= 1")
        if self.boards is not None:
            if not self.boards:
                raise FaultInjectionError(
                    "boards must be None or non-empty"
                )
            object.__setattr__(self, "boards", tuple(self.boards))


@dataclass(frozen=True)
class DeviceSurvival:
    """One device's row of the survival report.

    Attributes:
        device_id: stable fleet index.
        planned: planning + deployment succeeded (possibly after
            retries).
        attempts: planning attempts consumed.
        quarantined: the scheduler pulled the device from the fleet.
        error: the captured failure when not planned.
        epochs: governor epochs run (0 when not planned).
        epochs_met: epochs whose window met the QoS budget.
        invalid_epochs: epochs with unusable telemetry.
        replans: governor re-solves applied.
        css_events / watchdog_resets / pll_retries: hardening
            interventions absorbed during supervision.
        injected: faults injected during supervision, by kind value.
        energy_j: mean per-epoch measured energy under faults (valid
            epochs only).
        baseline_energy_j: same device, same epochs, fault-free.
    """

    device_id: int
    planned: bool
    attempts: int = 1
    quarantined: bool = False
    error: Optional[str] = None
    epochs: int = 0
    epochs_met: int = 0
    invalid_epochs: int = 0
    replans: int = 0
    css_events: int = 0
    watchdog_resets: int = 0
    pll_retries: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    energy_j: float = 0.0
    baseline_energy_j: float = 0.0


@dataclass
class ChaosReport:
    """Survival report of one seeded chaos campaign."""

    model_name: str
    qos_s: float
    fault_plan: Dict
    config: Dict
    rows: List[DeviceSurvival] = field(default_factory=list)

    # -- aggregates --------------------------------------------------------------

    @property
    def n_devices(self) -> int:
        """Fleet size (quarantined devices included)."""
        return len(self.rows)

    @property
    def planned(self) -> List[DeviceSurvival]:
        """Devices that survived planning."""
        return [r for r in self.rows if r.planned]

    @property
    def quarantined_ids(self) -> List[int]:
        """Sorted ids of quarantined devices."""
        return sorted(r.device_id for r in self.rows if r.quarantined)

    @property
    def quarantine_free_fraction(self) -> float:
        """Share of the fleet never quarantined."""
        if not self.rows:
            return 0.0
        return 1.0 - len(self.quarantined_ids) / len(self.rows)

    @property
    def qos_met_fraction(self) -> float:
        """Epoch-weighted QoS survival across planned devices."""
        total = sum(r.epochs for r in self.planned)
        if total == 0:
            return 0.0
        return sum(r.epochs_met for r in self.planned) / total

    @property
    def total_retries(self) -> int:
        """Extra planning attempts spent across the fleet."""
        return sum(r.attempts - 1 for r in self.rows)

    @property
    def total_injected(self) -> Dict[str, int]:
        """Supervision-stage faults injected, summed by kind."""
        totals: Dict[str, int] = {}
        for row in self.rows:
            for kind, count in row.injected.items():
                totals[kind] = totals.get(kind, 0) + count
        return dict(sorted(totals.items()))

    @property
    def energy_overhead(self) -> float:
        """Mean fractional energy overhead of failsafe operation.

        Per device: faulted mean epoch energy over the fault-free
        mean, minus one; averaged over devices with a usable pair of
        measurements.  Positive values price the retries, failsafe
        windows and watchdog replays the campaign forced.
        """
        overheads = [
            r.energy_j / r.baseline_energy_j - 1.0
            for r in self.planned
            if r.baseline_energy_j > 0 and r.energy_j > 0
        ]
        if not overheads:
            return 0.0
        return sum(overheads) / len(overheads)

    # -- serialization -----------------------------------------------------------

    def _canonical_rows(self) -> List[Dict]:
        return [
            {
                "device_id": r.device_id,
                "planned": r.planned,
                "attempts": r.attempts,
                "quarantined": r.quarantined,
                "error": r.error,
                "epochs": r.epochs,
                "epochs_met": r.epochs_met,
                "invalid_epochs": r.invalid_epochs,
                "replans": r.replans,
                "css_events": r.css_events,
                "watchdog_resets": r.watchdog_resets,
                "pll_retries": r.pll_retries,
                "injected": dict(sorted(r.injected.items())),
                "energy_j": r.energy_j,
                "baseline_energy_j": r.baseline_energy_j,
            }
            for r in sorted(self.rows, key=lambda r: r.device_id)
        ]

    def digest(self) -> str:
        """SHA-256 over the canonical rows -- the determinism anchor.

        ``repr`` of a float round-trips the exact binary value, so two
        campaigns agree on the digest iff they agree bit-for-bit.
        """
        payload = json.dumps(
            {
                "model": self.model_name,
                "qos_s": repr(self.qos_s),
                "fault_plan": {
                    k: (repr(v) if isinstance(v, float) else v)
                    for k, v in self.fault_plan.items()
                },
                "rows": [
                    {
                        k: (repr(v) if isinstance(v, float) else v)
                        for k, v in row.items()
                    }
                    for row in self._canonical_rows()
                ],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> Dict:
        """JSON-ready representation (aggregates + rows + digest)."""
        return {
            "model": self.model_name,
            "qos_ms": self.qos_s * 1e3,
            "fault_plan": self.fault_plan,
            "config": self.config,
            "n_devices": self.n_devices,
            "planned": len(self.planned),
            "quarantined": self.quarantined_ids,
            "quarantine_free_fraction": self.quarantine_free_fraction,
            "qos_met_fraction": self.qos_met_fraction,
            "energy_overhead": self.energy_overhead,
            "total_retries": self.total_retries,
            "total_injected": self.total_injected,
            "digest": self.digest(),
            "devices": self._canonical_rows(),
        }

    def summary(self) -> str:
        """Multi-line human-readable survival report."""
        injected = self.total_injected
        lines = [
            f"chaos campaign: {self.n_devices} devices, model "
            f"{self.model_name!r}, QoS {self.qos_s * 1e3:.3f} ms",
            f"  survived planning: {len(self.planned)}/{self.n_devices} "
            f"({self.total_retries} retries, "
            f"{len(self.quarantined_ids)} quarantined -> "
            f"{self.quarantine_free_fraction:.1%} quarantine-free)",
            f"  QoS met: {self.qos_met_fraction:.1%} of epochs; "
            f"failsafe energy overhead {self.energy_overhead:+.2%}",
        ]
        if injected:
            parts = ", ".join(f"{k} x{v}" for k, v in injected.items())
            lines.append(f"  injected (supervision): {parts}")
        hardened = (
            sum(r.css_events for r in self.rows),
            sum(r.watchdog_resets for r in self.rows),
            sum(r.pll_retries for r in self.rows),
        )
        lines.append(
            f"  absorbed: {hardened[0]} CSS failsafes, "
            f"{hardened[1]} watchdog resets, {hardened[2]} PLL retries"
        )
        lines.append(f"  digest: {self.digest()}")
        return "\n".join(lines)


def run_campaign(
    model: Model,
    fault_plan: FaultPlan,
    config: Optional[ChaosConfig] = None,
) -> ChaosReport:
    """Run one seeded chaos campaign and build the survival report.

    Plans the fleet under planning-stage fault injection (pooled; the
    scheduler's retry/quarantine machinery handles the casualties),
    then supervises every planned device through governor epochs under
    its supervision-stage fault stream and once more fault-free for
    the energy-overhead baseline.

    No exception escapes a healthy campaign: device failures are
    captured in the rows.  Two calls with identical arguments produce
    byte-identical reports (:meth:`ChaosReport.digest`).
    """
    config = config or ChaosConfig()
    # The span is strictly observational: the report rows (and their
    # byte-identity-gated digest) are computed exactly as before.
    with span(
        "chaos.campaign",
        model=model.name,
        devices=config.devices,
        seed=config.seed,
    ):
        return _run_campaign(model, fault_plan, config)


def _run_campaign(
    model: Model,
    fault_plan: FaultPlan,
    config: ChaosConfig,
) -> ChaosReport:
    # Imported here, not at module level: the scheduler itself imports
    # the fault models, and this module closes that loop.
    from ..fleet.governor import GovernorConfig, supervise_device
    from ..fleet.scheduler import FleetScheduler
    from ..fleet.variation import sample_fleet

    fleet = sample_fleet(
        config.devices, seed=config.seed, boards=config.boards
    )
    level = QoSLevel(name=f"chaos+{config.qos_slack:.0%}", slack=config.qos_slack)
    scheduler = FleetScheduler(
        model,
        qos_level=level,
        max_workers=config.max_workers,
        fault_plan=fault_plan,
        max_plan_attempts=config.max_plan_attempts,
    )
    results = scheduler.run(fleet, pooled=True)
    gov_cfg = GovernorConfig(epochs=config.epochs)
    qos_s = 0.0
    rows: List[DeviceSurvival] = []
    for result in results:
        if result.error is not None or result.optimized is None:
            rows.append(
                DeviceSurvival(
                    device_id=result.device_id,
                    planned=False,
                    attempts=result.attempts,
                    quarantined=result.quarantined,
                    error=result.error,
                )
            )
            continue
        qos_s = result.optimized.qos_s
        pipeline = scheduler.pipeline_for(result.profile)
        clock = None
        if fault_plan.any_faults:
            clock = fault_plan.clock_for(
                result.device_id, stage=GOVERN_STAGE
            )
        governed = supervise_device(
            pipeline, result.profile, model, result.optimized,
            gov_cfg, fault_clock=clock,
        )
        baseline = supervise_device(
            pipeline, result.profile, model, result.optimized, gov_cfg
        )
        valid = [s for s in governed.samples if s.valid]
        energy = (
            sum(s.measured_energy_j for s in valid) / len(valid)
            if valid
            else 0.0
        )
        base_valid = [s for s in baseline.samples if s.valid]
        base_energy = (
            sum(s.measured_energy_j for s in base_valid) / len(base_valid)
            if base_valid
            else 0.0
        )
        rows.append(
            DeviceSurvival(
                device_id=result.device_id,
                planned=True,
                attempts=result.attempts,
                quarantined=result.quarantined,
                epochs=len(governed.samples),
                epochs_met=governed.epochs_met,
                invalid_epochs=governed.invalid_epochs,
                replans=governed.replans,
                css_events=governed.css_events,
                watchdog_resets=governed.watchdog_resets,
                pll_retries=governed.pll_retries,
                injected=(
                    clock.injected_by_kind() if clock is not None else {}
                ),
                energy_j=energy,
                baseline_energy_j=base_energy,
            )
        )
    return ChaosReport(
        model_name=model.name,
        qos_s=qos_s,
        fault_plan=fault_plan.to_dict(),
        config={
            "devices": config.devices,
            "seed": config.seed,
            "epochs": config.epochs,
            "qos_slack": config.qos_slack,
            "max_workers": config.max_workers,
            "max_plan_attempts": config.max_plan_attempts,
        },
        rows=rows,
    )
