"""Digest-pinned scenario reports.

A scenario run folds down to one :class:`ScenarioReport`: the embedded
:class:`~repro.fleet.report.FleetReport` (per-device rows, population
statistics, and the fleet digest the zero-event scenario pins against
the plain fleet path) plus the lifecycle layers the fleet report has
no notion of -- demand served vs deferred, replan routing through the
serve tier (applied / shed / storms), churn and quarantine timelines,
staged fault injections, and the clairvoyant oracle gap.

Like the fleet report, everything is deterministic and the digest
hashes full-precision values (``repr`` of a float round-trips the
exact binary), so two runs of the same seeded scenario agree on the
digest iff they agree bit-for-bit on every number in the report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fleet.report import FleetReport


def _canonical(obj):
    """Recursively ``repr`` floats so the digest sees exact bits."""
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


@dataclass
class ScenarioReport:
    """Outcome of one simulated fleet lifecycle.

    Attributes:
        name: preset (or ``custom``) name.
        seed: the scenario's root seed.
        horizon_s / tick_s: simulated span and engine tick.
        devices_initial: fleet size at t=0.
        config: JSON-ready description of the scenario's generators
            (arrivals, ambient, churn, campaign, serve admission).
        fleet: the end-of-scenario fleet aggregation; its ``digest()``
            is the zero-event pin anchor.
        demand: windows requested / epochs run / windows deferred.
        replans: requested / applied / unavailable / shed counts plus
            storm statistics (peak intents in one tick, ticks at or
            above the storm threshold).
        serve: deterministic control-plane counters (requests by op,
            sheds by reason) from the in-loop serve tier.
        shed_timeline: per-tick shed counts, only non-zero ticks.
        lifecycle_timeline: join / leave / quarantine / repair events.
        churn: membership totals over the run.
        faults_injected: staged-campaign injections by fault kind.
        oracle: clairvoyant-twin comparison (None when disabled).
        health: deterministic monitoring section (None when the
            monitor is disabled): series coverage, the final-window
            metric rollup, SLO burn-rate alert timeline, and digests
            over both.  Built exclusively from the sim clock and the
            wall-clock-free registry projection, so it is covered by
            the report digest like every other section.
    """

    name: str
    model_name: str
    qos_s: float
    seed: int
    horizon_s: float
    tick_s: float
    devices_initial: int
    config: Dict = field(default_factory=dict)
    fleet: FleetReport = None  # type: ignore[assignment]
    demand: Dict[str, int] = field(default_factory=dict)
    replans: Dict[str, int] = field(default_factory=dict)
    serve: Dict = field(default_factory=dict)
    shed_timeline: List[Dict] = field(default_factory=list)
    lifecycle_timeline: List[Dict] = field(default_factory=list)
    churn: Dict[str, int] = field(default_factory=dict)
    faults_injected: Dict[str, int] = field(default_factory=dict)
    oracle: Optional[Dict] = None
    health: Optional[Dict] = None

    # -- derived metrics ---------------------------------------------------------

    @property
    def qos_met_fraction(self) -> float:
        """Epoch-weighted QoS attainment across every governed epoch."""
        epochs = sum(s.epochs for s in self.fleet.summaries)
        if epochs == 0:
            return 0.0
        met = sum(s.epochs_met for s in self.fleet.summaries)
        return met / epochs

    @property
    def oracle_gap_fraction(self) -> Optional[float]:
        """Governed-over-oracle energy excess on the sampled twins."""
        if not self.oracle:
            return None
        oracle_j = self.oracle.get("oracle_true_energy_j", 0.0)
        governed_j = self.oracle.get("governed_true_energy_j", 0.0)
        if oracle_j <= 0.0:
            return None
        return (governed_j - oracle_j) / oracle_j

    # -- serialization -----------------------------------------------------------

    def _core(self) -> Dict:
        """Everything the digest covers, canonically ordered."""
        oracle = dict(self.oracle) if self.oracle else None
        if oracle is not None:
            gap = self.oracle_gap_fraction
            oracle["gap_fraction"] = gap
        core = {
            "name": self.name,
            "model": self.model_name,
            "qos_s": self.qos_s,
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "tick_s": self.tick_s,
            "devices_initial": self.devices_initial,
            "config": self.config,
            "fleet_digest": self.fleet.digest(),
            "qos_met_fraction": self.qos_met_fraction,
            "demand": dict(sorted(self.demand.items())),
            "replans": dict(sorted(self.replans.items())),
            "serve": self.serve,
            "shed_timeline": self.shed_timeline,
            "lifecycle_timeline": self.lifecycle_timeline,
            "churn": dict(sorted(self.churn.items())),
            "faults_injected": dict(sorted(self.faults_injected.items())),
            "oracle": oracle,
        }
        # Conditional like the config's ``boards`` key: monitor-off
        # runs (the zero-event pin) digest as before the monitor
        # existed.
        if self.health is not None:
            core["health"] = self.health
        return core

    def digest(self) -> str:
        """SHA-256 over the canonical report -- the determinism anchor."""
        payload = json.dumps(_canonical(self._core()), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> Dict:
        """JSON-ready representation (core + fleet detail + digest)."""
        core = self._core()
        core["digest"] = self.digest()
        core["fleet"] = self.fleet.to_dict()
        return core

    def summary(self) -> str:
        """Multi-line human-readable scenario report."""
        days = self.horizon_s / 86400.0
        r = self.replans
        lines = [
            f"scenario {self.name!r}: {self.devices_initial} devices, "
            f"model {self.model_name!r}, {days:g} simulated days "
            f"(tick {self.tick_s:g} s, seed {self.seed})",
            f"  demand: {self.demand.get('windows_requested', 0)} "
            f"windows requested, {self.demand.get('epochs_run', 0)} "
            f"epochs run, {self.demand.get('windows_deferred', 0)} "
            f"deferred",
            f"  QoS met: {self.qos_met_fraction:.1%} of governed "
            f"epochs; replans: {r.get('requested', 0)} requested, "
            f"{r.get('applied', 0)} applied, {r.get('shed', 0)} shed "
            f"(storm peak {r.get('storm_peak', 0)}/tick, "
            f"{r.get('storm_ticks', 0)} storm ticks)",
            f"  churn: {self.churn.get('joins', 0)} joins, "
            f"{self.churn.get('leaves', 0)} leaves, "
            f"{self.churn.get('quarantines', 0)} quarantines, "
            f"{self.churn.get('repairs', 0)} repairs; "
            f"final fleet {self.churn.get('final_devices', 0)}",
        ]
        if self.faults_injected:
            hist = ", ".join(
                f"{kind} x{count}"
                for kind, count in sorted(self.faults_injected.items())
            )
            lines.append(f"  faults injected: {hist}")
        gap = self.oracle_gap_fraction
        if gap is not None:
            lines.append(
                f"  oracle gap: {gap:+.2%} energy vs clairvoyant "
                f"({self.oracle.get('devices', 0)} twinned devices)"
            )
        if self.health is not None:
            series = self.health.get("series", {})
            alerts = self.health.get("alerts", [])
            fired = sum(1 for a in alerts if a.get("state") == "firing")
            lines.append(
                f"  health: {series.get('total_samples', 0)} samples "
                f"({series.get('len', 0)} retained), "
                f"{fired} alerts fired, "
                f"{len(self.health.get('alerts_active', []))} active at end"
            )
        lines.append(f"  fleet digest: {self.fleet.digest()}")
        lines.append(f"  digest: {self.digest()}")
        return "\n".join(lines)
