"""Seeded, deterministic fault models for the simulated stack.

Real STM32F7 deployments fail in ways the nominal models never do: the
HSE crystal drops out mid-flight (the part ships a Clock Security
System precisely because this is *expected*), the PLL occasionally
fails to re-lock within its window, the INA219 NACKs or freezes its
power register, the supply browns out under load and the independent
watchdog resets the core mid-inference.  TinyML benchmarking work
(Bartoli et al., arXiv:2505.15622) finds exactly these sensor dropouts
and brownouts dominating field measurement error.

:class:`FaultPlan` describes *which* faults occur and how often;
:class:`FaultClock` turns a plan into deterministic per-site decisions.
Every fault kind owns an independent child stream spawned from the
plan's seed, so the decision sequence of one kind is invariant to how
other kinds interleave with it -- two runs of the same seeded campaign
make bit-identical decisions regardless of device order, which is
what lets the chaos harness pin survival-report digests.

Injection sites never import this module's consumers: the RCC, the
sensor and the runtime each accept an optional fault clock and call the
kind-named hook (:meth:`FaultClock.hse_dropout`, ...).  A ``None``
clock leaves every hardened code path bit-identical to the pre-fault
behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import FaultInjectionError


class FaultKind(enum.Enum):
    """One injectable failure mode of the simulated board."""

    HSE_DROPOUT = "hse-dropout"
    PLL_LOCK_TIMEOUT = "pll-lock-timeout"
    SENSOR_DROPOUT = "sensor-dropout"
    SENSOR_STUCK = "sensor-stuck"
    SENSOR_NACK = "sensor-nack"
    BROWNOUT_SAG = "brownout-sag"
    WATCHDOG_RESET = "watchdog-reset"


#: Stage spawn keys: one device's planning/deploy draws must not shift
#: its supervision draws (and vice versa), so each stage gets its own
#: child of the device's stream.  Each kind's stream is its position in
#: :class:`FaultKind`; ``SeedSequence.spawn`` is prefix-stable, so only
#: appending (or dropping the last) kind keeps the others bit-identical.
PLAN_STAGE = 0
GOVERN_STAGE = 1


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of a fault campaign.

    Rates are per-*opportunity* Bernoulli probabilities; an opportunity
    is one visit to the corresponding injection site (an HSE (re)start,
    a PLL lock wait, one sensor conversion, one ``measure()`` call, one
    telemetry epoch, one layer checkpoint).  ``scheduled`` pins faults
    to exact opportunity indices for surgical tests, independently of
    the rates.

    Attributes:
        seed: root seed; every (device, stage, kind) triple derives an
            independent stream from it.
        hse_dropout_rate: HSE oscillator failure per (re)start.
        pll_lock_timeout_rate: PLL lock failure per lock wait.
        sensor_dropout_rate: lost INA219 conversion per sample.
        sensor_stuck_rate: frozen power register per ``measure()``
            call (every sample of the train repeats the first value).
        sensor_nack_rate: I2C NACK per ``measure()`` call (the whole
            read fails).
        brownout_rate: supply sag per telemetry epoch.
        watchdog_rate: watchdog reset per layer checkpoint.
        brownout_derate: fraction of the battery's frequency cap a
            sagging rail still sustains.
        watchdog_reset_s: stall of one watchdog reset + checkpoint
            resume (system restart, clock tree back at boot state).
        max_consecutive_resets: watchdog resets tolerated at one layer
            before :class:`~repro.errors.WatchdogResetError` declares
            the device stuck.
    """

    seed: int = 0
    hse_dropout_rate: float = 0.0
    pll_lock_timeout_rate: float = 0.0
    sensor_dropout_rate: float = 0.0
    sensor_stuck_rate: float = 0.0
    sensor_nack_rate: float = 0.0
    brownout_rate: float = 0.0
    watchdog_rate: float = 0.0
    brownout_derate: float = 0.6
    watchdog_reset_s: float = 2e-3
    max_consecutive_resets: int = 3
    scheduled: Tuple[Tuple[FaultKind, int], ...] = ()

    _RATE_FIELDS = {
        FaultKind.HSE_DROPOUT: "hse_dropout_rate",
        FaultKind.PLL_LOCK_TIMEOUT: "pll_lock_timeout_rate",
        FaultKind.SENSOR_DROPOUT: "sensor_dropout_rate",
        FaultKind.SENSOR_STUCK: "sensor_stuck_rate",
        FaultKind.SENSOR_NACK: "sensor_nack_rate",
        FaultKind.BROWNOUT_SAG: "brownout_rate",
        FaultKind.WATCHDOG_RESET: "watchdog_rate",
    }

    def __post_init__(self) -> None:
        for kind, name in self._RATE_FIELDS.items():
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(
                    f"{name} must be a probability in [0, 1], got {rate}"
                )
        if not 0.0 < self.brownout_derate <= 1.0:
            raise FaultInjectionError(
                "brownout_derate must be in (0, 1]"
            )
        if self.watchdog_reset_s < 0:
            raise FaultInjectionError("watchdog_reset_s must be >= 0")
        if self.max_consecutive_resets < 1:
            raise FaultInjectionError(
                "max_consecutive_resets must be >= 1"
            )
        for entry in self.scheduled:
            kind, index = entry
            if not isinstance(kind, FaultKind) or index < 0:
                raise FaultInjectionError(
                    f"scheduled events must be (FaultKind, index >= 0) "
                    f"pairs, got {entry!r}"
                )

    def rate(self, kind: FaultKind) -> float:
        """Per-opportunity probability of ``kind``."""
        return getattr(self, self._RATE_FIELDS[kind])

    @property
    def any_faults(self) -> bool:
        """Whether this plan can inject anything at all."""
        return bool(self.scheduled) or any(
            self.rate(kind) > 0.0 for kind in FaultKind
        )

    def clock_for(self, device_id: int = 0, stage: int = 0) -> "FaultClock":
        """Deterministic per-(device, stage) fault clock.

        The spawn key makes every clock independent of every other, so
        a fleet draws identical faults whatever order its devices are
        planned in.
        """
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(device_id, stage)
        )
        return FaultClock(self, seq)

    def to_dict(self) -> Dict:
        """JSON-ready description (for campaign reports)."""
        return {
            "seed": self.seed,
            **{
                name: getattr(self, name)
                for name in sorted(self._RATE_FIELDS.values())
            },
            # Retired kind: the brownout-summer/churn-heavy/chaos pins hash it.
            "worker_kill_rate": 0.0,
            "brownout_derate": self.brownout_derate,
            "watchdog_reset_s": self.watchdog_reset_s,
            "max_consecutive_resets": self.max_consecutive_resets,
            "scheduled": [
                [kind.value, index] for kind, index in self.scheduled
            ],
        }


class FaultClock:
    """Deterministic fault decisions for one (device, stage).

    Each :class:`FaultKind` owns a private child RNG, an opportunity
    counter and an injection counter.  A zero-rate kind with no
    scheduled events never touches its RNG, so an all-zero plan is
    decision-free (and an absent clock is byte-identical to one).

    Args:
        plan: the campaign description (rates, severities, schedule).
        seed_seq: entropy source; ``plan.seed`` when omitted.  Use
            :meth:`FaultPlan.clock_for` for fleet-stable streams.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed_seq: Optional[np.random.SeedSequence] = None,
    ):
        self.plan = plan
        if seed_seq is None:
            seed_seq = np.random.SeedSequence(entropy=plan.seed)
        kinds = list(FaultKind)
        children = seed_seq.spawn(len(kinds))
        self._rngs = {
            kind: np.random.default_rng(child)
            for kind, child in zip(kinds, children)
        }
        self.opportunities: Dict[FaultKind, int] = {k: 0 for k in kinds}
        self.injected: Dict[FaultKind, int] = {k: 0 for k in kinds}
        self._scheduled: Dict[FaultKind, frozenset] = {}
        for kind, index in plan.scheduled:
            self._scheduled[kind] = self._scheduled.get(
                kind, frozenset()
            ) | {index}

    def trips(self, kind: FaultKind) -> bool:
        """One opportunity for ``kind``; True when the fault fires."""
        index = self.opportunities[kind]
        self.opportunities[kind] = index + 1
        hit = index in self._scheduled.get(kind, ())
        if not hit:
            rate = self.plan.rate(kind)
            if rate > 0.0:
                hit = bool(self._rngs[kind].random() < rate)
        if hit:
            self.injected[kind] += 1
        return hit

    # -- kind-named hooks ---------------------------------------------------
    # The hardened subsystems call these so they never need to import
    # the FaultKind enum (keeps clock/power/engine free of any
    # dependency on this package).

    def hse_dropout(self) -> bool:
        """The HSE fails at an oscillator (re)start."""
        return self.trips(FaultKind.HSE_DROPOUT)

    def pll_lock_timeout(self) -> bool:
        """The PLL misses its lock window after a reprogram."""
        return self.trips(FaultKind.PLL_LOCK_TIMEOUT)

    def sensor_dropout(self) -> bool:
        """One INA219 conversion is lost."""
        return self.trips(FaultKind.SENSOR_DROPOUT)

    def sensor_stuck(self) -> bool:
        """The power register freezes for one measurement train."""
        return self.trips(FaultKind.SENSOR_STUCK)

    def sensor_nack(self) -> bool:
        """The I2C transaction NACKs; the whole read fails."""
        return self.trips(FaultKind.SENSOR_NACK)

    def brownout_sag(self) -> bool:
        """The supply sags below the nominal rail for one epoch."""
        return self.trips(FaultKind.BROWNOUT_SAG)

    def watchdog_reset(self) -> bool:
        """The watchdog fires at a layer checkpoint."""
        return self.trips(FaultKind.WATCHDOG_RESET)

    # -- reporting ----------------------------------------------------------

    @property
    def total_injected(self) -> int:
        """Faults fired so far, all kinds."""
        return sum(self.injected.values())

    def injected_by_kind(self) -> Dict[str, int]:
        """Injection counters keyed by kind value (JSON-ready)."""
        return {
            kind.value: count
            for kind, count in sorted(
                self.injected.items(), key=lambda kv: kv[0].value
            )
            if count > 0
        }
