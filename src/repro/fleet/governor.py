"""Adaptive per-device re-plan governor.

The MCKP plan a device ships with was priced against its power model
at deployment time.  In the field the operating point drifts: the die
heats up (leakage grows exponentially with temperature) and the
battery sags (the supply can no longer hold the top VOS scales, which
caps the usable SYSCLK).  The governor closes the loop the paper's
differential-measurement methodology opens:

1. every telemetry epoch, simulate one QoS window under the *true*
   conditions (thermal excess leakage, frequency clamping) and measure
   it with the device's own seeded INA219;
2. compare the measurement against the plan's prediction;
3. when the drift breaches the tolerance -- or the window misses its
   QoS budget outright -- **re-solve** the MCKP from the cached
   Pareto fronts, re-priced for the drifted conditions
   (:func:`repro.optimize.mckp.reprice_classes`), via
   :meth:`DAEDVFSPipeline.replan`.  No design-space re-exploration
   happens: the fronts' timing is drift-invariant, only the energy
   ranking moved.

The thermal response pushes hot devices toward *faster* schedules
(slow choices soak up more of the extra leakage joules); the battery
response pushes sagging devices onto HFOs their supply can still
hold.  Both re-converge within an epoch or two, which the fleet
report quantifies across the population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..engine.schedule import DeploymentPlan
from ..errors import PowerModelError, ReproError, SensorReadError
from ..nn.graph import Model
from ..obs.audit import get_audit_log
from ..obs.registry import get_registry
from ..optimize.mckp import MCKPItem, front_classes
from ..pipeline import DAEDVFSPipeline, OptimizationResult
from ..power.sensor import INA219Config
from .pricing import EpochPricer
from .variation import DeviceProfile

#: Sentinel distinguishing "use the governor's own fault clock" from an
#: explicit per-step override (including an explicit ``None``).
_UNSET = object()


@dataclass(frozen=True)
class GovernorConfig:
    """Tuning of the re-plan loop.

    Attributes:
        epochs: telemetry epochs to simulate.
        epoch_s: sustained operation per epoch (back-to-back QoS
            windows); sets how fast temperature and battery move.
        drift_threshold: fractional measured-vs-predicted energy
            drift that triggers a re-plan.  The default sits about
            2x above the worst INA219 quantization+noise drift a
            nominal device shows (~1.5%), and below the steady-state
            thermal excess of a hot, leaky-corner device (~4%).
        max_replans: re-plan budget per device.
        sensor_config: INA219 configuration for the telemetry sensor.
        min_coverage: fraction of the window's trace time the sensor
            train must cover for the epoch's telemetry to count.
            Dropped conversions below this bar invalidate the epoch
            (the governor holds the last plan) instead of feeding a
            biased energy estimate into the drift trigger.
        widen_factor: multiplier applied to the drift tolerance per
            consecutive invalid-telemetry epoch -- after blind epochs
            the first fresh measurement is judged against a wider
            window so a momentarily stale prediction does not trigger
            a spurious re-plan.
        max_widen: cap on the accumulated widening factor.
    """

    epochs: int = 20
    epoch_s: float = 2.0
    drift_threshold: float = 0.03
    max_replans: int = 4
    sensor_config: Optional[INA219Config] = None
    min_coverage: float = 0.5
    widen_factor: float = 2.0
    max_widen: float = 8.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise PowerModelError("epochs must be >= 1")
        if self.epoch_s <= 0:
            raise PowerModelError("epoch_s must be positive")
        if self.drift_threshold <= 0:
            raise PowerModelError("drift_threshold must be positive")
        if self.max_replans < 0:
            raise PowerModelError("max_replans must be >= 0")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise PowerModelError("min_coverage must be in [0, 1]")
        if self.widen_factor < 1.0:
            raise PowerModelError("widen_factor must be >= 1")
        if self.max_widen < 1.0:
            raise PowerModelError("max_widen must be >= 1")


@dataclass(frozen=True)
class EpochSample:
    """Telemetry of one epoch.

    ``valid`` is False when the epoch's telemetry was unusable (sensor
    NACK, stuck register, coverage below the bar, or the window itself
    failed under injected faults); measured/drift are zeroed then and
    never feed the drift trigger.
    """

    epoch: int
    measured_energy_j: float
    predicted_energy_j: float
    drift: float
    met_qos: bool
    clamped: bool
    temperature_c: float
    charge_fraction: float
    replanned: bool
    valid: bool = True
    #: Energy the window actually burned under the true conditions
    #: (thermal excess included) -- the scenario engine compares this
    #: against its clairvoyant oracle.  Zero for failed windows.
    true_energy_j: float = 0.0


@dataclass(frozen=True)
class ReplanIntent:
    """A replan the governor wants but has not applied yet.

    Produced by :meth:`FleetGovernor.step` in ``defer_replan`` mode so
    an external control plane (the scenario engine routes these through
    the serve tier's admission) can approve or shed the re-solve before
    it is applied.

    Attributes:
        device_id: the device asking to re-plan.
        epoch: the epoch index the trigger fired in.
        extra_w: thermal excess leakage the re-price must compensate.
        cap_hz: battery/brownout frequency cap in force.
        drift: the measured-vs-predicted drift that (possibly)
            triggered the request.
        reason: machine-readable trigger (``qos_miss`` / ``clamped`` /
            ``drift``); the first that applies, in that priority.
    """

    device_id: int
    epoch: int
    extra_w: float
    cap_hz: float
    drift: float
    reason: str


@dataclass
class GovernorResult:
    """Outcome of supervising one device.

    Attributes:
        profile: the supervised device.
        final_plan: the plan in force after the last epoch.
        samples: per-epoch telemetry, in order.
        replans: re-solves actually applied.
        converged: the last epoch met its QoS budget with drift inside
            the tolerance and no frequency clamping.
        invalid_epochs: epochs whose telemetry was unusable.
        css_events: CSS failsafe interventions across the epochs.
        watchdog_resets: watchdog resets survived across the epochs.
        pll_retries: PLL lock retries absorbed across the epochs.
    """

    profile: DeviceProfile
    final_plan: DeploymentPlan
    samples: List[EpochSample] = field(default_factory=list)
    replans: int = 0
    drift_threshold: float = float("inf")
    invalid_epochs: int = 0
    css_events: int = 0
    watchdog_resets: int = 0
    pll_retries: int = 0

    @property
    def converged(self) -> bool:
        last = self.samples[-1] if self.samples else None
        return bool(
            last
            and last.met_qos
            and not last.clamped
            and abs(last.drift) <= self.drift_threshold
        )

    @property
    def epochs_met(self) -> int:
        """Epochs whose window met the QoS budget."""
        return sum(1 for s in self.samples if s.met_qos)


class DeviceState:
    """The physics of one deployed device: plan, cell and die.

    The one model both the governor and the scenario engine's
    clairvoyant oracle twin integrate, so the oracle gap compares two
    runs of the same physics.  Holds the plan in force, the battery
    state, the thermal network and the junction temperature.
    """

    def __init__(self, plan: DeploymentPlan, profile: DeviceProfile):
        self.plan = plan
        self.battery = profile.battery
        self.thermal = profile.thermal
        self.temperature_c = self.thermal.t_ambient_c

    @property
    def extra_w(self) -> float:
        """Leakage power above the calibration reference at the
        current junction temperature (the thermal excess)."""
        thermal = self.thermal
        return (
            thermal.leakage_at(self.temperature_c) - thermal.leakage_ref_w
        )

    @property
    def cap_hz(self) -> float:
        """Highest SYSCLK the cell's rail can currently hold."""
        return self.battery.max_sysclk_hz()

    def set_ambient(self, t_ambient_c: float) -> None:
        """Move the device into a new ambient temperature.

        Only the thermal network's relaxation target moves; the leakage
        calibration reference stays at deployment conditions, so a
        hotter ambient raises the junction trajectory and with it the
        thermal excess the governor must compensate.
        """
        self.thermal = replace(self.thermal, t_ambient_c=t_ambient_c)

    def idle(self, duration_s: float, sleep_power_w: float = 0.25e-3) -> None:
        """Advance physics across a window-free stretch of time.

        The device sleeps: the cell drains at the sleep floor and the
        die relaxes toward its (sleep-power) steady state on the exact
        exponential solution of the RC model -- idle stretches span
        many thermal time constants, where the per-window explicit
        Euler step would be unstable.  No RNG is consumed, so idling
        never shifts the telemetry noise stream.
        """
        if duration_s < 0:
            raise PowerModelError("duration_s must be >= 0")
        thermal = self.thermal
        self.battery = self.battery.discharged(sleep_power_w * duration_s)
        t_ss = thermal.t_ambient_c + sleep_power_w * thermal.r_th_c_per_w
        decay = math.exp(-duration_s / thermal.time_constant_s)
        self.temperature_c = t_ss + (self.temperature_c - t_ss) * decay

    def advance(
        self, true_energy_j: float, window_s: float, epoch_s: float
    ) -> None:
        """Epoch bookkeeping after a window ran.

        The window's average true power is sustained for the epoch: the
        cell drains by it and the die integrates toward the operating
        temperature it sets.
        """
        avg_power = true_energy_j / window_s if window_s > 0 else 0.0
        self.battery = self.battery.discharged(avg_power * epoch_s)
        self.temperature_c = self.thermal.temperature_step(
            self.temperature_c, avg_power, epoch_s
        )

    def snapshot(self) -> Dict:
        """Checkpoint fields (``temperature`` is the v2 schema key)."""
        return {
            "plan": self.plan,
            "battery": self.battery,
            "thermal": self.thermal,
            "temperature": self.temperature_c,
        }

    def restore(self, state: Dict) -> None:
        """Overwrite the physics from a :meth:`snapshot` dict."""
        self.plan = state["plan"]
        self.battery = state["battery"]
        self.thermal = state["thermal"]
        self.temperature_c = state["temperature"]


class FleetGovernor:
    """Supervises one device's deployed plan across telemetry epochs.

    Tolerates faulty telemetry: missing (NACKed), stuck or
    under-covered sensor readings invalidate the epoch -- the governor
    holds the last plan and judges the next fresh measurement against
    a temporarily widened drift window -- and a window that fails
    outright under injected faults is recorded as a missed, invalid
    epoch rather than killing the supervision loop.  ``fault_clock``
    is ``None`` by default, in which case every epoch is bit-identical
    to the fault-free governor.
    """

    def __init__(
        self,
        pipeline: DAEDVFSPipeline,
        profile: DeviceProfile,
        model: Model,
        optimized: OptimizationResult,
        config: Optional[GovernorConfig] = None,
        fault_clock=None,
    ):
        self.pipeline = pipeline
        self.profile = profile
        self.model = model
        self.optimized = optimized
        self.config = config or GovernorConfig()
        self.fault_clock = fault_clock
        self._pricer = EpochPricer(pipeline, model)
        #: Device-priced MCKP classes rebuilt from the cached fronts;
        #: every re-plan re-prices THESE -- exploration never re-runs.
        self.base_classes = front_classes(optimized.pareto_fronts)

    # -- supervision state -------------------------------------------------------

    def start(self) -> None:
        """(Re)initialize the supervision state.

        :meth:`supervise` calls this implicitly; external drivers (the
        scenario engine, tests) call it once and then drive
        :meth:`step` with injected timestamps.  Calling it again
        restarts supervision from the deployment plan with a fresh
        sensor stream, exactly like a second :meth:`supervise` call.
        """
        profile = self.profile
        self._sensor = profile.make_sensor(
            self.config.sensor_config, fault_clock=self.fault_clock
        )
        self._device = DeviceState(self.optimized.plan, profile)
        #: Extra leakage power the current plan's pricing already
        #: accounts for (set at re-plan time); drift is measured
        #: against prediction *including* this compensation.
        self._compensated_w = 0.0
        self._samples: List[EpochSample] = []
        self._replans = 0
        #: Consecutive epochs with unusable telemetry; widens the
        #: drift window the first fresh measurement is judged against.
        self._invalid_streak = 0
        self._invalid_epochs = 0
        self._css_events = 0
        self._watchdog_resets = 0
        self._pll_retries = 0
        self._epoch = 0
        self._pending: Optional[ReplanIntent] = None
        self._started = True

    # Views the scenario engine reads and drives between steps.

    @property
    def device(self) -> DeviceState:
        """The device's physics (plan, cell, die); assign its
        ``battery`` for cell swap / recharge events."""
        self._require_started()
        return self._device

    @property
    def epochs_run(self) -> int:
        """Epochs stepped since :meth:`start`."""
        self._require_started()
        return self._epoch

    @property
    def replans_used(self) -> int:
        """Re-solves applied since :meth:`start`."""
        self._require_started()
        return self._replans

    @property
    def pending_replan(self) -> Optional[ReplanIntent]:
        """The deferred replan awaiting :meth:`apply_replan`, if any."""
        self._require_started()
        return self._pending

    def _require_started(self) -> None:
        if not getattr(self, "_started", False):
            self.start()

    # -- the supervision loop ----------------------------------------------------

    def supervise(self) -> GovernorResult:
        """Run the configured epochs on the governor's own clock.

        The zero-argument path: epoch *k* is measured at
        ``k * epoch_s``, exactly the back-to-back window train the
        fleet path has always simulated.  Equivalent to ``start()``,
        ``epochs`` calls to ``step()`` and ``result()``.
        """
        self.start()
        for epoch in range(self.config.epochs):
            self.step(epoch * self.config.epoch_s)
        return self.result()

    def step(
        self,
        now: Optional[float] = None,
        fault_clock=_UNSET,
        defer_replan: bool = False,
    ) -> EpochSample:
        """Run one telemetry epoch at an injected timestamp.

        Args:
            now: absolute simulation time the epoch's measurement
                starts at; the INA219's deterministic thermal drift is
                a function of this time.  ``None`` keeps the internal
                clock (``epochs_run * epoch_s``).
            fault_clock: per-step fault stream override (the scenario
                engine stages campaign windows this way); omitted, the
                governor's own clock applies.
            defer_replan: do not apply a triggered re-plan inline;
                publish it as :attr:`pending_replan` for an external
                control plane to :meth:`apply_replan` or
                :meth:`decline_replan`.  With admission always granted
                the apply path is bit-identical to the inline path.

        Returns:
            The epoch's :class:`EpochSample` (also appended to the
            supervision record).
        """
        self._require_started()
        cfg = self.config
        profile = self.profile
        fault = self.fault_clock if fault_clock is _UNSET else fault_clock
        device = self._device
        sensor = self._sensor
        sensor.fault_clock = fault
        epoch = self._epoch
        if now is None:
            now = epoch * cfg.epoch_s
        self._pending = None

        cap_hz = device.cap_hz
        if fault is not None and fault.brownout_sag():
            # The rail sags below nominal for this epoch: derate
            # the sustainable SYSCLK on top of the battery cap.
            cap_hz *= fault.plan.brownout_derate
        exec_plan, clamped = self._pricer.clamp(device.plan, cap_hz)
        try:
            window = self._pricer.window(
                exec_plan, self.optimized.qos_s, fault
            )
        except ReproError:
            # The window itself died (watchdog never made forward
            # progress, PLL never locked): a missed, invalid epoch.
            # The plan is held; the next epoch tries again.
            self._invalid_streak += 1
            self._invalid_epochs += 1
            get_audit_log().record(
                "governor.epoch",
                "window_failed",
                device_id=profile.device_id,
                epoch=epoch,
                clamped=clamped,
            )
            get_registry().count(
                "fleet.governor", event="window_failed"
            )
            sample = EpochSample(
                epoch=epoch,
                measured_energy_j=0.0,
                predicted_energy_j=0.0,
                drift=0.0,
                met_qos=False,
                clamped=clamped,
                temperature_c=device.temperature_c,
                charge_fraction=device.battery.charge_fraction,
                replanned=False,
                valid=False,
            )
            self._samples.append(sample)
            self._epoch += 1
            return sample
        self._css_events += window.css_events
        self._watchdog_resets += window.watchdog_resets
        self._pll_retries += window.pll_retries
        extra_w = device.extra_w
        # The window as the silicon actually burns it (raises
        # TraceError if the excess drives an interval negative).
        true_powers = window.true_powers(extra_w)
        true_energy = window.true_energy_j(true_powers)
        telemetry_valid = True
        try:
            train = sensor.measure(
                list(zip(window.durations, true_powers)), start_time_s=now
            )
        except SensorReadError:
            train = []
            telemetry_valid = False
        if telemetry_valid and fault is not None:
            # Sanity-screen the train before trusting it: too many
            # dropped conversions bias the rectangle-rule energy
            # low, and a stuck power register reads as a perfectly
            # flat train.  (Guarded on fault mode: a nominal
            # sensor never produces either.)
            total_t = sum(window.durations)
            covered = sensor.covered_duration_s(train)
            if covered < cfg.min_coverage * total_t:
                telemetry_valid = False
            elif len(train) >= 2 and len(
                {s.power_w for s in train}
            ) == 1:
                telemetry_valid = False
        predicted = window.energy_j + self._compensated_w * window.leaky_s
        if telemetry_valid:
            measured = sensor.estimate_energy(train)
            drift = (
                (measured - predicted) / predicted
                if predicted > 0
                else 0.0
            )
        else:
            measured = 0.0
            drift = 0.0
            self._invalid_epochs += 1
        met = window.met_qos

        # Blind epochs widen the tolerance the next fresh
        # measurement is judged against (stale compensation would
        # otherwise read as drift); QoS-miss and clamp triggers
        # stay live -- they come from the run, not the sensor.
        threshold = cfg.drift_threshold * min(
            cfg.widen_factor**self._invalid_streak, cfg.max_widen
        )
        drift_trigger = telemetry_valid and abs(drift) > threshold
        wants_replan = (
            not met or clamped or drift_trigger
        ) and self._replans < cfg.max_replans
        replanned = False
        if wants_replan:
            intent = ReplanIntent(
                device_id=profile.device_id,
                epoch=epoch,
                extra_w=extra_w,
                cap_hz=cap_hz,
                drift=drift,
                reason=(
                    "qos_miss"
                    if not met
                    else ("clamped" if clamped else "drift")
                ),
            )
            if defer_replan:
                self._pending = intent
            else:
                replanned = self._land(intent)
        # Audit the epoch's decision with the inputs it was made
        # from -- strictly observational, recorded after every
        # value above is already computed.
        if replanned:
            decision = "replan"
        elif self._pending is not None:
            decision = "replan_pending"
        elif not met or clamped or drift_trigger:
            decision = "replan_unavailable"
        elif not telemetry_valid:
            decision = "hold_invalid_telemetry"
        else:
            decision = "hold"
        get_audit_log().record(
            "governor.epoch",
            decision,
            device_id=profile.device_id,
            epoch=epoch,
            drift=drift,
            threshold=threshold,
            predicted_energy_j=predicted,
            measured_energy_j=measured,
            met_qos=met,
            clamped=clamped,
            telemetry_valid=telemetry_valid,
        )
        get_registry().count("fleet.governor", event=decision)
        self._invalid_streak = (
            0 if telemetry_valid else self._invalid_streak + 1
        )

        # Physics advance even when telemetry was unusable -- the
        # window still ran and burned energy.
        device.advance(true_energy, window.window_s, cfg.epoch_s)
        sample = EpochSample(
            epoch=epoch,
            measured_energy_j=measured,
            predicted_energy_j=predicted,
            drift=drift,
            met_qos=met,
            clamped=clamped,
            temperature_c=device.temperature_c,
            charge_fraction=device.battery.charge_fraction,
            replanned=replanned,
            valid=telemetry_valid,
            true_energy_j=true_energy,
        )
        self._samples.append(sample)
        self._epoch += 1
        return sample

    def apply_replan(self) -> bool:
        """Apply the pending deferred re-plan; True when a plan landed.

        Bit-identical to the inline path of :meth:`step`: the re-solve
        runs with exactly the inputs the trigger fired on.  Clears the
        pending intent either way.
        """
        self._require_started()
        intent = self._pending
        if intent is None:
            raise ReproError("no pending replan to apply")
        self._pending = None
        applied = self._land(intent)
        if applied and self._samples:
            self._samples[-1] = replace(self._samples[-1], replanned=True)
        decision = "replan" if applied else "replan_unavailable"
        get_audit_log().record(
            "governor.epoch",
            decision,
            device_id=intent.device_id,
            epoch=intent.epoch,
            drift=intent.drift,
            reason=intent.reason,
            deferred=True,
        )
        get_registry().count("fleet.governor", event=decision)
        return applied

    def decline_replan(self, reason: str = "shed") -> None:
        """Drop the pending re-plan (control plane shed the request)."""
        self._require_started()
        intent = self._pending
        if intent is None:
            raise ReproError("no pending replan to decline")
        self._pending = None
        get_audit_log().record(
            "governor.epoch",
            "replan_shed",
            device_id=intent.device_id,
            epoch=intent.epoch,
            drift=intent.drift,
            reason=reason,
        )
        get_registry().count("fleet.governor", event="replan_shed")

    def result(self) -> GovernorResult:
        """The supervision record accumulated so far."""
        self._require_started()
        return GovernorResult(
            profile=self.profile,
            final_plan=self._device.plan,
            samples=self._samples,
            replans=self._replans,
            drift_threshold=self.config.drift_threshold,
            invalid_epochs=self._invalid_epochs,
            css_events=self._css_events,
            watchdog_resets=self._watchdog_resets,
            pll_retries=self._pll_retries,
        )

    def snapshot(self) -> Dict:
        """The mutable supervision state, for a scenario checkpoint."""
        self._require_started()
        return {
            **self._device.snapshot(),
            "compensated_w": self._compensated_w,
            "samples": list(self._samples),
            "replans": self._replans,
            "invalid_streak": self._invalid_streak,
            "invalid_epochs": self._invalid_epochs,
            "css_events": self._css_events,
            "watchdog_resets": self._watchdog_resets,
            "pll_retries": self._pll_retries,
            "epoch": self._epoch,
            "pending": self._pending,
            "sensor_rng_state": self._sensor._rng.bit_generator.state,
        }

    def restore(self, state: Dict) -> None:
        """Overwrite the supervision state from a :meth:`snapshot`."""
        self._require_started()
        self._device.restore(state)
        self._compensated_w = state["compensated_w"]
        self._samples = list(state["samples"])
        self._replans = state["replans"]
        self._invalid_streak = state["invalid_streak"]
        self._invalid_epochs = state["invalid_epochs"]
        self._css_events = state["css_events"]
        self._watchdog_resets = state["watchdog_resets"]
        self._pll_retries = state["pll_retries"]
        self._epoch = state["epoch"]
        self._pending = state["pending"]
        self._sensor._rng.bit_generator.state = state["sensor_rng_state"]

    def _land(self, intent: ReplanIntent) -> bool:
        """Re-solve for the conditions ``intent`` fired on and swap the
        plan in; True when a plan landed.  The one re-plan path of both
        the inline and the deferred trigger."""
        new_plan = resolve_replan(
            self.pipeline,
            self.model,
            self.base_classes,
            extra_w=intent.extra_w,
            cap_hz=intent.cap_hz,
            budget=self.optimized.qos_s,
            fixed=self.optimized.fixed_overhead_s,
        )
        if new_plan is None:
            return False
        self._device.plan = new_plan
        self._compensated_w = intent.extra_w
        self._replans += 1
        return True


def resolve_replan(
    pipeline: DAEDVFSPipeline,
    model: Model,
    base_classes: List[List[MCKPItem]],
    *,
    extra_w: float,
    cap_hz: float,
    budget: float,
    fixed: float,
) -> Optional[DeploymentPlan]:
    """The governor's and the oracle twin's view of the drift re-solve.

    :meth:`~repro.pipeline.DAEDVFSPipeline.replan` on the device's
    cached Pareto-front classes, or ``None`` when it raises: a device
    no plan fits keeps the one it runs.  Kept as a module function
    because the perf harness's traced mode wraps it as the
    ``fleet.governor`` layer and counts a ``None`` as
    ``resolve_failed``.
    """
    try:
        return pipeline.replan(
            model, base_classes, budget, fixed,
            extra_w=extra_w, cap_hz=cap_hz,
        )
    except ReproError:
        return None


def supervise_device(
    pipeline: DAEDVFSPipeline,
    profile: DeviceProfile,
    model: Model,
    optimized: OptimizationResult,
    config: Optional[GovernorConfig] = None,
    fault_clock=None,
) -> GovernorResult:
    """Convenience wrapper: build a governor and run it."""
    return FleetGovernor(
        pipeline, profile, model, optimized, config, fault_clock=fault_clock
    ).supervise()
