"""Clairvoyant oracle twin: the energy lower bound for the gap metric.

The governor reacts: it measures drift with a noisy INA219, waits for
a trigger, then re-solves.  The oracle *knows*: it sees the true
junction temperature and rail state before every window, re-prices the
cached Pareto fronts the moment the operating point moves to a new
quantized bucket, and runs fault-free with no sensor in the loop.  Its
summed true energy over the same activity schedule is (up to bucket
quantization) the best any re-planning policy could have done with the
same plan space -- so the scenario report's ``oracle_gap`` is the
closed-loop tax: energy the fleet burned because it had to *discover*
the drift instead of knowing it.

The twin replays exactly the physics of the governed device -- same
:func:`~repro.fleet.pricing.clamp_plan_to_cap` clamping, same leaky
thermal excess on :data:`~repro.fleet.pricing.LEAKY_STATES`, same
battery/temperature bookkeeping, same exact-exponential idle -- with
the sensor, faults, and drift trigger removed.  It prices its windows
through the same :class:`~repro.fleet.pricing.EpochPricer` as the
governor.  It consumes no RNG, so adding or removing oracle twins
never perturbs a scenario's stochastic streams.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..engine.schedule import DeploymentPlan
from ..errors import PowerModelError, ReproError
from ..fleet.governor import GovernorConfig, resolve_replan
from ..fleet.pricing import EpochPricer
from ..fleet.variation import DeviceProfile
from ..nn.graph import Model
from ..optimize.mckp import MCKPItem
from ..pipeline import DAEDVFSPipeline, OptimizationResult


class OracleTwin:
    """Clairvoyant shadow of one device.

    Args:
        pipeline: the (shared, board-keyed) planning pipeline.
        profile: the device being shadowed.
        model: the deployed network.
        optimized: the deployment-time optimization result.
        config: governor tuning (only ``epoch_s`` is used).
        quant_w: thermal-excess quantization bucket.  The twin
            re-solves only when ``extra_w`` crosses into a new bucket
            (or the frequency cap moves), bounding re-solves while
            staying within one bucket of the continuous optimum.
    """

    def __init__(
        self,
        pipeline: DAEDVFSPipeline,
        profile: DeviceProfile,
        model: Model,
        optimized: OptimizationResult,
        config: Optional[GovernorConfig] = None,
        quant_w: float = 0.002,
    ):
        if quant_w <= 0:
            raise PowerModelError("quant_w must be positive")
        self.pipeline = pipeline
        self.profile = profile
        self.model = model
        self.optimized = optimized
        self.config = config or GovernorConfig()
        self.quant_w = quant_w
        self._pricer = EpochPricer(pipeline, model)
        node_ids = sorted(optimized.pareto_fronts)
        self.base_classes = [
            [
                MCKPItem(
                    weight=p.latency_s, value=p.energy_j, payload=p
                )
                for p in optimized.pareto_fronts[node_id]
            ]
            for node_id in node_ids
        ]
        self.start()

    def start(self) -> None:
        """(Re)initialize the twin at deployment conditions."""
        self._plan: DeploymentPlan = self.optimized.plan
        self._battery = self.profile.battery
        self._thermal = self.profile.thermal
        self._temperature = self._thermal.t_ambient_c
        self._bucket: Tuple[int, float] = (
            0,
            self._battery.max_sysclk_hz(),
        )
        self.replans = 0
        self.epochs = 0
        self.epochs_met = 0
        self.true_energy_j = 0.0

    def set_ambient(self, t_ambient_c: float) -> None:
        """Mirror the governed device's ambient shift."""
        self._thermal = replace(self._thermal, t_ambient_c=t_ambient_c)

    def idle(
        self, duration_s: float, sleep_power_w: float = 0.25e-3
    ) -> None:
        """Mirror the governed device's window-free stretch."""
        if duration_s < 0:
            raise PowerModelError("duration_s must be >= 0")
        thermal = self._thermal
        self._battery = self._battery.discharged(
            sleep_power_w * duration_s
        )
        t_ss = (
            thermal.t_ambient_c + sleep_power_w * thermal.r_th_c_per_w
        )
        decay = math.exp(-duration_s / thermal.time_constant_s)
        self._temperature = t_ss + (self._temperature - t_ss) * decay

    def step(self) -> bool:
        """Run one clairvoyant epoch; True when the window met QoS.

        The twin re-solves *before* the window whenever the quantized
        operating point moved -- the defining clairvoyance: it never
        pays a drifted window to learn the drift exists.
        """
        cfg = self.config
        thermal = self._thermal
        cap_hz = self._battery.max_sysclk_hz()
        extra_w = (
            thermal.leakage_at(self._temperature)
            - thermal.leakage_ref_w
        )
        bucket = (int(round(extra_w / self.quant_w)), cap_hz)
        if bucket != self._bucket:
            self._bucket = bucket
            new_plan = resolve_replan(
                self.pipeline,
                self.model,
                self.base_classes,
                extra_w=extra_w,
                cap_hz=cap_hz,
                budget=self.optimized.qos_s,
                fixed=self.optimized.fixed_overhead_s,
            )
            if new_plan is not None:
                self._plan = new_plan
                self.replans += 1
        exec_plan, _clamped = self._pricer.clamp(self._plan, cap_hz)
        try:
            window = self._pricer.window(exec_plan, self.optimized.qos_s)
        except ReproError:
            # Fault-free runs do not die; treat defensively as a
            # missed window with no energy accounted.
            self.epochs += 1
            return False
        true_energy = window.true_energy_j(window.true_powers(extra_w))
        window_s = window.window_s
        avg_power = true_energy / window_s if window_s > 0 else 0.0
        self._battery = self._battery.discharged(
            avg_power * cfg.epoch_s
        )
        self._temperature = thermal.temperature_step(
            self._temperature, avg_power, cfg.epoch_s
        )
        self.epochs += 1
        self.true_energy_j += true_energy
        if window.met_qos:
            self.epochs_met += 1
        return window.met_qos

    def summary(self) -> Dict:
        """JSON-ready twin outcome."""
        return {
            "device_id": self.profile.device_id,
            "epochs": self.epochs,
            "epochs_met": self.epochs_met,
            "replans": self.replans,
            "true_energy_j": self.true_energy_j,
        }
