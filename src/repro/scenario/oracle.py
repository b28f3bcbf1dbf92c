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

The twin integrates the governed device's physics through the same
class, :class:`~repro.fleet.governor.DeviceState` -- thermal excess,
rail cap, post-window discharge and thermal step, exact-exponential
idle -- and prices its windows through the same
:class:`~repro.fleet.pricing.EpochPricer`, with the sensor, faults,
and drift trigger removed.  The scenario engine drives ambient shifts
and idle stretches into both ``DeviceState`` objects alike.  The twin
consumes no RNG, so adding or removing oracle twins never perturbs a
scenario's stochastic streams.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import PowerModelError, ReproError
from ..fleet.governor import DeviceState, GovernorConfig, resolve_replan
from ..fleet.pricing import EpochPricer
from ..fleet.variation import DeviceProfile
from ..nn.graph import Model
from ..optimize.mckp import front_classes
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
        self.base_classes = front_classes(optimized.pareto_fronts)
        self.start()

    def start(self) -> None:
        """(Re)initialize the twin at deployment conditions."""
        self.device = DeviceState(self.optimized.plan, self.profile)
        self._bucket: Tuple[int, float] = (0, self.device.cap_hz)
        self.replans = 0
        self.epochs = 0
        self.epochs_met = 0
        self.true_energy_j = 0.0

    def snapshot(self) -> Dict:
        """The twin's mutable state, for a scenario checkpoint."""
        return {
            **self.device.snapshot(),
            "bucket": self._bucket,
            "replans": self.replans,
            "epochs": self.epochs,
            "epochs_met": self.epochs_met,
            "true_energy_j": self.true_energy_j,
        }

    def restore(self, state: Dict) -> None:
        """Overwrite the twin's state from a :meth:`snapshot`."""
        self.device.restore(state)
        self._bucket = state["bucket"]
        self.replans = state["replans"]
        self.epochs = state["epochs"]
        self.epochs_met = state["epochs_met"]
        self.true_energy_j = state["true_energy_j"]

    def step(self) -> bool:
        """Run one clairvoyant epoch; True when the window met QoS.

        The twin re-solves *before* the window whenever the quantized
        operating point moved -- the defining clairvoyance: it never
        pays a drifted window to learn the drift exists.
        """
        device = self.device
        cap_hz = device.cap_hz
        extra_w = device.extra_w
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
                device.plan = new_plan
                self.replans += 1
        exec_plan, _clamped = self._pricer.clamp(device.plan, cap_hz)
        try:
            window = self._pricer.window(exec_plan, self.optimized.qos_s)
        except ReproError:
            # Fault-free runs do not die; treat defensively as a
            # missed window with no energy accounted.
            self.epochs += 1
            return False
        true_energy = window.true_energy_j(window.true_powers(extra_w))
        device.advance(true_energy, window.window_s, self.config.epoch_s)
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
