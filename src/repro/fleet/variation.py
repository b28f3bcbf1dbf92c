"""Seeded per-device parameter sampling for simulated fleets.

A real deployment fleet is not N copies of the datasheet board:
process corners spread the static/leakage power, oscillator and VCO
driver strengths vary part to part, devices sit in different ambient
temperatures and start from different battery states (Bartoli et al.
2025 measure enough energy/latency spread across identical MCU SKUs to
change deployment rankings).  :func:`sample_fleet` draws that
heterogeneity reproducibly: one root seed spawns an independent
:class:`numpy.random.SeedSequence` per device, so device *k* of a
1000-device fleet sees the same perturbations whatever order the fleet
is planned in, or if it is resampled tomorrow.

Deliberate modelling constraint: variation perturbs only the **power**
side of the board -- static power, leakage, dynamic coefficients,
ambient temperature, battery state.  Cycle counts, cache geometry,
memory timings and switch latencies are identical across the fleet
(they are design properties, not process/environment properties, to
first order).  That is what lets the fleet scheduler share traces,
time decompositions and replayed interval schedules across every
device and re-price only the energy per device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.battery import Battery, BatteryState
from ..errors import PowerModelError
from ..mcu.board import Board, make_nucleo_f767zi
from ..power.model import PowerModelParams
from ..power.sensor import INA219Config, INA219Sensor
from ..power.thermal import ThermalModelParams


@dataclass(frozen=True)
class VariationModel:
    """Distribution parameters of the per-device perturbations.

    Multiplicative spreads are log-normal sigmas (keeps every constant
    positive); ambient temperature and battery charge draw uniformly
    from their ranges.

    Attributes:
        static_sigma: spread of the board static power.
        leakage_sigma: spread of the MCU leakage (process corner; the
            widest spread, as leakage varies exponentially with
            threshold voltage).
        k_core_sigma: spread of the core dynamic coefficient.
        k_vco_sigma: spread of the VCO dynamic coefficient.
        k_hse_sigma: spread of the HSE driver coefficient.
        ambient_low_c / ambient_high_c: uniform ambient range the
            fleet is deployed into.
        charge_low / charge_high: uniform battery state-of-charge
            range at deployment time.
    """

    static_sigma: float = 0.08
    leakage_sigma: float = 0.18
    k_core_sigma: float = 0.05
    k_vco_sigma: float = 0.06
    k_hse_sigma: float = 0.05
    ambient_low_c: float = 10.0
    ambient_high_c: float = 40.0
    charge_low: float = 0.35
    charge_high: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "static_sigma",
            "leakage_sigma",
            "k_core_sigma",
            "k_vco_sigma",
            "k_hse_sigma",
        ):
            if getattr(self, name) < 0:
                raise PowerModelError(f"{name} must be >= 0")
        if self.ambient_high_c < self.ambient_low_c:
            raise PowerModelError("ambient range is inverted")
        if not 0.0 <= self.charge_low <= self.charge_high <= 1.0:
            raise PowerModelError("charge range must be within [0, 1]")


@dataclass(frozen=True)
class DeviceProfile:
    """One simulated device of the fleet.

    Attributes:
        device_id: stable index within the fleet (ties results to the
            sampling order, not the execution order).
        board: the device's board -- nominal timing models, perturbed
            power model.
        thermal: the device's thermal network (its ambient, its
            leakage reference).
        battery: the device's battery at deployment time.
        sensor_seed: this device's private INA219 noise stream (a
            spawned child of the fleet seed; no two devices share it).
    """

    device_id: int
    board: Board
    thermal: ThermalModelParams
    battery: BatteryState
    sensor_seed: np.random.SeedSequence = field(repr=False)

    def make_sensor(
        self, config: Optional[INA219Config] = None, fault_clock=None
    ) -> INA219Sensor:
        """This device's INA219, on its own seeded noise stream.

        ``fault_clock`` optionally wires the sensor's dropout / stuck /
        NACK fault hooks (see :class:`repro.faults.plan.FaultClock`).
        """
        return INA219Sensor(
            config=config, seed=self.sensor_seed, fault_clock=fault_clock
        )


def _lognormal(rng: np.random.Generator, sigma: float) -> float:
    """Multiplicative perturbation factor with log-sigma ``sigma``."""
    if sigma == 0.0:
        return 1.0
    return float(np.exp(sigma * rng.standard_normal()))


def sample_device(
    device_id: int,
    seed_seq: np.random.SeedSequence,
    variation: VariationModel,
    base_power: PowerModelParams,
    base_battery: Battery,
    board_name: Optional[str] = None,
) -> DeviceProfile:
    """Draw one device from its private seed sequence.

    ``board_name`` selects the unit's hardware target from the board
    registry (heterogeneous fleets); ``None`` keeps the historical
    F767 path, byte-identical to pre-registry sampling.  The draw
    order is independent of the board, so device *k*'s perturbation
    stream is the same whichever target it lands on.
    """
    rng = np.random.default_rng(seed_seq)
    params = base_power.scaled(
        p_board_static_w=base_power.p_board_static_w
        * _lognormal(rng, variation.static_sigma),
        p_mcu_leakage_w=base_power.p_mcu_leakage_w
        * _lognormal(rng, variation.leakage_sigma),
        k_core_w_per_hz=base_power.k_core_w_per_hz
        * _lognormal(rng, variation.k_core_sigma),
        k_vco_w_per_hz=base_power.k_vco_w_per_hz
        * _lognormal(rng, variation.k_vco_sigma),
        k_hse_w_per_hz=base_power.k_hse_w_per_hz
        * _lognormal(rng, variation.k_hse_sigma),
    )
    ambient = float(
        rng.uniform(variation.ambient_low_c, variation.ambient_high_c)
    )
    charge = float(
        rng.uniform(variation.charge_low, variation.charge_high)
    )
    if board_name is None:
        board = make_nucleo_f767zi(power_params=params)
    else:
        from ..boards.registry import get_spec

        board = get_spec(board_name).build(power_params=params)
    thermal = ThermalModelParams(
        t_ambient_c=ambient,
        leakage_ref_w=params.p_mcu_leakage_w,
    )
    battery = BatteryState(battery=base_battery, charge_fraction=charge)
    # One child for the sensor so future per-device streams (e.g. a
    # workload-arrival process) can spawn siblings without touching it.
    sensor_seed = seed_seq.spawn(1)[0]
    return DeviceProfile(
        device_id=device_id,
        board=board,
        thermal=thermal,
        battery=battery,
        sensor_seed=sensor_seed,
    )


def sample_fleet(
    n_devices: int,
    seed: int = 0,
    variation: Optional[VariationModel] = None,
    base_power: Optional[PowerModelParams] = None,
    base_battery: Optional[Battery] = None,
    boards: Optional[Sequence[str]] = None,
) -> List[DeviceProfile]:
    """Sample a reproducible heterogeneous fleet.

    Args:
        n_devices: fleet size.
        seed: root seed; each device gets an independent spawned
            child stream, so the fleet is order-independent and
            resampling with the same seed is bit-identical.
        variation: spread parameters (defaults above).
        base_power: nominal power constants the spreads multiply.
            When ``boards`` is given and this is ``None``, each
            device's nominal constants come from its board's spec.
        base_battery: cell model every device starts from.
        boards: registry names to mix (heterogeneous fleet).  Each
            device's target is drawn from a *separate* spawned stream,
            so the per-device perturbation streams are exactly the
            ones the homogeneous fleet would see; ``None`` keeps the
            historical F767-only sampling bit-identical.

    Raises:
        PowerModelError: for a non-positive fleet size or an empty
            board mix.
    """
    if n_devices <= 0:
        raise PowerModelError("n_devices must be positive")
    variation = variation or VariationModel()
    base_battery = base_battery or Battery()
    root = np.random.SeedSequence(seed)
    children = root.spawn(n_devices)
    if boards is None:
        base = base_power or PowerModelParams()
        return [
            sample_device(i, child, variation, base, base_battery)
            for i, child in enumerate(children)
        ]
    board_list = list(boards)
    if not board_list:
        raise PowerModelError("boards must name at least one registry entry")
    from ..boards.registry import get_spec

    specs = {name: get_spec(name) for name in board_list}
    # Assignment consumes its own spawned stream (a sibling of the
    # device streams), so mixing boards never shifts the per-device
    # perturbation draws.
    assign_rng = np.random.default_rng(root.spawn(1)[0])
    assignment = [
        board_list[int(k)]
        for k in assign_rng.integers(0, len(board_list), size=n_devices)
    ]
    return [
        sample_device(
            i,
            child,
            variation,
            base_power or specs[name].base_power_params(),
            base_battery,
            board_name=name,
        )
        for i, (child, name) in enumerate(zip(children, assignment))
    ]
