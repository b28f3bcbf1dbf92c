"""Oracle twin: same physics as the governed device, minus the loop.

The scenario report's oracle gap compares the governed fleet with its
clairvoyant twins; it measures the closed-loop tax only when both sides
integrate the same battery and thermal physics.  With the twin's
re-solve bucket wider than any excess and the governor's replan budget
at zero, both run the deployment plan, so every physics value must
match bit for bit -- through windows, an idle stretch and an ambient
shift.
"""

import numpy as np
import pytest

from repro.analysis import Battery, BatteryState
from repro.fleet import FleetScheduler, GovernorConfig, aggregate_fleet
from repro.fleet.governor import FleetGovernor
from repro.fleet.variation import DeviceProfile
from repro.mcu import make_nucleo_f767zi
from repro.nn import build_tiny_test_model
from repro.optimize import MODERATE
from repro.power.model import PowerModelParams
from repro.power.thermal import ThermalModelParams
from repro.scenario.oracle import OracleTwin
from repro.scenario.report import ScenarioReport


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_test_model()


def hot_profile():
    base = PowerModelParams()
    params = base.scaled(p_mcu_leakage_w=base.p_mcu_leakage_w * 6.0)
    return DeviceProfile(
        device_id=0,
        board=make_nucleo_f767zi(power_params=params),
        thermal=ThermalModelParams(
            t_ambient_c=55.0, leakage_ref_w=params.p_mcu_leakage_w
        ),
        battery=BatteryState(battery=Battery()),
        sensor_seed=np.random.SeedSequence(123),
    )


def test_twin_physics_match_the_governed_device(tiny):
    profile = hot_profile()
    scheduler = FleetScheduler(tiny, qos_level=MODERATE)
    result = scheduler.plan_device(profile)
    pipeline = scheduler.pipeline_for(profile)
    config = GovernorConfig(max_replans=0)
    governor = FleetGovernor(
        pipeline, profile, tiny, result.optimized, config
    )
    governor.start()
    twin = OracleTwin(
        pipeline, profile, tiny, result.optimized, config, quant_w=1e9
    )
    governed_j = 0.0
    for epoch in range(8):
        if epoch == 3:
            governor.device.idle(120.0)
            twin.device.idle(120.0)
        if epoch == 5:
            governor.device.set_ambient(60.0)
            twin.device.set_ambient(60.0)
        governed_j += governor.step().true_energy_j
        assert twin.step()
        assert twin.device.temperature_c == governor.device.temperature_c
        assert twin.device.battery == governor.device.battery
    assert twin.replans == 0
    assert governed_j > 0.0
    assert twin.true_energy_j == governed_j
    # The run really moved the physics it compares.
    assert governor.device.temperature_c > 60.0
    assert governor.device.battery.charge_fraction < 1.0


@pytest.mark.parametrize(
    "governed_j, rendered",
    [
        (0.995, "oracle gap: -0.50% energy"),
        (1.02, "oracle gap: +2.00% energy"),
    ],
)
def test_oracle_gap_renders_its_sign(tiny, governed_j, rendered):
    """Bucket quantization lets a governed fleet beat its twins; the
    gap then reads negative, never ``+-``."""
    report = ScenarioReport(
        name="gap",
        model_name=tiny.name,
        qos_s=1.0,
        seed=0,
        horizon_s=3600.0,
        tick_s=60.0,
        devices_initial=0,
        fleet=aggregate_fleet(tiny, 1.0, []),
        oracle={
            "devices": 2,
            "governed_true_energy_j": governed_j,
            "oracle_true_energy_j": 1.0,
        },
    )
    assert rendered in report.summary()
