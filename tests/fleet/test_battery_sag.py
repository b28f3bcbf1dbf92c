"""Battery-sag clamping at the discharge-curve knee.

As the cell discharges past a supply-rail knee, the terminal voltage
can no longer hold the VOS scale the plan asked for and the governor
clamps every over-cap layer to the fastest rail-supported HFO.  These
tests pin the three contract points: the clamp engages exactly below
the knee, releases when the cell recovers (swap/recharge), and never
substitutes an HFO faster than the plan it clamps.
"""

import numpy as np
import pytest

from repro.analysis import Battery, BatteryState
from repro.analysis.battery import SUPPLY_RAILS
from repro.fleet import FleetScheduler, GovernorConfig
from repro.fleet.governor import FleetGovernor
from repro.fleet.pricing import clamp_plan_to_cap
from repro.fleet.variation import DeviceProfile
from repro.mcu import make_nucleo_f767zi
from repro.nn import build_tiny_test_model
from repro.optimize import TIGHT
from repro.power.model import PowerModelParams
from repro.power.thermal import ThermalModelParams


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_test_model()


def make_profile(charge=1.0):
    params = PowerModelParams()
    return DeviceProfile(
        device_id=0,
        board=make_nucleo_f767zi(power_params=params),
        thermal=ThermalModelParams(
            t_ambient_c=25.0, leakage_ref_w=params.p_mcu_leakage_w
        ),
        battery=BatteryState(
            battery=Battery(), charge_fraction=charge
        ),
        sensor_seed=np.random.SeedSequence(123),
    )


def plan_governor(tiny, max_replans=0, epochs=4):
    """Plan at full charge under TIGHT QoS, governor with a frozen
    plan (no re-plan budget) so the clamp physics are isolated."""
    profile = make_profile(charge=1.0)
    scheduler = FleetScheduler(tiny, qos_level=TIGHT)
    result = scheduler.plan_device(profile)
    assert result.error is None, result.error
    governor = FleetGovernor(
        scheduler.pipeline_for(profile),
        profile,
        tiny,
        result.optimized,
        GovernorConfig(epochs=epochs, max_replans=max_replans),
    )
    governor.start()
    return governor, result.optimized.plan


def plan_max_hz(plan):
    return max(lp.hfo.sysclk_hz for lp in plan.layer_plans.values())


def sag_state(target_v):
    """A BatteryState whose loaded terminal voltage is ``target_v``."""
    state = BatteryState(battery=Battery())
    full_v = state.voltage_v
    charge = 1.0 - (full_v - target_v) / state.droop_v
    sagged = BatteryState(battery=Battery(), charge_fraction=charge)
    assert sagged.voltage_v == pytest.approx(target_v)
    return sagged


def knee_below(plan_hz):
    """The discharge knee for a plan: the terminal voltage below
    which the rails can no longer hold the plan's fastest clock, and
    the cap that takes over just under it."""
    supporting = [v for v, hz in SUPPLY_RAILS if hz >= plan_hz]
    assert supporting, f"no rail supports {plan_hz} Hz"
    knee_v = min(supporting)
    below = [hz for v, hz in SUPPLY_RAILS if v < knee_v]
    assert below, (
        f"plan at {plan_hz} Hz fits even the lowest rail; nothing sags"
    )
    return knee_v, max(below)


class TestSagClamp:
    def test_clamp_engages_below_the_knee(self, tiny):
        governor, plan = plan_governor(tiny)
        knee_v, cap_hz = knee_below(plan_max_hz(plan))

        # A hair of terminal voltage above the knee: full cap, no clamp.
        governor.device.battery = sag_state(knee_v + 0.01)
        assert not governor.step().clamped

        # Just below the knee: the rail caps the plan's fastest layers.
        governor.device.battery = sag_state(knee_v - 0.01)
        sample = governor.step()
        assert sample.clamped
        assert governor.device.battery.max_sysclk_hz() == cap_hz

    def test_clamp_releases_on_recovery(self, tiny):
        governor, plan = plan_governor(tiny)
        knee_v, _cap_hz = knee_below(plan_max_hz(plan))

        governor.device.battery = sag_state(knee_v - 0.01)
        assert governor.step().clamped

        # Cell swap / recharge: the full rail returns and the very
        # next epoch runs the original plan unclamped.
        governor.device.battery = BatteryState(battery=Battery())
        assert not governor.step().clamped
        assert governor.device.plan is plan  # frozen plan never moved

    def test_clamp_never_raises_above_pre_sag_plan(self, tiny):
        governor, plan = plan_governor(tiny)
        hfo_configs = governor.pipeline.space.hfo_configs
        _knee_v, cap_hz = knee_below(plan_max_hz(plan))

        sagged, moved = clamp_plan_to_cap(plan, cap_hz, hfo_configs)
        assert moved
        assert plan_max_hz(sagged) <= cap_hz
        # Clamping only ever slows layers down, never speeds them up.
        for node_id, lp in sagged.layer_plans.items():
            assert (
                lp.hfo.sysclk_hz
                <= plan.layer_plans[node_id].hfo.sysclk_hz
            )

        # Recovery: a cap at (or above) the pre-sag plan's fastest
        # clock returns the plan untouched -- the clamp never
        # substitutes a faster HFO than the plan asked for.
        recovered, moved = clamp_plan_to_cap(
            plan, plan_max_hz(plan), hfo_configs
        )
        assert recovered is plan and not moved
        # And re-clamping the sagged plan at full rail keeps the
        # sagged choices rather than re-raising them.
        held, moved = clamp_plan_to_cap(
            sagged, max(c.sysclk_hz for c in hfo_configs), hfo_configs
        )
        assert held is sagged and not moved

    def test_deep_brownout_falls_back_to_slowest_grid_point(self, tiny):
        governor, plan = plan_governor(tiny)
        hfo_configs = governor.pipeline.space.hfo_configs
        slowest = min(c.sysclk_hz for c in hfo_configs)

        crushed, moved = clamp_plan_to_cap(plan, 1.0, hfo_configs)
        assert moved
        assert plan_max_hz(crushed) == slowest

    def test_clamp_change_rebuilds_the_priced_window(
        self, tiny, monkeypatch
    ):
        """Crossing the knee in either direction re-prices the window
        once; epochs on an unchanged side reuse the cached one."""
        governor, plan = plan_governor(tiny)
        knee_v, _cap_hz = knee_below(plan_max_hz(plan))
        runtime = governor.pipeline.runtime
        original = runtime.run
        runs = []

        def counting(*args, **kwargs):
            runs.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(runtime, "run", counting)

        def runs_for(battery):
            governor.device.battery = battery
            before = len(runs)
            governor.step()
            return len(runs) - before

        above, below = sag_state(knee_v + 0.01), sag_state(knee_v - 0.01)
        assert runs_for(above) == 1
        assert runs_for(above) == 0
        assert runs_for(below) == 1  # clamped plan
        assert runs_for(below) == 0
        assert runs_for(BatteryState(battery=Battery())) == 1
