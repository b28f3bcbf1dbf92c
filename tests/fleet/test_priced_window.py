"""Priced-window epoch pricing: exact, keyed right, bypassed under faults.

The governor prices every epoch from a single cached reference window
(:class:`repro.fleet.pricing.EpochPricer`).  These tests recompute each
epoch from a fresh ``runtime.run`` and pin when the window must be
rebuilt: an applied re-plan and a replaced power model miss, a fault
epoch never touches the cache.  The clamp-change case lives with the
rail-knee fixtures in ``test_battery_sag.py``.
"""

import numpy as np
import pytest

from repro.analysis import Battery, BatteryState
from repro.errors import TraceError
from repro.faults import FaultPlan
from repro.fleet import FleetScheduler, GovernorConfig
from repro.fleet.governor import FleetGovernor
from repro.fleet.pricing import LEAKY_STATES, clamp_plan_to_cap
from repro.fleet.variation import DeviceProfile
from repro.mcu import make_nucleo_f767zi
from repro.nn import build_tiny_test_model
from repro.optimize import MODERATE
from repro.power.model import BoardPowerModel, PowerModelParams
from repro.power.thermal import ThermalModelParams


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_test_model()


def make_profile(leak_mult=6.0, ambient_c=55.0, thermal_ref_w=None):
    base = PowerModelParams()
    params = base.scaled(p_mcu_leakage_w=base.p_mcu_leakage_w * leak_mult)
    return DeviceProfile(
        device_id=0,
        board=make_nucleo_f767zi(power_params=params),
        thermal=ThermalModelParams(
            t_ambient_c=ambient_c,
            leakage_ref_w=(
                params.p_mcu_leakage_w
                if thermal_ref_w is None
                else thermal_ref_w
            ),
        ),
        battery=BatteryState(battery=Battery()),
        sensor_seed=np.random.SeedSequence(123),
    )


def make_governor(tiny, profile, **config):
    scheduler = FleetScheduler(tiny, qos_level=MODERATE)
    result = scheduler.plan_device(profile)
    assert result.error is None, result.error
    governor = FleetGovernor(
        scheduler.pipeline_for(profile),
        profile,
        tiny,
        result.optimized,
        GovernorConfig(**config),
    )
    governor.start()
    return governor


def fresh_true_energy(governor):
    """The next epoch's true energy, recomputed interval by interval
    from a fresh runtime run of the plan in force."""
    exec_plan, _ = clamp_plan_to_cap(
        governor.device.plan,
        governor.device.battery.max_sysclk_hz(),
        governor.pipeline.space.hfo_configs,
    )
    ref = governor.pipeline.runtime.run(
        governor.model,
        exec_plan,
        qos_s=governor.optimized.qos_s,
        initial_config=exec_plan.initial_config(),
    )
    thermal = governor.profile.thermal
    extra_w = (
        thermal.leakage_at(governor.device.temperature_c)
        - thermal.leakage_ref_w
    )
    return sum(
        iv.duration_s
        * (iv.power_w + (extra_w if iv.state in LEAKY_STATES else 0.0))
        for iv in ref.account.intervals
    )


@pytest.fixture
def run_counter(monkeypatch):
    """Count ``runtime.run`` calls made by a governor's steps."""

    def install(governor):
        runtime = governor.pipeline.runtime
        original = runtime.run
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("fault_clock"))
            return original(*args, **kwargs)

        monkeypatch.setattr(runtime, "run", counting)
        return calls

    return install


def runs_during(calls, step):
    before = len(calls)
    step()
    return calls[before:]


class TestExactness:
    def test_every_epoch_matches_a_fresh_per_interval_sum(self, tiny):
        governor = make_governor(
            tiny, make_profile(), epochs=12, max_replans=8
        )
        for _ in range(12):
            expected = fresh_true_energy(governor)
            sample = governor.step()
            assert sample.true_energy_j == expected
        # The run crossed at least one re-plan, so the check covers a
        # rebuilt window as well as cache hits.
        assert governor.replans_used >= 1


class TestInvalidation:
    def test_unchanged_plan_reuses_the_window(self, tiny, run_counter):
        governor = make_governor(tiny, make_profile(), max_replans=0)
        calls = run_counter(governor)
        assert len(runs_during(calls, governor.step)) == 1
        for _ in range(4):
            assert runs_during(calls, governor.step) == []

    def test_applied_replan_rebuilds_the_window(self, tiny, run_counter):
        governor = make_governor(tiny, make_profile(), max_replans=8)
        calls = run_counter(governor)
        step = lambda: governor.step(defer_replan=True)  # noqa: E731
        runs_during(calls, step)
        while governor.pending_replan is None:
            assert runs_during(calls, step) == []
        old_plan = governor.device.plan
        assert governor.apply_replan()
        assert governor.device.plan.layer_plans != old_plan.layer_plans
        assert len(runs_during(calls, step)) == 1

    def test_power_model_replacement_rebuilds_the_window(
        self, tiny, run_counter
    ):
        governor = make_governor(tiny, make_profile(), max_replans=0)
        calls = run_counter(governor)
        runs_during(calls, governor.step)
        assert runs_during(calls, governor.step) == []
        board = governor.pipeline.runtime.board
        board.power_model = BoardPowerModel(
            board.power_model.params.scaled(p_board_static_w=0.05)
        )
        expected = fresh_true_energy(governor)
        calls.clear()
        sample = governor.step()
        assert len(calls) == 1
        assert sample.true_energy_j == expected

    def test_fault_epochs_bypass_the_cache(self, tiny, run_counter):
        governor = make_governor(tiny, make_profile(), max_replans=0)
        calls = run_counter(governor)
        clock = FaultPlan().clock_for(0)
        for _ in range(3):
            assert runs_during(
                calls, lambda: governor.step(fault_clock=clock)
            ) == [clock]
        # Nothing a fault epoch priced was cached: the first fault-free
        # epoch builds the window, the next one reuses it.
        assert runs_during(calls, governor.step) == [None]
        assert runs_during(calls, governor.step) == []


class TestNegativePower:
    def test_negative_true_power_raises_trace_error(self, tiny):
        # A thermal calibration far above the power model's leakage,
        # on a frozen die: the (negative) excess outweighs the leaky
        # intervals' calibrated power.
        profile = make_profile(
            leak_mult=1.0, ambient_c=-100.0, thermal_ref_w=5.0
        )
        governor = make_governor(tiny, profile, max_replans=0)
        with pytest.raises(TraceError, match="power must be >= 0"):
            governor.step()
