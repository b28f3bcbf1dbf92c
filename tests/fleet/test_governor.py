"""Re-plan governor: drift detection, re-solve, convergence."""

import numpy as np
import pytest

from repro.analysis import Battery, BatteryState
from repro.errors import PowerModelError
from repro.fleet import (
    FleetScheduler,
    GovernorConfig,
    sample_fleet,
    supervise_device,
)
from repro.fleet.governor import FleetGovernor
from repro.fleet.variation import DeviceProfile
from repro.mcu import make_nucleo_f767zi
from repro.nn import build_tiny_test_model
from repro.optimize import MODERATE, TIGHT
from repro.power.model import PowerModelParams
from repro.power.thermal import ThermalModelParams


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_test_model()


def make_profile(
    leak_mult=1.0,
    ambient_c=25.0,
    charge=1.0,
    battery=None,
    sensor_seed=123,
):
    base = PowerModelParams()
    params = base.scaled(
        p_mcu_leakage_w=base.p_mcu_leakage_w * leak_mult
    )
    return DeviceProfile(
        device_id=0,
        board=make_nucleo_f767zi(power_params=params),
        thermal=ThermalModelParams(
            t_ambient_c=ambient_c,
            leakage_ref_w=params.p_mcu_leakage_w,
        ),
        battery=BatteryState(
            battery=battery or Battery(), charge_fraction=charge
        ),
        sensor_seed=np.random.SeedSequence(sensor_seed),
    )


def supervise(tiny, profile, qos_level, config, count_exploration=False):
    scheduler = FleetScheduler(tiny, qos_level=qos_level)
    result = scheduler.plan_device(profile)
    assert result.error is None, result.error
    pipeline = scheduler.pipeline_for(profile)
    calls = []
    if count_exploration:
        original = pipeline.explorer.explore_layer

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        pipeline.explorer.explore_layer = counting
    governed = supervise_device(
        pipeline, profile, tiny, result.optimized, config
    )
    return result, governed, calls


class TestThermalDrift:
    """A hot, leaky-corner device: the paper's plan mispredicts its
    energy, the governor detects it and re-solves toward faster
    schedules."""

    CONFIG = GovernorConfig(epochs=16, max_replans=8)

    def test_drift_detected_and_replanned_without_exploration(self, tiny):
        profile = make_profile(leak_mult=6.0, ambient_c=55.0)
        _, governed, calls = supervise(
            tiny, profile, MODERATE, self.CONFIG, count_exploration=True
        )
        # The first window mispredicts by far more than the tolerance.
        assert abs(governed.samples[0].drift) > self.CONFIG.drift_threshold
        assert governed.replans >= 1
        # Core contract: re-planning re-solves from the cached fronts;
        # the design space is NEVER re-explored.
        assert calls == []

    def test_device_reconverges_under_qos(self, tiny):
        profile = make_profile(leak_mult=6.0, ambient_c=55.0)
        _, governed, _ = supervise(tiny, profile, MODERATE, self.CONFIG)
        assert governed.converged
        last = governed.samples[-1]
        assert last.met_qos
        assert abs(last.drift) <= self.CONFIG.drift_threshold
        # Every epoch kept its QoS budget while the governor adapted.
        assert governed.epochs_met == len(governed.samples)

    def test_temperature_ramp_flips_mckp_picks(self, tiny):
        """The extra leakage joules grow with schedule latency, so a
        hot die re-ranks the fronts toward faster HFOs -- picks the
        cold solve chose get overturned."""
        profile = make_profile(leak_mult=6.0, ambient_c=55.0)
        result, governed, _ = supervise(
            tiny, profile, MODERATE, self.CONFIG
        )
        old = result.optimized.plan.layer_plans
        new = governed.final_plan.layer_plans
        flips = [
            nid for nid in old if old[nid].hfo != new[nid].hfo
        ]
        assert flips
        for nid in flips:
            assert (
                new[nid].hfo.sysclk_hz > old[nid].hfo.sysclk_hz
            )

    def test_nominal_device_never_replans(self, tiny):
        profile = make_profile(leak_mult=1.0, ambient_c=25.0)
        _, governed, _ = supervise(
            tiny, profile, MODERATE, GovernorConfig(epochs=6)
        )
        assert governed.replans == 0
        assert governed.converged

    def test_replan_compensation_shrinks_drift(self, tiny):
        profile = make_profile(leak_mult=6.0, ambient_c=55.0)
        _, governed, _ = supervise(tiny, profile, MODERATE, self.CONFIG)
        trigger = next(s for s in governed.samples if s.replanned)
        after = governed.samples[trigger.epoch + 1]
        assert abs(after.drift) < abs(trigger.drift)


class TestDeferredReplan:
    def test_deferred_apply_matches_inline_supervision(self, tiny):
        """``step(defer_replan=True)`` + ``apply_replan()`` with every
        replan granted is the inline ``supervise()`` path, bit for bit:
        the scenario engine defers, the fleet path applies inline."""
        config = GovernorConfig(epochs=12, max_replans=8)
        profile = make_profile(leak_mult=6.0, ambient_c=55.0)
        scheduler = FleetScheduler(tiny, qos_level=MODERATE)
        result = scheduler.plan_device(profile)
        pipeline = scheduler.pipeline_for(profile)

        def governor():
            return FleetGovernor(
                pipeline, profile, tiny, result.optimized, config
            )

        inline = governor().supervise()
        deferred_governor = governor()
        deferred_governor.start()
        for epoch in range(config.epochs):
            deferred_governor.step(
                epoch * config.epoch_s, defer_replan=True
            )
            if deferred_governor.pending_replan is not None:
                deferred_governor.apply_replan()
        deferred = deferred_governor.result()
        assert inline.replans >= 2
        assert deferred.samples == inline.samples
        assert deferred.replans == inline.replans
        assert deferred.final_plan == inline.final_plan


class TestBatterySag:
    def test_sagged_cell_clamps_tight_plan(self, tiny):
        # TIGHT budgets need 216 MHz; a cell holding only 180 MHz
        # clamps the schedule past its budget, and no re-solve can fix
        # it (every under-cap schedule is slower than the budget) --
        # the honest outcome is a non-converged, QoS-missing device.
        profile = make_profile(charge=0.7)
        assert profile.battery.max_sysclk_hz() == pytest.approx(180e6)
        _, governed, calls = supervise(
            tiny, profile, TIGHT, GovernorConfig(epochs=4),
            count_exploration=True,
        )
        assert all(s.clamped for s in governed.samples)
        assert not governed.samples[-1].met_qos
        assert not governed.converged
        assert calls == []

    def test_draining_cell_loses_qos_mid_run(self, tiny):
        # A near-dead cell drains across the supervision horizon: the
        # early epochs hold the plan's frequencies, then the rail caps
        # below the plan and the windows start missing.
        profile = make_profile(
            charge=0.6, battery=Battery(capacity_mah=0.7)
        )
        _, governed, _ = supervise(
            tiny, profile, MODERATE, GovernorConfig(epochs=10)
        )
        first, last = governed.samples[0], governed.samples[-1]
        assert not first.clamped
        assert first.met_qos
        assert last.clamped
        assert not last.met_qos
        assert last.charge_fraction < first.charge_fraction


class TestConfigValidation:
    def test_bad_epochs_rejected(self):
        with pytest.raises(PowerModelError):
            GovernorConfig(epochs=0)

    def test_bad_threshold_rejected(self):
        with pytest.raises(PowerModelError):
            GovernorConfig(drift_threshold=0.0)

    def test_bad_epoch_duration_rejected(self):
        with pytest.raises(PowerModelError):
            GovernorConfig(epoch_s=-1.0)

    def test_negative_replan_budget_rejected(self):
        with pytest.raises(PowerModelError):
            GovernorConfig(max_replans=-1)


class TestDeterminism:
    def test_supervision_is_reproducible(self, tiny):
        config = GovernorConfig(epochs=6)
        runs = []
        for _ in range(2):
            profile = sample_fleet(3, seed=17)[2]
            scheduler = FleetScheduler(tiny, qos_level=MODERATE)
            result = scheduler.plan_device(profile)
            pipeline = scheduler.pipeline_for(profile)
            governed = supervise_device(
                pipeline, profile, tiny, result.optimized, config
            )
            runs.append(governed)
        assert [s.measured_energy_j for s in runs[0].samples] == [
            s.measured_energy_j for s in runs[1].samples
        ]
        assert [s.drift for s in runs[0].samples] == [
            s.drift for s in runs[1].samples
        ]
        assert runs[0].replans == runs[1].replans


def supervise_faulted(tiny, profile, qos_level, config, fault_clock):
    scheduler = FleetScheduler(tiny, qos_level=qos_level)
    result = scheduler.plan_device(profile)
    assert result.error is None, result.error
    pipeline = scheduler.pipeline_for(profile)
    return supervise_device(
        pipeline, profile, tiny, result.optimized, config,
        fault_clock=fault_clock,
    )


class TestFaultTolerance:
    @staticmethod
    def clock_with(*events):
        from repro.faults import FaultPlan

        return FaultPlan(scheduled=tuple(events)).clock_for(0)

    def test_nacked_epochs_invalidated_plan_held(self, tiny):
        from repro.faults import FaultKind

        clock = self.clock_with(
            (FaultKind.SENSOR_NACK, 0), (FaultKind.SENSOR_NACK, 1)
        )
        governed = supervise_faulted(
            tiny, make_profile(), MODERATE, GovernorConfig(epochs=4), clock
        )
        assert governed.invalid_epochs == 2
        assert len(governed.samples) == 4
        assert not governed.samples[0].valid
        assert not governed.samples[1].valid
        assert governed.samples[2].valid
        # Blind epochs never feed the drift trigger.
        assert governed.samples[0].measured_energy_j == 0.0
        assert governed.samples[0].drift == 0.0

    def test_stuck_telemetry_invalidated(self, tiny):
        from repro.faults import FaultKind

        clock = self.clock_with((FaultKind.SENSOR_STUCK, 0))
        governed = supervise_faulted(
            tiny, make_profile(), MODERATE, GovernorConfig(epochs=2), clock
        )
        assert not governed.samples[0].valid
        assert governed.samples[1].valid
        assert governed.invalid_epochs == 1

    def test_brownout_sag_clamps_the_window(self, tiny):
        from repro.faults import FaultPlan

        clock = FaultPlan(brownout_rate=1.0, brownout_derate=0.3).clock_for(0)
        governed = supervise_faulted(
            tiny, make_profile(), MODERATE, GovernorConfig(epochs=2), clock
        )
        assert any(s.clamped for s in governed.samples)

    def test_zero_rate_clock_matches_fault_free_supervision(self, tiny):
        from repro.faults import FaultPlan

        cfg = GovernorConfig(epochs=3)
        clean = supervise_faulted(
            tiny, make_profile(), MODERATE, cfg, fault_clock=None
        )
        hardened = supervise_faulted(
            tiny, make_profile(), MODERATE, cfg,
            fault_clock=FaultPlan().clock_for(0),
        )
        assert len(clean.samples) == len(hardened.samples)
        for a, b in zip(clean.samples, hardened.samples):
            assert a == b
        assert hardened.invalid_epochs == 0
        assert hardened.css_events == 0


class TestConfigHardening:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_coverage": -0.1},
            {"min_coverage": 1.5},
            {"widen_factor": 0.9},
            {"max_widen": 0.5},
        ],
    )
    def test_tolerance_knobs_validated(self, kwargs):
        with pytest.raises(PowerModelError):
            GovernorConfig(**kwargs)

    def test_validation_errors_are_repro_errors(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            GovernorConfig(epochs=0)
