"""Chaos harness: determinism, survival acceptance, no-fault transparency."""

import pytest

from repro.faults import ChaosConfig, FaultPlan, run_campaign
from repro.fleet import (
    FleetScheduler,
    GovernorConfig,
    aggregate_fleet,
    sample_fleet,
    supervise_device,
)
from repro.nn import build_tiny_test_model
from repro.optimize import QoSLevel

#: Fleet+governor report digest of the fault-free path, recorded on the
#: commit *before* the fault-injection subsystem landed.  If this test
#: fails, the hardening changed nominal behaviour -- that is a bug, not
#: a reason to re-pin.
PRE_FAULT_FLEET_DIGEST = (
    "c7b0af126a7756923f013cd0e11ef1546aeca1504b7275f082c74569409ddfee"
)

MIXED_RATES = dict(
    hse_dropout_rate=0.02,
    pll_lock_timeout_rate=0.05,
    sensor_dropout_rate=0.05,
    sensor_stuck_rate=0.02,
    sensor_nack_rate=0.02,
    brownout_rate=0.05,
    watchdog_rate=0.002,
)

#: An off / low / high sweep of the device-level fault rates.
RATE_LEVELS = {
    "off": {},
    "low": dict(
        hse_dropout_rate=0.01,
        pll_lock_timeout_rate=0.02,
        sensor_dropout_rate=0.02,
        sensor_stuck_rate=0.01,
        sensor_nack_rate=0.01,
        brownout_rate=0.02,
        watchdog_rate=0.001,
    ),
    "high": dict(
        hse_dropout_rate=0.05,
        pll_lock_timeout_rate=0.10,
        sensor_dropout_rate=0.10,
        sensor_stuck_rate=0.05,
        sensor_nack_rate=0.05,
        brownout_rate=0.10,
        watchdog_rate=0.005,
    ),
}
SWEEP_CONFIG = dict(devices=32, seed=0, epochs=3)

#: Full ``digest()`` (rows *and* fault-plan echo) of the "high" sweep
#: campaign, which injects all seven device-level kinds.  It hashes the
#: ``fault_plan`` echo, so it guards the serialised plan keys and every
#: kind's ``SeedSequence.spawn`` stream at once.
HIGH_SWEEP_DIGEST = (
    "1dc3e979a51857f4958b35676d7f23c7d008642714522db8a5ca838f7c2ac8d3"
)


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_test_model()


class TestNoFaultTransparency:
    def test_fleet_digest_matches_pre_fault_pin(self, tiny):
        # The exact scenario whose digest was recorded before this
        # subsystem existed: 8 devices, seed 0, pooled planning at 30%
        # slack, 3 governed epochs each.
        level = QoSLevel(name="30%", slack=0.30)
        fleet = sample_fleet(8, seed=0)
        scheduler = FleetScheduler(tiny, qos_level=level, max_workers=4)
        results = scheduler.run(fleet, pooled=True)
        cfg = GovernorConfig(epochs=3)
        governed = {
            r.device_id: supervise_device(
                scheduler.pipeline_for(r.profile),
                r.profile,
                tiny,
                r.optimized,
                cfg,
            )
            for r in results
            if r.error is None
        }
        qos_s = next(r.optimized.qos_s for r in results if r.error is None)
        report = aggregate_fleet(tiny, qos_s, results, governed)
        assert report.digest() == PRE_FAULT_FLEET_DIGEST

    def test_zero_rate_campaign_injects_nothing(self, tiny):
        config = ChaosConfig(devices=4, seed=0, epochs=2)
        report = run_campaign(tiny, FaultPlan(), config)
        assert report.quarantine_free_fraction == 1.0
        assert report.total_injected == {}
        assert report.total_retries == 0
        assert report.energy_overhead == 0.0
        for row in report.rows:
            assert row.planned
            assert row.attempts == 1
            assert row.css_events == 0
            assert row.watchdog_resets == 0
            assert row.pll_retries == 0
            # Faulted and baseline passes are the same code path here.
            assert row.energy_j == row.baseline_energy_j


class TestAcceptanceCampaign:
    @pytest.fixture(scope="class")
    def campaign(self, tiny):
        plan = FaultPlan(seed=7, **MIXED_RATES)
        config = ChaosConfig(devices=64, seed=0, epochs=4)
        return (
            run_campaign(tiny, plan, config),
            run_campaign(tiny, plan, config),
        )

    def test_64_devices_mostly_survive(self, campaign):
        report, _ = campaign
        assert report.n_devices == 64
        assert report.quarantine_free_fraction >= 0.90

    @pytest.mark.parametrize("level", sorted(RATE_LEVELS))
    def test_mostly_survive_at_every_rate_level(self, tiny, level):
        report = run_campaign(
            tiny,
            FaultPlan(seed=7, **RATE_LEVELS[level]),
            ChaosConfig(**SWEEP_CONFIG),
        )
        assert report.quarantine_free_fraction >= 0.90

    def test_high_rate_campaign_digest_pinned(self, tiny):
        report = run_campaign(
            tiny,
            FaultPlan(seed=7, **RATE_LEVELS["high"]),
            ChaosConfig(**SWEEP_CONFIG),
        )
        assert len(report.total_injected) == 7
        assert report.digest() == HIGH_SWEEP_DIGEST

    def test_same_seed_runs_byte_identical(self, campaign):
        first, second = campaign
        assert first.digest() == second.digest()
        assert first.to_dict() == second.to_dict()

    def test_faults_actually_injected_and_absorbed(self, campaign):
        report, _ = campaign
        assert sum(report.total_injected.values()) > 0
        # Survival has a price: the failsafe windows cost energy.
        assert report.energy_overhead > 0.0
        # And QoS survival stays a fraction, not a rounding artifact.
        assert 0.0 < report.qos_met_fraction < 1.0

    def test_errors_are_rows_not_exceptions(self, campaign):
        report, _ = campaign
        for row in report.rows:
            if not row.planned:
                assert row.error  # captured, never raised


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"devices": 0},
            {"epochs": 0},
            {"qos_slack": -0.1},
            {"max_workers": 0},
            {"max_plan_attempts": 0},
        ],
    )
    def test_rejects_bad_shapes(self, kwargs):
        from repro.errors import FaultInjectionError

        with pytest.raises(FaultInjectionError):
            ChaosConfig(**kwargs)
