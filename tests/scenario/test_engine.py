"""Scenario engine: determinism, the zero-event pin, lifecycle flows."""

import pytest

from repro.fleet import (
    FleetScheduler,
    aggregate_fleet,
    sample_fleet,
    supervise_device,
)
from repro.fleet.governor import GovernorConfig
from repro.nn import build_tiny_test_model
from repro.faults.campaign import FaultCampaign, FaultStage
from repro.faults.plan import FaultPlan
from repro.optimize import QoSLevel
from repro.scenario import ConstantArrivals, ScenarioConfig, run_scenario
from repro.scenario.library import (
    churn_heavy,
    flash_crowd,
    steady_diurnal,
    zero_event,
)
from repro.serve.server import ServeConfig

HOUR_S = 3600.0


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        config = flash_crowd(devices=5, horizon_s=3 * HOUR_S, seed=2)
        first = run_scenario(config)
        second = run_scenario(
            flash_crowd(devices=5, horizon_s=3 * HOUR_S, seed=2)
        )
        assert first.digest() == second.digest()
        assert first.to_dict() == second.to_dict()

    def test_different_seed_diverges(self):
        a = run_scenario(flash_crowd(devices=5, horizon_s=2 * HOUR_S, seed=0))
        b = run_scenario(flash_crowd(devices=5, horizon_s=2 * HOUR_S, seed=1))
        assert a.digest() != b.digest()


class TestOracleGap:
    def test_governed_fleet_within_ten_percent_of_oracle(self):
        """The governed twins spend at most 10% more true energy than
        the clairvoyant oracle.  Vacuous for now: deferred replans
        almost never land, so governor and oracle run the same plans
        and the gap reads +0.00% (ROADMAP item 1).  It binds once that
        is fixed."""
        report = run_scenario(
            steady_diurnal(devices=12, horizon_s=6 * HOUR_S, seed=3)
        )
        assert report.oracle["devices"] > 0
        assert report.oracle_gap_fraction is not None
        assert report.oracle_gap_fraction <= 0.10


class TestZeroEventPin:
    def test_fleet_digest_matches_plain_fleet_path(self):
        """No events layered on => the embedded fleet report is
        bit-identical to FleetScheduler.run + supervise_device."""
        devices, epochs, seed = 4, 6, 3
        report = run_scenario(
            zero_event(devices=devices, epochs=epochs, seed=seed)
        )

        model = build_tiny_test_model()
        qos_level = QoSLevel(name="30%", slack=0.3)
        scheduler = FleetScheduler(model, qos_level=qos_level)
        results = scheduler.run(sample_fleet(devices, seed=seed))
        config = GovernorConfig(epochs=epochs)
        governed = {
            r.profile.device_id: supervise_device(
                scheduler.pipeline_for(r.profile),
                r.profile,
                model,
                r.optimized,
                config,
            )
            for r in results
            if r.error is None
        }
        qos_s = next(r.optimized.qos_s for r in results if r.error is None)
        plain = aggregate_fleet(model, qos_s, results, governed)

        assert report.fleet.digest() == plain.digest()

    def test_zero_event_demand_is_every_tick(self):
        report = run_scenario(zero_event(devices=3, epochs=4, seed=0))
        assert report.demand["windows_requested"] == 12
        assert report.demand["epochs_run"] == 12
        assert report.demand["windows_deferred"] == 0
        assert report.replans["shed"] == 0


class TestLifecycle:
    @pytest.fixture(scope="class")
    def churn_report(self):
        return run_scenario(
            churn_heavy(devices=5, horizon_s=6 * HOUR_S, seed=1)
        )

    def test_churn_reshapes_fleet(self, churn_report):
        churn = churn_report.churn
        assert churn["joins"] > 0
        assert churn["leaves"] > 0
        assert churn["final_devices"] == (
            churn_report.devices_initial
            + churn["joins"]
            - churn["leaves"]
        )

    def test_fault_wave_injects_and_quarantines(self, churn_report):
        assert sum(churn_report.faults_injected.values()) > 0
        kinds = {
            entry["event"] for entry in churn_report.lifecycle_timeline
        }
        assert "join" in kinds or "leave" in kinds

    def test_admission_limited_replans_shed(self):
        """A permanent brownout keeps every governor asking to
        re-plan; a nearly-closed admission bucket sheds the flood."""
        report = run_scenario(
            ScenarioConfig(
                name="shed-flood",
                devices=8,
                horizon_s=0.5 * HOUR_S,
                tick_s=60.0,
                seed=0,
                arrivals=ConstantArrivals(1),
                campaign=FaultCampaign(
                    stages=(
                        FaultStage(
                            start_s=0.0,
                            end_s=0.5 * HOUR_S,
                            plan=FaultPlan(seed=5, brownout_rate=1.0),
                            label="always-brown",
                        ),
                    )
                ),
                serve=ServeConfig(
                    rate_per_s=0.2,
                    burst=1.0,
                    admission_tick_s=0.02,
                    max_queue_depth=1000,
                ),
                storm_threshold=4,
            )
        )
        assert report.replans["requested"] > 0
        assert report.replans["shed"] > 0
        assert (
            sum(report.serve["sheds"].values())
            == report.replans["shed"]
        )
        assert report.replans["storm_ticks"] > 0
        # Every shed tick is on the timeline with a positive count.
        assert all(e["sheds"] > 0 for e in report.shed_timeline)
        assert (
            sum(e["sheds"] for e in report.shed_timeline)
            == report.replans["shed"]
        )
