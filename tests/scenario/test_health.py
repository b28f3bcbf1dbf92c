"""The report's ``health`` section: digest-stable fleet monitoring."""

import json
import math

from repro.obs.registry import snapshot_digest
from repro.scenario import run_scenario
from repro.scenario.library import flash_crowd, zero_event

HOUR_S = 3600.0


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def small(seed: int = 2):
    return flash_crowd(devices=5, horizon_s=2 * HOUR_S, seed=seed)


class TestHealthDeterminism:
    def test_same_seed_byte_identical_health(self):
        """The acceptance pin: two same-seed runs in one process must
        produce byte-identical health sections -- the series rollup is
        delta-based, so counter residue left in the process-wide
        registry by the first run cannot leak into the second."""
        first = run_scenario(small())
        second = run_scenario(small())
        assert first.health is not None
        assert canonical(first.health) == canonical(second.health)
        assert first.digest() == second.digest()

    def test_registry_residue_cannot_reach_health(self):
        """Regression: counter/gauge residue left in the process-wide
        registry between runs (cells the second run's own activity
        never touches, stale gauges) must not move a byte of the
        health section."""
        from repro.obs.registry import MetricsRegistry, set_registry

        original = set_registry(MetricsRegistry())
        try:
            first = run_scenario(small())
            from repro.obs.registry import get_registry

            registry = get_registry()
            registry.count("fleet.governor", n=50, event="replan")
            registry.count("serve.sheds", n=50, reason="queue_full")
            registry.gauge_set("scenario.oracle_gap_pct", 999.0)
            second = run_scenario(small())
        finally:
            set_registry(original)
        assert canonical(first.health) == canonical(second.health)

    def test_rollup_and_alert_digests_recompute(self):
        health = run_scenario(small()).health
        assert health["rollup_digest"] == snapshot_digest(
            health["rollup"]
        )
        assert health["alerts_digest"] == snapshot_digest(
            {"alerts": health["alerts"]}
        )


class TestHealthShape:
    def test_section_structure(self):
        report = run_scenario(small())
        health = report.health
        assert set(health) == {
            "series",
            "rollup",
            "slos",
            "alerts",
            "alerts_active",
            "evaluations",
            "rollup_digest",
            "alerts_digest",
        }
        # One sample per tick: the series covers the whole horizon.
        assert health["series"]["total_samples"] >= 1
        assert health["evaluations"] >= 1
        assert {slo["name"] for slo in health["slos"]} >= {
            "scenario-shed-ratio",
            "scenario-governor-drift",
        }
        # Raw absolute snapshots are process-relative, so their digest
        # must NOT appear in the report.
        assert "latest_digest" not in health["series"]

    def test_one_sample_and_one_evaluation_per_tick(self):
        """The monitor's cost as a count: each tick takes one series
        sample and one SLO evaluation, nothing more."""
        report = run_scenario(small())
        ticks = math.ceil(report.horizon_s / report.tick_s)
        assert report.health["series"]["total_samples"] == ticks
        assert report.health["evaluations"] == ticks

    def test_rollup_carries_scenario_gauges(self):
        rollup = run_scenario(small()).health["rollup"]
        assert "scenario.governor_drift" in rollup["gauges"]
        # Every family in the rollup passed the simulation projection:
        # wall-clock latencies can never enter the health digest.
        assert "serve.latency" not in rollup["histograms"]

    def test_health_lands_in_to_dict_and_summary(self):
        report = run_scenario(small())
        assert report.to_dict()["health"] == report.health
        assert "health:" in report.summary()


class TestMonitorOff:
    def test_zero_event_preset_has_no_health(self):
        report = run_scenario(zero_event(devices=2, epochs=2, seed=1))
        assert report.health is None
        assert "health" not in report.to_dict()

    def test_monitor_flag_disables_health(self):
        config = small()
        config.monitor = False
        report = run_scenario(config)
        assert report.health is None

    def test_monitor_moves_no_bit_of_the_fleet(self):
        monitored = run_scenario(small())
        config = small()
        config.monitor = False
        unmonitored = run_scenario(config)
        assert monitored.health is not None
        assert monitored.fleet.digest() == unmonitored.fleet.digest()
