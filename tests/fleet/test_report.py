"""Fleet report: aggregation, determinism digest, CLI command."""

import json

import pytest

from repro.cli import main
from repro.fleet import (
    DeviceResult,
    FleetScheduler,
    GovernorConfig,
    aggregate_fleet,
    sample_fleet,
    supervise_device,
)
from repro.nn import build_tiny_test_model
from repro.optimize import MODERATE


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_test_model()


@pytest.fixture(scope="module")
def fleet_run(tiny):
    fleet = sample_fleet(5, seed=2)
    scheduler = FleetScheduler(tiny, qos_level=MODERATE)
    results = scheduler.run(fleet)
    config = GovernorConfig(epochs=4)
    governed = {
        r.device_id: supervise_device(
            scheduler.pipeline_for(r.profile), r.profile, tiny,
            r.optimized, config,
        )
        for r in results
        if r.error is None
    }
    qos_s = results[0].optimized.qos_s
    return results, governed, qos_s


class TestAggregation:
    def test_counts(self, tiny, fleet_run):
        results, governed, qos_s = fleet_run
        report = aggregate_fleet(tiny, qos_s, results, governed)
        assert report.n_devices == 5
        assert report.failures == 0
        assert len(report.rows()) == 5

    def test_stats_bracket_the_population(self, tiny, fleet_run):
        results, governed, qos_s = fleet_run
        report = aggregate_fleet(tiny, qos_s, results, governed)
        energies = [r.report.energy_j for r in results]
        stats = report.energy_stats_j
        assert min(energies) <= stats["p50"] <= max(energies)
        assert stats["mean"] == pytest.approx(
            sum(energies) / len(energies)
        )
        assert stats["p50"] <= stats["p95"]

    def test_frequency_histogram_counts_all_layers(self, tiny, fleet_run):
        results, governed, qos_s = fleet_run
        report = aggregate_fleet(tiny, qos_s, results, governed)
        layers = len(results[0].optimized.plan.layer_plans)
        assert sum(report.frequency_hist.values()) == 5 * layers
        assert sum(report.granularity_hist.values()) == 5 * layers

    def test_governor_columns_joined(self, tiny, fleet_run):
        results, governed, qos_s = fleet_run
        report = aggregate_fleet(tiny, qos_s, results, governed)
        for row in report.summaries:
            assert row.epochs == 4
            assert row.final_temperature_c > 0

    def test_failed_devices_counted_not_averaged(self, tiny, fleet_run):
        results, _, qos_s = fleet_run
        broken = list(results) + [
            DeviceResult(
                profile=results[0].profile, error="QoSInfeasibleError: x"
            )
        ]
        report = aggregate_fleet(tiny, qos_s, broken)
        assert report.n_devices == 6
        assert report.failures == 1
        assert len(report.planned) == 5
        assert report.energy_stats_j["mean"] == pytest.approx(
            aggregate_fleet(tiny, qos_s, results).energy_stats_j["mean"]
        )

    def test_digest_is_deterministic(self, tiny, fleet_run):
        results, governed, qos_s = fleet_run
        a = aggregate_fleet(tiny, qos_s, results, governed)
        b = aggregate_fleet(tiny, qos_s, list(reversed(results)), governed)
        assert a.digest() == b.digest()

    def test_digest_sensitive_to_results(self, tiny, fleet_run):
        results, governed, qos_s = fleet_run
        a = aggregate_fleet(tiny, qos_s, results, governed)
        b = aggregate_fleet(tiny, qos_s, results[:-1], governed)
        assert a.digest() != b.digest()

    def test_summary_text(self, tiny, fleet_run):
        results, governed, qos_s = fleet_run
        report = aggregate_fleet(tiny, qos_s, results, governed)
        text = report.summary()
        assert "fleet of 5 devices" in text
        assert report.digest() in text

    def test_to_dict_round_trips_json(self, tiny, fleet_run):
        results, governed, qos_s = fleet_run
        report = aggregate_fleet(tiny, qos_s, results, governed)
        blob = json.dumps(report.to_dict())
        data = json.loads(blob)
        assert data["n_devices"] == 5
        assert data["digest"] == report.digest()
        assert len(data["devices"]) == 5


class TestCliFleet:
    def test_fleet_command_runs_and_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "fleet.json"
        code = main(
            ["fleet", "--devices", "4", "--seed", "0",
             "--epochs", "2", "--json", str(out_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        # --json owns stdout; the human summary moves to stderr.
        assert "fleet of 4 devices" in captured.err
        assert "digest:" in captured.err
        data = json.loads(out_path.read_text())
        assert json.loads(captured.out) == data
        assert data["n_devices"] == 4
        assert data["digest"] in captured.err

    def test_fleet_command_deterministic(self, capsys):
        args = ["fleet", "--devices", "4", "--seed", "1", "--epochs", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
