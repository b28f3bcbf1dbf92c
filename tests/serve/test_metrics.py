"""Serve metrics: histograms, counters, telemetry aggregation."""

import asyncio

import pytest

from repro.errors import OverloadedError, QoSInfeasibleError
from repro.obs.registry import LatencyHistogram, MetricsRegistry
from repro.serve import InProcessClient, PlanBatcher, PlanServer, ServeConfig
from repro.serve.metrics import serve_totals


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.percentile_s(50) == 0.0
        assert histogram.to_dict()["count"] == 0

    def test_percentiles_bracket_observations(self):
        histogram = LatencyHistogram()
        for _ in range(90):
            histogram.record(0.001)
        for _ in range(10):
            histogram.record(0.1)
        p50 = histogram.percentile_s(50)
        p99 = histogram.percentile_s(99)
        # Bucket upper bounds: within one bucket ratio of the truth.
        assert 0.001 <= p50 <= 0.00134
        assert 0.1 <= p99 <= 0.134
        assert p50 < p99

    def test_summary_stats(self):
        histogram = LatencyHistogram()
        histogram.record(0.002)
        histogram.record(0.004)
        data = histogram.to_dict()
        assert data["count"] == 2
        assert data["mean_s"] == pytest.approx(0.003)
        assert data["min_s"] == pytest.approx(0.002)
        assert data["max_s"] == pytest.approx(0.004)

    def test_out_of_range_observation(self):
        histogram = LatencyHistogram()
        histogram.record(1e9)  # beyond the last bound
        assert histogram.percentile_s(99) == pytest.approx(1e9)


def run(coro):
    return asyncio.run(coro)


def make_server(**overrides):
    defaults = dict(workers=2, batch_window_s=0.001)
    defaults.update(overrides)
    return PlanServer(ServeConfig(**defaults))


class TestServeMetrics:
    """A server's ``stats`` metrics block, read out of its own registry."""

    def test_request_and_error_counters(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            await client.request("plan", model="tiny", qos_percent=30)
            await client.request("plan", model="tiny", qos_percent=30)
            await client.request("stats")
            with pytest.raises(QoSInfeasibleError):
                await client.request("plan", model="tiny", qos_ms=0.001)
            snapshot = server.stats()["metrics"]
            await server.stop()
            return snapshot

        snapshot = run(main())
        assert snapshot["requests_total"] == 3
        assert snapshot["requests_by_op"]["plan"] == 2
        assert snapshot["errors_by_kind"]["qos_infeasible"] == 1
        assert snapshot["latency_by_op"]["plan"]["count"] == 2

    def test_shed_counters(self):
        async def main():
            server = make_server(max_queue_depth=1)
            client = InProcessClient(server)
            server.admission.admit()  # fill the only slot
            for _ in range(2):
                with pytest.raises(OverloadedError):
                    await client.request("plan", model="tiny", qos_percent=30)
            server.admission.release()
            server._draining = True
            await server.handle_line(
                '{"v":1,"id":"r1","op":"plan",'
                '"params":{"model":"tiny","qos_percent":30}}'
            )
            server._draining = False
            snapshot = server.stats()["metrics"]
            await server.stop()
            return snapshot

        snapshot = run(main())
        assert snapshot["shed_count"] == 3
        assert snapshot["sheds_by_reason"]["queue_full"] == 2

    def test_queue_depth_peak(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            # Three concurrent misses are admitted before any finishes.
            await asyncio.gather(
                *(
                    client.request("plan", model="tiny", qos_percent=30)
                    for _ in range(3)
                )
            )
            # One unrecorded slot held open: the warm hit admits at
            # depth 2 and leaves the gauge at 1 on release.
            server.admission.admit()
            await client.request("plan", model="tiny", qos_percent=30)
            snapshot = server.stats()["metrics"]
            server.admission.release()
            await server.stop()
            return snapshot

        snapshot = run(main())
        assert snapshot["queue_depth"] == 1
        assert snapshot["queue_depth_peak"] == 3

    def test_coalesce_ratio(self):
        async def main():
            registry = MetricsRegistry()
            batcher = PlanBatcher(registry=registry, window_s=0.01)
            for size in (8, 2):
                await asyncio.gather(
                    *(
                        batcher.submit(("k",), lambda: "p")
                        for _ in range(size)
                    )
                )
            batcher.shutdown()
            return registry

        registry = run(main())
        assert serve_totals(registry.snapshot())["coalesce_ratio"] == (
            pytest.approx(5.0)
        )

    def test_telemetry_drift(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            await client.request(
                "telemetry",
                model="tiny",
                predicted_energy_j=1.0,
                measured_energy_j=1.1,
            )
            aggregate = await client.request(
                "telemetry",
                model="tiny",
                predicted_energy_j=1.0,
                measured_energy_j=0.9,
            )
            snapshot = server.stats()["metrics"]
            await server.stop()
            return aggregate, snapshot

        aggregate, snapshot = run(main())
        assert aggregate["samples"] == 2
        assert aggregate["mean_drift"] == pytest.approx(0.0, abs=1e-12)
        assert aggregate["max_abs_drift"] == pytest.approx(0.1)
        assert snapshot["telemetry"]["tiny"] == {
            key: aggregate[key]
            for key in ("samples", "mean_drift", "max_abs_drift")
        }
