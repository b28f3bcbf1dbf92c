"""Metrics registry: families, labels, histograms, snapshots."""

import math

import pytest

from repro.obs.registry import (
    LatencyHistogram,
    MetricsRegistry,
    _log_bounds,
    snapshot_digest,
)


class TestLatencyHistogram:
    def test_percentile_is_bucket_upper_bound(self):
        h = LatencyHistogram()
        for v in [0.001, 0.002, 0.004, 0.008]:
            h.record(v)
        p50 = h.percentile_s(50)
        assert p50 >= 0.002  # never under-estimates
        ratio = 10.0 ** (1.0 / 8.0)
        assert p50 <= 0.002 * ratio + 1e-12

    def test_over_estimate_bounded_by_bucket_ratio(self):
        # The documented error bound: the answer is the upper bound of
        # the value's bucket, so relative error < 10**(1/8) - 1 (~33%).
        h = LatencyHistogram()
        value = 0.00317
        h.record(value)
        answer = h.percentile_s(99)
        assert answer >= value
        assert (answer - value) / value < 10.0 ** (1.0 / 8.0) - 1.0

    def test_buckets_exact_counts(self):
        h = LatencyHistogram()
        for v in [1e-4, 1e-4, 5e-3]:
            h.record(v)
        buckets = h.buckets()
        assert sum(b["count"] for b in buckets) == 3
        assert all(b["count"] > 0 for b in buckets)
        # Each recorded value is <= its bucket's upper bound.
        assert any(b["le"] >= 5e-3 and b["count"] == 1 for b in buckets)

    def test_overflow_bucket_reports_inf(self):
        h = LatencyHistogram()
        h.record(1e6)  # beyond the 100 s top bound
        (bucket,) = h.buckets()
        assert math.isinf(bucket["le"])
        assert h.percentile_s(50) == 1e6  # falls back to max_s

    def test_to_dict_buckets_opt_in(self):
        h = LatencyHistogram()
        h.record(0.01)
        assert "buckets" not in h.to_dict()
        assert h.to_dict(include_buckets=True)["buckets"]

    def test_observe_aliases_record(self):
        h = LatencyHistogram()
        h.observe(0.5)
        assert h.count == 1

    def test_log_bounds_span_decades(self):
        bounds = _log_bounds()
        assert bounds[0] == 1e-6
        assert bounds[-1] == 100.0
        assert all(b < a for b, a in zip(bounds, bounds[1:]))


class TestMetricsRegistry:
    def test_counters_with_labels(self, registry):
        registry.count("pipeline.cache", cache="cloud", event="hit")
        registry.count("pipeline.cache", cache="cloud", event="hit")
        registry.count("pipeline.cache", cache="cloud", event="miss")
        assert registry.counter_value(
            "pipeline.cache", cache="cloud", event="hit"
        ) == 2.0
        assert registry.counter_value(
            "pipeline.cache", cache="cloud", event="miss"
        ) == 1.0
        assert registry.counter_value("absent") == 0.0

    def test_label_name_mismatch_raises(self, registry):
        registry.count("serve.sheds", reason="queue_full")
        with pytest.raises(ValueError):
            registry.count("serve.sheds", why="rate_limited")

    def test_kind_mismatch_raises(self, registry):
        registry.count("x")
        with pytest.raises(ValueError):
            registry.gauge_set("x", 1.0)

    def test_gauges_overwrite(self, registry):
        registry.gauge_set("serve.queue_depth", 3.0)
        registry.gauge_set("serve.queue_depth", 1.0)
        assert registry.snapshot()["gauges"]["serve.queue_depth"][""] == 1.0

    def test_histograms_in_snapshot(self, registry):
        registry.observe("serve.latency", 0.01, op="plan")
        snap = registry.snapshot()
        entry = snap["histograms"]["serve.latency"]["op=plan"]
        assert entry["count"] == 1
        assert entry["buckets"]

    def test_snapshot_is_deterministically_ordered(self, registry):
        registry.count("b.metric", event="z")
        registry.count("a.metric", event="y")
        registry.count("b.metric", event="a")
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a.metric", "b.metric"]
        assert list(snap["counters"]["b.metric"]) == [
            "event=a", "event=z",
        ]

    def test_reset_drops_families(self, registry):
        registry.count("x")
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_independent_instances(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("only.a")
        assert b.counter_value("only.a") == 0.0


class TestServeMetricsCompat:
    """A server records into its own child registry; the process
    registry's snapshot still shows those counts."""

    def test_serve_metrics_mirror_into_registry(self, registry):
        import asyncio

        from repro.errors import OverloadedError
        from repro.serve import InProcessClient, PlanServer, ServeConfig

        async def main():
            server = PlanServer(
                ServeConfig(workers=1, max_queue_depth=1)
            )
            client = InProcessClient(server)
            await client.request("plan", model="tiny", qos_percent=30)
            server.admission.admit()  # fill the only slot
            with pytest.raises(OverloadedError):
                await client.request("plan", model="tiny", qos_percent=30)
            server.admission.release()
            snap = server.stats()["metrics"]
            await server.stop()
            return server, snap

        server, snap = asyncio.run(main())
        own = server.registry
        assert own.counter_value("serve.requests", op="plan") == 1.0
        assert own.counter_value("serve.sheds", reason="queue_full") == 1.0
        counters = registry.snapshot()["counters"]
        assert counters["serve.requests"] == {"op=plan": 1.0}
        assert counters["serve.sheds"] == {"reason=queue_full": 1.0}
        assert snap["latency_by_op"]["plan"]["count"] == 1
        assert snap["latency_by_op"]["plan"]["buckets"]


class TestChildRegistries:
    @staticmethod
    def _record(registry):
        registry.count("serve.requests", op="plan")
        registry.count("serve.requests", n=2.0, op="reprice")
        registry.gauge_set("serve.queue_depth", 3.0)
        registry.observe("serve.latency", 0.25, op="plan")
        registry.observe("serve.latency", 0.5, op="plan")

    def test_one_child_snapshots_like_one_registry(self):
        parent, flat = MetricsRegistry(), MetricsRegistry()
        parent.count("pipeline.cache", cache="cloud", event="hit")
        flat.count("pipeline.cache", cache="cloud", event="hit")
        self._record(parent.child())
        self._record(flat)
        assert snapshot_digest(parent.snapshot()) == snapshot_digest(
            flat.snapshot()
        )

    def test_two_children_add_counters_and_keep_newest_gauge(self):
        parent = MetricsRegistry()
        old, new = parent.child(), parent.child()
        new.gauge_set("serve.queue_depth", 1.0)
        new.count("serve.requests", op="plan")
        old.count("serve.requests", n=2.0, op="plan")
        old.gauge_set("serve.queue_depth", 5.0)  # recorded last, older child
        old.observe("serve.latency", 0.25, op="plan")
        new.observe("serve.latency", 0.5, op="plan")
        snap = parent.snapshot()
        assert snap["counters"]["serve.requests"] == {"op=plan": 3.0}
        assert snap["gauges"]["serve.queue_depth"] == {"": 1.0}
        assert snap["histograms"]["serve.latency"]["op=plan"]["count"] == 2

    def test_counter_value_reads_own_families_only(self):
        parent = MetricsRegistry()
        parent.child().count("serve.requests", op="plan")
        assert parent.counter_value("serve.requests", op="plan") == 0.0

    def test_reset_clears_children_and_keeps_them_attached(self):
        parent = MetricsRegistry()
        child = parent.child()
        child.count("serve.requests", op="plan")
        parent.reset()
        assert parent.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        child.count("serve.requests", op="plan")
        assert parent.snapshot()["counters"]["serve.requests"] == {
            "op=plan": 1.0
        }
