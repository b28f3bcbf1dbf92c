"""merge_snapshot algebra: lossless, order-independent, exact.

The merge is the load-bearing primitive of fleet-coherent monitoring:
the process registry's snapshot of its per-server children and the
scenario resume splice both assume that merging snapshots is *exactly*
additive (counters and histogram buckets), commutative, and
associative.  The tests pin those algebraic properties byte-for-byte
via :func:`snapshot_digest`, using dyadic-rational latencies so float
addition itself cannot smuggle in rounding.
"""

import pytest

from repro.obs.registry import (
    MetricsRegistry,
    merge_snapshot,
    snapshot_digest,
)

#: Exactly-representable binary fractions: sums and fsum reorderings
#: are bit-exact, so any digest difference is a real merge bug.
DYADIC = [2.0 ** -k for k in range(3, 11)]


def seeded_registry(seed: int, events: int = 48) -> MetricsRegistry:
    """A registry filled from a tiny deterministic LCG."""
    registry = MetricsRegistry()
    state = (seed * 2654435761 + 12345) % 2 ** 31 | 1
    for _ in range(events):
        state = (1103515245 * state + 12345) % 2 ** 31
        op = ("plan", "reprice", "telemetry")[state % 3]
        registry.count("serve.requests", op=op)
        if state % 5 == 0:
            registry.count("serve.sheds", reason="queue_full")
        registry.observe(
            "serve.latency", DYADIC[state % len(DYADIC)], op=op
        )
    return registry


class TestSnapshotDeterminism:
    def test_label_insertion_order_is_irrelevant(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("serve.requests", op="plan", client="x")
        b.count("serve.requests", client="x", op="plan")
        a.observe("serve.latency", 0.25, op="plan", client="x")
        b.observe("serve.latency", 0.25, client="x", op="plan")
        assert snapshot_digest(a.snapshot()) == snapshot_digest(
            b.snapshot()
        )

    def test_family_recording_order_is_irrelevant(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("z.family")
        a.count("a.family")
        b.count("a.family")
        b.count("z.family")
        assert snapshot_digest(a.snapshot()) == snapshot_digest(
            b.snapshot()
        )

    def test_same_seed_same_digest(self):
        assert snapshot_digest(
            seeded_registry(7).snapshot()
        ) == snapshot_digest(seeded_registry(7).snapshot())


class TestMergeAlgebra:
    def test_commutative(self):
        snaps = [seeded_registry(s).snapshot() for s in (1, 2)]
        assert snapshot_digest(
            merge_snapshot(snaps)
        ) == snapshot_digest(merge_snapshot(list(reversed(snaps))))

    def test_associative(self):
        a, b, c = (
            seeded_registry(s).snapshot() for s in (1, 2, 3)
        )
        left = merge_snapshot([merge_snapshot([a, b]), c])
        right = merge_snapshot([a, merge_snapshot([b, c])])
        flat = merge_snapshot([a, b, c])
        assert snapshot_digest(left) == snapshot_digest(flat)
        assert snapshot_digest(right) == snapshot_digest(flat)

    def test_split_stream_merges_back_to_the_whole(self):
        """The acceptance-pin property, in miniature.

        Recording a stream into one registry, or alternating it
        across two and merging, must produce the *identical* snapshot
        -- counters, histogram counts, bucket counts, sums, and the
        percentiles recomputed from them.
        """
        whole = MetricsRegistry()
        parts = [MetricsRegistry(), MetricsRegistry()]
        state = 99991
        for i in range(60):
            state = (1103515245 * state + 12345) % 2 ** 31
            op = ("plan", "reprice")[state % 2]
            value = DYADIC[state % len(DYADIC)]
            for target in (whole, parts[i % 2]):
                target.count("serve.requests", op=op)
                target.observe("serve.latency", value, op=op)
        merged = merge_snapshot([s.snapshot() for s in parts])
        assert snapshot_digest(merged) == snapshot_digest(
            whole.snapshot()
        )

    def test_counter_cells_add_per_label(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("serve.requests", n=3, op="plan")
        b.count("serve.requests", n=4, op="plan")
        b.count("serve.requests", n=2, op="stats")
        merged = merge_snapshot([a.snapshot(), b.snapshot()])
        cells = merged["counters"]["serve.requests"]
        assert cells["op=plan"] == 7
        assert cells["op=stats"] == 2

    def test_histogram_bucket_sums_are_exact(self):
        parts = [seeded_registry(s) for s in (11, 12, 13)]
        snaps = [s.snapshot() for s in parts]
        merged = merge_snapshot(snaps)
        for label, summary in merged["histograms"][
            "serve.latency"
        ].items():
            per_part = [
                snap["histograms"]["serve.latency"].get(label)
                for snap in snaps
            ]
            per_part = [s for s in per_part if s is not None]
            assert summary["count"] == sum(
                s["count"] for s in per_part
            )
            assert summary["sum_s"] == sum(
                s["sum_s"] for s in per_part
            )
            merged_buckets = {
                b["le"]: b["count"] for b in summary["buckets"]
            }
            expect: dict = {}
            for s in per_part:
                for bucket in s["buckets"]:
                    expect[bucket["le"]] = (
                        expect.get(bucket["le"], 0) + bucket["count"]
                    )
            assert merged_buckets == expect

    def test_merge_of_merges_composes(self):
        snaps = [seeded_registry(s).snapshot() for s in range(4)]
        once = merge_snapshot(snaps)
        twice = merge_snapshot(
            [merge_snapshot(snaps[:2]), merge_snapshot(snaps[2:])]
        )
        assert snapshot_digest(once) == snapshot_digest(twice)

    def test_empty_merge_is_a_valid_snapshot(self):
        merged = merge_snapshot([])
        assert merged == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestGaugeMerge:
    def snaps(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge_set("serve.queue_depth", 3.0)
        b.gauge_set("serve.queue_depth", 5.0)
        return [a.snapshot(), b.snapshot()]

    def test_sum_is_the_default(self):
        merged = merge_snapshot(self.snaps())
        assert merged["gauges"]["serve.queue_depth"][""] == 8.0

    def test_max_min_last(self):
        snaps = self.snaps()
        assert merge_snapshot(snaps, gauge_merge="max")["gauges"][
            "serve.queue_depth"
        ][""] == 5.0
        assert merge_snapshot(snaps, gauge_merge="min")["gauges"][
            "serve.queue_depth"
        ][""] == 3.0
        assert merge_snapshot(snaps, gauge_merge="last")["gauges"][
            "serve.queue_depth"
        ][""] == 5.0

    def test_per_family_override(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge_set("pool.size", 2.0)
        a.gauge_set("queue.peak", 4.0)
        b.gauge_set("pool.size", 3.0)
        b.gauge_set("queue.peak", 9.0)
        merged = merge_snapshot(
            [a.snapshot(), b.snapshot()],
            gauge_modes={"queue.peak": "max"},
        )
        assert merged["gauges"]["pool.size"][""] == 5.0  # default sum
        assert merged["gauges"]["queue.peak"][""] == 9.0

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            merge_snapshot(self.snaps(), gauge_merge="median")
