"""TraceBuilder memoization: identity, keying, invalidation."""

import pytest

from repro.dse import paper_design_space
from repro.dse.explorer import DSEExplorer
from repro.engine.cost import TraceBuilder, model_fingerprint
from repro.errors import TraceError
from repro.nn import LayerKind, build_tiny_test_model


def node_of_kind(model, kind):
    for node in model.nodes:
        if node.layer.kind is kind:
            return node
    raise AssertionError


class TestMemoization:
    def test_repeat_build_returns_same_object(self, board, tiny_model):
        tracer = TraceBuilder(board)
        node = tiny_model.conv_nodes()[0]
        first = tracer.build(tiny_model, node, 4)
        second = tracer.build(tiny_model, node, 4)
        assert first is second
        assert tracer.cache_hits == 1
        assert tracer.cache_misses == 1

    def test_distinct_granularities_distinct_entries(self, board, tiny_model):
        tracer = TraceBuilder(board)
        node = node_of_kind(tiny_model, LayerKind.DEPTHWISE_CONV)
        t0 = tracer.build(tiny_model, node, 0)
        t4 = tracer.build(tiny_model, node, 4)
        assert t0 is not t4
        assert tracer.cache_misses == 2
        assert tracer.cache_hits == 0

    def test_non_dae_layer_folds_granularities(self, board, tiny_model):
        """Non-DAE kinds share the fused trace across every g."""
        tracer = TraceBuilder(board)
        node = node_of_kind(tiny_model, LayerKind.CONV2D)
        assert not node.layer.supports_dae
        fused = tracer.build(tiny_model, node, 0)
        again = tracer.build(tiny_model, node, 8)
        assert fused is again
        assert tracer.cache_misses == 1
        assert tracer.cache_hits == 1

    def test_cached_equals_uncached(self, board, tiny_model):
        cached = TraceBuilder(board)
        reference = TraceBuilder(board, cache=False)
        for node in tiny_model.conv_nodes():
            for g in (0, 4):
                if g and not node.layer.supports_dae:
                    continue
                a = cached.build(tiny_model, node, g)
                b = reference.build(tiny_model, node, g)
                assert a.total_workload() == b.total_workload()
                assert len(a.segments) == len(b.segments)

    def test_cache_disabled_builds_fresh(self, board, tiny_model):
        tracer = TraceBuilder(board, cache=False)
        node = tiny_model.conv_nodes()[0]
        first = tracer.build(tiny_model, node, 4)
        second = tracer.build(tiny_model, node, 4)
        assert first is not second
        assert tracer.cache_hits == 0
        assert tracer.cache_misses == 0

    def test_explore_builds_each_layer_granularity_once(
        self, board, tiny_model
    ):
        """The explore speedup as a count: one build per (layer, g).

        A second explorer sharing the trace cache (another QoS level,
        another fleet device) re-explores without building anything.
        """
        tracer = TraceBuilder(board)
        space = paper_design_space(board.power_model)
        keys = {
            (node.node_id, g if node.layer.supports_dae else 0)
            for node in tiny_model.conv_nodes()
            for g in space.granularities
        }
        DSEExplorer(board, space, tracer=tracer).explore_model(tiny_model)
        assert tracer.cache_misses == len(keys)
        assert tracer.cache_hits == 0
        DSEExplorer(board, space, tracer=tracer).explore_model(tiny_model)
        assert tracer.cache_misses == len(keys)
        assert tracer.cache_hits == len(keys)

    def test_negative_granularity_still_rejected(self, board, tiny_model):
        tracer = TraceBuilder(board)
        with pytest.raises(TraceError):
            tracer.build(tiny_model, tiny_model.conv_nodes()[0], -1)


class TestInvalidation:
    def test_clear_cache_resets(self, board, tiny_model):
        tracer = TraceBuilder(board)
        node = tiny_model.conv_nodes()[0]
        tracer.build(tiny_model, node, 0)
        tracer.clear_cache()
        assert tracer.cache_hits == 0
        assert tracer.cache_misses == 0
        first = tracer.build(tiny_model, node, 0)
        assert tracer.cache_misses == 1
        assert tracer.build(tiny_model, node, 0) is first

    def test_model_rename_changes_fingerprint(self, board, tiny_model):
        other = build_tiny_test_model()
        assert model_fingerprint(other) == model_fingerprint(tiny_model)
        other.name = "renamed"
        assert model_fingerprint(other) != model_fingerprint(tiny_model)

    def test_equal_models_share_entries(self, board, tiny_model):
        """Structurally identical models hit the same cache entry."""
        tracer = TraceBuilder(board)
        twin = build_tiny_test_model()
        node = tiny_model.conv_nodes()[0]
        twin_node = twin.conv_nodes()[0]
        first = tracer.build(tiny_model, node, 0)
        assert tracer.build(twin, twin_node, 0) is first
        assert tracer.cache_hits == 1
