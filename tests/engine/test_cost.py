"""Segment cost model: structure of the traces it builds."""

import pytest

from repro.engine import SegmentKind, TraceBuilder, TraceParams
from repro.engine.cost import PAPER_GRANULARITIES, _group_runs
from repro.errors import TraceError
from repro.nn import LayerKind, build_tiny_test_model


@pytest.fixture
def tracer(board):
    return TraceBuilder(board)


def node_of_kind(model, kind):
    for node in model.nodes:
        if node.layer.kind is kind:
            return node
    raise AssertionError(f"no {kind} in model")


class TestGroupSizes:
    """Groups come as (size, repeat count) runs."""

    def test_exact_division(self):
        assert _group_runs(16, 4) == [(4, 4)]

    def test_remainder_group(self):
        assert _group_runs(10, 4) == [(4, 2), (2, 1)]

    def test_granularity_larger_than_total(self):
        assert _group_runs(3, 16) == [(3, 1)]

    def test_zero_granularity_rejected(self):
        with pytest.raises(TraceError):
            _group_runs(10, 0)


class TestFusedTraces:
    def test_every_layer_gets_one_fused_segment(self, tracer, tiny_model):
        mt = tracer.build_model_trace(tiny_model)
        assert len(mt) == len(tiny_model.nodes)
        for trace in mt:
            assert not trace.is_decoupled
            assert len(trace.segments) == 1
            assert trace.segments[0].kind is SegmentKind.FUSED

    def test_non_dae_layers_ignore_granularity(self, tracer, tiny_model):
        conv = node_of_kind(tiny_model, LayerKind.CONV2D)
        trace = tracer.build(tiny_model, conv, 8)
        assert trace.granularity == 0
        assert not trace.is_decoupled

    def test_negative_granularity_rejected(self, tracer, tiny_model):
        with pytest.raises(TraceError):
            tracer.build(tiny_model, tiny_model.nodes[0], -1)

    def test_fused_macs_reflected_in_cycles(self, tracer, tiny_model):
        conv = node_of_kind(tiny_model, LayerKind.CONV2D)
        trace = tracer.build(tiny_model, conv, 0)
        macs = conv.layer.macs(*tiny_model.input_shapes_of(conv))
        cycles = trace.segments[0].workload.cpu_cycles
        assert cycles >= macs * tracer._timing.cycles_per_mac_conv


class TestDepthwiseDAE:
    def test_iteration_count(self, tracer, tiny_model):
        dw = node_of_kind(tiny_model, LayerKind.DEPTHWISE_CONV)
        channels = dw.layer.channels
        trace = tracer.build(tiny_model, dw, 4)
        assert trace.iterations == -(-channels // 4)
        assert len(trace.segments) == 2 * trace.iterations

    def test_alternating_segment_kinds(self, tracer, tiny_model):
        dw = node_of_kind(tiny_model, LayerKind.DEPTHWISE_CONV)
        trace = tracer.build(tiny_model, dw, 4)
        for i, segment in enumerate(trace.segments):
            expected = SegmentKind.MEMORY if i % 2 == 0 else SegmentKind.COMPUTE
            assert segment.kind is expected

    def test_memory_segments_carry_no_macs(self, tracer, tiny_model):
        dw = node_of_kind(tiny_model, LayerKind.DEPTHWISE_CONV)
        trace = tracer.build(tiny_model, dw, 4)
        for segment in trace.memory_segments():
            assert segment.workload.cpu_cycles <= tracer._timing.loop_overhead_cycles

    def test_compute_cycles_independent_of_granularity(
        self, tracer, tiny_model
    ):
        # The MACs are the MACs: granularity moves traffic, not math.
        dw = node_of_kind(tiny_model, LayerKind.DEPTHWISE_CONV)
        totals = []
        for g in (2, 4, 8):
            trace = tracer.build(tiny_model, dw, g)
            totals.append(
                sum(s.workload.cpu_cycles for s in trace.compute_segments())
            )
        assert max(totals) - min(totals) < 0.05 * max(totals)

    def test_dae_reduces_sram_traffic_vs_fused(self, tracer, tiny_model):
        # Burst buffering beats scattered sliding-window reloads.
        dw = node_of_kind(tiny_model, LayerKind.DEPTHWISE_CONV)
        fused = tracer.build(tiny_model, dw, 0).total_workload()
        dae = tracer.build(tiny_model, dw, 4).total_workload()
        assert dae.sram_bytes < fused.sram_bytes


class TestPointwiseDAE:
    def test_iteration_count_over_columns(self, tracer, tiny_model):
        pw = node_of_kind(tiny_model, LayerKind.POINTWISE_CONV)
        h, w, _ = tiny_model.input_shapes_of(pw)[0]
        trace = tracer.build(tiny_model, pw, 8)
        assert trace.iterations == -(-(h * w) // 8)

    def test_weight_reuse_improves_with_granularity(self, board, tiny_model):
        """Larger g -> fewer weight passes -> less flash traffic, for a
        matrix too large to cache."""
        from repro.mcu import CacheModel, make_nucleo_f767zi

        small_cache_board = make_nucleo_f767zi(
            cache=CacheModel(capacity_bytes=256, usable_fraction=0.5)
        )
        tracer = TraceBuilder(small_cache_board)
        pw = node_of_kind(tiny_model, LayerKind.POINTWISE_CONV)
        flash = {}
        for g in (2, 16):
            trace = tracer.build(tiny_model, pw, g)
            flash[g] = trace.total_workload().flash_bytes
        assert flash[16] < flash[2]

    def test_cached_weights_streamed_once(self, tracer, tiny_model):
        # Tiny model weights fit the default cache: flash traffic is
        # independent of granularity and equals one pass.
        pw = node_of_kind(tiny_model, LayerKind.POINTWISE_CONV)
        weight_bytes = pw.layer.weight_bytes()
        for g in (0, 2, 16):
            trace = tracer.build(tiny_model, pw, g)
            assert trace.total_workload().flash_bytes == pytest.approx(
                weight_bytes
            )


class TestGranularityCliff:
    def test_oversized_buffer_adds_refetch_traffic(self, tiny_model):
        from repro.mcu import CacheModel, make_nucleo_f767zi

        # A 1 KiB cache makes even small channel groups overflow.
        board = make_nucleo_f767zi(
            cache=CacheModel(capacity_bytes=1024, usable_fraction=0.5)
        )
        tracer = TraceBuilder(board)
        dw = node_of_kind(tiny_model, LayerKind.DEPTHWISE_CONV)
        small = tracer.build(tiny_model, dw, 2).total_workload()
        large = tracer.build(tiny_model, dw, 16).total_workload()
        assert large.sram_bytes > small.sram_bytes


class TestTraceParams:
    def test_paper_granularities(self):
        assert PAPER_GRANULARITIES == (0, 2, 4, 8, 12, 16)

    def test_validation(self):
        with pytest.raises(TraceError):
            TraceParams(reuse_dw=0.5)
        with pytest.raises(TraceError):
            TraceParams(burst_factor=0.5)
        with pytest.raises(TraceError):
            TraceParams(elementwise_cycles=-1)

    def test_model_trace_with_mixed_granularities(self, tracer, tiny_model):
        assignment = {n.node_id: 4 for n in tiny_model.dae_nodes()}
        mt = tracer.build_model_trace(tiny_model, assignment)
        decoupled = [t for t in mt if t.is_decoupled]
        assert len(decoupled) == len(tiny_model.dae_nodes())
