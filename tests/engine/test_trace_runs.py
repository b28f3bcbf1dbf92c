"""Run-length DAE traces: the runs are the segment sequence, compressed.

A decoupled trace stores at most two distinct (memory, compute) pairs
with repeat counts; the flat segment list is a view.  These tests pin
that view to the per-group segment sequence the builder emitted before
traces were run-length encoded (a digest recorded from that builder),
and pin the run-wise sums the explorer prices from to a per-segment
walk, bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.dse import paper_design_space
from repro.dse.explorer import LayerCostModel, TimeComponents
from repro.engine import LayerTrace, SegmentKind, TraceBuilder
from repro.engine.cost import PAPER_GRANULARITIES
from repro.errors import TraceError
from repro.mcu import SegmentWorkload, make_nucleo_f767zi
from repro.nn import build_tiny_test_model
from repro.nn.models import PAPER_MODELS

#: sha256 prefix over (node id, granularity, iterations, segment list)
#: of every trace below, recorded from the per-group builder.
SEGMENT_DIGEST = "011eb0769423e3d9"
N_TRACES = 1246

MODELS = {"tiny": build_tiny_test_model, **PAPER_MODELS}


def sweep(model):
    """Every space granularity plus 1, 3, 7 and one past the channels."""
    for node in model.conv_nodes():
        channels = model.input_shapes_of(node)[0][-1]
        for g in sorted(set(PAPER_GRANULARITIES + (1, 3, 7, channels + 1))):
            yield node, g


@pytest.fixture(scope="module")
def traces():
    built = []
    for name in sorted(MODELS):
        model = MODELS[name]()
        tracer = TraceBuilder(make_nucleo_f767zi())
        for node, g in sweep(model):
            built.append((node, tracer.build(model, node, g)))
    return built


class TestRunsAreTheSegmentSequence:
    def test_runs_expand_to_the_per_group_sequence(self, traces):
        digest = hashlib.sha256()
        for node, trace in traces:
            digest.update(repr((
                node.node_id, trace.granularity, trace.iterations,
                trace.segments,
            )).encode())
        assert len(traces) == N_TRACES
        assert digest.hexdigest()[:16] == SEGMENT_DIGEST

    def test_counts_sum_to_iterations(self, traces):
        decoupled = 0
        for _, trace in traces:
            if not trace.is_decoupled:
                assert [run.count for run in trace.runs] == [1]
                continue
            decoupled += 1
            # Full groups repeat one pair; only the last can differ.
            assert 1 <= len(trace.runs) <= 2
            assert sum(run.count for run in trace.runs) == trace.iterations
            assert len(trace.segments) == 2 * trace.iterations
        assert decoupled > 0

    def test_hand_built_segments_give_the_same_runs(self, traces):
        for _, trace in traces:
            rebuilt = LayerTrace(
                node_id=trace.node_id,
                layer_name=trace.layer_name,
                layer_kind=trace.layer_kind,
                granularity=trace.granularity,
                segments=trace.segments,
                iterations=trace.iterations,
            )
            assert rebuilt.runs == trace.runs
            assert rebuilt == trace


def per_segment_components(pricer, trace, hfos, lfo, assume_relock):
    """The explorer's decomposition from a per-segment walk: one float
    add per segment, in segment order."""
    core, switch = pricer.board.core, pricer.board.switch_cost_model
    f_vec = pricer._power_vectors(tuple(hfos))["f"]
    sums = {SegmentKind.MEMORY: [0.0] * 3, SegmentKind.COMPUTE: [0.0] * 3}
    for segment in trace.segments:
        acc, w = sums[segment.kind], segment.workload
        acc[0] += w.cpu_cycles
        acc[1] += w.flash_bytes
        acc[2] += w.sram_bytes
    mem_ct, mem_mt = core.segment_time_parts(
        SegmentWorkload(*sums[SegmentKind.MEMORY]), lfo.sysclk_hz
    )
    comp_ct, comp_mt = pricer._segment_time_parts_vec(
        SegmentWorkload(*sums[SegmentKind.COMPUTE]), f_vec
    )
    extra = 0.0
    if assume_relock:
        first_mem = trace.memory_segments()[0].workload
        first_mem_t = core.segment_time_s(first_mem, lfo.sysclk_hz)
        extra += max(0.0, switch.pll_relock_s - first_mem_t)
    extra_t = extra + trace.mux_switch_count() * switch.mux_switch_s
    return TimeComponents(
        comp_hfo=comp_ct, mem_hfo=comp_mt, comp_lfo=mem_ct,
        mem_lfo=mem_mt, switch_lfo=np.full(len(hfos), extra_t),
    )


class TestRunWiseSums:
    def test_phase_workloads_equal_a_per_segment_walk(self, traces):
        long_runs = 0
        for _, trace in traces:
            if not trace.is_decoupled:
                continue
            long_runs += trace.runs[0].count >= 32
            mem, comp = SegmentWorkload(), SegmentWorkload()
            for segment in trace.segments:
                if segment.kind is SegmentKind.MEMORY:
                    mem = mem.merged(segment.workload)
                else:
                    comp = comp.merged(segment.workload)
            assert trace.phase_workloads() == (mem, comp)
        # Both summing paths (loop and numpy accumulate) are covered.
        assert long_runs > 0

    def test_time_components_bit_equal_to_per_segment_sum(self, traces):
        board = make_nucleo_f767zi()
        space = paper_design_space(board.power_model)
        pricer = LayerCostModel(board)
        for _, trace in traces:
            if not trace.is_decoupled:
                continue
            for relock in (False, True):
                got = pricer.time_components_batch(
                    trace, space.hfo_configs, space.lfo,
                    assume_relock=relock,
                )
                want = per_segment_components(
                    pricer, trace, space.hfo_configs, space.lfo, relock
                )
                assert got.comp_lfo == want.comp_lfo
                assert got.mem_lfo == want.mem_lfo
                for field in ("comp_hfo", "mem_hfo", "switch_lfo"):
                    assert np.array_equal(
                        getattr(got, field), getattr(want, field)
                    ), field


class TestMalformedDecoupledTraces:
    def test_odd_segment_count_rejected(self, traces):
        trace = next(t for _, t in traces if t.is_decoupled)
        with pytest.raises(TraceError):
            LayerTrace(
                node_id=trace.node_id,
                layer_name=trace.layer_name,
                layer_kind=trace.layer_kind,
                granularity=trace.granularity,
                segments=trace.segments[:-1],
                iterations=trace.iterations,
            )

    def test_swapped_phases_rejected(self, traces):
        trace = next(t for _, t in traces if t.is_decoupled)
        segments = trace.segments
        segments[0], segments[1] = segments[1], segments[0]
        with pytest.raises(TraceError):
            LayerTrace(
                node_id=trace.node_id,
                layer_name=trace.layer_name,
                layer_kind=trace.layer_kind,
                granularity=trace.granularity,
                segments=segments,
                iterations=trace.iterations,
            )
