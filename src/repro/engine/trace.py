"""Execution-segment traces.

The DAE transformation (paper Sec. III-A, Listing 1) turns a
convolution layer into an alternating sequence of

* **memory-bound segments** -- buffer ``g`` channels (depthwise) or
  ``g`` columns (pointwise) into SRAM, plus stream the needed weights
  from flash -- and
* **compute-bound segments** -- run the ``g`` convolutions
  back-to-back out of the warm buffers.

A :class:`LayerTrace` is that sequence plus bookkeeping; an
un-decoupled layer (``g == 0`` or a non-DAE layer kind) is a single
:attr:`SegmentKind.FUSED` segment.  Only the last group of a DAE loop
can differ from the others, so a trace stores its sequence
run-length encoded: at most two distinct (memory, compute) pairs, each
with a repeat count (:class:`SegmentRun`).  The flat segment list is a
view built on demand.  Traces carry *primitive counts*
(:class:`~repro.mcu.core.SegmentWorkload`), not times: the runtime
prices them at whatever clock each segment ends up running, which is
what lets one trace be evaluated across the whole DVFS design space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TraceError
from ..mcu.core import SegmentWorkload
from ..nn.layers.base import LayerKind


class SegmentKind(enum.Enum):
    """Phase of a DAE-restructured layer."""

    #: Buffering phase: runs at the LFO clock.
    MEMORY = "memory"
    #: Arithmetic phase: runs at the layer's HFO clock.
    COMPUTE = "compute"
    #: Un-decoupled execution: one clock for the whole layer.
    FUSED = "fused"


@dataclass(frozen=True)
class Segment:
    """One homogeneous execution phase."""

    kind: SegmentKind
    workload: SegmentWorkload

    def __post_init__(self) -> None:
        total = (
            self.workload.cpu_cycles
            + self.workload.flash_bytes
            + self.workload.sram_bytes
        )
        if total <= 0:
            raise TraceError("segment must carry a non-empty workload")


@dataclass(frozen=True)
class SegmentRun:
    """``count`` back-to-back repeats of one group of segments.

    A decoupled trace's group is one (memory, compute) pair per DAE
    iteration; a fused trace is one run of its segments, repeated once.
    """

    segments: Tuple[Segment, ...]
    count: int


#: Runs at least this long are summed by numpy's ``add.accumulate``
#: (strictly sequential, so bit-identical to the Python loop that sums
#: shorter runs) -- the loop is cheaper below it, numpy above.
_ACCUMULATE_MIN_COUNT = 32


def _add_repeated(
    totals: Sequence[float], row: Sequence[float], count: int
) -> List[float]:
    """``totals`` after adding ``row`` element-wise ``count`` times in a
    row, rounding after every addition as a per-segment loop does
    (``count * row`` would round once and differ in the last bits).
    Rows are a decoupled run's six counts (memory, then compute)."""
    if count >= _ACCUMULATE_MIN_COUNT:
        steps = np.empty((count + 1, len(row)))
        steps[0] = totals
        steps[1:] = row
        return np.add.accumulate(steps, axis=0)[-1].tolist()
    a, b, c, d, e, f = totals
    ra, rb, rc, rd, re, rf = row
    for _ in range(count):
        a += ra
        b += rb
        c += rc
        d += rd
        e += re
        f += rf
    return [a, b, c, d, e, f]


def _encode_runs(
    segments: Sequence[Segment], decoupled: bool
) -> Tuple[SegmentRun, ...]:
    """Run-length encode a flat segment list: consecutive equal
    (memory, compute) pairs of a decoupled trace (an odd trailing
    segment becomes a one-segment run, which is malformed), or the
    whole list of a fused one."""
    if not decoupled:
        return (SegmentRun(tuple(segments), 1),) if segments else ()
    runs: List[SegmentRun] = []
    for i in range(0, len(segments), 2):
        pair = tuple(segments[i:i + 2])
        if runs and runs[-1].segments == pair:
            runs[-1] = SegmentRun(pair, runs[-1].count + 1)
        else:
            runs.append(SegmentRun(pair, 1))
    return tuple(runs)


@dataclass(init=False)
class LayerTrace:
    """The segment sequence of one layer at one granularity.

    Give the sequence either as ``runs`` (what :class:`~repro.engine.
    cost.TraceBuilder` stores) or as a flat ``segments`` list, which is
    run-length encoded on construction.

    Attributes:
        node_id: graph node this trace describes.
        layer_name: the layer's name (for reports).
        layer_kind: the layer's kind (drives Fig. 6 statistics).
        granularity: DAE granularity g (0 = no decoupling).
        runs: the sequence as :class:`SegmentRun` s.  For a decoupled
            layer, (memory, compute) pairs whose counts sum to
            ``iterations`` -- at most two distinct pairs, since only
            the last group can be short; for a fused layer a single
            FUSED segment.
        iterations: number of DAE loop iterations (0 when fused).

    Raises:
        TraceError: on a negative granularity, an iteration count that
            does not match the decoupling, or a decoupled sequence that
            is not ``iterations`` (memory, compute) pairs.
    """

    node_id: int
    layer_name: str
    layer_kind: LayerKind
    granularity: int
    runs: Tuple[SegmentRun, ...]
    iterations: int

    def __init__(
        self,
        node_id: int,
        layer_name: str,
        layer_kind: LayerKind,
        granularity: int,
        segments: Sequence[Segment] = (),
        iterations: int = 0,
        runs: Optional[Sequence[SegmentRun]] = None,
    ) -> None:
        self.node_id = node_id
        self.layer_name = layer_name
        self.layer_kind = layer_kind
        self.granularity = granularity
        self.iterations = iterations
        if granularity < 0:
            raise TraceError("granularity must be >= 0")
        if granularity == 0:
            if iterations != 0:
                raise TraceError("fused traces cannot have iterations")
        elif iterations <= 0:
            raise TraceError("decoupled traces need >= 1 iteration")
        decoupled = granularity > 0
        if runs is None:
            runs = _encode_runs(segments, decoupled)
        self.runs = tuple(runs)
        if decoupled and not self._well_formed():
            raise TraceError(
                f"layer {layer_name!r}: malformed decoupled trace"
            )

    def _well_formed(self) -> bool:
        """Decoupled runs are (memory, compute) pairs that repeat
        ``iterations`` times in all."""
        return sum(run.count for run in self.runs) == self.iterations and all(
            run.count > 0
            and len(run.segments) == 2
            and run.segments[0].kind is SegmentKind.MEMORY
            and run.segments[1].kind is SegmentKind.COMPUTE
            for run in self.runs
        )

    @property
    def segments(self) -> List[Segment]:
        """The flat ordered segment list, expanded from :attr:`runs`.

        Built on every access: for a decoupled layer this is
        ``iterations`` (memory, compute) pairs.  Hot paths read
        :attr:`runs` instead.
        """
        return [
            segment
            for run in self.runs
            for _ in range(run.count)
            for segment in run.segments
        ]

    @property
    def is_decoupled(self) -> bool:
        """Whether this trace alternates memory/compute segments."""
        return self.granularity > 0

    def memory_segments(self) -> List[Segment]:
        """Segments that run at the LFO clock."""
        return [s for s in self.segments if s.kind is SegmentKind.MEMORY]

    def compute_segments(self) -> List[Segment]:
        """Segments that run at the HFO clock."""
        return [s for s in self.segments if s.kind is SegmentKind.COMPUTE]

    def total_workload(self) -> SegmentWorkload:
        """Sum of all segment workloads (granularity-independent MACs
        plus granularity-dependent buffering overheads)."""
        total = SegmentWorkload()
        for segment in self.segments:
            total = total.merged(segment.workload)
        return total

    def phase_workloads(self) -> Tuple[SegmentWorkload, SegmentWorkload]:
        """(memory, compute) workload totals of a decoupled trace.

        Summed in segment order with one rounding per segment, so each
        total is bit-identical to merging the segments one by one; the
        work is one pass per run for short runs and one numpy
        accumulate for long ones, not one object per segment.
        """
        totals = [0.0] * 6
        for run in self.runs:
            mem, comp = run.segments[0].workload, run.segments[1].workload
            totals = _add_repeated(
                totals,
                (
                    mem.cpu_cycles, mem.flash_bytes, mem.sram_bytes,
                    comp.cpu_cycles, comp.flash_bytes, comp.sram_bytes,
                ),
                run.count,
            )
        return (
            SegmentWorkload(*totals[:3]),
            SegmentWorkload(*totals[3:]),
        )

    def mux_switch_count(self) -> int:
        """SYSCLK mux transitions this trace's execution performs.

        Two per iteration: into the memory segment (to HSE) and back
        into the compute segment (to PLL).  Fused traces switch zero
        times within the layer.
        """
        return 2 * self.iterations if self.is_decoupled else 0


@dataclass
class ModelTrace:
    """Per-layer traces for one full model configuration."""

    model_name: str
    layer_traces: List[LayerTrace] = field(default_factory=list)

    def __iter__(self) -> Iterator[LayerTrace]:
        return iter(self.layer_traces)

    def __len__(self) -> int:
        return len(self.layer_traces)

    def trace_for(self, node_id: int) -> LayerTrace:
        """Find the trace of one node.

        Raises:
            TraceError: if the node has no trace.
        """
        for trace in self.layer_traces:
            if trace.node_id == node_id:
                return trace
        raise TraceError(f"no trace for node {node_id}")
