"""Analytic segment cost model: layers -> segment traces.

This module turns a graph node plus a DAE granularity ``g`` into a
:class:`~repro.engine.trace.LayerTrace` whose segments carry primitive
counts (compute cycles, flash bytes, effective SRAM bytes).  It encodes
the access/compute structure of CMSIS-NN/TinyEngine-style int8 kernels
and of their DAE restructurings (paper Sec. III-A):

**Depthwise** (per-channel independence):

* fused (g=0): one segment with all MACs plus *scattered* activation
  traffic -- each input byte is touched ``reuse_dw`` times by the
  sliding window (row buffering keeps it below k*k).
* DAE (g>0): per group of ``g`` channels, a memory segment that
  burst-copies the channel maps into an SRAM buffer (burst transfers
  amortize the per-word stall by ``burst_factor``) and streams the
  group's filter weights from flash, followed by a compute segment
  whose activation loads now hit the warm buffer (their cost is inside
  the cycles-per-MAC figure).  If the group working set overflows the
  usable cache, the overflowing fraction must be re-fetched during
  compute -- the granularity cliff.

**Pointwise** (per-column independence):

* fused (g=0): columns are processed one at a time.  Each column walk
  re-reads the full weight matrix; matrices that fit in the usable
  cache are streamed from flash once, larger ones pay a refetch
  fraction on every subsequent pass.
* DAE (g>0): ``g`` columns are buffered per memory segment, and one
  weight pass now serves ``g`` columns -- DAE improves weight reuse by
  exactly its granularity, which is why large pointwise layers prefer
  large ``g``.

Everything is parameterized by :class:`TraceParams` so the calibration
tests can tune the handful of constants against the paper's reported
ratios.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import TraceError
from ..mcu.board import Board
from ..mcu.cache import CacheModel
from ..mcu.core import CoreTimingParams, SegmentWorkload
from ..memo import Memo
from ..nn.graph import Model, Node
from ..nn.layers.base import LayerKind, Shape
from .trace import LayerTrace, ModelTrace, Segment, SegmentKind

#: The paper's explored granularities (Sec. III-B); 0 = no DAE.
PAPER_GRANULARITIES = (0, 2, 4, 8, 12, 16)


#: id(model) -> (weakref, mutation guard, fingerprint).  The guard
#: covers every mutable input of the fingerprint: the node count
#: changes on ``Model.add`` (nodes are frozen, so append is the only
#: graph mutation) and the name/input shape on direct reassignment.
#: The weakref both detects id() reuse and evicts entries when the
#: model is collected.
_FINGERPRINT_MEMO: Dict[int, Tuple] = {}
_FINGERPRINT_LOCK = threading.Lock()


def _fingerprint_guard(model: Model) -> Tuple:
    return (model.name, model.input_shape, len(model.nodes))


def model_fingerprint(model: Model) -> Tuple:
    """Structural identity of a model, suitable as a cache key.

    Two models with the same fingerprint produce byte-identical traces:
    the fingerprint covers the graph topology and every shape the cost
    model reads (weights do not enter the access-pattern model).
    Mutating a model (``Model.add``, renaming) changes its
    fingerprint, so caches keyed on it never serve stale traces.
    """
    key = id(model)
    with _FINGERPRINT_LOCK:
        memo = _FINGERPRINT_MEMO.get(key)
    if memo is not None:
        ref, guard, fingerprint = memo
        if ref() is model and guard == _fingerprint_guard(model):
            return fingerprint
    fingerprint = _compute_fingerprint(model)
    ref = weakref.ref(
        model, lambda _ref, _key=key: _FINGERPRINT_MEMO.pop(_key, None)
    )
    with _FINGERPRINT_LOCK:
        _FINGERPRINT_MEMO[key] = (
            ref, _fingerprint_guard(model), fingerprint,
        )
    return fingerprint


def _compute_fingerprint(model: Model) -> Tuple:
    return (
        model.name,
        model.input_shape,
        tuple(
            (
                node.node_id,
                node.layer.name,
                node.layer.kind.value,
                node.inputs,
                node.output_shape,
            )
            for node in model.nodes
        ),
    )


@dataclass(frozen=True)
class TraceParams:
    """Constants of the access-pattern model.

    Attributes:
        reuse_dw: times each input byte is loaded by a fused depthwise
            sliding window (row buffering keeps this near 3 for 3x3
            kernels instead of 9).
        reuse_conv: the same for generic convolutions (im2col rows).
        burst_factor: stall-amortization of burst copies (memcpy-style
            DAE buffering) relative to scattered word loads.
        column_overhead_cycles: per-column loop overhead of pointwise
            kernels.
        elementwise_cycles: cycles per element of add/pool/activation
            layers.
    """

    reuse_dw: float = 3.0
    reuse_conv: float = 3.0
    burst_factor: float = 3.0
    column_overhead_cycles: float = 6.0
    elementwise_cycles: float = 4.0

    def __post_init__(self) -> None:
        if self.reuse_dw < 1 or self.reuse_conv < 1:
            raise TraceError("reuse factors must be >= 1")
        if self.burst_factor < 1:
            raise TraceError("burst_factor must be >= 1")
        if self.column_overhead_cycles < 0 or self.elementwise_cycles < 0:
            raise TraceError("cycle overheads must be >= 0")


def _group_sizes(total: int, g: int) -> List[int]:
    """Split ``total`` units into groups of ``g`` (last may be short)."""
    if g <= 0:
        raise TraceError("grouping requires g > 0")
    full, rest = divmod(total, g)
    sizes = [g] * full
    if rest:
        sizes.append(rest)
    return sizes


class TraceBuilder:
    """Builds layer/model traces against one board description.

    Traces are pure functions of (board, params, model structure, node,
    granularity), so by default every built trace is memoized and the
    same :class:`~repro.engine.trace.LayerTrace` instance is returned
    on repeat requests -- the DSE sweep, the pipeline's fixed-overhead
    accounting, the refinement loop and the runtime all share one
    build per (model, node, g).  Callers must treat cached traces as
    immutable.  The cache is a single-flight :class:`~repro.memo.Memo`,
    so one builder can be shared across threads (the fleet worker pool
    does exactly that) and still builds each key once; use
    :meth:`clear_cache` after mutating ``board`` or ``params`` in
    place, or pass ``cache=False`` for the uncached reference
    behaviour.

    Args:
        board: the simulated board.
        params: access-pattern constants.
        cache: memoize built traces (on by default).
    """

    def __init__(
        self,
        board: Board,
        params: Optional[TraceParams] = None,
        cache: bool = True,
    ):
        self.board = board
        self.params = params or TraceParams()
        self._cache_enabled = cache
        self._traces = Memo()

    @property
    def cache_hits(self) -> int:
        """Builds served from the cache (waits on another build too)."""
        return self._traces.counts["hit"] + self._traces.counts["wait"]

    @property
    def cache_misses(self) -> int:
        """Traces actually built (one per key)."""
        return self._traces.counts["miss"]

    def clear_cache(self) -> None:
        """Drop every memoized trace (and reset the hit/miss counters)."""
        self._traces.clear()

    @property
    def _cache(self) -> CacheModel:
        return self.board.cache

    @property
    def _timing(self) -> CoreTimingParams:
        return self.board.core.params

    # -- public API -----------------------------------------------------------

    def build(self, model: Model, node: Node, granularity: int) -> LayerTrace:
        """Trace one node at one granularity (memoized).

        Non-DAE layer kinds ignore the granularity and always produce a
        fused trace.

        Raises:
            TraceError: on negative granularity.
        """
        if granularity < 0:
            raise TraceError(f"granularity must be >= 0, got {granularity}")
        if not self._cache_enabled:
            return self._build_uncached(model, node, granularity)
        # Non-DAE kinds fold every granularity onto the fused (g=0)
        # trace, so normalize the key and share the entry.
        effective_g = (
            granularity if node.layer.supports_dae else 0
        )
        # Concurrent misses of one key wait for its single build, so
        # every caller sees one shared trace and each key builds once.
        return self._traces.get(
            (model_fingerprint(model), node.node_id, effective_g),
            self._build_uncached, model, node, granularity,
        )

    def _build_uncached(
        self, model: Model, node: Node, granularity: int
    ) -> LayerTrace:
        input_shapes = model.input_shapes_of(node)
        kind = node.layer.kind
        if granularity > 0 and node.layer.supports_dae:
            if kind is LayerKind.DEPTHWISE_CONV:
                segments, iterations = self._depthwise_dae(
                    node, input_shapes, granularity
                )
            else:
                segments, iterations = self._pointwise_dae(
                    node, input_shapes, granularity
                )
            return LayerTrace(
                node_id=node.node_id,
                layer_name=node.layer.name,
                layer_kind=kind,
                granularity=granularity,
                segments=segments,
                iterations=iterations,
            )
        return LayerTrace(
            node_id=node.node_id,
            layer_name=node.layer.name,
            layer_kind=kind,
            granularity=0,
            segments=[self._fused_segment(node, input_shapes)],
            iterations=0,
        )

    def build_model_trace(
        self,
        model: Model,
        granularities: Optional[Mapping[int, int]] = None,
    ) -> ModelTrace:
        """Trace every node of a model.

        Args:
            granularities: node-id -> g mapping; missing nodes run
                fused (g = 0).
        """
        granularities = granularities or {}
        traces = [
            self.build(model, node, granularities.get(node.node_id, 0))
            for node in model.nodes
        ]
        return ModelTrace(model_name=model.name, layer_traces=traces)

    # -- fused (undecoupled) costs ---------------------------------------------

    def _fused_segment(
        self, node: Node, input_shapes: Tuple[Shape, ...]
    ) -> Segment:
        kind = node.layer.kind
        if kind is LayerKind.DEPTHWISE_CONV:
            workload = self._depthwise_fused(node, input_shapes)
        elif kind is LayerKind.POINTWISE_CONV:
            workload = self._pointwise_fused(node, input_shapes)
        elif kind is LayerKind.CONV2D:
            workload = self._conv_fused(node, input_shapes)
        elif kind is LayerKind.DENSE:
            workload = self._dense_fused(node, input_shapes)
        else:
            workload = self._elementwise_fused(node, input_shapes)
        return Segment(kind=SegmentKind.FUSED, workload=workload)

    def _depthwise_fused(
        self, node: Node, input_shapes: Tuple[Shape, ...]
    ) -> SegmentWorkload:
        layer = node.layer
        (in_shape,) = input_shapes
        h, w, c = in_shape
        out_h, out_w, _ = node.output_shape
        in_b, out_b = h * w, out_h * out_w
        weight_b = layer.kernel * layer.kernel + 4
        macs = layer.macs(in_shape)
        cpu = (
            macs * self._timing.cycles_per_mac_depthwise
            + c * self._timing.loop_overhead_cycles
            + out_b * c * self._timing.cycles_per_output_byte
        )
        sram = c * (self.params.reuse_dw * in_b + out_b)
        flash = c * weight_b
        return SegmentWorkload(cpu_cycles=cpu, flash_bytes=flash, sram_bytes=sram)

    def _pointwise_fused(
        self, node: Node, input_shapes: Tuple[Shape, ...]
    ) -> SegmentWorkload:
        layer = node.layer
        (in_shape,) = input_shapes
        h, w, c_in = in_shape
        c_out = layer.out_channels
        positions = h * w
        weight_bytes = c_in * c_out + 4 * c_out
        macs = layer.macs(in_shape)
        cpu = (
            macs * self._timing.cycles_per_mac_pointwise
            + positions * self.params.column_overhead_cycles
            + positions * c_out * self._timing.cycles_per_output_byte
            + self._timing.loop_overhead_cycles
        )
        sram = positions * (c_in + c_out)
        flash = self._weight_flash_traffic(
            weight_bytes, passes=positions, extra_ws=c_in + c_out
        )
        return SegmentWorkload(cpu_cycles=cpu, flash_bytes=flash, sram_bytes=sram)

    def _conv_fused(
        self, node: Node, input_shapes: Tuple[Shape, ...]
    ) -> SegmentWorkload:
        layer = node.layer
        (in_shape,) = input_shapes
        h, w, c_in = in_shape
        out_h, out_w, c_out = node.output_shape
        positions = out_h * out_w
        weight_bytes = layer.weight_bytes()
        macs = layer.macs(in_shape)
        cpu = (
            macs * self._timing.cycles_per_mac_conv
            + positions * self.params.column_overhead_cycles
            + positions * c_out * self._timing.cycles_per_output_byte
            + self._timing.loop_overhead_cycles
        )
        sram = self.params.reuse_conv * h * w * c_in + positions * c_out
        flash = self._weight_flash_traffic(
            weight_bytes,
            passes=positions,
            extra_ws=layer.kernel * layer.kernel * c_in + c_out,
        )
        return SegmentWorkload(cpu_cycles=cpu, flash_bytes=flash, sram_bytes=sram)

    def _dense_fused(
        self, node: Node, input_shapes: Tuple[Shape, ...]
    ) -> SegmentWorkload:
        layer = node.layer
        macs = layer.macs(*input_shapes)
        in_features = layer.in_features
        out_features = layer.out_features
        cpu = (
            macs * self._timing.cycles_per_mac_conv
            + out_features * self._timing.cycles_per_output_byte
            + self._timing.loop_overhead_cycles
        )
        flash = self._weight_flash_traffic(
            layer.weight_bytes(), passes=1, extra_ws=in_features + out_features
        )
        return SegmentWorkload(
            cpu_cycles=cpu,
            flash_bytes=flash,
            sram_bytes=in_features + out_features,
        )

    def _elementwise_fused(
        self, node: Node, input_shapes: Tuple[Shape, ...]
    ) -> SegmentWorkload:
        layer = node.layer
        out_elems = 1
        for dim in node.output_shape:
            out_elems *= dim
        in_bytes = layer.input_bytes(*input_shapes)
        cpu = (
            out_elems * self.params.elementwise_cycles
            + self._timing.loop_overhead_cycles
        )
        return SegmentWorkload(
            cpu_cycles=cpu,
            flash_bytes=0.0,
            sram_bytes=in_bytes + out_elems,
        )

    # -- DAE (decoupled) costs ----------------------------------------------------

    def _depthwise_dae(
        self, node: Node, input_shapes: Tuple[Shape, ...], g: int
    ) -> Tuple[List[Segment], int]:
        layer = node.layer
        (in_shape,) = input_shapes
        h, w, c = in_shape
        out_h, out_w, _ = node.output_shape
        in_b, out_b = h * w, out_h * out_w
        weight_b = layer.kernel * layer.kernel + 4
        macs_per_channel = out_b * layer.kernel * layer.kernel
        segments: List[Segment] = []
        sizes = _group_sizes(c, g)
        # All full groups produce identical (immutable) segment pairs;
        # build one pair per distinct group size and share it.
        pair_for_size: Dict[int, Tuple[Segment, Segment]] = {}
        for gi in sizes:
            pair = pair_for_size.get(gi)
            if pair is None:
                # Memory-bound: burst-copy gi channel maps into the
                # buffer and stream the group's filters from flash.
                mem = SegmentWorkload(
                    cpu_cycles=self._timing.loop_overhead_cycles,
                    flash_bytes=gi * weight_b,
                    sram_bytes=2.0 * gi * in_b / self.params.burst_factor,
                )
                # Compute-bound: MACs out of warm buffers.  An
                # overflowing working set evicts buffered channels
                # before use and the scattered re-fetch cost comes back.
                working_set = gi * (in_b + out_b + weight_b)
                refetch = self._cache.refetch_fraction(working_set)
                compute = SegmentWorkload(
                    cpu_cycles=(
                        gi * macs_per_channel
                        * self._timing.cycles_per_mac_depthwise
                        + gi * out_b * self._timing.cycles_per_output_byte
                        + self._timing.loop_overhead_cycles
                    ),
                    flash_bytes=0.0,
                    sram_bytes=gi * out_b
                    + refetch * self.params.reuse_dw * gi * in_b,
                )
                pair = (
                    Segment(kind=SegmentKind.MEMORY, workload=mem),
                    Segment(kind=SegmentKind.COMPUTE, workload=compute),
                )
                pair_for_size[gi] = pair
            segments.extend(pair)
        return segments, len(sizes)

    def _pointwise_dae(
        self, node: Node, input_shapes: Tuple[Shape, ...], g: int
    ) -> Tuple[List[Segment], int]:
        layer = node.layer
        (in_shape,) = input_shapes
        h, w, c_in = in_shape
        c_out = layer.out_channels
        positions = h * w
        weight_bytes = c_in * c_out + 4 * c_out
        sizes = _group_sizes(positions, g)
        n_groups = len(sizes)
        # One weight pass per column group; passes beyond the first only
        # re-stream the fraction of the matrix the cache could not hold.
        buffer_ws = g * (c_in + c_out)
        total_weight_flash = self._weight_flash_traffic(
            weight_bytes, passes=n_groups, extra_ws=buffer_ws
        )
        weight_flash_per_group = total_weight_flash / n_groups
        activation_refetch = self._cache.refetch_fraction(buffer_ws)
        segments: List[Segment] = []
        # Full groups share one immutable segment pair per distinct
        # size (only the last group can differ).
        pair_for_size: Dict[int, Tuple[Segment, Segment]] = {}
        for gi in sizes:
            pair = pair_for_size.get(gi)
            if pair is None:
                mem = SegmentWorkload(
                    cpu_cycles=self._timing.loop_overhead_cycles,
                    flash_bytes=0.0,
                    sram_bytes=2.0 * gi * c_in / self.params.burst_factor,
                )
                compute = SegmentWorkload(
                    cpu_cycles=(
                        gi * c_in * c_out * self._timing.cycles_per_mac_pointwise
                        + gi * self.params.column_overhead_cycles
                        + gi * c_out * self._timing.cycles_per_output_byte
                        + self._timing.loop_overhead_cycles
                    ),
                    flash_bytes=weight_flash_per_group,
                    sram_bytes=gi * c_out + activation_refetch * gi * c_in,
                )
                pair = (
                    Segment(kind=SegmentKind.MEMORY, workload=mem),
                    Segment(kind=SegmentKind.COMPUTE, workload=compute),
                )
                pair_for_size[gi] = pair
            segments.extend(pair)
        return segments, n_groups

    # -- shared helpers -------------------------------------------------------------

    def _weight_flash_traffic(
        self, weight_bytes: float, passes: int, extra_ws: float
    ) -> float:
        """Flash bytes to stream a weight array walked ``passes`` times.

        The first pass always reads the full array; every further pass
        re-reads only the fraction the cache failed to retain, given
        the weights compete with ``extra_ws`` bytes of buffers.
        """
        if passes < 1:
            raise TraceError("weight passes must be >= 1")
        if passes == 1:
            return weight_bytes
        refetch = self._cache.refetch_fraction(weight_bytes + extra_ws)
        return weight_bytes * (1.0 + refetch * (passes - 1))
