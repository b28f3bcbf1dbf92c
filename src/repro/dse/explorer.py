"""Per-layer design-space exploration (paper Step 2).

For every schedulable layer, the explorer prices each (granularity,
HFO) candidate with the same segment cost model the runtime uses,
producing a cloud of :class:`SolutionPoint` latency/energy pairs.
Pricing follows the runtime's execution discipline exactly:

* memory-bound segments run at the LFO clock, compute-bound segments
  at the candidate HFO;
* two SYSCLK mux handshakes are charged per DAE iteration;
* **no** per-layer PLL reprogram is charged by default
  (``assume_relock=False``): within a schedule, re-locks only occur
  when consecutive layers change HFO frequency, and the pipeline
  accounts for that sequence-dependent cost with a
  runtime-in-the-loop refinement (:meth:`repro.pipeline.DAEDVFSPipeline.optimize`)
  instead of padding every layer with the worst case.  Pass
  ``assume_relock=True`` to reproduce the paper's isolated per-layer
  profiling view, which *does* charge one reprogram per layer: for
  decoupled layers only the part of the ~200 us lock not hidden under
  the first buffer copy, for fused layers the full stall.  The
  measured-mode profiler (:mod:`repro.profiling`) keeps that
  worst-case default, as a hardware campaign would.

The explorer can optionally route its measurements through the
simulated timer and INA219 sensor (:mod:`repro.profiling`) to mimic
the paper's hardware profiling pipeline; by default it prices
analytically, which is exact and fast.  Pricing a layer trace against
*all* HFO candidates at once goes through
:meth:`LayerCostModel.price_batch`, which aggregates the workloads
once and broadcasts over the frequency/power vectors with numpy; the
scalar :meth:`LayerCostModel.price` is kept as the reference oracle
(a test pins their agreement to 1e-12 relative over the full paper
grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clock.configs import ClockConfig
from ..engine.cost import TraceBuilder, TraceParams
from ..engine.trace import LayerTrace, SegmentKind
from ..errors import DesignSpaceError
from ..mcu.board import Board
from ..mcu.core import SegmentWorkload
from ..nn.graph import CONV_KINDS, Model, Node
from ..nn.layers.base import LayerKind
from ..obs.tracing import span
from ..power.energy import EnergyAccount, EnergyCategory
from ..power.model import PowerState
from .space import DesignSpace


@dataclass(frozen=True)
class SolutionPoint:
    """One priced (layer, granularity, HFO) candidate."""

    node_id: int
    layer_name: str
    layer_kind: LayerKind
    granularity: int
    hfo: ClockConfig
    latency_s: float
    energy_j: float

    def dominates(self, other: "SolutionPoint") -> bool:
        """Pareto dominance: no worse on both axes, better on one."""
        return (
            self.latency_s <= other.latency_s
            and self.energy_j <= other.energy_j
            and (
                self.latency_s < other.latency_s
                or self.energy_j < other.energy_j
            )
        )


@dataclass(frozen=True)
class TimeComponents:
    """Power-independent time decomposition of one trace vs. an HFO grid.

    Everything the pricing of a (trace, HFO) candidate needs from the
    *timing* side -- how long the core spends in each power state at
    each clock -- separated from the *power* side, which is the only
    part that differs between devices of a heterogeneous fleet.  The
    fleet pricing service (:mod:`repro.fleet.pricing`) computes these
    once per (model, space) and re-prices them against every device's
    power model.

    Attributes:
        comp_hfo: per-HFO time in ACTIVE_COMPUTE at the HFO clock.
        mem_hfo: per-HFO time in ACTIVE_MEMORY at the HFO clock.
        comp_lfo: time in ACTIVE_COMPUTE at the LFO (decoupled memory
            phases; zero for fused traces).
        mem_lfo: time in ACTIVE_MEMORY at the LFO.
        switch_lfo: per-HFO stall time charged at the LFO switching
            power (mux handshakes, un-hidden re-lock remainders).
    """

    comp_hfo: np.ndarray
    mem_hfo: np.ndarray
    comp_lfo: float
    mem_lfo: float
    switch_lfo: np.ndarray

    def latency(self) -> np.ndarray:
        """Per-HFO total latency in seconds."""
        latency = np.full(len(self.comp_hfo), self.comp_lfo + self.mem_lfo)
        latency += self.comp_hfo + self.mem_hfo
        latency += self.switch_lfo
        return latency


@dataclass(frozen=True)
class StackedComponents:
    """Several :class:`TimeComponents` stacked along a leading axis.

    One layer's decompositions across its whole granularity sweep,
    packed into (n_granularity, n_hfo) matrices so a device prices the
    entire sweep in one vectorized pass instead of one numpy round-trip
    per granularity.  Element-for-element the arithmetic matches
    :meth:`LayerCostModel.price_components` (same operations in the
    same order), so the batched prices are bit-identical to the
    per-granularity ones.

    Attributes:
        comp_lfo / mem_lfo: per-granularity LFO-phase scalars.
        comp_hfo / mem_hfo / switch_lfo: per-(granularity, HFO) times.
        effective_granularities: the trace-clamped granularity actually
            realized for each requested one.
    """

    comp_lfo: np.ndarray
    mem_lfo: np.ndarray
    comp_hfo: np.ndarray
    mem_hfo: np.ndarray
    switch_lfo: np.ndarray
    effective_granularities: Tuple[int, ...]

    @classmethod
    def stack(
        cls,
        entries: Sequence["tuple[TimeComponents, int]"],
    ) -> "StackedComponents":
        """Pack (components, effective granularity) pairs into matrices."""
        components = [c for c, _ in entries]
        return cls(
            comp_lfo=np.array(
                [c.comp_lfo for c in components], dtype=np.float64
            ),
            mem_lfo=np.array(
                [c.mem_lfo for c in components], dtype=np.float64
            ),
            comp_hfo=np.stack([c.comp_hfo for c in components]),
            mem_hfo=np.stack([c.mem_hfo for c in components]),
            switch_lfo=np.stack([c.switch_lfo for c in components]),
            effective_granularities=tuple(g for _, g in entries),
        )


class LayerCostModel:
    """Prices one layer trace under the LFO/HFO discipline.

    :meth:`price` is the scalar reference oracle; :meth:`price_batch`
    prices one trace against a whole vector of HFO candidates at once
    (the DSE hot path) and agrees with the oracle to 1e-12 relative.
    The batch path factors through :meth:`time_components_batch`, a
    power-model-independent time decomposition that fleet deployments
    share across devices whose timing models match.
    """

    def __init__(self, board: Board):
        self.board = board
        # These stay lock-free dicts, not repro.memo memos: they hold
        # per-explorer numpy constants, so a duplicate build under
        # threads moves no count, and a lock on each of their ~1,800
        # reads per cold plan would cost more than that rare build.
        #: Per-HFO-tuple frequency/power vectors, built once per sweep.
        self._power_cache: Dict[Tuple[ClockConfig, ...], Dict[str, np.ndarray]] = {}
        #: Per-LFO scalar powers (compute, memory, switching) -- three
        #: constants re-read on every price_components call otherwise.
        self._lfo_power_cache: Dict[ClockConfig, Tuple[float, float, float]] = {}

    def _power_vectors(
        self, hfos: Tuple[ClockConfig, ...]
    ) -> Dict[str, np.ndarray]:
        cached = self._power_cache.get(hfos)
        if cached is not None:
            return cached
        power = self.board.power_model
        vectors = {
            "f": np.array([c.sysclk_hz for c in hfos], dtype=np.float64),
            "compute": np.array(
                [power.power(c, PowerState.ACTIVE_COMPUTE) for c in hfos],
                dtype=np.float64,
            ),
            "memory": np.array(
                [power.power(c, PowerState.ACTIVE_MEMORY) for c in hfos],
                dtype=np.float64,
            ),
            "uses_pll": np.array([c.uses_pll for c in hfos], dtype=bool),
        }
        # setdefault so concurrent builders converge on one canonical
        # entry instead of racing get/set.
        return self._power_cache.setdefault(hfos, vectors)

    def _lfo_powers(self, lfo: ClockConfig) -> Tuple[float, float, float]:
        lfo_powers = self._lfo_power_cache.get(lfo)
        if lfo_powers is None:
            power = self.board.power_model
            lfo_powers = self._lfo_power_cache.setdefault(
                lfo,
                (
                    power.power(lfo, PowerState.ACTIVE_COMPUTE),
                    power.power(lfo, PowerState.ACTIVE_MEMORY),
                    power.switching_power(lfo),
                ),
            )
        return lfo_powers

    def _segment_time_parts_vec(
        self, workload: SegmentWorkload, f_vec: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Vectorized :meth:`CoreModel.segment_time_parts` over ``f_vec``.

        Mirrors the scalar expression term by term so each element is
        computed by the same floating-point operations as the oracle.
        """
        memory_map = self.board.core.memory_map
        flash, sram = memory_map.flash, memory_map.sram
        compute_t = workload.cpu_cycles / f_vec
        memory_t = flash.lines_for(workload.flash_bytes) * (
            flash.cycles_per_line / f_vec + flash.fixed_latency_s
        ) + sram.lines_for(workload.sram_bytes) * (
            sram.cycles_per_line / f_vec + sram.fixed_latency_s
        )
        return compute_t, memory_t

    def time_components_batch(
        self,
        trace: LayerTrace,
        hfos: Sequence[ClockConfig],
        lfo: ClockConfig,
        assume_relock: bool = False,
    ) -> TimeComponents:
        """Power-independent time decomposition of one trace vs. ``hfos``.

        Touches only the board's core timing, memory map, cache and
        switch-cost models -- never the power model -- so the result is
        shared by every device of a fleet whose timing parameters
        match, regardless of per-device power variation.
        """
        hfos = tuple(hfos)
        core = self.board.core
        switch = self.board.switch_cost_model
        f_vec = self._power_vectors(hfos)["f"]
        n = len(hfos)
        if trace.is_decoupled:
            # Aggregate with plain float accumulators -- the same
            # addition order as a merged() chain (bit-identical), but
            # without one intermediate SegmentWorkload per segment.
            mem_cpu = mem_flash = mem_sram = 0.0
            comp_cpu = comp_flash = comp_sram = 0.0
            first_mem = None
            for segment in trace.segments:
                workload = segment.workload
                if segment.kind is SegmentKind.MEMORY:
                    if first_mem is None:
                        first_mem = workload
                    mem_cpu += workload.cpu_cycles
                    mem_flash += workload.flash_bytes
                    mem_sram += workload.sram_bytes
                else:
                    comp_cpu += workload.cpu_cycles
                    comp_flash += workload.flash_bytes
                    comp_sram += workload.sram_bytes
            total_mem = SegmentWorkload(
                cpu_cycles=mem_cpu,
                flash_bytes=mem_flash,
                sram_bytes=mem_sram,
            )
            total_comp = SegmentWorkload(
                cpu_cycles=comp_cpu,
                flash_bytes=comp_flash,
                sram_bytes=comp_sram,
            )
            # Memory segments run at the LFO: one scalar time pair
            # shared by every candidate.
            mem_ct, mem_mt = core.segment_time_parts(
                total_mem, lfo.sysclk_hz
            )
            comp_ct, comp_mt = self._segment_time_parts_vec(
                total_comp, f_vec
            )
            extra = 0.0
            if assume_relock and first_mem is not None:
                first_mem_t = core.segment_time_s(first_mem, lfo.sysclk_hz)
                extra += max(0.0, switch.pll_relock_s - first_mem_t)
            extra_t = extra + trace.mux_switch_count() * switch.mux_switch_s
            return TimeComponents(
                comp_hfo=comp_ct,
                mem_hfo=comp_mt,
                comp_lfo=mem_ct,
                mem_lfo=mem_mt,
                switch_lfo=np.full(n, extra_t),
            )
        comp_t = np.zeros(n)
        mem_t = np.zeros(n)
        for segment in trace.segments:
            compute_t, memory_t = self._segment_time_parts_vec(
                segment.workload, f_vec
            )
            comp_t += compute_t
            mem_t += memory_t
        if assume_relock:
            stall = switch.pll_relock_s + switch.mux_switch_s
            uses_pll = np.array([c.uses_pll for c in hfos], dtype=bool)
            stalled = uses_pll.astype(np.float64) * stall
        else:
            stalled = np.zeros(n)
        return TimeComponents(
            comp_hfo=comp_t,
            mem_hfo=mem_t,
            comp_lfo=0.0,
            mem_lfo=0.0,
            switch_lfo=stalled,
        )

    def price_components(
        self,
        components: TimeComponents,
        hfos: Sequence[ClockConfig],
        lfo: ClockConfig,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Combine a time decomposition with *this* board's power model.

        This is the per-device half of batched pricing: given the
        (shared) :class:`TimeComponents`, produce the (latency_s,
        energy_j) vectors under this cost model's power constants.
        """
        hfos = tuple(hfos)
        vectors = self._power_vectors(hfos)
        p_compute_lfo, p_memory_lfo, p_switch_lfo = self._lfo_powers(lfo)
        latency = np.full(
            len(hfos), components.comp_lfo + components.mem_lfo
        )
        energy = np.full(
            len(hfos),
            components.comp_lfo * p_compute_lfo
            + components.mem_lfo * p_memory_lfo,
        )
        latency += components.comp_hfo + components.mem_hfo
        energy += components.comp_hfo * vectors["compute"]
        energy += components.mem_hfo * vectors["memory"]
        latency += components.switch_lfo
        energy += components.switch_lfo * p_switch_lfo
        return latency, energy

    def price_components_stacked(
        self,
        stacked: StackedComponents,
        hfos: Sequence[ClockConfig],
        lfo: ClockConfig,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Price a whole granularity sweep in one vectorized pass.

        Returns (latency_s, energy_j) matrices of shape
        (n_granularity, n_hfo).  Broadcasting performs exactly the
        operations of :meth:`price_components` on each element in the
        same order, so row ``i`` is bit-identical to pricing
        ``stacked``'s ``i``-th decomposition on its own.
        """
        hfos = tuple(hfos)
        vectors = self._power_vectors(hfos)
        p_compute_lfo, p_memory_lfo, p_switch_lfo = self._lfo_powers(lfo)
        latency = (stacked.comp_lfo + stacked.mem_lfo)[:, None] + (
            stacked.comp_hfo + stacked.mem_hfo
        )
        energy = (
            stacked.comp_lfo * p_compute_lfo
            + stacked.mem_lfo * p_memory_lfo
        )[:, None] + stacked.comp_hfo * vectors["compute"]
        energy = energy + stacked.mem_hfo * vectors["memory"]
        latency = latency + stacked.switch_lfo
        energy = energy + stacked.switch_lfo * p_switch_lfo
        return latency, energy

    def price_batch(
        self,
        trace: LayerTrace,
        hfos: Sequence[ClockConfig],
        lfo: ClockConfig,
        assume_relock: bool = False,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """(latency_s, energy_j) vectors of one trace across ``hfos``.

        The memory/compute workloads are aggregated once per trace and
        broadcast over the candidate frequency and power vectors, so
        pricing a layer against the whole HFO grid costs one numpy
        pass instead of ``len(hfos)`` scalar walks of the segment
        list.  Semantics match :meth:`price` exactly (pinned by test
        to 1e-12 relative error over the full paper grid).
        """
        components = self.time_components_batch(
            trace, hfos, lfo, assume_relock=assume_relock
        )
        return self.price_components(components, hfos, lfo)

    def price(
        self,
        trace: LayerTrace,
        hfo: ClockConfig,
        lfo: ClockConfig,
        assume_relock: bool = True,
    ) -> "tuple[float, float]":
        """(latency_s, energy_j) of one layer execution.

        Segment times are linear in the workload, so all memory
        segments are priced as one aggregate at the LFO and all compute
        segments as one aggregate at the HFO -- exactly equal to the
        segment-by-segment sum, at a fraction of the cost.

        Args:
            trace: the layer's segment trace.
            hfo: compute-segment (or fused) clock.
            lfo: memory-segment clock.
            assume_relock: charge the per-layer PLL reprogram; disable
                when pricing a schedule known to keep the HFO constant.
        """
        core = self.board.core
        power = self.board.power_model
        switch = self.board.switch_cost_model
        latency = 0.0
        energy = 0.0
        if trace.is_decoupled:
            total_mem = SegmentWorkload()
            total_comp = SegmentWorkload()
            first_mem = None
            for segment in trace.segments:
                if segment.kind is SegmentKind.MEMORY:
                    if first_mem is None:
                        first_mem = segment.workload
                    total_mem = total_mem.merged(segment.workload)
                else:
                    total_comp = total_comp.merged(segment.workload)
            for workload, config in ((total_mem, lfo), (total_comp, hfo)):
                compute_t, memory_t = core.segment_time_parts(
                    workload, config.sysclk_hz
                )
                latency += compute_t + memory_t
                energy += compute_t * power.power(
                    config, PowerState.ACTIVE_COMPUTE
                )
                energy += memory_t * power.power(
                    config, PowerState.ACTIVE_MEMORY
                )
            if assume_relock and first_mem is not None:
                first_mem_t = core.segment_time_s(first_mem, lfo.sysclk_hz)
                uncovered = max(0.0, switch.pll_relock_s - first_mem_t)
                latency += uncovered
                energy += uncovered * power.switching_power(lfo)
            mux_time = trace.mux_switch_count() * switch.mux_switch_s
            latency += mux_time
            energy += mux_time * power.switching_power(lfo)
        else:
            for segment in trace.segments:
                compute_t, memory_t = core.segment_time_parts(
                    segment.workload, hfo.sysclk_hz
                )
                latency += compute_t + memory_t
                energy += compute_t * power.power(
                    hfo, PowerState.ACTIVE_COMPUTE
                )
                energy += memory_t * power.power(
                    hfo, PowerState.ACTIVE_MEMORY
                )
            if assume_relock and hfo.uses_pll:
                stall = switch.pll_relock_s + switch.mux_switch_s
                latency += stall
                energy += stall * power.switching_power(lfo)
        return latency, energy


def layer_intervals(
    board: Board,
    trace: LayerTrace,
    hfo: ClockConfig,
    lfo: ClockConfig,
    assume_relock: bool = True,
) -> EnergyAccount:
    """Build the (compact) power trace of one layer execution.

    Produces an :class:`~repro.power.energy.EnergyAccount` whose totals
    equal :meth:`LayerCostModel.price` exactly (a unit test pins this);
    the interval structure is what the profiling monitor samples with
    the simulated INA219.
    """
    core = board.core
    power = board.power_model
    switch = board.switch_cost_model
    account = EnergyAccount()
    label = trace.layer_name

    def charge(workload: SegmentWorkload, config: ClockConfig) -> None:
        compute_t, memory_t = core.segment_time_parts(
            workload, config.sysclk_hz
        )
        account.add(
            compute_t,
            power.power(config, PowerState.ACTIVE_COMPUTE),
            EnergyCategory.COMPUTE,
            label,
        )
        account.add(
            memory_t,
            power.power(config, PowerState.ACTIVE_MEMORY),
            EnergyCategory.MEMORY,
            label,
        )

    if trace.is_decoupled:
        first_mem = trace.memory_segments()[0].workload
        if assume_relock:
            first_mem_t = core.segment_time_s(first_mem, lfo.sysclk_hz)
            uncovered = max(0.0, switch.pll_relock_s - first_mem_t)
            account.add(
                uncovered,
                power.switching_power(lfo),
                EnergyCategory.SWITCH,
                label,
            )
        for segment in trace.segments:
            config = lfo if segment.kind is SegmentKind.MEMORY else hfo
            charge(segment.workload, config)
        account.add(
            trace.mux_switch_count() * switch.mux_switch_s,
            power.switching_power(lfo),
            EnergyCategory.SWITCH,
            label,
        )
    else:
        if assume_relock and hfo.uses_pll:
            account.add(
                switch.pll_relock_s + switch.mux_switch_s,
                power.switching_power(lfo),
                EnergyCategory.SWITCH,
                label,
            )
        for segment in trace.segments:
            charge(segment.workload, hfo)
    return account


class DSEExplorer:
    """Sweeps the design space per layer (paper Step 2A/2B input).

    Args:
        board: the simulated board.
        space: granularities and clock candidates.
        trace_params: access-pattern constants.
    """

    def __init__(
        self,
        board: Board,
        space: DesignSpace,
        trace_params: Optional[TraceParams] = None,
        granularity_fn=None,
        tracer: Optional[TraceBuilder] = None,
    ):
        """
        Args:
            granularity_fn: optional ``(model, node) -> tuple`` hook
                overriding the space's granularity grid per layer --
                e.g. :func:`repro.dse.space.adaptive_granularities`
                bound to a board.  Must always include 0.
            tracer: an existing (typically shared, memoizing)
                :class:`TraceBuilder` to use instead of building a
                private one -- fleet deployments hand every explorer
                one fleet-wide builder, since traces depend only on
                the timing/cache models the fleet shares.
        """
        self.board = board
        self.space = space
        self.tracer = tracer or TraceBuilder(board, trace_params)
        self.pricer = LayerCostModel(board)
        self.granularity_fn = granularity_fn

    def explore_layer(
        self,
        model: Model,
        node: Node,
        assume_relock: bool = False,
    ) -> List[SolutionPoint]:
        """All priced candidates for one layer.

        DAE-eligible layers get the full (g, HFO) grid; other
        conv-family layers only sweep the HFO at g = 0.

        Args:
            assume_relock: charge a per-layer PLL reprogram.  Off by
                default: within a schedule, re-locks only occur when
                consecutive layers change HFO frequency, and the
                pipeline accounts for the actual cost with a
                runtime-in-the-loop refinement instead of padding
                every layer with the worst case.

        Raises:
            DesignSpaceError: if the node is not schedulable (no
                arithmetic to scale), or ``granularity_fn`` omits 0.
        """
        granularities = self._sweep(model, node)
        hfos = self.space.hfo_configs
        if granularities is None:
            # NPU-mapped layer: one fixed (latency, energy) point,
            # repeated per HFO candidate so downstream consumers (the
            # MCKP classes, the uniform-HFO sweep) see a candidate at
            # every frequency -- all identical, because the NPU's own
            # clock domain makes the layer insensitive to CPU DVFS.
            npu, n = self.board.npu, len(hfos)
            macs = node.layer.macs(*model.input_shapes_of(node))
            latency = npu.layer_latency_s(macs)
            energy = npu.layer_energy_j(macs)
            return self._points(node, [(0, [latency] * n, [energy] * n)])
        rows = []
        for g in granularities:
            trace = self.tracer.build(model, node, g)
            latencies, energies = self.pricer.price_batch(
                trace, hfos, self.space.lfo, assume_relock=assume_relock
            )
            rows.append((trace.granularity, latencies, energies))
        return self._points(node, rows)

    def _sweep(self, model: Model, node: Node) -> Optional[Tuple[int, ...]]:
        """The layer's granularity sweep, or ``None`` for an NPU layer.

        Raises:
            DesignSpaceError: as :meth:`explore_layer`.
        """
        if node.layer.kind not in CONV_KINDS:
            raise DesignSpaceError(
                f"layer {node.layer.name!r} ({node.layer.kind.value}) is "
                "not schedulable"
            )
        npu = self.board.npu
        if npu is not None and npu.supports(node.layer.kind):
            return None
        if not node.layer.supports_dae:
            return (0,)
        if self.granularity_fn is None:
            return tuple(self.space.granularities)
        granularities = tuple(self.granularity_fn(model, node))
        if 0 not in granularities:
            raise DesignSpaceError(
                "granularity_fn must always include 0 (no DAE)"
            )
        return granularities

    def _points(self, node: Node, rows) -> List[SolutionPoint]:
        """One point per (row, HFO); each row is (effective granularity,
        per-HFO latencies, per-HFO energies)."""
        return [
            SolutionPoint(
                node_id=node.node_id,
                layer_name=node.layer.name,
                layer_kind=node.layer.kind,
                granularity=g,
                hfo=hfo,
                latency_s=float(latency),
                energy_j=float(energy),
            )
            for g, latencies, energies in rows
            for hfo, latency, energy in zip(
                self.space.hfo_configs, latencies, energies
            )
        ]

    def explore_model(self, model: Model) -> Dict[int, List[SolutionPoint]]:
        """Candidate clouds for every conv-family layer of a model."""
        with span("dse.explore", model=model.name) as sp:
            clouds = {
                node.node_id: self.explore_layer(model, node)
                for node in model.conv_nodes()
            }
            sp.set(
                layers=len(clouds),
                candidates=sum(len(c) for c in clouds.values()),
            )
            return clouds
