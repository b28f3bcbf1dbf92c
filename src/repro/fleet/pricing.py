"""Fleet-shared pricing: compute timing once, price power per device.

Everything expensive about planning one device -- tracing layers,
decomposing (trace, HFO) candidates into per-state times, executing
candidate schedules on the runtime -- depends only on the *timing*
side of the board, which the whole fleet shares (device variation
moves power curves, not cycle counts; see
:mod:`repro.fleet.variation`).  This module exploits that:

* :class:`SharedComponentExplorer` -- a :class:`DSEExplorer` whose
  :class:`~repro.dse.explorer.TimeComponents` decompositions live in a
  fleet-wide cache.  The first device to explore a layer pays the
  segment walk; every other device combines the cached decomposition
  with its own power vectors (one numpy pass per layer).
* :class:`ReplayingRuntime` -- a :class:`DVFSRuntime` that executes
  each distinct (model, plan) once, records the (duration, config,
  state)-tagged interval schedule, and re-prices those intervals under
  its own device's power model on every subsequent run.  Because the
  durations are shared floats, the re-pricing calls the very same
  ``power(config, state)`` the direct path uses and the QoS window is
  charged by the direct path's own ``window``, a replayed report is
  bit-identical to a direct execution on every board and idle policy
  (pinned by test).
* :class:`BoardPlanningGroup` -- one board target's anchor board,
  canonical design space and shared state, plus the anchor's pipeline
  wired into them: the fleet scheduler keeps one per board target, the
  plan service one per served board.
* :class:`EpochPricer` -- the **priced window** a governor (or oracle
  twin) prices every epoch from.  A device's plan almost never changes,
  so it caches one entry: the reference window's scalars (energy,
  latency, QoS window, met-QoS flag, fault counters), each interval's
  duration, calibrated power and leaky-state flag, and the leaky time.
  The key is ``(plan_signature(exec_plan), exec_plan.initial_config(),
  budget, board.power_model)``; the :func:`clamp_plan_to_cap` result is
  memoized for an unchanged ``(plan, cap_hz)``.  A hit only adds the
  thermal excess on leaky intervals and sums in interval order, so it
  is bit-identical to a fresh report.  Fault-injected epochs bypass
  the cache.  The entry lives per governor, not on the shared runtime,
  where never-reused fresh-QoS serve keys would pile up.

The fleet-wide caches are single-flight :class:`~repro.memo.Memo`
tables, so a thread pool of devices can hammer them concurrently: the
first device to miss a key computes it, and every other device that
asks meanwhile waits for that one result.  A pooled deploy therefore
does exactly the work of a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from ..clock.configs import ClockConfig
from ..dse.explorer import (
    DSEExplorer,
    SolutionPoint,
    StackedComponents,
    TimeComponents,
)
from ..dse.space import DesignSpace, board_design_space
from ..engine.cost import TraceBuilder, TraceParams, model_fingerprint
from ..engine.runtime import DVFSRuntime, IdlePolicy, InferenceReport
from ..engine.schedule import DeploymentPlan, LayerPlan
from ..errors import TraceError
from ..mcu.board import Board
from ..memo import Memo
from ..nn.graph import Model, Node
from ..pipeline import DAEDVFSPipeline
from ..power.energy import EnergyAccount
from ..power.model import PowerState

#: Power states that carry the MCU leakage term (and therefore the
#: thermal excess); gated/deep-sleep states power the leaky domains
#: down.
LEAKY_STATES = frozenset(
    {
        PowerState.ACTIVE_COMPUTE,
        PowerState.ACTIVE_MEMORY,
        PowerState.IDLE,
        PowerState.SWITCHING,
    }
)


def plan_signature(plan: DeploymentPlan) -> Tuple:
    """Hashable identity of a plan's schedulable decisions.

    Two plans with equal signatures execute the identical interval
    schedule (durations, configs, states), whatever board they price
    on -- the replay-cache key.
    """
    return (
        plan.model_name,
        plan.lfo,
        tuple(
            sorted(
                (node_id, lp.granularity, lp.hfo)
                for node_id, lp in plan.layer_plans.items()
            )
        ),
    )


class FleetSharedState:
    """The caches one fleet shares across all of its devices.

    Attributes:
        tracer: fleet-wide memoizing trace builder (timing-only).
        components: (model_fp, node_id, g, assume_relock) ->
            (TimeComponents, effective granularity).
        stacks: (model_fp, node_id, granularities, assume_relock) ->
            :class:`StackedComponents` packing a layer's whole sweep
            for one-pass per-device pricing.
        replays: (model_fp, plan signature, initial config) ->
            reference :class:`InferenceReport` executed without a QoS
            window (idle is charged analytically per device).
    """

    def __init__(
        self,
        board: Board,
        trace_params: Optional[TraceParams] = None,
    ):
        self.tracer = TraceBuilder(board, trace_params)
        self.components = Memo("fleet.pricing", pool="components")
        self.stacks = Memo("fleet.pricing", pool="stacks")
        self.replays = Memo("fleet.pricing", pool="replays")

    def stats(self) -> Dict[str, int]:
        """Occupancy of each shared pool (for the obs registry)."""
        return {
            "components": len(self.components),
            "stacks": len(self.stacks),
            "replays": len(self.replays),
        }


class SharedComponentExplorer(DSEExplorer):
    """Explorer backed by a fleet-shared time-decomposition cache.

    Per device it owns only a :class:`LayerCostModel` (the power
    vectors); traces and :class:`TimeComponents` come from the shared
    state.  Produces bit-identical clouds to a plain
    :class:`DSEExplorer` because ``price_batch`` already factors
    through exactly these two halves.
    """

    def __init__(
        self,
        board: Board,
        space: DesignSpace,
        shared: FleetSharedState,
        granularity_fn=None,
    ):
        super().__init__(
            board, space, granularity_fn=granularity_fn,
            tracer=shared.tracer,
        )
        self._shared = shared

    def _components_for(
        self,
        model: Model,
        node: Node,
        granularity: int,
        assume_relock: bool,
    ) -> Tuple[TimeComponents, int]:
        key = (
            model_fingerprint(model),
            node.node_id,
            granularity,
            assume_relock,
        )

        def decompose() -> Tuple[TimeComponents, int]:
            trace = self.tracer.build(model, node, granularity)
            components = self.pricer.time_components_batch(
                trace, self.space.hfo_configs, self.space.lfo,
                assume_relock=assume_relock,
            )
            return components, trace.granularity

        return self._shared.components.get(key, decompose)

    def _stacked_components(
        self,
        model: Model,
        node: Node,
        granularities: Tuple[int, ...],
        assume_relock: bool,
    ) -> StackedComponents:
        key = (
            model_fingerprint(model),
            node.node_id,
            granularities,
            assume_relock,
        )
        return self._shared.stacks.get(
            key,
            lambda: StackedComponents.stack(
                [
                    self._components_for(model, node, g, assume_relock)
                    for g in granularities
                ]
            ),
        )

    def explore_layer(
        self,
        model: Model,
        node: Node,
        assume_relock: bool = False,
    ) -> List[SolutionPoint]:
        """Same contract as the base explorer, via the shared cache."""
        granularities = self._sweep(model, node)
        if granularities is None:
            # NPU points carry no TimeComponents (nothing to decompose:
            # the latency/energy are fixed), so the shared cache buys
            # nothing -- price directly through the base explorer.
            return super().explore_layer(
                model, node, assume_relock=assume_relock
            )
        stacked = self._stacked_components(
            model, node, granularities, assume_relock
        )
        latencies, energies = self.pricer.price_components_stacked(
            stacked, self.space.hfo_configs, self.space.lfo
        )
        return self._points(
            node, zip(stacked.effective_granularities, latencies, energies)
        )


class ReplayingRuntime(DVFSRuntime):
    """Runtime that executes each distinct plan once fleet-wide.

    The first run of a (model, plan, initial config) triple executes
    on the real engine (without a QoS window) and records the tagged
    interval schedule in the shared state.  Every later run -- on any
    device -- re-prices the recorded (duration, config, state) triples
    under its own power model, then charges the QoS window through the
    inherited :meth:`~repro.engine.runtime.DVFSRuntime.window`, at the
    record's ``final_config`` (the clock the direct run ends on, also
    after an NPU segment).  Durations, latencies and switch counts are
    shared; only the watts differ.
    """

    def __init__(
        self,
        board: Board,
        shared: FleetSharedState,
        trace_params: Optional[TraceParams] = None,
    ):
        super().__init__(board, trace_params, tracer=shared.tracer)
        self._shared = shared

    def _record_for(
        self,
        model: Model,
        plan: DeploymentPlan,
        initial_config: Optional[ClockConfig],
    ) -> InferenceReport:
        key = (
            model_fingerprint(model),
            plan_signature(plan),
            initial_config or plan.lfo,
        )
        return self._shared.replays.get(
            key,
            lambda: super(ReplayingRuntime, self).run(
                model, plan, qos_s=None, initial_config=initial_config
            ),
        )

    def run(
        self,
        model: Model,
        plan: DeploymentPlan,
        qos_s: Optional[float] = None,
        idle_gated: bool = True,
        initial_config: Optional[ClockConfig] = None,
        idle_policy: Optional[IdlePolicy] = None,
        fault_clock=None,
    ) -> InferenceReport:
        if fault_clock is not None:
            # Fault-injected runs are device-specific and stateful (the
            # fault clock advances); replaying a shared fault-free
            # record would hide every injected event, so the run goes
            # straight to the native engine.
            return super().run(
                model, plan, qos_s=qos_s, idle_gated=idle_gated,
                initial_config=initial_config, idle_policy=idle_policy,
                fault_clock=fault_clock,
            )
        record = self._record_for(model, plan, initial_config)
        return self._reprice(record, plan, qos_s, idle_gated, idle_policy)

    def measure_latency_s(
        self,
        model: Model,
        plan: DeploymentPlan,
        initial_config: Optional[ClockConfig] = None,
    ) -> float:
        # Latency is timing-only, hence fleet-shared: answer straight
        # from the record without re-pricing a single interval.
        return self._record_for(model, plan, initial_config).latency_s

    def _reprice(
        self,
        record: InferenceReport,
        plan: DeploymentPlan,
        qos_s: Optional[float],
        idle_gated: bool,
        idle_policy: Optional[IdlePolicy],
    ) -> InferenceReport:
        power = self.board.power_model
        account = EnergyAccount()
        label_energy: Dict[str, float] = {}
        for interval in record.account.intervals:
            # Every interval the runtime records is (config, state)
            # tagged; re-pricing runs the exact power() call the
            # direct path would, on the exact shared durations, so the
            # result is bit-identical to a native run on this board.
            if interval.state is PowerState.NPU_ACTIVE:
                # NPU power rides the accelerator's own rail, not the
                # device-varied SYSCLK model: the recorded watts are
                # already exact for every device.
                p = interval.power_w
            else:
                p = power.power(interval.config, interval.state)
            account.add(
                interval.duration_s, p, interval.category, interval.label,
                config=interval.config, state=interval.state,
            )
            label_energy[interval.label] = (
                label_energy.get(interval.label, 0.0)
                + interval.duration_s * p
            )
        inference_energy = account.total_energy_j
        reports = [
            replace(r, energy_j=label_energy.get(r.layer_name, 0.0))
            for r in record.layer_reports
        ]
        repriced = replace(
            record,
            plan=plan,
            energy_j=inference_energy,
            inference_energy_j=inference_energy,
            account=account,
            layer_reports=reports,
        )
        if qos_s is None:
            return repriced
        if idle_policy is None:
            idle_policy = IdlePolicy.GATED if idle_gated else IdlePolicy.HOT
        return self.window(repriced, qos_s, idle_policy)


class BoardPlanningGroup:
    """One board target's warm planning state.

    The fleet scheduler keeps one per board target of a heterogeneous
    fleet and the plan service one per served board.  Power-varied
    devices of one target share everything timing-side through the
    group's :class:`FleetSharedState` and plan over one canonical
    design space, derived from the anchor (nominal) board -- deriving
    it per device would fragment every shared cache.

    Attributes:
        board: the target's anchor board.
        space: the anchor's canonical design space.
        shared: the target's fleet-shared pricing state.
        pipeline: the anchor's pipeline, pricing through ``shared``.
    """

    def __init__(
        self,
        board: Board,
        trace_params: Optional[TraceParams] = None,
        solver: str = "dp",
    ):
        self.board = board
        self.space = board_design_space(board)
        self.shared = FleetSharedState(board, trace_params)
        self._trace_params = trace_params
        self._solver = solver
        self.pipeline = self.pipeline_on(board)

    def pipeline_on(self, board: Board) -> DAEDVFSPipeline:
        """A new pipeline for ``board`` -- the anchor or a power-varied
        device of the target -- pricing through the group's state."""
        return DAEDVFSPipeline(
            board=board,
            space=self.space,
            trace_params=self._trace_params,
            solver=self._solver,
            explorer=SharedComponentExplorer(board, self.space, self.shared),
            runtime=ReplayingRuntime(board, self.shared, self._trace_params),
        )


def clamp_plan_to_cap(
    plan: DeploymentPlan, cap_hz: float, hfo_configs
) -> "tuple[DeploymentPlan, bool]":
    """Force every over-cap layer onto the fastest supplied HFO.

    This is what the hardware would do: the regulator cannot hold the
    VOS scale the plan asked for, so the runtime falls back to the
    fastest configuration the rail supports (and the schedule slows
    down accordingly -- possibly past its budget, which is the
    governor's re-plan trigger).
    """
    if all(
        lp.hfo.sysclk_hz <= cap_hz for lp in plan.layer_plans.values()
    ):
        return plan, False
    allowed = [c for c in hfo_configs if c.sysclk_hz <= cap_hz]
    if not allowed:
        # The rail sagged below even the slowest HFO (deep brownout).
        # Run at the slowest grid point rather than crashing: the
        # window will miss its budget, which is exactly the re-plan /
        # QoS-miss signal the governor acts on.
        allowed = [min(hfo_configs, key=lambda c: c.sysclk_hz)]
    fastest = max(allowed, key=lambda c: c.sysclk_hz)
    clamped_plans = {}
    for node_id, lp in plan.layer_plans.items():
        if lp.hfo.sysclk_hz <= cap_hz:
            clamped_plans[node_id] = lp
        else:
            clamped_plans[node_id] = LayerPlan(
                node_id=lp.node_id,
                granularity=lp.granularity,
                hfo=fastest,
                predicted_latency_s=lp.predicted_latency_s,
                predicted_energy_j=lp.predicted_energy_j,
            )
    return (
        DeploymentPlan(
            model_name=plan.model_name,
            lfo=plan.lfo,
            layer_plans=clamped_plans,
            qos_s=plan.qos_s,
            predicted_latency_s=plan.predicted_latency_s,
            predicted_energy_j=plan.predicted_energy_j,
        ),
        True,
    )


@dataclass(frozen=True)
class PricedWindow:
    """One executed QoS window, reduced to what epoch pricing reads
    (no reference to the report, whose intervals can then be freed)."""

    energy_j: float
    latency_s: float
    qos_s: Optional[float]
    met_qos: bool
    css_events: int
    watchdog_resets: int
    pll_retries: int
    durations: Tuple[float, ...]
    powers: Tuple[float, ...]  # calibrated, per interval
    leaky: Tuple[bool, ...]  # interval state in LEAKY_STATES
    leaky_s: float
    min_leaky_power_w: float  # inf without leaky intervals

    @classmethod
    def of(cls, report: InferenceReport) -> "PricedWindow":
        intervals = report.account.intervals
        durations = tuple(iv.duration_s for iv in intervals)
        powers = tuple(iv.power_w for iv in intervals)
        leaky = tuple(iv.state in LEAKY_STATES for iv in intervals)
        return cls(
            energy_j=report.energy_j,
            latency_s=report.latency_s,
            qos_s=report.qos_s,
            met_qos=report.met_qos,
            css_events=report.css_events,
            watchdog_resets=report.watchdog_resets,
            pll_retries=report.pll_retries,
            durations=durations,
            powers=powers,
            leaky=leaky,
            leaky_s=sum(d for d, hot in zip(durations, leaky) if hot),
            min_leaky_power_w=min(
                (p for p, hot in zip(powers, leaky) if hot),
                default=float("inf"),
            ),
        )

    @property
    def window_s(self) -> float:
        """The accounting window: the QoS budget, else the latency."""
        return self.qos_s if self.qos_s is not None else self.latency_s

    def true_powers(self, extra_w: float) -> List[float]:
        """Interval powers as the silicon burns them: leaky states carry
        the thermal excess on top of the calibrated model.

        Raises:
            TraceError: the excess drives an interval below zero
                (float addition is monotone, so the smallest leaky
                power decides).
        """
        if self.min_leaky_power_w + extra_w < 0:
            raise TraceError(
                "interval power must be >= 0, got "
                f"{self.min_leaky_power_w + extra_w}"
            )
        return [
            p + (extra_w if hot else 0.0)
            for p, hot in zip(self.powers, self.leaky)
        ]

    def true_energy_j(self, true_powers: Sequence[float]) -> float:
        """Window energy at ``true_powers``, summed in interval order."""
        return sum(map(mul, self.durations, true_powers))


class EpochPricer:
    """One governor's single-entry priced-window cache; the module
    docstring says what it holds, its key and the fault bypass."""

    def __init__(self, pipeline, model: Model):
        self.pipeline = pipeline
        self.model = model
        self._clamp: Optional[Tuple] = None
        self._key: Optional[Tuple] = None
        self._window: Optional[PricedWindow] = None

    def clamp(
        self, plan: DeploymentPlan, cap_hz: float
    ) -> "tuple[DeploymentPlan, bool]":
        """:func:`clamp_plan_to_cap` on the pipeline's HFO grid."""
        memo = self._clamp
        if memo is None or memo[0] is not plan or memo[1] != cap_hz:
            clamped = clamp_plan_to_cap(
                plan, cap_hz, self.pipeline.space.hfo_configs
            )
            memo = self._clamp = (plan, cap_hz, *clamped)
        return memo[2], memo[3]

    def window(
        self, exec_plan: DeploymentPlan, budget: float, fault_clock=None
    ) -> PricedWindow:
        """``exec_plan``'s priced window under ``budget``; raises what
        the runtime raises (nothing is cached then)."""
        runtime = self.pipeline.runtime
        initial = exec_plan.initial_config()
        key = (
            plan_signature(exec_plan), initial, budget,
            runtime.board.power_model,
        )
        if fault_clock is None and key == self._key:
            return self._window
        report = runtime.run(
            self.model, exec_plan, qos_s=budget, initial_config=initial,
            fault_clock=fault_clock,
        )
        window = PricedWindow.of(report)
        if fault_clock is None:
            self._key, self._window = key, window
        return window
