"""End-to-end methodology (paper Fig. 3): DAE -> DSE -> MCKP -> deploy.

:class:`DAEDVFSPipeline` chains the three steps of the paper on a
simulated board:

1. **DAE enablement** -- every depthwise/pointwise layer is traced at
   each candidate granularity (the source restructuring of Sec. III-A
   is captured by the segment cost model; its bit-exactness is
   established separately by :mod:`repro.engine.dae`).
2. **DAE x clocking co-exploration** (Sec. III-B) -- per-layer sweep of
   (g, HFO) candidates, reduced to Pareto fronts.
3. **QoS-aware energy optimization** (Sec. III-C) -- the fronts become
   MCKP classes; the DP (or greedy) solver picks one point per layer
   minimizing energy under the latency budget.

The resulting :class:`~repro.engine.schedule.DeploymentPlan` deploys on
the DVFS runtime, and :meth:`DAEDVFSPipeline.compare` reproduces the
paper's Fig. 5 rows: ours vs. TinyEngine vs. TinyEngine + clock gating
in the iso-latency energy scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from .dse.explorer import DSEExplorer, SolutionPoint
from .dse.pareto import pareto_front
from .dse.space import DesignSpace, board_design_space
from .engine.cost import TraceParams, model_fingerprint
from .engine.runtime import DVFSRuntime, IdlePolicy, InferenceReport
from .engine.schedule import DeploymentPlan, LayerPlan
from .engine.tinyengine import TinyEngine
from .errors import QoSInfeasibleError, SolverError
from .mcu.board import Board, make_nucleo_f767zi
from .memo import Memo
from .nn.graph import Model
from .obs.audit import get_audit_log
from .obs.tracing import span
from .optimize.greedy import solve_mckp_greedy
from .optimize.mckp import (
    MCKPItem,
    front_classes,
    min_total_weight,
    reprice_classes,
    solve_mckp_dp,
)
from .optimize.qos import QoSLevel

if TYPE_CHECKING:  # pragma: no cover - typing-only, avoids cycles
    from .optimize.harmonize import HarmonizationResult
    from .profiling.profiler import LayerProfiler

#: Extra solve rounds the switching-overhead refinement loop may spend
#: before the free (mixed-frequency) schedule is abandoned.
MAX_REFINEMENTS = 3


@dataclass
class OptimizationResult:
    """Output of the optimization pipeline for one (model, QoS)."""

    plan: DeploymentPlan
    pareto_fronts: Dict[int, List[SolutionPoint]] = field(default_factory=dict)
    baseline_latency_s: float = 0.0
    qos_s: float = 0.0
    fixed_overhead_s: float = 0.0


@dataclass
class ComparisonResult:
    """One Fig. 5 data point: the three engines at one QoS setting."""

    model_name: str
    qos_name: str
    qos_s: float
    ours: InferenceReport
    tinyengine: InferenceReport
    clock_gated: InferenceReport

    @property
    def savings_vs_tinyengine(self) -> float:
        """Fractional energy reduction vs. plain TinyEngine."""
        return 1.0 - self.ours.energy_j / self.tinyengine.energy_j

    @property
    def savings_vs_clock_gated(self) -> float:
        """Fractional energy reduction vs. TinyEngine + clock gating."""
        return 1.0 - self.ours.energy_j / self.clock_gated.energy_j


class DAEDVFSPipeline:
    """The paper's methodology, end to end, on one board description.

    Args:
        board: simulated board (a default Nucleo-F767ZI if omitted).
        space: design space (the paper's grid if omitted).
        trace_params: access-pattern constants shared by all engines.
        solver: "dp" (the paper's pseudo-polynomial exact solver) or
            "greedy" (the ablation baseline).
        dp_resolution: time-grid steps of the DP solver.
        profiler: when given, Step 2 consumes *measured* per-layer
            records (through the simulated timer + INA219 chain, as
            the paper's hardware campaign does) instead of analytic
            prices.
        granularity_fn: optional per-layer granularity policy, e.g.
            ``functools.partial(adaptive_granularities, board)``.
        tracer: an existing :class:`~repro.engine.cost.TraceBuilder`
            to share.  Traces depend only on the *timing* side of the
            board, so pipelines for boards that differ only in their
            power model (the fleet's device-variation case) can share
            one builder and each (model, node, g) trace is built once
            for the whole fleet.
        explorer: an existing :class:`DSEExplorer` (or subclass) to
            use for Step 2 instead of constructing one -- the fleet
            hands every device an explorer backed by shared timing
            decompositions.  Its board/space must match this
            pipeline's.
        runtime: an existing :class:`DVFSRuntime` (or subclass, e.g.
            the fleet's replaying runtime) to execute plans on.
    """

    def __init__(
        self,
        board: Optional[Board] = None,
        space: Optional[DesignSpace] = None,
        trace_params: Optional[TraceParams] = None,
        solver: str = "dp",
        dp_resolution: int = 4000,
        profiler: Optional["LayerProfiler"] = None,
        granularity_fn=None,
        tracer=None,
        explorer: Optional[DSEExplorer] = None,
        runtime: Optional[DVFSRuntime] = None,
    ):
        if solver not in ("dp", "greedy"):
            raise SolverError(f"unknown solver {solver!r}")
        self.board = board or make_nucleo_f767zi()
        self.space = (
            space if space is not None else board_design_space(self.board)
        )
        self.trace_params = trace_params
        self.solver = solver
        self.dp_resolution = dp_resolution
        self.profiler = profiler
        self.explorer = explorer or DSEExplorer(
            self.board, self.space, trace_params,
            granularity_fn=granularity_fn,
            tracer=tracer,
        )
        # One memoized TraceBuilder feeds the explorer, the runtime,
        # the fixed-overhead accounting and the baseline engine, so
        # every (model, node, g) trace is built exactly once.
        self.tracer = self.explorer.tracer
        self.runtime = runtime or DVFSRuntime(
            self.board, trace_params, tracer=self.tracer
        )
        # Both Fig. 5 baselines: TinyEngine, and TinyEngine + clock
        # gating as the same execution windowed with a gated idle.
        self._tinyengine = TinyEngine(
            self.board, trace_params=trace_params, tracer=self.tracer
        )
        # Step-2 result caches, keyed by (model fingerprint, space
        # fingerprint): exploration clouds, their Pareto fronts, the
        # per-(model, HFO) uniform-sweep fronts, the fixed
        # (non-schedulable) overhead and the baseline latency.
        # `compare()` across QoS levels and the uniform-HFO fallback
        # sweep reuse Step 2 instead of re-running it.  Each is a
        # single-flight :class:`~repro.memo.Memo`: the fleet worker pool
        # shares pipelines across threads, and threads missing one key
        # wait for its one computation; see :meth:`clear_caches`.
        self._cloud_cache = Memo("pipeline.cache", cache="cloud")
        self._front_cache = Memo("pipeline.cache", cache="front")
        self._uniform_front_cache = Memo("pipeline.cache", cache="uniform")
        self._fixed_overhead_cache = Memo("pipeline.cache", cache="fixed")
        self._baseline_cache = Memo("pipeline.cache", cache="baseline")

    def _model_key(self, model: Model) -> Tuple:
        """Cache key: model + board + design-space identity.

        The board fingerprint covers the power-model *and* timing
        parameters, so a pipeline whose board is swapped out (the
        serve layer's reconfiguration case) misses every memoized
        Step-2 result instead of serving prices computed against the
        old hardware description.  In-place mutation of a component's
        internals still needs :meth:`clear_caches`; replacing the
        component (``pipeline.board.power_model = ...``) changes the
        fingerprint and invalidates implicitly.
        """
        return (
            model_fingerprint(model),
            self.board.fingerprint(),
            self.space.fingerprint(),
        )

    def clear_caches(self) -> None:
        """Invalidate every memoized Step-2 result, record and trace.

        Call after mutating the board, the design space, the trace
        params or the profiler in place (replacing the pipeline is the
        recommended alternative).  Model mutations need no manual
        invalidation: the fingerprint changes with the graph.
        """
        for memo in vars(self).values():
            if isinstance(memo, Memo):
                memo.clear()
        self.runtime.clear_cache()
        self._tinyengine.clear_cache()
        self.tracer.clear_cache()

    def warm_start_from(
        self, donor: "DAEDVFSPipeline", model: Model
    ) -> None:
        """Inherit the donor's timing-only results for ``model``.

        The baseline latency and the fixed (non-schedulable) overhead
        depend only on the timing side of the board, so pipelines for
        power-varied boards of one fleet can copy them from a nominal
        donor instead of recomputing per device.  The donor computes
        them on first use; requires matching design spaces (the cache
        key embeds the space fingerprint, so a mismatch is inert
        rather than wrong).
        """
        key = self._model_key(model)
        self._baseline_cache.put(key, donor.baseline_latency_s(model))
        self._fixed_overhead_cache.put(key, donor.fixed_overhead_s(model))

    def replan(
        self,
        model: Model,
        classes,
        budget: float,
        fixed_overhead_s: float,
        *,
        extra_w: float = 0.0,
        cap_hz: float = float("inf"),
    ) -> DeploymentPlan:
        """The drift re-solve: re-price cached fronts and solve again.

        The one answer to "the device's power curves moved" (paper
        Step 3 on re-priced fronts), shared by the fleet governor, its
        oracle twin and the serve ``reprice`` endpoint.  ``classes``
        are the plan's cached Pareto-front classes; ``extra_w`` is a
        thermal leakage excess added to every item and ``cap_hz`` a
        battery-sag frequency cap (items above it are dropped, see
        :func:`repro.optimize.mckp.reprice_classes`).  The free
        re-solve runs the same solve/measure/tighten refinement as
        :meth:`optimize` but skips Step 2; when it cannot converge the
        sequence-dependent relock overhead, the uniform-frequency
        ladder (:meth:`uniform_plan_from_classes`) answers instead.

        Raises:
            SolverError: a negative ``extra_w``.
            QoSInfeasibleError: the cap empties a layer, or no plan
                meets the budget (``min_latency_s`` is the re-priced
                classes' tightest total plus the fixed overhead).
        """
        repriced = reprice_classes(
            classes,
            extra_power_w=extra_w,
            item_filter=lambda item: item.payload.hfo.sysclk_hz <= cap_hz,
        )
        conv_budget = budget - fixed_overhead_s
        plan = None
        if conv_budget > 0:
            plan = self._refine_free_plan(
                model, repriced, conv_budget, budget, fixed_overhead_s
            )
            if plan is None:
                get_audit_log().record(
                    "pipeline.replan",
                    "uniform_fallback",
                    model=model.name,
                    qos_s=budget,
                )
                plan = self.uniform_plan_from_classes(
                    model, repriced, budget, fixed_overhead_s,
                    max_hfo_hz=cap_hz,
                )
        if plan is None:
            raise QoSInfeasibleError(
                qos_s=budget,
                min_latency_s=min_total_weight(repriced) + fixed_overhead_s,
            )
        return plan

    def uniform_plan_from_classes(
        self,
        model: Model,
        classes,
        budget: float,
        fixed_overhead_s: float,
        max_hfo_hz: float = float("inf"),
    ) -> Optional[DeploymentPlan]:
        """Best single-HFO schedule over pre-priced classes, if any.

        The fallback when :meth:`replan`'s free re-solve cannot
        converge a mixed-frequency schedule under the budget: a
        uniform schedule pays at most one PLL lock, so its per-layer
        prices hold without refinement.  Candidates are ranked by the
        (possibly drift-repriced) item values, so the winner is
        optimal for the *current* operating point among uniform
        schedules.

        Returns:
            The cheapest uniform schedule meeting the budget at an
            HFO at or under ``max_hfo_hz``, or ``None`` when no
            frequency qualifies.
        """
        best_energy = None
        best_plan = None
        for hfo in self.space.hfo_configs:
            if hfo.sysclk_hz > max_hfo_hz:
                continue
            picks = []
            for cls in classes:
                matches = [
                    item for item in cls if item.payload.hfo == hfo
                ]
                if not matches:
                    picks = None
                    break
                picks.append(min(matches, key=lambda item: item.value))
            if picks is None:
                continue
            layer_plans = {
                item.payload.node_id: LayerPlan(
                    node_id=item.payload.node_id,
                    granularity=item.payload.granularity,
                    hfo=item.payload.hfo,
                    predicted_latency_s=item.payload.latency_s,
                    predicted_energy_j=item.payload.energy_j,
                )
                for item in picks
            }
            energy = sum(item.value for item in picks)
            if best_energy is not None and energy >= best_energy:
                # A rung is kept only on a strict improvement, so one
                # that cannot win is not replayed.
                continue
            plan = DeploymentPlan(
                model_name=model.name,
                lfo=self.space.lfo,
                layer_plans=layer_plans,
                qos_s=budget,
                predicted_latency_s=(
                    sum(i.weight for i in picks) + fixed_overhead_s
                ),
                predicted_energy_j=energy,
            )
            actual = self.runtime.measure_latency_s(
                model, plan, initial_config=plan.initial_config()
            )
            if actual > budget:
                continue
            best_energy = energy
            best_plan = plan
        return best_plan

    # -- building blocks -------------------------------------------------------

    def baseline_latency_s(self, model: Model) -> float:
        """TinyEngine inference latency (the QoS anchor).

        Memoized per (model, space): latency depends only on the
        timing model, so every QoS level -- and, fleet-wide, every
        device sharing this pipeline -- anchors to the same number.
        """
        return self._baseline_cache.get(
            self._model_key(model), self._tinyengine.inference_latency_s, model
        )

    def fixed_overhead_s(self, model: Model) -> float:
        """Latency of the non-schedulable layers (pool/add/flatten).

        These run at whatever clock the neighbouring conv layers leave
        behind.  They are budgeted at the fastest HFO; if the deployed
        schedule leaves them on a slower clock, the runtime-in-the-loop
        refinement of :meth:`optimize` absorbs the difference.

        The result is memoized per (model, space): the traces come out
        of the shared :attr:`tracer` cache and the sum is reused by
        every refinement round and QoS level.
        """
        return self._fixed_overhead_cache.get(
            self._model_key(model), self._fixed_overhead, model
        )

    def _fixed_overhead(self, model: Model) -> float:
        fastest = max(self.space.hfo_configs, key=lambda c: c.sysclk_hz)
        conv_ids = {node.node_id for node in model.conv_nodes()}
        overhead = 0.0
        for node in model.nodes:
            if node.node_id in conv_ids:
                continue
            trace = self.tracer.build(model, node, 0)
            latency, _ = self.explorer.pricer.price(
                trace, fastest, self.space.lfo, assume_relock=False
            )
            overhead += latency
        return overhead

    def optimize(
        self,
        model: Model,
        qos_level: Optional[QoSLevel] = None,
        qos_s: Optional[float] = None,
    ) -> OptimizationResult:
        """Run Steps 2-3 and produce a deployment plan.

        Exactly one of ``qos_level`` (relative to the TinyEngine
        baseline latency) or ``qos_s`` (absolute seconds) must be
        given.

        Raises:
            SolverError: when neither/both QoS forms are supplied.
            QoSInfeasibleError: when no schedule can meet the budget.
        """
        if (qos_level is None) == (qos_s is None):
            raise SolverError("provide exactly one of qos_level or qos_s")
        with span(
            "pipeline.optimize", model=model.name, solver=self.solver
        ) as sp:
            result = self._optimize(model, qos_level, qos_s)
            sp.set(
                qos_s=result.qos_s,
                predicted_energy_j=result.plan.predicted_energy_j,
            )
            return result

    def _optimize(
        self,
        model: Model,
        qos_level: Optional[QoSLevel],
        qos_s: Optional[float],
    ) -> OptimizationResult:
        baseline = self.baseline_latency_s(model)
        budget = qos_s if qos_s is not None else qos_level.budget_s(baseline)

        clouds = self._explore_clouds(model)
        fronts = self._pareto_fronts(model, clouds)
        fixed = self.fixed_overhead_s(model)
        conv_budget = budget - fixed
        if conv_budget <= 0:
            min_conv = sum(
                min(p.latency_s for p in front) for front in fronts.values()
            )
            raise QoSInfeasibleError(qos_s=budget, min_latency_s=min_conv + fixed)

        classes = front_classes(fronts)

        # The per-layer prices exclude inter-layer PLL re-locks (those
        # depend on the *sequence* of choices, which MCKP cannot see).
        # Solve, measure the real schedule on the runtime, and if the
        # accumulated switching overhead overshoots the budget, tighten
        # the knapsack and re-solve -- a couple of iterations converge.
        # If the free schedule cannot converge (sub-millisecond models
        # where 200 us re-locks dominate every layer), fall back to
        # harmonized single-HFO schedules, which never re-lock inside
        # the inference window.
        plan = self._refine_free_plan(
            model, classes, conv_budget, budget, fixed
        )
        # Always also solve the best single-HFO schedule: it pays no
        # re-locks at all, so on switch-dominated (small/fast) models
        # it can beat the "free" per-layer optimum whose knapsack
        # could not see the sequence costs.  Keep whichever deploys
        # cheaper over the window.
        try:
            uniform = self._best_uniform_hfo_plan(
                model, clouds, conv_budget, budget, fixed
            )
        except QoSInfeasibleError:
            uniform = None
            if plan is None:
                raise
        if plan is None:
            assert uniform is not None
            plan = uniform
        elif uniform is not None:
            e_free = self.runtime.run(
                model, plan, qos_s=budget,
                initial_config=plan.initial_config(),
            ).energy_j
            e_uniform = self.runtime.run(
                model, uniform, qos_s=budget,
                initial_config=uniform.initial_config(),
            ).energy_j
            if e_uniform < e_free:
                plan = uniform
        return OptimizationResult(
            plan=plan,
            pareto_fronts=fronts,
            baseline_latency_s=baseline,
            qos_s=budget,
            fixed_overhead_s=fixed,
        )

    def _explore_clouds(
        self, model: Model
    ) -> Dict[int, List[SolutionPoint]]:
        """Per-layer candidate clouds: analytic or sensor-measured.

        Memoized per (model, space): re-optimizing the same model at a
        different QoS level reuses the Step-2 sweep (and, in profiled
        mode, the already-collected measurement campaign) instead of
        exploring again.
        """
        return self._cloud_cache.get(
            self._model_key(model), self._explore, model
        )

    def _explore(self, model: Model) -> Dict[int, List[SolutionPoint]]:
        with span(
            "pipeline.explore",
            model=model.name,
            profiled=self.profiler is not None,
        ):
            if self.profiler is None:
                clouds = self.explorer.explore_model(model)
            else:
                clouds = {}
                for node in model.conv_nodes():
                    records = self.profiler.profile_layer(
                        model, node, assume_relock=False
                    )
                    clouds[node.node_id] = [
                        SolutionPoint(
                            node_id=node.node_id,
                            layer_name=node.layer.name,
                            layer_kind=node.layer.kind,
                            granularity=record.granularity,
                            hfo=record.hfo,
                            latency_s=record.latency_s,
                            energy_j=record.energy_j,
                        )
                        for record in records
                    ]
        return clouds

    def _pareto_fronts(
        self, model: Model, clouds: Dict[int, List[SolutionPoint]]
    ) -> Dict[int, List[SolutionPoint]]:
        """Per-layer Pareto fronts of the clouds (memoized per model)."""
        return self._front_cache.get(
            self._model_key(model),
            lambda: {
                node_id: pareto_front(
                    points, key=lambda p: (p.latency_s, p.energy_j)
                )
                for node_id, points in clouds.items()
            },
        )

    def harmonize(
        self, model: Model, result: OptimizationResult
    ) -> "HarmonizationResult":
        """Post-optimize local search reducing PLL re-locks.

        See :mod:`repro.optimize.harmonize`; keeps the result's QoS.
        """
        from .optimize.harmonize import harmonize_plan

        return harmonize_plan(
            self.runtime,
            model,
            result.plan,
            result.pareto_fronts,
            qos_s=result.qos_s,
        )

    def _solve_classes(self, classes, budget: float):
        if self.solver == "dp":
            return solve_mckp_dp(
                classes, budget, resolution=self.dp_resolution
            )
        return solve_mckp_greedy(classes, budget)

    def _refine_free_plan(
        self,
        model: Model,
        classes,
        conv_budget: float,
        budget: float,
        fixed: float,
    ) -> Optional[DeploymentPlan]:
        """Solve + runtime-measure + tighten; None if it cannot converge.

        Starts a hair under the true budget so grid rounding and the
        final mux handshakes cannot push the schedule over by floats.

        Every refinement round tightens the *previous* effective
        budget (not a recomputation from ``conv_budget``), so the
        knapsack budget is strictly monotonically decreasing across
        rounds: two rounds observing similar unpriced overhead still
        make at least two grid steps of progress each instead of
        re-solving a near-identical instance until
        :data:`MAX_REFINEMENTS` is burned.
        """
        effective_budget = conv_budget * 0.999
        for round_index in range(MAX_REFINEMENTS + 1):
            with span("pipeline.solve", round=round_index) as sp:
                try:
                    solution = self._solve_classes(
                        classes, effective_budget
                    )
                except QoSInfeasibleError:
                    sp.set(outcome="infeasible")
                    return None
                plan = self._plan_from_solution(
                    model, solution, budget, fixed
                )
                actual = self.runtime.measure_latency_s(
                    model, plan, initial_config=plan.initial_config()
                )
                sp.set(
                    outcome="converged" if actual <= budget else "tighten"
                )
            if actual <= budget:
                return plan
            # The gap between the runtime and the per-layer predictions
            # is exactly the sequence-dependent switching overhead the
            # MCKP cannot see.  Re-solve with that overhead (plus a
            # grid quantum of margin) carved out of the remaining
            # budget.
            unpriced = max(0.0, actual - plan.predicted_latency_s)
            grid_step = effective_budget / self.dp_resolution
            effective_budget -= unpriced * 1.05 + 2.0 * grid_step
            if effective_budget <= 0:
                return None
        return None

    def _uniform_classes(
        self, model: Model, clouds: Dict[int, List[SolutionPoint]]
    ) -> Dict:
        """Per-HFO MCKP classes for the uniform sweep (memoized).

        Maps each HFO to the per-layer Pareto fronts of its slice of
        the clouds (as MCKP classes), or ``None`` when some layer has
        no candidate at that HFO.  Budget-independent, so the sweep
        across QoS levels reuses one filtering + front pass per model.
        """
        return self._uniform_front_cache.get(
            self._model_key(model), self._uniform_fronts, clouds
        )

    def _uniform_fronts(
        self, clouds: Dict[int, List[SolutionPoint]]
    ) -> Dict:
        node_ids = sorted(clouds)
        # One pass per node groups its cloud by HFO (stable order), so
        # the per-HFO loop below indexes instead of rescanning the
        # whole cloud once per frequency.
        sliced = []
        for node_id in node_ids:
            by_hfo: Dict = {}
            for p in clouds[node_id]:
                by_hfo.setdefault(p.hfo, []).append(p)
            sliced.append(by_hfo)
        per_hfo: Dict = {}
        for hfo in self.space.hfo_configs:
            classes = []
            for by_hfo in sliced:
                points = by_hfo.get(hfo)
                if not points:
                    classes = None
                    break
                front = pareto_front(
                    points, key=lambda p: (p.latency_s, p.energy_j)
                )
                classes.append(
                    [
                        MCKPItem(
                            weight=p.latency_s, value=p.energy_j, payload=p
                        )
                        for p in front
                    ]
                )
            per_hfo[hfo] = classes
        return per_hfo

    def _best_uniform_hfo_plan(
        self,
        model: Model,
        clouds: Dict[int, List[SolutionPoint]],
        conv_budget: float,
        budget: float,
        fixed: float,
    ) -> DeploymentPlan:
        """Minimum-energy schedule with one shared HFO for all layers.

        A single HFO means the PLL is programmed once (before the
        window opens) and only the cheap LFO/HFO mux bounces remain,
        so the per-layer prices are accurate without refinement.

        Raises:
            QoSInfeasibleError: when no single-HFO schedule fits either.
        """
        best: Optional[DeploymentPlan] = None
        tightest = float("inf")
        per_hfo = self._uniform_classes(model, clouds)
        for hfo in self.space.hfo_configs:
            classes = per_hfo.get(hfo)
            if classes is None:
                continue
            try:
                solution = self._solve_classes(classes, conv_budget * 0.999)
            except QoSInfeasibleError as err:
                tightest = min(tightest, err.min_latency_s + fixed)
                continue
            plan = self._plan_from_solution(model, solution, budget, fixed)
            if (
                best is not None
                and plan.predicted_energy_j >= best.predicted_energy_j
            ):
                # Cannot win (a rung is kept only on a strict
                # improvement) and ``tightest`` is read only when no
                # rung fits: skip the replay, keep the solve.
                continue
            actual = self.runtime.measure_latency_s(
                model, plan, initial_config=plan.initial_config()
            )
            if actual > budget:
                tightest = min(tightest, actual)
                continue
            best = plan
        if best is None:
            raise QoSInfeasibleError(
                qos_s=budget,
                min_latency_s=(
                    tightest if tightest != float("inf") else budget
                ),
            )
        return best

    def _plan_from_solution(
        self,
        model: Model,
        solution,
        budget: float,
        fixed: float,
    ) -> DeploymentPlan:
        layer_plans: Dict[int, LayerPlan] = {}
        for item in solution.items:
            point: SolutionPoint = item.payload
            layer_plans[point.node_id] = LayerPlan(
                node_id=point.node_id,
                granularity=point.granularity,
                hfo=point.hfo,
                predicted_latency_s=point.latency_s,
                predicted_energy_j=point.energy_j,
            )
        return DeploymentPlan(
            model_name=model.name,
            lfo=self.space.lfo,
            layer_plans=layer_plans,
            qos_s=budget,
            predicted_latency_s=solution.total_weight + fixed,
            predicted_energy_j=solution.total_value,
        )

    def deploy(
        self,
        model: Model,
        plan: DeploymentPlan,
        qos_s: Optional[float] = None,
        fault_clock=None,
    ) -> InferenceReport:
        """Execute a plan on the DVFS runtime (gated post-QoS idle).

        The board enters the window pre-locked on the first layer's
        HFO, mirroring the baselines' pre-locked 216 MHz start.

        Args:
            model: model to execute.
            plan: the deployment plan.
            qos_s: accounting window override (``plan.qos_s`` default).
            fault_clock: optional
                :class:`repro.faults.plan.FaultClock`; routes the run
                through the hardened (CSS / watchdog / retry) engine
                paths.  ``None`` is bit-identical to the nominal run.
        """
        with span("pipeline.deploy", model=model.name):
            return self.runtime.run(
                model,
                plan,
                qos_s=qos_s if qos_s is not None else plan.qos_s,
                initial_config=plan.initial_config(),
                fault_clock=fault_clock,
            )

    # -- the Fig. 5 comparison ---------------------------------------------------

    def compare(
        self, model: Model, qos_level: QoSLevel
    ) -> ComparisonResult:
        """Ours vs. TinyEngine vs. TinyEngine+gating at one QoS level.

        The baseline schedule executes once: its latency anchors the
        QoS budget and its record is windowed under both idle policies.
        """
        baseline = self._tinyengine.run(model)
        self._baseline_cache.put(self._model_key(model), baseline.latency_s)
        result = self.optimize(model, qos_level=qos_level)
        ours = self.deploy(model, result.plan)
        te = self._tinyengine.window(baseline, result.qos_s)
        cg = self._tinyengine.window(
            baseline, result.qos_s, IdlePolicy.GATED
        )
        return ComparisonResult(
            model_name=model.name,
            qos_name=qos_level.name,
            qos_s=result.qos_s,
            ours=ours,
            tinyengine=te,
            clock_gated=cg,
        )
