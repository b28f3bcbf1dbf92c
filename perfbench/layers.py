"""Layer instrumentation: spans around the stack's public functions.

:func:`instrument` wraps, from outside, the public functions that form
each layer's boundary, so the traced run decomposes host time by layer
without any change to ``src/repro``.  :func:`layer_metrics` turns the
recording into the per-layer metrics named in ``BENCHMARK.json``.

Each layer, with the end-to-end metric it is expected to move:

=====================  ==================================================
engine.cost            TraceBuilder.build -> plan p50, fleet deploy
dse.explorer           explore_model / explore_layer -> plan p50, deploy
dse.pareto             pareto_front -> plan p50
optimize.harmonize     harmonize_plan (no benchmark path calls it today)
pipeline               DAEDVFSPipeline entry points (self time) -> plan p50
optimize.mckp          solve_mckp_dp, reprice_classes -> plan p90, serve
                       p99, scenario replans
engine.runtime         DVFSRuntime.run / measure_latency_s -> plan p50
engine.tinyengine      both TinyEngine baselines -> plan p50
fleet.pricing          SharedComponentExplorer.explore_layer,
                       ReplayingRuntime.run / measure_latency_s -> scenario
serve.server           PlanServer.handle_request (per resumption)
serve.admission        AdmissionController.admit / release
serve.batcher          PlanBatcher.submit (per resumption) + queue wait
serve.cache            PlanCache.get / put
serve.service          PlanService.plan / reprice
fleet.scheduler        FleetScheduler.run -> fleet deploy
fleet.governor         FleetGovernor.step / apply_replan, resolve_replan
power.energy           EnergyAccount.add (counted only: ~10^5 calls)
power.sensor           INA219Sensor.measure
scenario.engine        ScenarioEngine.start / step / finish -> tick p50
scenario.bridge        ServeBridge.request (event-loop round trip)
scenario.oracle        OracleTwin.step
obs                    SeriesStore.sample, SLOEvaluator.evaluate
bench.driver           the benchmark's own per-operation code
=====================  ==================================================

Threads park in ``threading.Condition.wait`` (pool futures, events)
and in the event loop's selector; both are bracketed with park markers
so a blocked thread is never charged for another thread's work.
"""

from __future__ import annotations

import selectors
import threading
import time
from typing import Dict, List, Tuple

import harness

LAYERS: Tuple[str, ...] = (
    "engine.cost",
    "dse.explorer",
    "dse.pareto",
    "optimize.harmonize",
    "pipeline",
    "optimize.mckp",
    "engine.runtime",
    "engine.tinyengine",
    "fleet.pricing",
    "serve.server",
    "serve.admission",
    "serve.batcher",
    "serve.cache",
    "serve.service",
    "fleet.scheduler",
    "fleet.governor",
    "power.energy",
    "power.sensor",
    "scenario.engine",
    "scenario.bridge",
    "scenario.oracle",
    "obs",
    "bench.driver",
)

#: Layers that are counted without spans: no self time of their own.
COUNT_ONLY = ("power.energy",)

#: (metric suffix, unit) of each layer's extra counters, in output order.
EXTRA: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "engine.cost": (("hit_ratio", "ratio"),),
    "dse.explorer": (("points", "count"),),
    "dse.pareto": (("kept_ratio", "ratio"),),
    "pipeline": (("solve_rounds", "count"),),
    "optimize.mckp": (("failed", "count"),),
    "serve.server": (
        ("plan_calls", "count"),
        ("reprice_calls", "count"),
        ("telemetry_calls", "count"),
    ),
    "serve.admission": (("shed", "count"), ("max_depth", "count")),
    "serve.batcher": (("wait_ms", "ms"), ("coalesce_ratio", "ratio")),
    "serve.cache": (("hit_ratio", "ratio"),),
    "serve.service": (
        ("plan_hits", "count"),
        ("plan_misses", "count"),
        ("reprice_ok", "count"),
        ("reprice_failed", "count"),
    ),
    "fleet.scheduler": (("wait_ms", "ms"),),
    "fleet.governor": (
        ("replans_requested", "count"),
        ("replans_applied", "count"),
        ("resolve_failed", "count"),
    ),
}

#: Per-class serve latencies reported with the layer table (traced run).
SERVE_CLASS_METRICS = tuple(
    f"serve.{cls}_{p}_ms"
    for cls in ("hit", "miss", "reprice")
    for p in ("p50", "p99")
)

#: Whole-trace metrics.
TRACE_METRICS = (
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.sum_error_pct", "%"),
)

#: The layer self times must sum to the span coverage computed apart
#: from the attribution sweep (``harness.covered_s``) within this share
#: of the traced wall, else the run fails.
SUM_TOLERANCE_PCT = 0.5


def metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    out: List[Tuple[str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count"))
        if layer not in COUNT_ONLY:
            out.append((f"{layer}.self_ms", "ms"))
        for suffix, unit in EXTRA.get(layer, ()):
            out.append((f"{layer}.{suffix}", unit))
    out.extend((name, "ms") for name in SERVE_CLASS_METRICS)
    out.extend(TRACE_METRICS)
    return out


class _Depth(threading.local):
    """Per-thread nesting depth of selected calls."""

    optimize = 0
    explore = 0


def instrument(recorder: harness.Recorder) -> harness.Patcher:
    """Install every layer wrapper; ``.undo()`` the returned patcher."""
    from repro.dse.explorer import DSEExplorer
    from repro.dse.pareto import pareto_front
    from repro.engine.cost import TraceBuilder
    from repro.engine.runtime import DVFSRuntime
    from repro.engine.tinyengine import TinyEngine
    from repro.fleet.governor import FleetGovernor, resolve_replan
    from repro.fleet.pricing import ReplayingRuntime, SharedComponentExplorer
    from repro.fleet.scheduler import FleetScheduler
    from repro.obs.series import SeriesStore
    from repro.obs.slo import SLOEvaluator
    from repro.optimize.harmonize import harmonize_plan
    from repro.optimize.mckp import reprice_classes, solve_mckp_dp
    from repro.pipeline import DAEDVFSPipeline
    from repro.power.energy import EnergyAccount
    from repro.power.sensor import INA219Sensor
    from repro.scenario.engine import ScenarioEngine, ServeBridge
    from repro.scenario.oracle import OracleTwin
    from repro.serve.admission import AdmissionController
    from repro.serve.batcher import PlanBatcher
    from repro.serve.cache import PlanCache
    from repro.serve.server import PlanServer
    from repro.serve.service import PlanService

    rec = recorder
    patch = harness.Patcher()
    depth = _Depth()

    def span(layer, observe=None):
        return harness.sync_span(rec, layer, observe)

    # engine.cost: a build is a hit when the builder's hit count moved.
    build_code = rec.code["engine.cost"]
    clock = time.perf_counter

    def make_build(fn):
        def build(self, *args, **kwargs):
            events = rec.events()
            rec.count("engine.cost.calls")
            hits = self.cache_hits
            events.append((clock(), build_code))
            try:
                return fn(self, *args, **kwargs)
            finally:
                events.append((clock(), harness.END))
                if self.cache_hits != hits:
                    rec.count("engine.cost.hits")

        return build

    patch.method(TraceBuilder, "build", make_build)

    # dse.explorer / fleet.pricing: points counted at the outermost
    # explore_layer only (the shared explorer delegates to its base).
    def explore_layer_span(layer):
        inner = span(layer)

        def make(fn):
            timed = inner(fn)

            def explore_layer(*args, **kwargs):
                depth.explore += 1
                try:
                    points = timed(*args, **kwargs)
                finally:
                    depth.explore -= 1
                if depth.explore == 0:
                    rec.count("dse.explorer.points", len(points))
                return points

            return explore_layer

        return make

    patch.method(DSEExplorer, "explore_layer", explore_layer_span("dse.explorer"))
    patch.method(DSEExplorer, "explore_model", span("dse.explorer"))
    patch.method(
        SharedComponentExplorer, "explore_layer",
        explore_layer_span("fleet.pricing"),
    )

    def on_pareto(result, error, args, kwargs):
        if error is None:
            rec.count("dse.pareto.in", len(args[0]))
            rec.count("dse.pareto.out", len(result))

    patch.function("repro", pareto_front, span("dse.pareto", on_pareto))
    patch.function("repro", harmonize_plan, span("optimize.harmonize"))

    # pipeline: self time of its entry points; solve rounds = MCKP
    # solves issued inside optimize().
    for name in (
        "__init__", "compare", "deploy", "replan", "uniform_plan_from_classes",
    ):
        patch.method(DAEDVFSPipeline, name, span("pipeline"))

    def make_optimize(fn):
        timed = span("pipeline")(fn)

        def optimize(*args, **kwargs):
            rec.count("pipeline.optimizes")
            depth.optimize += 1
            try:
                return timed(*args, **kwargs)
            finally:
                depth.optimize -= 1

        return optimize

    patch.method(DAEDVFSPipeline, "optimize", make_optimize)

    def on_mckp(result, error, args, kwargs):
        if error is not None:
            rec.count("optimize.mckp.failed")

    def on_solve(result, error, args, kwargs):
        on_mckp(result, error, args, kwargs)
        if depth.optimize > 0:
            rec.count("pipeline.solves")

    patch.function("repro", solve_mckp_dp, span("optimize.mckp", on_solve))
    patch.function("repro", reprice_classes, span("optimize.mckp", on_mckp))

    for name in ("run", "measure_latency_s"):
        patch.method(DVFSRuntime, name, span("engine.runtime"))
        patch.method(ReplayingRuntime, name, span("fleet.pricing"))
    patch.method(TinyEngine, "run", span("engine.tinyengine"))

    # serve tier.
    def on_request(result, error, args, kwargs):
        op = args[1].op
        if op in ("plan", "reprice", "telemetry"):
            rec.count(f"serve.server.{op}_calls")

    patch.method(
        PlanServer, "handle_request",
        harness.async_span(rec, "serve.server", on_request),
    )

    def on_admit(result, error, args, kwargs):
        if error is not None:
            rec.count("serve.admission.shed")
        else:
            rec.observe_max("serve.admission.max_depth", result)

    patch.method(AdmissionController, "admit", span("serve.admission", on_admit))
    patch.method(AdmissionController, "release", span("serve.admission"))

    batcher_code = rec.code["serve.batcher"]

    def make_submit(fn):
        async def submit(self, key, thunk, deadline_s=None):
            rec.count("serve.batcher.calls")
            submitted = clock()

            def timed_thunk():
                rec.count("serve.batcher.runs")
                rec.count("serve.batcher.wait_s", clock() - submitted)
                return thunk()

            return await harness.TimedAwaitable(
                fn(self, key, timed_thunk, deadline_s), batcher_code, rec
            )

        return submit

    patch.method(PlanBatcher, "submit", make_submit)

    def on_cache_get(result, error, args, kwargs):
        rec.count("serve.cache.gets")
        if result is not None:
            rec.count("serve.cache.hits")

    patch.method(PlanCache, "get", span("serve.cache", on_cache_get))
    patch.method(PlanCache, "put", span("serve.cache"))

    def on_plan(result, error, args, kwargs):
        if error is None:
            rec.count(
                "serve.service.plan_hits" if result.get("cached")
                else "serve.service.plan_misses"
            )

    def on_reprice(result, error, args, kwargs):
        rec.count(
            "serve.service.reprice_ok" if error is None
            else "serve.service.reprice_failed"
        )

    patch.method(PlanService, "plan", span("serve.service", on_plan))
    patch.method(PlanService, "reprice", span("serve.service", on_reprice))

    # fleet, power, scenario, obs.
    patch.method(FleetScheduler, "run", span("fleet.scheduler"))

    def on_step(result, error, args, kwargs):
        if error is None and args[0].pending_replan is not None:
            rec.count("fleet.governor.replans_requested")

    def on_apply(result, error, args, kwargs):
        if result:
            rec.count("fleet.governor.replans_applied")

    def on_resolve(result, error, args, kwargs):
        if result is None:
            rec.count("fleet.governor.resolve_failed")

    patch.method(FleetGovernor, "step", span("fleet.governor", on_step))
    patch.method(FleetGovernor, "apply_replan", span("fleet.governor", on_apply))
    patch.function("repro", resolve_replan, span("fleet.governor", on_resolve))
    patch.method(EnergyAccount, "add", harness.count_only(rec, "power.energy.calls"))
    patch.method(INA219Sensor, "measure", span("power.sensor"))
    for name in ("start", "step", "finish"):
        patch.method(ScenarioEngine, name, span("scenario.engine"))
    patch.method(ServeBridge, "request", span("scenario.bridge"))
    patch.method(OracleTwin, "step", span("scenario.oracle"))
    patch.method(SeriesStore, "sample", span("obs"))
    patch.method(SLOEvaluator, "evaluate", span("obs"))

    # Park markers: pool futures and events wait on a Condition; the
    # event loop blocks in its selector.
    patch.method(threading.Condition, "wait", harness.parking(rec))
    selector = selectors.DefaultSelector
    patch.set(selector, "select", harness.parking(rec)(selector.select))
    return patch


def layer_metrics(
    recorder: harness.Recorder,
    t0: float,
    t1: float,
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced window, plus any problems.

    The ``trace.overhead_pct`` and per-class serve latencies are
    filled in by the workload (they need the untraced pass).
    """
    streams = recorder.streams()
    problems = harness.check_streams(streams)
    self_s, parked_s, unattributed = harness.attribute(
        streams, len(recorder.layers), t0, t1
    )
    counters = recorder.counters()
    maxima = recorder.maxima()
    code = recorder.code

    def ratio(num: str, den: str) -> float:
        d = counters.get(den, 0.0)
        return counters.get(num, 0.0) / d if d else 0.0

    # Plain counters are recorded under their metric name; the derived
    # extras are overwritten below.
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = counters.get(f"{layer}.calls", 0.0)
        if layer not in COUNT_ONLY:
            out[f"{layer}.self_ms"] = self_s[code[layer]] * 1e3
        for suffix, _ in EXTRA.get(layer, ()):
            out[f"{layer}.{suffix}"] = counters.get(f"{layer}.{suffix}", 0.0)
    out["engine.cost.hit_ratio"] = ratio("engine.cost.hits", "engine.cost.calls")
    out["dse.pareto.kept_ratio"] = ratio("dse.pareto.out", "dse.pareto.in")
    out["pipeline.solve_rounds"] = ratio("pipeline.solves", "pipeline.optimizes")
    out["serve.admission.max_depth"] = maxima.get("serve.admission.max_depth", 0.0)
    out["serve.batcher.wait_ms"] = counters.get("serve.batcher.wait_s", 0.0) * 1e3
    out["serve.batcher.coalesce_ratio"] = ratio(
        "serve.batcher.calls", "serve.batcher.runs"
    )
    out["serve.cache.hit_ratio"] = ratio("serve.cache.hits", "serve.cache.gets")
    out["fleet.scheduler.wait_ms"] = parked_s[code["fleet.scheduler"]] * 1e3
    wall_ms = (t1 - t0) * 1e3
    out["trace.wall_ms"] = wall_ms
    # self + unattributed == wall holds by construction; the check is
    # that the sweep hands layers exactly the instants some span covers.
    out["trace.unattributed_ms"] = unattributed * 1e3
    attributed_ms = sum(self_s) * 1e3
    covered_ms = harness.covered_s(streams, t0, t1) * 1e3
    out["trace.sum_error_pct"] = abs(attributed_ms - covered_ms) / wall_ms * 100.0
    if out["trace.sum_error_pct"] > SUM_TOLERANCE_PCT:
        problems.append(
            f"layer self times sum to {attributed_ms:.3f} ms, "
            f"spans cover {covered_ms:.3f} ms of the traced wall"
        )
    return out, problems
