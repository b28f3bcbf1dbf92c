"""The synchronous planning backend behind the serve endpoints.

One :class:`PlanService` owns a warm :class:`DAEDVFSPipeline` wired
into a fleet-shared pricing state
(:class:`~repro.fleet.pricing.FleetSharedState` +
:class:`~repro.fleet.pricing.SharedComponentExplorer` +
:class:`~repro.fleet.pricing.ReplayingRuntime`), the bounded LRU
:class:`~repro.serve.cache.PlanCache`, and a small store of the most
recent optimization results -- keyed, like the plan cache, by the full
(model, board, space, QoS) identity -- so the ``reprice`` endpoint can
re-solve the MCKP from *cached* Pareto fronts
(:func:`repro.optimize.mckp.reprice_classes`) without ever
re-exploring the design space.

Everything here is blocking and thread-safe; the asyncio layer
(:mod:`repro.serve.batcher`, :mod:`repro.serve.server`) drives it from
an executor.  Plans are deterministic functions of their inputs, so a
payload served from the cache is byte-identical (sha256) to a freshly
computed one (the load generator's digest-consistency check).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..dse.space import paper_design_space
from ..engine.cost import model_fingerprint
from ..engine.serialize import plan_to_dict
from ..errors import ProtocolError, QoSInfeasibleError
from ..fleet.pricing import (
    FleetSharedState,
    ReplayingRuntime,
    SharedComponentExplorer,
)
from ..mcu.board import Board, make_nucleo_f767zi
from ..nn import PAPER_MODELS, build_tiny_test_model
from ..nn.graph import Model
from ..obs.audit import get_audit_log
from ..obs.registry import get_registry
from ..obs.tracing import span
from ..optimize.mckp import front_classes, reprice_classes
from ..optimize.qos import QoSLevel
from ..pipeline import DAEDVFSPipeline, OptimizationResult
from ..units import MHZ
from .cache import PlanCache, plan_cache_key
from .protocol import plan_digest
from .shared_cache import request_key

#: Models the service will plan for, by wire name.
MODEL_REGISTRY: Dict[str, Callable[[], Model]] = {
    **PAPER_MODELS,
    "tiny": build_tiny_test_model,
}


@dataclass
class _BoardState:
    """One board's warm planning trio inside a :class:`PlanService`."""

    board: Board
    shared: FleetSharedState
    pipeline: DAEDVFSPipeline


def board_from_params(params: Dict[str, Any]) -> Optional[str]:
    """The optional board selector of a request.

    ``None`` (absent) means the service's default board -- the
    pre-registry wire contract, byte-identical payloads included.

    Raises:
        ProtocolError: non-string board names.
    """
    board = params.get("board")
    if board is None:
        return None
    if not isinstance(board, str) or not board:
        raise ProtocolError("board must be a non-empty string")
    return board


def qos_key_from_params(params: Dict[str, Any]) -> Tuple:
    """Normalize request QoS params to a hashable cache-key component.

    Raises:
        ProtocolError: unless exactly one of ``qos_percent`` /
            ``qos_ms`` is present, numeric, finite and non-negative.
            A NaN would key a cache entry no request can ever hit and
            put a non-standard ``NaN`` budget on the wire.
    """
    percent = params.get("qos_percent")
    ms = params.get("qos_ms")
    if (percent is None) == (ms is None):
        raise ProtocolError(
            "provide exactly one of qos_percent or qos_ms"
        )
    kind, raw = ("percent", percent) if percent is not None else ("ms", ms)
    try:
        value = float(raw)
    except (TypeError, ValueError) as err:
        raise ProtocolError(f"QoS must be numeric: {err}") from err
    if not math.isfinite(value) or value < 0:
        raise ProtocolError(
            f"qos_{kind} must be finite and >= 0, got {raw!r}"
        )
    return (kind, value)


class PlanService:
    """Blocking planning backend shared by every serve endpoint.

    Args:
        board_factory: builds the board description; called once for
            the warm pipeline and once per cold (stateless) plan.
        cache: the plan cache (constructed if omitted).
        cache_enabled: look plans up before planning.
        solver: the pipeline's MCKP solver.
        max_front_store: recent (model, QoS) optimization results kept
            for the ``reprice`` endpoint.
        shared_cache: optional cross-worker plan-cache tier consulted
            on a local LRU miss and published to on every fresh plan
            (see :mod:`repro.serve.shared_cache`).
    """

    def __init__(
        self,
        board_factory: Callable[[], Board] = make_nucleo_f767zi,
        cache: Optional[PlanCache] = None,
        cache_enabled: bool = True,
        solver: str = "dp",
        max_front_store: int = 32,
        shared_cache: Optional[Any] = None,
    ):
        self.board_factory = board_factory
        self.cache = cache if cache is not None else PlanCache()
        self.cache_enabled = cache_enabled
        self.shared_cache = shared_cache
        self.solver = solver
        self.board = board_factory()
        self.shared = FleetSharedState(self.board)
        self.pipeline = self._build_pipeline(self.board, shared=True)
        # Lazily-built per-board planning states for requests that
        # select a registry target (``params["board"]``).  The default
        # (no board param) keeps using the attributes above.
        self._board_states: Dict[str, "_BoardState"] = {}
        self._board_states_lock = threading.Lock()
        self._models: Dict[str, Model] = {}
        self._models_lock = threading.Lock()
        # (model_key, qos_key) -> OptimizationResult, most recent last.
        self._front_store: "OrderedDict[Tuple, OptimizationResult]" = (
            OrderedDict()
        )
        self._front_lock = threading.Lock()
        self.max_front_store = max_front_store
        self._health_lock = threading.Lock()
        self._health_result: Optional[Dict[str, Any]] = None

    # -- wiring ------------------------------------------------------------------

    @staticmethod
    def _space_for(board: Board):
        """The board's canonical design space (native grid or paper's)."""
        if board.space_factory is not None:
            return board.space_factory(board)
        return paper_design_space(board.power_model)

    def _build_pipeline(
        self,
        board: Board,
        shared: bool,
        shared_state: Optional[FleetSharedState] = None,
    ) -> DAEDVFSPipeline:
        if not shared:
            return DAEDVFSPipeline(
                board=board,
                solver=self.solver,
            )
        state = shared_state if shared_state is not None else self.shared
        space = self._space_for(board)
        explorer = SharedComponentExplorer(board, space, state)
        runtime = ReplayingRuntime(board, state)
        return DAEDVFSPipeline(
            board=board,
            space=space,
            solver=self.solver,
            explorer=explorer,
            runtime=runtime,
        )

    def _state_for(self, board_name: Optional[str]) -> "_BoardState":
        """The planning state serving one board selector.

        ``None`` aliases the service's default board; named boards
        each get their own warm pipeline + fleet-shared pricing state,
        built once on first request.
        """
        if board_name is None:
            return _BoardState(
                board=self.board, shared=self.shared, pipeline=self.pipeline
            )
        with self._board_states_lock:
            state = self._board_states.get(board_name)
        if state is not None:
            return state
        from ..boards.registry import build_board

        board = build_board(board_name)
        shared = FleetSharedState(board)
        state = _BoardState(
            board=board,
            shared=shared,
            pipeline=self._build_pipeline(board, shared=True, shared_state=shared),
        )
        with self._board_states_lock:
            return self._board_states.setdefault(board_name, state)

    def resolve_model(self, name: Any) -> Model:
        """The shared model instance for a wire name.

        One canonical instance per name keeps the memoized model
        fingerprint (and with it every pipeline cache) warm across
        requests.

        Raises:
            ProtocolError: unknown model name.
        """
        if not isinstance(name, str) or name not in MODEL_REGISTRY:
            raise ProtocolError(
                f"unknown model {name!r}; expected one of "
                f"{sorted(MODEL_REGISTRY)}"
            )
        with self._models_lock:
            model = self._models.get(name)
            if model is None:
                model = self._models.setdefault(
                    name, MODEL_REGISTRY[name]()
                )
            return model

    # -- planning ----------------------------------------------------------------

    def _qos_args(self, qos_key: Tuple) -> Dict[str, Any]:
        kind, value = qos_key
        if kind == "percent":
            return {
                "qos_level": QoSLevel(
                    name=f"{value:g}%", slack=value / 100.0
                )
            }
        return {"qos_s": value * 1e-3}

    def cache_key(
        self,
        model: Model,
        qos_key: Tuple,
        board_name: Optional[str] = None,
    ) -> Tuple:
        """Full plan-cache key: model + board + space + QoS identity.

        The board fingerprint (which embeds the board *name* alongside
        its power/timing identity) keys both the local LRU and the
        shared tier, so the same (model, QoS) planned for two boards
        can never share an entry.
        """
        state = self._state_for(board_name)
        return plan_cache_key(
            model_fingerprint(model),
            state.board.fingerprint(),
            state.pipeline.space.fingerprint(),
            qos_key,
        )

    def _payload(
        self,
        model_name: str,
        qos_key: Tuple,
        result: OptimizationResult,
        board_name: Optional[str] = None,
    ) -> Dict[str, Any]:
        """The deterministic core payload (digest input) for a plan.

        The ``board`` key appears only for explicit board selections;
        default-board payloads keep their pre-registry shape (and
        digests).
        """
        kind, value = qos_key
        core = {
            "model": model_name,
            "qos": {kind: value, "budget_s": result.qos_s},
            "baseline_latency_s": result.baseline_latency_s,
            "fixed_overhead_s": result.fixed_overhead_s,
            "plan": plan_to_dict(result.plan),
        }
        if board_name is not None:
            core["board"] = board_name
        core["digest"] = plan_digest(
            {k: v for k, v in core.items() if k != "digest"}
        )
        return core

    def reconfigure(
        self, board_factory: Callable[[], Board]
    ) -> None:
        """Swap the hardware description under a live service.

        Rebuilds the warm pipeline and the fleet-shared pricing state
        for the new board.  The plan cache and the reprice front store
        survive untouched: both are keyed by the board fingerprint, so
        entries priced against the old board can never answer a
        request planned for the new one -- they simply age out.
        """
        self.board_factory = board_factory
        self.board = board_factory()
        self.shared = FleetSharedState(self.board)
        self.pipeline = self._build_pipeline(self.board, shared=True)

    def _store_fronts(
        self,
        model: Model,
        qos_key: Tuple,
        result: OptimizationResult,
        board_name: Optional[str] = None,
    ) -> None:
        # Keyed by the *full* plan-cache key -- board and design-space
        # fingerprints included -- so a service reconfigured with a
        # different board or power model can never reprice from fronts
        # priced against the old hardware (the stale-reprice bug).
        key = self.cache_key(model, qos_key, board_name)
        with self._front_lock:
            self._front_store[key] = result
            self._front_store.move_to_end(key)
            while len(self._front_store) > self.max_front_store:
                self._front_store.popitem(last=False)

    def _optimize(
        self,
        model_name: str,
        qos_key: Tuple,
        board_name: Optional[str] = None,
    ) -> Tuple[Model, OptimizationResult]:
        model = self.resolve_model(model_name)
        pipeline = self._state_for(board_name).pipeline
        result = pipeline.optimize(model, **self._qos_args(qos_key))
        self._store_fronts(model, qos_key, result, board_name)
        return model, result

    def _hit(
        self, sp, model_name: str, qos_key: Tuple, cached: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Answer from a local-LRU entry (the one plan-cache hit path)."""
        sp.set(cached=True)
        get_audit_log().record(
            "serve.cache", "hit", model=model_name, qos=list(qos_key)
        )
        return {**cached, "cached": True}

    def warm_plan(
        self,
        model_name: Any,
        qos_key: Tuple,
        board_name: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """A local-LRU hit answered without planning, or ``None``.

        Never blocks, so the server calls it on its event loop before
        batching: it builds no model or board (a name not yet resolved
        has no cached plan), takes no lock a planner thread holds for
        long, and skips the shared tier.  A hit counts, audits and
        opens its ``serve.plan`` span as a hit inside :meth:`plan`
        does.  A miss counts nothing and opens no span; the
        :meth:`plan` call that follows does the counted lookup.
        """
        if not self.cache_enabled or not isinstance(model_name, str):
            return None
        # Bare dict reads: resolve_model holds _models_lock while it
        # builds a model, and the event loop must not wait on that.
        model = self._models.get(model_name)
        if model is None or (
            board_name is not None and board_name not in self._board_states
        ):
            return None
        key = self.cache_key(model, qos_key, board_name)
        cached = self.cache.get(key, count_miss=False)
        if cached is None:
            return None
        with span("serve.plan", model=model_name) as sp:
            return self._hit(sp, model_name, qos_key, cached)

    def plan(
        self,
        model_name: str,
        qos_key: Tuple,
        use_cache: bool = True,
        board_name: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Plan (or serve from cache) one (model, QoS, board) request."""
        with span("serve.plan", model=model_name) as sp:
            model = self.resolve_model(model_name)
            key = self.cache_key(model, qos_key, board_name)
            if self.cache_enabled and use_cache:
                cached = self.cache.get(key)
                if cached is not None:
                    return self._hit(sp, model_name, qos_key, cached)
                if self.shared_cache is not None:
                    shared = self.shared_cache.lookup(key)
                    if shared is not None:
                        sp.set(cached=True, tier="shared")
                        get_audit_log().record(
                            "serve.cache",
                            "shared_hit",
                            model=model_name,
                            qos=list(qos_key),
                        )
                        self.shared_cache.register_request(
                            request_key(model_name, qos_key, board_name),
                            shared["digest"],
                        )
                        shared = self.cache.put(key, shared)
                        return {**shared, "cached": True}
            sp.set(cached=False)
            get_audit_log().record(
                "serve.cache",
                "bypass" if not (self.cache_enabled and use_cache)
                else "miss",
                model=model_name,
                qos=list(qos_key),
            )
            _, result = self._optimize(model_name, qos_key, board_name)
            payload = self._payload(model_name, qos_key, result, board_name)
            if self.cache_enabled and use_cache:
                payload = self.cache.put(key, payload)
                if self.shared_cache is not None:
                    self.shared_cache.publish(key, payload)
                    self.shared_cache.register_request(
                        request_key(model_name, qos_key, board_name),
                        payload["digest"],
                    )
            return {**payload, "cached": False}

    def plan_cold(
        self,
        model_name: str,
        qos_key: Tuple,
        board_name: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Plan on a fresh pipeline -- the batch-CLI cost, per request.

        No plan cache, no shared pricing state, no warm Step-2 caches:
        exactly what every ``repro-dvfs optimize`` invocation pays
        today.  The stateless benchmark baseline, and the oracle the
        digest-consistency check compares cached payloads against.
        """
        model = self.resolve_model(model_name)
        if board_name is None:
            board = self.board_factory()
        else:
            from ..boards.registry import build_board

            board = build_board(board_name)
        pipeline = self._build_pipeline(board, shared=False)
        result = pipeline.optimize(model, **self._qos_args(qos_key))
        payload = self._payload(model_name, qos_key, result, board_name)
        return {**payload, "cached": False}

    # -- repricing ---------------------------------------------------------------

    def reprice(
        self,
        model_name: str,
        qos_key: Tuple,
        extra_power_w: float = 0.0,
        max_hfo_mhz: Optional[float] = None,
        board_name: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Re-solve the MCKP over cached fronts for drifted conditions.

        ``extra_power_w`` models a thermal leakage ramp (constant
        power offset on every item); ``max_hfo_mhz`` a battery-sag
        frequency cap (items above it become infeasible).  The Pareto
        fronts come from the stored optimization result -- warmed by a
        prior ``plan`` call or computed once here -- so repricing
        never re-explores the design space.

        Raises:
            QoSInfeasibleError: no schedule over the repriced classes
                meets the stored budget.
        """
        model = self.resolve_model(model_name)
        key = self.cache_key(model, qos_key, board_name)
        with self._front_lock:
            result = self._front_store.get(key)
        get_audit_log().record(
            "serve.reprice",
            "fronts_cached" if result is not None else "fronts_cold",
            model=model_name,
            extra_power_w=extra_power_w,
            max_hfo_mhz=max_hfo_mhz,
        )
        if result is None:
            _, result = self._optimize(model_name, qos_key, board_name)
        pipeline = self._state_for(board_name).pipeline
        classes = front_classes(result.pareto_fronts)
        item_filter = None
        if max_hfo_mhz is not None:
            cap_hz = max_hfo_mhz * MHZ
            item_filter = (
                lambda item: item.payload.hfo.sysclk_hz <= cap_hz
            )
        classes = reprice_classes(
            classes, extra_power_w=extra_power_w, item_filter=item_filter
        )
        with span("serve.reprice", model=model_name) as sp:
            plan = pipeline.replan(
                model, classes, result.qos_s, result.fixed_overhead_s
            )
            sp.set(fallback=plan is None)
        if plan is None:
            # Free re-solve could not converge the sequence-dependent
            # relock overhead; uniform single-HFO schedules never pay
            # it (same fallback the fleet governor uses).
            get_audit_log().record(
                "serve.reprice",
                "uniform_fallback",
                model=model_name,
                qos_s=result.qos_s,
            )
            plan = pipeline.uniform_plan_from_classes(
                model,
                classes,
                result.qos_s,
                result.fixed_overhead_s,
                max_hfo_hz=(
                    max_hfo_mhz * MHZ if max_hfo_mhz is not None
                    else float("inf")
                ),
            )
        if plan is None:
            min_conv = sum(
                min(item.weight for item in cls) for cls in classes
            )
            raise QoSInfeasibleError(
                qos_s=result.qos_s,
                min_latency_s=min_conv + result.fixed_overhead_s,
            )
        repriced = OptimizationResult(
            plan=plan,
            pareto_fronts=result.pareto_fronts,
            baseline_latency_s=result.baseline_latency_s,
            qos_s=result.qos_s,
            fixed_overhead_s=result.fixed_overhead_s,
        )
        payload = self._payload(model_name, qos_key, repriced, board_name)
        payload["drift"] = {
            "extra_power_w": extra_power_w,
            "max_hfo_mhz": max_hfo_mhz,
        }
        return {**payload, "cached": False}

    def publish_registry(self) -> None:
        """Mirror off-request-path cache counters into the registry.

        The trace-builder cache counts hits on its own instance (the
        hot path stays registry-free); snapshot time copies them into
        gauges so the serve ``stats`` endpoint reports one coherent
        cross-layer view.
        """
        registry = get_registry()
        tracer = self.pipeline.tracer
        registry.gauge_set(
            "pipeline.trace_cache", float(tracer.cache_hits), event="hits"
        )
        registry.gauge_set(
            "pipeline.trace_cache",
            float(tracer.cache_misses),
            event="misses",
        )
        stats = self.shared.stats()
        for name, value in stats.items():
            registry.gauge_set(
                "fleet.shared_state", float(value), pool=name
            )

    # -- health ------------------------------------------------------------------

    def health(self, refresh: bool = False) -> Dict[str, Any]:
        """Quick selftest subset (memoized; ``refresh`` re-runs it)."""
        from ..selftest import run_selftest

        with self._health_lock:
            if self._health_result is not None and not refresh:
                return self._health_result
        result = run_selftest(quick=True)
        payload = {
            "ok": result.ok,
            "checks": [
                {"name": name, "ok": passed, "detail": detail}
                for name, passed, detail in result.checks
            ],
        }
        with self._health_lock:
            self._health_result = payload
            return payload
