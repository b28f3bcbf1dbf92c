"""The synchronous planning backend behind the serve endpoints.

One :class:`PlanService` owns a warm
:class:`~repro.fleet.pricing.BoardPlanningGroup` per served board (a
:class:`DAEDVFSPipeline` wired into a fleet-shared pricing state), the
bounded LRU :class:`~repro.serve.cache.PlanCache`, and a small store
of the most recent optimization results -- keyed, like the plan cache,
by the full (model, board, space, QoS) identity -- so the ``reprice``
endpoint can run the governor's drift re-solve
(:meth:`DAEDVFSPipeline.replan`) from *cached* Pareto fronts without
ever re-exploring the design space.

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
from typing import Any, Callable, Dict, Optional, Tuple

from ..engine.cost import model_fingerprint
from ..engine.serialize import plan_to_dict
from ..errors import ProtocolError
from ..fleet.pricing import BoardPlanningGroup, FleetSharedState
from ..mcu.board import Board, make_nucleo_f767zi
from ..memo import Memo
from ..nn import PAPER_MODELS, build_tiny_test_model
from ..nn.graph import Model
from ..obs.audit import get_audit_log
from ..obs.registry import get_registry
from ..obs.tracing import span
from ..optimize.mckp import front_classes
from ..optimize.qos import QoSLevel
from ..pipeline import DAEDVFSPipeline, OptimizationResult
from ..units import MHZ
from .cache import PlanCache, plan_cache_key
from .protocol import plan_digest

#: Models the service will plan for, by wire name.
MODEL_REGISTRY: Dict[str, Callable[[], Model]] = {
    **PAPER_MODELS,
    "tiny": build_tiny_test_model,
}


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
    """

    def __init__(
        self,
        board_factory: Callable[[], Board] = make_nucleo_f767zi,
        cache: Optional[PlanCache] = None,
        cache_enabled: bool = True,
        solver: str = "dp",
        max_front_store: int = 32,
    ):
        self.board_factory = board_factory
        self.cache = cache if cache is not None else PlanCache()
        self.cache_enabled = cache_enabled
        self.solver = solver
        self._group = BoardPlanningGroup(board_factory(), solver=solver)
        # Lazily-built planning groups for requests that select a
        # registry target (``params["board"]``).  The default (no
        # board param) keeps using ``_group``.
        self._board_groups = Memo()
        self._models = Memo()
        # (model_key, qos_key) -> OptimizationResult, most recent last.
        self._front_store: "OrderedDict[Tuple, OptimizationResult]" = (
            OrderedDict()
        )
        self._front_lock = threading.Lock()
        self.max_front_store = max_front_store
        self._health = Memo()

    # -- wiring ------------------------------------------------------------------

    @property
    def board(self) -> Board:
        """The default board."""
        return self._group.board

    @property
    def shared(self) -> FleetSharedState:
        """The default board's fleet-shared pricing state."""
        return self._group.shared

    @property
    def pipeline(self) -> DAEDVFSPipeline:
        """The default board's warm pipeline."""
        return self._group.pipeline

    def _group_for(self, board_name: Optional[str]) -> BoardPlanningGroup:
        """The planning group serving one board selector.

        ``None`` aliases the service's default board; named boards
        each get their own group, built once on first request.
        """
        if board_name is None:
            return self._group
        return self._board_groups.get(
            board_name,
            lambda: BoardPlanningGroup(
                self._new_board(board_name), solver=self.solver
            ),
        )

    def _new_board(self, board_name: Optional[str]) -> Board:
        """A fresh board for a selector (``None``: the default)."""
        if board_name is None:
            return self.board_factory()
        from ..boards.registry import build_board

        return build_board(board_name)

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
        return self._models.get(name, MODEL_REGISTRY[name])

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
        its power/timing identity) keys the LRU, so the same (model,
        QoS) planned for two boards can never share an entry.
        """
        group = self._group_for(board_name)
        return plan_cache_key(
            model_fingerprint(model),
            group.board.fingerprint(),
            group.space.fingerprint(),
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
        self._group = BoardPlanningGroup(board_factory(), solver=self.solver)

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
        pipeline = self._group_for(board_name).pipeline
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
        """An LRU hit answered without planning, or ``None``.

        Never blocks, so the server calls it on its event loop before
        batching: it builds no model or board (a name not yet resolved
        has no cached plan) and takes no lock a planner thread holds
        for long.  A hit counts, audits and
        opens its ``serve.plan`` span as a hit inside :meth:`plan`
        does.  A miss counts nothing and opens no span; the
        :meth:`plan` call that follows does the counted lookup.
        """
        if not self.cache_enabled or not isinstance(model_name, str):
            return None
        # Peeks never wait on a model or group still being built.
        model = self._models.peek(model_name)
        if model is None or (
            board_name is not None
            and self._board_groups.peek(board_name) is None
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
        pipeline = DAEDVFSPipeline(
            board=self._new_board(board_name), solver=self.solver
        )
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
        """The governor's drift re-solve, served.

        ``extra_power_w`` models a thermal leakage ramp (constant
        power offset on every item); ``max_hfo_mhz`` a battery-sag
        frequency cap (items above it become infeasible).  The Pareto
        fronts come from the stored optimization result -- warmed by a
        prior ``plan`` call or computed once here -- so repricing
        never re-explores the design space; the re-solve itself is
        :meth:`DAEDVFSPipeline.replan`, so the answer equals the fleet
        governor's for the same inputs.

        Raises:
            SolverError: a negative ``extra_power_w``.
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
        pipeline = self._group_for(board_name).pipeline
        with span("serve.reprice", model=model_name):
            plan = pipeline.replan(
                model,
                front_classes(result.pareto_fronts),
                result.qos_s,
                result.fixed_overhead_s,
                extra_w=extra_power_w,
                cap_hz=(
                    float("inf") if max_hfo_mhz is None
                    else max_hfo_mhz * MHZ
                ),
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
        if refresh:
            self._health.clear()
        return self._health.get("quick", _quick_selftest)


def _quick_selftest() -> Dict[str, Any]:
    from ..selftest import run_selftest

    result = run_selftest(quick=True)
    return {
        "ok": result.ok,
        "checks": [
            {"name": name, "ok": passed, "detail": detail}
            for name, passed, detail in result.checks
        ],
    }
