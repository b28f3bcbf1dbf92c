"""Asyncio TCP server wiring protocol -> admission -> batcher -> planner.

:class:`PlanServer` is the long-lived service the ROADMAP's north star
asks for: it builds the planning pipeline once and then answers
JSON-lines requests over TCP (or in-process, for tests and the load
generator) until drained.  The request path is::

    line -> decode (protocol) -> admission (shed or admit)
         -> batcher (coalesce + deadline) -> PlanService (executor)
         -> encode -> line

A ``plan`` that the LRU already holds leaves that path right after
admission: :meth:`PlanService.warm_plan` answers it on the event loop,
since there is no work to coalesce and no reason to wait out the batch
window.  Misses, ``no_cache`` requests, stateless servers and reprices
take the batcher.

``stats``, ``metrics`` and ``health`` bypass admission -- an
overloaded server must still answer its monitoring.  Shutdown is graceful: the listener
closes first, in-flight requests drain (bounded by
``drain_timeout_s``), then the worker pool stops.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from ..errors import OverloadedError, ProtocolError, ReproError
from ..obs.audit import get_audit_log
from ..obs.prom import to_prometheus
from ..obs.registry import get_registry, snapshot_digest
from ..obs.tracing import correlation, get_tracer, span
from .admission import AdmissionController, ArrivalClock, TokenBucket
from .batcher import PlanBatcher
from .cache import PlanCache
from .metrics import serve_totals
from .protocol import (
    Request,
    Response,
    decode_request,
    encode_response,
    error_from_exception,
)
from .service import PlanService, board_from_params, qos_key_from_params


@dataclass
class ServeConfig:
    """Everything one :class:`PlanServer` instance is built from.

    Attributes:
        host / port: TCP bind address (port 0 picks a free port).
        solver: the pipeline's MCKP solver.
        cache_enabled / cache_capacity: the LRU plan cache.
        batch_enabled / batch_window_s / max_batch: micro-batching.
        workers: planner thread-pool width.
        stateless: plan every request on a cold pipeline with cache
            and batching forced off -- the batch-CLI cost, reproduced
            inside the server for honest benchmarking.
        max_queue_depth: admitted-but-unanswered bound; beyond it
            requests shed with ``queue_full``.
        rate_per_s / burst: optional token-bucket admission limiter.
        admission_tick_s: when set, the limiter reads time from an
            :class:`~repro.serve.admission.ArrivalClock` advancing
            this much per admission check -- shed decisions become a
            pure function of arrival order (deterministic loadgen).
        default_deadline_s: deadline applied to requests that carry
            none (None = wait forever).
        drain_timeout_s: bound on the graceful-shutdown drain.
        default_board: registry board the tier plans for when a
            request names none (None = the registry default, the
            STM32F767ZI).  Requests carrying ``params["board"]``
            override it either way.
    """

    host: str = "127.0.0.1"
    port: int = 0
    solver: str = "dp"
    cache_enabled: bool = True
    cache_capacity: int = 256
    batch_enabled: bool = True
    batch_window_s: float = 0.002
    max_batch: int = 32
    workers: int = 4
    stateless: bool = False
    max_queue_depth: int = 64
    rate_per_s: Optional[float] = None
    burst: Optional[float] = None
    admission_tick_s: Optional[float] = None
    default_deadline_s: Optional[float] = None
    drain_timeout_s: float = 10.0
    default_board: Optional[str] = None


class PlanServer:
    """One serving instance: state, endpoints, and the TCP front end.

    Args:
        config: everything the instance is built from.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        cfg = self.config
        # Every serve event is recorded once, here; the process
        # registry's snapshot merges this child in.
        self.registry = get_registry().child()
        self._queue_depth_peak = 0
        # model -> {"count", "drift_sum", "abs_drift_max"}
        self._drift: Dict[str, Dict[str, float]] = {}
        self.cache = PlanCache(capacity=cfg.cache_capacity)
        service_kwargs = {}
        if cfg.default_board is not None:
            from ..boards.registry import get_spec

            service_kwargs["board_factory"] = get_spec(
                cfg.default_board
            ).build
        self.service = PlanService(
            cache=self.cache,
            cache_enabled=cfg.cache_enabled and not cfg.stateless,
            solver=cfg.solver,
            **service_kwargs,
        )
        bucket = None
        if cfg.rate_per_s is not None:
            time_fn = (
                ArrivalClock(cfg.admission_tick_s)
                if cfg.admission_tick_s is not None
                else time.monotonic
            )
            bucket = TokenBucket(
                rate_per_s=cfg.rate_per_s,
                burst=cfg.burst if cfg.burst is not None else 1.0,
                time_fn=time_fn,
            )
        self.admission = AdmissionController(
            max_queue_depth=cfg.max_queue_depth, bucket=bucket
        )
        self.batcher = PlanBatcher(
            registry=self.registry,
            window_s=cfg.batch_window_s,
            max_batch=cfg.max_batch,
            max_workers=cfg.workers,
            enabled=cfg.batch_enabled and not cfg.stateless,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._request_tasks: Set[asyncio.Task] = set()
        self._draining = False

    # -- request handling --------------------------------------------------------

    async def handle_request(self, request: Request) -> Response:
        """Dispatch one decoded request to its endpoint.

        When tracing is on, the whole dispatch runs inside a
        ``serve.request`` span whose correlation ID is the request ID,
        so every downstream span -- batcher, pipeline, explorer,
        solver, even in pool threads -- carries the request identity.
        """
        if get_tracer() is None:
            return await self._dispatch(request)
        with correlation(request.id or None):
            with span("serve.request", op=request.op) as sp:
                response = await self._dispatch(request)
                sp.set(ok=response.ok)
                return response

    async def _dispatch(self, request: Request) -> Response:
        start = time.perf_counter()
        deadline_s = request.deadline_s
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        try:
            if request.op in ("plan", "reprice"):
                result = await self._admitted(request, deadline_s)
            elif request.op == "telemetry":
                result = self._telemetry(request.params)
            elif request.op == "stats":
                result = self.stats()
            elif request.op == "metrics":
                result = self.metrics_payload(request.params)
            elif request.op == "health":
                result = await self._health(request.params)
            else:  # unreachable behind decode_request, kept for safety
                raise ProtocolError(f"unknown op {request.op!r}")
        except Exception as err:  # noqa: BLE001 - typed wire errors
            payload = error_from_exception(err)
            self.registry.count("serve.errors", kind=payload.kind)
            return Response(id=request.id, ok=False, error=payload)
        self.registry.count("serve.requests", op=request.op)
        self.registry.observe(
            "serve.latency", time.perf_counter() - start, op=request.op
        )
        return Response.success(request.id, result)

    async def _admitted(
        self, request: Request, deadline_s: Optional[float]
    ) -> Dict[str, Any]:
        """Admission-guarded path for the expensive planning ops."""
        try:
            depth = self.admission.admit()
        except OverloadedError as err:
            self.registry.count("serve.sheds", reason=err.reason)
            raise
        self._record_depth(depth)
        try:
            key, fn = self._planning_call(request)
            if key[0] == "plan" and key[-1]:
                # A warm LRU hit has no work to coalesce: answer
                # it here, without the batch window or a thread hop.
                _, model_name, qos_key, board, _ = key
                hit = self.service.warm_plan(model_name, qos_key, board)
                if hit is not None:
                    return hit
            return await self.batcher.submit(key, fn, deadline_s)
        finally:
            self._record_depth(self.admission.release())

    def _record_depth(self, depth: int) -> None:
        """Publish the in-flight gauge and its high-water mark."""
        self._queue_depth_peak = max(self._queue_depth_peak, depth)
        self.registry.gauge_set("serve.queue_depth", float(depth))
        self.registry.gauge_set(
            "serve.queue_depth_peak", float(self._queue_depth_peak)
        )

    def _planning_call(self, request: Request):
        """(coalescing key, blocking thunk) for a plan/reprice request.

        A cacheable plan's key is ``("plan", model, qos, board, True)``.
        """
        params = request.params
        model_name = params.get("model")
        qos_key = qos_key_from_params(params)
        board = board_from_params(params)
        if request.op == "plan":
            no_cache = params.get("no_cache", False)
            if not isinstance(no_cache, bool):
                raise ProtocolError(
                    f"no_cache must be a JSON boolean, got {no_cache!r}"
                )
            if self.config.stateless:
                return (
                    ("plan-cold", model_name, qos_key, board, id(request)),
                    lambda: self.service.plan_cold(
                        model_name, qos_key, board_name=board
                    ),
                )
            use_cache = not no_cache
            return (
                ("plan", model_name, qos_key, board, use_cache),
                lambda: self.service.plan(
                    model_name, qos_key, use_cache=use_cache,
                    board_name=board,
                ),
            )
        try:
            extra_power_w = float(params.get("extra_power_w", 0.0))
            cap = params.get("max_hfo_mhz")
            max_hfo_mhz = None if cap is None else float(cap)
        except (TypeError, ValueError) as err:
            raise ProtocolError(
                f"drift parameters must be numeric: {err}"
            ) from err
        # A non-finite excess would be echoed as NaN/Infinity on the
        # wire; a NaN or non-positive cap would empty every layer and
        # surface as a misleading QoS-infeasible answer.  A negative
        # excess stays a solver-level error.
        if not math.isfinite(extra_power_w):
            raise ProtocolError(
                "extra_power_w must be finite, "
                f"got {params.get('extra_power_w')!r}"
            )
        if max_hfo_mhz is not None and not (
            math.isfinite(max_hfo_mhz) and max_hfo_mhz > 0
        ):
            raise ProtocolError(
                f"max_hfo_mhz must be finite and > 0, got {cap!r}"
            )
        return (
            (
                "reprice", model_name, qos_key, board,
                extra_power_w, max_hfo_mhz,
            ),
            lambda: self.service.reprice(
                model_name,
                qos_key,
                extra_power_w=extra_power_w,
                max_hfo_mhz=max_hfo_mhz,
                board_name=board,
            ),
        )

    def _telemetry(self, params: Dict[str, Any]) -> Dict[str, Any]:
        model = params.get("model")
        if not isinstance(model, str) or not model:
            raise ProtocolError("telemetry needs a model name")
        try:
            predicted = float(params["predicted_energy_j"])
            measured = float(params["measured_energy_j"])
        except (KeyError, TypeError, ValueError) as err:
            raise ProtocolError(
                f"telemetry needs numeric predicted/measured energy: {err}"
            ) from err
        # A NaN or infinity would poison the model's drift aggregate
        # for the server's life and put non-standard JSON on the wire.
        if not (math.isfinite(predicted) and predicted > 0):
            raise ProtocolError(
                "predicted_energy_j must be finite and > 0, "
                f"got {params['predicted_energy_j']!r}"
            )
        if not (math.isfinite(measured) and measured >= 0):
            raise ProtocolError(
                "measured_energy_j must be finite and >= 0, "
                f"got {params['measured_energy_j']!r}"
            )
        drift = (measured - predicted) / predicted
        self.registry.count("serve.telemetry_samples", model=model)
        entry = self._drift.setdefault(
            model, {"count": 0, "drift_sum": 0.0, "abs_drift_max": 0.0}
        )
        entry["count"] += 1
        entry["drift_sum"] += drift
        entry["abs_drift_max"] = max(entry["abs_drift_max"], abs(drift))
        return {"model": model, **_drift_summary(entry)}

    async def _health(self, params: Dict[str, Any]) -> Dict[str, Any]:
        refresh = bool(params.get("refresh", False))
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self.batcher.executor,
            lambda: self.service.health(refresh=refresh),
        )

    def metrics_payload(
        self, params: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """The ``metrics`` op: just the registry, scrape-shaped.

        Unlike ``stats`` (the whole status payload) this returns the
        published registry snapshot alone, plus its canonical digest
        -- the unit the monitor CLI tails.  ``params: {"format":
        "prom"}`` adds the Prometheus text exposition.
        """
        fmt = (params or {}).get("format", "json")
        if fmt not in ("json", "prom"):
            raise ProtocolError(
                f"metrics format must be 'json' or 'prom', got {fmt!r}"
            )
        self.service.publish_registry()
        snapshot = get_registry().snapshot()
        result: Dict[str, Any] = {
            "registry": snapshot,
            "digest": snapshot_digest(snapshot),
        }
        if fmt == "prom":
            result["exposition"] = to_prometheus(snapshot)
        return result

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` payload: metrics + cache + admission +
        the process-wide obs registry (one coherent snapshot covering
        pipeline/fleet internals that happen off the request path)."""
        self.service.publish_registry()
        own = self.registry.snapshot()
        depth = own["gauges"].get("serve.queue_depth", {}).get("", 0.0)
        metrics = {
            **serve_totals(own),
            "queue_depth": int(depth),
            "queue_depth_peak": self._queue_depth_peak,
            "latency_by_op": {
                label.partition("=")[2]: summary
                for label, summary in own["histograms"]
                .get("serve.latency", {})
                .items()
            },
            "telemetry": {
                model: _drift_summary(entry)
                for model, entry in sorted(self._drift.items())
            },
        }
        return {
            "metrics": metrics,
            "cache": self.cache.stats(),
            "registry": get_registry().snapshot(),
            "audit": get_audit_log().counts(),
            "admission": {
                "max_queue_depth": self.admission.max_queue_depth,
                "depth": self.admission.depth,
                "sheds": dict(self.admission.sheds),
            },
            "config": {
                "cache_enabled": self.service.cache_enabled,
                "batch_enabled": self.batcher.enabled,
                "stateless": self.config.stateless,
                "workers": self.config.workers,
            },
        }

    async def handle_request_dict(
        self, data: Dict[str, Any]
    ) -> Dict[str, Any]:
        """In-process entry point (no sockets): dict in, dict out."""
        import json

        line = json.dumps(data, separators=(",", ":"))
        response = await self.handle_line(line)
        return json.loads(response)

    async def handle_line(self, line: str) -> str:
        """One request line -> one response line (never raises)."""
        try:
            request = decode_request(line)
        except ReproError as err:
            payload = error_from_exception(err)
            self.registry.count("serve.errors", kind=payload.kind)
            return encode_response(
                Response(id="", ok=False, error=payload)
            )
        if self._draining:
            err = OverloadedError(reason="draining", retry_after_s=1.0)
            self.registry.count("serve.sheds", reason="draining")
            return encode_response(Response.failure(request.id, err))
        response = await self.handle_request(request)
        return encode_response(response)

    # -- TCP front end -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ReproError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ReproError("server already started")
        self._server = await asyncio.start_server(
            self._on_client,
            host=self.config.host,
            port=self.config.port,
        )

    async def _on_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                request_task = asyncio.ensure_future(
                    self._respond(text, writer, write_lock)
                )
                self._request_tasks.add(request_task)
                request_task.add_done_callback(
                    self._request_tasks.discard
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # drain-cancel from stop(); close the socket and exit
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self,
        line: str,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        response_line = await self.handle_line(line)
        async with write_lock:
            try:
                writer.write(response_line.encode("utf-8") + b"\n")
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; the work still warmed caches

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, shut down."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Reader loops block on readline indefinitely -- cancel them
        # first; the in-flight *request* tasks are what drains.
        for task in list(self._conn_tasks):
            task.cancel()
        pending = {
            task for task in self._request_tasks if not task.done()
        }
        if pending:
            await asyncio.wait(
                pending, timeout=self.config.drain_timeout_s
            )
            for task in pending:
                if not task.done():
                    task.cancel()
        if self._conn_tasks:
            await asyncio.wait(
                set(self._conn_tasks), timeout=1.0
            )
        self._server = None
        self.batcher.shutdown()


def _drift_summary(entry: Dict[str, float]) -> Dict[str, float]:
    """One model's telemetry aggregate as the wire reports it."""
    return {
        "samples": entry["count"],
        "mean_drift": entry["drift_sum"] / entry["count"],
        "max_abs_drift": entry["abs_drift_max"],
    }
