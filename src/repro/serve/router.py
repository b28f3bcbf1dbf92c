"""Shard router: consistent-hash front for N worker processes.

The single-process :class:`~repro.serve.server.PlanServer` is capped
by the GIL however well it batches.  :class:`ShardRouter` scales it
out: N ``spawn``-ed worker processes (:mod:`repro.serve.worker`), each
owning the full single-process stack -- warm pipeline, local LRU,
micro-batcher, deterministic admission -- behind a front that routes
every planning request by the consistent hash of its *coalescing
identity* (model + QoS).  Same-key requests therefore always land on
the same shard, so per-worker batching and front stores keep working,
``reprice`` hits the shard whose fronts are warm, and each shard's
admission decisions remain a pure function of its own arrival
sequence (per-shard shed determinism).

Workers exchange plans through a digest-addressed shared cache tier
(:mod:`repro.serve.shared_cache`): the first worker to solve a key
publishes the canonical payload bytes, and any worker later routed a
colliding key (after churn, or via broadcast traffic) serves the
byte-identical payload -- so every routed plan digests identically to
a single-process solve.

Health is driven by the workers' ``health`` endpoint (the
``run_selftest(quick=True)`` subset): :meth:`ShardRouter.check_workers`
probes every shard, evicts a failed worker from the ring and respawns
it (same worker id, so its ring arcs -- and key ownership -- are
restored).  A worker that exhausts its respawn budget stays evicted
and the ring redistributes its keys to the survivors.

Correlation propagates across the process boundary by construction:
the router forwards each request with its original id, and the worker
opens its ``serve.request`` span under exactly that id, so one
correlation identity stitches router-side and worker-side traces
together.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..errors import OverloadedError, ProtocolError, ReproError
from ..obs.audit import get_audit_log
from ..obs.prom import to_prometheus
from ..obs.registry import get_registry, merge_snapshot, snapshot_digest
from ..obs.tracing import correlation, get_tracer, span
from ..recovery.journal import (
    JournaledSharedCache,
    PlanJournal,
    replay_into_cache,
)
from .client import ServeClient
from .metrics import serve_totals
from .protocol import (
    Request,
    Response,
    decode_request,
    encode_response,
    error_from_exception,
)
from .server import JsonLinesListener, ServeConfig
from .service import board_from_params, qos_key_from_params
from .shared_cache import managed_shared_cache, request_key
from .worker import worker_main


class HashRing:
    """Consistent hash ring with virtual nodes.

    Each node owns ``replicas`` points placed by sha256 (stable across
    processes and Python builds, unlike ``hash()``), and a key routes
    to the first point clockwise from its own hash.  Adding or
    removing one node only remaps the keys on that node's arcs -- the
    property that keeps per-shard request streams (and with them shed
    determinism and warm caches) stable under worker churn.
    """

    def __init__(self, replicas: int = 64):
        if replicas < 1:
            raise ReproError("replicas must be >= 1")
        self.replicas = replicas
        self._points: List[Tuple[int, int]] = []  # (point, node), sorted
        self._nodes: set = set()

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode("utf-8")).digest()[:8], "big"
        )

    def add(self, node: int) -> None:
        """Place ``node``'s virtual points on the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = self._hash(f"{node}#{replica}")
            bisect.insort(self._points, (point, node))

    def remove(self, node: int) -> None:
        """Drop ``node``'s points; its keys remap to the survivors."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [
            (point, owner)
            for point, owner in self._points
            if owner != node
        ]

    @property
    def nodes(self) -> List[int]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def route(self, key: str) -> int:
        """The node owning ``key`` (first point clockwise)."""
        if not self._points:
            raise ReproError("hash ring is empty")
        point = self._hash(key)
        index = bisect.bisect_right(self._points, (point, 2**64))
        if index >= len(self._points):
            index = 0  # wrap
        return self._points[index][1]


def shard_key(params: Dict[str, Any]) -> str:
    """The routing identity of one request's params.

    Deliberately *just* (model, QoS, board): plan and reprice requests
    for the same deployment co-locate (reprice then reuses the shard's
    warm front store), telemetry aggregates per model, and drift
    parameters stay out so a repriced deployment is owned by the same
    shard that planned it.  The board element is appended only when
    the request selects one, so default-board routing (and any
    persisted shard assignment) is unchanged, while the same
    (model, QoS) planned for two boards never shares a shard's warm
    state by accident.
    """
    qos: List[Any] = []
    for name in ("qos_percent", "qos_ms"):
        if params.get(name) is not None:
            qos = [name, str(params[name])]
    identity: List[Any] = [str(params.get("model")), qos]
    if params.get("board") is not None:
        identity.append(str(params["board"]))
    return json.dumps(identity, separators=(",", ":"))


@dataclass
class RouterConfig:
    """Everything one :class:`ShardRouter` is built from.

    Attributes:
        shards: worker-process count.
        host / port: TCP bind address of the router front end.
        replicas: virtual nodes per worker on the hash ring.
        shared_cache_enabled / shared_cache_capacity: the cross-worker
            digest-addressed plan-cache tier.
        health_interval_s: period of the background health loop
            (None disables it; :meth:`ShardRouter.check_workers` can
            still be driven manually).
        health_timeout_s: per-probe deadline before a worker counts
            as failed.
        health_refresh: re-run the worker selftest on every probe
            instead of serving the memoized result.
        max_respawns: per-worker respawn budget; beyond it the worker
            stays evicted from the ring.
        spawn_timeout_s: bound on worker startup (import + pipeline
            warm-up + bind).
        drain_timeout_s: bound on the front-end drain at stop.
        serve: the per-worker :class:`ServeConfig` (its host/port are
            overridden to loopback/ephemeral per worker).
        journal_path: write-ahead journal for the shared plan-cache
            tier (:mod:`repro.recovery.journal`).  On start the tier
            is rebuilt from the journal (so a router restart -- or a
            respawned worker -- starts warm instead of cold), and
            every subsequent publish is journaled write-ahead.
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan`
            whose ``worker_kill_rate`` SIGKILLs the owning worker
            mid-request (the serve tier's chaos hook); decisions come
            from the plan's deterministic ``SERVE_STAGE`` clock.
    """

    shards: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    replicas: int = 64
    shared_cache_enabled: bool = True
    shared_cache_capacity: int = 1024
    health_interval_s: Optional[float] = None
    health_timeout_s: float = 10.0
    health_refresh: bool = False
    max_respawns: int = 2
    spawn_timeout_s: float = 120.0
    drain_timeout_s: float = 10.0
    serve: ServeConfig = field(default_factory=ServeConfig)
    journal_path: Optional[str] = None
    fault_plan: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ReproError("shards must be >= 1")


@dataclass
class _Worker:
    """Router-side bookkeeping for one shard."""

    worker_id: int
    process: Any = None
    conn: Any = None
    client: Optional[ServeClient] = None
    port: Optional[int] = None
    pid: Optional[int] = None
    respawns: int = 0
    evicted: bool = False


class ShardRouter(JsonLinesListener):
    """Consistent-hash front over N spawned shard workers.

    Mirrors the :class:`~repro.serve.server.PlanServer` surface that
    clients and the load generator use (``handle_request``,
    ``handle_request_dict``, ``handle_line``, ``stats``, ``start`` /
    ``stop``), so an
    :class:`~repro.serve.client.InProcessClient` drives a router and a
    single server interchangeably.
    """

    def __init__(self, config: Optional[RouterConfig] = None):
        self.config = config or RouterConfig()
        cfg = self.config
        self._init_listener(cfg.host, cfg.port, cfg.drain_timeout_s)
        self._workers: Dict[int, _Worker] = {}
        self.ring = HashRing(replicas=cfg.replicas)
        self.shared_cache: Optional[Any] = None
        self._manager: Any = None
        self._mp_context: Any = None
        self._health_task: Optional[asyncio.Task] = None
        self._health_pass_lock: Optional[asyncio.Lock] = None
        self._started = False
        self._draining = False
        self.routed: Dict[int, int] = {}
        self._fault_clock: Optional[Any] = None
        self._journal_replay: Optional[Dict[str, int]] = None
        self.failovers: Dict[str, int] = {
            "triggered": 0,
            "retried_ok": 0,
            "degraded_shared_cache": 0,
            "degraded_uniform_fallback": 0,
            "chaos_kills": 0,
        }

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the shards, connect to them, bind the front end."""
        if self._started:
            raise ReproError("router already started")
        import multiprocessing

        self._mp_context = multiprocessing.get_context("spawn")
        self._health_pass_lock = asyncio.Lock()
        if self.config.fault_plan is not None:
            from ..faults.plan import SERVE_STAGE

            self._fault_clock = self.config.fault_plan.clock_for(
                device_id=0, stage=SERVE_STAGE
            )
        if self.config.shared_cache_enabled:
            self._manager = self._mp_context.Manager()
            self.shared_cache = managed_shared_cache(
                self._manager,
                capacity=self.config.shared_cache_capacity,
            )
            if self.config.journal_path is not None:
                # Rebuild the shared tier from the write-ahead journal
                # *before* any worker connects: a restarted router (or
                # a worker respawned into it) starts warm.
                replay = replay_into_cache(
                    self.config.journal_path, self.shared_cache
                )
                self._journal_replay = replay
                if replay["read"] or replay["dropped_tail"]:
                    get_audit_log().record(
                        "recovery.journal",
                        "replay",
                        path=self.config.journal_path,
                        replayed=replay["replayed"],
                        requests=replay["requests"],
                        dropped_tail=replay["dropped_tail"],
                    )
                if replay["replayed"]:
                    get_registry().count(
                        "recovery.journal",
                        n=float(replay["replayed"]),
                        event="replayed",
                    )
                self.shared_cache = JournaledSharedCache(
                    self.shared_cache,
                    PlanJournal(self.config.journal_path),
                )
        # Launch every worker before waiting on any: startup cost is
        # one import + pipeline warm-up, paid in parallel.
        for worker_id in range(self.config.shards):
            self._spawn(worker_id)
        await asyncio.gather(
            *(
                self._connect(worker)
                for worker in self._workers.values()
            )
        )
        for worker in self._workers.values():
            self.ring.add(worker.worker_id)
            self.routed.setdefault(worker.worker_id, 0)
        await super().start()
        if self.config.health_interval_s is not None:
            self._health_task = asyncio.ensure_future(
                self._health_loop()
            )
        self._started = True

    def _spawn(self, worker_id: int) -> _Worker:
        worker = self._workers.get(worker_id) or _Worker(worker_id)
        parent_conn, child_conn = self._mp_context.Pipe()
        worker_config = replace(
            self.config.serve,
            host="127.0.0.1",
            port=0,
            worker_id=worker_id,
        )
        process = self._mp_context.Process(
            target=worker_main,
            args=(worker_id, child_conn, worker_config, self.shared_cache),
            daemon=True,
            name=f"repro-serve-worker-{worker_id}",
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.client = None
        worker.port = None
        worker.pid = None
        self._workers[worker_id] = worker
        return worker

    async def _connect(self, worker: _Worker) -> None:
        """Wait for the worker's ready message, then open its client."""
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + self.config.spawn_timeout_s

        def wait_ready() -> Dict[str, Any]:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ReproError(
                        f"worker {worker.worker_id} did not become "
                        f"ready within {self.config.spawn_timeout_s}s"
                    )
                if worker.conn.poll(min(remaining, 0.5)):
                    message = worker.conn.recv()
                    if (
                        isinstance(message, dict)
                        and message.get("event") == "ready"
                    ):
                        return message
                if not worker.process.is_alive():
                    raise ReproError(
                        f"worker {worker.worker_id} died during "
                        f"startup (exitcode "
                        f"{worker.process.exitcode})"
                    )

        ready = await loop.run_in_executor(None, wait_ready)
        worker.port = int(ready["port"])
        worker.pid = ready.get("pid")
        worker.client = await ServeClient(
            "127.0.0.1",
            worker.port,
            client_id=f"router-w{worker.worker_id}",
        ).connect()

    async def stop(self) -> None:
        """Drain the front end, stop every worker, shut the tier down."""
        self._draining = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        await self._drain_listener()
        await asyncio.gather(
            *(
                self._stop_worker(worker)
                for worker in self._workers.values()
            )
        )
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
        self._started = False

    async def _stop_worker(self, worker: _Worker) -> None:
        if worker.client is not None:
            await worker.client.close()
            worker.client = None
        process = worker.process
        if process is None:
            return
        try:
            worker.conn.send({"event": "stop"})
        except (BrokenPipeError, OSError):
            pass
        loop = asyncio.get_running_loop()
        grace = min(5.0, self.config.drain_timeout_s)
        await loop.run_in_executor(None, lambda: process.join(grace))
        await self._reap(worker)

    async def _reap(self, worker: _Worker) -> None:
        """Escalate terminate -> kill and *always* join.

        Every exit path funnels here (graceful stop, failed drain,
        eviction), so a worker that ignores its drain window is
        SIGKILLed and reaped rather than leaked as a live child or a
        zombie waiting for the next join.
        """
        process = worker.process
        if process is None:
            return
        loop = asyncio.get_running_loop()
        if process.is_alive():
            process.terminate()
            await loop.run_in_executor(None, lambda: process.join(2.0))
        if process.is_alive():
            process.kill()
        # A final unconditional join reaps the exit status whether the
        # process obeyed SIGTERM, needed SIGKILL, or was already dead.
        await loop.run_in_executor(None, process.join)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process = None

    # -- health / churn ----------------------------------------------------------

    async def _health_loop(self) -> None:
        assert self.config.health_interval_s is not None
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            try:
                await self.check_workers()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - keep probing
                pass

    async def check_workers(self) -> Dict[int, bool]:
        """Probe every shard; evict-and-respawn the ones that fail.

        Returns:
            worker id -> healthy after this pass (a respawned worker
            reports True; one that exhausted its budget, False).
        """
        verdicts: Dict[int, bool] = {}
        # One pass at a time: concurrent failovers (or the health loop)
        # must not double-respawn the same worker id.
        lock = self._health_pass_lock or asyncio.Lock()
        async with lock:
            for worker in list(self._workers.values()):
                if worker.evicted:
                    verdicts[worker.worker_id] = False
                    continue
                healthy = await self._probe(worker)
                if not healthy:
                    healthy = await self._respawn(worker)
                verdicts[worker.worker_id] = healthy
        return verdicts

    async def _probe(self, worker: _Worker) -> bool:
        if (
            worker.client is None
            or worker.process is None
            or not worker.process.is_alive()
        ):
            return False
        try:
            result = await asyncio.wait_for(
                worker.client.request(
                    "health", refresh=self.config.health_refresh
                ),
                timeout=self.config.health_timeout_s,
            )
        except (ReproError, asyncio.TimeoutError, ConnectionError):
            return False
        return bool(result.get("ok"))

    async def _respawn(self, worker: _Worker) -> bool:
        """Evict a failed worker and bring a replacement up.

        The replacement keeps the worker id, so its ring arcs -- and
        therefore key ownership -- are restored exactly.  Past the
        respawn budget the worker stays evicted and the ring
        redistributes its keys to the survivors.
        """
        self.ring.remove(worker.worker_id)
        get_registry().count(
            "router.evictions", worker=str(worker.worker_id)
        )
        get_audit_log().record(
            "serve.router",
            "evict",
            worker=worker.worker_id,
            respawns=worker.respawns,
        )
        if worker.client is not None:
            await worker.client.close()
            worker.client = None
        await self._reap(worker)
        if worker.respawns >= self.config.max_respawns:
            worker.evicted = True
            get_audit_log().record(
                "serve.router",
                "evicted_permanently",
                worker=worker.worker_id,
            )
            return False
        worker.respawns += 1
        try:
            self._spawn(worker.worker_id)
            await self._connect(worker)
        except ReproError:
            worker.evicted = True
            await self._reap(worker)  # the failed replacement too
            return False
        self.ring.add(worker.worker_id)
        get_registry().count(
            "router.respawns", worker=str(worker.worker_id)
        )
        get_audit_log().record(
            "serve.router",
            "respawn",
            worker=worker.worker_id,
            respawns=worker.respawns,
        )
        return True

    # -- request path ------------------------------------------------------------

    async def handle_request(self, request: Request) -> Response:
        """Route one decoded request (the in-process entry point)."""
        if get_tracer() is None:
            return await self._dispatch(request)
        with correlation(request.id or None):
            with span("router.request", op=request.op) as sp:
                response = await self._dispatch(request)
                sp.set(ok=response.ok)
                return response

    async def _dispatch(self, request: Request) -> Response:
        try:
            if request.op == "stats":
                return Response.success(request.id, await self.stats())
            if request.op == "metrics":
                return Response.success(
                    request.id,
                    await self.metrics_payload(request.params),
                )
            if request.op == "health":
                return Response.success(
                    request.id, await self._fanout_health(request)
                )
            return await self._forward(request)
        except Exception as err:  # noqa: BLE001 - typed wire errors
            return Response(
                id=request.id,
                ok=False,
                error=error_from_exception(err),
            )

    async def _forward(self, request: Request) -> Response:
        try:
            worker = self._owner(request)
        except OverloadedError as err:
            return await self._failover(request, None, err)
        self._maybe_chaos_kill(worker, request)
        try:
            return await self._route_to(worker, request)
        except (ReproError, ConnectionError, OSError) as err:
            return await self._failover(request, worker, err)

    async def _route_to(
        self, worker: _Worker, request: Request
    ) -> Response:
        client = worker.client
        if client is None or worker.evicted:
            # A concurrent failover's health pass reaped this worker
            # between owner resolution and the call; same treatment as
            # a dead transport.
            raise ReproError(
                f"worker {worker.worker_id} has no live connection"
            )
        with span(
            "router.route",
            op=request.op,
            worker=worker.worker_id,
        ):
            self.routed[worker.worker_id] = (
                self.routed.get(worker.worker_id, 0) + 1
            )
            get_registry().count(
                "router.routed", worker=str(worker.worker_id)
            )
            return await client.call(request)

    def _maybe_chaos_kill(
        self, worker: _Worker, request: Request
    ) -> None:
        """The WORKER_KILL fault: SIGKILL the owner mid-request."""
        if self._fault_clock is None or request.op not in (
            "plan",
            "reprice",
        ):
            return
        if not self._fault_clock.worker_kill():
            return
        process = worker.process
        if process is not None and process.is_alive():
            process.kill()
            self.failovers["chaos_kills"] += 1
            get_registry().count(
                "router.worker_kills", worker=str(worker.worker_id)
            )
            get_audit_log().record(
                "serve.router",
                "worker_kill",
                worker=worker.worker_id,
                op=request.op,
            )

    async def _failover(
        self,
        request: Request,
        worker: Optional[_Worker],
        err: Exception,
    ) -> Response:
        """Dead-shard request path: health pass, one retry, degrade.

        A request that hit a dead or evicted shard triggers an
        *immediate* health pass (evict/respawn, not waiting for the
        periodic loop), retries exactly once on whichever worker then
        owns the key (the respawned one, or the survivor the ring
        reassigned the arc to), and otherwise degrades gracefully --
        a shared-cache/journal hit or an explicit uniform-fallback
        plan -- rather than erroring.
        """
        self.failovers["triggered"] += 1
        get_registry().count("router.failovers", op=request.op)
        get_audit_log().record(
            "serve.router",
            "failover",
            op=request.op,
            worker=None if worker is None else worker.worker_id,
            error=str(err),
        )
        await self.check_workers()
        try:
            retry_worker = self._owner(request)
        except OverloadedError:
            retry_worker = None
        if retry_worker is not None:
            try:
                response = await self._route_to(retry_worker, request)
            except (ReproError, ConnectionError, OSError):
                pass
            else:
                self.failovers["retried_ok"] += 1
                get_audit_log().record(
                    "serve.router",
                    "failover_retry_ok",
                    op=request.op,
                    worker=retry_worker.worker_id,
                )
                return response
        return self._degraded(request, err)

    def _degraded(self, request: Request, err: Exception) -> Response:
        """Last rung of the failover ladder (plan/reprice only).

        Prefers a digest-verified shared-cache hit by *request*
        identity (the journal-backed index the router can address
        without a pipeline); otherwise answers with an explicit
        ``degraded: uniform-fallback`` payload -- the device holds its
        uniform single-HFO baseline, the one schedule that is always
        safe -- instead of an error.
        """
        if request.op not in ("plan", "reprice"):
            raise err
        rk = self._request_identity(request)
        if rk is not None and self.shared_cache is not None:
            payload = self.shared_cache.lookup_request(rk)
            if payload is not None:
                self.failovers["degraded_shared_cache"] += 1
                get_registry().count(
                    "router.degraded", mode="shared-cache"
                )
                get_audit_log().record(
                    "serve.router",
                    "degraded_serve",
                    op=request.op,
                    mode="shared-cache",
                )
                return Response.success(
                    request.id,
                    {
                        **payload,
                        "cached": True,
                        "degraded": "shared-cache",
                    },
                )
        self.failovers["degraded_uniform_fallback"] += 1
        get_registry().count("router.degraded", mode="uniform-fallback")
        get_audit_log().record(
            "serve.router",
            "degraded_serve",
            op=request.op,
            mode="uniform-fallback",
        )
        return Response.success(
            request.id,
            {
                "degraded": "uniform-fallback",
                "model": request.params.get("model"),
                "policy": "hold-uniform-baseline",
                "reason": str(err),
            },
        )

    @staticmethod
    def _request_identity(request: Request) -> Optional[str]:
        """The shared-cache request key for a request (None if malformed)."""
        model = request.params.get("model")
        if not isinstance(model, str) or not model:
            return None
        try:
            qos_key = qos_key_from_params(request.params)
            board = board_from_params(request.params)
        except ReproError:
            return None
        return request_key(model, qos_key, board)

    def _owner(self, request: Request) -> _Worker:
        if not len(self.ring):
            raise OverloadedError(reason="no_workers", retry_after_s=1.0)
        worker_id = self.ring.route(shard_key(request.params))
        worker = self._workers[worker_id]
        if worker.client is None:
            raise OverloadedError(
                reason="worker_down", retry_after_s=1.0
            )
        return worker

    async def _fanout_health(
        self, request: Request
    ) -> Dict[str, Any]:
        """``health`` fans out: the fleet is healthy if every live
        shard is (evicted workers report as failed)."""
        entries: Dict[str, Any] = {}
        ok = True
        for worker in self._workers.values():
            if worker.evicted or worker.client is None:
                entries[str(worker.worker_id)] = {
                    "ok": False,
                    "evicted": worker.evicted,
                }
                ok = False
                continue
            try:
                result = await asyncio.wait_for(
                    worker.client.request(
                        "health", **dict(request.params)
                    ),
                    timeout=self.config.health_timeout_s,
                )
            except (ReproError, asyncio.TimeoutError, ConnectionError):
                entries[str(worker.worker_id)] = {"ok": False}
                ok = False
                continue
            entries[str(worker.worker_id)] = result
            ok = ok and bool(result.get("ok"))
        return {"ok": ok, "workers": entries}

    # -- stats -------------------------------------------------------------------

    def _stats_local(self) -> Dict[str, Any]:
        """Router-side stats (no worker round-trips; see :meth:`stats`)."""
        return {
            "router": {
                "shards": self.config.shards,
                "replicas": self.config.replicas,
                "live_workers": len(self.ring),
                "evicted_workers": sorted(
                    w.worker_id
                    for w in self._workers.values()
                    if w.evicted
                ),
                "routed": {
                    str(wid): count
                    for wid, count in sorted(self.routed.items())
                },
                "respawns": {
                    str(w.worker_id): w.respawns
                    for w in self._workers.values()
                    if w.respawns
                },
                "shared_cache": (
                    self.shared_cache.stats()
                    if self.shared_cache is not None
                    else None
                ),
                "failovers": dict(self.failovers),
                "journal": (
                    None
                    if self.config.journal_path is None
                    else {
                        "path": self.config.journal_path,
                        "replay": self._journal_replay,
                    }
                ),
            }
        }

    async def metrics_payload(
        self, params: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """The ``metrics`` op, fleet-coherent: every live worker's
        published registry plus the router's own, merged losslessly
        (counters and histogram buckets add cell-wise; see
        :func:`repro.obs.registry.merge_snapshot`).  The result is
        itself a valid snapshot -- scrapeable as one process --
        and carries the per-worker digests so a client can audit
        exactly which shard views went into the merge."""
        fmt = (params or {}).get("format", "json")
        if fmt not in ("json", "prom"):
            raise ProtocolError(
                f"metrics format must be 'json' or 'prom', got {fmt!r}"
            )
        # Worker registries only: the merged view must equal the sum
        # of the per-worker registries exactly (the acceptance pin);
        # the router process's own counters stay under ``stats``'s
        # local block rather than polluting the fleet totals.
        snapshots: List[Dict[str, Any]] = []
        worker_digests: Dict[str, Any] = {}
        for worker in self._workers.values():
            if worker.evicted or worker.client is None:
                continue
            try:
                result = await worker.client.request("metrics")
            except (ReproError, ConnectionError):
                continue
            snapshots.append(result.get("registry", {}))
            worker_digests[str(worker.worker_id)] = result.get(
                "digest"
            )
        merged = merge_snapshot(snapshots)
        payload: Dict[str, Any] = {
            "worker_id": None,
            "workers": worker_digests,
            "registry": merged,
            "digest": snapshot_digest(merged),
        }
        if fmt == "prom":
            payload["exposition"] = to_prometheus(merged)
        return payload

    async def stats(self) -> Dict[str, Any]:
        """Aggregated stats: router view, per-worker payloads, totals.

        Unlike :class:`PlanServer` this is a coroutine -- it fans the
        ``stats`` op out to every live worker.  Each worker's payload
        already carries its full published registry, so the router
        merges those losslessly via
        :func:`repro.obs.registry.merge_snapshot` (together with its
        own registry) and publishes the result under ``registry`` --
        histograms and all, nothing hand-picked.  The ``metrics``
        block is read out of the merged registry by
        :func:`~repro.serve.metrics.serve_totals`, as each worker's
        own is, and the per-worker views stay available under
        ``workers``.
        """
        local = self._stats_local()
        workers: Dict[str, Any] = {}
        for worker in self._workers.values():
            if worker.evicted or worker.client is None:
                continue
            try:
                workers[str(worker.worker_id)] = (
                    await worker.client.request("stats")
                )
            except (ReproError, ConnectionError):
                continue
        merged_registry = merge_snapshot(
            [stats.get("registry", {}) for stats in workers.values()]
        )
        cache = {"hits": 0, "misses": 0, "evictions": 0, "size": 0}
        for stats in workers.values():
            for key in cache:
                cache[key] += stats.get("cache", {}).get(key, 0)
        return {
            **local,
            "metrics": serve_totals(merged_registry),
            "cache": cache,
            "registry": merged_registry,
            "audit": get_audit_log().counts(),
            "workers": workers,
        }

    # -- wire adapters -----------------------------------------------------------

    async def handle_request_dict(
        self, data: Dict[str, Any]
    ) -> Dict[str, Any]:
        """In-process entry point (no sockets): dict in, dict out."""
        line = json.dumps(data, separators=(",", ":"))
        response = await self.handle_line(line)
        return json.loads(response)

    async def handle_line(self, line: str) -> str:
        """One request line -> one response line (never raises)."""
        try:
            request = decode_request(line)
        except ProtocolError as err:
            return encode_response(
                Response(
                    id="", ok=False, error=error_from_exception(err)
                )
            )
        if self._draining:
            err = OverloadedError(reason="draining", retry_after_s=1.0)
            return encode_response(Response.failure(request.id, err))
        response = await self.handle_request(request)
        return encode_response(response)
