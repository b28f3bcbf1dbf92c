"""Seeded load generator for the serve layer: closed-loop, burst, open-loop.

Drives a :class:`~repro.serve.server.PlanServer` (in-process by
default, or any TCP address) with a *deterministic* request schedule:
the full request list -- which model and which QoS each request asks
for -- is drawn up front from one seeded RNG, so two runs with the
same seed issue byte-identical request streams whatever the scheduler
does.

Three shapes of load:

* **closed loop** (default): ``concurrency`` workers each keep exactly
  one request outstanding, the classic saturation harness.  With
  concurrency below the admission depth this sheds nothing.
* **burst** (``burst=True``): every request is submitted in one event
  loop iteration before any can complete.  Admission decisions then
  depend only on submission order, so shed counts reproduce exactly
  run over run (pinned by ``tests/serve/test_loadgen.py``
  ``TestBurstOverload``).
* **open loop** (``open_loop=True``): requests are dispatched on a
  fixed arrival timetable (``arrival_rate_rps``) regardless of how
  fast responses come back -- the production-shaped harness where a
  slow server builds queue instead of slowing the clients down.
  ``clients`` independent client identities round-robin the arrivals.

Latency SLO gates ride on the summary: when ``slo_p95_ms`` /
``slo_p99_ms`` are set, the summary's ``slo`` block reports the
attained percentiles against them and ``slo_met`` gates the run.

The summary optionally cross-checks cache consistency: for every
distinct (model, QoS) exercised, the served plan payload must digest
(sha256) byte-identically to one computed on a cold pipeline.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import OverloadedError, ReproError
from ..obs.registry import LatencyHistogram
from .client import InProcessClient, ServeClient
from .server import PlanServer, ServeConfig


@dataclass
class LoadGenConfig:
    """One load-generation scenario.

    Attributes:
        model: wire name of the model requests plan (single-model
            traffic; see ``models`` for mixed).
        models: when non-empty, each request draws its model from this
            tuple (seeded) -- the mixed multi-model traffic shape.
        qos_percents: QoS slack values the seeded schedule draws from.
        requests: total requests to issue.
        concurrency: closed-loop worker count (ignored for bursts and
            open loop).
        clients: independent client identities sharing the load
            (distinct request-id prefixes; round-robin assignment).
        seed: request-schedule seed.
        burst: submit everything at once instead of closed-loop.
        open_loop: dispatch on the ``arrival_rate_rps`` timetable
            instead of closed-loop.
        arrival_rate_rps: open-loop arrival rate.
        deadline_s: per-request deadline forwarded to the server.
        slo_p95_ms / slo_p99_ms: optional latency SLO gates evaluated
            into the summary's ``slo`` block.
        verify_digests: cross-check served payloads against a cold
            pipeline per distinct (model, QoS) (in-process targets
            only).
        serve: server configuration for the in-process target.
        target_host / target_port: drive an external TCP server
            instead of building one in-process.
    """

    model: str = "tiny"
    models: Tuple[str, ...] = ()
    #: Optional registry board every request plans for (absent ->
    #: the serve tier's default board; wire shape unchanged).
    board: Optional[str] = None
    qos_percents: Tuple[float, ...] = (10.0, 30.0, 50.0)
    requests: int = 64
    concurrency: int = 8
    clients: int = 1
    seed: int = 0
    burst: bool = False
    open_loop: bool = False
    arrival_rate_rps: float = 200.0
    deadline_s: Optional[float] = None
    slo_p95_ms: Optional[float] = None
    slo_p99_ms: Optional[float] = None
    verify_digests: bool = True
    serve: ServeConfig = field(default_factory=ServeConfig)
    target_host: Optional[str] = None
    target_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ReproError("requests must be >= 1")
        if self.concurrency < 1:
            raise ReproError("concurrency must be >= 1")
        if self.clients < 1:
            raise ReproError("clients must be >= 1")
        if not self.qos_percents:
            raise ReproError("qos_percents must be non-empty")
        if self.open_loop and self.arrival_rate_rps <= 0:
            raise ReproError("arrival_rate_rps must be positive")
        if self.burst and self.open_loop:
            raise ReproError("burst and open_loop are exclusive")

    @property
    def model_pool(self) -> Tuple[str, ...]:
        return self.models if self.models else (self.model,)


def request_schedule(config: LoadGenConfig) -> List[Tuple[str, float]]:
    """The deterministic per-request (model, QoS) assignment."""
    rng = random.Random(f"loadgen:{config.seed}")
    models = config.model_pool
    return [
        (
            models[rng.randrange(len(models))],
            config.qos_percents[
                rng.randrange(len(config.qos_percents))
            ],
        )
        for _ in range(config.requests)
    ]


async def _issue(
    client,
    config: LoadGenConfig,
    model: str,
    qos_percent: float,
    outcome: Dict,
) -> None:
    start = time.perf_counter()
    try:
        extra = {} if config.board is None else {"board": config.board}
        result = await client.request(
            "plan",
            deadline_s=config.deadline_s,
            model=model,
            qos_percent=qos_percent,
            **extra,
        )
    except OverloadedError:
        outcome["shed"] += 1
    except ReproError as err:
        outcome["errors"].append(type(err).__name__)
    else:
        outcome["ok"] += 1
        outcome["ok_by_model"][model] = (
            outcome["ok_by_model"].get(model, 0) + 1
        )
        if result.get("cached"):
            outcome["cached"] += 1
        outcome["histogram"].record(time.perf_counter() - start)


async def _drive(
    config: LoadGenConfig,
    clients: List[Any],
    schedule: List[Tuple[str, float]],
    outcome: Dict[str, Any],
) -> float:
    """Issue the whole schedule in the configured shape; returns wall s."""
    loop = asyncio.get_running_loop()
    start = time.perf_counter()
    if config.burst:
        await asyncio.gather(
            *(
                _issue(
                    clients[i % len(clients)], config, model, qos, outcome
                )
                for i, (model, qos) in enumerate(schedule)
            )
        )
    elif config.open_loop:
        t0 = loop.time()
        tasks: List[asyncio.Task] = []
        for i, (model, qos) in enumerate(schedule):
            delay = t0 + i / config.arrival_rate_rps - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                asyncio.ensure_future(
                    _issue(
                        clients[i % len(clients)],
                        config,
                        model,
                        qos,
                        outcome,
                    )
                )
            )
        await asyncio.gather(*tasks)
    else:
        index = {"next": 0}

        async def worker(worker_index: int) -> None:
            client = clients[worker_index % len(clients)]
            while True:
                i = index["next"]
                if i >= len(schedule):
                    return
                index["next"] = i + 1
                model, qos = schedule[i]
                await _issue(client, config, model, qos, outcome)

        await asyncio.gather(
            *(worker(w) for w in range(config.concurrency))
        )
    return time.perf_counter() - start


async def _verify_digests(
    config: LoadGenConfig,
    client: Any,
    schedule: List[Tuple[str, float]],
    executor,
) -> Tuple[int, int]:
    """Cold-recompute every distinct key; count (checks, mismatches).

    The served payload comes back through the real request path (a
    cache hit by now); the oracle is a fresh cold pipeline in this
    process.
    """
    from .service import PlanService

    loop = asyncio.get_running_loop()
    oracle = PlanService(
        cache_enabled=False,
        solver=config.serve.solver,
    )
    extra = {} if config.board is None else {"board": config.board}

    async def fetch(model: str, qos: float) -> Dict[str, Any]:
        # The burst may leave the admission bucket drained; retrying
        # is deterministic under a logical arrival clock (each check
        # advances it one tick) and self-limiting under a real one.
        for _ in range(10_000):
            try:
                result = await client.request(
                    "plan", model=model, qos_percent=qos, **extra
                )
            except OverloadedError as err:
                delay = min(max(err.retry_after_s or 0.0, 0.0), 0.01)
                if delay:
                    await asyncio.sleep(delay)
            else:
                return result
        raise ReproError(
            "digest verification was never admitted; admission "
            "config sheds even an idle sequential probe"
        )

    checks = 0
    mismatches = 0
    for model, qos in sorted(set(schedule)):
        qos_key = ("percent", float(qos))
        served = await fetch(model, qos)
        cold = await loop.run_in_executor(
            executor,
            lambda m=model, qk=qos_key: oracle.plan_cold(
                m, qk, board_name=config.board
            ),
        )
        checks += 1
        if served["digest"] != cold["digest"]:
            mismatches += 1
    return checks, mismatches


def _slo_block(
    config: LoadGenConfig, histogram: LatencyHistogram
) -> Tuple[Optional[Dict[str, Any]], bool]:
    targets = {
        "p95": config.slo_p95_ms,
        "p99": config.slo_p99_ms,
    }
    if all(value is None for value in targets.values()):
        return None, True
    block: Dict[str, Any] = {}
    met = True
    for name, target_ms in targets.items():
        if target_ms is None:
            continue
        attained_ms = (
            histogram.percentile_s(float(name[1:])) * 1e3
        )
        ok = attained_ms <= target_ms
        met = met and ok
        block[name] = {
            "target_ms": target_ms,
            "attained_ms": attained_ms,
            "met": ok,
        }
    return block, met


async def _run(config: LoadGenConfig) -> Dict[str, Any]:
    own_server: Optional[PlanServer] = None
    tcp_clients: List[ServeClient] = []
    clients: List[Any] = []
    if config.target_host is not None and config.target_port is not None:
        for k in range(config.clients):
            tcp_clients.append(
                await ServeClient(
                    config.target_host,
                    config.target_port,
                    client_id=f"loadgen-c{k}",
                ).connect()
            )
        clients = list(tcp_clients)
    else:
        own_server = PlanServer(config.serve)
        clients = [
            InProcessClient(own_server, client_id=f"loadgen-c{k}")
            for k in range(config.clients)
        ]

    schedule = request_schedule(config)
    outcome: Dict[str, Any] = {
        "ok": 0,
        "shed": 0,
        "cached": 0,
        "ok_by_model": {},
        "errors": [],
        "histogram": LatencyHistogram(),
    }
    wall_s = await _drive(config, clients, schedule, outcome)

    digest_checks = 0
    digest_mismatches = 0
    if (
        config.verify_digests
        and own_server is not None
        and not config.serve.stateless
    ):
        digest_checks, digest_mismatches = await _verify_digests(
            config, clients[0], schedule, own_server.batcher.executor
        )

    stats = own_server.stats() if own_server is not None else None
    if own_server is not None:
        await own_server.stop()
    for tcp_client in tcp_clients:
        await tcp_client.close()

    histogram: LatencyHistogram = outcome["histogram"]
    error_counts: Dict[str, int] = {}
    for kind in outcome["errors"]:
        error_counts[kind] = error_counts.get(kind, 0) + 1
    slo, slo_met = _slo_block(config, histogram)
    summary: Dict[str, Any] = {
        "model": config.model,
        "models": list(config.model_pool),
        "seed": config.seed,
        "requests": config.requests,
        "concurrency": config.concurrency,
        "clients": config.clients,
        "burst": config.burst,
        "open_loop": config.open_loop,
        "ok": outcome["ok"],
        "ok_by_model": dict(sorted(outcome["ok_by_model"].items())),
        "sheds": outcome["shed"],
        "cached_responses": outcome["cached"],
        "errors_by_kind": error_counts,
        "wall_s": wall_s,
        "throughput_rps": outcome["ok"] / wall_s if wall_s > 0 else 0.0,
        "latency": histogram.to_dict(),
        "digest_checks": digest_checks,
        "digest_mismatches": digest_mismatches,
        "cache_consistent": digest_mismatches == 0,
        "slo_met": slo_met,
    }
    if slo is not None:
        summary["slo"] = slo
    if stats is not None:
        summary["server"] = stats
    return summary


def run_loadgen(config: Optional[LoadGenConfig] = None) -> Dict[str, Any]:
    """Run one scenario to completion and return its summary dict."""
    return asyncio.run(_run(config or LoadGenConfig()))
