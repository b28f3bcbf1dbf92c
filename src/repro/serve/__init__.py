"""repro.serve -- planning-as-a-service for the DAE+DVFS toolchain.

Turns the batch planner into a long-lived asyncio service: a versioned
JSON-lines protocol (:mod:`.protocol`), a bounded LRU plan cache
(:mod:`.cache`), micro-batching that coalesces concurrent plan
requests into one shared-explorer run (:mod:`.batcher`), admission
control that sheds load with a structured response instead of queueing
unboundedly (:mod:`.admission`), an asyncio TCP server and clients
(:mod:`.server`, :mod:`.client`), per-endpoint latency metrics
(:mod:`.metrics`), the synchronous planning backend (:mod:`.service`)
and a seeded load generator -- closed-loop, burst, and multi-client
open-loop with latency-SLO gates (:mod:`.loadgen`).

The tier also scales *out*: :mod:`.router` fronts N ``spawn``-ed
worker processes (:mod:`.worker`, each a full :class:`PlanServer`)
with a consistent-hash ring over the (model, QoS) coalescing identity,
and the workers exchange plans byte-identically through the
digest-addressed shared cache tier (:mod:`.shared_cache`).

The paper's plans are pure functions of (model, board, QoS), which is
exactly what the cache and the request coalescing exploit: N
concurrent requests for one model cost ~1 design-space exploration,
and a cached plan payload is byte-identical (sha256) to a freshly
computed one.
"""

from .admission import AdmissionController, ArrivalClock, TokenBucket
from .batcher import PlanBatcher
from .cache import PlanCache
from .client import InProcessClient, ServeClient
from .loadgen import LoadGenConfig, run_loadgen
from .metrics import ServeMetrics
from .protocol import (
    PROTOCOL_VERSION,
    ErrorPayload,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_from_exception,
    plan_digest,
)
from .router import HashRing, RouterConfig, ShardRouter, shard_key
from .server import PlanServer, ServeConfig
from .service import PlanService
from .shared_cache import (
    LocalSharedCache,
    ManagedSharedCache,
    managed_shared_cache,
)
from .worker import worker_main

__all__ = [
    "AdmissionController",
    "ArrivalClock",
    "ErrorPayload",
    "HashRing",
    "InProcessClient",
    "LoadGenConfig",
    "LocalSharedCache",
    "ManagedSharedCache",
    "PROTOCOL_VERSION",
    "PlanBatcher",
    "PlanCache",
    "PlanServer",
    "PlanService",
    "Request",
    "Response",
    "RouterConfig",
    "ServeClient",
    "ServeConfig",
    "ServeMetrics",
    "ShardRouter",
    "TokenBucket",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "error_from_exception",
    "managed_shared_cache",
    "plan_digest",
    "run_loadgen",
    "shard_key",
    "worker_main",
]
