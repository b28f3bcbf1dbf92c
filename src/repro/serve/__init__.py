"""repro.serve -- planning-as-a-service for the DAE+DVFS toolchain.

Turns the batch planner into a long-lived asyncio service: a versioned
JSON-lines protocol (:mod:`.protocol`), a bounded LRU plan cache
(:mod:`.cache`), micro-batching that coalesces concurrent plan
requests into one shared-explorer run (:mod:`.batcher`), admission
control that sheds load with a structured response instead of queueing
unboundedly (:mod:`.admission`), an asyncio TCP server and clients
(:mod:`.server`, :mod:`.client`), the ``stats`` metrics block read
out of each server's own registry (:mod:`.metrics`), the synchronous
planning backend (:mod:`.service`) and a seeded load generator --
closed-loop, burst, and multi-client open-loop with latency-SLO gates
(:mod:`.loadgen`).

Planning is single-process CPU work, so the tier is one process: one
:class:`PlanServer` with its LRU answers every request.

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
from .server import PlanServer, ServeConfig
from .service import PlanService

__all__ = [
    "AdmissionController",
    "ArrivalClock",
    "ErrorPayload",
    "InProcessClient",
    "LoadGenConfig",
    "PROTOCOL_VERSION",
    "PlanBatcher",
    "PlanCache",
    "PlanServer",
    "PlanService",
    "Request",
    "Response",
    "ServeClient",
    "ServeConfig",
    "TokenBucket",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "error_from_exception",
    "plan_digest",
    "run_loadgen",
]
