"""Micro-batching: coalesce concurrent identical plan requests.

Plans are pure functions of (model, board, space, QoS), so N
concurrent requests with the same coalescing key need exactly one
exploration: the first request opens a *batch* (a shared future plus a
short collection window), every later request for the same key joins
it, and when the window closes the work runs once on a thread-pool
executor and fans out to every waiter.  A batch *closes* the moment it
dispatches -- when the window elapses or ``max_batch`` waiters have
joined -- so requests arriving later open a fresh batch instead of
silently riding a bounded one past its bound.  (The answer they
compute is identical.)  Warm plan-cache hits do not come here: the
server answers them on the event loop.  A batched plan ends as a hit
only when another batch filled its entry after the server looked.

Per-request deadlines ride on top: each waiter guards the *shared*
future with its own ``asyncio.wait_for`` around an ``asyncio.shield``,
so one impatient client times out with a typed
:class:`~repro.errors.DeadlineExceededError` without cancelling the
exploration the other waiters (and the plan cache) still want.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import DeadlineExceededError, ReproError
from ..obs.registry import MetricsRegistry
from ..obs.tracing import span, wrap


@dataclass
class _Batch:
    """One in-flight coalesced computation."""

    future: "asyncio.Future[Any]"
    size: int = 0
    dispatched: bool = field(default=False)


class PlanBatcher:
    """Coalesces identical requests into one shared-explorer run.

    Args:
        registry: counts ``serve.batches`` and
            ``serve.batched_requests`` here (None: not counted).
        window_s: collection window between the first request of a
            batch and its dispatch; concurrent requests arriving
            within it (or while the work runs) share one execution.
        max_batch: dispatch immediately once this many requests have
            joined, instead of waiting the window out.
        max_workers: thread-pool width for the blocking planner calls.
        enabled: when False every request runs independently (the
            benchmark's no-batching mode); deadlines still apply.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        window_s: float = 0.002,
        max_batch: int = 32,
        max_workers: int = 4,
        enabled: bool = True,
        executor: Optional[ThreadPoolExecutor] = None,
    ):
        if window_s < 0:
            raise ReproError("window_s must be >= 0")
        if max_batch < 1:
            raise ReproError("max_batch must be >= 1")
        if max_workers < 1:
            raise ReproError("max_workers must be >= 1")
        self.registry = registry
        self.window_s = window_s
        self.max_batch = max_batch
        self.enabled = enabled
        self.executor = executor or ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._owns_executor = executor is None
        self._inflight: Dict[Tuple, _Batch] = {}

    async def submit(
        self,
        key: Tuple,
        fn: Callable[[], Any],
        deadline_s: Optional[float] = None,
    ) -> Any:
        """Run ``fn`` (coalesced by ``key``) and await its result.

        Raises:
            DeadlineExceededError: the shared result did not arrive
                within this caller's deadline (the work continues for
                the other waiters).
        """
        loop = asyncio.get_running_loop()
        if not self.enabled:
            # wrap() carries this request's span/correlation context
            # into the worker thread (no-op while tracing is off).
            future: "asyncio.Future[Any]" = loop.run_in_executor(
                self.executor, wrap(fn)
            )
            return await self._await_with_deadline(future, deadline_s)
        batch = self._inflight.get(key)
        if batch is None or batch.dispatched:
            # No open batch for the key: either none in flight, or the
            # in-flight one already dispatched (window elapsed or
            # max_batch reached) and is closed to new joiners --
            # joining it would let a "bounded" batch grow without
            # bound and undercount coalescing metrics.
            batch = _Batch(future=loop.create_future())
            # Every waiter may have timed out by completion time;
            # retrieve the exception eagerly so the event loop never
            # logs "exception was never retrieved" for a shed batch.
            batch.future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            self._inflight[key] = batch
            asyncio.ensure_future(self._run_batch(key, batch, fn))
        batch.size += 1
        if batch.size >= self.max_batch:
            batch.dispatched = True
        return await self._await_with_deadline(
            asyncio.shield(batch.future), deadline_s
        )

    async def _await_with_deadline(
        self, awaitable, deadline_s: Optional[float]
    ) -> Any:
        if deadline_s is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, timeout=deadline_s)
        except asyncio.TimeoutError:
            raise DeadlineExceededError(deadline_s) from None

    async def _run_batch(
        self, key: Tuple, batch: _Batch, fn: Callable[[], Any]
    ) -> None:
        loop = asyncio.get_running_loop()
        if self.window_s > 0:
            deadline = loop.time() + self.window_s
            while not batch.dispatched and loop.time() < deadline:
                await asyncio.sleep(
                    min(self.window_s / 4, deadline - loop.time())
                )
        batch.dispatched = True
        size = batch.size
        if self.registry is not None:
            self.registry.count("serve.batches")
            self.registry.count("serve.batched_requests", n=size)

        def call():
            with span("serve.batch", op=str(key[0]), size=size):
                return fn()

        try:
            # This task was created in the first submitter's context,
            # so wrap() hands that request's span/correlation context
            # to the worker thread (no-op while tracing is off).
            result = await loop.run_in_executor(self.executor, wrap(call))
        except BaseException as err:  # noqa: BLE001 - fan the error out
            if not batch.future.cancelled():
                batch.future.set_exception(err)
        else:
            if not batch.future.cancelled():
                batch.future.set_result(result)
        finally:
            # Later arrivals for the key start a fresh batch; anyone
            # who joined this one already holds the future.
            if self._inflight.get(key) is batch:
                del self._inflight[key]

    @property
    def inflight_keys(self) -> int:
        """Currently open batches (for tests and stats)."""
        return len(self._inflight)

    def shutdown(self) -> None:
        """Stop the worker pool (in-flight work completes)."""
        if self._owns_executor:
            self.executor.shutdown(wait=True)
