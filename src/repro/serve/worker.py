"""Shard worker: one :class:`PlanServer` in a child process.

:func:`worker_main` is the ``spawn`` entry point the
:class:`~repro.serve.router.ShardRouter` launches one process per
shard with.  Each worker owns the full single-process serving stack --
warm pipeline, local LRU, micro-batcher, deterministic admission --
binds a loopback TCP port, reports it back through the control pipe,
and then serves until the router sends ``stop`` (or the pipe dies with
the router, so orphaned workers exit instead of leaking).

The worker is deliberately *just* a :class:`PlanServer`: every
endpoint, metric and determinism property of the single-process tier
holds per shard, and the only additions are the shard identity
(``worker_id``, labeling its metrics and stats) and the shared
cross-worker plan-cache tier handed in by the router.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Optional

from .server import PlanServer, ServeConfig


async def _serve(
    worker_id: int,
    conn,
    config: ServeConfig,
    shared_cache: Optional[Any],
) -> None:
    server = PlanServer(config, shared_cache=shared_cache)
    await server.start()
    conn.send(
        {"event": "ready", "port": server.port, "pid": os.getpid()}
    )
    loop = asyncio.get_running_loop()

    def wait_for_stop() -> None:
        # Blocks a helper thread, not the event loop.  EOF means the
        # router died; treat it exactly like an orderly stop.
        try:
            while True:
                message = conn.recv()
                if (
                    isinstance(message, dict)
                    and message.get("event") == "stop"
                ):
                    return
        except (EOFError, OSError):
            return

    try:
        await loop.run_in_executor(None, wait_for_stop)
    finally:
        await server.stop()
        try:
            conn.send({"event": "stopped", "pid": os.getpid()})
        except (BrokenPipeError, OSError):
            pass


def worker_main(
    worker_id: int,
    conn,
    config: ServeConfig,
    shared_cache: Optional[Any] = None,
) -> None:
    """Child-process entry point (must stay importable for ``spawn``).

    Args:
        worker_id: shard identity; stamped into ``config`` so the
            worker's metrics and stats are labeled with it.
        conn: the router's end of a ``multiprocessing.Pipe``; the
            worker sends ``{"event": "ready", "port": ...}`` once
            listening and exits when it reads ``{"event": "stop"}``
            (or the pipe closes).
        config: the per-worker :class:`ServeConfig`; ``port`` should
            be 0 so each worker binds a free loopback port.
        shared_cache: the router's cross-worker plan-cache tier
            (a picklable manager-backed
            :class:`~repro.serve.shared_cache.SharedCache` handle), or
            None to run isolated.
    """
    import dataclasses

    config = dataclasses.replace(config, worker_id=worker_id)
    try:
        asyncio.run(_serve(worker_id, conn, config, shared_cache))
    except KeyboardInterrupt:
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
