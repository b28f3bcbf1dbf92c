"""Clients for the serve protocol: TCP and in-process.

:class:`ServeClient` speaks the JSON-lines protocol over TCP with
pipelining -- requests carry monotonically increasing ids and a
background reader task fans responses out to their waiters, so many
coroutines can share one connection.

:class:`InProcessClient` drives a :class:`~repro.serve.server.PlanServer`
directly (no sockets): the default transport for tests and the load
generator, where the event loop, the admission controller and the
batcher behave exactly as over TCP but without kernel buffering in
between.

Both expose the same ``request(op, ...) -> result dict`` surface and
raise the rehydrated typed exception on error responses, so call sites
cannot tell the transports apart.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, Optional

from ..errors import (
    OverloadedError,
    ProtocolError,
    ReproError,
    ServeUnavailableError,
)
from .protocol import (
    Request,
    Response,
    decode_response,
    encode_request,
    exception_from_error,
)
from .server import PlanServer


def _result_or_raise(response: Response) -> Dict[str, Any]:
    if response.ok:
        return response.result or {}
    error = response.error
    if error is None:
        raise ReproError("malformed failure response without error")
    raise exception_from_error(error)


class InProcessClient:
    """Drives a server's request path directly, without sockets."""

    def __init__(self, server: PlanServer, client_id: str = "local"):
        self.server = server
        self._ids = itertools.count(1)
        self.client_id = client_id

    async def request(
        self,
        op: str,
        deadline_s: Optional[float] = None,
        **params: Any,
    ) -> Dict[str, Any]:
        """Send one request; returns the result or raises typed."""
        request = Request(
            op=op,
            id=f"{self.client_id}-{next(self._ids)}",
            params=params,
            deadline_s=deadline_s,
        )
        response = await self.server.handle_request(request)
        return _result_or_raise(response)


class ServeClient:
    """JSON-lines TCP client with id-correlated pipelining.

    Args:
        host / port: the serve endpoint.
        client_id: request-id prefix.
        retries: bounded retry budget for :meth:`request`.  With the
            default 0 every failure surfaces immediately.  With N > 0 a
            lost connection is reopened and the request re-sent, and an
            :class:`~repro.errors.OverloadedError` shed is retried
            after the *server's* ``retry_after_s`` hint -- up to N
            retries with exponential backoff, after which the typed
            :class:`~repro.errors.ServeUnavailableError` (or the last
            shed) is raised instead of a silent generic failure.
        backoff_s / backoff_cap_s: exponential-backoff schedule; the
            actual wait is ``max(server retry_after_s, backoff)``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str = "tcp",
        retries: int = 0,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
    ):
        self.host = host
        self.port = port
        self.client_id = client_id
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._ids = itertools.count(1)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._waiters: Dict[str, "asyncio.Future[Response]"] = {}
        self._read_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()

    async def connect(self) -> "ServeClient":
        """Open the connection and start the response dispatcher."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._read_task = asyncio.ensure_future(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        assert self._reader is not None
        reason = "connection closed"
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = decode_response(line.decode("utf-8"))
                except ProtocolError:
                    continue  # garbage on the wire; ids below time out
                waiter = self._waiters.pop(response.id, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(response)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, OSError) as err:
            # Surface the *cause* instead of swallowing it: every
            # in-flight waiter fails typed, so callers (and the retry
            # loop below) can tell a dead peer from a bad request.
            reason = f"connection lost: {err}"
        finally:
            # One exception instance per waiter: a shared object would
            # accrete traceback frames from every consumer that raises
            # it, and futures abandoned mid-write would log them.
            for waiter in self._waiters.values():
                if not waiter.done():
                    waiter.set_exception(
                        ServeUnavailableError(
                            attempts=1, last_error=reason
                        )
                    )
            self._waiters.clear()

    async def call(self, request: Request) -> Response:
        """Send a pre-built request; return the decoded response.

        The raw surface under :meth:`request`: the response comes back
        *verbatim* (typed error payloads intact, not rehydrated), and
        the request keeps its original id, which the server adopts as
        the correlation ID of its span tree.  The id must be unique
        among this connection's in-flight requests.
        """
        if self._writer is None:
            raise ReproError("client is not connected")
        if self._read_task is None or self._read_task.done():
            # The dispatcher already exited (EOF or connection error
            # swept its waiters); a fresh waiter would never resolve.
            raise ServeUnavailableError(
                attempts=1, last_error="connection closed"
            )
        if request.id in self._waiters:
            raise ReproError(
                f"request id {request.id!r} is already in flight "
                "on this connection"
            )
        loop = asyncio.get_running_loop()
        waiter: "asyncio.Future[Response]" = loop.create_future()
        self._waiters[request.id] = waiter
        line = encode_request(request).encode("utf-8") + b"\n"
        try:
            async with self._write_lock:
                writer = self._writer
                if writer is None:
                    # close() won the race for the write lock: the
                    # connection was torn down between the entry
                    # check and this write.
                    raise ServeUnavailableError(
                        attempts=1, last_error="connection closed"
                    )
                writer.write(line)
                await writer.drain()
        except BaseException:
            # The write never made it out; retire the waiter so the
            # read loop's shutdown sweep doesn't fail an orphan (and
            # consume the sweep's exception if it already did).
            self._waiters.pop(request.id, None)
            if waiter.done():
                waiter.exception()
            else:
                waiter.cancel()
            raise
        return await waiter

    async def _reconnect(self) -> None:
        """Tear down a dead connection and open a fresh one."""
        await self.close()
        await self.connect()

    async def request(
        self,
        op: str,
        deadline_s: Optional[float] = None,
        **params: Any,
    ) -> Dict[str, Any]:
        """Send one request; returns the result or raises typed.

        Concurrent callers share the connection: responses are matched
        back by request id, whatever order the server answers in.
        With ``retries > 0``, connection failures reconnect-and-resend
        and overload sheds back off by the server's ``retry_after_s``
        hint, exponentially, until the budget is spent.
        """
        attempts = 0
        delay = self.backoff_s
        while True:
            attempts += 1
            request = Request(
                op=op,
                id=f"{self.client_id}-{next(self._ids)}",
                params=params,
                deadline_s=deadline_s,
            )
            try:
                if self._writer is None:
                    await self.connect()
                response = await self.call(request)
                return _result_or_raise(response)
            except OverloadedError as err:
                if attempts > self.retries:
                    raise
                wait = max(err.retry_after_s, delay)
            except (
                ServeUnavailableError,
                ConnectionError,
                OSError,
            ) as err:
                if attempts > self.retries:
                    if isinstance(err, ServeUnavailableError):
                        raise ServeUnavailableError(
                            attempts=attempts,
                            last_error=err.last_error or str(err),
                        ) from err
                    raise ServeUnavailableError(
                        attempts=attempts, last_error=str(err)
                    ) from err
                try:
                    await self._reconnect()
                except (ConnectionError, OSError):
                    pass  # endpoint still down; back off and re-try
                wait = delay
            delay = min(delay * 2.0, self.backoff_cap_s)
            await asyncio.sleep(wait)

    async def close(self) -> None:
        """Tear the connection down and stop the dispatcher."""
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except asyncio.CancelledError:
                pass
            self._read_task = None
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._reader = None
