"""TCP client retry budget: bounded backoff, typed exhaustion."""

import asyncio
import socket

import pytest

from repro.errors import OverloadedError, ServeUnavailableError
from repro.serve.client import ServeClient
from repro.serve.server import PlanServer, ServeConfig


def run(coro):
    return asyncio.run(coro)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def make_server(**overrides) -> PlanServer:
    overrides.setdefault("batch_window_s", 0.001)
    return PlanServer(ServeConfig(**overrides))


class TestRetryBudget:
    def test_default_is_fail_fast(self):
        """retries=0: one attempt, a typed unavailable error, no
        sleeping."""

        async def main():
            client = ServeClient("127.0.0.1", free_port())
            with pytest.raises(ServeUnavailableError) as info:
                await client.request("plan", model="tiny")
            await client.close()
            return info.value

        err = run(main())
        assert err.attempts == 1
        assert err.last_error

    def test_budget_exhaustion_counts_attempts(self):
        """retries=N makes N+1 attempts before the typed error."""

        async def main():
            client = ServeClient(
                "127.0.0.1", free_port(), retries=2, backoff_s=0.01
            )
            with pytest.raises(ServeUnavailableError) as info:
                await client.request("plan", model="tiny")
            await client.close()
            return info.value

        err = run(main())
        assert err.attempts == 3
        assert "refused" in err.last_error.lower() or err.last_error

    def test_retry_survives_a_server_restart(self):
        """A connection lost mid-session reconnects and re-sends; the
        answer from the replacement server is byte-identical."""

        async def main():
            port = free_port()
            server = make_server(port=port)
            await server.start()
            client = await ServeClient(
                "127.0.0.1", port, retries=3, backoff_s=0.01
            ).connect()
            first = await client.request(
                "plan", model="tiny", qos_percent=30.0
            )
            await server.stop()
            replacement = make_server(port=port)
            await replacement.start()
            try:
                second = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
            finally:
                await client.close()
                await replacement.stop()
            return first, second

        first, second = run(main())
        assert second["digest"] == first["digest"]

    def test_overload_shed_is_retried_after_the_hint(self):
        """A queue_full shed backs off by the server's retry_after_s
        hint and succeeds once the slot frees."""

        async def main():
            server = make_server(max_queue_depth=1)
            await server.start()
            server.admission.admit()  # fill the only slot
            client = await ServeClient(
                "127.0.0.1", server.port, retries=5, backoff_s=0.02
            ).connect()

            async def release():
                await asyncio.sleep(0.1)
                server.admission.release()

            releaser = asyncio.ensure_future(release())
            try:
                result = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
            finally:
                await releaser
                await client.close()
                await server.stop()
            return result

        assert run(main())["digest"]

    def test_overload_without_budget_stays_typed(self):
        """retries=0 surfaces the shed itself -- callers doing their
        own failover need the reason and the hint, not a wrapper."""

        async def main():
            server = make_server(max_queue_depth=1)
            await server.start()
            server.admission.admit()
            client = await ServeClient(
                "127.0.0.1", server.port
            ).connect()
            with pytest.raises(OverloadedError) as info:
                await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
            server.admission.release()
            await client.close()
            await server.stop()
            return info.value

        err = run(main())
        assert err.reason == "queue_full"
        assert err.retry_after_s >= 0.0
