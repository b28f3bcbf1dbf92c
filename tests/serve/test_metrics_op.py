"""The ``metrics`` protocol op: the registry snapshot, its digest and
the optional Prometheus exposition."""

import asyncio

import pytest

from repro.errors import ProtocolError
from repro.obs.prom import lint_exposition
from repro.obs.registry import snapshot_digest
from repro.serve.client import InProcessClient
from repro.serve.server import PlanServer, ServeConfig


def run(coro):
    return asyncio.run(coro)


class TestServerMetricsOp:
    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        """The in-process server publishes into the process-wide
        registry; isolate it from residue left by earlier tests."""
        from repro.obs.registry import MetricsRegistry, set_registry

        original = set_registry(MetricsRegistry())
        yield
        set_registry(original)

    def test_payload_has_registry_and_matching_digest(self):
        async def scenario():
            server = PlanServer(ServeConfig(batch_window_s=0.001))
            client = InProcessClient(server, client_id="m")
            try:
                await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                return await client.request("metrics")
            finally:
                await server.stop()

        payload = run(scenario())
        registry = payload["registry"]
        assert registry["counters"]["serve.requests"]["op=plan"] == 1
        assert payload["digest"] == snapshot_digest(registry)
        assert "exposition" not in payload  # json is the default

    def test_prom_format_adds_lint_clean_exposition(self):
        async def scenario():
            server = PlanServer(ServeConfig(batch_window_s=0.001))
            client = InProcessClient(server, client_id="m")
            try:
                await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                return await client.request(
                    "metrics", format="prom"
                )
            finally:
                await server.stop()

        payload = run(scenario())
        assert payload["exposition"].startswith("# HELP ")
        assert lint_exposition(payload["exposition"]) == []

    def test_bad_format_raises_protocol_error(self):
        async def scenario():
            server = PlanServer(ServeConfig(batch_window_s=0.001))
            client = InProcessClient(server, client_id="m")
            try:
                await client.request("metrics", format="xml")
            finally:
                await server.stop()

        with pytest.raises(ProtocolError):
            run(scenario())
