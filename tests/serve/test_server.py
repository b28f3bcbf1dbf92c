"""PlanServer endpoints, overload behavior, TCP transport, drain."""

import asyncio

import pytest

from repro.errors import OverloadedError, QoSInfeasibleError
from repro.serve import (
    InProcessClient,
    PlanServer,
    ServeClient,
    ServeConfig,
)

def run(coro):
    return asyncio.run(coro)


def make_server(**overrides):
    defaults = dict(workers=2, batch_window_s=0.001)
    defaults.update(overrides)
    return PlanServer(ServeConfig(**defaults))


class TestPlanEndpoint:
    def test_plan_and_cache_hit_share_digest(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            first = await client.request(
                "plan", model="tiny", qos_percent=30
            )
            second = await client.request(
                "plan", model="tiny", qos_percent=30
            )
            stats = await client.request("stats")
            await server.stop()
            return first, second, stats

        first, second, stats = run(main())
        assert not first["cached"]
        assert second["cached"]
        assert first["digest"] == second["digest"]
        assert first["plan"]["layers"]
        assert stats["cache"]["hits"] == 1

    def test_no_cache_param_recomputes(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            first = await client.request(
                "plan", model="tiny", qos_percent=30
            )
            fresh = await client.request(
                "plan", model="tiny", qos_percent=30, no_cache=True
            )
            await server.stop()
            return first, fresh

        first, fresh = run(main())
        assert not fresh["cached"]
        assert fresh["digest"] == first["digest"]

    def test_concurrent_same_key_coalesce(self):
        async def main():
            server = make_server(batch_window_s=0.02)
            client = InProcessClient(server)
            results = await asyncio.gather(
                *(
                    client.request("plan", model="tiny", qos_percent=40)
                    for _ in range(8)
                )
            )
            stats = await client.request("stats")
            await server.stop()
            return results, stats

        results, stats = run(main())
        assert len({r["digest"] for r in results}) == 1
        metrics = stats["metrics"]
        assert metrics["batches"] >= 1
        assert metrics["coalesce_ratio"] > 1.0

    def test_same_key_burst_solves_once(self):
        """The serve speedup as a count: a burst of identical requests
        costs one exploration and one solve.  ``no_cache`` keeps the
        LRU out of it, so only coalescing can share the work."""
        calls = {"optimize": 0, "explore": 0}

        async def main():
            server = make_server(batch_window_s=0.02)
            pipeline = server.service.pipeline
            optimize = pipeline.optimize
            explore = pipeline.explorer.explore_model

            def counted_optimize(*args, **kwargs):
                calls["optimize"] += 1
                return optimize(*args, **kwargs)

            def counted_explore(*args, **kwargs):
                calls["explore"] += 1
                return explore(*args, **kwargs)

            pipeline.optimize = counted_optimize
            pipeline.explorer.explore_model = counted_explore
            client = InProcessClient(server)
            results = await asyncio.gather(
                *(
                    client.request(
                        "plan", model="tiny", qos_percent=40, no_cache=True
                    )
                    for _ in range(8)
                )
            )
            await server.stop()
            return results

        results = run(main())
        assert len({r["digest"] for r in results}) == 1
        assert calls == {"optimize": 1, "explore": 1}

    def test_stateless_digest_matches_warm(self):
        async def main():
            warm = make_server()
            cold = make_server(stateless=True)
            warm_result = await InProcessClient(warm).request(
                "plan", model="tiny", qos_percent=30
            )
            cold_result = await InProcessClient(cold).request(
                "plan", model="tiny", qos_percent=30
            )
            await warm.stop()
            await cold.stop()
            return warm_result, cold_result

        warm_result, cold_result = run(main())
        assert warm_result["digest"] == cold_result["digest"]


class TestErrorsAndValidation:
    def test_unknown_model_is_bad_request(self):
        async def main():
            server = make_server()
            response = await server.handle_request_dict(
                {
                    "v": 1,
                    "id": "r1",
                    "op": "plan",
                    "params": {"model": "resnet152", "qos_percent": 30},
                }
            )
            await server.stop()
            return response

        response = run(main())
        assert not response["ok"]
        assert response["error"]["kind"] == "bad_request"

    def test_infeasible_qos_is_typed(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            try:
                with pytest.raises(QoSInfeasibleError) as info:
                    await client.request(
                        "plan", model="tiny", qos_ms=0.001
                    )
                return info.value
            finally:
                await server.stop()

        exc = run(main())
        assert exc.min_latency_s > exc.qos_s

    def test_malformed_line_answers_bad_request(self):
        async def main():
            server = make_server()
            line = await server.handle_line("{not json")
            await server.stop()
            return line

        assert '"bad_request"' in run(main())

    def test_both_qos_forms_rejected(self):
        async def main():
            server = make_server()
            response = await server.handle_request_dict(
                {
                    "v": 1,
                    "id": "r1",
                    "op": "plan",
                    "params": {
                        "model": "tiny",
                        "qos_percent": 30,
                        "qos_ms": 5,
                    },
                }
            )
            await server.stop()
            return response

        assert run(main())["error"]["kind"] == "bad_request"


class TestOtherEndpoints:
    def test_reprice_telemetry_health(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            await client.request("plan", model="tiny", qos_percent=30)
            repriced = await client.request(
                "reprice",
                model="tiny",
                qos_percent=30,
                extra_power_w=0.01,
            )
            telemetry = await client.request(
                "telemetry",
                model="tiny",
                predicted_energy_j=1.0,
                measured_energy_j=1.05,
            )
            health = await client.request("health")
            await server.stop()
            return repriced, telemetry, health

        repriced, telemetry, health = run(main())
        assert repriced["drift"]["extra_power_w"] == pytest.approx(0.01)
        assert telemetry["samples"] == 1
        assert health["ok"]
        assert len(health["checks"]) == 3  # the quick selftest subset


class TestOverload:
    def test_burst_sheds_deterministically(self):
        async def burst():
            server = make_server(max_queue_depth=2)
            client = InProcessClient(server)
            results = await asyncio.gather(
                *(
                    client.request("plan", model="tiny", qos_percent=30)
                    for _ in range(8)
                ),
                return_exceptions=True,
            )
            stats = await client.request("stats")
            await server.stop()
            sheds = sum(
                1 for r in results if isinstance(r, OverloadedError)
            )
            return sheds, stats["metrics"]["sheds_by_reason"]

        sheds_a, reasons_a = run(burst())
        sheds_b, reasons_b = run(burst())
        assert sheds_a == sheds_b == 6
        assert reasons_a == reasons_b == {"queue_full": 6}

    def test_draining_server_sheds(self):
        async def main():
            server = make_server()
            server._draining = True
            response = await server.handle_request_dict(
                {
                    "v": 1,
                    "id": "r1",
                    "op": "plan",
                    "params": {"model": "tiny", "qos_percent": 30},
                }
            )
            server._draining = False
            await server.stop()
            return response

        response = run(main())
        assert not response["ok"]
        assert response["error"]["kind"] == "overloaded"
        assert response["error"]["detail"]["reason"] == "draining"

    def test_stats_bypasses_admission(self):
        async def main():
            server = make_server(max_queue_depth=1)
            server.admission.admit()  # fill the only slot
            client = InProcessClient(server)
            stats = await client.request("stats")
            server.admission.release()
            await server.stop()
            return stats

        assert run(main())["admission"]["depth"] == 1


class TestTCP:
    def test_tcp_round_trip_and_drain(self):
        async def main():
            server = make_server()
            await server.start()
            client = await ServeClient("127.0.0.1", server.port).connect()
            result = await client.request(
                "plan", model="tiny", qos_percent=30
            )
            health = await client.request("health")
            await client.close()
            await server.stop()
            return result, health

        result, health = run(main())
        assert result["digest"]
        assert health["ok"]

    def test_tcp_concurrent_clients(self):
        async def main():
            server = make_server(batch_window_s=0.02)
            await server.start()
            clients = [
                await ServeClient(
                    "127.0.0.1", server.port, client_id=f"c{i}"
                ).connect()
                for i in range(3)
            ]
            results = await asyncio.gather(
                *(
                    c.request("plan", model="tiny", qos_percent=50)
                    for c in clients
                )
            )
            for c in clients:
                await c.close()
            await server.stop()
            return results

        results = run(main())
        assert len({r["digest"] for r in results}) == 1

    def test_stop_without_start_is_clean(self):
        async def main():
            server = make_server()
            await server.stop()

        run(main())
