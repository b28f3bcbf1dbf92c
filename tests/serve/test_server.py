"""PlanServer endpoints, overload behavior, TCP transport, drain."""

import asyncio
import json

import pytest

from repro.errors import OverloadedError, QoSInfeasibleError
from repro.obs.registry import MetricsRegistry, set_registry
from repro.obs.tracing import Tracer, install, uninstall
from repro.serve import (
    InProcessClient,
    PlanServer,
    ServeClient,
    ServeConfig,
)
from repro.serve.shared_cache import SharedCache

def run(coro):
    return asyncio.run(coro)


def make_server(**overrides):
    defaults = dict(workers=2, batch_window_s=0.001)
    defaults.update(overrides)
    return PlanServer(ServeConfig(**defaults))


def record_submits(server):
    """Log the coalescing key of every request handed to the batcher."""
    keys = []
    submit = server.batcher.submit

    async def logged(key, fn, deadline_s=None):
        keys.append(key)
        return await submit(key, fn, deadline_s)

    server.batcher.submit = logged
    return keys


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


    @pytest.mark.parametrize(
        "qos",
        [
            '"qos_percent":NaN',
            '"qos_percent":"nan"',
            '"qos_percent":Infinity',
            '"qos_percent":"inf"',
            '"qos_percent":1e999',
            '"qos_percent":-10',
            '"qos_ms":NaN',
            '"qos_ms":"-inf"',
            '"qos_ms":-5',
        ],
    )
    def test_non_finite_or_negative_qos_is_bad_request(self, qos):
        async def main():
            server = make_server()
            line = await server.handle_line(
                '{"v":1,"id":"r1","op":"plan",'
                '"params":{"model":"tiny",' + qos + '}}'
            )
            await server.stop()
            return line

        line = run(main())
        response = json.loads(line)  # strict: no NaN on the wire
        assert response["error"]["kind"] == "bad_request", response
        assert "finite and >= 0" in response["error"]["message"]

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_no_cache_must_be_boolean(self, flag):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            await client.request("plan", model="tiny", qos_percent=30)
            response = await server.handle_request_dict(
                {
                    "v": 1,
                    "id": "r1",
                    "op": "plan",
                    "params": {
                        "model": "tiny", "qos_percent": 30, "no_cache": flag,
                    },
                }
            )
            await server.stop()
            return response

        response = run(main())
        assert response["error"]["kind"] == "bad_request", response
        assert "no_cache" in response["error"]["message"]


class TestWarmHitPath:
    """A local-LRU hit is answered on the event loop, not batched."""

    def test_warm_hit_never_enters_the_batcher(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            miss = await client.request("plan", model="tiny", qos_percent=30)
            batches = server.registry.counter_value("serve.batches")
            keys = record_submits(server)
            hit = await client.request("plan", model="tiny", qos_percent=30)
            after = server.registry.counter_value("serve.batches")
            in_batch_hit = server.service.plan("tiny", ("percent", 30.0))
            await server.stop()
            return miss, hit, in_batch_hit, keys, batches, after

        miss, hit, in_batch_hit, keys, batches, after = run(main())
        assert keys == []
        assert after == batches == 1
        assert not miss["cached"] and hit["cached"]
        assert sorted(hit) == sorted(miss)
        for name in miss:
            if name != "cached":
                assert hit[name] == miss[name], name
        assert hit == in_batch_hit

    def test_other_requests_still_batch(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            await client.request("plan", model="tiny", qos_percent=30)
            keys = record_submits(server)
            await client.request("plan", model="tiny", qos_percent=45)
            await client.request(
                "plan", model="tiny", qos_percent=30, no_cache=True
            )
            await client.request(
                "reprice", model="tiny", qos_percent=30, extra_power_w=0.01
            )
            await server.stop()
            return keys

        keys = run(main())
        assert [(k[0], k[2], k[-1]) for k in keys] == [
            ("plan", ("percent", 45.0), True),
            ("plan", ("percent", 30.0), False),
            ("reprice", ("percent", 30.0), None),
        ]

    def test_stateless_server_batches_every_request(self):
        async def main():
            server = make_server(stateless=True)
            client = InProcessClient(server)
            keys = record_submits(server)
            for _ in range(2):
                await client.request("plan", model="tiny", qos_percent=30)
            await server.stop()
            return keys

        assert [k[0] for k in run(main())] == ["plan-cold", "plan-cold"]

    def test_shared_tier_hit_goes_through_the_batcher(self):
        async def main():
            tier = SharedCache(capacity=16)
            first = PlanServer(
                ServeConfig(workers=2, batch_window_s=0.001), shared_cache=tier
            )
            second = PlanServer(
                ServeConfig(workers=2, batch_window_s=0.001), shared_cache=tier
            )
            planned = await InProcessClient(first).request(
                "plan", model="tiny", qos_percent=30
            )
            keys = record_submits(second)
            shared = await InProcessClient(second).request(
                "plan", model="tiny", qos_percent=30
            )
            await first.stop()
            await second.stop()
            return planned, shared, keys

        planned, shared, keys = run(main())
        assert [k[0] for k in keys] == ["plan"]
        assert shared["cached"]
        assert shared["digest"] == planned["digest"]

    def test_hit_sheds_on_full_queue(self):
        async def main():
            server = make_server(max_queue_depth=1)
            client = InProcessClient(server)
            await client.request("plan", model="tiny", qos_percent=30)
            keys = record_submits(server)
            server.admission.admit()  # fill the only slot
            try:
                with pytest.raises(OverloadedError) as info:
                    await client.request("plan", model="tiny", qos_percent=30)
            finally:
                server.admission.release()
            await server.stop()
            return info.value, keys

        err, keys = run(main())
        assert err.reason == "queue_full"
        assert keys == []

    def test_hit_sheds_on_exhausted_token_bucket(self):
        async def main():
            server = make_server(
                rate_per_s=1.0, burst=1.0, admission_tick_s=0.001
            )
            client = InProcessClient(server)
            await client.request("plan", model="tiny", qos_percent=30)
            keys = record_submits(server)
            with pytest.raises(OverloadedError) as info:
                await client.request("plan", model="tiny", qos_percent=30)
            stats = await client.request("stats")
            await server.stop()
            return info.value, keys, stats

        err, keys, stats = run(main())
        assert err.reason == "rate_limited"
        assert keys == []
        assert stats["metrics"]["sheds_by_reason"] == {"rate_limited": 1}
        assert stats["cache"]["hits"] == 0

    def test_traced_hit_span_tree(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            await client.request("plan", model="tiny", qos_percent=30)
            tracer = install(Tracer(deterministic=True))
            try:
                response = await server.handle_request_dict(
                    {
                        "v": 1,
                        "id": "hit-1",
                        "op": "plan",
                        "params": {"model": "tiny", "qos_percent": 30},
                    }
                )
            finally:
                uninstall()
            await server.stop()
            return response, tracer.spans()

        response, spans = run(main())
        assert response["result"]["cached"]
        assert [s.name for s in spans] == ["serve.request", "serve.plan"]
        request, plan = spans
        assert plan.parent_seq == request.seq
        assert plan.attrs == {"model": "tiny", "cached": True}
        assert {s.correlation for s in spans} == {"hit-1"}

    def test_cache_counts_match_the_batched_path(self):
        """Counts taken from the tree that batched every hit: a miss
        probed on the loop is not counted a second time."""

        async def main():
            server = make_server(batch_window_s=0.02)
            client = InProcessClient(server)
            burst = await asyncio.gather(
                *(
                    client.request("plan", model="tiny", qos_percent=30)
                    for _ in range(8)
                )
            )
            hits = [
                await client.request("plan", model="tiny", qos_percent=30)
                for _ in range(5)
            ]
            fresh = await client.request(
                "plan", model="tiny", qos_percent=30, no_cache=True
            )
            other = await client.request("plan", model="vww", qos_percent=30)
            stats = await client.request("stats")
            await server.stop()
            return burst, hits, fresh, other, stats

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            burst, hits, fresh, other, stats = run(main())
        finally:
            set_registry(previous)
        assert [r["cached"] for r in burst] == [False] * 8
        assert [r["cached"] for r in hits] == [True] * 5
        assert not fresh["cached"] and not other["cached"]
        cache = stats["cache"]
        assert (cache["hits"], cache["misses"], cache["size"]) == (5, 2, 2)
        assert registry.counter_value("serve.plan_cache", event="hit") == 5
        assert registry.counter_value("serve.plan_cache", event="miss") == 2

    def test_hits_and_misses_race_without_lost_counts(self):
        """Loop-side probes and pool-side lookups share the LRU: under a
        tiny switch interval and more planner threads than cores, the
        cache and registry counts still agree and every key serves one
        digest."""
        import sys

        async def main():
            server = make_server(workers=6)
            client = InProcessClient(server)
            await client.request("plan", model="tiny", qos_percent=30)
            qos = [30, 35, 40, 30, 45, 30, 50, 30] * 6
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(
                        client.request("plan", model="tiny", qos_percent=q)
                        for q in qos
                    )
                ),
                timeout=120,
            )
            stats = await client.request("stats")
            await server.stop()
            return qos, results, stats

        registry = MetricsRegistry()
        previous = set_registry(registry)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            qos, results, stats = run(main())
        finally:
            sys.setswitchinterval(interval)
            set_registry(previous)
        digests = {}
        for q, result in zip(qos, results):
            digests.setdefault(q, set()).add(result["digest"])
        assert all(len(d) == 1 for d in digests.values())
        cache = stats["cache"]
        assert cache["size"] == len(digests)
        assert cache["misses"] == len(digests)
        assert cache["hits"] == registry.counter_value(
            "serve.plan_cache", event="hit"
        )
        assert cache["misses"] == registry.counter_value(
            "serve.plan_cache", event="miss"
        )
        assert cache["hits"] >= sum(1 for q in qos if q == 30)


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


class TestTelemetryValidation:
    @staticmethod
    def _strict(line):
        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        return json.loads(line, parse_constant=reject)

    @pytest.mark.parametrize(
        "energies",
        [
            '"predicted_energy_j":1.0,"measured_energy_j":"nan"',
            '"predicted_energy_j":1.0,"measured_energy_j":NaN',
            '"predicted_energy_j":1.0,"measured_energy_j":"inf"',
            '"predicted_energy_j":1.0,"measured_energy_j":Infinity',
            '"predicted_energy_j":1.0,"measured_energy_j":1e999',
            '"predicted_energy_j":1.0,"measured_energy_j":-0.5',
            '"predicted_energy_j":"nan","measured_energy_j":1.0',
            '"predicted_energy_j":"-inf","measured_energy_j":1.0',
            '"predicted_energy_j":0,"measured_energy_j":1.0',
            '"predicted_energy_j":-1.0,"measured_energy_j":1.0',
        ],
    )
    def test_non_finite_or_negative_energy_is_bad_request(self, energies):
        async def main():
            server = make_server()
            rejected = await server.handle_line(
                '{"v":1,"id":"r1","op":"telemetry",'
                '"params":{"model":"tiny",' + energies + '}}'
            )
            accepted = await server.handle_line(
                '{"v":1,"id":"r2","op":"telemetry","params":{"model":'
                '"tiny","predicted_energy_j":1.0,"measured_energy_j":1.1}}'
            )
            stats = server.stats()["metrics"]["telemetry"]
            await server.stop()
            return rejected, accepted, stats

        rejected, accepted, stats = run(main())
        response = self._strict(rejected)
        assert response["error"]["kind"] == "bad_request", response
        assert "energy_j must be finite" in response["error"]["message"]
        # The rejected sample left the model's drift aggregate alone.
        result = self._strict(accepted)["result"]
        assert result["samples"] == 1
        assert result["mean_drift"] == pytest.approx(0.1)
        assert stats["tiny"]["samples"] == 1

    def test_zero_measured_energy_is_a_sample(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            result = await client.request(
                "telemetry",
                model="tiny",
                predicted_energy_j=2.0,
                measured_energy_j=0.0,
            )
            await server.stop()
            return result

        result = run(main())
        assert result["samples"] == 1
        assert result["mean_drift"] == pytest.approx(-1.0)


class TestRepriceValidation:
    @staticmethod
    def _reprice(drift):
        async def main():
            server = make_server()
            line = await server.handle_line(
                '{"v":1,"id":"r1","op":"reprice",'
                '"params":{"model":"tiny","qos_percent":30,' + drift + '}}'
            )
            await server.stop()
            return line

        return TestTelemetryValidation._strict(run(main()))

    @pytest.mark.parametrize(
        "drift,message",
        [
            ('"extra_power_w":"nan"', "extra_power_w must be finite"),
            ('"extra_power_w":NaN', "extra_power_w must be finite"),
            ('"extra_power_w":"inf"', "extra_power_w must be finite"),
            ('"extra_power_w":-Infinity', "extra_power_w must be finite"),
            ('"extra_power_w":1e999', "extra_power_w must be finite"),
            ('"max_hfo_mhz":"nan"', "max_hfo_mhz must be finite and > 0"),
            ('"max_hfo_mhz":Infinity', "max_hfo_mhz must be finite and > 0"),
            ('"max_hfo_mhz":0', "max_hfo_mhz must be finite and > 0"),
            ('"max_hfo_mhz":-5', "max_hfo_mhz must be finite and > 0"),
        ],
    )
    def test_non_finite_drift_is_bad_request(self, drift, message):
        response = self._reprice(drift)
        assert not response["ok"]
        assert response["error"]["kind"] == "bad_request", response
        assert message in response["error"]["message"]

    def test_negative_excess_stays_a_solver_error(self):
        response = self._reprice('"extra_power_w":-0.001')
        assert response["error"]["kind"] == "solver", response

    def test_finite_drift_is_answered(self):
        response = self._reprice(
            '"extra_power_w":0.002,"max_hfo_mhz":216'
        )
        assert response["ok"], response
        assert response["result"]["drift"] == {
            "extra_power_w": 0.002, "max_hfo_mhz": 216.0,
        }


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


class TestPerServerMetrics:
    """Each server's ``stats`` counts only its own events; the process
    registry's view is their sum."""

    def test_two_servers_keep_their_own_counts(self):
        async def main():
            a = make_server(max_queue_depth=1)
            b = make_server()
            ca, cb = InProcessClient(a), InProcessClient(b)
            await ca.request("plan", model="tiny", qos_percent=30)
            a.admission.admit()  # fill the only slot: the next one sheds
            with pytest.raises(OverloadedError):
                await ca.request("plan", model="tiny", qos_percent=40)
            a.admission.release()
            await cb.request("plan", model="tiny", qos_percent=30)
            await cb.request("plan", model="tiny", qos_percent=30)
            await cb.request(
                "telemetry",
                model="tiny",
                predicted_energy_j=1.0,
                measured_energy_j=1.1,
            )
            await b.handle_line("not json")
            stats = a.stats()["metrics"], b.stats()["metrics"]
            await a.stop()
            await b.stop()
            return stats

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            ma, mb = run(main())
        finally:
            set_registry(previous)
        assert ma["requests_by_op"] == {"plan": 1}
        assert ma["errors_by_kind"] == {"overloaded": 1}
        assert ma["sheds_by_reason"] == {"queue_full": 1}
        assert ma["batches"] == ma["batched_requests"] == 1
        assert mb["requests_by_op"] == {"plan": 2, "telemetry": 1}
        assert mb["errors_by_kind"] == {"bad_request": 1}
        assert mb["sheds_by_reason"] == {}
        assert mb["batches"] == mb["batched_requests"] == 1
        counters = registry.snapshot()["counters"]

        def summed(block, label):
            keys = set(ma[block]) | set(mb[block])
            return {
                f"{label}={key}": float(
                    ma[block].get(key, 0) + mb[block].get(key, 0)
                )
                for key in keys
            }

        assert counters["serve.requests"] == summed("requests_by_op", "op")
        assert counters["serve.errors"] == summed("errors_by_kind", "kind")
        assert counters["serve.sheds"] == {"reason=queue_full": 1.0}
        assert counters["serve.batches"] == {"": 2.0}
        assert counters["serve.batched_requests"] == {"": 2.0}
