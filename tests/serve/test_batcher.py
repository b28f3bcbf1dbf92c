"""Micro-batcher: coalescing, deadlines, error fan-out."""

import asyncio
import threading

import pytest

from repro.errors import DeadlineExceededError, ReproError, SolverError
from repro.obs.registry import MetricsRegistry
from repro.serve.batcher import PlanBatcher


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_same_key_runs_once(self):
        calls = []
        lock = threading.Lock()

        def work():
            with lock:
                calls.append(1)
            return "plan"

        async def main():
            registry = MetricsRegistry()
            batcher = PlanBatcher(registry=registry, window_s=0.01)
            results = await asyncio.gather(
                *(batcher.submit(("k",), work) for _ in range(8))
            )
            batcher.shutdown()
            return results, registry

        results, registry = run(main())
        assert results == ["plan"] * 8
        assert len(calls) == 1
        assert registry.counter_value("serve.batches") == 1
        assert registry.counter_value("serve.batched_requests") == 8

    def test_distinct_keys_run_separately(self):
        seen = []
        lock = threading.Lock()

        def work(tag):
            with lock:
                seen.append(tag)
            return tag

        async def main():
            batcher = PlanBatcher(window_s=0.005)
            results = await asyncio.gather(
                batcher.submit(("a",), lambda: work("a")),
                batcher.submit(("b",), lambda: work("b")),
            )
            batcher.shutdown()
            return results

        assert sorted(run(main())) == ["a", "b"]
        assert sorted(seen) == ["a", "b"]

    def test_max_batch_dispatches_early(self):
        async def main():
            batcher = PlanBatcher(window_s=10.0, max_batch=2)
            results = await asyncio.gather(
                batcher.submit(("k",), lambda: 42),
                batcher.submit(("k",), lambda: 42),
            )
            batcher.shutdown()
            return results

        # A 10 s window would time the test out; max_batch must cut it.
        assert asyncio.run(asyncio.wait_for(main(), timeout=5.0)) == [42, 42]

    def test_sequential_requests_get_fresh_batches(self):
        calls = []

        async def main():
            batcher = PlanBatcher(window_s=0.0)
            first = await batcher.submit(("k",), lambda: calls.append(1))
            second = await batcher.submit(("k",), lambda: calls.append(1))
            batcher.shutdown()
            return first, second

        run(main())
        assert len(calls) == 2


class TestCloseAtDispatch:
    def test_late_arrival_cannot_join_dispatched_batch(self):
        """Regression: a batch closes the moment it dispatches.

        A request arriving while a ``max_batch``-bounded batch is
        already running used to join it silently -- growing a
        "bounded" batch past its bound after its size had been read
        into the metrics.  It must open a fresh batch instead.
        """
        release = threading.Event()
        calls = []
        lock = threading.Lock()

        def work():
            with lock:
                calls.append(1)
                execution = len(calls)
            release.wait(timeout=5.0)
            return execution

        async def main():
            registry = MetricsRegistry()
            batcher = PlanBatcher(
                registry=registry, window_s=0.005, max_batch=2
            )
            first = asyncio.ensure_future(batcher.submit(("k",), work))
            second = asyncio.ensure_future(batcher.submit(("k",), work))
            # Wait until the pair has dispatched and is running.
            while not calls:
                await asyncio.sleep(0.001)
            third = asyncio.ensure_future(batcher.submit(("k",), work))
            await asyncio.sleep(0.02)
            release.set()
            results = await asyncio.gather(first, second, third)
            batcher.shutdown()
            return results, registry

        results, registry = run(main())
        # The pair shared execution #1; the late arrival got its own.
        assert results[0] == results[1] == 1
        assert results[2] == 2
        assert len(calls) == 2
        # Accounting is exact: two batches, every waiter counted.
        assert registry.counter_value("serve.batches") == 2
        assert registry.counter_value("serve.batched_requests") == 3

    def test_max_batch_size_is_recorded_exactly(self):
        async def main():
            registry = MetricsRegistry()
            batcher = PlanBatcher(
                registry=registry, window_s=10.0, max_batch=3
            )
            results = await asyncio.gather(
                *(batcher.submit(("k",), lambda: "p") for _ in range(3))
            )
            batcher.shutdown()
            return results, registry

        results, registry = run(main())
        assert results == ["p"] * 3
        assert registry.counter_value("serve.batches") == 1
        assert registry.counter_value("serve.batched_requests") == 3


class TestDeadlines:
    def test_deadline_exceeded_is_typed(self):
        release = threading.Event()

        def slow():
            release.wait(timeout=5.0)
            return "late"

        async def main():
            batcher = PlanBatcher(window_s=0.0)
            try:
                with pytest.raises(DeadlineExceededError):
                    await batcher.submit(("k",), slow, deadline_s=0.05)
            finally:
                release.set()
            batcher.shutdown()

        run(main())

    def test_one_timeout_does_not_cancel_other_waiters(self):
        release = threading.Event()

        def slow():
            release.wait(timeout=5.0)
            return "answer"

        async def main():
            batcher = PlanBatcher(window_s=0.0)
            patient = asyncio.ensure_future(
                batcher.submit(("k",), slow)
            )
            with pytest.raises(DeadlineExceededError):
                await batcher.submit(("k",), slow, deadline_s=0.05)
            release.set()
            result = await patient
            batcher.shutdown()
            return result

        assert run(main()) == "answer"


class TestErrors:
    def test_error_fans_out_to_every_waiter(self):
        def boom():
            raise SolverError("no solution")

        async def main():
            batcher = PlanBatcher(window_s=0.01)
            results = await asyncio.gather(
                *(batcher.submit(("k",), boom) for _ in range(4)),
                return_exceptions=True,
            )
            batcher.shutdown()
            return results

        results = run(main())
        assert len(results) == 4
        assert all(isinstance(r, SolverError) for r in results)

    def test_disabled_mode_still_works(self):
        calls = []
        lock = threading.Lock()

        def work():
            with lock:
                calls.append(1)
            return "x"

        async def main():
            batcher = PlanBatcher(enabled=False)
            results = await asyncio.gather(
                *(batcher.submit(("k",), work) for _ in range(4))
            )
            batcher.shutdown()
            return results

        assert run(main()) == ["x"] * 4
        assert len(calls) == 4  # no coalescing when disabled

    def test_config_validation(self):
        with pytest.raises(ReproError):
            PlanBatcher(window_s=-1.0)
        with pytest.raises(ReproError):
            PlanBatcher(max_batch=0)
        with pytest.raises(ReproError):
            PlanBatcher(max_workers=0)
