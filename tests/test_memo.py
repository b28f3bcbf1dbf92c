"""Single-flight memo: one compute per key, retry on failure, exact counts."""

import threading
import time

import pytest

from repro.memo import Memo
from repro.obs.registry import MetricsRegistry, set_registry

N_THREADS = 8


def race(memo, key, compute, n=N_THREADS):
    """Release ``n`` threads together onto ``memo.get(key, compute)``."""
    barrier = threading.Barrier(n)
    results = [None] * n
    errors = []

    def worker(i):
        barrier.wait()
        try:
            results[i] = memo.get(key, compute)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors


def slow_builder(calls):
    def compute():
        calls.append(threading.get_ident())
        time.sleep(0.02)
        return object()

    return compute


class TestSingleFlight:
    def test_concurrent_misses_compute_once(self):
        memo = Memo()
        calls = []
        results, errors = race(memo, "k", slow_builder(calls))
        assert not errors
        assert len(calls) == 1
        assert all(r is results[0] for r in results)
        assert memo.counts["miss"] == 1
        assert memo.counts["hit"] + memo.counts["wait"] == N_THREADS - 1

    def test_failed_compute_is_not_cached_and_waiters_retry(self):
        memo = Memo()
        calls = []
        value = object()

        def compute():
            calls.append(threading.get_ident())
            time.sleep(0.02)
            if len(calls) == 1:
                raise ValueError("first build fails")
            return value

        results, errors = race(memo, "k", compute)
        # Only the first computer sees its own failure; one waiter
        # recomputes and every other caller gets that one value.
        assert [type(e) for e in errors] == [ValueError]
        assert len(calls) == 2
        assert [r for r in results if r is not None] == [value] * (
            N_THREADS - 1
        )
        assert memo.counts["miss"] == 2
        assert memo.get("k", compute) is value

    def test_raise_leaves_key_absent(self):
        memo = Memo()
        with pytest.raises(KeyError):
            memo.get("k", lambda: {}["missing"])
        assert len(memo) == 0
        assert memo.get("k", lambda: 7) == 7

    def test_key_recomputed_after_clear(self):
        memo = Memo()
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        assert memo.get("k", compute) == 1
        assert memo.get("k", compute) == 1
        memo.clear()
        assert len(memo) == 0
        assert memo.get("k", compute) == 2
        assert len(calls) == 2

    def test_clear_during_compute_drops_the_stale_result(self):
        memo = Memo()
        started, release = threading.Event(), threading.Event()

        def stale():
            started.set()
            release.wait()
            return "stale"

        thread = threading.Thread(target=memo.get, args=("k", stale))
        thread.start()
        started.wait()
        memo.clear()
        release.set()
        thread.join()
        assert memo.get("k", lambda: "fresh") == "fresh"

    def test_recursive_compute_raises_instead_of_deadlocking(self):
        memo = Memo()
        with pytest.raises(RuntimeError, match="recursively"):
            memo.get("k", lambda: memo.get("k", lambda: 1))
        assert memo.get("k", lambda: 2) == 2


class TestCounts:
    def test_counts_sum_to_calls(self):
        memo = Memo()
        calls = []
        for key in ("a", "b"):
            race(memo, key, slow_builder(calls))
        for _ in range(3):
            memo.get("a", slow_builder(calls))
        assert len(calls) == 2
        assert memo.counts["miss"] == 2
        assert sum(memo.counts.values()) == 2 * N_THREADS + 3

    def test_put_seeds_and_keeps_first_value(self):
        memo = Memo()
        memo.put("k", 1)
        memo.put("k", 2)
        assert memo.get("k", lambda: 3) == 1
        assert memo.counts == {"hit": 1, "miss": 0, "wait": 0}

    def test_put_leaves_an_in_flight_key_to_its_computer(self):
        memo = Memo()
        started, release = threading.Event(), threading.Event()

        def compute():
            started.set()
            release.wait()
            return "computed"

        thread = threading.Thread(target=memo.get, args=("k", compute))
        thread.start()
        started.wait()
        assert memo.peek("k") is None
        assert len(memo) == 0
        memo.put("k", "seeded")
        release.set()
        thread.join()
        assert memo.peek("k") == "computed"

    def test_peek_never_computes_or_counts(self):
        memo = Memo()
        assert memo.peek("k") is None
        memo.put("k", 5)
        assert memo.peek("k") == 5
        assert memo.counts == {"hit": 0, "miss": 0, "wait": 0}

    def test_registry_family_counts_each_event_once(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            memo = Memo("pipeline.cache", cache="cloud")
            race(memo, "k", slow_builder([]))
        finally:
            set_registry(previous)

        def cell(event):
            return registry.counter_value(
                "pipeline.cache", cache="cloud", event=event
            )

        assert {e: cell(e) for e in memo.counts} == memo.counts
        assert cell("miss") == 1
        assert cell("hit") + cell("miss") + cell("wait") == N_THREADS
