"""Self-test of the measurement harness on work of known duration.

Checks wall timing, self-time subtraction across nested spans,
per-step coroutine timing, attribution across threads, the patcher,
and exact percentile selection on a known sample.  Run it directly::

    python3 perfbench/selftest.py

``run.py --trace 1`` runs it first and marks the run incorrect if it
fails: a timer that is wrong (a reset cycle counter, a span counted
twice) would otherwise go unnoticed.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import threading
import time
import types
from typing import List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

#: Allowed error of a measured synthetic duration (sleep overshoot and
#: scheduler noise on a loaded host), in seconds.
TOLERANCE_S = 0.008


def _spin(seconds: float) -> None:
    """Busy-wait (holds the thread, unlike sleep)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _near(got: float, want: float, what: str, failures: List[str]) -> None:
    if abs(got - want) > TOLERANCE_S:
        failures.append(f"{what}: measured {got * 1e3:.2f} ms, expected {want * 1e3:.2f} ms")


def _check_percentiles(failures: List[str]) -> None:
    values = list(range(1, 1001))
    random.Random(7).shuffle(values)
    expected = {50: 500, 90: 900, 99: 990, 100: 1000}
    for p, want in expected.items():
        got = harness.percentile(values, p)
        if got != want:
            failures.append(f"p{p} of 1..1000 is {got}, expected {want}")
    if harness.percentile([3.0, 1.0, 2.0], 50) != 2.0:
        failures.append("p50 of {1,2,3} is not 2")
    if (harness.min_samples(90), harness.min_samples(99)) != (100, 1000):
        failures.append("min_samples(90/99) is not (100, 1000)")


def _check_nested(failures: List[str]) -> None:
    recorder = harness.Recorder(["outer", "inner"])

    def inner() -> None:
        _spin(0.030)

    def outer() -> None:
        _spin(0.020)
        inner_span()
        _spin(0.010)

    inner_span = harness.sync_span(recorder, "inner")(inner)
    outer_span = harness.sync_span(recorder, "outer")(outer)
    t0 = time.perf_counter()
    outer_span()
    t1 = time.perf_counter()
    failures.extend(harness.check_streams(recorder.streams()))
    self_s, _, unattributed = harness.attribute(recorder.streams(), 2, t0, t1)
    _near(t1 - t0, 0.060, "nested wall", failures)
    _near(self_s[0], 0.030, "outer self time (minus child)", failures)
    _near(self_s[1], 0.030, "inner self time", failures)
    _near(sum(self_s) + unattributed, t1 - t0, "self + unattributed", failures)
    counts = recorder.counters()
    if counts.get("outer.calls") != 1 or counts.get("inner.calls") != 1:
        failures.append(f"call counts wrong: {counts}")


def _check_threads(failures: List[str]) -> None:
    recorder = harness.Recorder(["main", "work"])
    # Sleeping spans release the interpreter lock, so both workers are
    # inside "work" for the same 40 ms.
    work = harness.sync_span(recorder, "work")(lambda: time.sleep(0.040))
    t0 = time.perf_counter()
    with recorder.span("main"):
        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        join = harness.parking(recorder)(threading.Thread.join)
        park_start = time.perf_counter()
        for thread in threads:
            join(thread, timeout=5.0)
        park_end = time.perf_counter()
    t1 = time.perf_counter()
    if any(thread.is_alive() for thread in threads):
        failures.append("worker thread did not finish")
        return
    failures.extend(harness.check_streams(recorder.streams()))
    self_s, parked_s, unattributed = harness.attribute(
        recorder.streams(), 2, t0, t1
    )
    # The instant two threads share is split, so "work" gets the
    # overlap once, not twice; the parked main thread gets none of it.
    _near(self_s[1], 0.040, "threads: concurrent work counted once", failures)
    _near(sum(self_s) + unattributed, t1 - t0, "threads: self + unattributed", failures)
    _near(
        sum(self_s), harness.covered_s(recorder.streams(), t0, t1),
        "threads: self times vs span coverage", failures,
    )
    _near(parked_s[0], park_end - park_start, "main thread parked time", failures)
    if self_s[0] > (t1 - t0) - 0.040 + TOLERANCE_S:
        failures.append("parked main thread was charged the workers' time")


def _check_async(failures: List[str]) -> None:
    recorder = harness.Recorder(["request"])

    async def request() -> int:
        _spin(0.010)
        await asyncio.sleep(0.030)
        _spin(0.010)
        return 7

    wrapped = harness.async_span(recorder, "request")(request)
    loop = asyncio.new_event_loop()
    try:
        t0 = time.perf_counter()
        result = loop.run_until_complete(wrapped())
        t1 = time.perf_counter()
    finally:
        loop.close()
    if result != 7:
        failures.append(f"async wrapper returned {result!r}")
    failures.extend(harness.check_streams(recorder.streams()))
    self_s, _, unattributed = harness.attribute(recorder.streams(), 1, t0, t1)
    _near(self_s[0], 0.020, "coroutine self time (steps only)", failures)
    _near(unattributed, 0.030, "coroutine await (unattributed)", failures)
    if recorder.counters().get("request.calls") != 1:
        failures.append("async call count is not 1")


def _check_patcher(failures: List[str]) -> None:
    def original() -> str:
        return "original"

    pkg = types.ModuleType("perfbench_selftest_pkg")
    sub = types.ModuleType("perfbench_selftest_pkg.sub")
    pkg.fn = original
    sub.alias = original
    sys.modules[pkg.__name__] = pkg
    sys.modules[sub.__name__] = sub
    patcher = harness.Patcher()
    try:
        hits = patcher.function(
            pkg.__name__, original, lambda fn: lambda: "patched"
        )
        if hits != 2 or pkg.fn() != "patched" or sub.alias() != "patched":
            failures.append("patcher missed a binding")
        patcher.undo()
        if pkg.fn is not original or sub.alias is not original:
            failures.append("patcher did not restore the originals")
    finally:
        del sys.modules[pkg.__name__]
        del sys.modules[sub.__name__]


#: Attempts per timing check.  A preempted host only lengthens the
#: measured intervals, so one clean attempt shows the harness is right;
#: a harness bug fails every attempt.
ATTEMPTS = 3


def run_selftest() -> List[str]:
    """All harness checks; returns failure messages (empty = pass)."""
    failures: List[str] = []
    _check_percentiles(failures)
    _check_patcher(failures)
    for check in (_check_nested, _check_threads, _check_async):
        for _ in range(ATTEMPTS):
            attempt: List[str] = []
            check(attempt)
            if not attempt:
                break
        failures.extend(attempt)
    return failures


def main() -> int:
    failures = run_selftest()
    for failure in failures:
        print(f"FAIL {failure}")
    print("harness self-test:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
