"""Measurement core of the benchmark: percentiles, spans, attribution.

Nothing here knows about the planning stack, so the self-test
(``perfbench/selftest.py``) can check it on synthetic work of known
duration before any number about the stack is trusted.

Spans
-----
A :class:`Recorder` keeps one append-only event list per thread.  A
span is a begin event ``(t, code)`` with ``code >= 0`` naming its
layer, closed by ``(t, END)``.  A *park marker* ``(t, PARK)`` ...
``(t, END)`` brackets time the thread spends blocked (a condition
wait, an event-loop ``select``).  Spans of one thread nest strictly:
every wrapper opens and closes its span around one synchronous call,
and coroutines are timed per resumption (:class:`TimedAwaitable`).

Attribution
-----------
:func:`attribute` sweeps the traced window once.  At each instant a
thread is *active* when its innermost open record is a span, *parked*
when it is a park marker, and *idle* when nothing is open.  The
instant is split equally among the active threads' innermost layers.
If no thread is active, it goes to the parked threads' innermost
enclosing layers (the result waits on nothing but them); otherwise it
is unattributed.  A layer's self time is the sum of its shares, so
the self times plus the unattributed time equal the window, and two
threads never count one instant twice.
"""

from __future__ import annotations

import functools
import heapq
import math
import resource
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

END = -1
PARK = -2


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Exact nearest-rank percentile: the ``ceil(p/100 * n)``-th smallest.

    Always one of the samples, never an interpolation or a bucket
    bound.

    Raises:
        ValueError: on an empty sample or ``p`` outside (0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def min_samples(p: float) -> int:
    """Samples needed for at least ten beyond the ``p``-th percentile."""
    return int(math.ceil(10.0 / (1.0 - p / 100.0) - 1e-9))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024.0


def steal_jiffies() -> Optional[Tuple[int, int]]:
    """(steal, total) CPU jiffies from ``/proc/stat``; None elsewhere.

    Steal is time the hypervisor ran other guests on this VM's CPUs.
    """
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields)) if len(fields) > 7 else None


def steal_share(
    before: Optional[Tuple[int, int]], after: Optional[Tuple[int, int]]
) -> Optional[float]:
    """Share of CPU time stolen between two :func:`steal_jiffies` reads."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


# -- host speed ------------------------------------------------------------------

#: Seconds one :func:`calibration_kernel` takes on the reference host
#: (2 vCPU, fast phase).  Normalised timings are in reference-host units.
CALIBRATION_REF_S = 0.0008


def calibration_kernel() -> float:
    """Fixed reference work independent of the stack; returns a checksum.

    Dict and list traffic, float arithmetic, a sort and small NumPy
    calls: the instruction mix of the planning code, none of its code,
    so a change to the stack never moves the kernel.
    """
    import numpy as np

    acc = 0.0
    buckets: Dict[int, float] = {}
    xs = [((i * 7919) % 2003) / 2003.0 for i in range(2000)]
    for i, x in enumerate(xs):
        buckets[i % 97] = buckets.get(i % 97, 0.0) + x * 1.0001
        acc += x * x
    xs.sort()
    a = np.arange(200, dtype=float)
    for _ in range(50):
        a = np.sqrt(a * 1.0001 + 1.0)
    return acc + xs[0] + float(a[0]) + len(buckets)


class HostSpeed:
    """Calibration samples over time, to normalise timings by host speed.

    The reference host's speed drifts by up to 2x over seconds (shared
    physical cores), which swamps any code change.  Timing the fixed
    :func:`calibration_kernel` next to the measured work and scaling
    each timing by ``CALIBRATION_REF_S / kernel time`` nearby removes
    most of that drift.  Samples must be taken while the measured work
    is idle, so the kernel never competes with it.
    """

    #: Calibration samples pooled (by time) for one factor.
    NEIGHBOURS = 7

    def __init__(self) -> None:
        self.times: List[float] = []
        self.kernel_s: List[float] = []
        calibration_kernel()  # untimed: imports and warms the kernel

    def sample(self) -> float:
        """Time the kernel once now; returns its seconds."""
        start = time.perf_counter()
        calibration_kernel()
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.kernel_s.append(end - start)
        return end - start

    def factor(self, t: float) -> float:
        """Reference over local kernel time, from samples nearest ``t``."""
        if not self.times:
            raise ValueError("no calibration samples")
        import bisect

        i = bisect.bisect_left(self.times, t)
        lo = max(0, i - self.NEIGHBOURS // 2 - 1)
        hi = min(len(self.times), lo + self.NEIGHBOURS)
        lo = max(0, hi - self.NEIGHBOURS)
        nearby = sorted(self.kernel_s[lo:hi])
        return CALIBRATION_REF_S / nearby[len(nearby) // 2]

    def median_kernel_s(self) -> float:
        return sorted(self.kernel_s)[len(self.kernel_s) // 2]


# -- span recording ------------------------------------------------------------


class Recorder:
    """Per-thread span event lists plus per-thread counters.

    Every span and window time is ``time.perf_counter()``.

    Args:
        layers: layer names; a span's code is its index here.
    """

    def __init__(self, layers: Sequence[str]):
        self.layers = list(layers)
        self.code = {name: i for i, name in enumerate(self.layers)}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[list, dict, dict]] = []

    def _state(self) -> Tuple[list, dict, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, {})
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def events(self) -> List[Tuple[float, int]]:
        """This thread's event list."""
        return self._state()[0]

    def count(self, name: str, value: float = 1.0) -> None:
        counters = self._state()[1]
        counters[name] = counters.get(name, 0.0) + value

    def observe_max(self, name: str, value: float) -> None:
        maxima = self._state()[2]
        if value > maxima.get(name, float("-inf")):
            maxima[name] = value

    def streams(self) -> List[List[Tuple[float, int]]]:
        with self._lock:
            return [state[0] for state in self._threads]

    def counters(self) -> Dict[str, float]:
        """Counters summed over threads (read after recording stops)."""
        total: Dict[str, float] = {}
        with self._lock:
            for _, counters, _ in self._threads:
                for name, value in counters.items():
                    total[name] = total.get(name, 0.0) + value
        return total

    def maxima(self) -> Dict[str, float]:
        """Maxima over threads (read after recording stops)."""
        total: Dict[str, float] = {}
        with self._lock:
            for _, _, maxima in self._threads:
                for name, value in maxima.items():
                    total[name] = max(total.get(name, value), value)
        return total

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """One span around a block of the caller's own code."""
        self.count(f"{layer}.calls")
        events = self.events()
        events.append((time.perf_counter(), self.code[layer]))
        try:
            yield
        finally:
            events.append((time.perf_counter(), END))


class TimedAwaitable:
    """Times each resumption of a coroutine as one span.

    A coroutine's wall duration is mostly waiting; what runs on the
    thread is the series of ``send``/``throw`` steps between awaits.
    Each step is a synchronous interval, so it nests correctly with
    the spans of whatever it calls.
    """

    __slots__ = ("_coro", "_code", "_recorder")

    def __init__(self, coro, code: int, recorder: Recorder):
        self._coro = coro
        self._code = code
        self._recorder = recorder

    def __await__(self):
        inner = self._coro.__await__()
        clock = time.perf_counter
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            events = self._recorder.events()
            events.append((clock(), self._code))
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    yielded = inner.throw(error)
            except StopIteration as stop:
                events.append((clock(), END))
                return stop.value
            except BaseException:
                events.append((clock(), END))
                raise
            events.append((clock(), END))
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as err:  # forwarded into the coroutine
                value, error = None, err


# -- patching ------------------------------------------------------------------


_MISSING = object()


class Patcher:
    """Replaces attributes and restores every original on :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name``; an inherited attribute is shadowed."""
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def method(self, cls: type, name: str, make: Callable) -> None:
        """Wrap a plain function defined on ``cls`` itself."""
        original = cls.__dict__[name]
        self.set(cls, name, functools.wraps(original)(make(original)))

    def function(
        self, module_prefix: str, original: Callable, make: Callable
    ) -> int:
        """Wrap a module function at every binding under a package.

        ``from x import f`` copies the reference, so each importing
        module is patched where it holds the original.

        Returns:
            The number of bindings replaced.
        """
        wrapped = functools.wraps(original)(make(original))
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == module_prefix
                or mod_name.startswith(module_prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapped)
                    hits += 1
        return hits

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


def sync_span(
    recorder: Recorder,
    layer: str,
    observe: Optional[Callable[..., None]] = None,
) -> Callable[[Callable], Callable]:
    """Wrapper factory: one span per call, plus ``<layer>.calls``.

    ``observe(result, error, args, kwargs)`` runs after the span
    closes, for layer counters (hit ratios, failures, sizes).
    """
    code = recorder.code[layer]
    calls = f"{layer}.calls"
    clock = time.perf_counter

    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            events = recorder.events()
            recorder.count(calls)
            events.append((clock(), code))
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                events.append((clock(), END))
                if observe is not None:
                    observe(None, err, args, kwargs)
                raise
            events.append((clock(), END))
            if observe is not None:
                observe(result, None, args, kwargs)
            return result

        return wrapper

    return make


def async_span(
    recorder: Recorder,
    layer: str,
    observe: Optional[Callable[..., None]] = None,
) -> Callable[[Callable], Callable]:
    """Like :func:`sync_span` for coroutine functions (per-step spans)."""
    code = recorder.code[layer]
    calls = f"{layer}.calls"

    def make(fn: Callable) -> Callable:
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            recorder.count(calls)
            try:
                result = await TimedAwaitable(
                    fn(*args, **kwargs), code, recorder
                )
            except BaseException as err:
                if observe is not None:
                    observe(None, err, args, kwargs)
                raise
            if observe is not None:
                observe(result, None, args, kwargs)
            return result

        return wrapper

    return make


def count_only(recorder: Recorder, name: str) -> Callable[[Callable], Callable]:
    """Wrapper factory counting calls without a span (hot tiny calls)."""

    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            recorder.count(name)
            return fn(*args, **kwargs)

        return wrapper

    return make


def parking(recorder: Recorder) -> Callable[[Callable], Callable]:
    """Wrapper factory bracketing a blocking call with a park marker."""
    clock = time.perf_counter

    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            events = recorder.events()
            events.append((clock(), PARK))
            try:
                return fn(*args, **kwargs)
            finally:
                events.append((clock(), END))

        return wrapper

    return make


# -- attribution ---------------------------------------------------------------


def check_streams(streams: Sequence[Sequence[Tuple[float, int]]]) -> List[str]:
    """Problems that would make attribution wrong, as messages.

    A clock that steps backwards (a reset cycle counter is the classic
    case) or a span left open means the recorded times cannot be
    trusted; the caller fails the run on any message.
    """
    problems = []
    for index, stream in enumerate(streams):
        depth = 0
        last = float("-inf")
        for t, code in stream:
            if t < last:
                problems.append(
                    f"thread {index}: clock went back {last - t:.3e} s"
                )
                break
            last = t
            depth += -1 if code == END else 1
            if depth < 0:
                problems.append(f"thread {index}: span closed twice")
                break
        if depth > 0:
            problems.append(f"thread {index}: {depth} span(s) left open")
    return problems


def covered_s(
    streams: Sequence[Sequence[Tuple[float, int]]], t0: float, t1: float
) -> float:
    """Seconds of [t0, t1] in which at least one thread has a span open.

    A plain union of each thread's outermost-span intervals, computed
    without :func:`attribute`.  :func:`attribute` gives exactly these
    instants to layers, so its self times must sum to this figure; a
    bookkeeping error in the sweep shows as a difference.
    """
    intervals: List[Tuple[float, float]] = []
    for stream in streams:
        stack: List[int] = []
        depth = 0  # spans (not park markers) open on this thread
        start = t0
        for t, code in stream:
            if code == END:
                if stack and stack.pop() >= 0:
                    depth -= 1
                    if depth == 0:
                        intervals.append((start, t))
            else:
                stack.append(code)
                if code >= 0:
                    if depth == 0:
                        start = t
                    depth += 1
        if depth:
            intervals.append((start, t1))
    total = 0.0
    reached = t0
    for begin, end in sorted(intervals):
        lo, hi = max(begin, reached), min(end, t1)
        if hi > lo:
            total += hi - lo
            reached = hi
    return total


def _thread_states(
    events: Sequence[Tuple[float, int]], thread: int
) -> Iterator[Tuple[float, int, int, int]]:
    """(t, thread, active layer or -1, parked-enclosing layer or -1).

    Emits the thread's state after every event.  An unmatched END
    (recording started mid-span) is ignored; spans still open at the
    end are closed by the window end.
    """
    stack: List[int] = []
    enclosing: List[int] = []  # innermost span code below each entry
    for t, code in events:
        if code == END:
            if stack:
                stack.pop()
                enclosing.pop()
        else:
            below = enclosing[-1] if enclosing else -1
            if stack and stack[-1] >= 0:
                below = stack[-1]
            stack.append(code)
            enclosing.append(below)
        if not stack:
            yield t, thread, -1, -1
        elif stack[-1] == PARK:
            yield t, thread, -1, enclosing[-1]
        else:
            yield t, thread, stack[-1], -1


def attribute(
    streams: Sequence[Sequence[Tuple[float, int]]],
    n_layers: int,
    t0: float,
    t1: float,
) -> Tuple[List[float], List[float], float]:
    """Split the window [t0, t1] over layers (see module docstring).

    Returns:
        (self seconds per layer, parked seconds per enclosing layer,
        unattributed seconds).  ``sum(self) + unattributed == t1 - t0``
        up to float rounding.  Parked seconds count every parked
        interval in full (they overlap other threads' work), so they
        are a wait measure, not part of the sum.
    """
    self_s = [0.0] * n_layers
    parked_s = [0.0] * n_layers
    unattributed = 0.0
    n_threads = len(streams)
    active = [-1] * n_threads
    parked = [-1] * n_threads
    park_since = [0.0] * n_threads
    merged = heapq.merge(
        *(_thread_states(stream, i) for i, stream in enumerate(streams))
    )
    last = t0

    def settle(until: float) -> None:
        nonlocal unattributed
        dt = min(until, t1) - last
        if dt <= 0:
            return
        running = [code for code in active if code >= 0]
        if running:
            share = dt / len(running)
            for code in running:
                self_s[code] += share
            return
        waiting = [code for code in parked if code >= 0]
        if waiting:
            share = dt / len(waiting)
            for code in waiting:
                self_s[code] += share
            return
        unattributed += dt

    for t, thread, run_code, park_code in merged:
        if t > last:
            settle(t)
            last = max(last, min(t, t1))
        if parked[thread] >= 0:
            parked_s[parked[thread]] += max(0.0, min(t, t1) - park_since[thread])
        active[thread] = run_code
        parked[thread] = park_code
        park_since[thread] = max(t, t0)
    settle(t1)
    for thread in range(n_threads):
        if parked[thread] >= 0:
            parked_s[parked[thread]] += max(0.0, t1 - park_since[thread])
    return self_s, parked_s, unattributed
