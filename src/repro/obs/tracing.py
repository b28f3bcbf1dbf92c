"""Lightweight span tracing with correlation IDs and deterministic mode.

The span API is two calls::

    with span("dse.explore", model=model.name):
        ...

    @traced("mckp.solve")
    def solve_mckp_dp(...): ...

Spans nest: the current span is tracked in a :mod:`contextvars`
variable, so a span opened inside another becomes its child without
any plumbing -- including across ``await`` points (each asyncio task
gets its own context).  Crossing a thread pool *does* need plumbing,
because executors run work in an empty context: wrap the submitted
callable with :func:`wrap` to carry the caller's span/correlation
context into the worker (the serve batcher and the fleet scheduler do
this).

Correlation IDs tie a whole request's spans together across layers:
the serve front end opens ``correlation("plan-1")`` around a request,
and every span recorded below it -- batcher, pipeline, explorer,
solver, even in pool threads via :func:`wrap` -- carries that ID, so
one grep over the exported trace reconstructs the request's tree.

Tracing is **off by default** and the disabled path is engineered to
be near-free: :func:`span` checks one module global and returns a
shared no-op context manager -- no allocation, no clock read, no lock
(pinned by ``tests/obs/test_tracing.py::TestDisabledPath``).

Deterministic mode (``Tracer(deterministic=True)``) takes timestamps
from a monotonically incremented counter instead of the wall clock, so
the *entire* span record -- structure, ordering, and times -- is a
pure function of the work performed.  Even in wall-clock mode the
export digest (:func:`repro.obs.export.trace_digest`) covers only the
deterministic fields, so seeded runs digest identically either way.
"""

from __future__ import annotations

import contextvars
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Current span sequence number (parent for new spans); None at root.
_CURRENT_SPAN: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)
#: Current correlation ID, threaded request -> batcher -> pipeline.
_CORRELATION: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_obs_correlation", default=None
)


@dataclass
class SpanRecord:
    """One finished (or in-flight) span.

    ``seq`` is the span's creation order under the tracer lock -- it
    doubles as the span ID and as the deterministic ordering key for
    exports.  ``start_s``/``end_s`` come from the tracer clock (wall
    by default, counting in deterministic mode).
    """

    seq: int
    name: str
    start_s: float
    thread: str
    parent_seq: Optional[int] = None
    correlation: Optional[str] = None
    end_s: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


class _TickClock:
    """Counting clock for deterministic mode: every read advances by 1."""

    def __init__(self) -> None:
        self._ticks = 0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            self._ticks += 1
            return float(self._ticks)


class Tracer:
    """Collects spans into a bounded in-memory buffer.

    Args:
        clock: zero-arg callable returning seconds.  Defaults to
            ``time.perf_counter`` (or a counting tick clock when
            ``deterministic`` is set).
        deterministic: take timestamps from a process-local counter so
            the full record is byte-stable under fixed seeds.
        max_spans: buffer bound; spans beyond it are counted in
            :attr:`dropped` instead of stored (the trace stays a
            prefix, never a sample).
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        deterministic: bool = False,
        max_spans: int = 100_000,
    ):
        if clock is None:
            if deterministic:
                clock = _TickClock()
            else:
                import time

                clock = time.perf_counter
        self.clock = clock
        self.deterministic = deterministic
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans: List[SpanRecord] = []
        self._next_seq = 0

    def begin(self, name: str, attrs: Dict[str, Any]) -> Optional[SpanRecord]:
        parent = _CURRENT_SPAN.get()
        correlation = _CORRELATION.get()
        start = self.clock()
        thread = threading.current_thread().name
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return None
            record = SpanRecord(
                seq=self._next_seq,
                name=name,
                start_s=start,
                thread=thread,
                parent_seq=parent,
                correlation=correlation,
                attrs=dict(attrs),
            )
            self._next_seq += 1
            self._spans.append(record)
        return record

    def end(self, record: SpanRecord) -> None:
        record.end_s = self.clock()

    def spans(self) -> List[SpanRecord]:
        """Snapshot of recorded spans in creation (seq) order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._next_seq = 0
            self.dropped = 0


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        """No-op counterpart of :meth:`_LiveSpan.set`."""


_NULL = _NullSpan()


class _LiveSpan:
    """Context manager for one recorded span."""

    __slots__ = ("_tracer", "_name", "_attrs", "_record", "_token")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._record: Optional[SpanRecord] = None
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "_LiveSpan":
        self._record = self._tracer.begin(self._name, self._attrs)
        if self._record is not None:
            self._token = _CURRENT_SPAN.set(self._record.seq)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
        if self._record is not None:
            if exc_type is not None:
                self._record.attrs["error"] = exc_type.__name__
            self._tracer.end(self._record)

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. cache hit/miss)."""
        if self._record is not None:
            self._record.attrs.update(attrs)


#: The installed tracer; None means tracing is disabled (the common case).
_TRACER: Optional[Tracer] = None


def install(tracer: Optional[Tracer] = None, **kwargs: Any) -> Tracer:
    """Install (and return) a process-wide tracer; spans record from now on."""
    global _TRACER
    if tracer is None:
        tracer = Tracer(**kwargs)
    _TRACER = tracer
    return tracer


def uninstall() -> Optional[Tracer]:
    """Disable tracing; returns the tracer that was installed (if any)."""
    global _TRACER
    previous = _TRACER
    _TRACER = None
    return previous


def get_tracer() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is disabled."""
    return _TRACER


def span(name: str, **attrs: Any):
    """Context manager recording one span (no-op when tracing is off).

    The disabled path returns a shared singleton without touching the
    clock, the buffer, or any lock (``TestDisabledPath`` pins this).
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL
    return _LiveSpan(tracer, name, attrs)


def traced(name: str, **attrs: Any) -> Callable:
    """Decorator form of :func:`span`."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            tracer = _TRACER
            if tracer is None:
                return fn(*args, **kwargs)
            with _LiveSpan(tracer, name, dict(attrs)):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


@contextmanager
def correlation(cid: Optional[str]) -> Iterator[None]:
    """Set the correlation ID for every span opened inside the block."""
    token = _CORRELATION.set(cid)
    try:
        yield
    finally:
        _CORRELATION.reset(token)


def current_correlation() -> Optional[str]:
    """The correlation ID in effect (for audit records off the span path)."""
    return _CORRELATION.get()


def wrap(fn: Callable) -> Callable:
    """Bind ``fn`` to the caller's span/correlation context.

    Executors run submitted work in an empty context; wrapping at
    submission time makes spans opened inside the worker children of
    the submitting span, with the same correlation ID.  When tracing
    is disabled this returns ``fn`` unchanged (zero overhead).
    """
    if _TRACER is None:
        return fn
    ctx = contextvars.copy_context()

    @functools.wraps(fn)
    def bound(*args: Any, **kwargs: Any):
        # A Context cannot be entered concurrently (pool.map fans one
        # wrapped fn across many workers), so run in a copy per call.
        return ctx.copy().run(fn, *args, **kwargs)

    return bound
