"""Admission control: bounded in-flight queue + token-bucket limiter.

A production planner must degrade by *shedding* -- answering a
structured ``overloaded`` response immediately -- rather than queueing
unboundedly until every client times out.  Two independent gates:

* a bounded in-flight count (requests admitted but not yet answered):
  exceeding it sheds with reason ``queue_full``;
* an optional token bucket over admissions: empty sheds with reason
  ``rate_limited`` and a retry hint equal to the time one token needs.

Both gates take their time from an injectable clock.  The default is
``time.monotonic``; tests and the deterministic load generator inject
an :class:`ArrivalClock` that advances a fixed amount per *arrival*,
making every shed decision a pure function of the arrival sequence
(pinned by ``tests/serve/test_loadgen.py::TestBurstOverload``).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from ..errors import OverloadedError, ReproError
from ..obs.audit import get_audit_log


class ArrivalClock:
    """Logical clock advancing a fixed tick per reading.

    Gives the token bucket deterministic time: the n-th admission
    check always happens at ``start + n * tick_s``, whatever the
    wall-clock scheduler did.
    """

    def __init__(self, tick_s: float, start_s: float = 0.0):
        if tick_s < 0:
            raise ReproError("tick_s must be >= 0")
        self.tick_s = tick_s
        self._now_s = start_s
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            self._now_s += self.tick_s
            return self._now_s


class TokenBucket:
    """Classic token bucket: ``rate_per_s`` refill, ``burst`` capacity.

    Construction reads no time: the first :meth:`try_acquire` anchors
    the refill clock.  With an :class:`ArrivalClock` as ``time_fn``
    this keeps the documented invariant that the n-th admission check
    happens at ``start + n * tick_s`` -- an eager read at construction
    would consume tick #1 and shift every deterministic shed decision
    by one arrival.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: float,
        time_fn: Callable[[], float] = time.monotonic,
    ):
        if rate_per_s <= 0:
            raise ReproError("rate_per_s must be positive")
        if burst < 1:
            raise ReproError("burst must be >= 1")
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self._time_fn = time_fn
        self._tokens = float(burst)
        self._last_s: Optional[float] = None
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        with self._lock:
            now = self._time_fn()
            if self._last_s is None:
                elapsed = 0.0  # first reading anchors the clock
            else:
                elapsed = max(0.0, now - self._last_s)
            self._last_s = now
            self._tokens = min(
                self.burst, self._tokens + elapsed * self.rate_per_s
            )
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def retry_after_s(self) -> float:
        """Time until the *next* token completes at the refill rate.

        Fractional tokens already accrued count toward it, so a bucket
        at 0.75 tokens hints a quarter period, not a full one.  Clamped
        below by zero (a bucket holding a full token needs no wait).
        """
        with self._lock:
            deficit = max(0.0, 1.0 - self._tokens)
        return deficit / self.rate_per_s


class AdmissionController:
    """The serve layer's front door.

    Args:
        max_queue_depth: admitted-but-unanswered request bound.
        bucket: optional rate limiter over admissions.
    """

    def __init__(
        self,
        max_queue_depth: int = 64,
        bucket: Optional[TokenBucket] = None,
    ):
        if max_queue_depth < 1:
            raise ReproError("max_queue_depth must be >= 1")
        self.max_queue_depth = max_queue_depth
        self.bucket = bucket
        self._lock = threading.Lock()
        self._in_flight = 0
        self.sheds: Dict[str, int] = {"queue_full": 0, "rate_limited": 0}

    @property
    def depth(self) -> int:
        """Currently admitted, unanswered requests."""
        with self._lock:
            return self._in_flight

    @property
    def shed_count(self) -> int:
        """Total sheds across both reasons."""
        with self._lock:
            return sum(self.sheds.values())

    def admit(self) -> int:
        """Admit one request or shed it.

        Returns:
            The in-flight depth *after* admission (for the gauge).

        Raises:
            OverloadedError: with the shed reason and a retry hint;
                the caller must NOT :meth:`release` a shed request.
        """
        with self._lock:
            if self._in_flight >= self.max_queue_depth:
                self.sheds["queue_full"] += 1
                depth = self._in_flight
                get_audit_log().record(
                    "serve.admission",
                    "shed",
                    reason="queue_full",
                    depth=depth,
                    max_queue_depth=self.max_queue_depth,
                )
                raise OverloadedError(
                    reason="queue_full",
                    # Draining one slot takes about one service time;
                    # clients cannot see that, so hint a token period
                    # when rate-limited and a small constant otherwise.
                    retry_after_s=(
                        self.bucket.retry_after_s if self.bucket else 0.05
                    ),
                )
            if self.bucket is not None and not self.bucket.try_acquire():
                self.sheds["rate_limited"] += 1
                get_audit_log().record(
                    "serve.admission",
                    "shed",
                    reason="rate_limited",
                    depth=self._in_flight,
                    rate_per_s=self.bucket.rate_per_s,
                )
                raise OverloadedError(
                    reason="rate_limited",
                    retry_after_s=self.bucket.retry_after_s,
                )
            self._in_flight += 1
            return self._in_flight

    def release(self) -> int:
        """Mark one admitted request answered; returns the new depth."""
        with self._lock:
            if self._in_flight <= 0:
                raise ReproError("release() without a matching admit()")
            self._in_flight -= 1
            return self._in_flight
