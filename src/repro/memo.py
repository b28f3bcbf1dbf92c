"""Keyed single-flight memo: each key is computed once, even under threads.

Every shared cache of Step-2 work is one :class:`Memo`, so a pooled
fleet deploy does exactly the work, and makes exactly the calls, of a
serial one.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Optional

from .obs.registry import get_registry


class _Flight:
    """Marks a key that thread ``owner`` is computing."""

    __slots__ = ("owner",)

    def __init__(self) -> None:
        self.owner = threading.get_ident()


class Memo:
    """A thread-safe keyed memo with single-flight computation.

    One lock guards one table of values and in-flight markers (keys
    embed model fingerprints, costly to hash, so a lookup and a claim
    share one ``setdefault``).  The first caller of a missing key
    computes it; concurrent callers wait for that result in
    ``threading.Condition.wait``.  A compute that raises publishes
    nothing, and each waiter retries.  Each call counts once in
    ``counts`` as a ``hit``, a ``miss`` (computed here) or a ``wait``;
    ``family`` also counts it in the registry, labelled ``event`` plus
    ``labels``.  A fleet holds hundreds of memos, so the condition is
    built only once a caller has to wait.
    """

    def __init__(self, family: Optional[str] = None, **labels: Any):
        self._entries: Dict[Hashable, Any] = {}
        self._generation = 0
        self._lock = threading.Lock()
        self._landed: Optional[threading.Condition] = None
        self._family = family
        self._labels = labels
        self.counts = dict.fromkeys(("hit", "miss", "wait"), 0)

    def __len__(self) -> int:
        with self._lock:
            entries = self._entries.values()
            return sum(e.__class__ is not _Flight for e in entries)

    def get(self, key: Hashable, compute: Callable[..., Any], *args) -> Any:
        """The value of ``key``, computing it as ``compute(*args)`` once.

        Raises:
            RuntimeError: ``compute`` asked for its own key, which
                would otherwise wait on itself forever.
        """
        flight = _Flight()
        event = "hit"
        with self._lock:
            while True:
                entry = self._entries.setdefault(key, flight)
                if entry is flight:
                    event = "miss"
                    generation = self._generation
                    break
                if entry.__class__ is not _Flight:
                    break
                if entry.owner == flight.owner:
                    raise RuntimeError(
                        f"memo key {key!r} is computed recursively"
                    )
                event = "wait"
                if self._landed is None:
                    self._landed = threading.Condition(self._lock)
                self._landed.wait()
            self.counts[event] += 1
        if self._family is not None:
            get_registry().count(self._family, event=event, **self._labels)
        if event != "miss":
            return entry
        value = flight
        try:
            value = compute(*args)
        finally:
            with self._lock:
                # A failed compute publishes nothing, and neither does
                # one a clear() overtook; either way waiters recompute.
                if generation == self._generation:
                    if value is flight:
                        del self._entries[key]
                    else:
                        self._entries[key] = value
                if self._landed is not None:
                    self._landed.notify_all()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Seed ``key`` unless it is present or being computed."""
        with self._lock:
            self._entries.setdefault(key, value)

    def peek(self, key: Hashable) -> Any:
        """The value of ``key``, or ``None``; never waits or counts."""
        with self._lock:
            entry = self._entries.get(key)
        return None if entry.__class__ is _Flight else entry

    def clear(self) -> None:
        """Drop every value and reset the counts."""
        with self._lock:
            self._entries.clear()
            self._generation += 1
            self.counts = dict.fromkeys(self.counts, 0)
