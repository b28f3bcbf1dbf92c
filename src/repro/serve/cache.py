"""Bounded LRU plan cache.

Plans are pure functions of (model, board, design space, QoS), so the
cache key is the tuple of their fingerprints -- including the *board*
fingerprint (power-model and timing parameters), so a server
reconfigured with a different :class:`~repro.mcu.board.Board` or
power model can never serve a stale plan (see the matching pipeline
regression in ``tests/pipeline/test_cache_keys.py``).

Values are the fully serialized plan payloads the protocol ships, so a
hit costs one dict copy and zero planning work, and a cached payload
digests byte-identically to a freshly computed one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError
from ..obs.registry import get_registry


def plan_cache_key(
    model_fp: Tuple,
    board_fp: Tuple,
    space_fp: Tuple,
    qos_key: Tuple,
) -> Tuple:
    """The full cache identity of one planning request."""
    return (model_fp, board_fp, space_fp, qos_key)


class PlanCache:
    """Thread-safe bounded LRU mapping plan keys to plan payloads."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ReproError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(
        self, key: Tuple, count_miss: bool = True
    ) -> Optional[Dict[str, Any]]:
        """The cached payload, refreshed to most-recently-used.

        ``count_miss=False`` makes a miss invisible to every counter,
        for a probe that a counted lookup follows on a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if not count_miss:
                    return None
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        get_registry().count(
            "serve.plan_cache", event="miss" if entry is None else "hit"
        )
        return entry

    def put(self, key: Tuple, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Insert (or refresh) one payload, evicting the LRU tail.

        Returns the canonical stored payload: concurrent writers of
        the same key converge on the first-published value.
        """
        evicted = 0
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = payload
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            get_registry().count(
                "serve.plan_cache", n=evicted, event="eviction"
            )
        return payload

    def clear(self) -> None:
        """Drop every entry (counters survive)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction counters plus occupancy."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }
