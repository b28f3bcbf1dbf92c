"""Digest-addressed cross-worker plan-cache tier.

Plans are pure functions of their (model, board, space, QoS) identity,
so replicas can exchange them *byte-identically*: the tier stores each
payload once as canonical JSON (the exact bytes
:func:`repro.serve.protocol.plan_digest` hashes), addressed by its
``digest`` field, plus an index mapping plan-cache keys to digests.
A worker that computes a plan publishes it; every other worker's next
miss on the same key deserializes the same bytes and therefore serves
a payload whose digest is identical to a single-process solve
(pinned by ``tests/serve/test_router.py::TestRouterEndToEnd``).

One class, :class:`SharedCache`, serves both deployments; only where
its maps and lock come from differs:

* ``SharedCache()`` -- plain dicts behind a :class:`threading.Lock`,
  the single-process tier;
* :func:`managed_shared_cache` -- the same class over
  :mod:`multiprocessing` manager proxies, so ``spawn``-ed shard
  workers share one tier.  The handle pickles across the process
  boundary; all mutation happens under one manager-side lock.

Lookups verify: a payload whose recomputed digest does not match its
address is treated as a miss (and the index entry dropped where
possible), so a corrupt or torn write can never be served.

Capacity is a soft bound enforced at publish time: beyond
``capacity`` index entries, new publishes become no-ops rather than
evicting -- cross-process LRU bookkeeping would put a lock on every
hit, and the per-worker LRUs in front of this tier already absorb hot
keys.  ``stats`` reports the rejections.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError
from ..obs.registry import get_registry
from .protocol import plan_digest


def wire_key(key: Tuple) -> str:
    """Canonical string form of a plan-cache key.

    Manager-proxied dicts hash keys in the *manager* process, so the
    tier addresses entries by a canonical JSON string instead of the
    nested fingerprint tuples (tuples and lists would also collide
    differently per process).  Deterministic: sorted-keys JSON of the
    nested-list form.
    """
    return json.dumps(_jsonable(key), sort_keys=True, separators=(",", ":"))


def _jsonable(value: Any) -> Any:
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def request_key(
    model_name: str, qos_key: Tuple, board: Optional[str] = None
) -> str:
    """Request-identity key for the degraded-serving index.

    Unlike the full plan-cache key this is computable from the wire
    request alone (no model/board/space fingerprints), which is what
    lets the *router* -- which owns no pipeline -- serve a shared-cache
    hit when every worker that could recompute the plan is down.  The
    QoS value goes through ``repr(float(...))`` so int/float spellings
    of the same QoS collapse to one entry.

    The board element is appended only when a request actually selects
    a board, so default-board keys stay identical to the pre-registry
    wire format (mixed-version routers and workers agree on them) while
    the same (model, QoS) on two boards can never share an entry.
    """
    kind, value = qos_key
    parts: list = [str(model_name), [str(kind), repr(float(value))]]
    if board is not None:
        parts.append(str(board))
    return json.dumps(parts, separators=(",", ":"))


def _payload_digest(payload: Dict[str, Any]) -> str:
    """The digest a payload claims, verified against its content."""
    claimed = payload.get("digest")
    computed = plan_digest(
        {k: v for k, v in payload.items() if k != "digest"}
    )
    if claimed is not None and claimed != computed:
        raise ReproError(
            f"plan payload digest mismatch: claims {claimed}, "
            f"content hashes to {computed}"
        )
    return computed


class SharedCache:
    """Digest-addressed plan store over injectable maps and a lock.

    Args:
        capacity: soft bound on index entries (see the module notes).
        maps: ``(index, payloads, requests, counters)`` -- wire key ->
            digest, digest -> canonical JSON, request key -> digest
            (the degraded-serving index), and str -> int counters.
            Fresh dicts when omitted.  All four come from one place,
            so a cross-process tier cannot end up with a private map.
        lock: guards every map; a :class:`threading.Lock` when omitted.
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        maps: Optional[Tuple[Any, Any, Any, Any]] = None,
        lock: Any = None,
    ):
        if capacity < 1:
            raise ReproError("shared cache capacity must be >= 1")
        self.capacity = capacity
        if maps is None:
            maps = ({}, {}, {}, {})
        self._index, self._payloads, self._requests, self._counters = maps
        self._lock = lock if lock is not None else threading.Lock()

    def _verified(self, digest: str, raw: str, index: Any, wk: str):
        """Deserialize + digest-verify stored bytes (None on corrupt)."""
        payload = json.loads(raw)
        try:
            if _payload_digest(payload) != digest:
                raise ReproError("stored payload does not match address")
        except ReproError:
            with self._lock:
                if index.get(wk) == digest:
                    del index[wk]
                self._counters["corrupt"] = (
                    self._counters.get("corrupt", 0) + 1
                )
            get_registry().count("serve.shared_cache", event="corrupt")
            return None
        return payload

    def lookup(self, key: Tuple) -> Optional[Dict[str, Any]]:
        """The payload published under ``key``, or None.

        Returns a fresh dict deserialized from the canonical bytes, so
        callers can annotate it without mutating the shared copy.
        """
        wk = wire_key(key)
        with self._lock:
            digest = self._index.get(wk)
            raw = self._payloads.get(digest) if digest is not None else None
            if raw is None:
                self._counters["misses"] = (
                    self._counters.get("misses", 0) + 1
                )
                return None
            self._counters["hits"] = self._counters.get("hits", 0) + 1
        return self._verified(digest, raw, self._index, wk)

    def lookup_request(self, rk: str) -> Optional[Dict[str, Any]]:
        """The payload registered for a *request* key, or None.

        The degraded-serving path: same digest verification as
        :meth:`lookup`, addressed by the fingerprint-free request
        identity (:func:`request_key`) the router can compute.
        """
        with self._lock:
            digest = self._requests.get(rk)
            raw = self._payloads.get(digest) if digest is not None else None
            if raw is None:
                self._counters["request_misses"] = (
                    self._counters.get("request_misses", 0) + 1
                )
                return None
            self._counters["request_hits"] = (
                self._counters.get("request_hits", 0) + 1
            )
        return self._verified(digest, raw, self._requests, rk)

    def publish(self, key: Tuple, payload: Dict[str, Any]) -> str:
        """Store ``payload`` under ``key``; returns its digest address.

        First publisher wins: an existing index entry for the key is
        left alone (plans are deterministic, so a disagreement would
        mean a corrupt payload, not a newer answer).
        """
        return self.publish_raw(wire_key(key), payload)

    def publish_raw(self, wk: str, payload: Dict[str, Any]) -> str:
        """:meth:`publish` addressed by an already-canonical wire key.

        The journal-replay surface: replay stores wire keys, not the
        fingerprint tuples they came from.
        """
        digest = _payload_digest(payload)
        raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if wk in self._index:
                return self._index[wk]
            if len(self._index) >= self.capacity:
                self._counters["rejected"] = (
                    self._counters.get("rejected", 0) + 1
                )
                get_registry().count(
                    "serve.shared_cache", event="rejected"
                )
                return digest
            # Content store first, index last: a reader that sees the
            # index entry always finds its payload.
            if digest not in self._payloads:
                self._payloads[digest] = raw
            self._index[wk] = digest
            self._counters["publishes"] = (
                self._counters.get("publishes", 0) + 1
            )
        return digest

    def register_request(self, rk: str, digest: str) -> None:
        """Point a request key at a published payload digest."""
        self.register_request_raw(rk, digest)

    def register_request_raw(self, rk: str, digest: str) -> None:
        with self._lock:
            if rk in self._requests:
                return
            if len(self._requests) >= self.capacity:
                return  # same soft bound as the main index
            self._requests[rk] = digest

    def note_replayed(self, count: int = 1) -> None:
        """Record journal-replayed publishes (reported by ``stats``)."""
        with self._lock:
            self._counters["replayed"] = (
                self._counters.get("replayed", 0) + count
            )

    def stats(self) -> Dict[str, Any]:
        """Counters plus occupancy (one consistent snapshot)."""
        with self._lock:
            counters = dict(self._counters)
            size = len(self._index)
            payloads = len(self._payloads)
            requests = len(self._requests)
        return {
            "capacity": self.capacity,
            "size": size,
            "payloads": payloads,
            "requests": requests,
            "hits": counters.get("hits", 0),
            "misses": counters.get("misses", 0),
            "request_hits": counters.get("request_hits", 0),
            "request_misses": counters.get("request_misses", 0),
            "publishes": counters.get("publishes", 0),
            "rejected": counters.get("rejected", 0),
            "corrupt": counters.get("corrupt", 0),
            "replayed": counters.get("replayed", 0),
        }


def managed_shared_cache(manager, capacity: int = 1024) -> SharedCache:
    """A :class:`SharedCache` over a ``multiprocessing.Manager``.

    Build it in the router process and pass it to spawned workers: the
    proxies (and the manager lock) pickle into a handle that
    reconnects to the same manager-side maps.
    """
    return SharedCache(
        capacity,
        maps=tuple(manager.dict() for _ in range(4)),
        lock=manager.Lock(),
    )
