"""Unified metrics registry: counters, gauges, log-bucket histograms.

Every subsystem records into one process-wide home: a metric is a
**labeled family** (``pipeline.cache`` with labels ``cache=cloud,
event=hit``), and one :meth:`MetricsRegistry.snapshot` returns the
coherent cross-layer view the serve ``stats`` endpoint (and the
``repro-dvfs obs`` CLI) reports.  A component that needs its own
counts -- each serve instance -- records into a
:meth:`MetricsRegistry.child` of the default registry; the parent's
snapshot merges its children in, so the process view stays whole.

Naming convention (see ``docs/observability.md``): family names are
dotted ``<subsystem>.<thing>`` (``pipeline.cache``, ``fleet.pricing``,
``serve.sheds``); labels are short lowercase keys; event-style
counters use an ``event`` label rather than separate families.

:class:`LatencyHistogram` is a fixed log-spaced-bucket histogram
whose percentile answers are bucket *upper bounds* -- a deterministic
over-estimate whose relative error is bounded by the bucket ratio,
``10 ** (1/buckets_per_decade) - 1`` (~33% at the default 8
buckets/decade).  :meth:`LatencyHistogram.buckets` exposes the exact
per-bucket counts so clients can compute tighter two-sided bounds
themselves (documented in ``docs/api.md``).

Everything is lock-protected and cheap to record -- one bisect and a
few integer adds per observation -- so metrics never become the reason
a hot path stalls.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple


def _log_bounds(
    lo_s: float = 1e-6, hi_s: float = 100.0, per_decade: int = 8
) -> List[float]:
    """Log-spaced bucket upper bounds from ``lo_s`` to ``hi_s``."""
    bounds = []
    value = lo_s
    ratio = 10.0 ** (1.0 / per_decade)
    while value < hi_s:
        bounds.append(value)
        value *= ratio
    bounds.append(hi_s)
    return bounds


class LatencyHistogram:
    """Fixed-bucket log-spaced latency histogram.

    Percentiles are answered as the upper bound of the bucket holding
    the requested rank -- a deterministic over-estimate whose relative
    error is bounded by the bucket ratio (~33% at 8 buckets/decade),
    plenty for load-shedding decisions and benchmark gates.  Clients
    needing tighter bounds should use :meth:`buckets`: the true value
    of any percentile lies in ``(lower, le]`` of its bucket, so the
    exact counts bound it two-sided.
    """

    def __init__(self, bounds: Optional[List[float]] = None):
        self.bounds = bounds if bounds is not None else _log_bounds()
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def record(self, latency_s: float) -> None:
        """Add one observation."""
        index = bisect.bisect_left(self.bounds, latency_s)
        self.counts[index] += 1
        self.count += 1
        self.sum_s += latency_s
        self.min_s = min(self.min_s, latency_s)
        self.max_s = max(self.max_s, latency_s)

    # Alias so histograms fit the registry's observe() verb.
    observe = record

    def percentile_s(self, p: float) -> float:
        """The ``p``-th percentile (0 < p <= 100), 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(round(p / 100.0 * self.count)))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max_s
        return self.max_s

    def buckets(self) -> List[Dict[str, float]]:
        """Exact per-bucket counts, non-empty buckets only.

        Each entry is ``{"le": upper_bound_s, "count": n}`` (the final
        overflow bucket reports ``le`` as ``inf``); together with
        ``count`` this is a complete, exact snapshot of the recorded
        distribution, so clients can compute two-sided percentile
        bounds instead of trusting the upper-bound answers of
        :meth:`percentile_s`.
        """
        out: List[Dict[str, float]] = []
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            le = (
                self.bounds[index]
                if index < len(self.bounds)
                else float("inf")
            )
            out.append({"le": le, "count": count})
        return out

    def to_dict(self, include_buckets: bool = False) -> Dict[str, Any]:
        """Summary statistics (optionally with the exact bucket counts).

        ``sum_s`` is included so merged views (:func:`merge_snapshot`)
        can recompute the mean from exact sums instead of compounding
        rounded means -- that is what makes the merge associative.
        """
        summary: Dict[str, Any] = {
            "count": self.count,
            "sum_s": self.sum_s,
            "mean_s": self.sum_s / self.count if self.count else 0.0,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "p50_s": self.percentile_s(50),
            "p95_s": self.percentile_s(95),
            "p99_s": self.percentile_s(99),
        }
        if include_buckets:
            summary["buckets"] = self.buckets()
        return summary


def _label_key(label_names: Tuple[str, ...], labels: Dict[str, Any]) -> Tuple:
    if tuple(sorted(labels)) != tuple(sorted(label_names)):
        raise ValueError(
            f"expected labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Family:
    """One named family of metrics, keyed by label values."""

    kind = "counter"

    def __init__(self, name: str, label_names: Sequence[str] = ()):
        self.name = name
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple, Any] = {}
        self._lock = threading.Lock()

    def _make_child(self) -> Any:
        raise NotImplementedError

    def child(self, labels: Dict[str, Any]) -> Any:
        key = _label_key(self.label_names, labels)
        with self._lock:
            existing = self._children.get(key)
            if existing is None:
                existing = self._children.setdefault(
                    key, self._make_child()
                )
            return existing

    def items(self) -> List[Tuple[Tuple, Any]]:
        with self._lock:
            return sorted(self._children.items())

    def _label_repr(self, key: Tuple) -> str:
        return ",".join(
            f"{name}={value}"
            for name, value in zip(self.label_names, key)
        )


class _CounterFamily(_Family):
    kind = "counter"

    def _make_child(self) -> List[float]:
        return [0.0]


class _GaugeFamily(_Family):
    kind = "gauge"

    def _make_child(self) -> List[float]:
        return [0.0]


class _HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        label_names: Sequence[str] = (),
        bounds: Optional[List[float]] = None,
    ):
        super().__init__(name, label_names)
        self._bounds = bounds

    def _make_child(self) -> LatencyHistogram:
        return LatencyHistogram(
            list(self._bounds) if self._bounds is not None else None
        )


class MetricsRegistry:
    """Process-wide labeled metric families with one-call recording.

    The recording verbs (:meth:`count`, :meth:`gauge_set`,
    :meth:`observe`) create the family on first use, so call sites
    never need registration boilerplate; a family's label *names* are
    fixed by its first use and a mismatch raises immediately (catching
    typos rather than silently forking families).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._children: List["MetricsRegistry"] = []

    def child(self) -> "MetricsRegistry":
        """A new registry whose families this one's snapshot includes.

        The parent keeps the child for its own lifetime, so counts
        recorded into a child (one per serve instance) never drop out
        of the process view.  :meth:`counter_value` reads the
        registry's own families only.
        """
        child = MetricsRegistry()
        with self._lock:
            self._children.append(child)
        return child

    def _family(self, name: str, cls, label_names: Tuple[str, ...], **kw):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families.setdefault(
                    name, cls(name, label_names, **kw)
                )
        if not isinstance(family, cls):
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {cls.kind}"
            )
        if family.label_names != label_names:
            raise ValueError(
                f"metric {name!r} has labels {family.label_names}, "
                f"got {label_names}"
            )
        return family

    # -- recording verbs ---------------------------------------------------------

    def count(self, name: str, n: float = 1.0, **labels: Any) -> None:
        """Increment counter ``name`` (labeled by ``labels``) by ``n``."""
        family = self._family(
            name, _CounterFamily, tuple(sorted(labels))
        )
        cell = family.child(labels)
        with family._lock:
            cell[0] += n

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        """Set gauge ``name`` (labeled by ``labels``) to ``value``."""
        family = self._family(name, _GaugeFamily, tuple(sorted(labels)))
        cell = family.child(labels)
        with family._lock:
            cell[0] = value

    def observe(self, name: str, value_s: float, **labels: Any) -> None:
        """Record one observation into histogram ``name``."""
        family = self._family(
            name, _HistogramFamily, tuple(sorted(labels))
        )
        histogram = family.child(labels)
        with family._lock:
            histogram.record(value_s)

    def histogram(
        self, name: str, **labels: Any
    ) -> LatencyHistogram:
        """The (created-on-first-use) histogram behind ``name``/``labels``."""
        family = self._family(
            name, _HistogramFamily, tuple(sorted(labels))
        )
        return family.child(labels)

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0.0 when never incremented)."""
        with self._lock:
            family = self._families.get(name)
        if family is None or not isinstance(family, _CounterFamily):
            return 0.0
        try:
            key = _label_key(family.label_names, labels)
        except ValueError:
            return 0.0
        with family._lock:
            cell = family._children.get(key)
            return cell[0] if cell is not None else 0.0

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe copy of every family, deterministically ordered.

        Shape: ``{"counters": {name: {label_repr: value}}, "gauges":
        {...}, "histograms": {name: {label_repr: summary+buckets}}}``.
        Unlabeled metrics use the empty-string label key.  Children's
        snapshots (see :meth:`child`) merge in with
        :func:`merge_snapshot`: counters and histograms add, a gauge
        takes the newest child's value.
        """
        with self._lock:
            families = sorted(self._families.items())
            children = list(self._children)
        counters: Dict[str, Dict[str, float]] = {}
        gauges: Dict[str, Dict[str, float]] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name, family in families:
            if isinstance(family, _HistogramFamily):
                histograms[name] = {
                    family._label_repr(key): hist.to_dict(
                        include_buckets=True
                    )
                    for key, hist in family.items()
                }
            elif isinstance(family, _GaugeFamily):
                gauges[name] = {
                    family._label_repr(key): cell[0]
                    for key, cell in family.items()
                }
            else:
                counters[name] = {
                    family._label_repr(key): cell[0]
                    for key, cell in family.items()
                }
        own = {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        if not children:
            return own
        return merge_snapshot(
            [own] + [child.snapshot() for child in children],
            gauge_merge="last",
        )

    def reset(self) -> None:
        """Drop every family, children's too (tests; production
        registries live forever).  Children stay attached."""
        with self._lock:
            self._families.clear()
            children = list(self._children)
        for child in children:
            child.reset()


def _merge_histogram_dicts(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge ``to_dict(include_buckets=True)`` histogram dumps.

    Bucket counts add bucket-wise (keyed on ``le``), ``count`` and
    ``sum_s`` add exactly (``math.fsum``: round-once, hence
    order-independent), and percentiles are recomputed from the merged
    buckets with the same rank rule as
    :meth:`LatencyHistogram.percentile_s` -- so the merged summary is
    byte-identical to recording every observation into one histogram,
    as long as the parts share bucket bounds.
    """
    bucket_counts: Dict[float, float] = {}
    count = 0
    sum_parts: List[float] = []
    min_s = float("inf")
    max_s = 0.0
    for part in parts:
        part_count = int(part.get("count", 0))
        count += part_count
        if part_count:
            sum_parts.append(
                float(
                    part.get(
                        "sum_s",
                        part.get("mean_s", 0.0) * part_count,
                    )
                )
            )
            min_s = min(min_s, float(part.get("min_s", float("inf"))))
            max_s = max(max_s, float(part.get("max_s", 0.0)))
        for bucket in part.get("buckets", []):
            le = float(bucket["le"])
            bucket_counts[le] = (
                bucket_counts.get(le, 0) + bucket["count"]
            )
    sum_s = math.fsum(sum_parts)
    ordered = sorted(bucket_counts.items())

    def _percentile(p: float) -> float:
        if count == 0:
            return 0.0
        rank = max(1, int(round(p / 100.0 * count)))
        seen = 0
        for le, n in ordered:
            seen += n
            if seen >= rank:
                return max_s if le == float("inf") else le
        return max_s

    return {
        "count": count,
        "sum_s": sum_s,
        "mean_s": sum_s / count if count else 0.0,
        "min_s": min_s if count else 0.0,
        "max_s": max_s,
        "p50_s": _percentile(50),
        "p95_s": _percentile(95),
        "p99_s": _percentile(99),
        "buckets": [
            {"le": le, "count": n} for le, n in ordered if n
        ],
    }


#: Gauge merge modes understood by :func:`merge_snapshot`.
GAUGE_MERGE_MODES = ("sum", "max", "min", "last")


def merge_snapshot(
    snapshots: Sequence[Dict[str, Any]],
    *,
    gauge_merge: str = "sum",
    gauge_modes: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Losslessly merge :meth:`MetricsRegistry.snapshot` dumps.

    Counters add per ``(family, label)`` cell; histograms add
    bucket-wise (see :func:`_merge_histogram_dicts`); gauges have no
    universally correct merge, so the semantic is **explicit**:
    ``gauge_merge`` picks the default mode (``sum`` -- fleet totals
    such as pool sizes; ``max`` / ``min`` -- worst-case watermarks;
    ``last`` -- the final snapshot wins) and ``gauge_modes`` overrides
    it per family name.

    The result is deterministically ordered (family names and label
    keys sorted) and is itself a valid snapshot, so merges compose:
    on exactly-representable inputs (integer counts; latencies that
    are dyadic rationals) the operation is associative and commutative
    byte-for-byte, which the ``tests/obs/test_merge.py`` algebra
    suite pins.

    A family appearing under different sections (counter in one
    snapshot, gauge in another) raises ``ValueError`` -- silent
    coercion would corrupt the fleet view.
    """
    if gauge_merge not in GAUGE_MERGE_MODES:
        raise ValueError(
            f"gauge_merge must be one of {GAUGE_MERGE_MODES}, "
            f"got {gauge_merge!r}"
        )
    modes = dict(gauge_modes or {})
    for family, mode in modes.items():
        if mode not in GAUGE_MERGE_MODES:
            raise ValueError(
                f"gauge mode for {family!r} must be one of "
                f"{GAUGE_MERGE_MODES}, got {mode!r}"
            )
    kinds: Dict[str, str] = {}
    counters: Dict[str, Dict[str, List[float]]] = {}
    gauges: Dict[str, Dict[str, List[float]]] = {}
    histograms: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    for snapshot in snapshots:
        for section, into in (
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ):
            for name, cells in snapshot.get(section, {}).items():
                seen = kinds.setdefault(name, section)
                if seen != section:
                    raise ValueError(
                        f"metric {name!r} is a {seen[:-1]} in one "
                        f"snapshot and a {section[:-1]} in another"
                    )
                family = into.setdefault(name, {})
                for label_repr, value in cells.items():
                    family.setdefault(label_repr, []).append(value)

    def _gauge_value(name: str, values: List[float]) -> float:
        mode = modes.get(name, gauge_merge)
        if mode == "sum":
            return math.fsum(values)
        if mode == "max":
            return max(values)
        if mode == "min":
            return min(values)
        return values[-1]

    return {
        "counters": {
            name: {
                label: math.fsum(values)
                for label, values in sorted(cells.items())
            }
            for name, cells in sorted(counters.items())
        },
        "gauges": {
            name: {
                label: _gauge_value(name, values)
                for label, values in sorted(cells.items())
            }
            for name, cells in sorted(gauges.items())
        },
        "histograms": {
            name: {
                label: _merge_histogram_dicts(parts)
                for label, parts in sorted(cells.items())
            }
            for name, cells in sorted(histograms.items())
        },
    }


def snapshot_digest(snapshot: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON encoding of a snapshot.

    ``sort_keys`` plus Python's shortest-round-trip float repr make
    the digest a pure function of the recorded values; the overflow
    bucket's ``le`` of ``inf`` serialises as ``Infinity``, matching
    how snapshots already travel over the serve wire protocol.
    """
    payload = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Registries merge snapshots, so expose the function as a method too.
MetricsRegistry.merge_snapshot = staticmethod(merge_snapshot)


#: The process-wide default registry every subsystem records into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (tests); returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
