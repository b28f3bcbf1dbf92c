"""The ``metrics`` block of the serve ``stats`` payload.

Every serve event is recorded once, into a registry: each
:class:`~repro.serve.server.PlanServer` owns a child of the process
registry (:meth:`~repro.obs.registry.MetricsRegistry.child`), so the
process snapshot still shows every server's counts.  :func:`serve_totals`
reads the request, error, shed and batch totals back out of a
registry snapshot: one server's for its ``stats`` payload, or the
process registry's for a check that the two agree.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["serve_totals"]


def serve_totals(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Request/error/shed/batch totals out of a registry snapshot."""

    def _cells(family: str) -> Dict[str, float]:
        return snapshot.get("counters", {}).get(family, {})

    def _by_label(family: str) -> Dict[str, int]:
        return {
            label_repr.partition("=")[2]: int(value)
            for label_repr, value in sorted(_cells(family).items())
        }

    def _total(family: str) -> int:
        return int(sum(_cells(family).values()))

    batches = _total("serve.batches")
    batched = _total("serve.batched_requests")
    return {
        "requests_total": _total("serve.requests"),
        "requests_by_op": _by_label("serve.requests"),
        "errors_by_kind": _by_label("serve.errors"),
        "sheds_by_reason": _by_label("serve.sheds"),
        "shed_count": _total("serve.sheds"),
        "batches": batches,
        "batched_requests": batched,
        "coalesce_ratio": batched / batches if batches else 0.0,
    }
