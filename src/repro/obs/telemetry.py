"""The telemetry context a serve-plane engine feeds.

:class:`FleetTelemetry` bundles the pieces one instrumented fleet (and
any scenario engine fronting it) shares: a
:class:`~repro.obs.metrics.MetricsRegistry` holding the standard
instruments, and an optional :class:`~repro.obs.trace.TraceLog` for
event tracing.  ``FleetEngine(telemetry=FleetTelemetry())`` switches
instrumentation on; the default ``telemetry=None`` keeps every hot path
exactly as fast as before — all engine-side telemetry code is behind one
``is not None`` check.

The standard instruments:

``fleet_queue_latency_seconds``
    Per-event time from :meth:`~repro.serve.fleet.FleetEngine.post` to
    the drain that dispatched the event (mailbox wait).  Only posted
    traffic has a queue; direct arrival batches (``run``
    on unbounded fleets) never wait and are not observed here.
``fleet_batch_seconds`` / ``fleet_batch_events``
    Per-batch dispatch wall time and batch size — two clock reads and
    two histogram observations per *batch*, which is what keeps full
    telemetry affordable on the encoded path (the per-event loop is
    untouched).  The size histogram's ``_count`` and ``_sum`` are the
    batch and event totals, so no separate counters repeat them.

Sharding/merging: give each worker engine its own ``FleetTelemetry`` and
fold them together with ``combined.registry.merge(worker.registry)`` —
the histograms share one layout, so the merge is exact.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import DEFAULT_CAPACITY, TraceLog

__all__ = ["FleetTelemetry"]


class FleetTelemetry:
    """Registry + optional trace log + the instruments the fleet feeds."""

    __slots__ = (
        "registry",
        "trace",
        "queue_latency",
        "batch_seconds",
        "batch_events",
    )

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracing: bool = True,
        trace_capacity: int = DEFAULT_CAPACITY,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace: Optional[TraceLog] = (
            TraceLog(trace_capacity) if tracing else None
        )
        self.queue_latency = self.registry.histogram(
            "fleet_queue_latency_seconds",
            "per-event mailbox wait: post() to the drain that dispatched it",
        )
        self.batch_seconds = self.registry.histogram(
            "fleet_batch_seconds",
            "wall time of one batch dispatch pass",
        )
        self.batch_events = self.registry.histogram(
            "fleet_batch_events",
            "events dispatched per batch",
            lo=1.0,
            hi=1_048_576.0,
            factor=4.0,
        )

    def observe_batch(self, events: int, seconds: float) -> None:
        """Record one dispatch pass: O(1) regardless of batch size."""
        self.batch_seconds.observe(seconds)
        self.batch_events.observe(events)

    def as_dict(self) -> dict:
        """Registry contents plus trace-log occupancy (artifact form)."""
        out = self.registry.as_dict()
        if self.trace is not None:
            out["trace"] = {
                "records": len(self.trace),
                "dropped": self.trace.dropped,
                "next_id": self.trace.next_id,
            }
        return out
