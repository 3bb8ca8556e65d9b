"""The telemetry context a serve-plane engine feeds.

:class:`FleetTelemetry` bundles what one instrumented fleet (and any
scenario engine fronting it) adds to the fleet's own
:class:`~repro.obs.metrics.MetricsRegistry`: the three standard latency
histograms, and an optional :class:`~repro.obs.trace.TraceLog` for event
tracing.  ``FleetEngine(telemetry=FleetTelemetry())`` switches
instrumentation on: the engine attaches the context to its registry, so
the histograms sit beside the fleet's counters and one scrape reads
both.  The default ``telemetry=None`` keeps every hot path exactly as
fast as before — all engine-side telemetry code is behind one ``is not
None`` check.

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

Sharding/merging: each worker engine of a multiprocess fleet feeds its
own context, and the parent folds the workers' registries together with
:meth:`~repro.obs.metrics.MetricsRegistry.merge` — the histograms share
one layout, so the merge is exact.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import DeploymentError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import DEFAULT_CAPACITY, TraceLog

__all__ = ["FleetTelemetry"]


class FleetTelemetry:
    """Optional trace log + the histograms a fleet feeds, in its registry."""

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
        tracing: bool = True,
        trace_capacity: int = DEFAULT_CAPACITY,
    ):
        #: The registry of the fleet this context feeds (``None`` until
        #: a fleet attaches it).
        self.registry: Optional[MetricsRegistry] = None
        self.trace: Optional[TraceLog] = (
            TraceLog(trace_capacity) if tracing else None
        )

    def attach(self, registry: MetricsRegistry) -> None:
        """Declare the three histograms in one fleet's registry.

        A context feeds one fleet: attaching it to a second would leave
        the first fleet's batches counted in the second's registry.
        """
        if self.registry is not None:
            raise DeploymentError("this FleetTelemetry already feeds a fleet")
        self.registry = registry
        self.queue_latency = registry.histogram(
            "fleet_queue_latency_seconds",
            "per-event mailbox wait: post() to the drain that dispatched it",
        )
        self.batch_seconds = registry.histogram(
            "fleet_batch_seconds",
            "wall time of one batch dispatch pass",
        )
        self.batch_events = registry.histogram(
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
