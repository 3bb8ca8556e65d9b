"""Telemetry plane: metrics, tracing and exposition for the serve stack.

The observability counterpart to the fleet/scenario planes — see
:mod:`repro.obs.metrics` (counters, gauges, mergeable log-scaled latency
histograms), :mod:`repro.obs.trace` (per-event trace ids, ring-buffer
trace log, causal reconstruction), :mod:`repro.obs.telemetry` (the
per-engine bundle ``FleetEngine(telemetry=...)`` feeds) and
:mod:`repro.obs.expo` (Prometheus-text and JSON renderers).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.expo import (
        fleet_registry,
        render_json,
        render_prometheus,
        scenario_registry,
    )
    from repro.obs.metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry
    from repro.obs.telemetry import FleetTelemetry
    from repro.obs.trace import TraceLog, TraceRecord

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "FleetTelemetry",
    "TraceLog",
    "TraceRecord",
    "fleet_registry",
    "render_json",
    "render_prometheus",
    "scenario_registry",
]

# Resolved on first use (see repro._lazy): an instrumented fleet loads its
# metrics and trace log; the exposition renderers load at the first scrape.
_EXPORTS = {
    "repro.obs.expo": (
        "fleet_registry",
        "render_json",
        "render_prometheus",
        "scenario_registry",
    ),
    "repro.obs.metrics": ("Counter", "Gauge", "LatencyHistogram", "MetricsRegistry"),
    "repro.obs.telemetry": ("FleetTelemetry",),
    "repro.obs.trace": ("TraceLog", "TraceRecord"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
