"""Telemetry plane: metrics, tracing and exposition for the serve stack.

The observability counterpart to the fleet/scenario planes — see
:mod:`repro.obs.metrics` (counters, gauges, mergeable log-scaled latency
histograms), :mod:`repro.obs.trace` (per-event trace ids, ring-buffer
trace log, causal reconstruction), :mod:`repro.obs.telemetry` (the
histograms and trace log ``FleetEngine(telemetry=...)`` adds to the
fleet's registry) and
:mod:`repro.obs.expo` (Prometheus-text and JSON renderers).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.expo import render_json, render_prometheus
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
    "render_json",
    "render_prometheus",
]

# Resolved on first use (see repro._lazy): an instrumented fleet loads its
# metrics and trace log; the exposition renderers load at the first scrape.
_EXPORTS = {
    "repro.obs.expo": ("render_json", "render_prometheus"),
    "repro.obs.metrics": ("Counter", "Gauge", "LatencyHistogram", "MetricsRegistry"),
    "repro.obs.telemetry": ("FleetTelemetry",),
    "repro.obs.trace": ("TraceLog", "TraceRecord"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
