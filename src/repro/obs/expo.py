"""Exposition: render a metrics registry as Prometheus text or JSON.

One registry, two audiences.  :func:`render_prometheus` emits the
Prometheus text exposition format (``# TYPE``/``# HELP`` headers,
cumulative ``_bucket{le="..."}`` series, ``_sum``/``_count``) so the
output of ``--metrics prom`` or the gateway's ``/metrics`` can be
scraped or pasted into any Prometheus-aware tool; :func:`render_json` emits the same
registry as the JSON object ``--metrics json`` prints.

There is nothing to translate: a fleet's counters, gauges and histograms
already live in its one registry (``fleet.telemetry_registry()``), so a
caller renders that registry, merged with the gateway's or a scenario
engine's through :meth:`~repro.obs.metrics.MetricsRegistry.merge`.
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry

__all__ = ["render_prometheus", "render_json"]


def _format_value(value: float) -> str:
    """A float in Prometheus text form (integral values without the dot)."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, counter in sorted(registry.counters.items()):
        if counter.help:
            lines.append(f"# HELP {name} {counter.help}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_format_value(counter.value)}")
    for name, gauge in sorted(registry.gauges.items()):
        if gauge.help:
            lines.append(f"# HELP {name} {gauge.help}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(gauge.value)}")
    for name, hist in sorted(registry.histograms.items()):
        if hist.help:
            lines.append(f"# HELP {name} {hist.help}")
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            lines.append(
                f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
            )
        cumulative += hist.counts[-1]
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {repr(hist.total)}")
        lines.append(f"{name}_count {hist.count}")
    return "\n".join(lines) + "\n"


def render_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """The registry as a JSON document (the ``--metrics json`` form)."""
    return json.dumps(registry.as_dict(), indent=indent)
