"""Exposition: render a metrics registry as Prometheus text or JSON.

One registry, two audiences.  :func:`render_prometheus` emits the
Prometheus text exposition format (``# TYPE``/``# HELP`` headers,
cumulative ``_bucket{le="..."}`` series, ``_sum``/``_count``) so the
output of ``--metrics prom`` or the gateway's ``/metrics`` can be
scraped or pasted into any Prometheus-aware tool; :func:`render_json` emits the same
registry as the JSON object ``--metrics json`` prints.

The builders assemble the registry for a given engine:
:func:`fleet_registry` folds a fleet's always-on
:class:`~repro.serve.metrics.FleetMetrics` counters together with its
optional :class:`~repro.obs.telemetry.FleetTelemetry` histograms;
:func:`scenario_registry` adds the scenario engine's
:class:`~repro.serve.scenario.ScenarioMetrics` on top, producing the one
merged blob ``serve-scenario`` emits.  Both duck-type their engine
argument (anything with a ``metrics.as_dict()``), so this module never
imports the serve plane.
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "render_prometheus",
    "render_json",
    "fleet_registry",
    "scenario_registry",
]


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


def fleet_registry(fleet) -> MetricsRegistry:
    """One registry covering a fleet: FleetMetrics + telemetry instruments.

    The fleet's dataclass counters become ``fleet_*_total`` counters
    (and its depth observations ``fleet_shard_depth_*`` gauges); when
    the fleet is instrumented, its telemetry histograms and counters are
    merged in unchanged — preferring the protocol-level
    ``telemetry_registry()`` accessor (a multiprocess fleet folds every
    worker's registry there), falling back to a ``telemetry`` attribute
    for duck-typed callers.
    """
    registry = MetricsRegistry()
    getter = getattr(fleet, "telemetry_registry", None)
    if callable(getter):
        worker_registry = getter()
        if worker_registry is not None:
            registry.merge(worker_registry)
    else:
        telemetry = getattr(fleet, "telemetry", None)
        if telemetry is not None:
            registry.merge(telemetry.registry)
    snapshot = fleet.metrics.as_dict()
    depths = snapshot.pop("shard_depths", [])
    peak = snapshot.pop("peak_shard_depth", 0)
    for name, value in snapshot.items():
        registry.counter(f"fleet_{name}_total").add(int(value))
    registry.gauge(
        "fleet_shard_depth_max", "deepest mailbox at its last drain"
    ).set(max(depths, default=0))
    registry.gauge(
        "fleet_shard_depth_peak", "deepest mailbox ever observed"
    ).set(peak)
    return registry


def scenario_registry(engine) -> MetricsRegistry:
    """One merged registry for a scenario run: scenario + fleet + telemetry."""
    registry = fleet_registry(engine.fleet)
    for name, value in engine.metrics.as_dict().items():
        registry.counter(f"scenario_{name}_total").add(int(value))
    return registry

