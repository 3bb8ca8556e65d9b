"""What a fleet counts: declared once, in the fleet's one registry.

Every fleet owns one :class:`~repro.obs.metrics.MetricsRegistry`, and
this module is the only place that names what it counts.
:class:`FleetMetrics` declares the ``fleet_*_total`` counters there with
their ``# HELP`` text, in the order a worker's reply carries them as a
flat int tuple, and is the read-only live view ``fleet.metrics`` and
``run()`` return.  :class:`QueueDepths` feeds the two depth gauges.
Counting code bumps the counters themselves
(:meth:`~repro.obs.metrics.CounterView.handles`) once per batch, not per
event, so the hot dispatch loops stay tight.
"""

from __future__ import annotations

from repro.obs.metrics import CounterView, MetricsRegistry


class FleetMetrics(CounterView):
    """Read-only live view of one fleet's counters and queue depths."""

    __slots__ = ("_depths",)
    PREFIX = "fleet_"
    COUNTERS = (
        ("events_offered", "events accepted for dispatch: posted or in a run batch"),
        ("events_dispatched", "events dispatched from a queue or a run batch"),
        ("transitions_fired", "dispatched events that fired a transition"),
        ("events_ignored", "dispatched events with no transition from their state"),
        ("batches_drained", "non-empty batches dispatched: queue drains, run batches"),
        ("instances_spawned", "instances created by spawn"),
        ("instances_recycled", "instances returned to the start state by reset()"),
        ("instances_released", "instances removed by despawn"),
        ("snapshots_taken", "fleet-wide snapshots taken"),
        ("snapshots_restored", "fleet-wide snapshots restored"),
    )

    def __init__(self, registry: MetricsRegistry, depths: "QueueDepths"):
        super().__init__(registry)
        self._depths = depths

    @property
    def shard_depths(self) -> list[int]:
        """Each queue's depth at its last drain, by queue id (read only)."""
        return self._depths.last

    @property
    def peak_shard_depth(self) -> int:
        return self._depths.peak.value

    def as_dict(self) -> dict:
        return super().as_dict() | {
            "shard_depths": list(self._depths.last),
            "peak_shard_depth": self.peak_shard_depth,
        }


class QueueDepths:
    """Each dispatch queue's depth at its last drain, and the gauges it
    feeds: ``fleet_shard_depth_max``, the deepest of those, and
    ``fleet_shard_depth_peak``, the deepest ever drained.

    In-process there is one queue, the engine's; a multiprocess fleet has
    one per worker, the parent's pending buffer for it, where posted
    traffic waits.  ``last`` grows to the highest queue drained.
    """

    __slots__ = ("last", "deepest", "peak")

    def __init__(self, registry: MetricsRegistry):
        self.last: list[int] = []
        gauge = registry.gauge
        self.deepest = gauge("fleet_shard_depth_max", "deepest queue at its last drain")
        self.peak = gauge("fleet_shard_depth_peak", "deepest queue ever drained")
        self.deepest.value = self.peak.value = 0

    def drained(self, queue: int, depth: int) -> None:
        """Record the depth of one queue's drained batch."""
        last = self.last
        if queue >= len(last):
            last.extend([0] * (queue + 1 - len(last)))
        last[queue] = depth
        self.deepest.value = max(last)
        if depth > self.peak.value:
            self.peak.value = depth
