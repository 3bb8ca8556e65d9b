"""Counter surface for the fleet execution plane.

A :class:`FleetMetrics` instance is owned by one
:class:`~repro.serve.fleet.FleetEngine` and mutated only on its thread;
counters are plain ints updated once per batch (not per event) so the hot
dispatch loop stays tight.  The dataclass is ``slots=True``: fleets at
10k+ instances poll metrics per batch, and a fixed layout keeps the
counter object small and its attribute access dict-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter


@dataclass(slots=True)
class FleetMetrics:
    """Aggregate counters for one fleet engine."""

    #: Events accepted for dispatch — into a shard queue by
    #: :meth:`FleetEngine.post`, or as part of a :meth:`FleetEngine.run`
    #: arrival batch.
    events_offered: int = 0
    #: Events dispatched, from a shard queue or a run batch (fired +
    #: ignored).
    events_dispatched: int = 0
    #: Dispatched events that fired a transition.
    transitions_fired: int = 0
    #: Dispatched events with no transition from the current state.
    events_ignored: int = 0
    #: Non-empty batches dispatched: shard-queue drains and run batches.
    batches_drained: int = 0
    #: Instances created by ``spawn``.
    instances_spawned: int = 0
    #: Instances returned to the start state via the ``reset()`` protocol.
    instances_recycled: int = 0
    #: Instances removed by ``despawn`` (their slots were freed for reuse).
    instances_released: int = 0
    #: Fleet-wide snapshots taken / restored.
    snapshots_taken: int = 0
    snapshots_restored: int = 0
    #: Queue depth per shard at its most recent observation.  The
    #: engine records each shard's depth automatically at every drain
    #: (the depth *being* drained), so these are live without any caller
    #: involvement; :meth:`observe_depths` remains for explicit polls.
    shard_depths: list[int] = field(default_factory=list)
    #: Deepest single-shard queue ever observed (high-water mark).
    peak_shard_depth: int = 0

    def observe_depth(self, shard_id: int, depth: int) -> None:
        """Record one shard's queue depth (called by the engine per drain)."""
        depths = self.shard_depths
        if shard_id >= len(depths):
            depths.extend([0] * (shard_id + 1 - len(depths)))
        depths[shard_id] = depth
        if depth > self.peak_shard_depth:
            self.peak_shard_depth = depth

    def observe_depths(self, depths: list[int]) -> None:
        """Record the current per-shard queue depths (a gauge, not a sum)."""
        self.shard_depths = list(depths)
        deepest = max(depths, default=0)
        if deepest > self.peak_shard_depth:
            self.peak_shard_depth = deepest

    def merge(self, other: "FleetMetrics") -> "FleetMetrics":
        """Fold another engine's counters into this one; returns ``self``.

        The multiprocess fleet aggregates its workers through here:
        counters add, ``shard_depths`` concatenates (each worker owns a
        disjoint shard range, so the merged list is the fleet-wide gauge
        vector) and ``peak_shard_depth`` takes the maximum.
        """
        self.events_offered += other.events_offered
        self.events_dispatched += other.events_dispatched
        self.transitions_fired += other.transitions_fired
        self.events_ignored += other.events_ignored
        self.batches_drained += other.batches_drained
        self.instances_spawned += other.instances_spawned
        self.instances_recycled += other.instances_recycled
        self.instances_released += other.instances_released
        self.snapshots_taken += other.snapshots_taken
        self.snapshots_restored += other.snapshots_restored
        self.shard_depths = self.shard_depths + list(other.shard_depths)
        if other.peak_shard_depth > self.peak_shard_depth:
            self.peak_shard_depth = other.peak_shard_depth
        return self

    def as_dict(self) -> dict:
        """All counters as a plain dict (for JSON artifacts and reports)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def as_tuple(self) -> tuple:
        """Every field's value in declaration order: ints, with
        ``shard_depths`` as its list.  The worker pipe carries this
        instead of the dataclass, which costs far more to pickle."""
        return _values(self)

    @classmethod
    def from_tuple(cls, values: tuple) -> "FleetMetrics":
        """The inverse of :meth:`as_tuple`."""
        return cls(*values)


_values = attrgetter(*(f.name for f in fields(FleetMetrics)))
