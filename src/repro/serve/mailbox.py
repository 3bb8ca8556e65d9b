"""Bounded per-shard event queues with explicit overflow policy.

Each shard of the fleet owns one :class:`Mailbox`.  Producers ``offer``
events — pre-interned ``(slot, column)`` int pairs, which the fleet
translates at intake so the drain loop never hashes a string — and the
engine drains a whole mailbox in one pass.  Overflow is a first-class
outcome, not an exception path: a bounded mailbox either **sheds** the
new event (drop and count — load shedding for best-effort traffic) or
**blocks** the producer (refuses the offer so the caller must drain
before retrying — the synchronous analogue of a blocking put).
"""

from __future__ import annotations

import enum
from typing import Optional


class OverflowPolicy(enum.Enum):
    """What a full mailbox does with the next offered event."""

    #: Drop the newly offered event and count it in :attr:`Mailbox.dropped`.
    SHED = "shed"
    #: Refuse the offer (``offer`` returns ``False``) without counting a
    #: drop; the producer is expected to drain the shard and retry.
    BLOCK = "block"


class Mailbox:
    """FIFO event queue with an optional capacity bound.

    ``capacity=None`` means unbounded (no backpressure).  Events are
    arbitrary tuples; the fleet enqueues ``(slot, column)``.
    """

    __slots__ = ("_queue", "capacity", "policy", "dropped", "offered", "by_source")

    def __init__(
        self,
        capacity: Optional[int] = None,
        policy: OverflowPolicy = OverflowPolicy.SHED,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._queue: list = []
        self.capacity = capacity
        self.policy = policy
        self.dropped = 0
        self.offered = 0
        #: Accepted-offer tally per provenance tag (``external`` /
        #: ``routed`` / ``timer`` — whatever the producer passes).
        #: Untagged offers are not tallied; the scenario plane tags
        #: every enqueue so timed and routed traffic stays attributable
        #: per shard.
        self.by_source: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        """Whether the next offer would overflow."""
        return self.capacity is not None and len(self._queue) >= self.capacity

    def offer(self, event, source: Optional[str] = None) -> bool:
        """Enqueue ``event``; returns whether it was accepted.

        On overflow, ``SHED`` counts the event as dropped and returns
        ``False``; ``BLOCK`` returns ``False`` without counting, signalling
        the producer to drain and retry.  ``source`` tags the accepted
        offer's provenance in :attr:`by_source`.
        """
        if self.capacity is not None and len(self._queue) >= self.capacity:
            if self.policy is OverflowPolicy.SHED:
                self.dropped += 1
            return False
        self._queue.append(event)
        self.offered += 1
        if source is not None:
            self.by_source[source] = self.by_source.get(source, 0) + 1
        return True

    def drain(self) -> list:
        """Remove and return all queued events in arrival order."""
        batch = self._queue
        self._queue = []
        return batch
