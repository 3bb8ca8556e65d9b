"""Discrete-event simulation kernel.

The substrate under the simulated ASA storage system (paper §2): a
deterministic event loop with virtual time, seeded randomness and trace
counters.  Determinism matters — every experiment in this reproduction is
replayable from its seed, which is what lets the commit protocol's
agreement and deadlock behaviour be asserted in tests rather than observed
anecdotally.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import SimulationError


@dataclass(order=True)
class _Scheduled:
    """A scheduled callback; ordering is (time, sequence) for determinism."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class Timer:
    """Handle to a scheduled event, supporting cancellation."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _Scheduled):
        self._entry = entry

    @property
    def time(self) -> float:
        """Virtual time at which the event fires."""
        return self._entry.time

    @property
    def active(self) -> bool:
        """Whether the event is still pending."""
        return not self._entry.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self._entry.cancelled = True


class Simulator:
    """Deterministic discrete-event simulator with virtual time."""

    def __init__(self, seed: int = 0):
        self._queue: list[_Scheduled] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._rng = random.Random(seed)
        self._seed = seed
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def rng(self) -> random.Random:
        """The simulation's seeded random stream."""
        return self._rng

    @property
    def seed(self) -> int:
        """Seed the simulation was created with."""
        return self._seed

    def new_rng(self, label: str) -> random.Random:
        """An independent random stream derived from the seed and a label.

        Components that draw randomness on their own schedules use split
        streams so adding one component does not perturb another's draws.
        """
        return random.Random(f"{self._seed}:{label}")

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> Timer:
        """Run ``action`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        entry = _Scheduled(self._now + delay, next(self._seq), action)
        heapq.heappush(self._queue, entry)
        return Timer(entry)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Timer:
        """Run ``action`` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, action)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns ``False`` when the queue is empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.cancelled:
                continue
            if entry.time < self._now:
                raise SimulationError("event queue went backwards in time")
            self._now = entry.time
            self.events_processed += 1
            entry.action()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> None:
        """Run until the queue empties, ``until`` time passes, or event budget ends."""
        processed = 0
        while self._queue:
            if until is not None and self._next_time() > until:
                self._now = until
                return
            if processed >= max_events:
                raise SimulationError(
                    f"exceeded event budget of {max_events} events — livelock?"
                )
            self.step()
            processed += 1
        if until is not None and until > self._now:
            self._now = until

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        max_events: int = 1_000_000,
    ) -> bool:
        """Run until ``predicate()`` holds; returns whether it did in time."""
        deadline = self._now + timeout
        processed = 0
        while not predicate():
            if not self._queue or self._next_time() > deadline:
                self._now = min(deadline, self._now if not self._queue else self._now)
                return predicate()
            if processed >= max_events:
                raise SimulationError(
                    f"exceeded event budget of {max_events} events — livelock?"
                )
            self.step()
            processed += 1
        return True

    def _next_time(self) -> float:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        if not self._queue:
            return float("inf")
        return self._queue[0].time

    def next_time(self) -> float:
        """Virtual time of the next pending event (``inf`` when idle).

        Cancelled entries at the head of the heap are discarded on the
        way, so peeking is also a partial cleanup.
        """
        return self._next_time()

    def pending_events(self) -> int:
        """Number of scheduled, uncancelled events."""
        return sum(1 for entry in self._queue if not entry.cancelled)

    # ------------------------------------------------------------------
    # reuse
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Return to virtual time zero with an empty queue.

        Every scheduled entry — live or cancelled — is discarded, the
        clock and the processed-event counter rewind, and the primary
        random stream is re-seeded, so a reset simulator replays exactly
        like a freshly constructed one with the same seed.  Streams
        already handed out by :meth:`new_rng` are unaffected (they are
        derived from the seed, not from this object).
        """
        self._queue.clear()
        self._seq = itertools.count()
        self._now = 0.0
        self._rng = random.Random(self._seed)
        self.events_processed = 0
