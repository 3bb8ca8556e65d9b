"""Columnar, slot-indexed storage of machine-instance state.

Instances are interned to dense integer *slots* at spawn time: the
``slot_of`` dict (key -> slot) is the only string-keyed structure, and it
is consulted once per event at intake (and at spawn and release) — never
inside a dispatch loop, which indexes the flat columns directly by slot.
The columns are parallel arrays:

* ``states[slot]``    — current state, premultiplied by the message-alphabet
  width, so a jump-array offset is one addition
  (``states[slot] + column``).  A flat dense list, deliberately not an
  ``array('i')``: the premultiplied values are small ints CPython caches
  anyway, and ``array.__getitem__``/``__setitem__`` box/unbox on every
  access — measured at 25-40% of the whole dispatch loop at 10k
  instances, far more than the 4-byte-vs-pointer density buys;
* ``logs[slot]``      — the performed-action log as a list of per-transition
  action *chunks* (``log_policy="full"``), or ``None`` when the store does
  not retain logs (``"off"``);
* ``backends[slot]``  — the backing interpreter/compiled instance, present
  only when the owning fleet dispatches in ``naive`` mode;
* ``key_of[slot]``    — the session key owning the slot (``None`` while the
  slot sits on the free list).

A store holds one partition whole: ``slot_of`` is its membership, in
spawn order (:meth:`InstanceStore.keys`).  Worker processes partition
keys by :func:`shard_of`, a *stable* CRC-32 (not Python's
per-process-randomised ``hash``), so a key always routes to the same
worker — across calls, fleet rebuilds and processes.

Released slots go on a free list and are reused by the next spawn, so a
long-lived fleet with session churn keeps its columns dense; reuse always
reinitialises the slot's state, log and backend columns — a recycled
slot never leaks its previous occupant's action log.

Snapshots capture ``(key, state name, action log)`` per instance — enough
to rebuild an equivalent fleet on either backend for recycling/failover.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import DeploymentError

#: Action-log retention policies.  ``full`` keeps every action chunk (the
#: only policy under which traces, snapshots and differential comparison
#: work); ``off`` keeps nothing — the hot loop does no per-event log
#: mutation at all.
LOG_POLICIES = ("full", "off")


def shard_of(key: str, shards: int) -> int:
    """Stable CRC-32 bucket of a session key among ``shards`` buckets."""
    return zlib.crc32(key.encode("utf-8")) % shards


def session_keys(count: int, prefix: str = "session") -> list[str]:
    """The canonical key naming used by ``FleetEngine.spawn_many``."""
    return [f"{prefix}-{i:07d}" for i in range(count)]


@dataclass(frozen=True)
class InstanceSnapshot:
    """Portable state of one instance: enough to restore it anywhere."""

    key: str
    state: str
    actions: tuple[str, ...]


class InstanceStore:
    """All instances of one fleet partition: columnar slot state."""

    def __init__(
        self,
        start: int,
        log_policy: str = "full",
        vector: bool = False,
    ):
        if log_policy not in LOG_POLICIES:
            raise DeploymentError(
                f"unknown log policy {log_policy!r}; choose from {LOG_POLICIES}"
            )
        #: The start state, premultiplied by the alphabet width.
        self._start = start
        self.log_policy = log_policy
        #: Whether ``states`` is a numpy-backed :class:`StateColumn` (the
        #: vector kernel gathers/scatters against its flat buffer) rather
        #: than a plain list.  Scalar access semantics are identical.
        self.vector = vector
        #: key -> slot intern table (consulted at spawn/route time only).
        self.slot_of: dict[str, int] = {}
        #: slot -> key (``None`` while the slot is on the free list).
        self.key_of: list[Optional[str]] = []
        #: Premultiplied state per slot (dense list — see module docstring
        #: — or a :class:`StateColumn` for vector fleets).
        self.states = self._new_states()
        #: Action-log column (``full``; ``None`` entries under ``off``).
        self.logs: list[Optional[list]] = []
        #: Backend objects (naive-mode fleets only).
        self.backends: list = []
        #: Released slots awaiting reuse (LIFO keeps the columns dense).
        self.free_slots: list[int] = []

    def _new_states(self):
        """A fresh, empty states column in this store's representation."""
        if self.vector:
            from repro.serve.vector import StateColumn

            return StateColumn()
        return []

    def __len__(self) -> int:
        return len(self.slot_of)

    def __contains__(self, key: str) -> bool:
        return key in self.slot_of

    def spawn(self, key: str, backend=None) -> int:
        """Create an instance at the start state; returns its slot.

        A freed slot is reused when available; every column of the slot
        is reinitialised, so reuse can never leak the previous
        occupant's state, action log or backend.
        """
        if key in self.slot_of:
            raise DeploymentError(f"instance {key!r} already exists")
        log = [] if self.log_policy == "full" else None
        if self.free_slots:
            slot = self.free_slots.pop()
            self.key_of[slot] = key
            self.states[slot] = self._start
            self.logs[slot] = log
            self.backends[slot] = backend
        else:
            slot = len(self.key_of)
            self.key_of.append(key)
            self.states.append(self._start)
            self.logs.append(log)
            self.backends.append(backend)
        self.slot_of[key] = slot
        return slot

    def slot(self, key: str) -> int:
        """The slot of an existing key (:class:`DeploymentError` otherwise)."""
        try:
            return self.slot_of[key]
        except (KeyError, TypeError):
            raise DeploymentError(f"unknown instance {key!r}") from None

    def release(self, key: str) -> int:
        """Remove an instance; its slot joins the free list for reuse."""
        slot = self.slot(key)
        del self.slot_of[key]
        self.key_of[slot] = None
        self.logs[slot] = None
        self.backends[slot] = None
        self.free_slots.append(slot)
        return slot

    def keys(self) -> list[str]:
        """All session keys in spawn order (a respawned key comes last)."""
        return list(self.slot_of)

    def clear(self) -> None:
        """Drop every instance and every recycled slot (used by restore)."""
        self.slot_of.clear()
        self.key_of = []
        self.states = self._new_states()
        self.logs = []
        self.backends = []
        self.free_slots = []
