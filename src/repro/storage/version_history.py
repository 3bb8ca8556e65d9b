"""Peer-side commit engine: generated FSMs deployed in a live node.

This module is where the paper's generated artefacts meet its distributed
system (§2.2, §4.3): each peer-set member runs **one generated FSM instance
per ongoing update** to a GUID's version history.  The engine

* creates instances on first contact with an update (whether that contact
  is the client's ``update`` request or an early ``vote`` from a faster
  peer — the FSM family handles both orders);
* interprets the model's :class:`~repro.core.wiring.Wiring`: peer actions
  (``vote`` / ``commit``) become outgoing network messages via a callback,
  and the sibling pair (``free`` / ``not free``) runs the wiring's cascade
  between instances of the same GUID, which is how a member serialises
  its vote among competing updates;
* records an update into the member's local history when its instance
  reaches the finish state;
* implements the timeout/abandon rule the paper's "timeout/retry scheme"
  implies: a contended instance that cannot finish is eventually abandoned
  so the member can vote for a client's retry, and a *commit catch-up* rule
  (adopting an update once ``f+1`` commits prove a correct member committed
  it) keeps abandoning members convergent with committing ones.

The FSM class itself is produced by
:func:`repro.runtime.compile.compile_machine` from the
:class:`~repro.models.commit.CommitModel` — the deployed code path is the
generated one, not a hand-written re-implementation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, Optional

from repro.models.commit import CommitModel, fault_tolerance
from repro.runtime.actions import CallbackActions
from repro.runtime.cache import GeneratedCodeCache
from repro.runtime.compile import CompiledMachine, compile_machine

#: Process-wide cache of compiled commit machines, keyed by replication
#: factor (paper §4.2's caching generation policy: every simulated node
#: with the same r shares one generated class).
_MACHINE_CACHE = GeneratedCodeCache(max_entries=16)

_WIRING = CommitModel.wiring
#: Peer action -> the message peers receive (the network has its own delays).
_SENDS = {action: message for action, message, _delay in _WIRING.peers}
_RELEASE = _WIRING.siblings[1]


def commit_machine_for(replication_factor: int) -> CompiledMachine:
    """The compiled generated commit machine for a replication factor."""
    return _MACHINE_CACHE.get_or_generate(
        replication_factor,
        lambda: compile_machine(
            CommitModel(replication_factor).generate_state_machine(),
            action_base=CallbackActions,
            include_commentary=False,
        ),
    )


@dataclass
class VersionRecord:
    """One committed entry in a GUID's version history."""

    update_id: str
    pid_hex: str

    def as_tuple(self) -> tuple[str, str]:
        """Hashable form used for cross-node agreement checks."""
        return (self.update_id, self.pid_hex)


@dataclass
class UpdateInstance:
    """Book-keeping for one FSM instance on one member."""

    update_id: str
    machine: Any
    pid_hex: Optional[str] = None
    abandoned: bool = False
    committed: bool = False
    commits_seen: int = 0
    last_activity: float = 0.0

    @property
    def active(self) -> bool:
        """Whether the instance still participates in the protocol."""
        return not self.abandoned and not self.machine.is_finished()


class GuidCommitEngine:
    """All commit-protocol state one member holds for one GUID."""

    def __init__(
        self,
        replication_factor: int,
        send: Callable[[str, str], None],
        now: Callable[[], float],
        on_commit: Callable[[VersionRecord], None],
    ):
        """``send(kind, update_id)`` broadcasts a protocol message to the
        other peer-set members; ``on_commit`` records a finished update."""
        self._r = replication_factor
        self._f = fault_tolerance(replication_factor)
        self._send = send
        self._now = now
        self._on_commit = on_commit
        self._instances: dict[str, UpdateInstance] = {}
        self._chooser: Optional[str] = None
        self.history: list[VersionRecord] = []
        self._committed_ids: set[str] = set()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def chooser(self) -> Optional[str]:
        """Update id currently holding this member's local vote, if any."""
        return self._chooser

    def instance(self, update_id: str) -> Optional[UpdateInstance]:
        """The instance for an update id, if one exists."""
        return self._instances.get(update_id)

    # ------------------------------------------------------------------
    # message entry points
    # ------------------------------------------------------------------

    def handle(self, kind: str, update_id: str, pid_hex: Optional[str] = None) -> None:
        """Feed a protocol message (``update`` / ``vote`` / ``commit``)."""
        instance = self._ensure_instance(update_id)
        if pid_hex is not None and instance.pid_hex is None:
            instance.pid_hex = pid_hex
        if kind == "commit":
            instance.commits_seen += 1
        if instance.abandoned or update_id in self._committed_ids:
            self._catch_up(instance)
            return
        instance.last_activity = self._now()
        instance.machine.receive(kind)
        self._after_receive(instance)

    def _ensure_instance(self, update_id: str) -> UpdateInstance:
        instance = self._instances.get(update_id)
        if instance is not None:
            return instance
        instance = UpdateInstance(
            update_id=update_id, machine=None, last_activity=self._now()
        )
        instance.machine = commit_machine_for(self._r).new_instance(
            lambda action: self._perform_action(instance, action)
        )
        self._instances[update_id] = instance
        # A fresh instance may choose only if no sibling holds the local
        # vote: the hosting member delivers the wiring's creation message.
        if self._chooser is None:
            instance.machine.receive(_WIRING.on_create)
        return instance

    # ------------------------------------------------------------------
    # FSM actions, interpreted through the model's wiring
    # ------------------------------------------------------------------

    def _perform_action(self, instance: UpdateInstance, action: str) -> None:
        message = _SENDS.get(action)
        if message is not None:
            self._send(message, instance.update_id)
        else:
            self._sibling_action(instance, action)

    def _sibling_action(self, instance: UpdateInstance, action: str) -> None:
        self._chooser = _WIRING.cascade(
            action,
            instance.update_id,
            self._chooser,
            list(self._instances),
            lambda update_id: self._instances[update_id].active,
            self._offer,
        )

    def _offer(self, update_id: str, message: str, chooser: Optional[str]):
        """Deliver a sibling message; return the slot after the reaction."""
        self._chooser = chooser
        sibling = self._instances[update_id]
        sibling.machine.receive(message)
        self._after_receive(sibling)
        return self._chooser

    # ------------------------------------------------------------------
    # commit recording
    # ------------------------------------------------------------------

    def _after_receive(self, instance: UpdateInstance) -> None:
        if instance.machine.is_finished() and not instance.committed:
            self._record(instance)

    def _record(self, instance: UpdateInstance) -> None:
        instance.committed = True
        if instance.update_id in self._committed_ids:
            return
        self._committed_ids.add(instance.update_id)
        record = VersionRecord(
            update_id=instance.update_id, pid_hex=instance.pid_hex or ""
        )
        self.history.append(record)
        self._on_commit(record)

    def _catch_up(self, instance: UpdateInstance) -> None:
        """Adopt an update once ``f+1`` commits prove a correct member did.

        An abandoned instance can no longer finish through its own FSM, but
        ``f+1`` commit messages imply at least one correct member committed
        the update; adopting it (and echoing a commit so that slower
        members can adopt too) keeps histories convergent.
        """
        if instance.update_id in self._committed_ids:
            return
        if instance.commits_seen >= self._f + 1:
            self._send("commit", instance.update_id)
            self._record(instance)

    # ------------------------------------------------------------------
    # abandonment (the member half of the paper's timeout/retry scheme)
    # ------------------------------------------------------------------

    def abandon_stalled(self, idle_timeout: float) -> list[str]:
        """Abandon active instances idle for longer than ``idle_timeout``.

        Returns the abandoned update ids.  Abandoning the chooser releases
        the local vote so a client retry (a fresh update id) can proceed —
        without this, one contention round would block a member's GUID
        forever (the deadlock the paper's §2.2 timeout/retry addresses).
        """
        now = self._now()
        stalled = [
            instance
            for instance in self._instances.values()
            if instance.active and now - instance.last_activity >= idle_timeout
        ]
        # Mark everything stalled *before* releasing any lock: releasing
        # frees siblings, and freeing a sibling that is itself stalled
        # would resurrect a stale contender and break vote serialisation.
        # Releasing an instance that does not hold the vote is a no-op.
        for instance in stalled:
            instance.abandoned = True
        for instance in stalled:
            self._sibling_action(instance, _RELEASE)
        return [instance.update_id for instance in stalled]

    def history_tuples(self) -> list[tuple[str, str]]:
        """The member's committed history as comparable tuples."""
        return [record.as_tuple() for record in self.history]
