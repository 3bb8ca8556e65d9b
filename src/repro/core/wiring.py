"""How a model's instances talk to each other: one wiring declaration.

The paper's deployment (§2.2, §4.3) runs one commit FSM per ongoing
update on each peer-set member: ``vote`` and ``commit`` go to the peers,
``free`` and ``not free`` only to *sibling* instances on the same
member, which is how a member serialises its one local vote.  A
:class:`Wiring` declares such interactions once per model, as data; the
storage system's ``GuidCommitEngine``, the peer-set checker and the
scenario plane each interpret it, and the sibling cascade is written
once, here (:meth:`Wiring.cascade`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ModelDefinitionError, SimulationError


@dataclass(frozen=True)
class Wiring:
    """One model's interaction declaration.

    * ``peers`` — ``(action, message, delay)`` triples: a fired
      ``action`` reaches every other member of the group as ``message``,
      ``delay`` units of virtual time later (commit: ``vote -> vote`` and
      ``commit -> commit``; the CT round: ``estimate -> ack``).  The
      storage system's simulated network brings its own latency and
      reads only the mapping.
    * ``siblings`` — the ``(claim, release)`` action pair sibling
      instances on one member exchange over the member's chooser slot,
      the one update it currently votes for (commit: ``not_free`` /
      ``free``).  See :meth:`cascade`.
    * ``on_create`` — the message a fresh instance receives when no
      sibling holds the slot (commit: ``free``, since ``could_choose``
      starts cleared).
    * ``timer`` — ``(message, delay)``: an instance sitting in one
      non-final state for ``delay`` units receives ``message`` (the CT
      round's ``suspect`` failure detector).
    * ``client`` — what a client sends each member, one delivery per
      entry (commit: one ``update``; CT: two ``estimate`` s).
    """

    peers: tuple[tuple[str, str, float], ...] = ()
    siblings: Optional[tuple[str, str]] = None
    on_create: Optional[str] = None
    timer: Optional[tuple[str, float]] = None
    client: tuple[str, ...] = ()

    def __post_init__(self):
        actions = [action for action, _message, _delay in self.peers]
        if len(set(actions)) != len(actions):
            raise ModelDefinitionError(f"peers names an action twice: {actions}")
        for _action, _message, delay in self.peers:
            if not (math.isfinite(delay) and delay >= 0):
                raise SimulationError(
                    f"route delay must be finite and >= 0, got {delay}"
                )
        delay = self.timer[1] if self.timer is not None else 1.0
        if not (math.isfinite(delay) and delay > 0):
            raise SimulationError(f"timer delay must be finite and > 0, got {delay}")

    @property
    def wire_messages(self) -> frozenset[str]:
        """Messages that cross the network: client requests and peer traffic."""
        return frozenset(self.client).union(m for _a, m, _d in self.peers)

    def cascade(self, action, me, chooser, instances, active, deliver):
        """Apply sibling ``action`` fired by instance ``me``; return the slot.

        ``chooser`` is the member's slot (``None`` when free) and
        ``instances`` its instance ids in creation order; ``active(i)``
        says whether instance ``i`` still takes part, and ``deliver(i,
        message, chooser)`` hands ``message`` to it and returns the slot
        after its reaction — a freed sibling may vote and claim.

        A claim takes the slot and reaches every active sibling.  A
        release frees the slot only if ``me`` holds it, then is offered
        to the active siblings in order until one of them claims.
        """
        claim, release = self.siblings
        if action == claim:
            chooser = me
            for other in instances:
                if other != me and active(other):
                    chooser = deliver(other, claim, chooser)
        elif action == release and chooser == me:
            chooser = None
            for other in instances:
                if chooser is not None:
                    break
                if other != me and active(other):
                    chooser = deliver(other, release, chooser)
        return chooser
