"""The per-state elaboration loop, kept as the oracle for ``Elaborator``.

This is step 2 as both engines ran it before the memo: every message's
handler runs on every (state, message) pair through a plain
``TransitionBuilder``, and ``is_final`` runs on a plain ``StateView`` per
vector.  It shares no code with ``repro.core.model.Elaborator`` beyond
the builder and view types, so agreement between the two is evidence
about the memo, not about a shared bug.

``ReferenceElaborator`` has the memo's interface, so a test swaps it in
for ``repro.core.pipeline.Elaborator`` (both engines build theirs there)
and compares the two machines.  O(states · messages) handler runs.
"""

from __future__ import annotations

from repro.core.errors import InvalidStateError
from repro.core.model import StateView, TransitionBuilder


class ReferenceElaborator:
    """``Elaborator`` without the memo: one handler run per pair."""

    def __init__(self, model):
        self._model = model
        self.elaborations = 0

    def is_final(self, vector: tuple) -> bool:
        return self._model.is_final(StateView(self._model.space, vector))

    def successors(self, vector: tuple):
        for message in self._model.messages:
            builder = TransitionBuilder(self._model.space, vector)
            self.elaborations += 1
            try:
                self._model.generate_transition(message, builder)
            except InvalidStateError:
                continue  # message not applicable in this state (Fig 10)
            if not builder.is_effective():
                continue  # no state change and no actions: not recorded
            yield (
                message,
                builder.vector,
                builder.actions,
                builder.recorded_annotations,
            )
