"""The "original algorithm": the non-FSM baseline (paper §3.1–3.2).

Before the FSM formulation existed, the commit protocol was "a single
generic algorithm ... parameterised by the replication factor" — one state,
many variables.  This module implements that algorithm directly, with the
same driving protocol as the generated machines (``receive`` /
``get_state`` / ``is_finished`` / ``sent``), for two purposes:

* **differential testing** — on any message trace, the generic algorithm
  and every generated FSM (interpreted or compiled) must perform the same
  actions and visit the same encoded states;
* **the §4.4 runtime comparison** the paper left unmeasured ("We have not
  yet compared the execution efficiency of a running FSM implementation
  with that of a non-FSM solution") — see the §4.4 section of
  ``scripts/run_experiments.py``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Optional

from repro.core.errors import ModelDefinitionError
from repro.models.commit import MIN_REPLICATION_FACTOR, MESSAGES, fault_tolerance

#: State name used once the algorithm has completed, matching the merged FSM.
FINISHED_NAME = "FINISHED"


class GenericCommitAlgorithm:
    """Variable-based implementation of the BFT commit protocol."""

    def __init__(
        self,
        replication_factor: int,
        sink: Optional[Callable[[str], None]] = None,
    ):
        if replication_factor < MIN_REPLICATION_FACTOR:
            raise ModelDefinitionError(
                f"replication factor must be >= {MIN_REPLICATION_FACTOR}, "
                f"got {replication_factor}"
            )
        self._r = replication_factor
        self._f = fault_tolerance(replication_factor)
        self._vote_threshold = 2 * self._f + 1
        self._commit_threshold = self._f + 1
        self._sink = sink
        self.sent: list[str] = []

        # The seven variables of paper §3.1.
        self.update_received = False
        self.votes_received = 0
        self.vote_sent = False
        self.commits_received = 0
        self.commit_sent = False
        self.could_choose = False
        self.has_chosen = False
        self._finished = False

    # ------------------------------------------------------------------
    # driving protocol (same as generated machines)
    # ------------------------------------------------------------------

    @property
    def replication_factor(self) -> int:
        """Peer-set size ``r``."""
        return self._r

    def is_finished(self) -> bool:
        """Whether the operation has completed."""
        return self._finished

    def get_state(self) -> str:
        """Encoded state name, comparable with the unmerged FSM's names."""
        if self._finished:
            return FINISHED_NAME
        flags = [
            self.update_received,
            None,
            self.vote_sent,
            None,
            self.commit_sent,
            self.could_choose,
            self.has_chosen,
        ]
        parts = []
        for index, flag in enumerate(flags):
            if index == 1:
                parts.append(str(self.votes_received))
            elif index == 3:
                parts.append(str(self.commits_received))
            else:
                parts.append("T" if flag else "F")
        return "/".join(parts)

    def vector_name(self) -> str:
        """Encoded variable values even when finished (for pruned-FSM diffs)."""
        saved, self._finished = self._finished, False
        try:
            return self.get_state()
        finally:
            self._finished = saved

    def receive(self, message: str) -> bool:
        """Process a message; returns ``True`` if it had any effect."""
        if message not in MESSAGES:
            raise ValueError(f"unknown message {message!r}")
        if self._finished:
            return False
        handler = getattr(self, f"_on_{message}")
        return handler()

    def run(self, messages: list[str]) -> list[str]:
        """Feed a message sequence; returns the actions it performed."""
        before = len(self.sent)
        for message in messages:
            self.receive(message)
        return self.sent[before:]

    # ------------------------------------------------------------------
    # the algorithm (paper Fig 9, normalised as in DESIGN.md §3)
    # ------------------------------------------------------------------

    def _total_votes(self) -> int:
        return self.votes_received + (1 if self.vote_sent else 0)

    def _send(self, action: str) -> None:
        self.sent.append(action)
        if self._sink is not None:
            self._sink(action)

    def _send_vote(self) -> None:
        self._send("vote")
        self.vote_sent = True

    def _send_commit_if_unsent(self) -> None:
        if not self.commit_sent:
            self._send("commit")
            self.commit_sent = True

    def _choose(self) -> None:
        self.has_chosen = True
        self._send("not_free")

    def _on_update(self) -> bool:
        changed = False
        if not self.update_received:
            self.update_received = True
            changed = True
        if self.could_choose and not self.has_chosen and not self.vote_sent:
            self._send_vote()
            if self._total_votes() >= self._vote_threshold:
                self._send_commit_if_unsent()
            self._choose()
            changed = True
        return changed

    def _on_vote(self) -> bool:
        if self.votes_received == self._r - 1:
            return False  # message not applicable: counter at maximum
        self.votes_received += 1
        if self._total_votes() >= self._vote_threshold:
            if not self.vote_sent:
                if self.could_choose:
                    self._choose()
                self._send_vote()
            self._send_commit_if_unsent()
        return True

    def _on_commit(self) -> bool:
        self.commits_received += 1
        if self.commits_received >= self._commit_threshold:
            if not self.vote_sent:
                self._send_vote()
            self._send_commit_if_unsent()
            if self.has_chosen:
                self._send("free")
            self._finished = True
        return True

    def _on_free(self) -> bool:
        if self.vote_sent or self.has_chosen:
            return False
        self.could_choose = True
        if self.update_received:
            self._send_vote()
            if self._total_votes() >= self._vote_threshold:
                self._send_commit_if_unsent()
            self._choose()
        return True

    def _on_not_free(self) -> bool:
        if self.vote_sent or self.has_chosen:
            return False
        if not self.could_choose:
            return False  # already blocked: no observable effect
        self.could_choose = False
        return True
