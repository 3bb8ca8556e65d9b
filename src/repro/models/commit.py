"""Abstract model of the ASA Byzantine-fault-tolerant commit protocol.

This is the paper's motivating example (§2.2, §3, Figs 9/10/14/20).  Each
peer-set member runs one FSM instance per ongoing update to a GUID's version
history.  The instance tracks seven variables (paper §3.1)::

    update_received   whether the client's update request has arrived
    votes_received    count of vote messages from other members   (0..r-1)
    vote_sent         whether this member has voted for the update
    commits_received  count of commit messages from other members (0..r-1)
    commit_sent       whether this member has sent its commit
    could_choose      whether a future update could be voted for
    has_chosen        whether *this* update was voted for locally

and reacts to five messages: ``update``, ``vote``, ``commit``, ``free`` and
``not_free`` (the last two are exchanged between sibling FSM instances on
the same node to serialise local voting).

Thresholds, for replication factor ``r`` tolerating ``f = floor((r-1)/3)``
Byzantine members:

* **vote threshold** ``2f+1`` on *total* votes (sent + received): once a
  candidate update has this many votes, every member agrees it is next, and
  a commit message is sent;
* **external commit threshold** ``f+1`` on commits received: the operation
  is finished once ``f+1`` members (beyond any local commit) have confirmed.

Calibrated semantics (see DESIGN.md §3): receiving the ``(f+1)``-th commit
performs the final actions and lands in a concrete *terminal* state with
``commits_received = f+1``; all states with ``commits_received >= f+1`` are
final and generate no outgoing transitions.  Voting does not clear the local
``could_choose`` flag — the ``not free`` action clears it on siblings.

With these semantics the generated family reproduces the paper's Table 1
exactly: 512 -> 48 -> 33 states for r=4, and merged sizes
``12 f^2 + 16 f + 5`` for every published (f, r) pair.
"""

from __future__ import annotations

from repro.core.components import BooleanComponent, IntComponent
from repro.core.errors import ModelDefinitionError
from repro.core.machine import StateMachine
from repro.core.model import AbstractModel, StateView, TransitionBuilder
from repro.core.wiring import Wiring

#: Message alphabet, in the paper's declaration order (Fig 20).
MESSAGES = ("update", "vote", "commit", "free", "not_free")

#: Smallest replication factor yielding a BFT algorithm (paper §3.1).
MIN_REPLICATION_FACTOR = 4


def fault_tolerance(replication_factor: int) -> int:
    """Maximum number of tolerated Byzantine members: ``floor((r-1)/3)``."""
    return (replication_factor - 1) // 3


class CommitModel(AbstractModel):
    """Generator for the family of commit-protocol FSMs.

    ``CommitModel(replication_factor=r).generate_state_machine()`` plays the
    role of the paper's ``new AbstractModel().generateStateMachine(r)``.
    """

    #: The deployed interactions (paper §2.2, §4.3): ``vote`` and ``commit``
    #: go to the peer set, ``free`` / ``not free`` only to sibling instances
    #: on the same member, a fresh instance is freed while no sibling holds
    #: the member's vote, and a client sends each member one ``update``.
    wiring = Wiring(
        peers=(("vote", "vote", 1.0), ("commit", "commit", 1.0)),
        siblings=("not_free", "free"),
        on_create="free",
        client=("update",),
    )

    def __init__(self, replication_factor: int):
        if replication_factor < MIN_REPLICATION_FACTOR:
            raise ModelDefinitionError(
                f"replication factor must be >= {MIN_REPLICATION_FACTOR} "
                f"(need r > 3f for Byzantine fault tolerance), got {replication_factor}"
            )
        super().__init__(replication_factor=replication_factor)
        self._r = replication_factor
        self._f = fault_tolerance(replication_factor)

    # ------------------------------------------------------------------
    # declaration (paper Fig 20)
    # ------------------------------------------------------------------

    def configure(self, *, replication_factor: int):
        components = [
            BooleanComponent("update_received"),
            IntComponent("votes_received", replication_factor - 1),
            BooleanComponent("vote_sent"),
            IntComponent("commits_received", replication_factor - 1),
            BooleanComponent("commit_sent"),
            BooleanComponent("could_choose"),
            BooleanComponent("has_chosen"),
        ]
        return components, MESSAGES

    # ------------------------------------------------------------------
    # thresholds
    # ------------------------------------------------------------------

    @property
    def replication_factor(self) -> int:
        """Number of peer-set members (``r``)."""
        return self._r

    @property
    def tolerated_faults(self) -> int:
        """Number of Byzantine members tolerated (``f``)."""
        return self._f

    @property
    def vote_threshold(self) -> int:
        """Total votes (sent + received) needed to agree on the update."""
        return 2 * self._f + 1

    @property
    def commit_threshold(self) -> int:
        """External commits needed before the operation is finished."""
        return self._f + 1

    def total_votes(self, view: StateView) -> int:
        """Votes received plus the local vote, if sent."""
        return view["votes_received"] + (1 if view["vote_sent"] else 0)

    def machine_name(self) -> str:
        return f"commit[r={self._r}]"

    # ------------------------------------------------------------------
    # finality
    # ------------------------------------------------------------------

    def is_final(self, view: StateView) -> bool:
        """Finished once the external commit threshold has been reached.

        The commit algorithm completes as soon as ``f+1`` commit messages
        have been received (paper §3.4), so every state at or beyond the
        threshold is terminal; step 4 merges the reachable ones into the
        single finish state.
        """
        return view["commits_received"] >= self.commit_threshold

    # ------------------------------------------------------------------
    # transition logic (paper Figs 9 and 10)
    # ------------------------------------------------------------------

    def generate_transition(self, message: str, b: TransitionBuilder) -> None:
        if message == "update":
            self._on_update(b)
        elif message == "vote":
            self._on_vote(b)
        elif message == "commit":
            self._on_commit(b)
        elif message == "free":
            self._on_free(b)
        elif message == "not_free":
            self._on_not_free(b)
        else:  # pragma: no cover - guarded by the pipeline's message loop
            b.invalid(f"unknown message {message!r}")

    def _on_update(self, b: TransitionBuilder) -> None:
        """Client update request arrives at this member."""
        if not b["update_received"]:
            b.set(
                "update_received", True, because="Received initial update from client."
            )
        if b["could_choose"] and not b["has_chosen"] and not b["vote_sent"]:
            self._vote(
                b, because="No other update is in progress, so vote for this one."
            )
            if self.total_votes(b) >= self.vote_threshold:
                self._commit_if_unsent(b)
            self._choose(b)

    def _on_vote(self, b: TransitionBuilder) -> None:
        """Vote message from another peer-set member."""
        b.increment("votes_received", because="Another member voted for this update.")
        if self.total_votes(b) >= self.vote_threshold:
            # Phase transition: vote threshold reached (paper Fig 10).
            if not b["vote_sent"]:
                if b["could_choose"]:
                    self._choose(b)
                self._vote(
                    b,
                    because=(
                        f"Vote threshold ({self.vote_threshold}) reached: "
                        "vote with the majority even though not chosen locally."
                    ),
                )
            self._commit_if_unsent(b)

    def _on_commit(self, b: TransitionBuilder) -> None:
        """Commit message from another peer-set member."""
        b.increment("commits_received", because="Another member committed this update.")
        if b["commits_received"] >= self.commit_threshold:
            # Finishing phase transition: ensure our own vote and commit are
            # out, release siblings if we chose this update, then terminate.
            if not b["vote_sent"]:
                self._vote(
                    b,
                    because=(
                        f"External commit threshold ({self.commit_threshold}) reached "
                        "before voting: catch up by voting now."
                    ),
                )
            self._commit_if_unsent(b)
            if b["has_chosen"]:
                b.send(
                    "free",
                    because="This update was chosen locally; free sibling instances.",
                )
            b.annotate("Operation finished: agreed ordering recorded.")

    def _on_free(self, b: TransitionBuilder) -> None:
        """A sibling instance released its claim on the local vote."""
        if b["vote_sent"] or b["has_chosen"]:
            return  # no effect once this instance has voted or chosen
        b.set("could_choose", True, because="No other update is in progress any more.")
        if b["update_received"]:
            self._vote(
                b, because="Update already received: vote for it now that we may."
            )
            if self.total_votes(b) >= self.vote_threshold:
                self._commit_if_unsent(b)
            self._choose(b)

    def _on_not_free(self, b: TransitionBuilder) -> None:
        """A sibling instance claimed the local vote for another update."""
        if b["vote_sent"] or b["has_chosen"]:
            return  # too late to affect this instance
        if b["could_choose"]:
            b.set(
                "could_choose",
                False,
                because="Another ongoing update has been voted for locally.",
            )

    # ------------------------------------------------------------------
    # shared elaboration steps (the paper's targetOnX() utilities)
    # ------------------------------------------------------------------

    def _vote(self, b: TransitionBuilder, because: str) -> None:
        """Send our vote to all other members (``targetOnVoteSent``)."""
        b.send("vote", because=because)
        b.set("vote_sent", True)

    def _commit_if_unsent(self, b: TransitionBuilder) -> None:
        """Send our commit if not already sent (``targetOnCommitSent``)."""
        if not b["commit_sent"]:
            b.send(
                "commit",
                because=(
                    f"Threshold reached (vote threshold {self.vote_threshold} or "
                    f"external commit threshold {self.commit_threshold}): send commit."
                ),
            )
            b.set("commit_sent", True)

    def _choose(self, b: TransitionBuilder) -> None:
        """Mark this update as locally chosen and notify sibling instances."""
        b.set("has_chosen", True)
        b.send(
            "not_free",
            because="This update is now the locally chosen one; block siblings.",
        )

    # ------------------------------------------------------------------
    # documentation (paper Fig 14 commentary, generated from annotations)
    # ------------------------------------------------------------------

    def describe_state(self, view: StateView) -> list[str]:
        lines: list[str] = []
        update_received = view["update_received"]
        votes_received = view["votes_received"]
        vote_sent = view["vote_sent"]
        commits_received = view["commits_received"]
        commit_sent = view["commit_sent"]
        could_choose = view["could_choose"]
        has_chosen = view["has_chosen"]

        if update_received:
            lines.append("Have received initial update from client.")
        else:
            lines.append("Have not yet received initial update from client.")

        if vote_sent:
            lines.append("Have voted for this update.")
        elif could_choose:
            lines.append("Have not yet voted for this update.")
        else:
            lines.append(
                "Have not voted since another update has already been voted for."
            )

        lines.append(
            f"Have received {_count_phrase(votes_received, 'vote')} "
            f"and {_count_phrase(commits_received, 'commit')}."
        )

        if commit_sent:
            lines.append("Have sent a commit.")
        else:
            lines.append(
                f"Have not sent a commit since neither the vote threshold "
                f"({self.vote_threshold}) nor the external commit threshold "
                f"({self.commit_threshold}) has been reached."
            )

        if could_choose:
            lines.append("May choose this update if it is received.")
        else:
            lines.append(
                "May not choose since another ongoing update has been voted for."
            )

        if has_chosen:
            lines.append("Have chosen this update as the locally selected one.")
        else:
            lines.append(
                "Have not chosen this update since another ongoing update has been chosen."
            )

        if self.is_final(view):
            lines.append("Finished: the external commit threshold has been reached.")
            return lines

        votes_needed = self.vote_threshold - self.total_votes(view)
        if not commit_sent and votes_needed > 0:
            lines.append(
                f"Waiting for {_number_word(votes_needed)} further "
                f"vote{'s' if votes_needed != 1 else ''} (including local vote if any) "
                f"before sending commit."
            )
        commits_needed = self.commit_threshold - commits_received
        lines.append(
            f"Waiting for {_number_word(commits_needed)} further external "
            f"commit{'s' if commits_needed != 1 else ''} to finish."
        )
        return lines


def _count_phrase(count: int, noun: str) -> str:
    """Render a message count the way Fig 14 does ("2 votes", "no commits")."""
    if count == 0:
        return f"no {noun}s"
    if count == 1:
        return f"1 {noun}"
    return f"{count} {noun}s"


def _number_word(n: int) -> str:
    """Small numbers as digits, matching the paper's Fig 14 text."""
    return str(n)


def generate_commit_machine(
    replication_factor: int, *, prune: bool = True, merge: bool = True
) -> StateMachine:
    """Convenience mirror of the paper's Fig 6 usage.

    Equivalent to ``CommitModel(replication_factor).generate_state_machine()``.
    """
    return CommitModel(replication_factor).generate_state_machine(
        prune=prune, merge=merge
    )
