"""Exhaustive model checking of a whole peer set of generated FSMs.

The paper argues the state-machine family "formalises the interactions
between the components of the distributed system, allowing increased
confidence in correctness" (§1).  This module delivers on that claim at
system level: it explores interleavings of message deliveries among the
``r`` FSM instances of a peer set, using the generated machine's
transition table as pure data.

Scenarios:

* :func:`check_single_update` — one client update, optionally with some
  members silent (Byzantine by omission).  Exhaustive: verifies that
  **every** maximal execution ends with all correct members finished
  (agreement + inevitable termination) when at most ``f`` members are
  silent — and exhibits the deadlock when more are.
* :func:`check_contending_updates` — §2.2's contention: two updates
  arriving first at opposite halves of the peer set.  Classifies every
  quiescent outcome per update as committed-everywhere / nowhere /
  **partial** (a safety violation, asserted absent) and counts deadlocks,
  turning "the algorithm may deadlock" into a checked, quantified fact.

Exploration is depth-first over system states
``(machine states, chooser slots, pending message bags)`` with
memoisation, exact up to an explicit state budget.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.errors import SimulationError
from repro.core.machine import StateMachine
from repro.core.wiring import Wiring
from repro.models.commit import CommitModel


def _transition_table(machine: StateMachine):
    """The machine as pure data: state -> message -> (target, action names)."""
    return {
        state.name: {
            t.message: (t.target_name, tuple(a[2:] for a in t.actions))
            for t in state.transitions
        }
        for state in machine.states
    }


@dataclass
class ExplorationResult:
    """Outcome of an exploration run."""

    members: int
    silent: int
    updates: int
    states_explored: int
    quiescent_states: int
    all_finished_quiescent: int
    deadlocked_quiescent: int
    partial_outcomes: int
    truncated: bool
    outcome_counts: Counter = field(default_factory=Counter)
    counterexample: list[str] | None = None

    @property
    def always_terminates(self) -> bool:
        """Whether every maximal execution finished all correct members."""
        return (
            self.deadlocked_quiescent == 0
            and self.partial_outcomes == 0
            and not self.truncated
        )

    @property
    def deadlock_possible(self) -> bool:
        """Whether some execution reaches quiescence unfinished."""
        return self.deadlocked_quiescent > 0

    @property
    def safe(self) -> bool:
        """No partial commit was observed in any explored outcome.

        A *partial* outcome — an update finished at some live members but
        not others at quiescence — would mean divergent histories; the
        commit protocol must never produce one regardless of deadlocks.
        """
        return self.partial_outcomes == 0


class PeerSetExplorer:
    """DFS over delivery interleavings of one model's FSM instances.

    System state: per live member, a tuple of instance machine-states (one
    per update) plus the member-local chooser slot; and per
    (member, update, kind) pending delivery counts.  The model's
    :class:`~repro.core.wiring.Wiring` says what an action does: peer
    actions broadcast, sibling actions run :meth:`Wiring.cascade` inside
    the member, as :mod:`repro.storage.version_history` deploys them.
    """

    def __init__(
        self, machine: StateMachine, members: int, updates: int, wiring: Wiring
    ):
        self._table = _transition_table(machine)
        self._wiring = wiring
        self._sends_of = {a: m for a, m, _delay in wiring.peers}
        self._siblings = frozenset(wiring.siblings or ())
        self._finish = {s.name for s in machine.final_states()}
        self._start = machine.start_state.name
        self.members = members
        self.updates = updates

    # -- member-local mechanics -----------------------------------------

    def deliver_local(self, states: list[str], chooser, update: int, kind: str):
        """Deliver one message into one member, sibling cascades included.

        Returns ``(chooser, broadcasts)`` where broadcasts is a list of
        (update, kind) messages the member sends to all peers.
        """
        out: list[tuple[int, str]] = []
        chooser = self._step(states, chooser, update, kind, out)
        return chooser, out

    def _step(self, states, chooser, slot: int, message: str, out):
        entry = self._table[states[slot]].get(message)
        if entry is None:
            return chooser
        states[slot], actions = entry
        for action in actions:
            sent = self._sends_of.get(action)
            if sent is not None:
                out.append((slot, sent))
            elif action in self._siblings:
                chooser = self._wiring.cascade(
                    action,
                    slot,
                    chooser,
                    range(self.updates),
                    lambda other: states[other] not in self._finish,
                    lambda other, msg, ch: self._step(states, ch, other, msg, out),
                )
        return chooser

    # -- scenario construction -------------------------------------------

    def initial_members(self, live: list[bool]):
        """Fresh member states; live members get the wiring's creation message."""
        on_create = self._wiring.on_create
        members_state = []
        for m in range(self.members):
            states = [self._start] * self.updates
            chooser = None
            if on_create is not None and live[m]:
                for slot in range(self.updates):
                    if chooser is None:
                        chooser = self._step(states, chooser, slot, on_create, [])
            members_state.append((tuple(states), chooser))
        return members_state

    def apply(self, members_state, pending, member: int, update: int, kind: str):
        """Deliver one message in place: member states and pending bag."""
        states = list(members_state[member][0])
        chooser = members_state[member][1]
        chooser, broadcasts = self.deliver_local(states, chooser, update, kind)
        members_state[member] = (tuple(states), chooser)
        for slot, name in broadcasts:
            for d in range(self.members):
                if d != member:
                    key = (d, slot, name)
                    pending[key] = pending.get(key, 0) + 1

    # -- exploration ------------------------------------------------------

    def explore(
        self,
        members_state,
        pending,
        live: list[bool],
        max_states: int = 2_000_000,
    ) -> ExplorationResult:
        if max_states < 1:
            raise SimulationError(f"max_states must be >= 1, got {max_states}")

        def freeze(ms, pd):
            return (
                tuple(ms),
                tuple(sorted((k, v) for k, v in pd.items() if v > 0)),
            )

        root = (tuple(members_state), dict(pending))
        seen = {freeze(*root)}
        stack = [root]

        explored = 0
        quiescent = 0
        finished_quiescent = 0
        deadlocked = 0
        partial = 0
        truncated = False
        outcome_counts: Counter = Counter()
        counterexample: list[str] | None = None

        live_members = [m for m in range(self.members) if live[m]]

        while stack:
            if explored == max_states:
                truncated = True
                break
            ms, pd = stack.pop()
            explored += 1

            deliverable = [
                (m, u, kind)
                for (m, u, kind), count in pd.items()
                if count > 0 and live[m]
            ]
            if not deliverable:
                quiescent += 1
                outcome = []
                saw_partial = False
                all_done = True
                for u in range(self.updates):
                    done = [ms[m][0][u] in self._finish for m in live_members]
                    if all(done):
                        outcome.append("all")
                    elif not any(done):
                        outcome.append("none")
                        all_done = False
                    else:
                        outcome.append("partial")
                        saw_partial = True
                        all_done = False
                outcome_counts[tuple(outcome)] += 1
                if saw_partial:
                    partial += 1
                if all_done:
                    finished_quiescent += 1
                else:
                    deadlocked += 1
                    if counterexample is None:
                        counterexample = [
                            f"member {m}: instances {ms[m][0]}"
                            for m in live_members
                        ]
                continue

            for m, u, kind in deliverable:
                new_members = list(ms)
                new_pending = dict(pd)
                new_pending[(m, u, kind)] -= 1
                self.apply(new_members, new_pending, m, u, kind)
                candidate = (tuple(new_members), new_pending)
                key = freeze(*candidate)
                if key not in seen:
                    seen.add(key)
                    stack.append(candidate)

        return ExplorationResult(
            members=self.members,
            silent=sum(1 for alive in live if not alive),
            updates=self.updates,
            states_explored=explored,
            quiescent_states=quiescent,
            all_finished_quiescent=finished_quiescent,
            deadlocked_quiescent=deadlocked,
            partial_outcomes=partial,
            truncated=truncated,
            outcome_counts=outcome_counts,
            counterexample=counterexample,
        )


def check_single_update(
    replication_factor: int = 4,
    silent_members: int = 0,
    max_states: int = 2_000_000,
    engine: str = "eager",
) -> ExplorationResult:
    """Exhaustively check one update across the peer set.

    ``silent_members`` members absorb all traffic and send nothing
    (Byzantine by omission).  For ``silent_members <= f`` every
    interleaving must finish all correct members; for more the protocol
    legitimately stalls, which the result reports as deadlock.
    """
    r = replication_factor
    if silent_members < 0:
        raise SimulationError(f"silent_members must be >= 0, got {silent_members}")
    if silent_members >= r:
        raise SimulationError("at least one member must be live")
    model = CommitModel(r)
    machine = model.generate_state_machine(engine=engine)
    explorer = PeerSetExplorer(machine, members=r, updates=1, wiring=model.wiring)
    live = [m >= silent_members for m in range(r)]
    members_state = explorer.initial_members(live)
    pending = Counter((m, 0, kick) for m in range(r) for kick in model.wiring.client)
    return explorer.explore(members_state, pending, live, max_states=max_states)


def check_contending_updates(
    replication_factor: int = 4,
    first_half: int | None = None,
    max_states: int = 2_000_000,
    engine: str = "eager",
) -> ExplorationResult:
    """Model-check the §2.2 contention scenario.

    ``first_half`` members receive (and, being free, vote for) update A
    before anything else; the rest vote for update B.  The cross updates
    and all votes then interleave freely.  With an even split at r=4
    neither update can ever reach the 2f+1 = 3 vote threshold, so *every*
    interleaving deadlocks — the strongest form of the paper's "the
    algorithm may deadlock", showing the timeout/retry scheme is
    *necessary*.  With a 3/1 split the updates serialise: A reaches its
    threshold and commits, finishing frees each member's local vote, and B
    (already received everywhere) is voted through next — quiescent
    outcomes are ``('all', 'all')``.  In all cases
    :attr:`ExplorationResult.safe` asserts no partial commit ever appears.
    """
    r = replication_factor
    split = first_half if first_half is not None else r // 2
    if not 0 <= split <= r:
        raise SimulationError(f"first_half must be in 0..{r}, got {split}")
    model = CommitModel(r)
    machine = model.generate_state_machine(engine=engine)
    explorer = PeerSetExplorer(machine, members=r, updates=2, wiring=model.wiring)
    live = [True] * r
    members_state = explorer.initial_members(live)
    pending: dict[tuple[int, int, str], int] = {}
    for m in range(r):
        chosen = 0 if m < split else 1
        other = 1 - chosen
        for kick in model.wiring.client:
            explorer.apply(members_state, pending, m, chosen, kick)
            pending[(m, other, kick)] = pending.get((m, other, kick), 0) + 1
    return explorer.explore(members_state, pending, live, max_states=max_states)
