"""One wiring declaration, three interpreters.

The commit protocol's interactions are declared once, on the model
(:class:`~repro.core.wiring.Wiring`), and read by the storage system's
:class:`GuidCommitEngine`, the peer-set checker and the scenario plane.
Beside unit checks of the sibling cascade, two differentials pin the
interpreters to each other:

(a) a traced scenario's per-member dispatch order, replayed into one
    :class:`GuidCommitEngine` per member, leaves every member in the
    fleet's state with the fleet's performed actions;
(b) seeded random delivery orders over two contending updates run
    through :class:`GuidCommitEngine` and through
    :meth:`PeerSetExplorer.deliver_local` give equal instance states,
    chooser slots and broadcasts at every step.
"""

import random
from collections import defaultdict

import pytest

from repro.analysis.peerset_check import PeerSetExplorer
from repro.core import Wiring
from repro.models import CommitModel, CoordinatorRoundModel
from repro.obs import FleetTelemetry
from repro.serve import ScenarioSpec, generate_scenario, make_fleet, run_scenario
from repro.storage.version_history import GuidCommitEngine

SIBLINGS = Wiring(siblings=("claim", "release"))


class Member:
    """A scripted member: instance ids, who is active, who claims when freed."""

    def __init__(self, ids, inactive=(), claims_when_freed=()):
        self.ids = list(ids)
        self.inactive = set(inactive)
        self.claims_when_freed = set(claims_when_freed)
        self.log = []

    def active(self, i):
        return i not in self.inactive

    def deliver(self, i, message, chooser):
        self.log.append((i, message))
        if message == "release" and i in self.claims_when_freed:
            return SIBLINGS.cascade(
                "claim", i, chooser, self.ids, self.active, self.deliver
            )
        return chooser


class TestCascade:
    def test_claim_takes_the_slot_and_reaches_active_siblings(self):
        member = Member("abcd", inactive="c")
        chooser = SIBLINGS.cascade(
            "claim", "a", None, member.ids, member.active, member.deliver
        )
        assert chooser == "a"
        assert member.log == [("b", "claim"), ("d", "claim")]

    def test_release_by_a_non_holder_is_a_no_op(self):
        member = Member("abc")
        chooser = SIBLINGS.cascade(
            "release", "b", "a", member.ids, member.active, member.deliver
        )
        assert chooser == "a"
        assert member.log == []

    def test_release_stops_at_the_first_sibling_that_claims(self):
        member = Member("abcd", claims_when_freed="c")
        chooser = SIBLINGS.cascade(
            "release", "a", "a", member.ids, member.active, member.deliver
        )
        assert chooser == "c"
        # b was offered the release and stayed out; c claimed, which
        # reached a and b and d as claims, and d was never offered it.
        assert member.log == [
            ("b", "release"),
            ("c", "release"),
            ("a", "claim"),
            ("b", "claim"),
            ("d", "claim"),
        ]

    def test_release_with_no_taker_frees_the_slot(self):
        member = Member("ab")
        chooser = SIBLINGS.cascade(
            "release", "a", "a", member.ids, member.active, member.deliver
        )
        assert chooser is None
        assert member.log == [("b", "release")]

    def test_wire_messages(self):
        assert CommitModel.wiring.wire_messages == {"update", "vote", "commit"}
        assert CoordinatorRoundModel.wiring.wire_messages == {"estimate", "ack"}


class RecordingEngine(GuidCommitEngine):
    """A member's engine that logs every action its instances perform."""

    def __init__(self, r):
        super().__init__(
            r, send=lambda kind, uid: None, now=lambda: 0.0, on_commit=lambda rec: None
        )
        self.performed = []

    def _perform_action(self, instance, action):
        self.performed.append(action)
        super()._perform_action(instance, action)


@pytest.mark.parametrize("r", [4, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scenario_dispatch_order_replays_into_storage_engines(r, seed):
    """Differential (a): the scenario plane runs the deployed protocol."""
    model = CommitModel(r)
    machine = model.generate_state_machine()
    scenario = generate_scenario(
        machine, model.wiring, ScenarioSpec(groups=3, group_size=r, seed=seed)
    )
    telemetry = FleetTelemetry()
    fleet = make_fleet(machine, telemetry=telemetry)
    run_scenario(fleet, scenario)
    posted = defaultdict(list)
    for record in telemetry.trace.records():
        if record.kind == "post":
            posted[record.key].append(record.message)
    for key in scenario.topology.keys:
        trace = fleet.trace(key)
        assert fleet.is_finished(key)
        # The engine delivers the creation message itself.
        first, *rest = posted[key]
        assert first == model.wiring.on_create
        engine = RecordingEngine(r)
        for message in rest:
            engine.handle(message, "u")
        assert engine.instance("u").machine.get_state() == trace.state, key
        assert tuple(engine.performed) == trace.actions, key


def _drive_both(seed, r=4):
    """One seeded delivery order through both interpreters, step by step."""
    rng = random.Random(seed)
    model = CommitModel(r)
    explorer = PeerSetExplorer(
        model.generate_state_machine(), members=r, updates=2, wiring=model.wiring
    )
    updates = ("u0", "u1")
    sent = [[] for _ in range(r)]
    engines = []
    for m in range(r):
        engine = GuidCommitEngine(
            r,
            send=lambda kind, uid, m=m: sent[m].append((updates.index(uid), kind)),
            now=lambda: 0.0,
            on_commit=lambda record: None,
        )
        # The explorer's members host both instances from the start.
        for uid in updates:
            engine._ensure_instance(uid)
        engines.append(engine)
    members = explorer.initial_members([True] * r)
    kicks = model.wiring.client
    pending = [(m, u, kick) for m in range(r) for u in (0, 1) for kick in kicks]
    steps = 0
    while pending:
        m, u, kind = pending.pop(rng.randrange(len(pending)))
        states = list(members[m][0])
        chooser, out = explorer.deliver_local(states, members[m][1], u, kind)
        members[m] = (tuple(states), chooser)
        engine = engines[m]
        engine.handle(kind, updates[u])
        assert sent[m] == out, (seed, steps)
        sent[m].clear()
        assert [engine.instance(uid).machine.get_state() for uid in updates] == states
        assert engine.chooser == (None if chooser is None else updates[chooser])
        pending.extend((d, slot, k) for slot, k in out for d in range(r) if d != m)
        steps += 1
    return members


def test_storage_engine_and_explorer_agree_under_contention():
    """Differential (b): the checker proves the machine storage deploys."""
    outcomes = set()
    for seed in range(150):
        members = _drive_both(seed)
        outcomes.add(tuple(states for states, _chooser in members))
    # The orders reach more than one quiescent outcome: the draw matters.
    assert len(outcomes) > 1
