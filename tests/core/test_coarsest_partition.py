"""The Hopcroft kernel against an independent oracle, and on its worst case.

``coarsest_partition`` is the one implementation of the step-4 relation
under ``src/``; :mod:`tests.core.moore_reference` is the signature
fixpoint it replaced.  The coarsest stable partition is unique, so the two
must induce the same classes on every machine — compared here as sets of
frozensets, forgetting numbering.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import MachineStructureError
from repro.core.machine import StateMachine
from repro.core.minimize import (
    FINISH_NAME,
    coarsest_partition,
    equivalence_classes,
    merge_equivalent,
)
from repro.core.state import State, Transition
from repro.models import build_hierarchical_model
from repro.models.chandra_toueg import CoordinatorRoundModel
from repro.models.commit import CommitModel
from repro.models.termination import TerminationModel
from repro.models.threshold_sig import ThresholdSignatureModel
from repro.opt import IndexedMachine, MergeEquivalentPass
from tests.core.moore_reference import blocks, moore_partition
from tests.readback import check

#: Action sequences the drawn machines choose from: few, so states collide.
ACTION_POOL = ((), ("->a",), ("->b",), ("->a", "->b"))


@st.composite
def mealy_arrays(draw):
    """A partial Mealy machine as ``(width, next_state, output, final)``.

    Independent random rows almost never coincide, so some states are
    drawn as *copies*: a copy takes its original's row, and afterwards any
    transition may be retargeted to another member of its target's copy
    family.  Family members are equivalent by construction, which gives
    the kernel real classes to find; missing transitions, self-loops,
    unreachable states and several final states all occur on their own.
    """
    n = draw(st.integers(1, 40))
    width = draw(st.integers(1, 4))
    final = [False] * n
    family = list(range(n))
    next_state, output = [], []
    for s in range(n):
        if s and draw(st.booleans()):
            original = draw(st.integers(0, s - 1))
            family[s] = family[original]
            final[s] = final[original]
            next_state += next_state[original * width : (original + 1) * width]
            output += output[original * width : (original + 1) * width]
            continue
        final[s] = draw(st.integers(0, 4)) == 0
        for _ in range(width):
            # Final states carry no transitions, as in every StateMachine.
            missing = final[s] or draw(st.integers(0, 3)) == 0
            next_state.append(-1 if missing else draw(st.integers(0, n - 1)))
            output.append(None if missing else draw(st.sampled_from(ACTION_POOL)))
    relatives: dict[int, list[int]] = {}
    for s, root in enumerate(family):
        relatives.setdefault(root, []).append(s)
    for offset, target in enumerate(next_state):
        if target >= 0:
            next_state[offset] = draw(st.sampled_from(relatives[family[target]]))
    return width, next_state, output, final


def machine_of(width, next_state, output, final) -> StateMachine:
    """The arrays as a ``StateMachine``: states ``s<i>``, messages ``m<j>``."""
    machine = StateMachine([f"m{col}" for col in range(width)], name="drawn")
    for s, is_final in enumerate(final):
        machine.add_state(State(f"s{s}", final=is_final))
    for offset, target in enumerate(next_state):
        if target >= 0:
            s, col = divmod(offset, width)
            machine.get_state(f"s{s}").record_transition(
                Transition(f"m{col}", f"s{target}", output[offset])
            )
    machine.set_start("s0")
    return machine


def arrays_of(machine: StateMachine):
    """A bundled machine as the kernel's arrays, via the IR."""
    im = IndexedMachine.from_machine(machine)
    names = [tuple(im.actions[a] for a in seq) for seq in im.action_seqs]
    output = [names[seq] if seq >= 0 else None for seq in im.action_seq]
    return im.width, list(im.next_state), output, list(im.final)


def name_classes(machine: StateMachine) -> set[frozenset[str]]:
    return {
        frozenset(state.name for state in group)
        for group in equivalence_classes(machine)
    }


def pass_classes(im: IndexedMachine) -> set[frozenset[str]]:
    """The classes ``MergeEquivalentPass`` merged, read off its mapping."""
    _, mapping = MergeEquivalentPass().run(im)
    members: dict[int, set[str]] = {}
    for old, new in mapping.items():
        members.setdefault(new, set()).add(im.state_names[old])
    return {frozenset(group) for group in members.values()}


def with_duplicate_pool_entries(im: IndexedMachine, rng) -> IndexedMachine:
    """The same machine with every action sequence interned twice and each
    transition pointed at either copy — legal in a hand-built IR."""
    count = len(im.action_seqs)
    action_seq = tuple(
        seq + count * rng.randrange(2) if seq >= 0 else -1 for seq in im.action_seq
    )
    return replace(im, action_seqs=im.action_seqs * 2, action_seq=action_seq)


def assert_quotient(machine, merged):
    """``merged`` behaves as ``machine`` does, each reachable state paired
    with the representative of its class."""
    representative = {
        member: state.name for state in merged.states for member in state.merged_names
    }
    assert check(machine, merged) == {
        (name, representative[name]) for name in machine.reachable_names()
    }


BUNDLED_UNMERGED = [
    pytest.param(
        lambda: CommitModel(4).generate_state_machine(merge=False), id="commit-r4"
    ),
    pytest.param(
        lambda: CommitModel(7).generate_state_machine(merge=False), id="commit-r7"
    ),
    pytest.param(
        lambda: CommitModel(13).generate_state_machine(engine="lazy", merge=False),
        id="commit-r13-lazy",
    ),
    pytest.param(
        lambda: CoordinatorRoundModel(processes=5).generate_state_machine(merge=False),
        id="chandra-toueg-n5",
    ),
    pytest.param(
        lambda: TerminationModel(max_tasks=3).generate_state_machine(merge=False),
        id="termination-t3",
    ),
    pytest.param(
        lambda: ThresholdSignatureModel(signers=4, threshold=3).generate_state_machine(
            merge=False
        ),
        id="threshold-sig",
    ),
    pytest.param(
        lambda: build_hierarchical_model("session").flatten(), id="session-hsm"
    ),
    pytest.param(
        lambda: build_hierarchical_model("commit", 4).flatten(), id="commit-hsm-r4"
    ),
]


class TestAgainstMoore:
    @given(mealy_arrays())
    @settings(max_examples=300, deadline=None)
    def test_drawn_machines_same_partition(self, arrays):
        assert blocks(coarsest_partition(*arrays)) == blocks(moore_partition(*arrays))

    @given(mealy_arrays())
    @settings(max_examples=100, deadline=None)
    def test_class_ids_are_numbered_by_lowest_member(self, arrays):
        cls = coarsest_partition(*arrays)
        firsts = [cls.index(c) for c in range(max(cls) + 1)]
        assert cls[0] == 0
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize("factory", BUNDLED_UNMERGED)
    def test_bundled_machines_same_partition(self, factory):
        arrays = arrays_of(factory())
        assert blocks(coarsest_partition(*arrays)) == blocks(moore_partition(*arrays))

    def test_no_states(self):
        assert coarsest_partition(3, [], [], []) == []

    def test_output_of_a_missing_transition_is_not_read(self):
        cls = coarsest_partition(1, [-1, -1], ["ignored", "differs"], [True, True])
        assert cls == [0, 0]


class TestBothCallers:
    """``equivalence_classes`` and the ``merge`` pass feed one kernel."""

    @given(mealy_arrays(), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_drawn_machines(self, arrays, seed):
        machine = machine_of(*arrays)
        classes = name_classes(machine)
        assert classes == {
            frozenset(f"s{s}" for s in block)
            for block in blocks(moore_partition(*arrays))
        }
        im = IndexedMachine.from_machine(machine)
        rng = random.Random(seed)
        assert pass_classes(im) == classes
        assert pass_classes(with_duplicate_pool_entries(im, rng)) == classes

        merged = merge_equivalent(machine)
        assert len(merged) == len(classes)
        assert len(merge_equivalent(merged)) == len(merged)
        again, _ = MergeEquivalentPass().run(IndexedMachine.from_machine(merged))
        assert again.state_count == len(merged)
        assert_quotient(machine, merged)

    @pytest.mark.parametrize("factory", BUNDLED_UNMERGED)
    def test_bundled_machines(self, factory):
        machine = factory()
        classes = name_classes(machine)
        assert pass_classes(IndexedMachine.from_machine(machine)) == classes
        merged = merge_equivalent(machine)
        assert len(merged) == len(classes)
        assert len(merge_equivalent(merged)) == len(merged)
        assert_quotient(machine, merged)


class TestWorstCase:
    def test_countdown_chain_and_its_twin(self):
        """Two 4 000-state chains counting down to a final state: all
        states of a chain are distinct (they differ in distance to the
        end), and each state of the twin merges with its counterpart.

        Only the counts are asserted — no timing.  The signature fixpoint
        needs 4 000 rounds here, one per link, each over all 8 000 states
        (w·n²: about a minute); the kernel splits off one link per
        splitter and is done in milliseconds.
        """
        length = 4000
        next_state, final = [], []
        for chain in range(2):
            for step in range(length):
                last = step == length - 1
                next_state.append(-1 if last else chain * length + step + 1)
                final.append(last)
        cls = coarsest_partition(1, next_state, [()] * len(final), final)
        assert len(set(cls)) == length
        assert cls[:length] == cls[length:] == list(range(length))


class TestMalformedMachines:
    """A dangling transition is a ``MachineStructureError`` from step 4
    itself, in ``check_integrity``'s words — not a bare ``KeyError``."""

    def dangling(self) -> StateMachine:
        machine = StateMachine(["m"], name="dangling")
        machine.add_state(State("S"))
        machine.get_state("S").record_transition(Transition("m", "NOPE", ["->x"]))
        machine.set_start("S")
        return machine

    def off_alphabet(self) -> StateMachine:
        machine = StateMachine(["m"], name="off-alphabet")
        machine.add_state(State("S"))
        machine.get_state("S").record_transition(Transition("other", "S"))
        machine.set_start("S")
        return machine

    @pytest.mark.parametrize("step4", [equivalence_classes, merge_equivalent])
    def test_unknown_target(self, step4):
        with pytest.raises(
            MachineStructureError,
            match=r"transition .*m.* from 'S' targets unknown state 'NOPE'",
        ):
            step4(self.dangling())

    @pytest.mark.parametrize("step4", [equivalence_classes, merge_equivalent])
    def test_message_outside_the_alphabet(self, step4):
        with pytest.raises(
            MachineStructureError,
            match=r"transition .*other.* from 'S' is on undeclared message 'other'",
        ):
            step4(self.off_alphabet())


class TestQuotientOrder:
    def test_representatives_keep_first_member_insertion_order(self):
        """States inserted in a shuffled order: each class is named after
        its first-inserted member, classes come out in the order of those
        members, and the merged finals are ``FINISHED``, the finish state."""
        machine = StateMachine(["go"], name="shuffled")
        for name, final in [
            ("EndB", True),
            ("C", False),
            ("A", False),
            ("EndC", True),
            ("B", False),
            ("Lone", False),
        ]:
            machine.add_state(State(name, final=final))
        machine.get_state("A").record_transition(Transition("go", "B"))
        machine.get_state("B").record_transition(Transition("go", "EndB", ["->fire"]))
        machine.get_state("C").record_transition(Transition("go", "EndC", ["->fire"]))
        machine.get_state("Lone").record_transition(Transition("go", "Lone"))
        machine.set_start("A")

        classes = equivalence_classes(machine)
        assert [[state.name for state in group] for group in classes] == [
            ["EndB", "EndC"],
            ["C", "B"],
            ["A"],
            ["Lone"],
        ]
        merged = merge_equivalent(machine)
        assert merged.state_names() == (FINISH_NAME, "C", "A", "Lone")
        assert merged.finish_state.name == FINISH_NAME
        assert merged.get_state("C").merged_names == ("B", "C")
        assert merged.get_state("A").get_transition("go").target_name == "C"
