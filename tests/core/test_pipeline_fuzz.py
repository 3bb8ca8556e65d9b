"""Pipeline fuzzing: random abstract models through the whole toolchain.

The commit model is one point in the space of abstract models; these tests
generate *random* models (seeded, deterministic transition logic derived
from a hash) and check toolchain invariants that must hold for every
model:

* pruning removes only unreachable states;
* merging is a bisimulation quotient: the merged machine is equivalent
  to the pruned one, each state paired with its class's representative;
* merging is idempotent and never grows the machine;
* the one-shot merge fixpoint agrees with partition refinement;
* generated source compiles and behaves exactly like the machine;
* the XML round-trip is an isomorphism that keeps every name.

Each "behaves like" is decided by :func:`repro.analysis.equivalent`.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import equivalent
from repro.core.components import BooleanComponent, IntComponent
from repro.core.minimize import merge_equivalent, one_shot_merge
from repro.core.model import AbstractModel, StateView, TransitionBuilder
from repro.render.xml import XmlRenderer, parse_machine_xml
from repro.runtime.compile import compile_machine
from tests.readback import check, read_executor, same_names


class RandomModel(AbstractModel):
    """A deterministic pseudo-random abstract model.

    The effect of each (state, message) pair is derived from a SHA-1 of
    the seed and the pair, so a given seed always produces the same
    machine.  Components: two bounded counters and a flag; messages can
    bump counters, toggle the flag, emit actions, or be inapplicable.
    The model finishes when counter ``a`` reaches its bound.
    """

    def __init__(self, seed: int, a_max: int = 3, b_max: int = 2):
        super().__init__(seed=seed, a_max=a_max, b_max=b_max)
        self._seed = seed
        self._a_max = a_max

    def configure(self, *, seed: int, a_max: int, b_max: int):
        components = [
            IntComponent("a", a_max),
            IntComponent("b", b_max),
            BooleanComponent("flag"),
        ]
        return components, ("m0", "m1", "m2")

    def is_final(self, view: StateView) -> bool:
        return view["a"] == self._a_max

    def _digest(self, message: str, vector: tuple) -> int:
        text = f"{self._seed}:{message}:{vector}"
        return int.from_bytes(hashlib.sha1(text.encode()).digest()[:4], "big")

    def generate_transition(self, message: str, b: TransitionBuilder) -> None:
        choice = self._digest(message, b.vector) % 8
        if choice == 0:
            b.invalid("inapplicable by fuzz choice")
        elif choice in (1, 2):
            b.increment("a")
        elif choice == 3:
            b.increment("a")
            b.send("ping")
        elif choice == 4:
            if b["b"] == 0:
                b.invalid("b exhausted")
            b.set("b", b["b"] - 1)
        elif choice == 5:
            b.increment("b")
            b.send("pong")
        elif choice == 6:
            b.set("flag", not b["flag"])
        else:
            b.send("ping")
            b.send("pong")


SEEDS = list(range(12))


@pytest.mark.parametrize("seed", SEEDS)
class TestFuzzedPipeline:
    def test_pruning_keeps_exactly_reachable(self, seed):
        model = RandomModel(seed)
        unpruned = model.generate_state_machine(prune=False, merge=False)
        pruned = model.generate_state_machine(merge=False)
        assert set(pruned.state_names()) == unpruned.reachable_names()

    def test_merge_never_grows(self, seed):
        model = RandomModel(seed)
        pruned = model.generate_state_machine(merge=False)
        merged = model.generate_state_machine()
        assert len(merged) <= len(pruned)

    def test_merge_is_idempotent(self, seed):
        merged = RandomModel(seed).generate_state_machine()
        assert equivalent(merged, merge_equivalent(merged)).one_to_one

    def test_one_shot_fixpoint_matches_moore(self, seed):
        pruned = RandomModel(seed).generate_state_machine(merge=False)
        current = pruned
        previous = len(current) + 1
        while len(current) < previous:
            previous = len(current)
            current = one_shot_merge(current)
        assert equivalent(current, merge_equivalent(pruned)).one_to_one

    def test_merged_trace_equivalent_to_pruned(self, seed):
        model = RandomModel(seed)
        pruned = model.generate_state_machine(merge=False)
        merged = model.generate_state_machine()
        assert check(pruned, merged) == {
            (member, state.name)
            for state in merged.states
            for member in state.merged_names
        }

    def test_generated_source_matches_machine(self, seed):
        machine = RandomModel(seed).generate_state_machine()
        instance = compile_machine(machine).new_instance()
        read = read_executor(instance, machine.messages)
        assert check(machine, read) == same_names(machine)

    def test_xml_roundtrip_isomorphic(self, seed):
        machine = RandomModel(seed).generate_state_machine()
        parsed = parse_machine_xml(XmlRenderer().render(machine))
        assert check(machine, parsed) == same_names(machine)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    a_max=st.integers(min_value=1, max_value=4),
    b_max=st.integers(min_value=1, max_value=3),
)
def test_property_fuzzed_model_generates_valid_machine(seed, a_max, b_max):
    """Any seeded model yields a structurally sound machine."""
    machine = RandomModel(seed, a_max=a_max, b_max=b_max).generate_state_machine()
    machine.check_integrity()
    assert machine.reachable_names() == set(machine.state_names())
    assert len(machine) >= 1
