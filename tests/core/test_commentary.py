"""Fig 14 commentary on demand: model -> code writes no prose.

* A spy on ``describe_state`` counts no call from generation through the
  optimizer, the source renderer and ``compile_machine``; reading
  ``.states`` then describes each state once.
* Every state built, generated or optimised, carries the commentary the
  model writes for its vector first and the merge notes after it, as
  generation stored them when it described every state itself.
* A view pickled before its states were built describes them once
  loaded, with the same lines.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.errors import MachineStructureError
from repro.core.minimize import merge_equivalent
from repro.core.model import AbstractModel, Describer, StateView
from repro.models.chandra_toueg import CoordinatorRoundModel
from repro.models.commit import CommitModel
from repro.opt import IndexedMachine, standard_pipeline
from repro.render.source import PythonSourceRenderer
from repro.runtime.compile import compile_machine

#: name -> (model factory, engine, merge)
CASES = {
    "commit-r8-eager": (lambda: CommitModel(8), "eager", True),
    "commit-r8-eager-unmerged": (lambda: CommitModel(8), "eager", False),
    "commit-r32-lazy": (lambda: CommitModel(32), "lazy", True),
    "chandra-toueg-5": (lambda: CoordinatorRoundModel(processes=5), "eager", True),
}


@pytest.fixture
def calls(monkeypatch) -> list:
    """Every ``describe_state`` call, one entry per call, by any model."""
    seen: list = []
    for cls in (AbstractModel, CommitModel):
        original = cls.describe_state

        def spy(self, view, original=original):
            seen.append(view.vector)
            return original(self, view)

        monkeypatch.setattr(cls, "describe_state", spy)
    return seen


def model_to_code(name: str):
    """The gen-deploy stages for one case: the model, the generated
    machine and the optimised one, rendered and compiled."""
    make, engine, merge = CASES[name]
    model = make()
    machine = model.generate_state_machine(engine=engine, merge=merge)
    optimized, _ = standard_pipeline(3).optimize_machine(machine)
    PythonSourceRenderer().render(optimized)
    compile_machine(optimized).new_instance()
    return model, machine, optimized


def expected(model, state) -> tuple[str, ...]:
    """A state's annotations as generation stored them when it described
    every state: the model's lines, then a merged class's note."""
    lines = tuple(model.describe_state(StateView(model.space, state.vector)))
    members = state.merged_names
    if len(members) > 1:
        lines += (
            f"Represents {len(members)} equivalent states: " + ", ".join(members),
        )
    return lines


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_to_code_describes_no_state(name, calls):
    model_to_code(name)
    assert calls == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_built_state_is_described_once(name, calls):
    _, machine, optimized = model_to_code(name)
    for view in (machine, optimized):
        calls.clear()
        states = view.states
        assert sorted(calls) == sorted(state.vector for state in states)


@pytest.mark.parametrize("name", sorted(CASES))
def test_annotations_are_the_description_then_the_notes(name):
    model, machine, optimized = model_to_code(name)
    for view in (machine, optimized):
        assert [s.annotations for s in view.states] == [
            expected(model, s) for s in view.states
        ]
    # The case without step 4 is where the merge pass writes the notes.
    if not CASES[name][2]:
        assert len(machine) > len(optimized)
        assert any(len(s.merged_names) > 1 for s in optimized.states)


def test_merging_a_view_keeps_the_description_before_the_notes():
    model = CommitModel(8)
    merged = merge_equivalent(model.generate_state_machine(merge=False))
    assert any(len(s.merged_names) > 1 for s in merged.states)
    assert [s.annotations for s in merged.states] == [
        expected(model, s) for s in merged.states
    ]


@pytest.mark.parametrize("engine", ["eager", "lazy"])
def test_a_pickled_view_describes_its_states_once_loaded(engine, calls):
    machine = CommitModel(8).generate_state_machine(engine=engine)
    optimized, _ = standard_pipeline(3).optimize_machine(machine)
    for view in (machine, optimized):
        loaded = pickle.loads(pickle.dumps(view))
        assert calls == []  # pickled before any state was built
        assert [s.annotations for s in loaded.states] == [
            s.annotations for s in view.states
        ]
        calls.clear()


def test_describers_are_equal_for_one_model_class_and_parameters():
    assert Describer(CommitModel(8)) == Describer(CommitModel(8))
    assert Describer(CommitModel(8)) != Describer(CommitModel(7))
    assert Describer(CommitModel(5)) != Describer(CoordinatorRoundModel(processes=5))


def test_an_ir_that_describes_needs_a_vector_per_state():
    ir = IndexedMachine.from_machine(CommitModel(4).generate_state_machine())
    with pytest.raises(MachineStructureError, match="describe needs a vector"):
        IndexedMachine(**{**vars(ir), "state_vectors": ()}).check_integrity()
