"""Step 2 memoised: each handler runs once per distinct read, exactly.

* The differential: every bundled and example model, under both engines,
  generates the same IR field by field with the memo as with the
  per-state loop of :mod:`tests.core.elaboration_reference`, with the
  same report counts.
* Adversarial hooks: read orders that depend on the values read, the
  whole-vector accessors after a write, inapplicability after partial
  writes, ineffective elaborations and a two-component ``is_final``, each
  against the same oracle; a counting model pins one run per read path.
* The scope: a hook that breaks the contract is refused, and nothing is
  kept on the model between generation calls.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import pathlib
import re

import pytest

import repro.core.pipeline as pipeline
from repro.core.components import BooleanComponent, IntComponent, StateSpace
from repro.core.errors import ComponentError, ModelDefinitionError
from repro.core.model import AbstractModel, StateView
from repro.models.chandra_toueg import CoordinatorRoundModel
from repro.models.commit import CommitModel
from repro.models.termination import TerminationModel
from repro.models.threshold_sig import ThresholdSignatureModel
from repro.opt import IndexedMachine
from tests.core.elaboration_reference import ReferenceElaborator
from tests.core.test_pipeline_fuzz import SEEDS, RandomModel


def _example_model(name: str):
    path = pathlib.Path(__file__).parents[2] / "examples" / "custom_model.py"
    spec = importlib.util.spec_from_file_location("custom_model_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


ReadRepairModel = _example_model("ReadRepairModel")

MODELS = {
    **{f"commit-r{r}": (lambda r=r: CommitModel(r)) for r in (4, 5, 7, 13, 25)},
    **{
        f"chandra-toueg-n{n}": (lambda n=n: CoordinatorRoundModel(processes=n))
        for n in (3, 5)
    },
    "termination-t3": lambda: TerminationModel(max_tasks=3),
    "threshold-sig": lambda: ThresholdSignatureModel(signers=4, threshold=3),
    "read-repair": lambda: ReadRepairModel(replicas=5, quorum=3),
    **{f"fuzz-{seed}": (lambda seed=seed: RandomModel(seed)) for seed in SEEDS},
}

#: (engine, prune, merge): the eager unpruned run elaborates every state
#: of the product space, reachable or not.
CONFIGS = [
    ("eager", True, True),
    ("eager", False, False),
    ("lazy", True, True),
    ("lazy", True, False),
]

REPORT_COUNTS = (
    "initial_states",
    "transition_count",
    "reachable_states",
    "merged_states",
    "frontier_peak",
)


def generate(model, config):
    engine, prune, merge = config
    machine, report = pipeline.generate_with_engine(
        model, engine, prune=prune, merge=merge
    )
    return IndexedMachine.from_machine(machine), report


def reference(model, config, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "Elaborator", ReferenceElaborator)
        return generate(model, config)


def assert_same_generation(make_model, config, monkeypatch):
    """The memo's IR and report counts equal the per-state loop's."""
    got, report = generate(make_model(), config)
    want, expected = reference(make_model(), config, monkeypatch)
    for field in dataclasses.fields(IndexedMachine):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    for count in REPORT_COUNTS:
        assert getattr(report, count) == getattr(expected, count), count
    assert report.elaborations <= expected.elaborations
    return report, expected


def config_id(config) -> str:
    return "-".join(map(str, config))


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_memo_matches_per_state_loop(name, config, monkeypatch):
    assert_same_generation(MODELS[name], config, monkeypatch)


# ----------------------------------------------------------------------
# adversarial hooks
# ----------------------------------------------------------------------


class HookModel(AbstractModel):
    """Components ``x`` (0..3), ``y`` (0..2), ``flag`` and ``done``; one
    message per entry of ``handlers``, each handler a function of the
    builder; ``is_final`` is ``final(view)`` (default: ``done``)."""

    def __init__(self, handlers: dict, final=None):
        self._handlers = handlers
        self._final = final or (lambda view: view["done"])
        super().__init__()

    def configure(self):
        components = [
            IntComponent("x", 3),
            IntComponent("y", 2),
            BooleanComponent("flag"),
            BooleanComponent("done"),
        ]
        return components, tuple(self._handlers)

    def is_final(self, view: StateView) -> bool:
        return self._final(view)

    def generate_transition(self, message, b) -> None:
        self._handlers[message](b)


def branchy(b):
    """Which component is read second depends on the first value."""
    if b["flag"]:
        if b["y"] == 2:
            b.send("full")
        else:
            b.increment("y", because="y grows while flagged")
    elif b["x"] >= 2:
        b.set("flag", True, because="x reached 2")
    else:
        b.increment("x")


def whole_vector_after_write(b):
    b.set("done", False)  # written before any read of it
    if b.vector[0] == 3:
        b.send("top")


def name_after_write(b):
    b.set("y", 0)
    if b.name.endswith("/T/F"):
        b.send("flagged")


def source_after_write(b):
    b.set("x", 0)
    if b.source_vector[0] > 1:
        b.send("was_high")


def changed_after_write(b):
    b.set("flag", True)
    if b.changed:
        b.send("raised")


def invalid_after_partial_writes(b):
    b.set("flag", True, because="tried")
    b.send("tried")
    if b["y"] == 0:
        b.invalid("nothing to take")
    b.set("y", b["y"] - 1)


def blind_write(b):
    """Writes without reading: effective only where ``flag`` was False."""
    b.set("flag", True)


def annotate_only(b):
    """Never effective: no write, no action, whatever the state."""
    b.annotate("nothing happens")


def finish(b):
    b.set("done", True)


ADVERSARIES = {
    "branchy-read-order": {"branchy": branchy, "finish": finish},
    "whole-vector-accessors": {
        "vector": whole_vector_after_write,
        "name": name_after_write,
        "source_vector": source_after_write,
        "changed": changed_after_write,
        "bump": branchy,
    },
    "invalid-after-writes": {
        "take": invalid_after_partial_writes,
        "bump": branchy,
    },
    "ineffective": {"blind": blind_write, "note": annotate_only, "bump": branchy},
    "two-component-final": {"bump": branchy, "blind": blind_write},
}


def two_component_final(view):
    return view["x"] == 3 and view["y"] == 2


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
@pytest.mark.parametrize("name", sorted(ADVERSARIES))
def test_adversarial_hook_matches_per_state_loop(name, config, monkeypatch):
    final = two_component_final if name == "two-component-final" else None
    assert_same_generation(
        lambda: HookModel(ADVERSARIES[name], final), config, monkeypatch
    )


def test_a_blind_write_is_effective_only_where_it_changes_the_state():
    machine = HookModel({"blind": blind_write}).generate_state_machine(
        prune=False, merge=False
    )
    for state in machine.states:
        if not state.final:
            fires = any(t.message == "blind" for t in state.transitions)
            assert fires == (not state.vector[2]), state.name


def test_whole_vector_accessors_fall_back_to_one_run_per_state():
    model = HookModel({"source_vector": source_after_write})
    _, report = model.generate_with_report(prune=False, merge=False)
    assert report.elaborations == 4 * 3 * 2  # every state with done False


def test_a_handler_runs_once_per_distinct_read_path():
    runs = []

    def counted(b):
        path = [b["flag"]]
        path.append(b["x"] if path[0] else b["y"])
        runs.append(tuple(path))
        if path[0]:
            b.send("flagged")
        else:
            b.set("flag", True)

    model = HookModel({"counted": counted}, final=lambda view: False)
    _, report = model.generate_with_report(prune=False, merge=False)
    assert report.initial_states == 4 * 3 * 2 * 2
    # flag True reads x (4 values), flag False reads y (3 values).
    assert sorted(runs) == sorted(
        {(True, x) for x in range(4)} | {(False, y) for y in range(3)}
    )
    assert report.elaborations == len(runs) == 7


def test_is_final_runs_once_per_distinct_read_path():
    reads = []

    def final(view):
        reads.append((view["x"], view["y"]))
        return view["x"] == 3 and view["y"] == 2

    HookModel({"finish": finish}, final).generate_state_machine(
        prune=False, merge=False
    )
    assert sorted(reads) == sorted(itertools.product(range(4), range(3)))


def test_a_hook_that_is_not_a_function_of_its_reads_is_refused():
    calls = itertools.count()

    def fickle(b):
        b["x"] if next(calls) % 2 else b["y"]
        b.send("ping")

    with pytest.raises(ModelDefinitionError, match="functions of the values"):
        HookModel({"fickle": fickle}).generate_state_machine(prune=False)


def test_nothing_is_kept_on_the_model_between_calls():
    model = CommitModel(8)
    first = model.generate_with_report()[1].elaborations
    again = model.generate_with_report()[1].elaborations
    assert first == again == 87


@pytest.mark.parametrize(
    "r, engine, bound, per_state",
    [(48, "lazy", 200, 15_360), (32, "lazy", 150, 7_040), (8, "eager", 100, 3_840)],
)
def test_commit_handler_runs(r, engine, bound, per_state, monkeypatch):
    config = (engine, True, True)
    report, expected = assert_same_generation(
        lambda: CommitModel(r), config, monkeypatch
    )
    assert report.elaborations <= bound
    assert expected.elaborations == per_state


def test_an_unknown_component_read_raises_the_spaces_error():
    space = StateSpace([IntComponent("n", 2)])
    with pytest.raises(ComponentError) as raised:
        space.index_of("missing")
    with pytest.raises(ComponentError, match=re.escape(str(raised.value))):
        StateView(space, (1,))["missing"]
