"""Unit tests for hierarchical machines and the flattening pipeline."""

import pytest

from repro.core.errors import (
    DeploymentError,
    MachineStructureError,
    ModelDefinitionError,
)
from repro.core.hsm import HierarchicalModel, HierarchicalSimulator


def two_level_model() -> HierarchicalModel:
    """A small hierarchy exercising entry/exit, inheritance and overrides::

        m
        ├── Off                     (initial)
        ├── Running  [entry ->power_up, exit ->power_down]
        │   ├── Warm  [entry ->warm_enter, exit ->warm_exit]   (initial)
        │   └── Hot   [entry ->hot_enter]
        └── Broken                  (final)
    """
    model = HierarchicalModel("m", messages=("go", "heat", "cool", "stop", "melt"))
    root = model.root
    root.on("melt", "Broken", actions=("->alarm",))
    root.leaf("Off", initial=True).on("go", "Running", actions=("->ignite",))
    running = root.composite(
        "Running", entry=("->power_up",), exit=("->power_down",)
    )
    running.on("stop", "Off", actions=("->halt",))
    warm = running.leaf(
        "Warm", initial=True, entry=("->warm_enter",), exit=("->warm_exit",)
    )
    warm.on("heat", "Hot", actions=("->hotter",))
    hot = running.leaf("Hot", entry=("->hot_enter",))
    hot.on("cool", "Warm", actions=("->cooler",))
    # Override the inherited root-level melt handler inside Hot.
    hot.on("melt", "Warm", actions=("->quench",))
    root.leaf("Broken", final=True)
    model.set_finish("Broken")
    return model


# ----------------------------------------------------------------------
# flattening semantics
# ----------------------------------------------------------------------


def test_entry_dispatch_composes_entry_actions():
    machine = two_level_model().flatten()
    transition = machine.get_state("Off").get_transition("go")
    # Exit Off (no exit actions), transition actions, enter Running then Warm.
    assert transition.target_name == "Running.Warm"
    assert transition.actions == ("->ignite", "->power_up", "->warm_enter")


def test_exit_actions_compose_innermost_first():
    machine = two_level_model().flatten()
    transition = machine.get_state("Running.Warm").get_transition("stop")
    assert transition.target_name == "Off"
    assert transition.actions == ("->warm_exit", "->power_down", "->halt")


def test_sibling_transition_stays_inside_region():
    machine = two_level_model().flatten()
    transition = machine.get_state("Running.Warm").get_transition("heat")
    # Warm -> Hot never leaves Running: no power_down/power_up.
    assert transition.target_name == "Running.Hot"
    assert transition.actions == ("->warm_exit", "->hotter", "->hot_enter")


def test_inherited_transition_copied_into_leaves():
    machine = two_level_model().flatten()
    # Running's stop handler is inherited by both leaves.
    for leaf in ("Running.Warm", "Running.Hot"):
        assert machine.get_state(leaf).get_transition("stop") is not None
    # Root's melt handler reaches every non-final leaf...
    assert machine.get_state("Off").get_transition("melt").target_name == "Broken"
    # ...except where a deeper state overrides it.
    override = machine.get_state("Running.Hot").get_transition("melt")
    assert override.target_name == "Running.Warm"
    assert "->quench" in override.actions


def test_override_does_not_leak_to_siblings():
    machine = two_level_model().flatten()
    transition = machine.get_state("Running.Warm").get_transition("melt")
    assert transition.target_name == "Broken"
    # Exits Warm and Running on the way out (root-owned transition).
    assert transition.actions == ("->warm_exit", "->power_down", "->alarm")


def test_composite_self_transition_reenters_region():
    model = HierarchicalModel("retry", messages=("tick", "kick"))
    region = model.root.composite("R", entry=("->enter_r",), exit=("->exit_r",))
    region.on("kick", "R", actions=("->retry",))
    region.leaf("A", initial=True).on("tick", "B")
    region.leaf("B")
    machine = model.flatten()
    for leaf in ("R.A", "R.B"):
        transition = machine.get_state(leaf).get_transition("kick")
        assert transition.target_name == "R.A"
    # External semantics: the region is exited and re-entered.
    assert machine.get_state("R.B").get_transition("kick").actions == (
        "->exit_r",
        "->retry",
        "->enter_r",
    )


def test_final_leaf_absorbs_everything():
    machine = two_level_model().flatten()
    broken = machine.get_state("Broken")
    assert broken.final
    assert broken.transitions == ()
    assert machine.finish_state.name == "Broken"
    machine.check_integrity()


def test_flat_machine_carries_parameters_and_name():
    model = two_level_model()
    model.parameters["tuning"] = {"depth": 2}
    machine = model.flatten()
    assert machine.name == "m"
    assert machine.parameters == {"tuning": {"depth": 2}}


# ----------------------------------------------------------------------
# pruning and reports
# ----------------------------------------------------------------------


def test_flatten_produces_a_valid_machine():
    machine = two_level_model().flatten()
    machine.check_integrity()
    assert machine.start_state.name == "Off"


def test_unreachable_leaf_is_pruned():
    model = HierarchicalModel("p", messages=("a",))
    model.root.leaf("Start", initial=True).on("a", "Start")
    model.root.leaf("Orphan", final=True)
    model.set_finish("Orphan")
    machine, report = model.flatten_with_report()
    assert "Orphan" not in machine
    assert machine.finish_state is None  # the designated finish was pruned
    assert report.leaf_count == 2
    assert report.flat_states == 1


def test_flat_rows_follow_leaf_declaration_order():
    """Kept leaves keep their declaration order, not the order step 3
    reaches them in (A reaches C before B)."""
    model = HierarchicalModel("o", messages=("a", "b"))
    model.root.leaf("A", initial=True).on("a", "C")
    model.root.leaf("B").on("a", "A")
    model.root.leaf("C").on("b", "B")
    machine = model.flatten()
    assert machine.state_names() == ("A", "B", "C")
    assert machine.start_state.name == "A"


def test_sole_final_leaf_is_the_finish_when_none_designated():
    model = HierarchicalModel("f", messages=("a",))
    model.root.leaf("Start", initial=True).on("a", "Done")
    model.root.leaf("Done", final=True)
    assert model.flatten().finish_state.name == "Done"


def test_no_finish_among_several_final_leaves_when_none_designated():
    model = HierarchicalModel("f", messages=("a", "b"))
    start = model.root.leaf("Start", initial=True)
    start.on("a", "Done")
    start.on("b", "Failed")
    model.root.leaf("Done", final=True)
    model.root.leaf("Failed", final=True)
    machine = model.flatten()
    assert machine.finish_state is None
    assert {s.name for s in machine.states if s.final} == {"Done", "Failed"}


def test_positional_engine_rejected():
    """``optimize`` is keyword-only, so a stale engine name passed where
    the flatten engine used to go fails loudly instead of being read as a
    pass spec."""
    with pytest.raises(TypeError):
        two_level_model().flatten("eager")
    with pytest.raises(TypeError):
        two_level_model().flatten_with_report("lazy")


def test_flatten_report_blowup_factors():
    _, report = two_level_model().flatten_with_report()
    assert report.composite_count == 2  # root + Running
    assert report.leaf_count == 4
    assert report.max_depth == 2
    # melt on root + stop on Running are inherited into leaves.
    assert report.inherited_expansions > 0
    assert report.transition_blowup == pytest.approx(
        report.flat_transitions / report.declared_transitions
    )
    assert report.total_time >= 0.0


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_duplicate_node_names_rejected():
    model = HierarchicalModel("dup", messages=("a",))
    model.root.leaf("X", initial=True)
    region = model.root.composite("R")
    region.leaf("X")
    with pytest.raises(ModelDefinitionError, match="duplicate node name"):
        model.validate()


def test_unknown_target_rejected():
    model = HierarchicalModel("t", messages=("a",))
    model.root.leaf("X", initial=True).on("a", "Nowhere")
    with pytest.raises(ModelDefinitionError, match="unknown node"):
        model.validate()


def test_undeclared_message_rejected():
    model = HierarchicalModel("t", messages=("a",))
    model.root.leaf("X", initial=True).on("b", "X")
    with pytest.raises(ModelDefinitionError, match="undeclared message"):
        model.validate()


def test_empty_composite_rejected():
    model = HierarchicalModel("t", messages=("a",))
    model.root.leaf("X", initial=True)
    model.root.composite("Empty")
    with pytest.raises(ModelDefinitionError, match="no children"):
        model.validate()


def test_final_leaf_cannot_declare_transitions():
    model = HierarchicalModel("t", messages=("a",))
    done = model.root.leaf("Done", initial=True, final=True)
    with pytest.raises(ModelDefinitionError, match="final leaf"):
        done.on("a", "Done")


def test_duplicate_message_on_node_rejected():
    model = HierarchicalModel("t", messages=("a",))
    leaf = model.root.leaf("X", initial=True)
    leaf.on("a", "X")
    with pytest.raises(ModelDefinitionError, match="already handles"):
        leaf.on("a", "X")


def test_two_initial_children_rejected():
    model = HierarchicalModel("t", messages=("a",))
    model.root.leaf("X", initial=True)
    with pytest.raises(ModelDefinitionError, match="already has initial"):
        model.root.leaf("Y", initial=True)


def test_finish_must_be_final_leaf():
    model = HierarchicalModel("t", messages=("a",))
    model.root.leaf("X", initial=True).on("a", "X")
    model.set_finish("X")
    with pytest.raises(ModelDefinitionError, match="final leaf"):
        model.validate()


def test_path_separator_banned_in_names():
    model = HierarchicalModel("t", messages=("a",))
    with pytest.raises(ModelDefinitionError, match="path separator"):
        model.root.leaf("A.B", initial=True)


def test_initial_defaults_to_first_child():
    model = HierarchicalModel("t", messages=("a",))
    model.root.leaf("First").on("a", "Second")
    model.root.leaf("Second").on("a", "First")
    assert model.flatten().start_state.name == "First"


# ----------------------------------------------------------------------
# the direct simulator
# ----------------------------------------------------------------------


def test_simulator_startup_performs_no_entry_actions():
    simulator = two_level_model().simulator()
    assert simulator.get_state() == "Off"
    assert simulator.sent == []
    assert not simulator.is_finished()


def test_simulator_fires_and_strips_action_prefixes():
    simulator = two_level_model().simulator()
    assert simulator.receive("go")
    assert simulator.get_state() == "Running.Warm"
    assert simulator.sent == ["ignite", "power_up", "warm_enter"]


def test_simulator_ignores_unhandled_messages():
    simulator = two_level_model().simulator()
    assert not simulator.receive("cool")  # only handled in Hot
    assert simulator.get_state() == "Off"
    assert simulator.sent == []


def test_simulator_rejects_unknown_message():
    simulator = two_level_model().simulator()
    with pytest.raises(DeploymentError, match="unknown message"):
        simulator.receive("warp")


def test_simulator_final_leaf_absorbs():
    simulator = two_level_model().simulator()
    simulator.receive("melt")
    assert simulator.get_state() == "Broken"
    assert simulator.is_finished()
    for message in ("go", "heat", "melt"):
        assert not simulator.receive(message)
    assert simulator.get_state() == "Broken"


def test_simulator_reset_and_set_state():
    simulator = two_level_model().simulator()
    simulator.receive("go")
    simulator.reset()
    assert simulator.get_state() == "Off"
    assert simulator.sent == []
    simulator.set_state("Running.Hot")
    assert simulator.get_state() == "Running.Hot"
    with pytest.raises(MachineStructureError, match="unknown state"):
        simulator.set_state("Nope")


def test_simulator_run_returns_new_actions():
    simulator = two_level_model().simulator()
    actions = simulator.run(["go", "heat"])
    assert actions == simulator.sent
    assert simulator.get_state() == "Running.Hot"


def test_simulator_sink_receives_actions():
    seen: list[str] = []
    model = two_level_model()
    simulator = HierarchicalSimulator(model, sink=seen.append)
    simulator.receive("go")
    assert seen == ["ignite", "power_up", "warm_enter"]
