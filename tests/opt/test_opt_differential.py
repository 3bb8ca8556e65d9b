"""Every representation change preserves behaviour, for every bundled model.

For the four generated abstract models and both hierarchical models
flattened, :func:`repro.analysis.equivalent` decides each hop
exhaustively (``TestEveryHop``): the step-4 quotient, each optimisation
pass and the standard pipeline (modulo their ``state_map``), the
``IndexedMachine`` and XML round trips, the generated class, a fleet's
jump/acts table and the vector kernel's remapped table; and the
flattened hierarchies against ``HierarchicalSimulator`` under both
flatten engines.  A failure names a shortest message sequence that tells
the two sides apart.

The executors that run batches are compared by replay: the compiled
class under every way of supplying its action methods, and every fleet
dispatch mode with the fleet's own ``optimize=`` hook.
"""

import json
import random
import subprocess
import sys

import pytest

from repro.core.machine import StateMachine
from repro.core.minimize import merge_equivalent
from repro.core.pipeline import ENGINES
from repro.core.state import State, Transition
from repro.models import HIERARCHICAL_MODELS, build_hierarchical_model
from repro.models.chandra_toueg import CoordinatorRoundModel
from repro.models.commit import CommitModel
from repro.models.termination import TerminationModel
from repro.models.threshold_sig import ThresholdSignatureModel
from repro.opt import PASSES, IndexedMachine, PassPipeline, standard_pipeline
from repro.render.source import machine_class_name
from repro.render.xml import XmlRenderer, parse_machine_xml
from repro.runtime.actions import CallbackActions, RecordingActions
from repro.runtime.compile import compile_machine
from repro.runtime.export import export_machine_module
from repro.runtime.interp import MachineInterpreter
from repro.serve import (
    HAS_NUMPY,
    FleetEngine,
    WorkloadSpec,
    diff_against_standalone,
    generate_workload,
)
from tests.readback import check, read_executor, same_names

#: Every bundled machine the optimizer must preserve, including both HSMs.
#: ``factory(merge=False)`` is the machine before step 4; flattening
#: merges nothing, so the HSM entries ignore it.
BUNDLED_MACHINES = [
    pytest.param(
        lambda merge=True: CommitModel(4).generate_state_machine(merge=merge),
        id="commit-r4",
    ),
    pytest.param(
        lambda merge=True: CommitModel(4).generate_state_machine(
            engine="lazy", merge=merge
        ),
        id="commit-r4-lazy",
    ),
    pytest.param(
        lambda merge=True: CoordinatorRoundModel(processes=5).generate_state_machine(
            merge=merge
        ),
        id="chandra-toueg-n5",
    ),
    pytest.param(
        lambda merge=True: TerminationModel(max_tasks=3).generate_state_machine(
            merge=merge
        ),
        id="termination-t3",
    ),
    pytest.param(
        lambda merge=True: ThresholdSignatureModel(
            signers=4, threshold=3
        ).generate_state_machine(merge=merge),
        id="threshold-sig",
    ),
    pytest.param(
        lambda merge=True: build_hierarchical_model("session").flatten(),
        id="session-hsm",
    ),
    pytest.param(
        lambda merge=True: build_hierarchical_model("commit", 4).flatten("lazy"),
        id="commit-hsm-r4",
    ),
]

#: Every fleet dispatch mode this environment can build.
MODES = ["naive", "encoded"] + (["vector"] if HAS_NUMPY else [])

_CACHE: dict = {}


def cached(request) -> tuple:
    """(machine, optimized machine, report) per parametrised model."""
    key = request.node.callspec.params["factory"]
    if key not in _CACHE:
        machine = key()
        optimized, report = standard_pipeline(3).optimize_machine(machine)
        _CACHE[key] = (machine, optimized, report)
    return _CACHE[key]


def random_schedule(machine, steps: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [rng.choice(machine.messages) for _ in range(steps)]


def step_log(executor, schedule, log) -> list:
    """Per step ``[fired, state after, actions performed]``, recycling a
    finished executor; ``log`` is the list the executor's actions land in
    (cleared here too, for executors whose ``reset`` does not own it)."""
    steps = []
    for message in schedule:
        before = len(log)
        fired = executor.receive(message)
        steps.append([fired, executor.get_state(), log[before:]])
        if executor.is_finished():
            executor.reset()
            log.clear()
    return steps


def run_recording(machine, schedule, _tmp_path):
    instance = compile_machine(machine).new_instance()
    return step_log(instance, schedule, instance.sent)


def run_callback(machine, schedule, _tmp_path):
    seen: list[str] = []
    compiled = compile_machine(machine, action_base=CallbackActions)
    return step_log(compiled.new_instance(seen.append), schedule, seen)


def run_partial_base(machine, schedule, _tmp_path):
    """A hand-written base defining only the first action method: the
    generated class must call it and have the rest installed by
    RecordingActions, on the generated class itself."""
    names = compile_machine(machine).cls.ACTION_METHODS
    first = names[0]
    calls = []

    def by_hand(self):
        calls.append(first)
        self.sent.append(first.removeprefix("send_"))

    base = type("PartialActions", (RecordingActions,), {first: by_hand})
    cls = compile_machine(machine, action_base=base).cls
    assert getattr(cls, first) is by_hand
    assert [name for name in names if name in vars(cls)] == list(names[1:])
    instance = cls()
    steps = step_log(instance, schedule, instance.sent)
    assert calls
    return steps


_STANDALONE_DRIVER = """
import importlib.util, json, sys
path, class_name = sys.argv[1:3]
def library_loaded():
    return any(name.split(".")[0] == "repro" for name in sys.modules)
assert not library_loaded()
spec = importlib.util.spec_from_file_location("exported_machine", path)
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
assert not library_loaded()
log = []
def recorder(action):
    return lambda self: log.append(action)
cls = getattr(module, class_name)
members = {name: recorder(name[len("send_"):]) for name in cls.ACTION_METHODS}
instance = type("Recorded", (cls,), members)()
steps = []
for message in json.load(sys.stdin):
    before = len(log)
    fired = instance.receive(message)
    steps.append([fired, instance.get_state(), log[before:]])
    if instance.is_finished():
        instance.reset()
        del log[:]
json.dump(steps, sys.stdout)
"""


def run_standalone_subprocess(machine, schedule, tmp_path):
    """The exported module, imported by an isolated interpreter that has
    no ``repro`` on its path: the artefact really is standalone."""
    path = export_machine_module(machine, tmp_path / "exported_machine.py")
    isolated = [sys.executable, "-I", "-c", _STANDALONE_DRIVER]
    done = subprocess.run(
        [*isolated, str(path), machine_class_name(machine)],
        input=json.dumps(schedule),
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


COMPILED_FLAVOURS = {
    "recording": run_recording,
    "callback": run_callback,
    "partial-base": run_partial_base,
    "standalone-subprocess": run_standalone_subprocess,
}


def read_table(im, move) -> StateMachine:
    """A dispatch table laid out like ``im`` (offset ``state * width +
    column``) as a machine: ``move(offset)`` is ``None`` or ``(target id,
    action names)``; names, finality and start come from ``im``."""
    read = StateMachine(im.messages, name="table")
    for s, name in enumerate(im.state_names):
        state = read.add_state(State(name, final=im.final[s]))
        for col, message in enumerate(im.messages):
            found = move(s * im.width + col)
            if found is not None:
                target, actions = found
                state.record_transition(
                    Transition(message, im.state_names[target], actions)
                )
    read.set_start(im.state_names[im.start])
    return read


@pytest.mark.parametrize("factory", BUNDLED_MACHINES)
class TestEveryHop:
    """Each representation change, decided exhaustively."""

    def test_step4_quotient(self, factory):
        unmerged = factory(merge=False)
        im = IndexedMachine.from_machine(merge_equivalent(unmerged))
        representative = {
            (member, name)
            for name, members in zip(im.state_names, im.state_merged)
            for member in members
        }
        assert check(unmerged, im) == representative

    @pytest.mark.parametrize("passes", [*PASSES, "standard"])
    def test_opt_pass(self, factory, passes):
        machine = factory(merge=False)
        pipeline = (
            standard_pipeline(3)
            if passes == "standard"
            else PassPipeline((PASSES[passes](),))
        )
        optimized, report = pipeline.optimize_machine(machine)
        assert check(machine, optimized) == set(report.state_map.items())

    def test_indexed_round_trip(self, factory):
        machine = factory()
        machine.states  # built objects drop the carried IR: intern them anew
        round_trip = IndexedMachine.from_machine(machine).to_machine()
        assert check(machine, round_trip) == same_names(machine)

    def test_xml_round_trip(self, factory):
        machine = factory()
        parsed = parse_machine_xml(XmlRenderer().render(machine))
        assert check(machine, parsed) == same_names(machine)

    def test_compiled_class(self, factory):
        machine = factory()
        instance = compile_machine(machine).new_instance()
        read = read_executor(instance, machine.messages)
        assert check(machine, read) == same_names(machine)

    def test_fleet_jump_table(self, factory):
        machine = factory(merge=False)
        fleet = FleetEngine(machine, optimize=3)
        im, jump, acts = fleet.indexed_machine, fleet._jump, fleet._acts

        def move(offset):
            if jump[offset] < 0:
                return None
            return jump[offset] // im.width, acts[offset]

        pairs = check(machine, read_table(im, move))
        assert pairs == set(fleet.opt_report.state_map.items())

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available")
    def test_vector_kernel_table(self, factory):
        """An ignored event must leave the state it read: an offset
        flagged inapplicable whose jump goes elsewhere is a transition."""
        machine = factory(merge=False)
        fleet = FleetEngine(machine, mode="vector", optimize=3)
        im, kernel, acts = fleet.indexed_machine, fleet._kernel, fleet._acts

        def move(offset):
            target = int(kernel._jump[offset])
            if kernel._flags[offset] & 1 and target == offset - offset % im.width:
                return None
            return target // im.width, acts[offset] if kernel._logged[offset] else ()

        pairs = check(machine, read_table(im, move))
        assert pairs == set(fleet.opt_report.state_map.items())


@pytest.mark.parametrize("name", HIERARCHICAL_MODELS)
@pytest.mark.parametrize("engine", ENGINES)
def test_flattened_hsm_matches_simulator(name, engine):
    model = build_hierarchical_model(name, 4)
    flat = model.flatten(engine)
    read = read_executor(model.simulator(), flat.messages)
    assert check(flat, read) == same_names(flat)


@pytest.mark.parametrize("factory", BUNDLED_MACHINES)
class TestCompiledDifferential:
    @pytest.mark.parametrize("flavour", sorted(COMPILED_FLAVOURS))
    def test_compiled_matches_interpreter(self, flavour, factory, request, tmp_path):
        """One schedule, step for step: the generated class, under every
        way of supplying its action methods, and the interpreter."""
        _, optimized, _ = cached(request)
        schedule = random_schedule(optimized, 2000, seed=31)
        interp = MachineInterpreter(optimized)
        expected = step_log(interp, schedule, interp.sent)
        assert any(actions for _, _, actions in expected)
        assert COMPILED_FLAVOURS[flavour](optimized, schedule, tmp_path) == expected


@pytest.mark.parametrize("factory", BUNDLED_MACHINES)
@pytest.mark.parametrize("mode", MODES)
class TestFleetDifferential:
    def test_optimized_fleet_matches_standalone(self, factory, mode, request):
        machine, _, _ = cached(request)
        events = generate_workload(
            machine, WorkloadSpec(instances=150, events=4000, seed=5)
        )
        fleet = FleetEngine(machine, mode=mode, auto_recycle=True, optimize=3)
        keys = fleet.spawn_many(150)
        fleet.run(events)
        assert diff_against_standalone(fleet, keys, events) == []

    def test_optimized_and_raw_fleets_agree_on_actions(self, factory, mode, request):
        machine, _, report = cached(request)
        events = generate_workload(
            machine, WorkloadSpec(instances=100, events=3000, seed=9)
        )
        raw = FleetEngine(machine, mode=mode, auto_recycle=True)
        opt = FleetEngine(machine, mode=mode, auto_recycle=True, optimize=3)
        keys = raw.spawn_many(100)
        opt.spawn_many(100)
        raw.run(events)
        opt.run(events)
        for key in keys:
            raw_trace = raw.trace(key)
            opt_trace = opt.trace(key)
            assert opt_trace.actions == raw_trace.actions
            assert opt_trace.state == report.state_map[raw_trace.state]


class TestBlowupRecovery:
    """Flattening blow-up is recovered: merging strictly shrinks an HSM."""

    def test_commit_hsm_strictly_reduced(self):
        flat = build_hierarchical_model("commit", 4).flatten()
        optimized, report = standard_pipeline(2).optimize_machine(flat)
        assert len(optimized) < len(flat)
        assert report.delta("merge").states_removed >= 1
        assert not report.identity

    def test_flatten_optimize_hook_reports_recovery(self):
        model = build_hierarchical_model("commit", 4)
        machine, report = model.flatten_with_report("eager", optimize=2)
        assert report.opt_states == len(machine)
        assert report.opt_states < report.flat_states
        assert report.recovered_states >= 1
        assert report.opt_report is not None
        assert "optimize" in report.timings

    def test_merged_machine_survives_all_backends(self):
        flat = build_hierarchical_model("commit", 4).flatten()
        optimized, _ = standard_pipeline(2).optimize_machine(flat)
        optimized.check_integrity()
        compile_machine(optimized)
        IndexedMachine.from_machine(optimized).check_integrity()


@pytest.mark.parametrize("mode", MODES)
class TestSnapshotAcrossOptimization:
    """Snapshots cross the optimization boundary through state_map."""

    def drive_to_merged_state(self, fleet):
        """Park instance 'a' in the state the merge pass renames (the
        terminal reached via abort, merged with the finish terminal)."""
        fleet.spawn("a")
        fleet.deliver("a", "begin")
        fleet.deliver("a", "abort")

    def test_unoptimized_snapshot_restores_into_optimized_fleet(self, mode):
        machine = build_hierarchical_model("commit", 4).flatten()
        raw = FleetEngine(machine, mode=mode)
        self.drive_to_merged_state(raw)
        snap = raw.snapshot()
        assert snap.instances[0].state == "Aborted"

        opt = FleetEngine(machine, mode=mode, optimize="full")
        opt.restore(snap)
        trace = opt.trace("a")
        assert trace.state == opt.state_map["Aborted"]
        assert trace.actions == snap.instances[0].actions
        assert opt.is_finished("a")

    def test_optimized_snapshot_restores_into_optimized_fleet(self, mode):
        machine = build_hierarchical_model("commit", 4).flatten()
        first = FleetEngine(machine, mode=mode, optimize="full")
        self.drive_to_merged_state(first)
        snap = first.snapshot()
        second = FleetEngine(machine, mode=mode, optimize="full")
        second.restore(snap)
        assert second.trace("a") == first.trace("a")

    def test_unknown_state_still_rejected(self, mode):
        from repro.core.errors import DeploymentError
        from repro.serve.fleet import FleetSnapshot
        from repro.serve.store import InstanceSnapshot

        machine = build_hierarchical_model("commit", 4).flatten()
        fleet = FleetEngine(machine, mode=mode, optimize="full")
        bogus = FleetSnapshot(
            machine_name=machine.name,
            instances=(InstanceSnapshot("a", "NoSuchState", ()),),
        )
        with pytest.raises(DeploymentError, match="does not exist"):
            fleet.restore(bogus)


class TestGenerateOptimizeHook:
    def test_generate_with_engine_applies_pipeline(self):
        from repro.core.pipeline import generate_with_engine

        machine, report = generate_with_engine(CommitModel(4), "lazy", optimize=3)
        assert report.opt_report is not None
        assert len(machine) == report.opt_report.states_after
        assert "optimize" in report.timings

    def test_optimize_none_is_a_no_op(self):
        from repro.core.pipeline import generate_with_engine

        machine, report = generate_with_engine(CommitModel(4), "eager", optimize=None)
        assert report.opt_report is None
        assert len(machine) == 33
