"""Differential acceptance suite: optimized == unoptimized behaviour.

For every bundled model — the four generated abstract models plus both
hierarchical models flattened — an optimized machine must be
trace-identical to its unoptimized input: action logs match exactly and
state names match through the pipeline's ``state_map`` (a merged state
answers to its representative's name).  Verified across:

* the interpreter and compiled backends, the latter under every way of
  supplying its action methods and against a bare indexed-array walk;
* every fleet dispatch mode (``naive`` / ``encoded`` / ``vector``), with
  the fleet's own ``optimize=`` hook;
* both generation engines for the generated models and both flatten
  engines for the hierarchical ones (via the shared machine cache).
"""

import json
import random
import subprocess
import sys

import pytest

from repro.models import build_hierarchical_model
from repro.models.chandra_toueg import CoordinatorRoundModel
from repro.models.commit import CommitModel
from repro.models.termination import TerminationModel
from repro.models.threshold_sig import ThresholdSignatureModel
from repro.opt import IndexedMachine, standard_pipeline
from repro.render.source import machine_class_name
from repro.runtime.actions import CallbackActions, RecordingActions
from repro.runtime.compile import compile_machine
from repro.runtime.export import export_machine_module
from repro.runtime.interp import MachineInterpreter
from repro.serve import (
    HAS_NUMPY,
    FleetEngine,
    WorkloadSpec,
    diff_against_hierarchical,
    diff_against_standalone,
    generate_workload,
)

#: Every bundled machine the optimizer must preserve, including both HSMs.
BUNDLED_MACHINES = [
    pytest.param(
        lambda: CommitModel(4).generate_state_machine(), id="commit-r4"
    ),
    pytest.param(
        lambda: CommitModel(4).generate_state_machine(engine="lazy"),
        id="commit-r4-lazy",
    ),
    pytest.param(
        lambda: CoordinatorRoundModel(processes=5).generate_state_machine(),
        id="chandra-toueg-n5",
    ),
    pytest.param(
        lambda: TerminationModel(max_tasks=3).generate_state_machine(),
        id="termination-t3",
    ),
    pytest.param(
        lambda: ThresholdSignatureModel(
            signers=4, threshold=3
        ).generate_state_machine(),
        id="threshold-sig",
    ),
    pytest.param(
        lambda: build_hierarchical_model("session").flatten(), id="session-hsm"
    ),
    pytest.param(
        lambda: build_hierarchical_model("commit", 4).flatten("lazy"),
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


def replay(executor, schedule, recycle=True) -> tuple:
    """Drive one executor; returns (state sequence, action log)."""
    states = []
    for message in schedule:
        executor.receive(message)
        states.append(executor.get_state())
        if recycle and executor.is_finished():
            executor.reset()
    return states, list(executor.sent)


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


class IndexedWalk:
    """The executor protocol over bare ``IndexedMachine`` arrays."""

    def __init__(self, machine):
        self.im = IndexedMachine.from_machine(machine)
        self.columns = self.im.message_index()
        self.state = self.im.start
        self.sent: list[str] = []

    def receive(self, message):
        offset = self.state * self.im.width + self.columns[message]
        target = self.im.next_state[offset]
        if target < 0:
            return False
        for action in self.im.action_seqs[self.im.action_seq[offset]]:
            self.sent.append(self.im.actions[action].removeprefix("->"))
        self.state = target
        return True

    def get_state(self):
        return self.im.state_names[self.state]

    def is_finished(self):
        return self.im.final[self.state]

    def reset(self):
        self.state = self.im.start
        self.sent.clear()


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


@pytest.mark.parametrize("factory", BUNDLED_MACHINES)
class TestInterpreterDifferential:
    def test_optimized_interpreter_replay_matches(self, factory, request):
        machine, optimized, report = cached(request)
        schedule = random_schedule(machine, 4000, seed=11)
        base_states, base_actions = replay(MachineInterpreter(machine), schedule)
        opt_states, opt_actions = replay(MachineInterpreter(optimized), schedule)
        assert opt_actions == base_actions
        mapped = [report.state_map[state] for state in base_states]
        assert opt_states == mapped

    def test_fired_flags_identical(self, factory, request):
        machine, optimized, _ = cached(request)
        a = MachineInterpreter(machine)
        b = MachineInterpreter(optimized)
        for message in random_schedule(machine, 1500, seed=7):
            assert a.receive(message) == b.receive(message)
            assert a.is_finished() == b.is_finished()
            if a.is_finished():
                a.reset()
                b.reset()


@pytest.mark.parametrize("factory", BUNDLED_MACHINES)
class TestCompiledDifferential:
    def test_compiled_optimized_matches_interpreter(self, factory, request):
        machine, optimized, report = cached(request)
        schedule = random_schedule(machine, 2000, seed=23)
        base_states, base_actions = replay(MachineInterpreter(machine), schedule)
        compiled = compile_machine(optimized).new_instance()
        opt_states, opt_actions = replay(compiled, schedule)
        assert opt_actions == base_actions
        assert opt_states == [report.state_map[state] for state in base_states]

    @pytest.mark.parametrize("flavour", sorted(COMPILED_FLAVOURS))
    def test_compiled_matches_interpreter_and_indexed_walk(
        self, flavour, factory, request, tmp_path
    ):
        """Three executors, one schedule, step for step: the generated
        class (under every way of supplying its action methods), the
        interpreter, and a bare walk over the IndexedMachine arrays."""
        _, optimized, _ = cached(request)
        schedule = random_schedule(optimized, 2000, seed=31)
        interp = MachineInterpreter(optimized)
        expected = step_log(interp, schedule, interp.sent)
        walk = IndexedWalk(optimized)
        assert step_log(walk, schedule, walk.sent) == expected
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


@pytest.mark.parametrize("hsm", ["session", "commit"])
@pytest.mark.parametrize("mode", MODES)
class TestHierarchicalOracle:
    """Optimized flattened HSMs still match direct hierarchical simulation."""

    def test_optimized_fleet_matches_simulator(self, hsm, mode):
        model = build_hierarchical_model(hsm, 4)
        machine = model.flatten()
        events = generate_workload(
            machine, WorkloadSpec(instances=120, events=3000, seed=13)
        )
        fleet = FleetEngine(machine, mode=mode, auto_recycle=True, optimize="full")
        keys = fleet.spawn_many(120)
        fleet.run(events)
        assert diff_against_hierarchical(fleet, model, keys, events) == []


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
