"""Execution efficiency: generated FSM vs non-FSM solutions (paper §4.4).

The paper states: "We have not yet compared the execution efficiency of a
running FSM implementation with that of a non-FSM solution.  However, we do
not expect any significant difference, given that very little computation
is required to respond to an incoming message."  This benchmark performs
that missing comparison across the four implementations shipped here:

* the compiled generated FSM class (the paper's deployment artefact),
* the interpreted FSM representation,
* the variable-based generic algorithm (the paper's "original algorithm"),
* the 9-state EFSM executor.

Each benchmark drives one full commit protocol execution (7 messages at
r=4) and asserts completion, so the measured quantity is end-to-end
per-operation message-handling cost.

The flattened hierarchical machines get their own compiled-vs-interpreted
pairs because they are where the two differ most: dispatch is one table
lookup per event in both, so what separates them is the cost of an
*action*, and flattening multiplies actions per event — every entry and
exit action of the regions a transition crosses is inlined into it.  The
session execution below performs 23 actions in 12 events and the commit
HSM 8 in 9, against 4 in 7 for the flat r=4 machine.
"""

from __future__ import annotations

import functools

import pytest

from benchmarks.conftest import commit_machine
from repro.baselines.generic_commit import GenericCommitAlgorithm
from repro.models import build_commit_hsm, build_session_hsm
from repro.models.commit_efsm import commit_efsm_executor
from repro.runtime.compile import compile_machine
from repro.runtime.interp import MachineInterpreter

#: One complete protocol execution at r=4.
TRACE = ["free", "update", "vote", "vote", "vote", "commit", "commit"]

#: One complete execution of each flattened hierarchical machine: the
#: session runs retry, authentication, a request, suspend/resume and a fatal
#: close; the commit HSM wraps TRACE in begin/finalize.
HSM_TRACES = {
    "session-hsm": (
        build_session_hsm,
        ("connect", "timeout", "resume", "syn_ack", "challenge", "proof_ok")
        + ("request", "done", "ping", "pause", "resume", "fatal"),
    ),
    "commit-hsm": (build_commit_hsm, ("begin", *TRACE, "finalize")),
}

_COMPILED = None


def compiled_class():
    global _COMPILED
    if _COMPILED is None:
        _COMPILED = compile_machine(commit_machine(4))
    return _COMPILED


def drive(factory, trace=TRACE) -> bool:
    instance = factory()
    for message in trace:
        instance.receive(message)
    return instance.is_finished()


def test_exec_compiled_fsm(benchmark):
    compiled = compiled_class()
    assert benchmark(lambda: drive(compiled.new_instance))


def test_exec_interpreted_fsm(benchmark):
    machine = commit_machine(4)
    assert benchmark(lambda: drive(lambda: MachineInterpreter(machine)))


def test_exec_generic_algorithm(benchmark):
    assert benchmark(lambda: drive(lambda: GenericCommitAlgorithm(4)))


def test_exec_efsm(benchmark):
    assert benchmark(lambda: drive(lambda: commit_efsm_executor(4)))


def test_exec_compiled_efsm(benchmark):
    """The generated EFSM artefact (one class for the whole family)."""
    from repro.models.commit_efsm import build_commit_efsm
    from repro.runtime.compile import compile_efsm

    compiled = compile_efsm(build_commit_efsm())
    assert benchmark(
        lambda: drive(lambda: compiled.new_instance(replication_factor=4))
    )


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
@pytest.mark.parametrize("model", sorted(HSM_TRACES))
def test_exec_flattened_hsm(benchmark, model, backend):
    """Compiled vs interpreted on the machines flattening produces."""
    build, trace = HSM_TRACES[model]
    machine = build().flatten()
    actions = MachineInterpreter(machine).run(trace)
    if backend == "compiled":
        factory = compile_machine(machine).new_instance
    else:
        # Validated once above: the timed runs handle messages only.
        factory = functools.partial(MachineInterpreter, machine, validate=False)
    assert benchmark(lambda: drive(factory, trace))
    benchmark.extra_info["messages_per_run"] = len(trace)
    benchmark.extra_info["actions_per_run"] = len(actions)


@pytest.mark.parametrize("r", [4, 13])
def test_exec_compiled_scaling(benchmark, r):
    """Per-message cost of the generated code as the family grows.

    The generated ``receive`` is two dict lookups whatever the number of
    states; this measures that machine size does not affect handling cost
    (the paper expects little impact).
    """
    compiled = compile_machine(commit_machine(r))
    f = (r - 1) // 3
    trace = ["free", "update"] + ["vote"] * (2 * f) + ["commit"] * (f + 1)

    def run() -> bool:
        instance = compiled.new_instance()
        for message in trace:
            instance.receive(message)
        return instance.is_finished()

    assert benchmark(run)
    benchmark.extra_info["states"] = len(commit_machine(r))
    benchmark.extra_info["messages_per_run"] = len(trace)
