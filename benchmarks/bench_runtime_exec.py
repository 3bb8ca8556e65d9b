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

Each benchmark drives one full commit protocol execution (8 messages at
r=4) and asserts completion, so the measured quantity is end-to-end
per-operation message-handling cost.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import commit_machine
from repro.baselines.generic_commit import GenericCommitAlgorithm
from repro.models.commit_efsm import commit_efsm_executor
from repro.runtime.compile import compile_machine
from repro.runtime.interp import MachineInterpreter

#: One complete protocol execution at r=4.
TRACE = ["free", "update", "vote", "vote", "vote", "commit", "commit"]

_COMPILED = None


def compiled_class():
    global _COMPILED
    if _COMPILED is None:
        _COMPILED = compile_machine(commit_machine(4))
    return _COMPILED


def drive(factory) -> bool:
    instance = factory()
    for message in TRACE:
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
