"""Differential harness: fleet runs versus standalone interpreter replays.

The fleet's correctness claim is that hosting an instance inside the
execution plane is observationally identical to running it alone: for any
recorded event schedule, every instance's final ``(state, action log)``
trace must match a standalone :class:`~repro.runtime.interp.MachineInterpreter`
fed the same per-key subsequence.  This module replays schedules standalone
and reports mismatches; the test suite and the end-to-end benchmark's
oracles use it.

The comparison is only meaningful when the fleet retains full action
logs: fleets running ``log_policy='off'`` have no trace to compare, so
the harness rejects them up front.
"""

from __future__ import annotations

from repro.core.errors import DeploymentError
from repro.core.machine import StateMachine
from repro.runtime.interp import MachineInterpreter
from repro.serve.store import InstanceSnapshot


def standalone_traces(
    machine: StateMachine,
    keys,
    events,
    auto_recycle: bool = False,
) -> dict[str, InstanceSnapshot]:
    """Replay a recorded schedule through one interpreter per session key.

    ``auto_recycle`` mirrors the fleet option: an instance that reaches a
    final state is immediately ``reset()``.
    """
    machine.check_integrity()
    executors = {key: MachineInterpreter(machine, validate=False) for key in keys}
    for key, message in events:
        executor = executors[key]
        if executor.receive(message):
            if auto_recycle and executor.is_finished():
                executor.reset()
    return {
        key: InstanceSnapshot(key, executor.get_state(), tuple(executor.sent))
        for key, executor in executors.items()
    }


def _require_full_logs(fleet) -> None:
    """Reject fleets whose log policy retains no comparable trace."""
    policy = getattr(fleet, "log_policy", "full")
    if policy != "full":
        raise DeploymentError(
            f"differential comparison needs log_policy='full'; the fleet "
            f"runs {policy!r} and retains no action logs to compare"
        )


def _trace_matches(actual: InstanceSnapshot, expected: InstanceSnapshot, state_map):
    """Whether a fleet trace matches an oracle trace.

    Action logs must be identical — actions are the machine's observable
    behaviour and no optimization may change them.  States compare by
    name, through ``state_map`` when the fleet served a machine whose
    equivalent states were merged (a merged state answers to its
    representative's name; the oracle replays the unoptimized machine).
    """
    if actual.actions != expected.actions:
        return False
    if state_map is None:
        return actual.state == expected.state
    return actual.state == state_map.get(expected.state, expected.state)


def diff_fleets(fleet_a, fleet_b, keys) -> list[str]:
    """Keys whose final traces differ between two fleets.

    The scenario plane's replay oracle: two fleets of *any* dispatch
    mode/backend combination that ran the same seeded scenario must end
    with identical per-key ``(state, action log)`` traces — including a
    fleet that was killed and restored mid-run versus one that ran
    undisturbed.  Both fleets must retain full logs and serve the same
    optimization (identical ``state_map``); comparing across different
    merges would need an inverse map that does not exist.
    """
    _require_full_logs(fleet_a)
    _require_full_logs(fleet_b)
    if getattr(fleet_a, "state_map", None) != getattr(fleet_b, "state_map", None):
        raise DeploymentError(
            "diff_fleets needs both fleets serving the same optimized "
            "machine (their state_maps differ)"
        )
    mismatched = []
    for key in keys:
        a = fleet_a.trace(key)
        b = fleet_b.trace(key)
        if a.state != b.state or a.actions != b.actions:
            mismatched.append(key)
    return mismatched


def diff_against_standalone(fleet, keys, events) -> list[str]:
    """Keys whose fleet trace differs from the standalone replay.

    ``fleet`` must already have processed ``events``; the standalone side
    is replayed here with the fleet's own ``auto_recycle`` setting, on
    the fleet's *pre-optimization* machine.  An empty list means the
    fleet is observationally identical to single-instance runs (modulo
    ``state_map`` for fleets serving merged machines).
    """
    _require_full_logs(fleet)
    expected = standalone_traces(
        fleet.machine, keys, events, auto_recycle=fleet.auto_recycle
    )
    state_map = getattr(fleet, "state_map", None)
    return [
        key
        for key in keys
        if not _trace_matches(fleet.trace(key), expected[key], state_map)
    ]
