"""Workload generator tests: determinism, scenario shapes, validity."""

import hashlib
import random
from collections import Counter

import pytest

from repro.core.errors import SimulationError
from repro.models import build_hierarchical_model
from repro.serve import (
    SessionSimulator,
    WorkloadSpec,
    generate_workload,
    session_keys,
)
from tests.serve.conftest import machine_for


def commit_machine():
    return machine_for("commit")


class TestWorkload:
    def test_deterministic_for_seed(self):
        spec = WorkloadSpec(instances=30, events=2_000, seed=42)
        first = generate_workload(commit_machine(), spec)
        second = generate_workload(commit_machine(), spec)
        assert first == second

    def test_different_seeds_differ(self):
        base = WorkloadSpec(instances=30, events=2_000, seed=1)
        other = WorkloadSpec(instances=30, events=2_000, seed=2)
        assert generate_workload(commit_machine(), base) != generate_workload(
            commit_machine(), other
        )

    def test_events_reference_known_keys_and_messages(self):
        machine = commit_machine()
        spec = WorkloadSpec(instances=10, events=500, seed=0)
        keys = set(session_keys(10))
        for key, message in generate_workload(machine, spec):
            assert key in keys
            assert message in machine.messages

    def test_mostly_enabled_messages(self, make_fleet):
        # With 10% noise, the overwhelming majority of events fire.
        machine = commit_machine()
        events = generate_workload(
            machine, WorkloadSpec(instances=20, events=3_000, seed=7)
        )
        fleet = make_fleet(machine, auto_recycle=True)
        fleet.spawn_many(20)
        fleet.run(events)
        assert fleet.metrics.transitions_fired > 0.8 * len(events)

    def test_hotkey_skews_traffic(self):
        spec = WorkloadSpec(
            scenario="hotkey",
            instances=100,
            events=5_000,
            seed=3,
            hot_fraction=0.1,
            hot_share=0.9,
        )
        events = generate_workload(commit_machine(), spec)
        counts = Counter(key for key, _ in events)
        hot = set(session_keys(100)[:10])
        hot_traffic = sum(count for key, count in counts.items() if key in hot)
        assert hot_traffic > 0.8 * len(events)

    def test_burst_produces_runs(self):
        spec = WorkloadSpec(
            scenario="burst", instances=100, events=5_000, seed=3, burst_length=16
        )
        events = generate_workload(commit_machine(), spec)
        same_as_previous = sum(
            1
            for (prev, _), (cur, _) in zip(events, events[1:])
            if prev == cur
        )
        # Uniform arrivals over 100 keys would repeat ~1% of the time;
        # bursts make consecutive repeats the norm.
        assert same_as_previous > 0.8 * len(events)

    def test_event_count_honoured(self):
        spec = WorkloadSpec(instances=5, events=123, seed=0)
        assert len(generate_workload(commit_machine(), spec)) == 123

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SimulationError):
            generate_workload(
                commit_machine(), WorkloadSpec(scenario="tsunami")
            )

    def test_invalid_sizes_rejected(self):
        with pytest.raises(SimulationError):
            generate_workload(
                commit_machine(), WorkloadSpec(instances=0, events=10)
            )

    @pytest.mark.parametrize(
        "spec",
        [
            WorkloadSpec(scenario="hotkey", instances=10, hot_fraction=1.5),
            WorkloadSpec(scenario="hotkey", hot_share=-0.1),
            WorkloadSpec(scenario="burst", burst_length=0),
            WorkloadSpec(noise=2.0),
        ],
    )
    def test_out_of_range_spec_rejected(self, spec):
        with pytest.raises(SimulationError):
            generate_workload(commit_machine(), spec)


class TestSessionSimulator:
    def test_messages_are_valid_and_deterministic(self):
        machine = commit_machine()
        keys = ["a", "b"]
        first = SessionSimulator(machine, keys, random.Random(7), noise=0.2)
        second = SessionSimulator(machine, keys, random.Random(7), noise=0.2)
        for i in range(200):
            key = "a" if i % 2 else "b"
            m1, m2 = first.next_message(key), second.next_message(key)
            assert m1 == m2
            assert m1 in machine.messages

    def test_noise_validated(self):
        with pytest.raises(SimulationError):
            SessionSimulator(commit_machine(), ["a"], random.Random(0), noise=2.0)


#: sha256 (first 16 hex digits) of
#: ``repr(generate_workload(machine, WorkloadSpec(seed=seed)))``:
#: the simulator's draw order, pinned so that a change to how it reads the
#: machine cannot reorder a benchmark's schedule unnoticed.
PINNED_SCHEDULES = [
    ("commit", 0, "4625b74052945832"),
    ("commit", 1, "db7e50bd3f78714a"),
    ("commit", 2, "04782e013332beea"),
    ("session-hsm", 7, "1666d46fcfc573c2"),
    ("commit-hsm", 7, "8235c34419777976"),
]


@pytest.mark.parametrize(
    "name, seed, digest",
    PINNED_SCHEDULES,
    ids=[f"{name}-{seed}" for name, seed, _ in PINNED_SCHEDULES],
)
def test_schedule_is_pinned(name, seed, digest):
    if name == "commit":
        machine = commit_machine()
    else:
        machine = build_hierarchical_model(name.removesuffix("-hsm"), 4).flatten()
    schedule = generate_workload(machine, WorkloadSpec(seed=seed))
    assert hashlib.sha256(repr(schedule).encode()).hexdigest()[:16] == digest
