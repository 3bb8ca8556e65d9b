"""The three intake tiers agree: ``post`` + ``drain_all``, ``run(events)``
and ``run(encode_flat(events))`` are one dispatch seen from three doors.

Every mode runs on the in-process engine and on a two-worker
:class:`~repro.serve.mpfleet.MultiprocessFleet`; each tier must leave
the same ``snapshot()`` and the same dispatch counters.  The run goes
through a ``despawn`` of a key with traffic addressed to it and a spawn
that reuses the freed slot, where a queued pair naming the slot (not the
key) would reach the wrong instance if a tier drained it late.
"""

import pytest

from repro.serve import HAS_NUMPY, make_fleet, shard_of
from repro.serve.workload import WorkloadSpec, generate_workload, session_keys
from tests.serve.conftest import machine_for

TIERS = ("posted", "events", "flat")

#: The counters every tier must agree on: a drain dispatches one batch,
#: as a run does, so the batch counts agree too.
COUNTERS = (
    "batches_drained",
    "events_dispatched",
    "transitions_fired",
    "events_ignored",
    "instances_recycled",
)

CASES = [
    pytest.param(
        impl,
        mode,
        marks=pytest.mark.skipif(
            mode == "vector" and not HAS_NUMPY, reason="numpy not available"
        ),
    )
    for mode in ("naive", "encoded", "vector")
    for impl in ("inproc", "mp")
]

INSTANCES = 10


def build(impl: str, mode: str, **kwargs):
    workers = 2 if impl == "mp" else None
    return make_fleet("commit", mode=mode, workers=workers, auto_recycle=True, **kwargs)


def phases():
    """Two workloads and the key despawned between them, with its heir.

    The heir hashes to the departing key's worker, so on both fleets the
    spawn pops the slot the despawn freed.
    """
    machine = machine_for("commit")
    keys = session_keys(INSTANCES)
    first = generate_workload(
        machine, WorkloadSpec(instances=INSTANCES, events=240, seed=41)
    )
    gone = keys[3]
    heir = next(
        key
        for key in (f"heir-{i}" for i in range(64))
        if shard_of(key, 2) == shard_of(gone, 2)
    )
    second = [
        (heir if key == gone else key, message)
        for key, message in generate_workload(
            machine, WorkloadSpec(instances=INSTANCES, events=240, seed=42)
        )
    ]
    assert any(key == gone for key, _ in first)
    assert any(key == heir for key, _ in second)
    return keys, first, gone, heir, second


def drive(fleet, tier: str, keys, first, gone, heir, second) -> None:
    slots = {key: fleet.spawn(key) for key in keys}

    def feed(events):
        if tier == "posted":
            for key, message in events:
                assert fleet.post(key, message) is True
        elif tier == "events":
            fleet.run(events)
        else:
            fleet.run(fleet.encode_flat(events))

    feed(first)
    fleet.despawn(gone)
    # The despawn delivered everything queued before it freed the slot.
    assert fleet.drain_all() == 0
    assert fleet.spawn(heir) == slots[gone]
    feed(second)
    if tier == "posted":
        assert fleet.drain_all() > 0
    assert fleet.drain_all() == 0


def outcome(fleet):
    metrics = fleet.metrics
    return fleet.snapshot(), {name: getattr(metrics, name) for name in COUNTERS}


@pytest.mark.parametrize("impl,mode", CASES)
def test_intake_tiers_agree(impl, mode):
    keys, first, gone, heir, second = phases()
    outcomes = {}
    for tier in TIERS:
        with build(impl, mode) as fleet:
            drive(fleet, tier, keys, first, gone, heir, second)
            outcomes[tier] = outcome(fleet)
    posted = outcomes["posted"]
    assert posted[1]["events_dispatched"] == len(first) + len(second)
    assert posted[1]["instances_recycled"] > 0
    assert outcomes["events"] == posted
    assert outcomes["flat"] == posted


@pytest.mark.parametrize(
    "mode",
    [
        pytest.param(
            mode,
            marks=pytest.mark.skipif(
                mode == "vector" and not HAS_NUMPY, reason="numpy not available"
            ),
        )
        for mode in ("naive", "encoded", "vector")
    ],
)
def test_queue_latency_counts_every_posted_event(mode):
    keys, first, gone, heir, second = phases()
    with build("inproc", mode, telemetry=True) as fleet:
        drive(fleet, "posted", keys, first, gone, heir, second)
        latency = fleet.telemetry.queue_latency
        assert latency.count == len(first) + len(second)
        assert latency.total > 0.0
