"""Acceptance suite for the vectorized dispatch kernel.

Two families of checks:

* **Differential** — a ``vector`` fleet must be trace-, metrics- and
  snapshot-identical to its scalar twins under every log policy,
  including the masked edges the kernel post-processes scalar-side
  (action logging, auto-recycle) and the bounded-mailbox path.  The
  scalar encoded path is the oracle.
* **Fallback** — without numpy (simulated via ``REPRO_NO_NUMPY``, the
  switch the no-numpy CI job flips) a ``vector`` fleet must fail with
  the canonical :class:`DeploymentError` at construction while every
  scalar mode serves untouched.

The scenario-plane differential for vector mode lives in the fuzz
matrix (``test_scenario_fuzz.py``); the Fleet-protocol conformance runs
in ``test_fleet_protocol.py``.
"""

import os
import subprocess
import sys
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.errors import DeploymentError
from repro.serve import (
    HAS_NUMPY,
    FleetEngine,
    VectorSchedule,
    WorkloadSpec,
    generate_workload,
)
from repro.serve.vector import _RADIX_LIMIT
from tests.serve.conftest import BUNDLED_MODELS, machine_for

pytestmark = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available")

if HAS_NUMPY:
    import numpy as np

    from repro.serve.vector import StateColumn
    from tests.serve.occurrence_rounds_reference import occurrence_rounds


def build(machine, mode, **kwargs):
    return FleetEngine(machine, mode=mode, **kwargs)


def workload(machine, instances=150, events=4000, seed=7, scenario="uniform"):
    return generate_workload(
        machine,
        WorkloadSpec(
            scenario=scenario, instances=instances, events=events, seed=seed
        ),
    )


# ----------------------------------------------------------------------
# building blocks
# ----------------------------------------------------------------------


class TestStateColumn:
    def test_list_like_semantics(self):
        col = StateColumn()
        for value in range(200):  # crosses the initial 64-slot capacity
            col.append(value * 3)
        assert len(col) == 200
        assert col[5] == 15 and isinstance(col[5], int)
        col[5] = 42
        assert col[5] == 42
        assert col.data.dtype == np.int64

    def test_growth_preserves_contents(self):
        col = StateColumn()
        values = list(range(1000))
        for value in values:
            col.append(value)
        assert [col[i] for i in range(1000)] == values


class TestOccurrenceRounds:
    def _rounds(self, slot_list, col_list):
        rounds = VectorSchedule.of_columns(slot_list, col_list).rounds
        return [(list(s), list(c)) for s, c in rounds]

    def test_matches_scalar_grouping(self):
        # Round r must hold every slot's r-th event in arrival order.
        slots = [3, 1, 3, 2, 1, 3, 3]
        cols = [0, 1, 2, 3, 4, 5, 6]
        rounds = self._rounds(slots, cols)
        assert rounds == [
            ([3, 1, 2], [0, 1, 3]),
            ([3, 1], [2, 4]),
            ([3], [5]),
            ([3], [6]),
        ]


def _as_lists(rounds):
    return [(s.tolist(), c.tolist()) for s, c in rounds]


def _retained_arrays(held) -> int:
    """numpy arrays a schedule holds, directly or inside its containers."""
    if isinstance(held, VectorSchedule):
        held = [getattr(held, name) for name in VectorSchedule.__slots__]
    if isinstance(held, (list, tuple)):
        return sum(_retained_arrays(item) for item in held)
    return isinstance(held, np.ndarray)


@st.composite
def _batches(draw):
    """Arrival-order ``(slots, cols)`` with heavy repeats: few distinct
    slots (one slot alone gives a round per event, so sizes above 256 also
    cross the one-byte round count), ids on both sides of the radix limit."""
    size = draw(st.integers(0, 600))
    distinct = draw(st.sampled_from([1, 2, 5, 40, 1000]))
    base = draw(st.sampled_from([0, _RADIX_LIMIT - 3, _RADIX_LIMIT + 5000]))
    ids = st.integers(base, base + distinct - 1)
    slots = draw(st.lists(ids, min_size=size, max_size=size))
    cols = draw(st.lists(st.integers(0, 7), min_size=size, max_size=size))
    return slots, cols


@settings(max_examples=120, deadline=None)
@given(batch=_batches())
@example(batch=([7] * 300, list(range(8)) * 37 + [0, 1, 2, 3]))
@example(
    batch=(
        [_RADIX_LIMIT - 1, _RADIX_LIMIT, _RADIX_LIMIT, _RADIX_LIMIT - 1],
        [0, 1, 2, 3],
    )
)
def test_schedule_matches_the_reference_split(batch):
    slots, cols = batch
    flat = array("q", [x for pair in zip(slots, cols) for x in pair])
    schedule = VectorSchedule.of_columns(slots, cols)
    expected = _as_lists(
        occurrence_rounds(
            np.asarray(slots, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        )
    )
    # Round for round what the per-round-array split produced ...
    assert _as_lists(schedule.rounds) == expected
    assert _as_lists(VectorSchedule(flat).rounds) == expected
    assert len(schedule) == schedule.count == len(slots)
    # ... race-free inside a round, arrival order recoverable ...
    for round_slots, _ in schedule.rounds:
        assert len(set(round_slots.tolist())) == len(round_slots)
    assert schedule.flat == flat
    # ... and held in a fixed number of arrays however many rounds.
    assert _retained_arrays(schedule) <= 3


def _held_bytes(schedule) -> int:
    """Bytes in the numpy arrays and ``array`` buffers a schedule holds."""
    held = [getattr(schedule, name) for name in VectorSchedule.__slots__]
    return sum(
        memoryview(item).nbytes
        for item in held
        if isinstance(item, (np.ndarray, array))
    )


class TestCompactLayout:
    """A held event costs 5 bytes below 65 536 instances, 256 messages and
    65 536 events, and narrowing never changes a value."""

    def test_a_bulk_batch_holds_five_bytes_per_event(self):
        machine = machine_for("commit")
        fleet = build(machine, "vector", log_policy="off")
        fleet.spawn_many(10_000)
        events = workload(machine, instances=10_000, events=4096, seed=31)
        schedule = fleet.encode_flat(events)
        # Uniform keys over 10 000 instances repeat some slots, so the
        # permutation is held too.
        assert len(schedule.rounds) > 1
        assert _held_bytes(schedule) <= 5 * 4096

    @pytest.mark.parametrize(
        "top,itemsize", [(255, 1), (256, 2), (65_535, 2), (65_536, 4)]
    )
    def test_id_widths_at_each_boundary(self, top, itemsize):
        for schedule in (
            VectorSchedule.of_columns([top, 0, top], [0, top, 1]),
            VectorSchedule(array("q", [top, 0, 0, top, top, 1])),
        ):
            assert schedule.slots.dtype.itemsize == itemsize
            assert schedule.cols.dtype.itemsize == itemsize
            assert schedule.slots.dtype.kind == schedule.cols.dtype.kind == "u"
            assert list(schedule.flat) == [top, 0, 0, top, top, 1]

    @pytest.mark.parametrize("count,itemsize", [(65_536, 2), (65_537, 4)])
    def test_permutation_width_at_the_event_boundary(self, count, itemsize):
        # Two slots alternate, so every event but the first two is in a
        # later round and the permutation is held.
        slots = [index % 2 for index in range(count)]
        schedule = VectorSchedule.of_columns(slots, [0] * count)
        assert schedule._order.dtype.itemsize == itemsize
        assert list(schedule.flat[0::2]) == slots

    def test_a_negative_id_keeps_a_signed_dtype(self):
        # A trusted array('q') is never checked; its values survive.
        flat = array("q", [-1, 2, 3, -7, -1, 0, 1 << 40, 1])
        schedule = VectorSchedule(flat)
        assert schedule.slots.dtype == np.int64
        assert schedule.cols.dtype == np.int64
        assert schedule.flat == flat

    def test_reads_and_runs_leave_the_held_bytes_unchanged(self):
        machine = machine_for("commit")
        vec = build(machine, "vector")
        scalar = build(machine, "encoded")
        vec.spawn_many(40)
        scalar.spawn_many(40)
        events = workload(machine, instances=40, events=600, seed=6)
        first = vec.encode_flat(events[:300])
        second = vec.encode_flat(events[300:])
        held = _held_bytes(first), _held_bytes(second)
        scalar.run(first, encoding="flat")
        assert len(first.flat) == 600
        assert (_held_bytes(first), _held_bytes(second)) == held

    @pytest.mark.parametrize(
        "instances,events,wide",
        [(65_537, 65_537, "slots"), (65_536, 70_000, "_order")],
        ids=["wide-slots", "wide-permutation"],
    )
    def test_vector_matches_encoded_at_the_boundaries(self, instances, events, wide):
        machine = machine_for("commit")
        messages = list(machine.messages)
        outcome = {}
        for mode in ("encoded", "vector"):
            fleet = build(machine, mode, log_policy="off", auto_recycle=True)
            keys = fleet.spawn_many(instances)
            # Every slot in turn from the last, so slot ids reach the
            # top; a batch longer than the population repeats slots, so
            # the permutation is held.
            batch = [
                (keys[-1 - index % instances], messages[index % len(messages)])
                for index in range(events)
            ]
            schedule = fleet.encode_flat(batch)
            if mode == "vector":
                assert getattr(schedule, wide).dtype == np.uint32
            fleet.run(schedule, encoding="flat")
            outcome[mode] = (
                fleet.metrics.as_dict(),
                [fleet.state_name(key) for key in keys],
            )
        assert outcome["encoded"] == outcome["vector"]


class TestVectorSchedule:
    def _fleet(self):
        machine = machine_for("commit")
        fleet = build(machine, "vector")
        fleet.spawn_many(20)
        return machine, fleet

    def test_empty_schedule(self):
        _, fleet = self._fleet()
        schedule = fleet.encode_flat([])
        assert len(schedule) == 0 and schedule.rounds == []
        fleet.run(schedule, encoding="flat")
        assert fleet.metrics.events_dispatched == 0


# ----------------------------------------------------------------------
# differential: vector == encoded, every policy, every model
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model", BUNDLED_MODELS)
@pytest.mark.parametrize("log_policy", ["full", "off"])
def test_vector_matches_encoded_metrics_and_states(model, log_policy):
    machine = machine_for(model)
    # A wide uniform batch, then a hotkey batch at least 60 rounds deep:
    # ignored/recycled come from one gather per batch, not one per round.
    uniform = workload(machine)
    hotkey = workload(machine, scenario="hotkey", seed=8)
    fleets = {}
    for mode in ("encoded", "vector"):
        fleet = build(machine, mode, log_policy=log_policy, auto_recycle=True)
        keys = fleet.spawn_many(150)
        fleet.run(uniform)
        fleet.run(hotkey)
        fleets[mode] = fleet
    enc, vec = fleets["encoded"], fleets["vector"]
    assert len(vec.encode_flat(hotkey).rounds) >= 60
    assert vec.metrics.instances_recycled > 0 and vec.metrics.events_ignored > 0
    assert enc.metrics.as_dict() == vec.metrics.as_dict()
    for key in keys:
        assert enc.state_name(key) == vec.state_name(key)
        if log_policy != "off":
            assert enc.trace(key) == vec.trace(key)


# ----------------------------------------------------------------------
# snapshots: bit-identical across vector <-> encoded restore
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "source,target", [("vector", "encoded"), ("encoded", "vector")]
)
def test_snapshot_restores_bit_identically_across_modes(source, target):
    machine = machine_for("commit")
    events = workload(machine, instances=80, events=2500, seed=17)
    src = build(machine, source, auto_recycle=True)
    keys = src.spawn_many(80)
    src.run(events)
    snapshot = src.snapshot()

    dst = build(machine, target, auto_recycle=True)
    dst.restore(snapshot)
    assert dst.snapshot().instances == snapshot.instances
    # The restored fleet keeps serving identically to the source.
    more = workload(machine, instances=80, events=1000, seed=18)
    src.run(more)
    dst.run(more)
    assert {k: dst.trace(k) for k in keys} == {k: src.trace(k) for k in keys}


# ----------------------------------------------------------------------
# canonical errors
# ----------------------------------------------------------------------


@pytest.mark.parametrize("encoding", ["flat", "auto"])
@pytest.mark.parametrize(
    "twin",
    [
        {"mode": "encoded"},
        {"mode": "naive"},
    ],
    ids=["encoded", "naive"],
)
def test_encoded_twin_runs_a_vector_schedule(twin, encoding):
    # encode_flat promises run() takes the schedule wherever it takes a
    # flat array: same spawn order means same slots, so a scalar twin —
    # the naive reference included — reads the schedule's flat buffer
    # and must end where the vector fleet ends.
    machine = machine_for("commit")
    events = workload(machine, instances=40, events=1200, seed=5, scenario="hotkey")
    vec = build(machine, "vector", auto_recycle=True)
    scalar = build(machine, auto_recycle=True, **twin)
    keys = vec.spawn_many(40)
    scalar.spawn_many(40)
    schedule = vec.encode_flat(events)
    vec.run(schedule, encoding=encoding)
    scalar.run(schedule, encoding=encoding)
    assert scalar.metrics.events_dispatched > 0
    assert scalar.metrics.as_dict() == vec.metrics.as_dict()
    assert {k: scalar.trace(k) for k in keys} == {k: vec.trace(k) for k in keys}


@pytest.mark.parametrize("mode", ["encoded", "vector"])
def test_rejected_events_do_not_strand_a_large_batch(mode):
    # 4096 events, 3 of them bad: the other 4093 dispatch first, then one
    # error names the offenders — the same text in both modes.
    machine = machine_for("commit")
    events = workload(machine, instances=150, events=4096, seed=12)
    bad = {100: ("ghost", "update"), 2000: ("session-3", "flarp"), 4095: ("", "")}
    for index, event in bad.items():
        events[index] = event
    fleet = build(machine, mode)
    fleet.spawn_many(150)
    with pytest.raises(DeploymentError) as caught:
        fleet.run(events)
    assert str(caught.value) == (
        "dispatch rejected 3 event(s) with unknown instance or message: "
        "('ghost', 'update'), ('session-3', 'flarp'), ('', '')"
    )
    assert fleet.metrics.events_dispatched == 4093
    assert fleet.metrics.events_offered == 4093
    assert fleet.metrics.batches_drained == 1


# ----------------------------------------------------------------------
# structure: the batch is walked once, whatever its size
# ----------------------------------------------------------------------


def _profiled_calls(function) -> int:
    """``call`` + ``c_call`` profile events ``function()`` emits."""
    seen = []

    def hook(frame, event, arg):
        if event in ("call", "c_call"):
            seen.append(event)

    sys.setprofile(hook)
    try:
        function()
    finally:
        sys.setprofile(None)
    return len(seen)


@pytest.mark.parametrize("entry", ["run", "encode_flat"])
def test_intake_makes_no_call_per_event(entry):
    # No timing: a per-event tuple append or array.append shows up as one
    # c_call per event, so a batch sixteen times the size must cost the
    # very same number of calls.  Distinct keys keep both to one round.
    machine = machine_for("commit")
    fleet = build(machine, "vector", log_policy="off")
    keys = fleet.spawn_many(4096)
    calls = {}
    for size in (256, 4096):
        events = [(key, "update") for key in keys[:size]]
        calls[size] = _profiled_calls(lambda: getattr(fleet, entry)(events))
    assert calls[256] == calls[4096]


# ----------------------------------------------------------------------
# fallback: the guard is one place, the error canonical
# ----------------------------------------------------------------------

_NO_NUMPY_PROBE = """
import os
os.environ["REPRO_NO_NUMPY"] = "1"
from repro.core.errors import DeploymentError
from repro.serve import FleetEngine, HAS_NUMPY, make_fleet
assert not HAS_NUMPY
machine = make_fleet("commit", mode="encoded").machine  # scalar modes fine
try:
    FleetEngine(machine, mode="vector")
except DeploymentError as exc:
    assert "numpy" in str(exc), exc
else:
    raise SystemExit("vector construction must fail without numpy")
try:
    make_fleet("commit", mode="vector", workers=2)
except DeploymentError as exc:
    assert "numpy" in str(exc), exc
else:
    raise SystemExit("mp vector construction must fail without numpy")
fleet = FleetEngine(machine, mode="encoded")
fleet.spawn("a")
fleet.run([("a", "update")])
print("fallback-ok")
"""


def test_without_numpy_vector_raises_and_scalar_serves():
    env = dict(os.environ, REPRO_NO_NUMPY="1")
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_root) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    result = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "fallback-ok" in result.stdout
