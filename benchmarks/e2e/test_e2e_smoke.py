"""Smoke test of the end-to-end benchmark: inputs are a function of the seed,
a tiny run emits every declared metric and passes its oracle, and the
benchmark's own plumbing (``SpanFleet``, ``BENCHMARK.json``) holds together.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
for _path in (REPO / "src", REPO):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.e2e import contract, inputs, run  # noqa: E402
from benchmarks.e2e.ladder import Recorder, SpanFleet  # noqa: E402
from repro.serve import HAS_NUMPY, Fleet, make_fleet  # noqa: E402


def _request_bytes(seed: int) -> bytes:
    machine = inputs.client_machine()
    singles = inputs.single_requests(machine, 200, seed, instances=50)
    events = inputs.events_for(machine, "hotkey", 1024, seed, instances=50)
    batches = inputs.batch_requests(events, 64, connections=2)
    arrivals = inputs.poisson_arrivals(singles, 1500.0, 2, seed)
    return b"".join(
        [request.data for request in singles]
        + [request.data for mine in batches for request in mine]
        + [repr((due, which)).encode() for due, which, _ in arrivals]
    )


def test_same_seed_same_requests_other_seed_other_requests():
    assert _request_bytes(7) == _request_bytes(7)
    assert _request_bytes(7) != _request_bytes(8)


@pytest.mark.parametrize("workload", ["gw-single", "bulk-hotkey"])
def test_smoke_run_emits_every_declared_metric_and_passes_its_oracle(workload):
    if workload.startswith("bulk") and not HAS_NUMPY:
        pytest.skip("bulk-* need numpy (the benchmark reports the same)")
    result = run.run_workload(workload, 3, run.SMOKE_SECONDS, run.SMOKE_SIZE)
    assert result["correct"] and result["failed"] == 0, result["notes"]
    assert result["attempted"] >= 1
    for metric, unit, _, _ in contract.END_TO_END:
        row = result["metrics"][metric]
        assert row["unit"] == unit and row["median"] > 0 and row["n"] >= 1
    line = run.end_to_end_result(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {name for name, _, _, _ in contract.END_TO_END}


def test_span_fleet_is_a_fleet_and_records_spans():
    recorder = Recorder()
    with make_fleet("commit", mode="encoded", auto_recycle=True) as inner:
        fleet = SpanFleet(inner, recorder)
        assert isinstance(fleet, Fleet)
        (key,) = fleet.spawn_many(1)
        fleet.run([(key, "update")], encoding="events")
        assert fleet.state_name(key) == inner.state_name(key)
    table = recorder.self_times()
    assert table["fleet.run"][0] == 1 and table["fleet.state_name"][0] == 1


def test_benchmark_json_is_what_the_benchmark_declares():
    committed = json.loads((REPO / "BENCHMARK.json").read_text())
    assert committed == contract.benchmark_json()
    names = [item["name"] for item in committed["workloads"]]
    assert names == list(run.RUNNERS)
    assert all(len(item["why"]) <= 200 for item in committed["workloads"])
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in committed["end_to_end"]
    )
