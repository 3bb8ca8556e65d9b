"""One metrics model: a fleet's counts live in its one registry.

Both fleets declare the same counters and depth gauges in the registry
``telemetry_registry()`` returns, ``fleet.metrics`` is a read-only view
over it, and ``/metrics`` renders it with a ``# HELP`` line for every
family.  The same traffic script on an in-process fleet and on a
journaled 1-worker fleet must leave the two registries reading alike.
"""

import asyncio

from repro.serve import make_fleet
from repro.serve.gateway import FleetGateway
from repro.serve.metrics import FleetMetrics
from tests.serve.test_gateway import http


def drive(fleet) -> None:
    """Spawn, one run batch, posts and a drain, a deliver, snapshot and
    restore.  An in-process fleet and a fleet of one worker each hold one
    queue, so they split every batch alike."""
    keys = fleet.spawn_many(12)
    assert fleet.run([(key, "update") for key in keys[::2]]) is fleet.metrics
    for key in keys:
        fleet.post(key, "free")
    assert fleet.drain_all() == len(keys)
    fleet.deliver(keys[1], "update")
    fleet.restore(fleet.snapshot())


def fleet_counts(registry) -> dict:
    return {
        name: registry.counters[f"fleet_{name}_total"].value
        for name, _help in FleetMetrics.COUNTERS
    }


def test_same_traffic_same_registry_on_both_fleets():
    inproc = make_fleet("commit", telemetry=True)
    mp = make_fleet("commit", workers=1, journal=True, telemetry=True)
    try:
        held = mp.metrics  # a live view: read it after the traffic
        for fleet in (inproc, mp):
            drive(fleet)
        registries = [fleet.telemetry_registry() for fleet in (inproc, mp)]
        assert registries[0] is inproc.telemetry_registry()
        assert registries[1] is mp.telemetry_registry()
        counts = [fleet_counts(registry) for registry in registries]
        assert counts[0] == counts[1]
        assert counts[0]["batches_drained"] == 2
        assert counts[0]["snapshots_taken"] == counts[0]["snapshots_restored"] == 1
        # Batches split alike, so the batch histograms count alike.  Queue
        # latency is stamped in-process only: a multiprocess fleet's
        # posted traffic waits in the parent, whose buffers carry no clock.
        for name in ("fleet_batch_events", "fleet_batch_seconds"):
            hists = [registry.histograms[name] for registry in registries]
            assert hists[0].count == hists[1].count == 2
        sizes = [registry.histograms["fleet_batch_events"] for registry in registries]
        assert sizes[0].total == sizes[1].total
        # One queue each: the depth gauges read alike too.
        assert inproc.metrics.as_dict() == held.as_dict()
        assert held.peak_shard_depth == max(held.shard_depths) > 0
        for gauge in ("fleet_shard_depth_max", "fleet_shard_depth_peak"):
            values = [registry.gauges[gauge].value for registry in registries]
            assert values[0] == values[1] == held.peak_shard_depth
    finally:
        inproc.close()
        mp.close()


def test_every_exposed_family_has_help():
    async def main(fleet):
        gateway = FleetGateway(fleet, port=0)
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            try:
                return await http(reader, writer, "GET", "/metrics")
            finally:
                writer.close()
        finally:
            await gateway.stop()

    with make_fleet("commit", workers=2, journal=True, telemetry=True) as fleet:
        drive(fleet)
        status, text = asyncio.run(main(fleet))
        dispatched = fleet.metrics.events_dispatched
    assert status == 200
    lines = text.splitlines()
    typed = {line.split()[2] for line in lines if line.startswith("# TYPE")}
    helped = {line.split()[2] for line in lines if line.startswith("# HELP")}
    assert {f"fleet_{name}_total" for name, _ in FleetMetrics.COUNTERS} <= typed
    assert typed - helped == set()
    assert f"fleet_events_dispatched_total {dispatched}" in lines
