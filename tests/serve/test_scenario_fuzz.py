"""Seeded differential fuzz suite for the scenario plane.

Each master seed drives a stream of randomly drawn scenarios — model,
topology shape, wiring delays, noise, fault plan — and checks the two
headline claims of the scenario plane:

(a) **Dispatch equivalence** — the same scenario produces byte-identical
    per-instance traces (state + full action log) and identical scenario
    metrics on a ``naive`` reference fleet and on two randomly drawn
    alternative planes: ``encoded``, ``vector`` and the ``naive`` mode's
    other backend (``compiled``).

(b) **Kill-shard recovery** — a scenario whose fault plan kills a shard
    mid-run (despawn fail-stop, restore from the last snapshot, replay)
    converges to exactly the traces of its kill-free twin: the same
    scenario with only the message faults (or none) left in place.
    Zero divergence, because wheel records are plain data and the fault
    rng's position is captured in the snapshot.

The CI matrix pins three master seeds; each draws ``SCENARIOS_PER_SEED``
scenarios, so one full run exercises 210 generated scenarios.
"""

import random
from dataclasses import replace

import pytest

from repro.models import CommitModel, CoordinatorRoundModel
from repro.serve import (
    HAS_NUMPY,
    FleetEngine,
    ScenarioFaultPlan,
    ScenarioSpec,
    generate_scenario,
    run_scenario,
)
from tests.serve.conftest import machine_for

#: Fixed CI matrix: 3 seeds x 70 scenarios = 210 generated scenarios.
MATRIX_SEEDS = [101, 202, 303]
SCENARIOS_PER_SEED = 70

#: Alternative (mode, backend) planes diffed against the naive reference.
#: Only ``naive`` reads ``backend``, so the table modes appear once.  The
#: vector plane joins the draw pool only where numpy is available — the
#: no-numpy CI job fuzzes the same seeds over the scalar planes.
ALT_PLANES = [("encoded", "interp"), ("naive", "compiled")]
if HAS_NUMPY:
    ALT_PLANES.append(("vector", "interp"))


def _with_route_delay(wiring, delay):
    """The wiring with every peer route taking ``delay``."""
    return replace(wiring, peers=tuple((a, m, delay) for a, m, _ in wiring.peers))


def _draw_scenario(rng):
    """One random (machine, scenario) pair from a seeded stream."""
    if rng.random() < 0.5:
        model = "commit"
        wiring = _with_route_delay(CommitModel.wiring, rng.choice([0.5, 1.0, 2.0]))
        group_size = 4
    else:
        model = "chandra-toueg"
        wiring = _with_route_delay(
            CoordinatorRoundModel.wiring, rng.choice([0.5, 1.0, 2.0])
        )
        wiring = replace(wiring, timer=("suspect", rng.choice([150.0, 200.0])))
        group_size = 5
    machine = machine_for(model)
    spec = ScenarioSpec(
        groups=rng.randint(2, 4),
        group_size=group_size,
        seed=rng.randrange(1 << 30),
        spread=float(rng.randint(20, 50)),
        noise=rng.choice([0.0, 0.0, 0.2]),
        until=500.0,
    )
    faults = None
    kind = rng.random()
    if kind < 0.25:
        faults = ScenarioFaultPlan.lossy(
            drop=rng.choice([0.0, 0.05]),
            duplicate=rng.choice([0.0, 0.05, 0.1]),
            delay=rng.choice([0.0, 0.05, 0.1]),
        )
        if not faults.active:
            faults = None
    elif kind < 0.5:
        faults = ScenarioFaultPlan.kill(at=float(rng.randint(10, 60)))
    elif kind < 0.65:
        faults = ScenarioFaultPlan(
            kill_at=float(rng.randint(10, 60)),
            drop=0.05,
            duplicate=rng.choice([0.0, 0.05]),
            delay=rng.choice([0.0, 0.05]),
        )
    return model, machine, generate_scenario(machine, wiring, spec, faults=faults)


def _run(machine, scenario, mode, backend):
    fleet = FleetEngine(machine, mode=mode, backend=backend)
    engine = run_scenario(fleet, scenario)
    traces = {key: fleet.trace(key) for key in scenario.topology.keys}
    return traces, engine.metrics.as_dict()


@pytest.mark.parametrize("master_seed", MATRIX_SEEDS)
def test_fuzzed_scenarios_are_mode_equal_and_recoverable(master_seed):
    rng = random.Random(master_seed)
    kills_checked = {"commit": 0, "chandra-toueg": 0}
    for index in range(SCENARIOS_PER_SEED):
        model, machine, scenario = _draw_scenario(rng)
        context = f"seed={master_seed} scenario={index} model={model}"

        # Claim (a): the naive reference and two randomly drawn
        # alternative planes agree on every trace and every counter.
        reference, ref_metrics = _run(machine, scenario, "naive", "interp")
        for mode, backend in rng.sample(ALT_PLANES, 2):
            traces, metrics = _run(machine, scenario, mode, backend)
            assert traces == reference, (
                f"{context}: {mode}/{backend} diverged from naive reference"
            )
            assert metrics == ref_metrics, (
                f"{context}: {mode}/{backend} metrics diverged"
            )

        # Claim (b): a killed-and-restored run converges to its
        # kill-free twin exactly.
        faults = scenario.faults
        if faults is not None and faults.kill_at is not None:
            twin_faults = (
                replace(faults, kill_at=None, kill_shard=None)
                if faults.message_faults
                else None
            )
            twin = replace(scenario, faults=twin_faults)
            twin_traces, _ = _run(machine, twin, "naive", "interp")
            assert reference == twin_traces, (
                f"{context}: kill-restore-replay diverged from kill-free twin"
            )
            kills_checked[model] += 1

    # The draw mix must actually exercise recovery for BOTH models.
    assert kills_checked["commit"] > 0
    assert kills_checked["chandra-toueg"] > 0
