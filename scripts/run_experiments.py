"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Runs every reproduced experiment end to end and writes the results table
the repository documents.  Usage::

    python scripts/run_experiments.py [output-path] [--engine {eager,lazy}]

``--engine lazy`` regenerates the Table 1 sweep with the frontier-based
engine (:mod:`repro.core.lazy`) instead of the paper's eager pipeline;
state counts are identical, only the generation times change.

Every claim the report prints is asserted beside the row that prints
it — Table 1's counts and growth, the r=4 pipeline counts, Fig 14's
description and targets, the artefacts (the XML round trip, bold phase
transitions, the compiled run, Fig 16's shape), §3.1's state count, the
9-state EFSM, the §4.2 policy counts, the §4.4 protocol runs, §2's
commits under faults and contention, Chord's hop bound and the model-checking outcomes —
so the script exits non-zero when one of them no longer holds.  Times
and the spreads between them are measured, not asserted.  Runtime is a
minute or so, dominated by the model-checking sweeps.
"""

from __future__ import annotations

import argparse
import functools
import math
import statistics
import time

from repro.analysis.equivalence import equivalent
from repro.analysis.peerset_check import check_contending_updates, check_single_update
from repro.analysis.properties import commit_protocol_properties
from repro.analysis.spectrum import efsm_phase_transitions, phase_quotient
from repro.analysis.stats import PAPER_TABLE1, machine_stats, table1
from repro.baselines.generic_commit import GenericCommitAlgorithm
from repro.models import build_commit_hsm, build_session_hsm
from repro.models.commit import CommitModel
from repro.models.commit_efsm import build_commit_efsm, commit_efsm_executor
from repro.render.dot import DotRenderer
from repro.render.source import JavaSourceRenderer, PythonSourceRenderer
from repro.render.text import TextRenderer
from repro.render.xml import XmlRenderer, parse_machine_xml
from repro.runtime.compile import compile_efsm, compile_machine
from repro.runtime.interp import MachineInterpreter
from repro.runtime.policy import GenerationPolicy, MachineFactory
from repro.storage import DataBlock, FaultPlan, GUID, StorageCluster
from repro.storage.p2p.keys import KEY_SPACE
from repro.storage.p2p.ring import ChordRing
from repro.storage.p2p.routing import Router

#: Fig 14's description block, for verbatim comparison.
FIG14_LINES = [
    "Have received initial update from client.",
    "Have not voted since another update has already been voted for.",
    "Have received 2 votes and no commits.",
    "Have not sent a commit since neither the vote threshold (3) nor the "
    "external commit threshold (2) has been reached.",
    "May not choose since another ongoing update has been voted for.",
    "Have not chosen this update since another ongoing update has been chosen.",
    "Waiting for 1 further vote (including local vote if any) before sending commit.",
    "Waiting for 2 further external commits to finish.",
]


def section_table1(out: list[str], engine: str = "eager") -> None:
    out.append(f"## Table 1 — state machine generation ({engine} engine)\n")
    out.append(
        "State counts are machine-independent and must match exactly; times "
        "are hardware/language-bound (paper: Java on a 2007 MacBook Pro; "
        "here: pure Python), so their *shape* is compared.\n"
    )
    out.append("| f | r | initial states | final states | time (s) paper | time (s) measured | handler runs | counts match |")
    out.append("|---|---|----------------|--------------|----------------|-------------------|--------------|--------------|")
    rows = table1(engine=engine)
    paper = {row["r"]: row for row in PAPER_TABLE1}
    for row in rows:
        reference = paper[row.r]
        out.append(
            f"| {row.f} | {row.r} | {row.initial_states} | {row.final_states} "
            f"| {reference['generation_time_s']} | {row.generation_time_s:.3f} "
            f"| {row.elaborations} "
            f"| {'yes' if row.matches_paper() else '**NO**'} |"
        )
    assert all(row.matches_paper() for row in rows), "Table 1 counts differ"
    assert all(a.initial_states < b.initial_states for a, b in zip(rows, rows[1:]))
    # Step 3 keeps under a tenth of the space and step 4 always merges.
    assert all(
        row.final_states < row.pruned_states < row.initial_states / 10 for row in rows
    )
    # Step 2 runs each handler once per distinct read path, which grows
    # with r, not with the r^2 product space (132x from r=4 to r=46).
    runs_growth = rows[-1].elaborations / rows[0].elaborations
    space_growth = rows[-1].initial_states / rows[0].initial_states
    assert runs_growth < 10, (
        f"handler runs grew {runs_growth:.1f}x while the space grew "
        f"{space_growth:.0f}x"
    )
    ratio_measured = rows[-1].generation_time_s / rows[0].generation_time_s
    # Shape only: the paper's 19.1 s / 0.10 s is ~191x; accept > 20x.
    assert ratio_measured > 20, f"r=46/r=4 generation time only {ratio_measured:.0f}x"
    out.append(
        f"\nShape: measured time grows {ratio_measured:.0f}x from r=4 to r=46 "
        f"(paper: {19.1 / 0.10:.0f}x); generation remains sub-minute at the "
        "largest point, supporting the paper's conclusion that generation "
        "time is not a limiting factor.  Handler runs grow "
        f"{runs_growth:.1f}x while the initial states grow {space_growth:.0f}x: "
        "each message is elaborated once per distinct read, not once per "
        "state.\n"
    )


def section_pipeline(out: list[str]) -> None:
    out.append("## Figs 7/11/12/13 — pipeline data structures (r=4)\n")
    machine, report = CommitModel(4).generate_with_report()
    unmerged = CommitModel(4).generate_state_machine(merge=False)
    full = CommitModel(4).generate_state_machine(prune=False, merge=False)
    out.append("| step | paper | measured |")
    out.append("|------|-------|----------|")
    out.append(f"| 1: possible states | 512 | {report.initial_states} |")
    out.append(
        f"| 2: transitions attached | (Fig 11) | {full.transition_count()} transitions |"
    )
    out.append(f"| 3: after pruning | 48 | {report.reachable_states} |")
    out.append(f"| 4: after merging | 33 | {report.merged_states} |")
    terminals = sum(1 for s in unmerged.states if s.final)
    counts = (report.initial_states, report.reachable_states, report.merged_states)
    assert counts == (512, 48, 33), counts
    assert report.reachable_states - terminals == 32, terminals
    out.append(
        f"\nThe 48 pruned states comprise 32 live states and {terminals} "
        "concrete terminal states that step 4 merges into the single "
        "FINISHED state.\n"
    )


def section_fig14(out: list[str]) -> None:
    out.append("## Fig 14 — generated textual state description\n")
    machine = CommitModel(4).generate_state_machine()
    rendered = TextRenderer(include_header=False).render_state(
        machine.get_state("T/2/F/0/F/F/F")
    )
    verbatim = all(line in rendered for line in FIG14_LINES)
    transitions = machine.get_state("T/2/F/0/F/F/F")
    targets = {
        t.message: t.target_name for t in transitions.transitions
    }
    expected_targets = {
        "vote": "T/3/T/0/T/F/F",
        "commit": "T/2/F/1/F/F/F",
        "free": "T/2/T/0/T/T/T",
    }
    assert verbatim, rendered
    assert targets == expected_targets, targets
    out.append(f"- all 8 description lines reproduced verbatim: **{verbatim}**")
    out.append(
        f"- transitions and targets match the figure exactly: "
        f"**{targets == expected_targets}** ({targets})"
    )
    out.append("")


def section_artefacts(out: list[str]) -> None:
    out.append("## Figs 15/16 — diagram and source artefacts (r=4)\n")
    machine = CommitModel(4).generate_state_machine()
    xml = XmlRenderer().render(machine)
    dot = DotRenderer().render(machine)
    python_source = PythonSourceRenderer().render(machine)
    java_source = JavaSourceRenderer().render(machine)
    compiled = compile_machine(machine)
    instance = compiled.new_instance()
    for message in ["free", "update", "vote", "vote", "commit", "commit"]:
        instance.receive(message)
    parsed = parse_machine_xml(xml)
    round_trip = equivalent(machine, parsed)
    assert round_trip, str(round_trip)
    assert all(left == right for left, right in round_trip.pairs)
    bold = dot.count("style=bold];")
    assert bold == machine.phase_transition_count() > 0, bold
    assert dot.count("style=solid];") == machine.transition_count() - bold
    assert instance.is_finished()
    out.append(
        f"- XML diagram document: {len(xml)} bytes, {len(parsed)} states, "
        "round-trips to an equivalent machine with every state name kept"
    )
    out.append(
        f"- DOT diagram: {len(dot)} bytes; the {bold} phase transitions drawn "
        "bold (Fig 8)"
    )
    out.append(
        f"- generated Python implementation: {len(python_source)} bytes; "
        f"compiles and completes a commit run (finished={instance.is_finished()})"
    )
    fig16_shape = (
        "void receiveVote()" in java_source
        and "case (F-0-F-0-F-F-F) :" in java_source
    )
    assert fig16_shape
    out.append(
        f"- generated Java (Fig 16 shape: receiveVote switch, dash-encoded "
        f"states): **{fig16_shape}**"
    )
    out.append("")


def section_structure(out: list[str]) -> None:
    out.append("## §3.1 — \"33 states with 3-4 transitions from each\"\n")
    stats = machine_stats(CommitModel(4).generate_state_machine())
    assert stats.states == 33 and stats.transitions_per_state[0] == 1, stats
    out.append(
        f"- measured: {stats.states} states; transitions-per-state histogram "
        f"{stats.transitions_per_state} (the finish state has 0; states "
        "adjacent to termination have 1-2)."
    )
    out.append("")


def section_efsm(out: list[str]) -> None:
    out.append("## §5.3 — the 9-state EFSM\n")
    efsm = build_commit_efsm()
    assert len(efsm) == 9, len(efsm)
    out.append(f"- hand-built commit EFSM: **{len(efsm)} states** (paper: 9)")
    matches = []
    for r in (4, 7, 13):
        pruned = CommitModel(r).generate_state_machine(merge=False)
        matches.append(phase_quotient(pruned) == efsm_phase_transitions(efsm))
    assert all(matches), matches
    out.append(
        f"- phase quotient of the generated FSM equals the EFSM's transition "
        f"structure for r=4/7/13: **{all(matches)}**"
    )
    out.append("\n| r | f | FSM initial | FSM merged | EFSM |")
    out.append("|---|---|-------------|------------|------|")
    for r in (4, 5, 7, 10, 13, 16):
        machine = CommitModel(r).generate_state_machine()
        out.append(
            f"| {r} | {(r - 1) // 3} | {32 * r * r} | {len(machine)} | 9 |"
        )
    out.append(
        "\nMerged FSM size follows the closed form `12f^2 + 16f + 5 + "
        "(r - 3f - 1)(4f + 4)` (discovered during calibration; the paper's "
        "five rows are the `r = 3f + 1` points where the slack term vanishes).\n"
    )


def complete_run(r: int) -> list[str]:
    """One complete commit protocol execution at replication factor ``r``."""
    f = (r - 1) // 3
    return ["free", "update"] + ["vote"] * (2 * f) + ["commit"] * (f + 1)


def section_runtime(out: list[str]) -> None:
    out.append("## §4.4 — execution efficiency (the comparison the paper skipped)\n")
    trace = ["free", "update", "vote", "vote", "vote", "commit", "commit"]
    machine = CommitModel(4).generate_state_machine()
    compiled = compile_machine(machine)
    compiled_efsm = compile_efsm(build_commit_efsm())
    compiled_r13 = compile_machine(CommitModel(13).generate_state_machine())

    def measure(factory, trace=trace, runs=2000, batch=100):
        """``(build, dispatch)`` µs per protocol run, timed apart: each
        batch of instances is built, then each is driven through ``trace``."""
        build = dispatch = 0.0
        for _ in range(runs // batch):
            started = time.perf_counter()
            instances = [factory() for _ in range(batch)]
            built = time.perf_counter()
            for instance in instances:
                for message in trace:
                    instance.receive(message)
            build += built - started
            dispatch += time.perf_counter() - built
            assert all(i.is_finished() for i in instances), "a run did not finish"
        return build / runs * 1e6, dispatch / runs * 1e6

    rows = [
        ("compiled generated FSM", 4, measure(compiled.new_instance)),
        ("interpreted FSM", 4, measure(lambda: MachineInterpreter(machine))),
        ("generic algorithm", 4, measure(lambda: GenericCommitAlgorithm(4))),
        ("EFSM executor", 4, measure(lambda: commit_efsm_executor(4))),
        (
            "compiled generated EFSM",
            4,
            measure(lambda: compiled_efsm.new_instance(replication_factor=4)),
        ),
        (
            "compiled generated FSM",
            13,
            measure(compiled_r13.new_instance, complete_run(13)),
        ),
    ]
    for r in (13, 46):
        # The executor rebuilds its EFSM per instance (~2 ms): fewer runs.
        efsm = measure(lambda: commit_efsm_executor(r), complete_run(r), runs=200)
        rows.append(("EFSM executor", r, efsm))
    # Flattening inlines the entry and exit actions of every region a
    # transition crosses, so these machines do the most work per event.
    hsm_runs = [
        (
            "session",
            "—",
            build_session_hsm(),
            ("connect", "timeout", "resume", "syn_ack", "challenge", "proof_ok")
            + ("request", "done", "ping", "pause", "resume", "fatal"),
        ),
        ("commit", 4, build_commit_hsm(4), ("begin", *trace, "finalize")),
    ]
    for name, r, model, hsm_trace in hsm_runs:
        flat = model.flatten()
        compiled_run = measure(compile_machine(flat).new_instance, hsm_trace)
        interpreted = functools.partial(MachineInterpreter, flat, validate=False)
        interpreted_run = measure(interpreted, hsm_trace)
        rows.append((f"flattened {name} HSM, compiled", r, compiled_run))
        rows.append((f"flattened {name} HSM, interpreted", r, interpreted_run))
    out.append("| implementation | r | build (µs) | dispatch per run (µs) |")
    out.append("|----------------|---|-----------|----------------------|")
    for name, r, (build, dispatch) in rows:
        out.append(f"| {name} | {r} | {build:.1f} | {dispatch:.1f} |")
    dispatches = [dispatch for _, _, (_, dispatch) in rows[:3]]
    spread = max(dispatches) / min(dispatches)
    assert spread < 10, f"dispatch spread {spread:.1f}x is not one order of magnitude"
    (compiled_build, _), (interp_build, _) = rows[0][2], rows[1][2]
    out.append(
        f"\nThe paper expected \"no significant difference\"; measured dispatch "
        f"spread across compiled/interpreted/generic is {spread:.1f}x — same "
        "order of magnitude.  Building an instance is a cost of its own: "
        f"{interp_build:.1f} µs for the interpreter, which reads the machine, "
        f"against {compiled_build:.1f} µs for the generated class.\n"
    )


def section_policies(out: list[str]) -> None:
    out.append("## §4.2 — when to generate\n")
    workload = [4, 4, 4, 7, 4, 4, 7, 4, 4, 4]
    out.append("| policy | generations for 10 deployments | cache hit rate |")
    out.append("|--------|-------------------------------|----------------|")
    expected_generations = {
        GenerationPolicy.ONCE: 1,
        GenerationPolicy.PER_USE: len(workload),
        GenerationPolicy.ON_DEMAND: len(set(workload)),
    }
    for policy in expected_generations:
        factory = MachineFactory(
            lambda replication_factor: CommitModel(replication_factor), policy=policy
        )
        jobs = [4] * len(workload) if policy is GenerationPolicy.ONCE else workload
        for r in jobs:
            factory.compiled(replication_factor=r)
        hit_rate = (
            f"{factory.cache.stats.hit_rate:.0%}"
            if policy is GenerationPolicy.ON_DEMAND
            else "—"
        )
        out.append(f"| {policy.value} | {factory.generations} | {hit_rate} |")
        assert factory.generations == expected_generations[policy]
    # The last factory is ON_DEMAND: two distinct factors among ten
    # deployments leave eight cache hits.
    assert factory.cache.stats.hit_rate == 0.8
    out.append("")


def section_system(out: list[str]) -> None:
    out.append("## §2 — the deployed system under faults\n")
    guid = GUID.for_name("experiments-guid")

    cluster = StorageCluster(node_count=12, replication_factor=4, seed=7)
    endpoint = cluster.add_endpoint("client")
    block = DataBlock(b"experiment-payload")
    store = endpoint.store_block(block)
    cluster.run_until(lambda: store.done)
    retrieve = endpoint.retrieve_block(block.pid)
    cluster.run_until(lambda: retrieve.done)
    append = endpoint.append_version(guid, block.pid)
    cluster.run_until(lambda: append.done, timeout=3000)
    cluster.run(100)
    assert store.success and len(store.acked) >= 3 and retrieve.success
    assert append.success and len(append.confirmations) >= 2
    out.append(
        f"- store: success={store.success} with {len(store.acked)}/4 acks "
        f"(threshold r-f=3); retrieve verified={retrieve.success}; "
        f"append committed with {len(append.confirmations)} confirmations "
        f"(threshold f+1=2)"
    )

    probe = StorageCluster(node_count=12, replication_factor=4, seed=3)
    peers = probe.add_endpoint("p").locate_peers(guid.key)
    byz = StorageCluster(
        node_count=12, replication_factor=4, seed=3,
        fault_plans={peers[0]: FaultPlan.promiscuous()},
    )
    endpoint = byz.add_endpoint("client")
    append = endpoint.append_version(guid, block.pid)
    byz.run_until(lambda: append.done, timeout=3000)
    byz.run(150)
    assert append.success and byz.histories_prefix_consistent(guid.hex)
    out.append(
        f"- with 1 Byzantine (promiscuous) peer-set member: append "
        f"success={append.success}, correct members' histories "
        f"prefix-consistent={byz.histories_prefix_consistent(guid.hex)}"
    )

    attempts = []
    consistent = 0
    seeds = range(10)
    for seed in seeds:
        race = StorageCluster(
            node_count=12, replication_factor=4, seed=seed, abandon_timeout=20.0
        )
        a = race.add_endpoint("alice")
        b = race.add_endpoint("bob")
        op_a = a.append_version(guid, DataBlock(b"a").pid)
        op_b = b.append_version(guid, DataBlock(b"b").pid)
        race.run_until(lambda: op_a.done and op_b.done, timeout=10_000)
        race.run(300)
        assert op_a.success and op_b.success, seed
        attempts.append(op_a.attempts + op_b.attempts)
        consistent += race.histories_prefix_consistent(guid.hex)
    out.append(
        f"- contention (2 clients, 10 seeds): all commits succeeded; "
        f"attempts per seed {attempts} "
        f"(>2 means the timeout/retry scheme fired); "
        f"{consistent}/10 seeds ended prefix-consistent"
    )
    out.append("")


def section_routing(out: list[str]) -> None:
    out.append("## Chord routing — logarithmic hop scaling (paper §2, [6])\n")
    out.append("| nodes | avg hops | log2(n) |")
    out.append("|-------|----------|---------|")
    for count in (16, 64, 256):
        ring = ChordRing()
        for index in range(count):
            ring.join(f"node-{index:04d}")
        router = Router(ring)
        hops = [
            router.lookup("node-0000", (i * KEY_SPACE) // 200 + i).hop_count
            for i in range(200)
        ]
        out.append(
            f"| {count} | {statistics.mean(hops):.2f} | {math.log2(count):.2f} |"
        )
        assert statistics.mean(hops) <= 2 * math.log2(count)
    out.append("")


def section_modelcheck(out: list[str]) -> None:
    out.append("## Model checking the deployed family (beyond the paper)\n")
    out.append(
        "Exhaustive exploration of message-delivery interleavings across a "
        "peer set of generated FSMs (the paper's §1 correctness claim, made "
        "mechanical):\n"
    )
    rows = []
    clean = check_single_update(4, silent_members=0)
    rows.append(("1 update, clean peer set", clean))
    silent1 = check_single_update(4, silent_members=1)
    rows.append(("1 update, f=1 silent member", silent1))
    silent2 = check_single_update(4, silent_members=2)
    rows.append(("1 update, f+1=2 silent members", silent2))
    split22 = check_contending_updates(4, first_half=2)
    rows.append(("2 updates, 2/2 split (§2.2 deadlock)", split22))
    split31 = check_contending_updates(4, first_half=3, max_states=600_000)
    rows.append(("2 updates, 3/1 split (bounded)", split31))
    out.append("| scenario | system states | outcome |")
    out.append("|----------|---------------|---------|")
    for label, result in rows:
        if result.deadlock_possible and result.all_finished_quiescent == 0:
            outcome = "every interleaving deadlocks"
        elif result.always_terminates:
            outcome = "every interleaving commits"
        else:
            outcome = f"outcomes {dict(result.outcome_counts)}"
        suffix = " (truncated)" if result.truncated else ""
        out.append(f"| {label} | {result.states_explored}{suffix} | {outcome} |")
    assert all(result.safe for _, result in rows)
    assert clean.always_terminates and silent1.always_terminates
    assert silent2.deadlock_possible
    # The 2/2 space is complete and every interleaving stalls; the 3/1
    # split serialises, so each outcome seen commits both updates.
    assert not split22.truncated
    assert split22.outcome_counts == {("none", "none"): split22.quiescent_states}
    assert all(outcome == ("all", "all") for outcome in split31.outcome_counts)
    out.append(
        "\nNo explored interleaving in any scenario produced a partial "
        "commit (divergent histories): the safety property holds "
        "everywhere; liveness fails exactly when more than f members are "
        "silent or votes split evenly — which is why §2.2 prescribes "
        "timeout/retry.\n"
    )

    machine = CommitModel(4).generate_state_machine()
    reports = commit_protocol_properties(machine)
    assert all(report.ok for report in reports)
    out.append("Per-machine path properties (all paths, r=4): "
               + "; ".join(str(report) for report in reports) + ".\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument(
        "--engine",
        choices=("eager", "lazy"),
        default="eager",
        help="generation engine for the Table 1 sweep (default: eager; "
        "'lazy' uses frontier-based on-the-fly reachable-set construction)",
    )
    args = parser.parse_args()
    target = args.output
    out: list[str] = []
    out.append("# EXPERIMENTS — paper vs. measured\n")
    out.append(
        "Reproduction of Kirby, Dearle & Norcross, *Design, Implementation "
        "and Deployment of State Machines Using a Generative Approach* "
        "(DSN 2007).  Regenerate this file with "
        "`python scripts/run_experiments.py`.\n"
    )
    started = time.time()

    def section_table1_selected(lines: list[str]) -> None:
        section_table1(lines, engine=args.engine)

    for section in (
        section_table1_selected,
        section_pipeline,
        section_fig14,
        section_artefacts,
        section_structure,
        section_efsm,
        section_runtime,
        section_policies,
        section_system,
        section_routing,
        section_modelcheck,
    ):
        section(out)
        print(f"  done: {section.__name__} ({time.time() - started:.0f}s elapsed)")
    out.append(
        f"---\n\nGenerated in {time.time() - started:.0f}s by "
        "`scripts/run_experiments.py`.\n"
    )
    with open(target, "w", encoding="utf-8") as handle:
        handle.write("\n".join(out))
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
