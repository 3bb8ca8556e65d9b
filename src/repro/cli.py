"""Command-line interface: generate machines and render artefacts.

Mirrors the paper's Fig 6 usage from a shell::

    repro-fsm generate -r 4                  # Table 1 row for r=4
    repro-fsm generate -r 40 --engine lazy   # frontier engine: no 2^5 r^2 blow-up
    repro-fsm table1                         # the whole Table 1
    repro-fsm render -r 4 --format text      # Fig 14 artefact
    repro-fsm render -r 4 --format source    # generated Python (Fig 16)
    repro-fsm render -r 4 --format dot -o commit.dot
    repro-fsm describe -r 4 --state T/2/F/0/F/F/F
    repro-fsm export -r 4 -o commit_r4.py    # §4.3 copy-into-codebase
    repro-fsm modelcheck -r 4 --silent 1     # exhaustive peer-set check
    repro-fsm flatten --model session --format outline
                                             # hierarchical design, outlined
    repro-fsm flatten --model commit -r 7 --engine lazy --format stats
                                             # flattening blow-up factors
    repro-fsm optimize --model commit-hsm --opt 3
                                             # pass pipeline: per-pass deltas
    repro-fsm serve-scenario --model commit --faults kill-shard --seed 7
                                             # interacting fleet under faults
    repro-fsm serve-scenario --metrics prom  # merged fleet+scenario metrics
    repro-fsm serve --workers 4 --instances 100 --port 8080
                                             # HTTP/WebSocket gateway over a
                                             # process-parallel fleet
"""

from __future__ import annotations

import argparse
import sys

# Module level holds only what build_parser() needs for ``choices=`` (and
# what shares a module with it); every subcommand imports the areas it
# uses, so ``--help``, ``table1`` and ``generate`` never load the gateway,
# the scenario plane, the storage simulator or numpy.
from repro.core.errors import ReproError
from repro.core.pipeline import ENGINES, generate_with_engine
from repro.models import HIERARCHICAL_MODELS, build_hierarchical_model
from repro.models.chandra_toueg import CoordinatorRoundModel
from repro.models.commit import CommitModel, fault_tolerance
from repro.opt import PASSES, format_pass_table, parse_opt_spec, standard_pipeline
from repro.serve import BACKENDS as SERVE_BACKENDS
from repro.serve import DISPATCH_MODES, LOG_POLICIES

#: ``--format`` name -> renderer class name in :mod:`repro.render`.
_RENDERERS = {
    "text": "TextRenderer",
    "source": "PythonSourceRenderer",
    "java": "JavaSourceRenderer",
    "dot": "DotRenderer",
    "xml": "XmlRenderer",
    "scxml": "ScxmlRenderer",
    "html": "HtmlRenderer",
    "markdown": "MarkdownRenderer",
}


def _renderer(fmt: str):
    """A fresh renderer for one ``--format`` name."""
    from repro import render

    return getattr(render, _RENDERERS[fmt])()


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-fsm",
        description="Generate and render commit-protocol state machines "
        "(Kirby/Dearle/Norcross, DSN 2007).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_engine_flag(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--engine",
            choices=ENGINES,
            default="eager",
            help="generation engine: 'eager' enumerates the full 2^5 r^2 "
            "product space then prunes (paper §3.4); 'lazy' expands only "
            "states reachable from the start state via a BFS frontier, "
            "making large replication factors feasible (default: eager)",
        )

    def add_opt_flag(subparser: argparse.ArgumentParser, default=None) -> None:
        subparser.add_argument(
            "--opt",
            default=default,
            metavar="LEVEL|PASSES",
            help="optimization pipeline over the machine: a level 0-3 "
            f"('full' = 3), 'none', or pass names from {list(PASSES)} "
            "joined with commas, e.g. 'prune,merge' "
            f"(default: {default if default is not None else 'no optimization'})",
        )

    generate = commands.add_parser(
        "generate", help="generate a machine and print its pipeline counts"
    )
    generate.add_argument("-r", "--replication-factor", type=int, default=4)
    add_engine_flag(generate)
    add_opt_flag(generate)

    table1_cmd = commands.add_parser("table1", help="regenerate the paper's Table 1")
    add_engine_flag(table1_cmd)

    render = commands.add_parser("render", help="render a machine artefact")
    render.add_argument("-r", "--replication-factor", type=int, default=4)
    render.add_argument(
        "--format", choices=sorted(_RENDERERS), default="text", dest="fmt"
    )
    render.add_argument("-o", "--output", help="write to a file instead of stdout")
    add_engine_flag(render)

    describe = commands.add_parser(
        "describe", help="print the Fig 14 description of one state"
    )
    describe.add_argument("-r", "--replication-factor", type=int, default=4)
    describe.add_argument(
        "--state", required=True, help="state name, e.g. T/2/F/0/F/F/F"
    )
    add_engine_flag(describe)

    export = commands.add_parser(
        "export", help="export a standalone generated module (paper §4.3)"
    )
    export.add_argument("-r", "--replication-factor", type=int, default=4)
    export.add_argument("-o", "--output", required=True, help="target .py file")
    add_engine_flag(export)

    modelcheck = commands.add_parser(
        "modelcheck", help="exhaustively check a peer set of generated FSMs"
    )
    modelcheck.add_argument("-r", "--replication-factor", type=int, default=4)
    modelcheck.add_argument(
        "--silent", type=int, default=0, help="members that are Byzantine-silent"
    )
    modelcheck.add_argument(
        "--contention",
        type=int,
        metavar="FIRST_HALF",
        help="check two contending updates with this many first-voters for A",
    )
    modelcheck.add_argument("--max-states", type=int, default=500_000)
    add_engine_flag(modelcheck)

    flatten = commands.add_parser(
        "flatten",
        help="flatten a bundled hierarchical model into a plain machine "
        "(stats, hierarchy-aware rendering, or flat artefacts)",
    )
    flatten.add_argument(
        "--model",
        choices=HIERARCHICAL_MODELS,
        default="session",
        help="bundled hierarchical model (default: session)",
    )
    flatten.add_argument(
        "-r",
        "--replication-factor",
        type=int,
        default=4,
        help="size of the embedded commit machine (commit model only)",
    )
    flatten.add_argument(
        "--format",
        choices=["stats", "outline", "dot"]
        + [f"flat-{name}" for name in sorted(_RENDERERS)],
        default="stats",
        dest="fmt",
        help="'stats' prints the flattening's blow-up factors; "
        "'outline'/'dot' render the hierarchy itself (text outline, "
        "clustered Graphviz); 'flat-*' renders the flattened machine "
        "with the corresponding flat renderer",
    )
    flatten.add_argument("-o", "--output", help="write to a file instead of stdout")
    add_engine_flag(flatten)
    add_opt_flag(flatten)

    optimize = commands.add_parser(
        "optimize",
        help="run the optimization pass pipeline over a machine and "
        "report per-pass deltas (states, transitions, action pools)",
    )
    optimize.add_argument(
        "--model",
        choices=("commit", "session-hsm", "commit-hsm"),
        default="commit",
        help="machine to optimize: the generated commit machine, or a "
        "flattened bundled hierarchical model (default: commit)",
    )
    optimize.add_argument("-r", "--replication-factor", type=int, default=4)
    optimize.add_argument(
        "--format",
        choices=["report"] + [f"flat-{name}" for name in sorted(_RENDERERS)],
        default="report",
        dest="fmt",
        help="'report' prints the per-pass delta table; 'flat-*' renders "
        "the optimized machine with the corresponding flat renderer",
    )
    optimize.add_argument("-o", "--output", help="write to a file instead of stdout")
    add_engine_flag(optimize)
    add_opt_flag(optimize, default="3")

    serve_scenario = commands.add_parser(
        "serve-scenario",
        help="run a model's wiring as interacting timed groups — peer "
        "routing, timers, optional faults — checked against a naive fleet; "
        "exit 1 if a run with no faults or noise leaves an instance unfinished",
    )
    serve_scenario.add_argument(
        "--model",
        choices=("commit", "chandra-toueg"),
        default="commit",
        help="protocol to run as interacting groups (default: commit)",
    )
    serve_scenario.add_argument(
        "-r",
        "--replication-factor",
        type=int,
        default=4,
        help="commit peer-set size: group size and machine parameter",
    )
    serve_scenario.add_argument(
        "-n",
        "--processes",
        type=int,
        default=5,
        help="chandra-toueg process-set size: group size and machine parameter",
    )
    serve_scenario.add_argument(
        "--groups", type=int, default=20, help="interacting groups (default: 20)"
    )
    serve_scenario.add_argument(
        "--mode",
        choices=DISPATCH_MODES,
        default="encoded",
        help="dispatch mode of the measured fleet (default: encoded)",
    )
    serve_scenario.add_argument(
        "--backend", choices=SERVE_BACKENDS, default="interp"
    )
    serve_scenario.add_argument("--seed", type=int, default=0)
    serve_scenario.add_argument(
        "--spread",
        type=float,
        default=40.0,
        help="kick arrival window in virtual time units (default: 40)",
    )
    serve_scenario.add_argument(
        "--until",
        type=float,
        default=600.0,
        help="virtual time the scenario runs to (default: 600)",
    )
    serve_scenario.add_argument(
        "--noise",
        type=float,
        default=0.0,
        help="arbitrary-message noise as a fraction of the kick count",
    )
    serve_scenario.add_argument(
        "--faults",
        default=None,
        metavar="KINDS",
        help="comma-joined fault kinds from {kill-shard, drop, duplicate, "
        "delay}: kill-shard fail-stops one of 8 key shards mid-burst and "
        "restores from snapshot; the rest disturb routed messages at 5%% each",
    )
    serve_scenario.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the differential check against a naive fleet",
    )
    serve_scenario.add_argument(
        "--metrics",
        choices=("prom", "json"),
        default=None,
        help="attach the telemetry plane (queue-latency and batch "
        "histograms, event tracing) and print the metrics registry "
        "after the run, in Prometheus text or JSON exposition",
    )
    add_engine_flag(serve_scenario)

    serve = commands.add_parser(
        "serve",
        help="serve a fleet over HTTP/WebSocket: spawn, deliver, snapshot "
        "and scrape /metrics against an in-process or process-parallel "
        "fleet (see docs/architecture.md for the endpoint list)",
    )
    serve.add_argument(
        "--model",
        choices=("commit", "chandra-toueg", "termination", "threshold-sig"),
        default="commit",
        help="bundled model to host (default: commit)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes; omit for the in-process engine",
    )
    serve.add_argument("--mode", choices=DISPATCH_MODES, default="encoded")
    serve.add_argument(
        "--backend", choices=SERVE_BACKENDS, default="interp"
    )
    serve.add_argument(
        "--log-policy", choices=LOG_POLICIES, default="full", dest="log_policy"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listening port; 0 binds an ephemeral port (default: 8080)",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        dest="port_file",
        help="write the bound port to this file once listening (the "
        "reliable way to discover a --port 0 binding)",
    )
    serve.add_argument(
        "--instances",
        type=int,
        default=0,
        help="pre-spawn this many instances before serving (default: 0)",
    )
    serve.add_argument(
        "--auto-recycle",
        action="store_true",
        dest="auto_recycle",
        help="reset an instance to its start state (clearing its action "
        "log) as soon as it finishes, so a sustained run keeps firing "
        "transitions instead of only counting ignored events",
    )
    serve.add_argument(
        "--allow-remote-shutdown",
        action="store_true",
        dest="allow_remote_shutdown",
        help="enable POST /shutdown (off by default: anyone who can reach "
        "the port could stop the gateway)",
    )
    serve.add_argument(
        "--no-telemetry",
        action="store_true",
        dest="no_telemetry",
        help="skip the per-worker telemetry instruments (slightly faster; "
        "/metrics then carries only the FleetMetrics counters)",
    )
    serve.add_argument(
        "--journal",
        action="store_true",
        help="enable the write-ahead journal and self-healing supervisor "
        "(multiprocess only: requires --workers); a SIGKILLed worker is "
        "respawned and its partition rehydrated from checkpoint + journal "
        "replay while callers see 503 + Retry-After",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=50_000,
        dest="checkpoint_every",
        help="journaled events between partition checkpoints when "
        "--journal is on (default: 50000)",
    )
    serve.add_argument(
        "--read-timeout",
        type=float,
        default=30.0,
        dest="read_timeout",
        help="seconds a connection may stall mid-request before the "
        "gateway answers 408 and closes it (default: 30)",
    )
    serve.add_argument(
        "--max-body",
        type=int,
        default=1 << 20,
        dest="max_body",
        help="largest accepted request body in bytes; beyond it the "
        "gateway answers 413 without reading the body (default: 1MiB)",
    )
    serve.add_argument("-r", "--replication-factor", type=int, default=4)
    add_engine_flag(serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit 1 is a command's own negative verdict (``modelcheck`` unsafe, a
    ``table1`` row off the paper); a refusal of the arguments or input
    (any :class:`ReproError`) is exit 2 with ``<command>: <message>`` on
    stderr.
    """
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReproError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    """Dispatch one parsed command."""
    if args.command == "generate":
        pipeline = parse_opt_spec(args.opt)
        if pipeline is None:
            from repro.analysis.stats import table1_row

            row = table1_row(args.replication_factor, engine=args.engine)
            print(
                f"f={row.f} r={row.r} [{args.engine}]: {row.initial_states} initial "
                f"states, {row.pruned_states} reachable, {row.final_states} after "
                f"merging ({row.generation_time_s:.3f}s)"
            )
            return 0
        # One generation serves both the Table 1 line and the optimizer.
        machine, report = generate_with_engine(
            CommitModel(args.replication_factor),
            args.engine,
            optimize=pipeline,
        )
        print(
            f"f={fault_tolerance(args.replication_factor)} "
            f"r={args.replication_factor} [{args.engine}]: "
            f"{report.initial_states} initial states, "
            f"{report.reachable_states} reachable, {report.merged_states} after "
            f"merging ({report.total_time:.3f}s)"
        )
        print(f"optimization pipeline {pipeline.name} -> {len(machine)} states:")
        print(format_pass_table(report.opt_report))
        return 0

    if args.command == "table1":
        from repro.analysis.stats import format_table1, table1

        rows = table1(engine=args.engine)
        print(format_table1(rows))
        return 0 if all(row.matches_paper() for row in rows) else 1

    if args.command == "render":
        machine = CommitModel(args.replication_factor).generate_state_machine(
            engine=args.engine
        )
        text = _renderer(args.fmt).render(machine)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0

    if args.command == "describe":
        from repro.render.text import TextRenderer

        machine = CommitModel(args.replication_factor).generate_state_machine(
            engine=args.engine
        )
        if args.state not in machine:
            print(f"unknown state {args.state!r}", file=sys.stderr)
            return 1
        renderer = TextRenderer(include_header=False)
        print(renderer.render_state(machine.get_state(args.state)))
        return 0

    if args.command == "export":
        from repro.runtime.export import export_machine_module

        machine = CommitModel(args.replication_factor).generate_state_machine(
            engine=args.engine
        )
        path = export_machine_module(machine, args.output)
        print(f"exported {machine.name} to {path}")
        return 0

    if args.command == "flatten":
        return _flatten(args)

    if args.command == "optimize":
        return _optimize(args)

    if args.command == "serve-scenario":
        return _serve_scenario(args)

    if args.command == "serve":
        return _serve(args)

    if args.command == "modelcheck":
        from repro.analysis.peerset_check import (
            check_contending_updates,
            check_single_update,
        )

        if args.contention is not None:
            result = check_contending_updates(
                args.replication_factor,
                first_half=args.contention,
                max_states=args.max_states,
                engine=args.engine,
            )
        else:
            result = check_single_update(
                args.replication_factor,
                silent_members=args.silent,
                max_states=args.max_states,
                engine=args.engine,
            )
        print(
            f"explored {result.states_explored} system states"
            f"{' (truncated)' if result.truncated else ''}"
        )
        print(
            f"quiescent outcomes: {result.quiescent_states} "
            f"(finished={result.all_finished_quiescent}, "
            f"deadlocked={result.deadlocked_quiescent}, "
            f"partial={result.partial_outcomes})"
        )
        for outcome, count in sorted(result.outcome_counts.items()):
            print(f"  outcome {outcome}: {count}")
        print(f"safe={result.safe} always-terminates={result.always_terminates}")
        return 0 if result.safe else 1

    return 1  # pragma: no cover - argparse enforces the command set


def _emit(text: str, output) -> int:
    """Write an artefact to ``output`` (announcing it) or print it."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {output}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _flatten(args) -> int:
    """Flatten (or render) one bundled hierarchical model."""
    from repro.analysis.flatten_stats import (
        DEFAULT_STATS_OPT,
        flatten_blowup,
        format_flatten_table,
    )
    from repro.render.hsm import HierarchicalDotRenderer, HierarchicalOutlineRenderer

    model = build_hierarchical_model(
        args.model, args.replication_factor, engine=args.engine
    )
    if args.fmt == "stats":
        # Stats always show the optimization recovery (the 'opt' column):
        # with no --opt, the default prune+merge+compaction pipeline runs.
        optimize = args.opt if args.opt is not None else DEFAULT_STATS_OPT
        text = format_flatten_table([flatten_blowup(model, optimize=optimize)]) + "\n"
    elif args.fmt == "outline":
        text = HierarchicalOutlineRenderer().render(model)
    elif args.fmt == "dot":
        text = HierarchicalDotRenderer().render(model)
    else:
        machine = model.flatten(optimize=args.opt)
        text = _renderer(args.fmt.removeprefix("flat-")).render(machine)
    return _emit(text, args.output)


def _optimize(args) -> int:
    """Run a pass pipeline over one machine and report (or render) it."""
    if args.model == "commit":
        machine = CommitModel(args.replication_factor).generate_state_machine(
            engine=args.engine
        )
    else:
        hsm_name = "session" if args.model == "session-hsm" else "commit"
        machine = build_hierarchical_model(
            hsm_name, args.replication_factor, engine=args.engine
        ).flatten()
    pipeline = parse_opt_spec(args.opt)
    if pipeline is None:  # --opt none: run the (empty) identity pipeline
        pipeline = standard_pipeline(0)
    optimized, report = pipeline.optimize_machine(machine)

    if args.fmt == "report":
        renamed = sum(
            1 for original, final in report.state_map.items() if original != final
        )
        lines = [
            f"{machine.name}: {len(machine)} states, "
            f"{machine.transition_count()} transitions "
            f"[pipeline {pipeline.name}]",
            format_pass_table(report),
            f"optimized: {len(optimized)} states, "
            f"{optimized.transition_count()} transitions "
            f"({len(machine) - len(optimized)} removed, {renamed} renamed by "
            f"merging, {report.total_time * 1000:.2f}ms)",
        ]
        text = "\n".join(lines) + "\n"
    else:
        text = _renderer(args.fmt.removeprefix("flat-")).render(optimized)
    return _emit(text, args.output)


#: Per-copy disturbance rate used for each requested message-fault kind.
_SCENARIO_FAULT_RATE = 0.05


def _parse_scenario_faults(spec: str | None, until: float):
    """Build a :class:`ScenarioFaultPlan` from the ``--faults`` flag."""
    if not spec:
        return None
    from repro.serve import ScenarioFaultPlan

    kinds = {token.strip() for token in spec.split(",") if token.strip()}
    known = {"kill-shard", "drop", "duplicate", "delay"}
    unknown = kinds - known
    if unknown:
        raise SystemExit(
            f"unknown fault kind(s) {sorted(unknown)}; choose from {sorted(known)}"
        )
    rate = _SCENARIO_FAULT_RATE
    return ScenarioFaultPlan(
        # Mid-burst: late enough for traffic to be in flight, early
        # enough that the replay after restore still completes.
        kill_at=until / 3 if "kill-shard" in kinds else None,
        drop=rate if "drop" in kinds else 0.0,
        duplicate=rate if "duplicate" in kinds else 0.0,
        delay=rate if "delay" in kinds else 0.0,
    )


def _serve_scenario(args) -> int:
    """Run one interacting scenario, report metrics, differentially verify."""
    import time

    from repro.obs import FleetTelemetry
    from repro.serve import (
        ScenarioSpec,
        diff_fleets,
        generate_scenario,
        make_fleet,
        run_scenario,
    )

    if args.model == "commit":
        model = CommitModel(args.replication_factor)
        group_size = args.replication_factor
    else:
        model = CoordinatorRoundModel(args.processes)
        group_size = args.processes
    machine = model.generate_state_machine(engine=args.engine)
    faults = _parse_scenario_faults(args.faults, args.until)
    spec = ScenarioSpec(
        groups=args.groups,
        group_size=group_size,
        seed=args.seed,
        spread=args.spread,
        noise=args.noise,
        until=args.until,
    )
    scenario = generate_scenario(machine, model.wiring, spec, faults=faults)
    print(
        f"machine {machine.name} [{args.engine}]: {len(machine)} states; "
        f"scenario: {args.groups} groups x {group_size}, "
        f"{len(scenario.events)} timed kicks over {args.spread:g} units, "
        f"until t={args.until:g}, seed {args.seed}, "
        f"faults {args.faults or 'none'}"
    )
    fleet = make_fleet(
        machine,
        mode=args.mode,
        backend=args.backend,
        telemetry=FleetTelemetry() if args.metrics else None,
    )
    started = time.perf_counter()
    engine = run_scenario(fleet, scenario)
    elapsed = time.perf_counter() - started
    m = engine.metrics
    finished = sum(1 for key in scenario.topology.keys if fleet.is_finished(key))
    print(
        f"  [{args.mode}/{args.backend}] {m.events_delivered} deliveries in "
        f"{elapsed:.3f}s ({m.external_delivered} external, "
        f"{m.routed_delivered} routed, {m.timers_fired} timer) over "
        f"{m.instants} instants"
    )
    print(
        f"  timers: {m.timers_armed} armed, {m.timers_cancelled} cancelled, "
        f"{m.timers_fired} fired; routed copies: {m.messages_routed} "
        f"({m.messages_dropped} dropped, {m.messages_duplicated} duplicated, "
        f"{m.messages_delayed} delayed)"
    )
    if m.shards_killed:
        print(
            f"  faults: {m.shards_killed} shard(s) killed "
            f"({m.instances_lost} instances lost), "
            f"{m.snapshots_restored} snapshot restore(s)"
        )
    unfinished = len(scenario.topology) - finished
    print(f"  finished: {finished}/{len(scenario.topology)} instances")
    if args.metrics:
        # One merged blob: fleet counters and histograms plus the
        # scenario engine's timer/routing/fault counters.
        from repro.obs import MetricsRegistry, render_json, render_prometheus

        registry = MetricsRegistry()
        registry.merge(fleet.telemetry_registry())
        registry.merge(engine.registry)
        if args.metrics == "prom":
            print(render_prometheus(registry), end="")
        else:
            print(render_json(registry))
    if unfinished and faults is None and not args.noise:
        print(
            f"serve-scenario: {unfinished} instance(s) unfinished at "
            f"t={args.until:g} with no faults or noise injected",
            file=sys.stderr,
        )
        return 1
    if args.no_verify:
        return 0
    oracle = make_fleet(machine, mode="naive")
    run_scenario(oracle, scenario)
    mismatched = diff_fleets(fleet, oracle, scenario.topology.keys)
    if mismatched:
        print(
            f"  differential MISMATCH: {len(mismatched)} diverging traces "
            f"(e.g. {mismatched[:3]})",
            file=sys.stderr,
        )
        return 1
    print(f"  differential vs naive fleet: ok ({len(scenario.topology)} traces)")
    return 0


def _serve(args) -> int:
    """Serve one fleet behind the HTTP/WebSocket gateway until shutdown."""
    import signal

    from repro.serve import make_fleet
    from repro.serve.gateway import FleetGateway

    if args.journal and not args.workers:
        print(
            "--journal needs a process-parallel fleet; pass --workers N",
            file=sys.stderr,
        )
        return 2
    if args.model == "commit":
        model = CommitModel(args.replication_factor)
    else:
        model = args.model
    supervision = (
        {"journal": True, "checkpoint_every": args.checkpoint_every}
        if args.journal
        else {}
    )
    fleet = make_fleet(
        model,
        mode=args.mode,
        backend=args.backend,
        workers=args.workers,
        log_policy=args.log_policy,
        auto_recycle=args.auto_recycle,
        telemetry=None if args.no_telemetry else True,
        engine=args.engine,
        **supervision,
    )
    try:
        if args.instances:
            fleet.spawn_many(args.instances)
        where = (
            f"{args.workers} worker process(es)"
            if args.workers
            else "in-process engine"
        )
        gateway = FleetGateway(
            fleet,
            host=args.host,
            port=args.port,
            allow_remote_shutdown=args.allow_remote_shutdown,
            read_timeout=args.read_timeout,
            max_body=args.max_body,
        )

        def announce(url: str) -> None:
            print(
                f"serving {fleet.machine.name} [{args.mode}/{args.backend}] "
                f"on {where}: {len(fleet)} instance(s) at {url}",
                flush=True,
            )

        # SIGTERM ends serving the way Ctrl-C does, through close().
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            gateway.run_blocking(announce=announce, port_file=args.port_file)
        except KeyboardInterrupt:
            pass
        finally:
            signal.signal(signal.SIGTERM, previous)
    finally:
        fleet.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
