"""Quickstart: generate, inspect, render and deploy a commit machine.

Walks the paper's whole pipeline in one script:

1. execute the abstract model for replication factor 4 (Fig 6);
2. report the generation-step counts (512 -> 48 -> 33, Figs 7/12/13);
3. print the Fig 14 textual description of one state;
4. render the Graphviz diagram and generated Python source;
5. compile the generated source in memory and run the protocol to
   completion on a hand-fed message trace.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.models.commit import CommitModel
from repro.render.dot import DotRenderer
from repro.render.source import PythonSourceRenderer
from repro.render.text import TextRenderer
from repro.runtime.compile import compile_machine


def main() -> None:
    # 1-2: execute the abstract model and show the pipeline counts.
    model = CommitModel(replication_factor=4)
    machine, report = model.generate_with_report()
    print("== generation pipeline (paper Figs 7/12/13, Table 1) ==")
    print(
        f"initial states: {report.initial_states}   "
        f"after pruning: {report.reachable_states}   "
        f"after merging: {report.merged_states}   "
        f"time: {report.total_time:.3f}s"
    )
    print(f"start state: {machine.start_state.name}")
    print(f"finish state: {machine.finish_state.name}")
    print()

    # 3: the Fig 14 artefact for the state the paper shows.
    print("== textual artefact for one state (paper Fig 14) ==")
    state = machine.get_state("T/2/F/0/F/F/F")
    print(TextRenderer(include_header=False).render_state(state))

    # 4: diagram and source artefacts.
    dot = DotRenderer().render(machine)
    print("== diagram artefact (paper Fig 15) ==")
    print("\n".join(dot.splitlines()[:6]) + "\n...\n")

    source = PythonSourceRenderer().render(machine)
    vote_table = source.index("ON_VOTE = {")
    print("== generated source excerpt (paper Fig 16) ==")
    print("\n".join(source[vote_table:].splitlines()[:12]))
    print("...\n")

    # 5: deploy — compile the generated source and drive the protocol.
    print("== deploying the generated implementation (paper §4.3) ==")
    compiled = compile_machine(machine)
    instance = compiled.new_instance()
    trace = ["free", "update", "vote", "vote", "commit", "commit"]
    for message in trace:
        instance.receive(message)
        print(
            f"  after {message:<8} state={instance.get_state():<16} "
            f"sent={instance.sent}"
        )
    print(f"finished: {instance.is_finished()}")


if __name__ == "__main__":
    main()
