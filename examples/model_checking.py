"""Model-checking the deployed peer set of generated FSMs.

The paper's core pitch is that a generated FSM family "formalises the
interactions between the components of the distributed system, allowing
increased confidence in correctness" (§1).  This example takes that
seriously: it explores the message-delivery interleavings of a full r=4
peer set of generated commit machines — all of them for the first four
claims, which it thereby *proves* within the model (``truncated=False``):

1. a clean peer set commits a single update in **every** interleaving;
2. with f=1 member silent (Byzantine by omission) it still always commits;
3. with f+1=2 silent members it deadlocks — the `r > 3f` bound is tight;
4. in the even contention split (two updates, two first-voters each),
   **every** interleaving deadlocks — so §2.2's timeout/retry scheme is
   necessary, not merely advisable;
5. in the uneven 3/1 split the exploration stops at its 500 000-state
   budget (``truncated=True``), so this run establishes less than the
   other four: within the system states explored, no quiescent outcome
   is a partial commit, and the one quiescent outcome reached is the
   serialised one — the majority update commits, finishing frees each
   member's vote, and the minority update is voted through next, both
   at every member.  That no interleaving *anywhere* produces a partial
   commit is not shown until the explorer can finish this case (ROADMAP
   item 6); ``show()`` prints ``budget reached: not exhaustive`` beside
   any such result.

It also verifies per-machine path properties (each member votes exactly
once, commits exactly once, can always still finish).

Run with::

    python examples/model_checking.py
"""

from __future__ import annotations

from repro.analysis.peerset_check import (
    check_contending_updates,
    check_single_update,
)
from repro.analysis.properties import commit_protocol_properties
from repro.models.commit import CommitModel


def show(label: str, result) -> None:
    print(f"{label}:")
    print(
        f"  explored {result.states_explored} system states, "
        f"{result.quiescent_states} quiescent outcomes"
    )
    print(
        f"  finished={result.all_finished_quiescent} "
        f"deadlocked={result.deadlocked_quiescent} "
        f"partial={result.partial_outcomes} "
        f"truncated={result.truncated}"
    )
    if result.outcome_counts:
        for outcome, count in sorted(result.outcome_counts.items()):
            print(f"  outcome {outcome}: {count} quiescent state(s)")
    print(f"  => safe={result.safe}  always-terminates={result.always_terminates}")
    if result.truncated:
        print("  budget reached: not exhaustive (verdicts cover the explored states)")
    print()


def main() -> None:
    print("== per-machine path properties (every path, r=4 and r=7) ==")
    for r in (4, 7):
        machine = CommitModel(r).generate_state_machine()
        for report in commit_protocol_properties(machine):
            print(f"  r={r}: {report}")
    print()

    print("== exhaustive peer-set exploration (r=4, one update) ==")
    show("clean peer set", check_single_update(4, silent_members=0))
    show("one silent member (f=1)", check_single_update(4, silent_members=1))
    show("two silent members (> f)", check_single_update(4, silent_members=2))

    print("== contention (two updates) ==")
    show(
        "even 2/2 split (the §2.2 deadlock)",
        check_contending_updates(4, first_half=2, max_states=500_000),
    )
    show(
        "uneven 3/1 split (updates serialise; budget-bound)",
        check_contending_updates(4, first_half=3, max_states=500_000),
    )


if __name__ == "__main__":
    main()
