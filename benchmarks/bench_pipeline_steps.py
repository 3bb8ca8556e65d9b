"""The generation pipeline's intermediate data structures (Figs 7/11/12/13).

Times each pipeline stage for r=4 and verifies the paper's step counts:
512 possible states after step 1 (Fig 7), transitions attached after
step 2 (Fig 11), 48 states after pruning (Fig 12), 33 after combining
equivalent states (Fig 13).  Also benchmarks the merging ablation:
Hopcroft partition refinement (``coarsest_partition``, what step 4 runs)
vs iterated one-shot merging (the paper's literal description).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import commit_machine
from repro.analysis.diff import machines_isomorphic
from repro.core.minimize import merge_equivalent, one_shot_merge
from repro.models.commit import CommitModel


def test_step1_step2_enumerate_and_transitions(benchmark):
    """Steps 1+2: full space with transitions, no pruning or merging."""

    def run():
        return CommitModel(4).generate_state_machine(prune=False, merge=False)

    machine = benchmark(run)
    assert len(machine) == 512  # Fig 7
    assert machine.transition_count() > 0  # Fig 11
    benchmark.extra_info["states"] = len(machine)
    benchmark.extra_info["transitions"] = machine.transition_count()


def test_step3_pruning(benchmark):
    """Step 3: 512 -> 48 reachable states (Fig 12)."""

    def run():
        return CommitModel(4).generate_state_machine(merge=False)

    machine = benchmark(run)
    assert len(machine) == 48
    benchmark.extra_info["pruned_states"] = len(machine)


def test_step4_merging_partition_refinement(benchmark):
    """Step 4 as shipped (Hopcroft refinement): 48 -> 33 states (Fig 13)."""
    pruned = commit_machine(4, merge=False)
    merged = benchmark(lambda: merge_equivalent(pruned))
    assert len(merged) == 33
    benchmark.extra_info["merged_states"] = len(merged)


def test_step4_merging_one_shot_iterated(benchmark):
    """Ablation: iterating the paper's literal single-pass merge.

    Converges to the same 33-state machine as partition refinement; the
    benchmark quantifies the cost difference of the two formulations.
    """
    pruned = commit_machine(4, merge=False)

    def iterate_to_fixpoint():
        current = pruned
        previous = len(current) + 1
        while len(current) < previous:
            previous = len(current)
            current = one_shot_merge(current)
        return current

    merged = benchmark(iterate_to_fixpoint)
    assert len(merged) == 33
    assert machines_isomorphic(merged, merge_equivalent(pruned))


@pytest.mark.parametrize("r", [7, 13])
def test_pipeline_scaling(benchmark, r):
    """Pruning/merging ratios persist at larger replication factors."""

    def run():
        return CommitModel(r).generate_with_report()

    _, report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.initial_states == 32 * r * r
    assert report.reachable_states < report.initial_states * 0.1
    assert report.merged_states < report.reachable_states
    benchmark.extra_info["initial"] = report.initial_states
    benchmark.extra_info["pruned"] = report.reachable_states
    benchmark.extra_info["merged"] = report.merged_states
