"""Tests for the exhaustive peer-set model checker.

These are the system-level correctness results of the reproduction: the
*deployed family* of generated FSMs, not just one machine in isolation,
verified over every delivery interleaving.
"""

import pytest

from repro.analysis.peerset_check import (
    check_contending_updates,
    check_single_update,
)
from repro.core.errors import SimulationError


class TestSingleUpdate:
    def test_clean_peer_set_always_terminates(self):
        """Every interleaving of a clean r=4 peer set commits the update."""
        result = check_single_update(4, silent_members=0)
        assert not result.truncated
        assert result.always_terminates
        assert result.quiescent_states == result.all_finished_quiescent == 1
        assert result.states_explored > 50_000  # genuinely exhaustive

    def test_tolerates_f_silent_members(self):
        """With f = 1 member silent, the other three still always finish."""
        result = check_single_update(4, silent_members=1)
        assert result.always_terminates
        assert result.deadlocked_quiescent == 0

    def test_f_plus_one_silent_members_deadlock(self):
        """With f + 1 = 2 silent members the protocol cannot finish: the
        Byzantine bound r > 3f is tight, exhibited by a counterexample."""
        result = check_single_update(4, silent_members=2)
        assert result.deadlock_possible
        assert result.counterexample is not None

    def test_all_members_silent_rejected(self):
        with pytest.raises(SimulationError):
            check_single_update(4, silent_members=4)

    def test_truncation_reported(self):
        result = check_single_update(4, silent_members=0, max_states=100)
        assert result.truncated
        assert not result.always_terminates  # cannot claim termination

    def test_budget_equal_to_the_state_count_completes(self):
        full = check_single_update(4, silent_members=1)
        exact = check_single_update(
            4, silent_members=1, max_states=full.states_explored
        )
        assert not exact.truncated
        assert exact.always_terminates
        assert exact == full
        short = check_single_update(
            4, silent_members=1, max_states=full.states_explored - 1
        )
        assert short.truncated
        assert short.states_explored == full.states_explored - 1

    @pytest.mark.parametrize("budget", [0, -5])
    def test_empty_budget_rejected(self, budget):
        with pytest.raises(SimulationError, match="max_states must be >= 1"):
            check_single_update(4, max_states=budget)
        with pytest.raises(SimulationError, match="max_states must be >= 1"):
            check_contending_updates(4, max_states=budget)

    def test_negative_silent_count_rejected(self):
        # Not a clean peer set in disguise: a count below zero is refused.
        with pytest.raises(SimulationError, match="silent_members must be >= 0"):
            check_single_update(4, silent_members=-1)

    def test_result_counters_consistent(self):
        result = check_single_update(4, silent_members=1)
        assert (
            result.all_finished_quiescent + result.deadlocked_quiescent
            == result.quiescent_states
        )
        assert result.members == 4
        assert result.silent == 1


class TestContention:
    """The §2.2 deadlock, model-checked (bounded exploration).

    The exhaustive two-update space is large; a bounded exploration is
    still sound for what it asserts (every *visited* quiescent state is
    either agreement or deadlock — never divergence).  The full 2/2 space
    and the 600 000-state 3/1 run are asserted by
    scripts/run_experiments.py.
    """

    def test_bounded_exploration_safe(self):
        result = check_contending_updates(4, max_states=150_000)
        # Every quiescent state seen is all-finished or deadlocked;
        # the checker would have recorded anything else as deadlock with
        # a counterexample carrying live non-final instances.
        assert (
            result.all_finished_quiescent + result.deadlocked_quiescent
            == result.quiescent_states
        )

    def test_members_and_updates_tracked(self):
        result = check_contending_updates(4, max_states=50_000)
        assert result.members == 4
        assert result.silent == 0
