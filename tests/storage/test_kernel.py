"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.core.errors import SimulationError
from repro.storage.sim.kernel import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("first"))
        sim.schedule(1.0, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: log.append(sim.now)))
        sim.run()
        assert log == [2.0]


class TestTimers:
    def test_cancelled_timer_does_not_fire(self):
        sim = Simulator()
        log = []
        timer = sim.schedule(1.0, lambda: log.append("x"))
        timer.cancel()
        sim.run()
        assert log == []
        assert not timer.active

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        timer = sim.schedule(2.0, lambda: None)
        timer.cancel()
        assert sim.pending_events() == 1


class TestHeapMaintenance:
    """``reset`` must clear cancelled-timer tombstones with the live
    entries, so a reused simulator starts from an empty heap."""

    def test_reset_discards_everything_and_rewinds(self):
        sim = Simulator(seed=9)
        first_draw = sim.rng.random()
        log = []
        for i in range(10_000):
            timer = sim.schedule(float(i + 1), lambda: log.append("cancelled"))
            timer.cancel()
        sim.schedule(1.0, lambda: log.append("live"))
        sim.run(until=0.5)
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events() == 0
        assert len(sim._queue) == 0
        assert sim.events_processed == 0
        # The seeded stream restarts from the beginning.
        assert sim.rng.random() == first_draw
        sim.run()
        assert log == []

    def test_reset_then_reuse_fires_fresh_schedule(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.reset()
        log = []
        sim.schedule(2.0, lambda: log.append(sim.now))
        sim.run()
        assert log == [2.0]


class TestRunControl:
    def test_run_until_time_bound(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(10.0, lambda: log.append(10))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now == 5.0

    def test_run_until_predicate(self):
        sim = Simulator()
        state = {"done": False}
        sim.schedule(3.0, lambda: state.__setitem__("done", True))
        assert sim.run_until(lambda: state["done"], timeout=10.0)
        assert sim.now == 3.0

    def test_run_until_timeout(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        assert not sim.run_until(lambda: False, timeout=5.0)

    def test_event_budget(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.1, reschedule)

        sim.schedule(0.1, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert not Simulator().step()


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = Simulator(seed=42)
        b = Simulator(seed=42)
        assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]

    def test_split_streams_are_independent(self):
        sim = Simulator(seed=42)
        one = sim.new_rng("one")
        two = sim.new_rng("two")
        assert one.random() != two.random()

    def test_split_streams_are_reproducible(self):
        assert (
            Simulator(seed=7).new_rng("x").random()
            == Simulator(seed=7).new_rng("x").random()
        )
