"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.simulator import Event, SimulationError, Simulator, Timer


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(3.0, lambda: order.append("c"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append("first"))
        sim.schedule_at(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_now_advances_to_last_event(self):
        sim = Simulator()
        sim.schedule_at(5.5, lambda: None)
        sim.run()
        assert sim.now == 5.5

    def test_schedule_after_is_relative(self):
        sim = Simulator(start_time=10.0)
        seen = []
        sim.schedule_after(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator(start_time=3.0)
        seen = []
        sim.call_soon(lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule_after(1.0, lambda: order.append("inner"))

        sim.schedule_at(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        event = sim.schedule_at(2.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_fire_leaves_pending_count_intact(self):
        # The O(1) pending counter must ignore cancels on handles that
        # already fired: holding one across run(until=...) is legal.
        sim = Simulator()
        seen = []
        fired = sim.schedule_at(1.0, lambda: seen.append(sim.now))
        sim.schedule_at(10.0, lambda: seen.append(sim.now))
        sim.run(until=5.0)
        fired.cancel()
        fired.cancel()
        assert sim.pending_events == 1
        assert sim.executed_events == 1
        sim.run()
        assert seen == [1.0, 10.0]
        assert sim.pending_events == 0

    def test_cancel_after_clear_leaves_pending_count_intact(self):
        sim = Simulator()
        stale = sim.schedule_at(1.0, lambda: None)
        sim.clear()
        stale.cancel()
        assert sim.pending_events == 0
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending_events == 1

    def test_cancelled_handle_holds_no_callback(self):
        # A cancelled event waits in the heap until its deadline; it must
        # not keep its callback (and what that closes over) alive.
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append(1))
        event.cancel()
        assert event.callback is None
        assert event.cancelled
        sim.run()
        assert fired == []
        assert sim.executed_events == 0

    def test_clear_drops_callbacks(self):
        sim = Simulator()
        events = [sim.schedule_at(float(t), lambda: None) for t in (1, 2)]
        sim.clear()
        assert [event.callback for event in events] == [None, None]

    def test_pending_count_exact_across_cancel_fire_and_clear(self):
        sim = Simulator()
        fired = []
        first = sim.schedule_at(1.0, lambda: fired.append("first"))
        second = sim.schedule_at(2.0, lambda: fired.append("second"))
        sim.schedule_at(3.0, lambda: fired.append("third"))
        sim.schedule_at(4.0, lambda: fired.append("fourth"))
        assert sim.pending_events == 4
        second.cancel()
        assert sim.pending_events == 3
        assert sim.step() is True           # fires "first"
        assert sim.pending_events == 2
        first.cancel()                      # late: already fired
        second.cancel()                     # repeated
        assert sim.pending_events == 2
        sim.run(until=3.5)                  # fires "third"
        assert sim.pending_events == 1
        sim.clear()
        assert sim.pending_events == 0
        sim.run()
        assert fired == ["first", "third"]


class TestRunBounds:
    def test_run_until_pauses(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_until_with_empty_queue_advances_time(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_bound(self):
        sim = Simulator()
        count = []
        for i in range(10):
            sim.schedule_at(float(i), lambda: count.append(1))
        sim.run(max_events=3)
        assert len(count) == 3

    def test_step_returns_false_when_idle(self):
        sim = Simulator()
        assert sim.step() is False

    def test_step_executes_one(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(2.0, lambda: fired.append("b"))
        assert sim.step() is True
        assert fired == ["a"]

    def test_clear_drops_pending(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.clear()
        assert sim.pending_events == 0

    def test_executed_events_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.executed_events == 4

    def test_run_not_reentrant(self):
        sim = Simulator()
        failure = []

        def reenter():
            try:
                sim.run()
            except SimulationError:
                failure.append(True)

        sim.schedule_at(1.0, reenter)
        sim.run()
        assert failure == [True]


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]

    def test_restart_resets_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.schedule_at(1.0, lambda: timer.start(5.0))
        sim.run()
        assert fired == [6.0]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(2.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_armed_property(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(1.0)
        assert timer.armed
        sim.run()
        assert not timer.armed

    def test_rearm_before_and_after_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(2.0)                    # re-arm: the 1.0 expiry is gone
        assert sim.pending_events == 1
        sim.run()
        assert fired == [2.0]
        timer.start(3.0)                    # re-arm after firing
        assert timer.armed
        sim.run()
        assert fired == [2.0, 5.0]
        assert not timer.armed
        assert sim.pending_events == 0


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0, max_value=1000,
                              allow_nan=False), min_size=1, max_size=50))
    def test_events_always_execute_in_nondecreasing_time(self, times):
        sim = Simulator()
        observed = []
        for t in times:
            sim.schedule_at(t, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(times)
