"""Unit tests for the event queue and simulator kernel."""

import pytest

from repro.engine import EventQueue, SimulationError, Simulator


class TestEventQueue:
    def test_empty_queue_pops_none(self):
        q = EventQueue()
        assert q.pop() is None
        assert not q
        assert len(q) == 0

    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(3.0, lambda: fired.append(3))
        q.push(1.0, lambda: fired.append(1))
        q.push(2.0, lambda: fired.append(2))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == [1, 2, 3]

    def test_fifo_among_same_time(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.push(5.0, lambda i=i: fired.append(i))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == list(range(10))

    def test_priority_beats_insertion_order(self):
        q = EventQueue()
        fired = []
        q.push(5.0, lambda: fired.append("late"), priority=1)
        q.push(5.0, lambda: fired.append("early"), priority=0)
        while (e := q.pop()) is not None:
            e.action()
        assert fired == ["early", "late"]

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        fired = []
        handle = q.push(1.0, lambda: fired.append("cancelled"))
        q.push(2.0, lambda: fired.append("kept"))
        handle.cancel()
        while (e := q.pop()) is not None:
            e.action()
        assert fired == ["kept"]

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        handle.cancel()
        assert q.peek_time() == 2.0


class TestSimulator:
    def test_run_advances_time(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, lambda: fired.append(sim.now))
        sim.at(7.5, lambda: fired.append(sim.now))
        end = sim.run()
        assert fired == [5.0, 7.5]
        assert end == 7.5

    def test_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.at(10.0, lambda: sim.after(2.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [12.5]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_run_until_time_limit(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.at(t, lambda t=t: fired.append(t))
        sim.run(until=2.5)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.5
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_stop_from_event(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_event_at_until_fires_and_next_does_not(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, lambda: fired.append(5.0))
        sim.at(5.5, lambda: fired.append(5.5))
        assert sim.run(until=5.0) == 5.0
        assert fired == [5.0]
        assert sim.now == 5.0
        assert sim.events_processed == 1

    def test_run_until_in_the_past_raises(self):
        """The clock never runs backwards (it used to rewind to ``until``)."""
        sim = Simulator()
        sim.at(15.0, lambda: None)
        sim.at(20.0, lambda: None)
        sim.run(until=15.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)
        assert sim.now == 15.0
        with pytest.raises(SimulationError):
            sim.at(10.0, lambda: None)

    def test_run_until_now_is_allowed(self):
        sim = Simulator()
        sim.at(15.0, lambda: None)
        sim.run()
        assert sim.run(until=15.0) == 15.0

    def test_max_events_budget(self):
        sim = Simulator()
        fired = []
        for t in range(10):
            sim.at(float(t), lambda t=t: fired.append(t))
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]
        assert sim.events_processed == 4
        assert sim.now == 3.0
        sim.run(max_events=0)
        assert fired == [0, 1, 2, 3]
        sim.run(max_events=100)
        assert fired == list(range(10))
        assert sim.events_processed == 10

    def test_budget_does_not_count_cancelled_events(self):
        sim = Simulator()
        fired = []
        for t in range(4):
            handle = sim.at(float(t), lambda t=t: fired.append(t))
            if t % 2 == 0:
                handle.cancel()
        sim.run(max_events=1)
        assert fired == [1]
        sim.run(max_events=1)
        assert fired == [1, 3]

    def test_stop_inside_action_stops_the_loop(self):
        sim = Simulator()
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()
            sim.after(0.0, lambda: fired.append("same-time"))

        sim.at(1.0, stopper)
        sim.at(2.0, lambda: fired.append(2))
        assert sim.run() == 1.0
        assert fired == ["stop"]
        assert sim.events_processed == 1
        sim.run()
        assert fired == ["stop", "same-time", 2]

    def test_cancelled_head_event_is_skipped_and_uncounted(self):
        sim = Simulator()
        fired = []
        head = sim.at(1.0, lambda: fired.append(1))
        sim.at(2.0, lambda: fired.append(2))
        head.cancel()
        assert sim.run() == 2.0
        assert fired == [2]
        assert sim.events_processed == 1
        assert sim.pending_events == 0

    def test_cancelled_event_past_until_keeps_clock_at_until(self):
        sim = Simulator()
        sim.at(1.0, lambda: None).cancel()
        sim.at(9.0, lambda: None)
        assert sim.run(until=4.0) == 4.0
        assert sim.events_processed == 0
        assert sim.pending_events == 1

    def test_priority_and_fifo_tie_breaks(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, lambda: fired.append("p1-a"), priority=1)
        sim.at(5.0, lambda: fired.append("p0-a"))
        sim.at(5.0, lambda: fired.append("p1-b"), priority=1)
        sim.at(5.0, lambda: fired.append("p0-b"))
        sim.at(4.0, lambda: fired.append("early"), priority=9)
        sim.run()
        assert fired == ["early", "p0-a", "p0-b", "p1-a", "p1-b"]

    def test_event_handle_keeps_priority_and_tag(self):
        sim = Simulator()
        handle = sim.after(2.0, lambda: None, priority=3, tag="probe")
        assert (handle.time, handle.priority, handle.tag) == (2.0, 3, "probe")
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.at(float(t), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_run_until_idle_detects_livelock(self):
        sim = Simulator()

        def reschedule():
            sim.after(1.0, reschedule)

        sim.at(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_reset(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0

    def test_deterministic_cascades(self):
        """Two identical simulations interleave identically."""

        def build():
            sim = Simulator()
            log = []

            def spawn(depth):
                log.append((sim.now, depth))
                if depth < 3:
                    sim.after(1.0, lambda: spawn(depth + 1))
                    sim.after(1.0, lambda: spawn(depth + 1))

            sim.at(0.0, lambda: spawn(0))
            sim.run()
            return log

        assert build() == build()
