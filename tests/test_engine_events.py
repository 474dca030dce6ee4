"""Unit tests for the simulator kernel."""

import pytest

from repro.engine import SimulationError, Simulator


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

    def test_event_past_until_keeps_clock_at_until(self):
        sim = Simulator()
        sim.at(9.0, lambda: None)
        assert sim.run(until=4.0) == 4.0
        assert sim.events_processed == 0
        assert sim.pending_events == 1

    def test_orders_by_time(self):
        sim = Simulator()
        fired = []
        sim.at(3.0, lambda: fired.append(3))
        sim.at(1.0, lambda: fired.append(1))
        sim.at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2, 3]

    def test_fifo_among_same_time(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.at(5.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_fifo_tie_breaks(self):
        """Same-time events fire in scheduling order, wherever scheduled."""
        sim = Simulator()
        fired = []
        sim.at(5.0, lambda: fired.append("a"))
        sim.at(4.0, lambda: (fired.append("early"),
                             sim.at(5.0, lambda: fired.append("c"))))
        sim.at(5.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["early", "a", "b", "c"]

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
