"""Tests for the discrete-event kernel."""

import pytest

from repro.simnet.events import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, log.append, "c")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(2.0, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        sim = Simulator()
        log = []
        for tag in "abc":
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("delay", [float("nan"), -0.0001, float("-inf")])
    def test_unordered_delay_rejected(self, delay):
        """NaN compares false with everything: as a heap key it would
        break the order of every event around it, silently."""
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)
        assert len(sim) == 0

    def test_negative_zero_and_infinite_delays_are_delays(self):
        sim = Simulator()
        log = []
        sim.schedule(float("inf"), log.append, "never")
        sim.schedule(-0.0, log.append, "now")
        sim.run(until=1e9)
        assert log == ["now"] and len(sim) == 1

    def test_events_may_schedule_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append(sim.now)
            sim.schedule(1.0, lambda: log.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [1.0, 2.0]


class TestQueue:
    """An event is its heap entry: nothing is handed out, and ``len``
    is the number of entries still to run."""

    def test_schedule_hands_out_no_handle(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.schedule(0.5, print, "a", 2) is None
        assert sim._heap == [(1.5, 1, print, ("a", 2))]

    def test_len_counts_pending_events(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i % 3), lambda: None)
        assert len(sim) == 5
        for run_events, pending in ((0, 5), (1, 4), (2, 2), (5, 0)):
            sim.run(max_events=run_events)
            assert len(sim) == pending == 5 - sim.processed_events

    def test_len_counts_events_scheduled_by_callbacks(self):
        sim = Simulator()
        seen = []

        def spawn():
            sim.schedule(1.0, lambda: None)
            sim.schedule(2.0, lambda: None)
            seen.append(len(sim))

        sim.schedule(1.0, spawn)
        sim.schedule(5.0, lambda: None)
        sim.run(until=1.0)
        assert seen == [3] and len(sim) == 3


class TestRunBounds:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "in")
        sim.schedule(5.0, log.append, "out")
        sim.run(until=2.0)
        assert log == ["in"]
        assert sim.now == 2.0  # clock advanced to the bound
        sim.run()
        assert log == ["in", "out"]

    def test_max_events(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), log.append, i)
        sim.run(max_events=2)
        assert log == [0, 1]

    def test_run_returns_at_once_when_empty(self):
        sim = Simulator()
        assert sim.run() == 0.0
        assert (sim.now, sim.processed_events, len(sim)) == (0.0, 0, 0)

    def test_processed_count(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 3

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()
