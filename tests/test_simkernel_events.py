"""Unit tests for the event queue and simulator loop."""

import pytest

from repro.simkernel import ProcessError, Simulator, Timeout
from repro.simkernel.events import EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        order = []
        queue.push(3.0, lambda: order.append("c"), ())
        queue.push(1.0, lambda: order.append("a"), ())
        queue.push(2.0, lambda: order.append("b"), ())
        while queue:
            queue.pop().callback()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, order.append, ("first",))
        queue.push(1.0, order.append, ("second",))
        queue.push(0.5, order.append, ("earlier",))
        while queue:
            event = queue.pop()
            event.callback(*event.args)
        assert order == ["earlier", "first", "second"]

    def test_cancel_skips_event(self):
        queue = EventQueue()
        fired = []
        handle = queue.push(1.0, lambda: fired.append(1), ())
        queue.cancel(handle)
        assert queue.pop() is None
        assert fired == []
        assert len(queue) == 0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None, ())
        queue.push(2.0, lambda: None, ())
        queue.cancel(first)
        assert queue.peek_time() == 2.0

    def test_len_counts_live_events(self):
        queue = EventQueue()
        a = queue.push(1.0, lambda: None, ())
        queue.push(2.0, lambda: None, ())
        assert len(queue) == 2
        queue.cancel(a)
        assert len(queue) == 1


class TestSimulatorScheduling:
    def test_schedule_advances_clock(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(2.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.0, 5.0]
        assert sim.now == 5.0

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.run(until=10.0)
        seen = []
        sim.schedule_at(12.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.5]

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_deadline_rejected_instead_of_hanging_run(self, bad):
        # A NaN deadline never compares as due: ``run`` used to spin on it forever.
        sim = Simulator()
        with pytest.raises(ValueError, match=repr(bad)):
            sim.schedule(bad, lambda: None)
        with pytest.raises(ValueError, match=repr(bad)):
            sim.schedule_at(bad, lambda: None)
        assert sim.run() == 0.0

    def test_run_until_time_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("early"))
        sim.schedule(10.0, lambda: seen.append("late"))
        sim.run(until=5.0)
        assert seen == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert seen == ["early", "late"]

    def test_run_until_predicate(self):
        sim = Simulator()
        box = {"n": 0}

        def bump():
            box["n"] += 1
            sim.schedule(1.0, bump)

        sim.schedule(1.0, bump)
        sim.run_until(lambda: box["n"] >= 3)
        assert box["n"] == 3
        assert sim.now == 3.0

    def test_run_until_raises_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False)

    def test_run_until_respects_max_time(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False, max_time=10.0)
        assert sim.now <= 10.0

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 4.0])
    def test_run_until_must_be_a_finite_time_not_in_the_past(self, bad):
        # ``until=inf`` used to park the clock at inf, after which every
        # ``schedule`` failed; ``until=nan`` used to run with no bound.
        sim = Simulator()
        sim.run(until=5.0)
        seen = []
        sim.schedule(1.0, seen.append, "next")
        with pytest.raises(ValueError, match=rf"^until must be a finite time >= now 5\.0, got {bad!r}$"):
            sim.run(until=bad)
        assert sim.now == 5.0 and seen == []
        sim.run(until=6.0)
        assert seen == ["next"]

    def test_run_until_max_time_nan_rejected_instead_of_unbounded(self):
        # NaN compares false with every time, so it used to be no bound at all.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match=r"^max_time must be a time or None, got nan$"):
            sim.run_until(lambda: sim.now >= 1.0, max_time=float("nan"))
        assert sim.now == 0.0 and sim.pending_events == 1

    def test_run_until_max_time_inf_is_no_bound(self):
        sim = Simulator()
        box = {"n": 0}

        def bump():
            box["n"] += 1
            sim.schedule(1.0, bump)

        sim.schedule(1.0, bump)
        assert sim.run_until(lambda: box["n"] >= 3, max_time=float("inf")) == 3.0

    def test_cancel_scheduled_event(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, lambda: seen.append(1))
        sim.cancel(handle)
        sim.run()
        assert seen == []

    def test_pending_events_property(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0


class TestFailurePropagation:
    def test_orphan_process_failure_raises_in_strict_mode(self):
        sim = Simulator()

        def boom():
            yield Timeout(1.0)
            raise ValueError("bang")

        sim.process(boom())
        with pytest.raises(ProcessError):
            sim.run()
