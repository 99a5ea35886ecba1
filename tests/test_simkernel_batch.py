"""Tests for the batched kernel fast path and the sequence timeout pool."""

import numpy as np
import pytest

from repro.simkernel import Simulator, TimeoutPool


class TestEventArgs:
    def test_schedule_stores_callback_and_args(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "payload")
        assert event.callback == seen.append
        assert event.args == ("payload",)
        sim.run()
        assert seen == ["payload"]


class TestPopBatch:
    """Batch membership: exactly the events one ``Simulator.step_batch`` call drains."""

    def test_drains_one_timestamp_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1.0)
        sim.schedule(1.0, fired.append, 1.0)
        sim.schedule(2.0, fired.append, 2.0)
        assert sim.step_batch() == 2
        assert fired == [1.0, 1.0]
        assert sim.pending_events == 1

    def test_insertion_order_within_batch(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(3.0, fired.append, i)
        assert sim.step_batch() == 5
        assert fired == [0, 1, 2, 3, 4]

    def test_skips_cancelled(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "keep")
        drop = sim.schedule(1.0, fired.append, "drop")
        sim.cancel(drop)
        assert sim.step_batch() == 1
        assert fired == ["keep"]
        assert sim.pending_events == 0

    def test_empty_queue(self):
        assert Simulator().step_batch() == 0


class TestOneEventBatch:
    def test_same_time_event_scheduled_by_a_lone_event_fires_in_the_next_batch(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("first") or sim.schedule(0.0, fired.append, "second"))
        sim.schedule(2.0, fired.append, "later")
        assert sim.step_batch() == 1
        assert fired == ["first"] and sim.now == 1.0
        assert sim.pending_events == 2
        assert sim.step_batch() == 1
        assert fired == ["first", "second"] and sim.now == 1.0

    def test_live_count_and_popped_flag_match_a_batch_drain(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert sim.step_batch() == 1
        assert event.popped and sim.pending_events == 0
        sim.cancel(event)  # cancelling a fired event leaves the count alone
        assert sim.pending_events == 0

    def test_error_in_a_lone_event_propagates(self):
        sim = Simulator()

        def boom():
            raise ValueError("bang")

        sim.schedule(1.0, boom)
        with pytest.raises(ValueError, match="bang"):
            sim.step_batch()


class TestStepBatch:
    def test_same_order_as_single_stepping(self):
        def build(sim, order):
            for tag, time in [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 2.0)]:
                sim.schedule(time, order.append, tag)

        single = Simulator()
        order_single = []
        build(single, order_single)
        while single.step():
            pass

        batched = Simulator()
        order_batched = []
        build(batched, order_batched)
        batched.run()
        assert order_batched == order_single == ["a", "b", "c", "d"]

    def test_returns_fired_count(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        assert sim.step_batch() == 4
        assert sim.step_batch() == 0

    def test_cancellation_inside_batch_respected(self):
        sim = Simulator()
        fired = []
        handles = {}

        def first():
            fired.append("first")
            sim.cancel(handles["second"])

        sim.schedule(1.0, first)
        handles["second"] = sim.schedule(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first"]
        # Cancelling an event the batch already drained must not drive the
        # live count negative.
        assert sim.pending_events == 0

    def test_event_scheduled_at_current_time_fires_same_timestamp(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0.0, order.append, "inner")

        sim.schedule(1.0, outer)
        sim.schedule(1.0, order.append, "peer")
        sim.run()
        assert order == ["outer", "peer", "inner"]
        assert sim.now == 1.0


class TestTimeoutPool:
    """The pool's surviving surface: ascending chunks behind one sentinel,
    interleaved with the kernel events that single deadlines now are."""

    def test_fires_at_deadline_in_insertion_order(self):
        sim = Simulator()
        pool = TimeoutPool(sim)
        order = []
        for tag, deadline in [("b1", 2.0), ("a", 1.0), ("b2", 2.0)]:
            pool.add_sequence(np.array([deadline]), lambda lo, hi, t, tag=tag: order.append(tag))
        sim.run()
        assert order == ["a", "b1", "b2"]
        assert sim.now == 2.0
        assert pool.pending == 0

    def test_cancellation_before_fire(self):
        sim = Simulator()
        pool = TimeoutPool(sim)
        fired = []
        sim.schedule_at(1.0, fired.append, "keep")
        pool.add_sequence(np.array([1.0]), lambda lo, hi, t: fired.append("chunk"))
        drop = sim.schedule_at(1.0, fired.append, "drop")
        sim.cancel(drop)
        assert pool.pending == 1
        assert sim.pending_events == 2  # keep + the pool's sentinel
        sim.run()
        assert fired == ["keep", "chunk"]
        assert drop.cancelled

    def test_cancel_is_idempotent_and_noop_after_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, fired.append, "x")
        sim.run()
        sim.cancel(event)
        sim.cancel(event)
        assert fired == ["x"]
        assert sim.pending_events == 0

    def test_callback_can_cancel_sibling_same_deadline(self):
        # A sequence ``fire`` withdraws a kernel event queued behind the
        # pool's sentinel at the same timestamp; one queued ahead of it has
        # already run.  Same under batch and one-at-a-time stepping.
        for per_event in (False, True):
            sim = Simulator()
            pool = TimeoutPool(sim)
            fired = []
            ahead = sim.schedule_at(1.0, fired.append, "ahead")

            def fire(lo, hi, t):  # runs inside this iteration's sim
                fired.append("chunk")
                sim.cancel(ahead)
                sim.cancel(behind)

            pool.add_sequence(np.array([1.0]), fire)
            behind = sim.schedule_at(1.0, fired.append, "behind")
            if per_event:
                while sim.step():
                    pass
            else:
                sim.run()
            assert fired == ["ahead", "chunk"]
            assert sim.pending_events == 0

    def test_earlier_add_rearms_sentinel(self):
        sim = Simulator()
        pool = TimeoutPool(sim)
        order = []
        pool.add_sequence(np.array([5.0]), lambda lo, hi, t: order.append("late"))
        pool.add_sequence(np.array([1.0]), lambda lo, hi, t: order.append("early"))
        assert pool.next_deadline() == 1.0
        assert sim.pending_events == 1  # one sentinel, whatever the pool holds
        sim.run()
        assert order == ["early", "late"]
        assert pool.next_deadline() is None

    def test_add_sequence_drains_in_slices(self):
        sim = Simulator()
        pool = TimeoutPool(sim)
        times = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 4.0])
        slices = []
        pool.add_sequence(times, lambda lo, hi, t: slices.append((lo, hi, t)))
        assert pool.pending == 6
        sim.run()
        assert slices == [(0, 2, 1.0), (2, 5, 2.0), (5, 6, 4.0)]
        assert pool.pending == 0

    def test_add_sequence_validation(self):
        sim = Simulator()
        sim.run(until=3.0)
        pool = TimeoutPool(sim)
        with pytest.raises(ValueError):
            pool.add_sequence(np.array([2.0, 1.0]), lambda lo, hi, t: None)
        with pytest.raises(ValueError):
            pool.add_sequence(np.array([1.0, 2.0]), lambda lo, hi, t: None)
        pool.add_sequence(np.array([], dtype=float), lambda lo, hi, t: None)
        assert pool.pending == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_add_sequence_rejects_non_finite_times_naming_the_value(self, bad):
        # NaN slips past the ascending check (``nan < 0`` is false) and a
        # sentinel armed at NaN or inf never comes due.
        sim = Simulator()
        pool = TimeoutPool(sim)
        with pytest.raises(ValueError, match=f"must be finite, got {bad!r}"):
            pool.add_sequence(np.array([1.0, bad, 3.0]), lambda lo, hi, t: None)
        assert pool.pending == 0 and sim.pending_events == 0

    def test_interleaves_with_heap_events(self):
        # Kernel events at one timestamp fire in scheduling order; the
        # pool's due chunks fire together where its sentinel sits — at the
        # registration that first made that deadline the pool's earliest.
        sim = Simulator()
        pool = TimeoutPool(sim)
        order = []

        def chunk(tag):
            return lambda lo, hi, t: order.append((t, tag))

        sim.schedule_at(1.0, order.append, (1.0, "x"))
        pool.add_sequence(np.array([1.0, 2.0]), chunk("a"))
        sim.schedule_at(1.0, order.append, (1.0, "y"))
        pool.add_sequence(np.array([1.0]), chunk("b"))
        sim.schedule_at(2.0, order.append, (2.0, "z"))
        sim.schedule_at(0.5, order.append, (0.5, "w"))
        sim.run()
        assert order == [
            (0.5, "w"),
            (1.0, "x"), (1.0, "a"), (1.0, "b"), (1.0, "y"),
            # the sentinel for 2.0 was re-armed by the 1.0 drain, after z was scheduled
            (2.0, "z"), (2.0, "a"),
        ]

    def test_works_under_batched_stepping(self):
        sim = Simulator()
        pool = TimeoutPool(sim)
        fired = []
        times = np.sort(1.0 + np.arange(50) % 5)
        pool.add_sequence(times, lambda lo, hi, t: fired.extend(range(lo, hi)))
        assert sim.step_batch() == 1  # the sentinel; ten entries ride on it
        assert fired == list(range(10))
        sim.run()
        assert fired == list(range(50))
