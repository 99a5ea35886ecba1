"""Tests for the batched kernel fast path and the vectorized timeout pool."""

import numpy as np
import pytest

from repro.simkernel import Simulator, TimeoutPool
from repro.simkernel.events import EventQueue


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
    def test_drains_one_timestamp_run(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, ())
        queue.push(1.0, lambda: None, ())
        queue.push(2.0, lambda: None, ())
        batch = queue.pop_batch()
        assert [e.time for e in batch] == [1.0, 1.0]
        assert len(queue) == 1

    def test_insertion_order_within_batch(self):
        queue = EventQueue()
        events = [queue.push(3.0, lambda: None, ()) for _ in range(5)]
        assert queue.pop_batch() == events

    def test_skips_cancelled(self):
        queue = EventQueue()
        keep = queue.push(1.0, lambda: None, ())
        drop = queue.push(1.0, lambda: None, ())
        queue.cancel(drop)
        assert queue.pop_batch() == [keep]
        assert len(queue) == 0

    def test_empty_queue(self):
        assert EventQueue().pop_batch() == []


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
    def test_fires_at_deadline_in_insertion_order(self):
        sim = Simulator()
        pool = TimeoutPool(sim, name="pool")
        order = []
        pool.add(2.0, order.append, "b1")
        pool.add(1.0, order.append, "a")
        pool.add(2.0, order.append, "b2")
        sim.run()
        assert order == ["a", "b1", "b2"]
        assert sim.now == 2.0
        assert pool.pending == 0

    def test_cancellation_before_fire(self):
        sim = Simulator()
        pool = TimeoutPool(sim, name="pool")
        fired = []
        keep = pool.add(1.0, fired.append, "keep")
        drop = pool.add(1.0, fired.append, "drop")
        drop.cancel()
        assert pool.pending == 1
        sim.run()
        assert fired == ["keep"]
        assert keep.fired and not keep.cancelled
        assert drop.cancelled and not drop.fired

    def test_cancel_is_idempotent_and_noop_after_fire(self):
        sim = Simulator()
        pool = TimeoutPool(sim, name="pool")
        fired = []
        handle = pool.add(1.0, fired.append, "x")
        sim.run()
        handle.cancel()
        handle.cancel()
        assert fired == ["x"]
        assert handle.fired

    def test_callback_can_cancel_sibling_same_deadline(self):
        sim = Simulator()
        pool = TimeoutPool(sim, name="pool")
        fired = []
        handles = {}

        def first():
            fired.append("first")
            handles["second"].cancel()

        pool.add(1.0, first)
        handles["second"] = pool.add(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first"]

    def test_earlier_add_rearms_sentinel(self):
        sim = Simulator()
        pool = TimeoutPool(sim, name="pool")
        order = []
        pool.add(5.0, order.append, "late")
        pool.add(1.0, order.append, "early")
        assert pool.next_deadline() == 1.0
        sim.run()
        assert order == ["early", "late"]

    def test_rejects_past_and_negative(self):
        sim = Simulator()
        sim.run(until=10.0)
        pool = TimeoutPool(sim, name="pool")
        with pytest.raises(ValueError):
            pool.add(-1.0, lambda: None)
        with pytest.raises(ValueError):
            pool.add_at(5.0, lambda: None)

    def test_add_sequence_drains_in_slices(self):
        sim = Simulator()
        pool = TimeoutPool(sim, name="pool")
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
        pool = TimeoutPool(sim, name="pool")
        with pytest.raises(ValueError):
            pool.add_sequence(np.array([2.0, 1.0]), lambda lo, hi, t: None)
        with pytest.raises(ValueError):
            pool.add_sequence(np.array([1.0, 2.0]), lambda lo, hi, t: None)
        pool.add_sequence(np.array([], dtype=float), lambda lo, hi, t: None)
        assert pool.pending == 0

    def test_interleaves_with_heap_events(self):
        sim = Simulator()
        pool = TimeoutPool(sim, name="pool")
        order = []
        sim.schedule(1.5, order.append, "heap-1.5")
        pool.add(1.0, order.append, "pool-1.0")
        pool.add(2.0, order.append, "pool-2.0")
        sim.schedule(0.5, order.append, "heap-0.5")
        sim.run()
        assert order == ["heap-0.5", "pool-1.0", "heap-1.5", "pool-2.0"]

    def test_growth_beyond_initial_capacity(self):
        sim = Simulator()
        pool = TimeoutPool(sim, name="pool")
        fired = []
        for i in range(200):
            pool.add(float(i % 7) + 1.0, fired.append, i)
        sim.run()
        assert len(fired) == 200

    def test_compaction_preserves_live_handles(self):
        # 300 fired entries against 100 live ones crosses the compaction
        # threshold (count >= 256, half dead); the survivors' handles must
        # keep working after their slots are remapped.
        sim = Simulator()
        pool = TimeoutPool(sim, name="pool")
        fired = []
        for i in range(300):
            pool.add(1.0, fired.append, i)
        late = [pool.add(5.0, fired.append, 1000 + i) for i in range(100)]
        sim.run(until=2.0)
        assert len(fired) == 300
        assert pool.pending == 100
        for handle in late[:50]:
            handle.cancel()
        assert pool.pending == 50
        sim.run()
        assert len(fired) == 350
        assert all(h.cancelled and not h.fired for h in late[:50])
        assert all(h.fired and not h.cancelled for h in late[50:])

    def test_works_under_batched_stepping(self):
        sim = Simulator()
        pool = TimeoutPool(sim, name="pool")
        fired = []
        for i in range(50):
            pool.add(1.0 + (i % 5), fired.append, i)
        sim.run()
        assert len(fired) == 50
