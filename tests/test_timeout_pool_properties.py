"""Property-based tests for the vectorized TimeoutPool.

Hypothesis generates random interleavings of ``add`` / ``add_sequence`` /
``cancel`` registrations (with deliberately colliding deadlines, plus a
compaction threshold low enough to trigger mid-run) and checks the pool's
fire order and counts against a trivial pure-Python reference model of
the documented semantics: entries fire at their deadline, sequence chunks
before singletons, each group in insertion order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Simulator, TimeoutPool

#: Singleton registration: deadline on an integer grid so collisions with
#: sequences and other singletons are common.
singleton_ops = st.tuples(st.just("single"), st.integers(min_value=0, max_value=12))

#: Sequence registration: start time plus non-negative increments (zeros
#: keep several entries on the same timestamp inside one chunk).
sequence_ops = st.tuples(
    st.just("seq"),
    st.integers(min_value=0, max_value=12),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
)

op_lists = st.lists(st.one_of(singleton_ops, sequence_ops), min_size=1, max_size=25)

#: For each singleton (by registration order), an optional cancellation
#: time on the half-integer grid — strictly between drain timestamps, so
#: cancel-vs-fire ordering is never ambiguous.
cancel_plans = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=12)), max_size=25
)


def build_reference(ops, cancel_plan):
    """Predict the fire log [(time, tag)] from the documented semantics."""
    singles = []  # (time, op_index, cancel_time)
    chunks = []  # (times, op_index)
    singleton_count = 0
    for op_index, op in enumerate(ops):
        if op[0] == "single":
            cancel_at = None
            if singleton_count < len(cancel_plan) and cancel_plan[singleton_count] is not None:
                cancel_at = cancel_plan[singleton_count] + 0.5
            singles.append((float(op[1]), op_index, cancel_at))
            singleton_count += 1
        else:
            _, start, increments = op
            times, current = [], float(start)
            for increment in increments:
                current += increment
                times.append(current)
            chunks.append((times, op_index))

    timestamps = sorted(
        {t for t, _, _ in singles}
        | {t for times, _ in chunks for t in times}
    )
    log = []
    for now in timestamps:
        # 1. sequence slices, in chunk insertion order.
        for times, op_index in chunks:
            due = [i for i, t in enumerate(times) if t == now]
            for position in due:
                log.append((now, ("seq", op_index, position)))
        # 2. singletons in insertion order, unless cancelled earlier.
        for time, op_index, cancel_at in singles:
            if time == now and (cancel_at is None or cancel_at > time):
                log.append((now, ("single", op_index)))
    return log, singles


@given(ops=op_lists, cancel_plan=cancel_plans)
@settings(max_examples=120, deadline=None)
def test_fire_order_and_counts_match_reference_model(ops, cancel_plan):
    sim = Simulator()
    pool = TimeoutPool(sim, name="under-test")
    pool._COMPACT_THRESHOLD = 8  # exercise compaction on small runs

    log = []
    handles = []
    singleton_count = 0
    for op_index, op in enumerate(ops):
        if op[0] == "single":
            handle = pool.add_at(
                float(op[1]), lambda t=op_index: log.append((sim.now, ("single", t)))
            )
            cancel_slot = singleton_count
            if cancel_slot < len(cancel_plan) and cancel_plan[cancel_slot] is not None:
                sim.schedule_at(cancel_plan[cancel_slot] + 0.5, handle.cancel)
            handles.append((handle, op_index))
            singleton_count += 1
        else:
            _, start, increments = op
            times, current = [], float(start)
            for increment in increments:
                current += increment
                times.append(current)

            chunk_times = tuple(times)

            def fire(lo, hi, t, op_index=op_index, chunk_times=chunk_times):
                for position in range(lo, hi):
                    assert chunk_times[position] == t  # slice really is due now
                    log.append((t, ("seq", op_index, position)))

            pool.add_sequence(np.array(times), fire)

    sim.run()

    expected_log, singles = build_reference(ops, cancel_plan)
    assert log == expected_log
    assert pool.pending == 0

    # Handle terminal states agree with the model.
    expected_states = {
        op_index: (cancel_at is None or cancel_at > time)
        for time, op_index, cancel_at in singles
    }
    for handle, op_index in handles:
        assert handle.fired == expected_states[op_index]
        assert handle.cancelled == (not expected_states[op_index])


@given(
    ops=op_lists,
    cancel_plan=cancel_plans,
)
@settings(max_examples=60, deadline=None)
def test_batch_stepping_is_equivalent(ops, cancel_plan):
    """The fire log is identical under step() and step_batch() draining."""

    def run(per_event):
        sim = Simulator()
        pool = TimeoutPool(sim, name="under-test")
        pool._COMPACT_THRESHOLD = 8
        log = []
        singleton_count = 0
        for op_index, op in enumerate(ops):
            if op[0] == "single":
                handle = pool.add_at(
                    float(op[1]), lambda t=op_index: log.append((sim.now, ("single", t)))
                )
                if (
                    singleton_count < len(cancel_plan)
                    and cancel_plan[singleton_count] is not None
                ):
                    sim.schedule_at(cancel_plan[singleton_count] + 0.5, handle.cancel)
                singleton_count += 1
            else:
                _, start, increments = op
                times, current = [], float(start)
                for increment in increments:
                    current += increment
                    times.append(current)
                pool.add_sequence(
                    np.array(times),
                    lambda lo, hi, t, op_index=op_index: log.extend(
                        (t, ("seq", op_index, position)) for position in range(lo, hi)
                    ),
                )
        if per_event:
            while sim.step():
                pass
        else:
            sim.run()
        return log

    assert run(per_event=True) == run(per_event=False)


class TestRecurringTimeout:
    def test_tick_schedule_accumulates_like_a_generator_loop(self):
        # A recurring tick must land on the same float timestamps as a
        # process looping over `yield Timeout(interval)` (now + delay
        # accumulation, NOT first + k * interval).
        interval = 0.1  # not exactly representable -> accumulation matters
        sim = Simulator()
        pool = TimeoutPool(sim, name="ticker")
        ticks = []
        handle = pool.add_recurring(interval, lambda: ticks.append(sim.now), first_at=0.0)
        sim.schedule_at(2.0, handle.cancel)
        sim.run()

        reference_sim = Simulator()
        reference = []

        def loop():
            from repro.simkernel import Timeout

            while reference_sim.now <= 2.0:
                reference.append(reference_sim.now)
                yield Timeout(interval)

        reference_sim.process(loop())
        reference_sim.run()
        assert ticks == reference[: len(ticks)]
        assert len(ticks) >= 20

    def test_cancel_from_inside_callback(self):
        sim = Simulator()
        pool = TimeoutPool(sim, name="ticker")
        fired = []
        handle = pool.add_recurring(
            1.0, lambda: (fired.append(sim.now), fired and len(fired) >= 3 and handle.cancel()), first_at=1.0
        )
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert handle.cancelled
        assert pool.pending == 0

    def test_default_first_fire_is_one_interval_out(self):
        sim = Simulator()
        pool = TimeoutPool(sim, name="ticker")
        fired = []
        handle = pool.add_recurring(2.0, lambda: fired.append(sim.now), first_at=2.0)
        sim.run(until=5.0)
        handle.cancel()
        assert fired == [2.0, 4.0]

    def test_invalid_interval_rejected(self):
        import pytest

        sim = Simulator()
        pool = TimeoutPool(sim, name="ticker")
        with pytest.raises(ValueError):
            pool.add_recurring(0.0, lambda: None, first_at=0.0)
