"""Property-based tests for the kernel's ordering convention.

One deadline is a kernel event; ``TimeoutPool`` merges ascending deadline
arrays behind one sentinel event.  Hypothesis generates random
interleavings of ``schedule_at`` events (some cancelled — by another event,
or from inside a sequence ``fire``) and ``add_sequence`` chunks, with
deliberately colliding deadlines, and checks the fire log against a sorted
pure-Python model of the documented convention: events sharing a timestamp
fire in scheduling order, and a pool's due chunks fire together at its
sentinel's position, ties between chunks in insertion order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simkernel import Simulator, Timeout, TimeoutPool

#: One kernel event: deadline on an integer grid so collisions with
#: sequences and other events are common.
single_ops = st.tuples(st.just("single"), st.integers(min_value=0, max_value=6))

#: One chunk: start time plus non-negative increments (zeros keep several
#: entries on the same timestamp inside one chunk), and optionally the
#: rank of a kernel event its ``fire`` cancels.
sequence_ops = st.tuples(
    st.just("seq"),
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
    st.one_of(st.none(), st.integers(min_value=0, max_value=24)),
)

op_lists = st.lists(st.one_of(single_ops, sequence_ops), min_size=1, max_size=25)

#: For each kernel event (by registration order), an optional cancellation
#: time on the half-integer grid — strictly between fire timestamps, so
#: cancel-vs-fire ordering is never ambiguous.
cancel_plans = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=6)), max_size=25
)

_LAST = float("inf")


def chunk_times(op):
    _, start, increments, _victim = op
    return (float(start) + np.cumsum(increments)).tolist()


def build_reference(ops, cancel_plan):
    """Predict the fire log [(time, tag)] from the documented convention.

    Everything is registered before the run, so a kernel event's position
    among its timestamp's events is its op index.  The pool's sentinel sits
    at the op that first made its deadline the pool's earliest; every
    later sentinel is re-armed by a drain, i.e. behind all of these events.
    """
    singles = [op_index for op_index, op in enumerate(ops) if op[0] == "single"]
    chunks = [(op_index, chunk_times(op), op[3]) for op_index, op in enumerate(ops) if op[0] == "seq"]
    first_pool_time = min((times[0] for _, times, _ in chunks), default=None)
    sentinel_op = next((op_index for op_index, times, _ in chunks if times[0] == first_pool_time), None)

    # (time, position in the timestamp, tie order, what happens)
    agenda = []
    for rank, op_index in enumerate(singles):
        agenda.append((float(ops[op_index][1]), op_index, 0, ("single", op_index)))
        if rank < len(cancel_plan) and cancel_plan[rank] is not None:
            agenda.append((cancel_plan[rank] + 0.5, op_index, 0, ("cancel", op_index)))
    for op_index, times, victim in chunks:
        for t in sorted(set(times)):
            position = sentinel_op if t == first_pool_time else _LAST
            due = [i for i, x in enumerate(times) if x == t]
            agenda.append((t, position, op_index, ("seq", op_index, due, victim)))
    agenda.sort(key=lambda item: item[:3])

    log, fired, cancelled = [], set(), set()
    for t, _, _, what in agenda:
        if what[0] == "single":
            if what[1] not in cancelled:
                fired.add(what[1])
                log.append((t, what))
        elif what[0] == "cancel":
            if what[1] not in fired:
                cancelled.add(what[1])
        else:
            _, op_index, due, victim = what
            log.extend((t, ("seq", op_index, position)) for position in due)
            if victim is not None and victim < len(singles) and singles[victim] not in fired:
                cancelled.add(singles[victim])
    return log


def drive(ops, cancel_plan, per_event):
    """Register everything on a fresh kernel, run it, return what fired."""
    sim = Simulator()
    pool = TimeoutPool(sim)
    log = []
    events = []  # kernel events by registration rank
    for op_index, op in enumerate(ops):
        if op[0] == "single":
            event = sim.schedule_at(float(op[1]), lambda t=op_index: log.append((sim.now, ("single", t))))
            rank = len(events)
            if rank < len(cancel_plan) and cancel_plan[rank] is not None:
                sim.schedule_at(cancel_plan[rank] + 0.5, sim.cancel, event)
            events.append(event)
        else:
            times = chunk_times(op)

            def fire(lo, hi, t, op_index=op_index, times=times, victim=op[3]):
                for position in range(lo, hi):
                    assert times[position] == t  # the slice really is due now
                    log.append((t, ("seq", op_index, position)))
                if victim is not None and victim < len(events):
                    sim.cancel(events[victim])

            pool.add_sequence(np.array(times), fire)
    if per_event:
        while sim.step():
            pass
    else:
        sim.run()
    assert pool.pending == 0 and pool.next_deadline() is None
    assert sim.pending_events == 0
    return log


@given(ops=op_lists, cancel_plan=cancel_plans)
# A second chunk tying the pool's earliest deadline must not move the sentinel behind event 2.
@example(ops=[("single", 3), ("seq", 3, [0], None), ("single", 3), ("seq", 3, [0], None)], cancel_plan=[])
@settings(max_examples=120, deadline=None)
def test_fire_order_and_counts_match_reference_model(ops, cancel_plan):
    assert drive(ops, cancel_plan, per_event=False) == build_reference(ops, cancel_plan)


@given(ops=op_lists, cancel_plan=cancel_plans)
@settings(max_examples=60, deadline=None)
def test_batch_stepping_is_equivalent(ops, cancel_plan):
    """The fire log is identical under step() and step_batch() draining."""
    assert drive(ops, cancel_plan, per_event=True) == drive(ops, cancel_plan, per_event=False)


#: Heavy ties: long equal runs over three instants, interleaved across sequences.  Each sequence is
#: registered up front (``None``) or from inside the k-th ``fire`` call, shifted to that call's time.
tied_sequences = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=12).map(sorted),
        st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    ),
    min_size=1,
    max_size=8,
)


class SearchsortedPool:
    """The pool's contract, drained by one ``searchsorted`` per due sequence, first registered first."""

    def __init__(self, sim):
        self.sim, self.sequences = sim, []

    def add_sequence(self, times, fire):
        self.sequences.append([times, 0, fire])
        for t in np.unique(times):
            self.sim.schedule_at(float(t), self._drain)

    def _drain(self):
        now = self.sim.now
        while due := next((seq for seq in self.sequences if seq[1] < len(seq[0]) and seq[0][seq[1]] == now), None):
            times, lo, fire = due
            due[1] = hi = lo + int(np.searchsorted(times[lo:], now, side="right"))
            fire(lo, hi, now)


def fire_calls(pool_type, sequences):
    """Every ``fire(lo, hi, t)`` call, tagged with its sequence, in call order."""
    sim = Simulator()
    pool = pool_type(sim)
    calls = []

    def register(index, now):
        times = now + np.array(sequences[index][0], dtype=float)
        pool.add_sequence(times, lambda lo, hi, t: on_fire(index, lo, hi, t))

    def on_fire(index, lo, hi, t):
        calls.append((index, lo, hi, t))
        for other, (_, trigger) in enumerate(sequences):
            if trigger == len(calls) - 1:
                register(other, t)

    for index, (_, trigger) in enumerate(sequences):
        if trigger is None:
            register(index, 0.0)
    sim.run()
    return calls, pool


@given(sequences=tied_sequences)
@settings(max_examples=200, deadline=None)
def test_equal_time_runs_fire_the_calls_of_a_searchsorted_drain(sequences):
    got, pool = fire_calls(TimeoutPool, sequences)
    want, _ = fire_calls(SearchsortedPool, sequences)
    assert got == want
    assert pool.pending == 0 and pool.next_deadline() is None


class TestRecurringTimeout:
    def test_tick_schedule_accumulates_like_a_generator_loop(self):
        # A recurring tick must land on the same float timestamps as a
        # process looping over `yield Timeout(interval)` (now + delay
        # accumulation, NOT first + k * interval).
        interval = 0.1  # not exactly representable -> accumulation matters
        sim = Simulator()
        ticks = []
        handle = sim.schedule_recurring(interval, lambda: ticks.append(sim.now), first_at=0.0)
        sim.schedule_at(2.0, handle.cancel)
        sim.run()

        reference_sim = Simulator()
        reference = []

        def loop():
            while reference_sim.now <= 2.0:
                reference.append(reference_sim.now)
                yield Timeout(interval)

        reference_sim.process(loop())
        reference_sim.run()
        assert ticks == reference[: len(ticks)]
        assert len(ticks) >= 20

    def test_cancel_from_inside_callback(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_recurring(
            1.0, lambda: (fired.append(sim.now), fired and len(fired) >= 3 and handle.cancel()), first_at=1.0
        )
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert handle.cancelled
        assert sim.pending_events == 0

    def test_default_first_fire_is_one_interval_out(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_recurring(2.0, lambda: fired.append(sim.now), first_at=2.0)
        sim.run(until=5.0)
        handle.cancel()
        assert fired == [2.0, 4.0]
        assert sim.pending_events == 0

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                sim.schedule_recurring(bad, lambda: None, first_at=0.0)
