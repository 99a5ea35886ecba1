"""Property-based tests over core invariants (hypothesis).

These complement the per-module unit tests with randomized coverage of
the properties the platform's correctness leans on: deterministic event
ordering, conservation laws in DeviceFlow, energy accounting, FedAvg
algebra, serialization round-trips, and allocation-formula monotonicity.
"""

import numpy as np
import pytest
from helpers import one_row
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deviceflow import RealTimeAccumulatedStrategy, Shelf
from repro.deviceflow.curves import TrafficCurve
from repro.ml import FedAvgPartial
from repro.ml.metrics import roc_auc_block
from repro.phones import BatteryModel
from repro.scheduler.allocation import (
    AllocationProblem,
    GradeAllocationParams,
    evaluate_allocation,
    solve_allocation,
)
from repro.simkernel import RandomStreams, Simulator, Timeout


class TestKernelProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_process_completion_times_deterministic(self, delays, seed):
        def run_once():
            sim = Simulator()
            done = []

            def worker(delay):
                yield Timeout(delay)
                done.append((sim.now, delay))

            for delay in delays:
                sim.process(worker(delay))
            sim.run()
            return done

        assert run_once() == run_once()

    @given(names=st.lists(st.text(min_size=1, max_size=20), min_size=2, max_size=10, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_random_streams_stable_under_subset_order(self, names):
        seed = 7
        full = RandomStreams(seed)
        draws_full = {}
        for name in names:
            draws_full[name] = full.get(name).random(4)
        # Accessing only the last name in a fresh factory gives the same draw.
        solo = RandomStreams(seed)
        target = names[-1]
        assert np.allclose(solo.get(target).random(4), draws_full[target])


class TestDeviceFlowProperties:
    @given(
        counts=st.integers(min_value=1, max_value=400),
        thresholds=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_message_conservation_through_dispatcher(self, counts, thresholds):
        """received == delivered + dropped + shelved, always."""
        from repro.deviceflow import DeviceFlow

        sim = Simulator()
        flow = DeviceFlow(sim, streams=RandomStreams(1), capacity_per_second=1e6)
        inbox = []
        flow.register_task(
            "t", RealTimeAccumulatedStrategy(thresholds, failure_prob=0.3),
            lambda segment: inbox.extend(segment.device_ids),
        )
        flow.round_started("t", 1)
        for i in range(counts):
            flow.submit_block(one_row(f"d{i}"))
        flow.round_completed("t", 1)
        sim.run()
        stats = flow.stats("t")
        assert stats.received == counts
        assert stats.delivered + stats.dropped + stats.shelved == counts
        assert len(inbox) == stats.delivered

    @given(count=st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_shelf_take_is_fifo_and_complete(self, count):
        shelf = Shelf("t", Simulator())
        for i in range(count):
            shelf.store(one_row(f"d{i}"))
        out = shelf.take(count + 10)  # over-asking returns only what exists
        assert [m.device_ids for m in out] == [[f"d{i}"] for i in range(count)]
        assert len(shelf) == 0

    @given(
        scale=st.floats(min_value=0.1, max_value=50.0),
        shift=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_curve_area_scales_linearly(self, scale, shift):
        base = TrafficCurve(lambda t: np.cos(t) + 1.1, (0.0, 6.0), name="c")
        scaled = TrafficCurve(lambda t: scale * (np.cos(t) + 1.1), (0.0, 6.0), name="cs")
        assert scaled.area() == pytest.approx(scale * base.area(), rel=1e-6)


class TestBatteryProperties:
    @given(
        draws=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2000.0),
                st.floats(min_value=0.0, max_value=3600.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_energy_accounting_additive(self, draws):
        battery = BatteryModel(5000, 3850.0, np.random.default_rng(0))
        total = 0.0
        for current, duration in draws:
            total += battery.accumulate(current, duration)
        assert battery.consumed_mah == pytest.approx(total)
        assert 0.0 <= battery.state_of_charge <= 1.0


class TestFedAvgProperties:
    @given(
        n_updates=st.integers(min_value=1, max_value=12),
        dim=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_fedavg_is_convex_combination(self, n_updates, dim, seed):
        """The aggregate lies inside the per-coordinate hull of updates."""
        rng = np.random.default_rng(seed)
        stacked = rng.normal(size=(n_updates, dim))
        biases = rng.normal(size=n_updates)
        weights, bias = FedAvgPartial.from_arrays(stacked, biases, rng.integers(1, 50, size=n_updates)).finalize()
        assert np.all(weights >= stacked.min(axis=0) - 1e-12)
        assert np.all(weights <= stacked.max(axis=0) + 1e-12)
        assert biases.min() - 1e-12 <= bias <= biases.max() + 1e-12

    @given(
        n=st.integers(min_value=2, max_value=200),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_auc_invariant_under_monotone_transform(self, n, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        scores = rng.normal(size=n)
        direct, squashed = roc_auc_block(
            np.concatenate([labels, labels]), np.concatenate([scores, 1.0 / (1.0 + np.exp(-scores))]), [n, n]
        )
        assert direct == pytest.approx(squashed)


class TestAllocationProperties:
    @given(
        n=st.integers(min_value=1, max_value=200),
        slots=st.integers(min_value=1, max_value=20),
        phones=st.integers(min_value=1, max_value=20),
        alpha=st.floats(min_value=0.5, max_value=30.0),
        beta=st.floats(min_value=0.5, max_value=30.0),
        lam=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimum_bounded_by_pure_strategies(self, n, slots, phones, alpha, beta, lam):
        params = GradeAllocationParams(
            grade="G", n_devices=n, bundles=slots, units_per_device=1,
            n_phones=phones, alpha=alpha, beta=beta, lam=lam,
        )
        problem = AllocationProblem([params])
        optimal = solve_allocation(problem).total_time
        pure_logical = evaluate_allocation(problem, [n]).total_time
        pure_physical = evaluate_allocation(problem, [0]).total_time
        assert optimal <= pure_logical + 1e-9
        assert optimal <= pure_physical + 1e-9

    @given(
        n=st.integers(min_value=1, max_value=100),
        extra=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_more_phones_never_hurts(self, n, extra):
        def optimum(phones):
            params = GradeAllocationParams(
                grade="G", n_devices=n, bundles=4, units_per_device=1,
                n_phones=phones, alpha=10.0, beta=5.0, lam=20.0,
            )
            return solve_allocation(AllocationProblem([params])).total_time

        assert optimum(3 + extra) <= optimum(3) + 1e-9

    @given(n=st.integers(min_value=1, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_makespan_weakly_increasing_in_devices(self, n):
        def optimum(devices):
            params = GradeAllocationParams(
                grade="G", n_devices=devices, bundles=6, units_per_device=2,
                n_phones=4, alpha=9.0, beta=6.0, lam=25.0,
            )
            return solve_allocation(AllocationProblem([params])).total_time

        assert optimum(n) <= optimum(n + 5) + 1e-9
