"""Tests of the experiment harness at reduced scale.

Each test asserts the *shape* claims the corresponding table/figure makes
in the paper, so a regression in any substrate that would distort an
experiment fails here before the benchmarks run.  Table I and Fig. 5 are
sampled off the phone tier, so their exact outputs are pinned as well
(digests taken at the last commit that still had the per-device phone
path, where both paths produced them).  Fig. 6 / 9 / 11 train client
models, so their result objects are pinned too (digests taken at the last
commit whose figures trained on the per-device scalar ML path).
"""

import hashlib
import json

import pytest

from repro import GradeRequirement, PlatformConfig, SimDC, TaskSpec
from repro.cluster import NodeSpec
from repro.experiments import (
    format_fig5,
    format_fig6,
    format_fig7,
    format_fig8,
    format_fig9,
    format_fig10,
    format_fig11,
    format_table1,
    format_table2,
    run_fig5_device_trace,
    run_fig6_hybrid_accuracy,
    run_fig7_allocation_time,
    run_fig8_scalability,
    run_fig9_traffic_impact,
    run_fig10_dispatch_demo,
    run_fig11_dropout_impact,
    run_table1_stage_metrics,
    run_table2_curve_fidelity,
)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _items(mapping) -> list:
    """A dict with tuple or float keys as a JSON-able sorted item list."""
    return sorted((list(k) if isinstance(k, tuple) else k, v) for k, v in mapping.items())


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1_stage_metrics(n_devices_per_grade=20, n_benchmark_per_grade=2)

    def test_all_ten_rows_present(self, result):
        assert len(result.rows) == 10

    def test_durations_match_paper(self, result):
        for grade in ("High", "Low"):
            for stage in (1, 2, 4, 5):
                assert result.row(grade, stage)[4] == pytest.approx(0.25, abs=0.02)
        assert result.row("High", 3)[4] == pytest.approx(0.27, abs=0.02)
        assert result.row("Low", 3)[4] == pytest.approx(0.36, abs=0.02)

    def test_power_within_paper_ballpark(self, result):
        from repro.experiments.table1 import PAPER_TABLE1

        for grade, stage, _, mah, _, _ in result.rows:
            paper_mah, _ = PAPER_TABLE1[(grade, stage)]
            assert mah == pytest.approx(paper_mah, rel=0.35)

    def test_high_grade_cheaper_than_low(self, result):
        for stage in range(1, 6):
            assert result.row("High", stage)[3] < result.row("Low", stage)[3]

    def test_training_comm_near_33kb(self, result):
        assert result.row("High", 3)[5] == pytest.approx(33.1, rel=0.15)
        assert result.row("Low", 3)[5] == pytest.approx(33.1, rel=0.15)

    def test_format(self, result):
        text = format_table1(result)
        assert "no APK initiated" in text
        assert "33.1" in text

    def test_rows_pinned(self, result):
        digest = hashlib.sha256(json.dumps(result.rows).encode()).hexdigest()
        assert digest == "3ede0892c3be52f73379845b81ec2e7636a1c01e9e5a0c3994d0f4f8d2bf21d5"


class TestFig5:
    @pytest.fixture(scope="class")
    def trace(self):
        return run_fig5_device_trace(rounds=3)

    def test_three_round_windows(self, trace):
        assert len(trace.round_windows) == 3

    def test_cpu_range_matches_figure(self, trace):
        in_window = [
            c for t, c in zip(trace.times, trace.cpu_percent)
            if any(a <= t <= b for a, b in trace.round_windows) and c > 0
        ]
        assert max(in_window) <= 15.0
        assert max(in_window) > 8.0

    def test_memory_range_matches_figure(self, trace):
        active = [m for m in trace.memory_mb if m > 1.0]
        assert 5.0 < min(active) < 15.0
        assert 35.0 < max(active) < 60.0

    def test_gaps_between_rounds_unsampled(self, trace):
        for gap_start, gap_end in trace.gaps():
            inside = [t for t in trace.times if gap_start + 1.0 < t < gap_end - 1.0]
            assert inside == []

    def test_format(self, trace):
        assert "memory MB" in format_fig5(trace)

    def test_poll_interval_sets_the_sampling_rate(self, trace):
        """``PlatformConfig.poll_interval`` reaches the sampler: at 2 Hz the task records about twice the samples."""
        platform = SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(20, 30)] * 2, poll_interval=0.5))
        benchmarked = GradeRequirement(
            grade="High", n_devices=8, n_benchmark=1, bundles=8, n_phones=2,
            device_cpus=4, device_memory_gb=12,
        )
        spec = TaskSpec(name="fig5", grades=[benchmarked], rounds=3, numeric=False)
        platform.submit(spec)
        platform.run_until_idle(max_time=1e8)
        records = platform.result(spec.task_id).benchmark_records
        samples = sum(len(record.samples) for record in records)
        assert samples == pytest.approx(2 * trace.n_samples, rel=0.05)

    def test_trace_pinned(self, trace):
        series = [trace.serial, trace.times, trace.cpu_percent, trace.memory_mb, trace.round_windows]
        digest = hashlib.sha256(json.dumps(series).encode()).hexdigest()
        assert digest == "4964d6918bbcbe82d4ca1ec7e52f85376f5abd43525ae608d9c7dc6475e6e617"


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6_hybrid_accuracy(scales=((4, 4), (20, 20)), rounds=3, feature_dim=256)

    def test_within_half_percent(self, result):
        """The paper's headline: all diffs below 0.5 percentage points."""
        assert result.max_abs_diff() < 0.5

    def test_type1_identical_to_benchmark(self, result):
        for scale in result.scales:
            assert result.diffs[("Type 1", scale)] == pytest.approx(0.0, abs=1e-9)

    def test_benchmark_accuracy_learned(self, result):
        # Balanced labels: anything meaningfully above 0.5 shows learning.
        assert result.benchmark_accuracy[(20, 20)] > 0.6

    def test_format(self, result):
        assert "max |ACC diff|" in format_fig6(result)

    def test_result_pinned(self, result):
        digest = _digest([result.scales, _items(result.diffs), _items(result.benchmark_accuracy)])
        assert digest == "028ad1593ab731157e4e1ec3400e82a4dab905c1599097775b03513da1800ac9"


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7_allocation_time()

    def test_optimizer_never_worse(self, result):
        for scale in result.scales:
            optimum = result.times[("Optimization", scale)]
            for type_name in ("Type 1", "Type 2", "Type 3", "Type 4", "Type 5"):
                assert optimum <= result.times[(type_name, scale)] + 1e-9

    def test_logical_faster_at_small_scale(self, result):
        """APK startup dominates small scales (paper's observation)."""
        small = (4, 4)
        assert result.times[("Type 1", small)] < result.times[("Type 5", small)]

    def test_physical_faster_at_large_scale(self, result):
        large = (500, 500)
        assert result.times[("Type 5", large)] < result.times[("Type 1", large)]

    def test_optimizer_strictly_better_at_large_scale(self, result):
        large = (500, 500)
        optimum = result.times[("Optimization", large)]
        best_fixed = min(
            result.times[(t, large)]
            for t in ("Type 1", "Type 2", "Type 3", "Type 4", "Type 5")
        )
        assert optimum < best_fixed

    def test_format(self, result):
        assert "Optimization" in format_fig7(result)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8_scalability()

    def test_simdc_slowest_below_1000(self, result):
        for scale, ours, fs, fscope in zip(
            result.scales, result.simdc, result.fedscale, result.federatedscope
        ):
            if scale < 1000:
                assert ours > fs
                assert ours > fscope

    def test_comparable_to_federatedscope_at_scale(self, result):
        assert result.crossover_scale() <= 10_000

    def test_fedscale_always_fastest(self, result):
        for fs, ours in zip(result.fedscale, result.simdc):
            assert fs < ours

    def test_format(self, result):
        assert "FederatedScope" in format_fig8(result)

    def test_fig8_shape_small_scale(self, result):
        """Below 1000 devices SimDC is the slowest of the three."""
        for scale, ours, fs, fscope in zip(
            result.scales, result.simdc, result.fedscale, result.federatedscope
        ):
            if scale in (100, 316):
                assert ours > fs
                assert ours > fscope

    def test_fig8_shape_large_scale(self, result):
        """At >= 10k devices SimDC and FederatedScope are comparable and
        FedScale stays fastest."""
        for scale, ours, fs, fscope in zip(
            result.scales, result.simdc, result.fedscale, result.federatedscope
        ):
            if scale >= 10_000:
                assert 0.5 < ours / fscope < 1.5
                assert fs < ours

    def test_simdc_column_pinned(self, result):
        """SimDC's column is a logical-tier round, so a cost-model change moves it here."""
        assert [round(t, 1) for t in result.simdc] == [12.2, 14.7, 22.4, 50.4, 137.1, 415.1, 1284.6]


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig9_traffic_impact(
            n_devices=60, window_s=600.0, rounds=5, feature_dim=256
        )

    def test_smaller_sigma_more_arrivals(self, result):
        assert result.arrivals_in_window[1.0] >= result.arrivals_in_window[3.0]

    def test_smaller_sigma_no_fewer_aggregations(self, result):
        assert result.threshold_rounds[1.0] >= result.threshold_rounds[3.0]

    def test_smaller_sigma_lower_loss_mid_window(self, result):
        mid = result.window_s / 60.0 / 2.0
        assert result.loss_at(1.0, mid) <= result.loss_at(3.0, mid) + 1e-9

    def test_scheduled_participation_ordered_by_sigma(self, result):
        def mean(xs):
            return sum(xs) / len(xs)

        assert mean(result.participation[1.0]) > mean(result.participation[3.0])

    def test_scheduled_accuracy_sigma1_dominates_late_rounds(self, result):
        final = {s: dict(result.scheduled_accuracy[s]) for s in (1.0, 3.0)}
        last_round = max(final[1.0])
        assert final[1.0][last_round] >= final[3.0][last_round] - 0.02

    def test_format(self, result):
        assert "sample-threshold" in format_fig9(result)

    def test_result_pinned(self, result):
        fields = ("threshold_loss", "threshold_rounds", "arrivals_in_window", "scheduled_accuracy", "participation")
        digest = _digest([result.window_s] + [_items(getattr(result, name)) for name in fields])
        assert digest == "bdd9bcd375f5dd9ba8ae21e571700d9b512aebe7bda04960feee86e551581b62"


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig10_dispatch_demo(interval_messages=3000)

    def test_point_dispatch_amounts(self, result):
        assert [n for _, n in result.point_dispatches] == [200, 400, 600]

    def test_all_point_messages_received(self, result):
        assert result.received_total(result.point_cumulative_received) == 1200

    def test_bursts_spread_by_capacity(self, result):
        """Fig. 10(b): receipt spans beyond the designated instants."""
        t600 = [t for t, _ in result.point_cumulative_received[-1:]]
        assert t600[0] > 30.0  # the 600-burst takes ~0.86 s beyond t=30

    def test_interval_messages_conserved(self, result):
        assert result.received_total(result.interval_cumulative_received) == 3000

    def test_interval_follows_right_tail(self, result):
        early = sum(n for t, n in result.interval_dispatches if t < 20.0)
        assert early > 0.7 * result.interval_total

    def test_format(self, result):
        assert "Fig. 10(c)" in format_fig10(result)


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2_curve_fidelity(n_messages=4000)

    def test_all_six_curves(self, result):
        assert len(result.rows) == 6

    def test_all_correlations_above_99(self, result):
        """The paper's claim, end to end through a live DeviceFlow."""
        assert result.min_correlation() > 0.99

    def test_format(self, result):
        text = format_table2(result)
        assert "sin(t)+1" in text
        assert "paper r" in text


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig11_dropout_impact(
            dropouts=(0.0, 0.9), n_devices=60, rounds=8, feature_dim=256
        )

    def test_iid_dropout_negligible(self, result):
        clean = result.final_accuracy("iid", 0.0)
        dropped = result.final_accuracy("iid", 0.9)
        assert abs(clean - dropped) < 0.06

    def test_skewed_dropout_increases_volatility(self, result):
        assert result.volatility("skewed", 0.9) > 2.0 * result.volatility("skewed", 0.0)

    def test_models_actually_learn(self, result):
        series = result.accuracy[("iid", 0.0)]
        assert series[-1] > series[0] + 0.01
        assert series[-1] > 0.65  # well above the balanced-label majority rate

    def test_format(self, result):
        text = format_fig11(result)
        assert "identically distributed" in text
        assert "volatility" in text

    def test_result_pinned(self, result):
        digest = _digest([result.rounds, _items(result.accuracy)])
        assert digest == "e1b6567967457fa32925a9e1ec1e2d5c65445b0b73146559f8931aca639f428e"
