"""Unit + property tests for traffic curves and AUC discretisation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.deviceflow_reference import segment_areas as reference_segment_areas

from repro.deviceflow import (
    TABLE2_CURVES,
    TrafficCurve,
    discretize_curve,
    exponential_curve,
    gaussian_pdf,
    right_tailed_normal,
    sin_plus_one,
)
from repro.deviceflow.discretize import DispatchTick, choose_tick_width, schedule_correlation
from repro.scenarios import (
    ArrivalSpec,
    DispatchSpec,
    GradeSpec,
    PopulationSpec,
    ScenarioRunner,
    ScenarioSpec,
    TenantSpec,
)
from repro.scenarios import spec as spec_module


class TestTrafficCurveValidation:
    def test_negative_curve_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TrafficCurve(lambda t: np.sin(t), (0.0, 2 * math.pi), name="sin")

    def test_unbounded_curve_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            TrafficCurve(
                lambda t: np.where(t < 1.0, 1.0, np.inf), (0.0, 2.0), name="pole"
            )

    def test_zero_curve_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            TrafficCurve(lambda t: np.zeros_like(t), (0.0, 1.0))

    def test_bad_domain_rejected(self):
        with pytest.raises(ValueError):
            TrafficCurve(lambda t: t + 1.0, (2.0, 1.0))
        with pytest.raises(ValueError):
            TrafficCurve(lambda t: t + 1.0, (0.0, math.inf))

    def test_piecewise_continuous_accepted(self):
        """§V-B: piecewise continuity is explicitly supported."""
        curve = TrafficCurve(
            lambda t: np.where(t < 0.5, 1.0, 3.0), (0.0, 1.0), name="step"
        )
        assert curve.area() == pytest.approx(2.0, rel=0.01)

    def test_area_of_known_curves(self):
        assert gaussian_pdf(1.0).area() == pytest.approx(1.0, abs=1e-3)
        assert sin_plus_one().area() == pytest.approx(6 * math.pi, rel=1e-3)

    def test_to_actual_time_rescales_domain(self):
        curve = exponential_curve(2.0, (0.0, 3.0))
        rate = curve.to_actual_time(60.0)
        assert rate(np.array([0.0]))[0] == pytest.approx(1.0)
        assert rate(np.array([60.0]))[0] == pytest.approx(8.0)

    def test_table2_catalogue(self):
        names = [curve.name for curve in TABLE2_CURVES]
        assert names == ["N(0, 1)", "N(0, 2)", "sin(t)+1", "cos(t)+1", "2^t", "10^t"]

    def test_curve_factory_validation(self):
        with pytest.raises(ValueError):
            gaussian_pdf(0.0)
        with pytest.raises(ValueError):
            right_tailed_normal(-1.0)
        with pytest.raises(ValueError):
            exponential_curve(0.0)


class TestDiscretization:
    def test_conservation_exact(self):
        ticks = discretize_curve(gaussian_pdf(1.0), 60.0, 10_000, 700.0, None)
        assert sum(t.count for t in ticks) == 10_000

    def test_offsets_within_window_and_sorted(self):
        ticks = discretize_curve(sin_plus_one(), 120.0, 5_000, 700.0, None)
        offsets = [t.offset for t in ticks]
        assert offsets == sorted(offsets)
        assert offsets[0] >= 0.0
        assert offsets[-1] < 120.0

    def test_capacity_respected_per_tick(self):
        capacity = 700.0
        ticks = discretize_curve(gaussian_pdf(1.0), 60.0, 10_000, capacity, None)
        widths = np.diff([t.offset for t in ticks])
        max_width = widths.max() if len(widths) else 60.0
        for tick in ticks:
            assert tick.count <= capacity * max(max_width, 1.0) + 1

    def test_peaky_curve_gets_fine_ticks(self):
        wide = choose_tick_width(sin_plus_one(), 60.0, 1000, 700.0)
        peaky = choose_tick_width(gaussian_pdf(0.05, (-1.0, 1.0)), 60.0, 100_000, 700.0)
        assert peaky < wide

    def test_manual_tick_width(self):
        ticks = discretize_curve(sin_plus_one(), 60.0, 600, 700.0, tick_width=1.0)
        assert len(ticks) <= 60
        assert sum(t.count for t in ticks) == 600

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            discretize_curve(sin_plus_one(), -1.0, 100, 700.0, None)
        with pytest.raises(ValueError):
            discretize_curve(sin_plus_one(), 60.0, 0, 700.0, None)
        with pytest.raises(ValueError):
            discretize_curve(sin_plus_one(), 60.0, 100, 700.0, tick_width=-0.1)
        with pytest.raises(ValueError):
            DispatchTick(offset=-1.0, count=5)
        with pytest.raises(ValueError):
            DispatchTick(offset=0.0, count=-1)

    def test_table2_correlations_above_99(self):
        """Table II: Pearson r > 0.99 for every evaluated curve."""
        for curve in TABLE2_CURVES:
            ticks = discretize_curve(curve, 60.0, 10_000, 700.0, None)
            r = schedule_correlation(curve, ticks, 60.0)
            assert r > 0.99, f"{curve.name}: r={r:.4f}"

    def test_correlation_requires_two_ticks(self):
        with pytest.raises(ValueError):
            schedule_correlation(sin_plus_one(), [DispatchTick(0.0, 10)], 60.0)

    @given(
        total=st.integers(min_value=1, max_value=50_000),
        interval=st.floats(min_value=1.0, max_value=3600.0),
        sigma=st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_property(self, total, interval, sigma):
        """Message conservation holds for any total/window/shape combo."""
        ticks = discretize_curve(gaussian_pdf(sigma), interval, total, 700.0, None)
        assert sum(t.count for t in ticks) == total
        assert all(t.count > 0 for t in ticks)
        assert all(0.0 <= t.offset < interval for t in ticks)

    @given(
        base=st.floats(min_value=1.1, max_value=10.0),
        total=st.integers(min_value=100, max_value=20_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_exponential_monotone_schedule(self, base, total):
        """For a growing curve, later ticks carry (weakly) more traffic."""
        ticks = discretize_curve(exponential_curve(base), 60.0, total, 700.0, tick_width=2.0)
        counts = [t.count for t in ticks]
        # Allow rounding jitter of one message between adjacent ticks.
        assert all(b >= a - 1 for a, b in zip(counts, counts[1:]))


def population_curve() -> TrafficCurve:
    return PopulationSpec().traffic_curve()


class TestDiscretisationMemo:
    """The curve memoises its pure discretisation inputs; the results never change."""

    def test_segment_areas_equal_the_per_tick_loop_bit_for_bit(self):
        for curve in (*TABLE2_CURVES, right_tailed_normal(2.0), population_curve()):
            for interval in (1.0, 30.0, 60.0, 300.0, 3600.0):
                for n_ticks in (1, 2, 24, 60, 300, 1000):
                    got = curve.segment_areas(interval, n_ticks)
                    want = reference_segment_areas(curve, interval, n_ticks)
                    assert got.tobytes() == want.tobytes(), (curve.name, interval, n_ticks)

    def test_memoised_tables_give_the_same_ticks_as_a_fresh_curve(self):
        for make in (lambda: gaussian_pdf(1.0), sin_plus_one, population_curve):
            warm = make()
            for total in (7, 700, 70_000):  # tables for other totals, other tick counts
                discretize_curve(warm, 60.0, total, 700.0, None)
                discretize_curve(warm, 300.0, total, 35.0, None)
            for total in (1, 500, 9_999, 123_456):
                for interval, capacity, tick in ((60.0, 700.0, None), (300.0, 35.0, None), (60.0, 700.0, 2.0)):
                    assert discretize_curve(warm, interval, total, capacity, tick) == discretize_curve(
                        make(), interval, total, capacity, tick
                    )

    def test_grid_statistics_and_areas_are_computed_once(self):
        calls = []
        base = gaussian_pdf(1.0)
        curve = TrafficCurve(lambda t: calls.append(len(t)) or base.fn(t), base.domain)
        calls.clear()  # construction validated the curve
        for total in (100, 100, 101):
            discretize_curve(curve, 60.0, total, 700.0, None)
        assert calls == [4096, 60 * 16 + 1]
        areas = curve.segment_areas(60.0, 60)
        assert not areas.flags.writeable
        assert curve.grid_area_peak() is curve.grid_area_peak()

    def test_a_population_keeps_one_curve(self):
        population = PopulationSpec()
        assert population.traffic_curve() is population.traffic_curve()
        assert PopulationSpec().traffic_curve() is not population.traffic_curve()

    def test_interval_tenant_evaluates_its_curve_a_fixed_number_of_times(self, monkeypatch):
        # Tripwire: k tasks x r rounds of one interval tenant cost the same
        # curve evaluations as one round of one task (construction, grid,
        # one AUC table), however many curves the spec is asked for.
        calls = [0]
        real = spec_module.population_traffic_curve

        def counting_curve(timezones, availability):
            curve = real(timezones, availability)

            def counted(t):
                calls[0] += 1
                return curve.fn(t)

            return TrafficCurve(counted, curve.domain, name=curve.name)

        monkeypatch.setattr(spec_module, "population_traffic_curve", counting_curve)

        def evaluations(tasks: int, rounds: int) -> int:
            calls[0] = 0
            spec = ScenarioSpec(
                name="interval-tripwire",
                seed=0,
                horizon_s=100_000.0,
                tenants=[
                    TenantSpec(
                        name="interval",
                        rounds=rounds,
                        grades=[GradeSpec(grade="High", n_devices=40, bundles=4)],
                        arrival=ArrivalSpec(kind="periodic", count=tasks, period_s=2000.0),
                        dispatch=DispatchSpec(kind="interval", interval_s=120.0),
                    )
                ],
            )
            report = ScenarioRunner(spec).run()
            assert report.tenants["interval"].completed == tasks
            return calls[0]

        assert evaluations(1, 1) == 3
        assert evaluations(3, 1) == 3
        assert evaluations(1, 3) == 3
        assert evaluations(3, 2) == 3
