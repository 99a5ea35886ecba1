"""Tests for timezone, network and availability models."""

import numpy as np
import pytest

from repro.behavior import (
    DiurnalAvailability,
    GPRS,
    NetworkMixture,
    NetworkProfile,
    TimezoneMixture,
    WIFI,
    population_traffic_curve,
)
from repro.deviceflow import TimeIntervalStrategy


class TestTimezoneMixture:
    def test_fractions_normalised(self):
        fractions = TimezoneMixture().offset_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimezoneMixture([])
        with pytest.raises(ValueError):
            TimezoneMixture([(0, -1.0)])


class TestNetworkProfiles:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkProfile("bad", -1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            NetworkProfile("bad", 1.0, 0.0, 2.0)

    def test_expected_failure_prob(self):
        mixture = NetworkMixture([(WIFI, 0.5), (GPRS, 0.5)])
        expected = 0.5 * WIFI.failure_prob + 0.5 * GPRS.failure_prob
        assert mixture.expected_failure_prob() == pytest.approx(expected)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            NetworkMixture([])
        with pytest.raises(ValueError):
            NetworkMixture([(WIFI, 0.0)])


class TestDiurnalAvailability:
    def test_probability_bounds(self):
        model = DiurnalAvailability()
        hours = np.linspace(0, 24, 97)
        probs = model.probability(hours)
        assert probs.min() >= 0.0
        assert probs.max() <= 1.0

    def test_night_peak_dominates(self):
        model = DiurnalAvailability(night_peak=2.0)
        assert model.probability(np.array([2.0]))[0] > model.probability(np.array([12.0]))[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalAvailability(night_peak=24.0)
        with pytest.raises(ValueError):
            DiurnalAvailability(base_level=1.0)


class TestPopulationTrafficCurve:
    def test_curve_is_valid_and_feeds_deviceflow(self):
        mixture = TimezoneMixture()
        curve = population_traffic_curve(mixture, DiurnalAvailability())
        assert curve.domain == (0.0, 24.0)
        assert curve.area() > 0
        # The whole point: it can drive a TimeIntervalStrategy directly.
        strategy = TimeIntervalStrategy(curve, interval_seconds=3600.0)
        assert strategy.curve is curve

    def test_timezone_mixing_flattens_curve(self):
        """Many timezones smooth the global arrival curve (Fig. 3's point)."""
        single = population_traffic_curve(TimezoneMixture([(8, 1.0)]), DiurnalAvailability())
        spread = population_traffic_curve(TimezoneMixture(), DiurnalAvailability())
        hours = np.linspace(0, 24, 200)
        assert np.std(spread(hours)) < np.std(single(hours))
