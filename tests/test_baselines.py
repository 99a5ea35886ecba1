"""Tests for the FedScale/FederatedScope-like comparator models."""

import pytest

from repro.baselines import FedScaleLikeSimulator, FederatedScopeLikeSimulator
from repro.experiments import run_fig8_scalability


class TestCostModels:
    def test_round_time_monotone_in_scale(self):
        for model in (FedScaleLikeSimulator(), FederatedScopeLikeSimulator()):
            times = [model.round_time(n) for n in (100, 1000, 10_000, 100_000)]
            assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(ValueError):
            FedScaleLikeSimulator(total_cores=0)
        with pytest.raises(ValueError):
            FederatedScopeLikeSimulator(instance_cores=0)
        with pytest.raises(ValueError):
            FedScaleLikeSimulator().round_time(0)
        with pytest.raises(ValueError, match=r"total_cores must be >= 1, got 0"):
            run_fig8_scalability(total_cores=0)
        with pytest.raises(ValueError, match=r"scales must each be >= 1, got 0"):
            run_fig8_scalability(scales=(100, 0))
        with pytest.raises(ValueError, match=r"scales must each be >= 1, got -5"):
            run_fig8_scalability(scales=(-5,))
