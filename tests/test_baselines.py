"""Tests for the FedScale/FederatedScope-like comparator models."""

import pytest

from repro.baselines import (
    FedScaleLikeSimulator,
    FederatedScopeLikeSimulator,
    SimDCRoundModel,
)


class TestCostModels:
    def test_round_time_monotone_in_scale(self):
        for model in (FedScaleLikeSimulator(), FederatedScopeLikeSimulator(), SimDCRoundModel()):
            times = [model.round_time(n) for n in (100, 1000, 10_000, 100_000)]
            assert times == sorted(times)

    def test_breakdown_sums_to_total(self):
        for model in (FedScaleLikeSimulator(), FederatedScopeLikeSimulator(), SimDCRoundModel()):
            breakdown = model.round_breakdown(5000)
            assert breakdown.total == pytest.approx(model.round_time(5000))

    def test_fedscale_has_no_communication(self):
        breakdown = FedScaleLikeSimulator().round_breakdown(1000)
        assert breakdown.communication == 0.0
        assert breakdown.storage == 0.0
        assert breakdown.memory_copies > 0.0

    def test_federatedscope_pays_communication(self):
        breakdown = FederatedScopeLikeSimulator().round_breakdown(1000)
        assert breakdown.communication > 0.0

    def test_simdc_pays_storage(self):
        breakdown = SimDCRoundModel().round_breakdown(1000)
        assert breakdown.storage > 0.0

    def test_fig8_shape_small_scale(self):
        """Below 1000 devices SimDC is the slowest of the three."""
        simdc = SimDCRoundModel()
        fedscale = FedScaleLikeSimulator()
        fscope = FederatedScopeLikeSimulator()
        for scale in (100, 316):
            assert simdc.round_time(scale) > fedscale.round_time(scale)
            assert simdc.round_time(scale) > fscope.round_time(scale)

    def test_fig8_shape_large_scale(self):
        """At >= 10k devices SimDC and FederatedScope are comparable and
        FedScale stays fastest."""
        simdc = SimDCRoundModel()
        fedscale = FedScaleLikeSimulator()
        fscope = FederatedScopeLikeSimulator()
        for scale in (10_000, 100_000):
            ratio = simdc.round_time(scale) / fscope.round_time(scale)
            assert 0.5 < ratio < 1.5
            assert fedscale.round_time(scale) < simdc.round_time(scale)

    def test_validation(self):
        with pytest.raises(ValueError):
            FedScaleLikeSimulator(total_cores=0)
        with pytest.raises(ValueError):
            FederatedScopeLikeSimulator(instance_cores=0)
        with pytest.raises(ValueError):
            SimDCRoundModel(device_round_s=0)
        with pytest.raises(ValueError):
            FedScaleLikeSimulator().round_time(0)
